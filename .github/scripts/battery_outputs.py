"""Write the CLI outputs of the acceptance battery with a given source tree.

    python .github/scripts/battery_outputs.py SRC_DIR OUT_DIR

BATTERY is read from tests/test_acceptance.py beside this script's checkout
(criterion 11's list of argvs) and each argv is run once through cli.main
with --out OUT_DIR/<name>.  SRC_DIR goes first on sys.path, and the imported
package must come from it, so that an editable install of another checkout
cannot stand in for it.  Two runs with different SRC_DIRs can then be
compared with diff -r.
"""

import ast
import sys
from pathlib import Path

ACCEPTANCE = Path(__file__).resolve().parents[2] / "tests" / "test_acceptance.py"


def battery():
    for node in ast.parse(ACCEPTANCE.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "BATTERY" for t in node.targets):
            return ast.literal_eval(node.value)
    raise SystemExit(f"no BATTERY in {ACCEPTANCE}")


def main(src_dir, out_dir):
    src = Path(src_dir).resolve()
    sys.path.insert(0, str(src))
    import sqfpairs
    from sqfpairs.cli import main as cli_main

    assert Path(sqfpairs.__file__).resolve().is_relative_to(src), \
        f"sqfpairs imported from {sqfpairs.__file__}, not from {src}"
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, argv in battery():
        code = cli_main(argv + ["--out", str(out / name)])
        if code != 0:
            raise SystemExit(f"{name}: cli.main returned {code}")
    print(f"{src}: wrote the battery's outputs to {out}", file=sys.stderr)


if __name__ == "__main__":
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    main(*sys.argv[1:])
