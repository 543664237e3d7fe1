"""Count the code lines of a package: docstrings, comments and blank lines excluded.

    python .github/scripts/code_lines.py [SRC_DIR]

SRC_DIR defaults to src/ beside this script's checkout.  A line counts when
it holds a token other than a comment, a line break or an indent, and that
token is not part of a docstring (the first statement of a module, class or
function, when it is a string constant).  Prints one line per module, in
path order, and the total.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                yield from range(first.lineno, first.end_lineno + 1)


def code_lines(text: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - set(_docstring_lines(ast.parse(text))))


def main(src_dir):
    root = Path(src_dir)
    total = 0
    for path in sorted(root.rglob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{n:6d}  {path.relative_to(root)}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    if len(sys.argv) > 2:
        raise SystemExit(__doc__)
    main(sys.argv[1] if len(sys.argv) == 2 else SRC)
