import cmath
import dataclasses
import decimal
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import sqfpairs
from oracles import primes_to, read_table
from sqfpairs import cli, counting, expsum
from sqfpairs.alpha import AlgebraicAlpha
from sqfpairs.cli import (
    COLUMNS,
    COMMANDS,
    OPTIONS,
    ExperimentConfig,
    apply_rule,
    build_parser,
    config_from_args,
    emit_table,
    main,
    parse_count,
    parse_number_list,
)
from sqfpairs.errors import ConfigError, RangeCapError
from sqfpairs.sieves import GLOBAL_MAX


def run_cli(*argv):
    return main(list(argv))


def test_number_list_scientific_shorthand():
    assert parse_number_list("1e2,1000,1e4") == (100, 1000, 10000)
    with pytest.raises(ConfigError):
        parse_number_list("10,5")
    with pytest.raises(ConfigError):
        parse_number_list("1.5")
    with pytest.raises(ConfigError):
        parse_number_list("ten")


def test_parse_count_is_exact():
    assert parse_count("12345678901234567891") == 12345678901234567891
    assert parse_count("10000000000000001") == 10000000000000001
    assert parse_count("2.5e6") == 2500000
    assert parse_count("1000e-3") == 1
    assert parse_number_list("1e6,1e7,1e8") == (10 ** 6, 10 ** 7, 10 ** 8)
    for bad in ("1000000000.5", "1e-3", "2.5e0", "", "inf", "nan", "0x10"):
        with pytest.raises(ConfigError):
            parse_count(bad)


def test_non_integer_n_exits_2(tmp_path):
    assert run_cli("pairs", "--alpha", "sqrt:2", "--n", "1000000000.5",
                   "--out", str(tmp_path / "x.csv")) == 2


def test_values_beyond_caps_exit_3(tmp_path, capsys):
    # alpha*N = 1e19 would overflow the int64 floors; 1e999999999 is no float
    assert run_cli("pairs", "--alpha", "quad:1000000000000000,1,1,2", "--n", "1e4",
                   "--out", str(tmp_path / "x.csv")) == 3
    assert "alpha*N" in capsys.readouterr().err
    assert run_cli("pairs", "--alpha", "sqrt:2", "--n", "1e999999999",
                   "--out", str(tmp_path / "x.csv")) == 3
    # alpha = sqrt(2**2100 + 1) is beyond the double range: no fl(alpha) for
    # the cap on alpha*N, in every count
    huge = f"sqrt:{2 ** 2100 + 1}"
    for command in ("pairs", "single", "fit", "decompose"):
        capsys.readouterr()
        assert run_cli(command, "--alpha", huge, "--n", "100,200,300",
                       "--out", str(tmp_path / "x.csv")) == 3, command
        assert "double range" in capsys.readouterr().err, command


def test_zero_with_a_large_exponent_is_zero_not_too_many_digits(tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    for zero in ("0e30", "0e999999999", "0.0e31"):
        assert run_cli("pairs", "--alpha", "sqrt:2", "--n", zero, "--out", out) == 2, zero
        assert "need N >= 2" in capsys.readouterr().err, zero
    assert run_cli("discrepancy", "--alpha", "sqrt:2", "--n", "100", "--interval", "0,0.5",
                   "--budget", "0e40", "--out", out) == 2
    assert "must be positive" in capsys.readouterr().err
    assert run_cli("pairs", "--alpha", "sqrt:2", "--n", "1e30", "--out", out) == 3
    assert "more than 30 digits" in capsys.readouterr().err


def test_modulus_factors_below_one_exit_2_naming_the_option(capsys, monkeypatch):
    def no_run(cfg):
        raise AssertionError("run called")

    monkeypatch.setattr(cli, "run", no_run)
    base = ("--alpha", "sqrt:2", "--n", "1000")
    for command, mode in (("discrepancy", ()), ("discrepancy", ("--interval", "0,0.5")),
                          ("expsum", ()), ("expsum", ("--h", "1"))):
        for flag in ("--d", "--t"):
            for value in ("0", "-3"):
                argv = (command, *base, *mode, flag, value)
                assert run_cli(*argv) == 2, argv
                assert "--d and --t must be at least 1" in capsys.readouterr().err, argv


def test_negative_scientific_values_need_an_equals_sign(capsys, monkeypatch):
    # argparse reads a separate "-1e3" as an option, not a negative number,
    # and names the option left without its value; attached with "=" the
    # value reaches the option's own check
    def no_run(cfg):
        raise AssertionError("run called")

    monkeypatch.setattr(cli, "run", no_run)
    for argv, flag in ((("expsum", "--alpha", "sqrt:2", "--n", "100", "--t", "-1e3"), "--t"),
                       (("pairs", "--alpha", "sqrt:2", "--n", "-1e3"), "--n")):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2, argv
        assert f"argument {flag}" in capsys.readouterr().err, argv
    assert run_cli("expsum", "--alpha", "sqrt:2", "--n", "100", "--t=-1e3") == 2
    assert "--d and --t must be at least 1" in capsys.readouterr().err


class _Sieved(Exception):
    pass


def test_carlitz_beyond_global_max_exits_3_before_sieving(tmp_path, capsys, monkeypatch):
    # --n 1e16 would sieve about 1e9 windows before the last one met the cap
    calls = []

    def spy(lo, hi, *args, **kwargs):
        calls.append((lo, hi))
        raise _Sieved

    monkeypatch.setattr(counting, "squarefree_flags", spy)
    assert run_cli("carlitz", "--n", "1e16", "--out", str(tmp_path / "x.csv")) == 3
    assert "global maximum" in capsys.readouterr().err
    with pytest.raises(RangeCapError):
        counting.carlitz_count(GLOBAL_MAX - 1)
    assert calls == []
    # the last window of N = GLOBAL_MAX - 2 ends at N + 2 = GLOBAL_MAX: let
    # through, and sieved from 1 in windows of 2**20 flags (1 MiB)
    with pytest.raises(_Sieved):
        counting.carlitz_count(GLOBAL_MAX - 2)
    assert calls == [(1, counting._RUN_BYTES + 1)]


def test_discrepancy_k_beyond_global_max_exits_3_before_any_point(tmp_path, capsys, monkeypatch):
    # a --segment-cap that admits K = 1e19 (past int64) or K = 5e15 (past
    # 2**52, the largest n whose phase frac_parts takes) must not let the
    # points be built
    base = ("discrepancy", "--alpha", "sqrt:2", "--segment-cap", "1e25",
            "--out", str(tmp_path / "x.csv"))
    assert run_cli(*base, "--n", "1e19") == 3
    assert "cap/budget error" in capsys.readouterr().err

    def no_points(*args, **kwargs):
        raise AssertionError("np.arange called")

    monkeypatch.setattr(np, "arange", no_points)
    for extra in ((), ("--interval", "0,0.5")):
        assert run_cli(*base, "--n", "5e15", *extra) == 3, extra
        err = capsys.readouterr().err
        assert "global maximum" in err and "Traceback" not in err, extra


def test_fit_refuses_every_n_before_any_count(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(counting, "pair_count", lambda *args: calls.append(args))
    assert run_cli("fit", "--alpha", "sqrt:2", "--n", "1e7,1e8,1e16",
                   "--out", str(tmp_path / "x.csv")) == 3
    assert "alpha*N" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("name", ["pairs", "single", "decompose"])
def test_counts_refuse_every_n_before_any_count(name, tmp_path, capsys, monkeypatch):
    # N = 1e16 puts alpha*N past 2**52; the count up to 1e3 before it must not run
    def no_count(*args):
        raise AssertionError("counted")

    monkeypatch.setattr(counting, "_count_over_primes", no_count)
    monkeypatch.setattr(counting, "decompose", no_count)
    assert run_cli(name, "--alpha", "sqrt:2", "--n", "1e3,1e16",
                   "--out", str(tmp_path / "x.csv")) == 3
    assert "alpha*N" in capsys.readouterr().err


def test_rules():
    assert apply_rule("pow:0.5", 100) == 10.0
    assert apply_rule("fixed:7", 12345) == 7.0
    with pytest.raises(ConfigError):
        apply_rule("exp:2", 10)


def test_pairs_csv_header_and_content(sqrt2, tmp_path):
    out = tmp_path / "pairs.csv"
    assert run_cli("pairs", "--alpha", "sqrt:2", "--n", "1e2,1e3",
                   "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "N,count,pi_N,prediction,abs_error,rel_error"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "100"
    assert first[2] == "25"


def test_sigma_json_object(tmp_path):
    out = tmp_path / "sigma.json"
    assert run_cli("sigma", "--P", "1e4", "--format", "json",
                   "--out", str(out)) == 0
    obj = json.loads(out.read_text())
    assert list(obj.keys()) == ["lo", "hi", "width", "midpoint"]
    assert obj["lo"] <= obj["midpoint"] <= obj["hi"]
    assert obj["width"] == pytest.approx(obj["hi"] - obj["lo"], rel=1e-12)


def test_sigma_by_default_prints_the_midpoint_the_predictions_use(tmp_path):
    # sigma without --P truncates where counting.SIGMA_PRODUCT_LIMIT does
    sigma, carlitz = tmp_path / "sigma.json", tmp_path / "carlitz.json"
    assert run_cli("sigma", "--format", "json", "--out", str(sigma)) == 0
    assert run_cli("carlitz", "--n", "100", "--format", "json", "--out", str(carlitz)) == 0
    midpoint = json.loads(sigma.read_text())["midpoint"]
    assert midpoint == json.loads(carlitz.read_text())[0]["sigma_mid"]


def test_every_command_emits_parseable_output(tmp_path):
    cases = [
        (("carlitz", "--n", "100,1000"), COLUMNS["carlitz"]),
        (("pairs", "--alpha", "sqrt:2", "--n", "100"), COLUMNS["pairs"]),
        (("single", "--alpha", "sqrt:2", "--n", "100"), COLUMNS["single"]),
        (("decompose", "--alpha", "sqrt:2", "--n", "100,1000"), COLUMNS["decompose"]),
        (("expsum", "--alpha", "sqrt:2", "--n", "1000"), COLUMNS["expsum_dyadic"]),
        (("expsum", "--alpha", "sqrt:2", "--n", "1000", "--h", "2", "--d", "2",
          "--t", "3"), COLUMNS["expsum_single"]),
        (("discrepancy", "--alpha", "sqrt:2", "--n", "1000", "--d", "2", "--t", "3"),
         COLUMNS["discrepancy"]),
        (("discrepancy", "--alpha", "sqrt:2", "--n", "1000", "--d", "2", "--t", "3",
          "--interval", "0,0.25", "--h", "50"), COLUMNS["discrepancy_et"]),
        (("fit", "--alpha", "sqrt:2", "--n", "100,1000,10000"), COLUMNS["fit"]),
    ]
    # the JSON writer gives the same keys in the same order, integer columns
    # as JSON integers, and each value equal to its CSV cell read back
    integers = {"N", "count", "pi_N", "sigma1", "sigma2", "total", "K", "m"}
    for i, (argv, columns) in enumerate(cases):
        out = tmp_path / f"case{i}.csv"
        assert run_cli(*argv, "--out", str(out)) == 0, argv
        rows = read_table(str(out))
        assert rows, argv
        assert list(rows[0].keys()) == list(columns), argv
        out = tmp_path / f"case{i}.json"
        assert run_cli(*argv, "--format", "json", "--out", str(out)) == 0, argv
        objects = json.loads(out.read_text())
        assert len(objects) == len(rows), argv
        whole = integers | ({"h", "d", "t"} if columns == COLUMNS["expsum_single"] else set())
        for obj, row in zip(objects, rows):
            assert list(obj) == list(columns), argv
            assert all(type(obj[c]) is int for c in columns if c in whole), (argv, obj)
            assert obj == row, argv


def _readme_cli_tables():
    """{header of the second column: [(backticked words of the first cell,
    backticked words of the second)]} for each table of README's CLI section."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## CLI\n")[1].split("\n## ")[0]
    tables, rows = {}, None
    for line in section.splitlines():
        if not line.startswith("|"):
            rows = None
            continue
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if rows is None:
            rows = tables[cells[1]] = []
        elif set(cells[0]) - set("- "):
            rows.append(tuple(re.findall(r"`([^`]*)`", cell) for cell in cells[:2]))
    return tables


def test_readme_cli_tables_match_the_code():
    tables = _readme_cli_tables()
    listed = [name for names, _ in tables["options"] for name in names]
    assert sorted(listed) == sorted(COMMANDS)
    for names, options in tables["options"]:
        for name in names:
            assert tuple(option.split()[0] for option in options) == OPTIONS[name], name
    keys = []
    for (name,), cells in tables["columns"]:
        for cell in cells:
            if cell.startswith("--"):
                continue
            columns = tuple(cell.split(","))
            match = [key for key, value in COLUMNS.items()
                     if value == columns and key.split("_")[0] == name]
            assert len(match) == 1, (name, cell)
            keys += match
    assert sorted(keys) == sorted(COLUMNS)


def test_readme_lab_notes_match_error_table():
    # the fit that README quotes, recomputed (about 0.4 s)
    readme = Path(__file__).resolve().parents[1] / "README.md"
    notes = readme.read_text(encoding="utf-8").split("\n## Lab notes\n")[1].split("\n## ")[0]
    spec, ns, theta, errors = re.search(
        r"fit --alpha (\S+) --n (\S+)` fits `theta_hat` =\s+([\d.]+)\s+\(abs_error ([^)]*)\)",
        notes).groups()
    table = counting.error_table(sqfpairs.parse_alpha(spec), parse_number_list(ns))
    assert f"{table.fitted_exponent:.14g}" == theta
    assert [f"{r.abs_error:.1f}" for r in table.reports] == re.findall(r"[\d.]+", errors)


def test_csv_round_trip_recovers_canonical_values(tmp_path):
    out = tmp_path / "fit.csv"
    assert run_cli("fit", "--alpha", "sqrt:2", "--n", "100,1000,10000",
                   "--out", str(out)) == 0
    rows = read_table(str(out))
    emit_table([tuple(row.values()) for row in rows], "csv", str(out) + ".again",
               COLUMNS["fit"])
    assert (tmp_path / "fit.csv").read_bytes() == (tmp_path / "fit.csv.again").read_bytes()


def test_emit_table_empty_rows_writes_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit_table([], "csv", str(path), ("a", "b"))
    assert path.read_text() == "a,b\n"


def test_reruns_are_byte_identical(tmp_path):
    for fmt in ("csv", "json"):
        a = tmp_path / f"a.{fmt}"
        b = tmp_path / f"b.{fmt}"
        for out in (a, b):
            assert run_cli("pairs", "--alpha", "sqrt:2", "--n", "1e2,1e3",
                           "--format", fmt, "--out", str(out)) == 0
        assert a.read_bytes() == b.read_bytes()


def test_rational_alpha_exits_2(tmp_path, capsys):
    code = run_cli("pairs", "--alpha", "sqrt:4", "--n", "100",
                   "--out", str(tmp_path / "x.csv"))
    assert code == 2
    assert "rational" in capsys.readouterr().err


def test_bad_n_list_exits_2(tmp_path):
    assert run_cli("pairs", "--alpha", "sqrt:2", "--n", "1000,100",
                   "--out", str(tmp_path / "x.csv")) == 2


def test_missing_alpha_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("pairs", "--n", "100", "--out", str(tmp_path / "x.csv"))
    assert exc.value.code == 2
    assert "the following arguments are required: --alpha" in capsys.readouterr().err


def test_budget_violation_exits_3(tmp_path):
    assert run_cli("expsum", "--alpha", "sqrt:2", "--n", "100000",
                   "--budget", "10", "--out", str(tmp_path / "x.csv")) == 3


def test_erdos_turan_work_beyond_budget_exits_3(tmp_path):
    out = str(tmp_path / "x.csv")
    base = ("discrepancy", "--alpha", "sqrt:2", "--n", "1e4", "--interval", "0,0.5")
    # H*K = 1.01e6 and 1e15 terms against the default budget of 1e6
    assert run_cli(*base, "--h", "101", "--out", out) == 3
    assert run_cli(*base, "--h", "101", "--budget", "1010000", "--out", out) == 0
    start = time.perf_counter()
    assert run_cli(*base, "--h", "100000000000", "--out", out) == 3
    assert time.perf_counter() - start < 1.0


def test_erdos_turan_refusals_come_before_any_point(tmp_path, capsys, monkeypatch):
    # a reversed or out-of-range interval, H < 1, and a K of --n whose H*K
    # terms exceed the budget are each refused before a phase is computed,
    # even where an earlier K of the list is admissible
    def no_phases(*args, **kwargs):
        raise AssertionError("frac_parts called")

    monkeypatch.setattr(AlgebraicAlpha, "frac_parts", no_phases)
    base = ("discrepancy", "--alpha", "sqrt:2", "--out", str(tmp_path / "x.csv"))
    for extra, code in (
        (("--n", "4e6", "--interval", "0.5,0.2"), 2),
        (("--n", "1e3", "--interval", "0.2,1.5"), 2),
        (("--n", "1e3,1e4", "--interval", "0,0.5", "--h", "0"), 2),
        (("--n", "1e3,1e5", "--interval", "0,0.5"), 3),  # H*K = 1e7 at K = 1e5
        (("--n", "1e3,1e4", "--interval", "0,0.5", "--segment-cap", "5000"), 3),
    ):
        assert run_cli(*base, *extra) == code, extra
        assert "Traceback" not in capsys.readouterr().err


def test_count_options_take_decimal_shorthand(tmp_path):
    # --budget, --segment-cap and --h read numbers as --n and --P do
    cases = (
        (("discrepancy", "--alpha", "sqrt:2", "--n", "1e4", "--interval", "0,0.5",
          "--h", "101", "--budget"), "1.01e6", "1010000"),
        (("discrepancy", "--alpha", "sqrt:2", "--n", "1e3", "--segment-cap"), "1e3", "1000"),
        (("expsum", "--alpha", "sqrt:2", "--n", "1000", "--d", "2", "--h"), "2e0", "2"),
    )
    for argv, short, plain in cases:
        outs = []
        for value in (short, plain):
            out = tmp_path / f"{argv[0]}-{value}.csv"
            assert run_cli(*argv, value, "--out", str(out)) == 0, (argv[-1], value)
            outs.append(out.read_bytes())
        assert outs[0] == outs[1], argv[-1]
        assert run_cli(*argv, "2.5", "--out", str(tmp_path / "x.csv")) == 2, argv[-1]


def test_d_and_t_take_decimal_shorthand(tmp_path, capsys):
    # --d and --t read numbers as the other count options do, in the dyadic
    # and the single-h mode of expsum
    base = ("expsum", "--alpha", "sqrt:2", "--n", "1000")
    for flag in ("--d", "--t"):
        for extra in ((), ("--h", "3")):
            outs = []
            for value in ("2e0", "2"):
                out = tmp_path / f"{flag}-{value}.csv"
                assert run_cli(*base, *extra, flag, value, "--out", str(out)) == 0, (flag, value)
                outs.append(out.read_bytes())
            assert outs[0] == outs[1], (flag, extra)
            assert run_cli(*base, *extra, flag, "2.5", "--out", str(tmp_path / "x.csv")) == 2
    assert "Traceback" not in capsys.readouterr().err


def _run_module(*argv):
    env = dict(os.environ, PYTHONPATH=str(Path(sqfpairs.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", *argv], env=env, capture_output=True,
                          text=True, timeout=60)


def test_package_and_cli_modules_run_as_main():
    # python -m sqfpairs and python -m sqfpairs.cli both run the command line
    expected = None
    for module in ("sqfpairs", "sqfpairs.cli"):
        proc = _run_module(module, "pairs", "--alpha", "sqrt:2", "--n", "1e4")
        assert proc.returncode == 0, (module, proc.stderr[-2000:])
        assert proc.stdout.startswith("N,count,pi_N,"), (module, proc.stdout)
        expected = expected or proc.stdout
        assert proc.stdout == expected
    proc = _run_module("sqfpairs", "pairs", "--n", "1e4")
    assert proc.returncode == 2
    assert "the following arguments are required: --alpha" in proc.stderr


#: The options that every command reading them requires.
_REQUIRED = ("--alpha", "--n")

#: One valid value per option, the ExperimentConfig field it sets and its parse.
_SAMPLES = {
    "--alpha": ("sqrt:3", "alpha_spec", "sqrt:3"),
    "--n": ("1e2,1e3", "n_values", (100, 1000)),
    "--P": ("1e4", "P", 10 ** 4),
    "--z": ("fixed:5", "z_rule", "fixed:5"),
    "--H": ("fixed:4", "h_rule", "fixed:4"),
    "--d": ("2e0", "d", 2),
    "--t": ("3", "t", 3),
    "--h": ("5", "h", 5),
    "--interval": ("0,0.25", "interval", (0.0, 0.25)),
    "--segment-cap": ("1e3", "segment_cap", 1000),
    "--budget": ("1e7", "budget", 10 ** 7),
    "--format": ("json", "output_format", "json"),
    "--out": ("x.csv", "output_path", "x.csv"),
}


def test_every_command_parses_to_the_default_config():
    # given only its required options, a command's config is the default but for them
    parser = build_parser()
    for name in COMMANDS:
        required = [flag for flag in OPTIONS[name] if flag in _REQUIRED]
        argv = [name] + [a for flag in required for a in (flag, _SAMPLES[flag][0])]
        default = dataclasses.replace(ExperimentConfig(command=name), **{
            _SAMPLES[flag][1]: _SAMPLES[flag][2] for flag in required})
        assert config_from_args(parser.parse_args(argv)) == default
        for flag in OPTIONS[name] + cli._OUTPUT:
            text, field, value = _SAMPLES[flag]
            cfg = config_from_args(parser.parse_args(argv + [flag, text]))
            assert cfg == dataclasses.replace(default, **{field: value}), (name, flag)


_STRAY = [(name, flag) for name in COMMANDS for flag in _SAMPLES
          if flag not in OPTIONS[name] + cli._OUTPUT]


@pytest.mark.parametrize("name, flag", _STRAY)
def test_option_a_command_does_not_read_exits_2(name, flag, capsys, monkeypatch):
    # each command accepts only the options it reads: 62 (command, option)
    # pairs, each refused by argparse before any work runs
    def no_run(cfg):
        raise AssertionError("run called")

    monkeypatch.setattr(cli, "run", no_run)
    own = {"--alpha": "sqrt:2", "--n": "1e3", "--P": "1e4"}
    argv = [name] + [a for f in OPTIONS[name] if f in own for a in (f, own[f])]
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, _SAMPLES[flag][0]])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("name, mode, other, flag", [
    ("expsum", ("--h", "3"), (), "--H"),
    ("expsum", ("--h", "3"), (), "--budget"),
    ("discrepancy", (), ("--interval", "0,0.5"), "--h"),
    ("discrepancy", (), ("--interval", "0,0.5"), "--budget"),
], ids=["expsum-h-H", "expsum-h-budget", "discrepancy-h", "discrepancy-budget"])
def test_option_a_mode_does_not_read_exits_2(name, mode, other, flag, capsys, monkeypatch):
    # expsum with --h reads neither --H nor --budget, and discrepancy
    # without --interval neither --h nor --budget: each is refused before
    # any work runs, while the other mode runs with it
    def no_run(cfg):
        raise AssertionError("run called")

    monkeypatch.setattr(cli, "run", no_run)
    base = [name, "--alpha", "sqrt:2", "--n", "1e3"]
    assert main(base + list(mode) + [flag, _SAMPLES[flag][0]]) == 2
    assert f"does not read {flag}" in capsys.readouterr().err
    with pytest.raises(AssertionError, match="run called"):
        main(base + list(other) + [flag, _SAMPLES[flag][0]])


def _usage(name, capsys):
    with pytest.raises(SystemExit) as exc:
        main([name, "--help"])
    assert exc.value.code == 0
    return " ".join(capsys.readouterr().out.split("\n\n")[0].split())


@pytest.mark.parametrize("name", COMMANDS)
def test_help_shows_alpha_and_n_as_required(name, capsys):
    usage = _usage(name, capsys)
    for flag in OPTIONS[name] + cli._OUTPUT:
        shown = f"{flag} {flag[2:].upper()}"
        if flag in _REQUIRED:
            assert f" {shown} " in usage and f"[{shown}]" not in usage, (name, usage)
        else:
            assert f"[{shown}]" in usage, (name, flag, usage)
    for flag in _REQUIRED:
        assert (f"{flag} " in usage) == (flag in OPTIONS[name]), (name, usage)
    if name == "pairs":
        assert usage == ("usage: sqfpairs pairs [-h] --alpha ALPHA --n N "
                         "[--format FORMAT] [--out OUT]")


@pytest.mark.parametrize("name, refused", [
    (name, flag) for name in COMMANDS for flag in OPTIONS[name] + ("--format",)
    if flag in _REQUIRED + ("--format",)])
def test_parser_refuses_a_missing_option_or_format_before_run(name, refused, capsys,
                                                              monkeypatch):
    # argparse, not run(), refuses a command without --alpha or --n, or
    # with a format other than csv and json
    def no_run(cfg):
        raise AssertionError("run called")

    monkeypatch.setattr(cli, "run", no_run)
    argv = [name] + [a for flag in OPTIONS[name] if flag in _REQUIRED and flag != refused
                     for a in (flag, _SAMPLES[flag][0])]
    if refused == "--format":
        argv += ["--format", "xml"]
        message = "argument --format: invalid choice: 'xml'"
    else:
        message = f"the following arguments are required: {refused}"
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_empty_alpha_exits_2_naming_the_missing_kind(capsys):
    assert run_cli("pairs", "--alpha", "", "--n", "100") == 2
    assert "lacks a 'kind:' prefix" in capsys.readouterr().err


def test_oversized_dyadic_blocks_exit_3(tmp_path):
    # about 3.3e7 triples against the default budget of 1e6
    assert run_cli("expsum", "--alpha", "sqrt:2", "--n", "1e6", "--H", "fixed:500000",
                   "--d", "8", "--t", "8", "--out", str(tmp_path / "x.csv")) == 3


def test_bad_dyadic_h_rules_exit_2_or_3(tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    for rule in ("pow:nan", "fixed:nan", "fixed:inf", "fixed:-inf", "pow:inf", "pow:1e10"):
        assert run_cli("expsum", "--alpha", "sqrt:2", "--n", "1000", "--H", rule,
                       "--out", out) == 2, rule
    for rule in ("fixed:1e300", "fixed:1.7e308"):
        assert run_cli("expsum", "--alpha", "sqrt:2", "--n", "1000", "--H", rule,
                       "--out", out) == 3, rule
    assert "Traceback" not in capsys.readouterr().err


def test_dyadic_d_t_beyond_float_range_exit_3(tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    huge = "1" + "0" * 400
    for flag in ("--d", "--t"):
        for value in (huge, "-" + huge):
            assert run_cli("expsum", "--alpha", "sqrt:2", "--n", "1000", flag, value,
                           "--out", out) == 3, (flag, value[:2])
    err = capsys.readouterr().err
    assert "Traceback" not in err and "--d and --t must be at most" in err


def test_huge_poly_constant_term_counts_promptly(tmp_path):
    # |c0*ck| = 1e20: the grid test at the isolated root needs no divisors
    out = tmp_path / "x.csv"
    start = time.perf_counter()
    assert run_cli("pairs", "--alpha", f"poly:{-10 ** 20},0,0,1@1/1,{10 ** 7}/1",
                   "--n", "100", "--out", str(out)) == 0
    assert time.perf_counter() - start < 1.0
    row, = read_table(out)
    assert (row["count"], row["pi_N"]) == (13, 25)


def test_poly_with_a_rational_root_and_c0_zero_exits_2_promptly():
    # x^3 - 4x and 9x^3 - 25x have the rational roots 2 and 5/3 inside the
    # interval; run in a child, so that a parse that hangs fails in seconds
    env = dict(os.environ, PYTHONPATH=str(Path(sqfpairs.__file__).parents[1]))
    for spec, root in (("poly:0,-4,0,1@1/1,3/1", "2"), ("poly:0,-25,0,9@1/1,2/1", "5/3")):
        proc = subprocess.run([sys.executable, "-m", "sqfpairs", "pairs", "--alpha", spec,
                               "--n", "100"],
                              env=env, capture_output=True, text=True, timeout=10)
        assert proc.returncode == 2, proc.stderr[-2000:]
        assert f"rational root {root} inside" in proc.stderr
        assert proc.stdout == ""


def test_exp_sum_refuses_bad_queries_before_sieving(tmp_path, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("a prime was sieved before the query was checked")

    monkeypatch.setattr(expsum, "iter_prime_segments", unreachable)
    out = str(tmp_path / "x.csv")
    # d = 0 and N = 1 exit 2; h above MAX_H = 2**20 and the modulus
    # (1100*1000)**2 = 1.21e12 above 2**40 exit 3
    for n, extra, code in (("1000", ("--d", "0"), 2), ("1", (), 2),
                           ("1000", ("--h", "1048577"), 3),
                           ("1000", ("--d", "1100", "--t", "1000"), 3)):
        argv = ("expsum", "--alpha", "sqrt:2", "--n", n, "--h", "1", *extra, "--out", out)
        assert run_cli(*argv) == code, argv


def test_run_refuses_bad_format_segment_cap_and_budget(tmp_path, capsys):
    # the format is refused by argparse (and by emit_table for a direct
    # caller), the segment cap and budget by run()
    out = str(tmp_path / "x.csv")
    with pytest.raises(SystemExit) as exc:
        run_cli("pairs", "--alpha", "sqrt:2", "--n", "100", "--format", "xml", "--out", out)
    assert exc.value.code == 2
    assert "argument --format: invalid choice: 'xml'" in capsys.readouterr().err
    with pytest.raises(ConfigError, match="unknown format 'xml'"):
        emit_table([], "xml", out, ("a",))
    for flag, value in (("--segment-cap", "0"), ("--budget", "0")):
        assert run_cli("discrepancy", "--alpha", "sqrt:2", "--n", "100", "--interval", "0,0.5",
                       flag, value, "--out", out) == 2, flag
        assert "segment cap and budget must be positive" in capsys.readouterr().err


def test_discrepancy_segment_cap_of_one_admits_one_point(tmp_path):
    # a cap of K points admits K = 1 at 1 (0 is refused above)
    out = tmp_path / "x.csv"
    argv = ("discrepancy", "--alpha", "sqrt:2", "--n", "1", "--out", str(out))
    assert run_cli(*argv) == 0
    rows = out.read_bytes()
    assert run_cli(*argv, "--segment-cap", "1") == 0
    assert out.read_bytes() == rows


def test_out_of_memory_exits_3_naming_segment_cap():
    # a child process with a 1 GiB address-space limit asks for 4e9
    # discrepancy points, whose int64 values alone take 32e9 bytes:
    # --segment-cap is the one option that sets how much a command holds
    # (the counts and the exponential sums fix their own windows); the
    # limit is set in the child only
    resource = pytest.importorskip("resource")

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = dict(os.environ, PYTHONPATH=str(Path(sqfpairs.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from sqfpairs.cli import main; sys.exit(main())",
         "discrepancy", "--alpha", "sqrt:2", "--n", "4e9", "--segment-cap", "4e9"],
        env=env, preexec_fn=limit_memory, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 3, proc.stderr[-2000:]
    assert "Traceback" not in proc.stderr
    assert "--segment-cap" in proc.stderr
    assert proc.stdout == ""


def test_discrepancy_beyond_segment_cap_exits_3(tmp_path, capsys, monkeypatch):
    # 1e9 points would need 16 GB; the cap refuses them before any is computed
    def no_phases(*args, **kwargs):
        raise AssertionError("frac_parts called")

    monkeypatch.setattr(AlgebraicAlpha, "frac_parts", no_phases)
    for extra in ((), ("--interval", "0,0.5")):
        assert run_cli("discrepancy", "--alpha", "sqrt:2", "--n", "1e9", *extra,
                       "--out", str(tmp_path / "x.csv")) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err and "segment cap" in err
    assert run_cli("discrepancy", "--alpha", "sqrt:2", "--n", "1001", "--segment-cap", "1000",
                   "--out", str(tmp_path / "x.csv")) == 3
    # every K of --n is checked before the first point, without --interval too
    assert run_cli("discrepancy", "--alpha", "sqrt:2", "--n", "1e3,1e4", "--segment-cap", "5000",
                   "--out", str(tmp_path / "x.csv")) == 3


@pytest.mark.parametrize("mode", [(), ("--interval", "0,0.5", "--h", "20")],
                         ids=["star", "erdos-turan"])
def test_discrepancy_computes_its_points_once(tmp_path, monkeypatch, mode):
    # the points of the largest K, of which every row reads a prefix, give
    # the rows of separate runs, one K each
    base = ("discrepancy", "--alpha", "sqrt:2", "--d", "2", *mode)
    rows = b""
    for k in ("100", "1000", "10000"):
        assert run_cli(*base, "--n", k, "--out", str(tmp_path / k)) == 0
        rows += (tmp_path / k).read_bytes().split(b"\n", 1)[1]  # below the header
    calls = []
    frac_parts = AlgebraicAlpha.frac_parts

    def spy(self, *args, **kwargs):
        calls.append(args)
        return frac_parts(self, *args, **kwargs)

    monkeypatch.setattr(AlgebraicAlpha, "frac_parts", spy)
    out = tmp_path / "all.csv"
    assert run_cli(*base, "--n", "100,1000,10000", "--out", str(out)) == 0
    assert len(calls) == 1
    assert out.read_bytes().split(b"\n", 1)[1] == rows


@pytest.mark.parametrize("spec, n, count", [
    ("sqrt:2", "1e4", 429),
    ("sqrt:123456789", "1e5", 3107),  # alpha = 11111.1...: floors up to 1.1e9
    ("quad:0,1,5,2", "1e4", 414),  # sqrt(5)/2 - 1 < 1/2: the first floors are 0
])
def test_decompose_total_equals_the_pair_count(tmp_path, spec, n, count):
    out = tmp_path / "x.json"
    assert run_cli("decompose", "--alpha", spec, "--n", n, "--z", "pow:0.3",
                   "--format", "json", "--out", str(out)) == 0
    total = json.loads(out.read_text())[0]["total"]
    assert run_cli("pairs", "--alpha", spec, "--n", n, "--format", "json",
                   "--out", str(out)) == 0
    assert (total, json.loads(out.read_text())[0]["count"]) == (count, count)


def test_expsum_modulus_matches_a_decimal_oracle(tmp_path):
    # the phase path against the stdlib: x = {3*sqrt(2)*p/36} for the primes
    # p <= 1e4, from a 50-digit sqrt(2)
    out = tmp_path / "x.json"
    assert run_cli("expsum", "--alpha", "sqrt:2", "--n", "1e4", "--h", "3", "--d", "2",
                   "--t", "3", "--format", "json", "--out", str(out)) == 0
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        beta = 3 * decimal.Decimal(2).sqrt() / 36
        oracle = abs(sum(cmath.exp(2j * cmath.pi * float(beta * p % 1))
                         for p in primes_to(10 ** 4)))
    assert abs(json.loads(out.read_text())[0]["modulus"] - oracle) <= 1e-9


def test_unwritable_path_exits_4():
    assert run_cli("sigma", "--P", "1000",
                   "--out", "/nonexistent-dir/deep/sigma.csv") == 4


def test_z_rule_flows_into_decompose(tmp_path):
    out = tmp_path / "dec.csv"
    assert run_cli("decompose", "--alpha", "sqrt:2", "--n", "1000",
                   "--z", "fixed:5", "--out", str(out)) == 0
    rows = read_table(str(out))
    assert rows[0]["z"] == 5
    assert rows[0]["sigma1"] + rows[0]["sigma2"] == rows[0]["total"]


def test_decompose_z_above_its_cap_exits_2(sqrt2, tmp_path, capsys):
    cap = (sqrt2.to_float() * 1000) ** (2.0 / 3.0)
    assert run_cli("decompose", "--alpha", "sqrt:2", "--n", "1000",
                   "--z", f"fixed:{cap * (1.0 + 3e-9)!r}", "--out", str(tmp_path / "x.csv")) == 2
    assert "outside [1, (alpha*N)^(2/3)]" in capsys.readouterr().err
