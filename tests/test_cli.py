import json
import time

import pytest

from sqfpairs.cli import (
    COLUMNS,
    apply_rule,
    emit_table,
    main,
    parse_count,
    parse_number_list,
    read_table,
)
from sqfpairs.errors import ConfigError


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
    for i, (argv, columns) in enumerate(cases):
        out = tmp_path / f"case{i}.csv"
        assert run_cli(*argv, "--out", str(out)) == 0, argv
        rows = read_table(str(out))
        assert rows, argv
        assert list(rows[0].keys()) == list(columns), argv


def test_csv_round_trip_recovers_canonical_values(tmp_path):
    out = tmp_path / "fit.csv"
    assert run_cli("fit", "--alpha", "sqrt:2", "--n", "100,1000,10000",
                   "--out", str(out)) == 0
    rows = read_table(str(out))
    emit_table(rows, "csv", str(out) + ".again", COLUMNS["fit"])
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


def test_missing_alpha_exits_2(tmp_path):
    assert run_cli("pairs", "--n", "100", "--out", str(tmp_path / "x.csv")) == 2


def test_budget_violation_exits_3(tmp_path):
    assert run_cli("expsum", "--alpha", "sqrt:2", "--n", "100000",
                   "--budget", "10", "--out", str(tmp_path / "x.csv")) == 3


def test_oversized_dyadic_blocks_exit_3(tmp_path):
    # about 3.3e7 triples against the default budget of 1e6
    assert run_cli("expsum", "--alpha", "sqrt:2", "--n", "1e6", "--H", "fixed:500000",
                   "--d", "8", "--t", "8", "--out", str(tmp_path / "x.csv")) == 3


def test_huge_poly_constant_term_exits_3_promptly(tmp_path, capsys):
    start = time.perf_counter()
    assert run_cli("pairs", "--alpha", f"poly:{-10 ** 20},0,0,1@1/1,{10 ** 7}/1",
                   "--n", "100", "--out", str(tmp_path / "x.csv")) == 3
    assert time.perf_counter() - start < 1.0
    assert "rational-root" in capsys.readouterr().err


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
