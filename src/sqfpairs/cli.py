"""Command-line front end: preset experiments emitting CSV/JSON tables.

Data goes to the output file (or stdout); progress and timing go to stderr
only, so outputs are pipeline-safe.  Identical configurations produce
byte-identical files: floats are printed at 15 significant digits, there are
no timestamps, and every computation below is deterministic.

Exit codes: 0 success, 2 configuration error, 3 budget/cap violation
(out of memory included), 4 output I/O failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from typing import Optional

from . import constants, counting, expsum
from .alpha import parse_alpha
from .errors import CapError, ConfigError, RangeCapError
from .sieves import DEFAULT_SEGMENT_CAP

COMMANDS = ("sigma", "carlitz", "pairs", "single", "decompose", "expsum",
            "discrepancy", "fit")

#: Fixed CSV column orders, one entry per command/mode (documented in README).
COLUMNS = {
    "sigma": ("lo", "hi", "width", "midpoint"),
    "carlitz": ("N", "count", "ratio", "sigma_mid", "abs_error"),
    "pairs": ("N", "count", "pi_N", "prediction", "abs_error", "rel_error"),
    "single": ("N", "count", "pi_N", "prediction", "abs_error", "rel_error"),
    "decompose": ("N", "z", "sigma1", "sigma2", "total"),
    "expsum_single": ("N", "h", "d", "t", "real", "imag", "modulus"),
    "expsum_dyadic": ("N", "H", "D", "T", "lhs", "term1", "term2", "term3",
                      "term4", "rhs", "ratio", "eps"),
    "discrepancy": ("K", "m", "dstar"),
    "discrepancy_et": ("K", "m", "a", "b", "H", "lhs", "rhs", "ratio"),
    "fit": ("N", "count", "pi_N", "prediction", "abs_error", "rel_error",
            "theta_hat"),
}

DYADIC_EPS = 0.01

#: parse_count refuses longer integers, so 1e999999999 fails at once instead
#: of being built; every cap in the package is far below this.
_MAX_COUNT_DIGITS = 30


@dataclass
class ExperimentConfig:
    command: str
    alpha_spec: str = ""
    n_values: tuple = ()
    z_rule: str = "pow:0.1"
    h_rule: str = "pow:0.2"
    output_format: str = "csv"
    output_path: str = "-"
    segment_cap: int = DEFAULT_SEGMENT_CAP
    budget: int = expsum.DEFAULT_BUDGET
    P: int = 10 ** 6
    d: int = 1
    t: int = 1
    h: Optional[int] = None
    interval: Optional[tuple] = None


def parse_count(token: str) -> int:
    """One integer, exactly; decimal shorthand allowed (1e6, 2.5e7).

    The token is read as an exact decimal, never through float, so a value
    that is not an integer is rejected instead of rounded.
    """
    try:
        value = Decimal(token)
    except InvalidOperation:
        raise ConfigError(f"bad number {token!r}") from None
    if not value.is_finite():
        raise ConfigError(f"bad number {token!r}")
    if value.adjusted() >= _MAX_COUNT_DIGITS:
        raise RangeCapError(f"{token!r} has more than {_MAX_COUNT_DIGITS} digits")
    if value != value.to_integral_value():
        raise ConfigError(f"{token!r} is not an integer")
    return int(value)


def parse_number_list(text: str) -> tuple:
    """Comma-separated integers, strictly ascending."""
    out = [parse_count(token) for token in text.split(",")]
    if any(b <= a for a, b in zip(out, out[1:])):
        raise ConfigError("number list must be strictly ascending")
    return tuple(out)


def apply_rule(rule: str, N: int) -> float:
    """Evaluate a parameter rule: 'pow:x' means N**x, 'fixed:v' means v."""
    kind, _, arg = rule.partition(":")
    try:
        val = float(arg)
    except ValueError:
        raise ConfigError(f"bad rule argument in {rule!r}") from None
    if kind == "pow":
        try:
            return float(N) ** val
        except (OverflowError, ZeroDivisionError):
            raise ConfigError(f"{rule!r} at N={N} is no finite number") from None
    if kind == "fixed":
        return val
    raise ConfigError(f"unknown rule kind in {rule!r} (want pow: or fixed:)")


def _fmt_cell(v) -> str:
    if v is None:
        return "na"
    if isinstance(v, bool):
        return str(v)
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return f"{v:.15g}"
    return str(v)


def _canon(v):
    if isinstance(v, float):
        return float(f"{v:.15g}")
    return v


def _write_text(path: str, content: str) -> None:
    if path == "-":
        sys.stdout.write(content)
        return
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(content)


def emit_table(rows, output_format: str, path: str, columns) -> None:
    """Write homogeneous rows as CSV (comma, dot decimal, 15 significant
    digits) or as a JSON array of objects with identical keys."""
    if output_format == "csv":
        lines = [",".join(columns)]
        lines.extend(",".join(_fmt_cell(row[c]) for c in columns) for row in rows)
        _write_text(path, "\n".join(lines) + "\n")
    elif output_format == "json":
        payload = [{c: _canon(row[c]) for c in columns} for row in rows]
        _write_text(path, json.dumps(payload, indent=2) + "\n")
    else:
        raise ConfigError(f"unknown format {output_format!r}")


def emit_object(obj: dict, output_format: str, path: str, columns) -> None:
    if output_format == "json":
        payload = {c: _canon(obj[c]) for c in columns}
        _write_text(path, json.dumps(payload, indent=2) + "\n")
    else:
        emit_table([obj], output_format, path, columns)


def _parse_csv_value(text: str):
    if text == "na":
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def read_table(path: str) -> list:
    """Parse a CSV emitted by emit_table back into row dicts."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().split("\n") if ln]
    if not lines:
        return []
    columns = lines[0].split(",")
    return [
        dict(zip(columns, (_parse_csv_value(cell) for cell in ln.split(","))))
        for ln in lines[1:]
    ]


# ---- command implementations ----

def _need_alpha(cfg: ExperimentConfig):
    if not cfg.alpha_spec:
        raise ConfigError(f"{cfg.command} requires --alpha")
    return parse_alpha(cfg.alpha_spec)


def _need_n(cfg: ExperimentConfig) -> tuple:
    if not cfg.n_values:
        raise ConfigError(f"{cfg.command} requires --n")
    return cfg.n_values


def _run_sigma(cfg: ExperimentConfig) -> None:
    enc = constants.sigma_enclosure(cfg.P)
    emit_object(
        {"lo": enc.lo, "hi": enc.hi, "width": enc.width(), "midpoint": enc.midpoint()},
        cfg.output_format, cfg.output_path, COLUMNS["sigma"],
    )

def _run_carlitz(cfg: ExperimentConfig) -> None:
    smid = counting.sigma_midpoint()
    rows = []
    for n in _need_n(cfg):
        count = counting.carlitz_count(n, cfg.segment_cap)
        ratio = count / n
        rows.append({"N": n, "count": count, "ratio": ratio, "sigma_mid": smid,
                     "abs_error": abs(ratio - smid)})
    emit_table(rows, cfg.output_format, cfg.output_path, COLUMNS["carlitz"])


def _report_row(rep: counting.PairCountReport) -> dict:
    return {"N": rep.N, "count": rep.count, "pi_N": rep.prime_count,
            "prediction": rep.prediction, "abs_error": rep.abs_error,
            "rel_error": rep.rel_error}


def _pair_rows(cfg: ExperimentConfig, fn) -> list:
    alpha = _need_alpha(cfg)
    return [_report_row(fn(alpha, n, cfg.segment_cap)) for n in _need_n(cfg)]


def _run_pairs(cfg: ExperimentConfig) -> None:
    emit_table(_pair_rows(cfg, counting.pair_count), cfg.output_format,
               cfg.output_path, COLUMNS["pairs"])


def _run_single(cfg: ExperimentConfig) -> None:
    emit_table(_pair_rows(cfg, counting.single_count), cfg.output_format,
               cfg.output_path, COLUMNS["single"])


def _run_decompose(cfg: ExperimentConfig) -> None:
    alpha = _need_alpha(cfg)
    rows = []
    for n in _need_n(cfg):
        rep = counting.decompose(alpha, n, apply_rule(cfg.z_rule, n), cfg.segment_cap)
        rows.append({"N": rep.N, "z": rep.z, "sigma1": rep.sigma1,
                     "sigma2": rep.sigma2, "total": rep.total})
    emit_table(rows, cfg.output_format, cfg.output_path, COLUMNS["decompose"])


def _run_expsum(cfg: ExperimentConfig) -> None:
    alpha = _need_alpha(cfg)
    rows = []
    if cfg.h is not None:
        for n in _need_n(cfg):
            s = expsum.exp_sum_primes(alpha, expsum.ExpSumQuery(cfg.h, cfg.d, cfg.t, n),
                                      cfg.segment_cap)
            rows.append({"N": n, "h": cfg.h, "d": cfg.d, "t": cfg.t,
                         "real": s.real, "imag": s.imag, "modulus": abs(s)})
        emit_table(rows, cfg.output_format, cfg.output_path, COLUMNS["expsum_single"])
        return
    for n in _need_n(cfg):
        q = expsum.DyadicQuery(H=apply_rule(cfg.h_rule, n), D=float(cfg.d), T=float(cfg.t), N=n)
        rep, = expsum.ratio_scan(alpha, [q], DYADIC_EPS, cfg.budget, cfg.segment_cap)
        t1, t2, t3, t4 = rep.rhs_terms
        rows.append({"N": n, "H": q.H, "D": q.D, "T": q.T, "lhs": rep.lhs,
                     "term1": t1, "term2": t2, "term3": t3, "term4": t4,
                     "rhs": rep.rhs, "ratio": rep.ratio, "eps": rep.eps_used})
    emit_table(rows, cfg.output_format, cfg.output_path, COLUMNS["expsum_dyadic"])


def _run_discrepancy(cfg: ExperimentConfig) -> None:
    alpha = _need_alpha(cfg)
    m = (cfg.d * cfg.t) ** 2
    rows = []
    if cfg.interval is not None:
        a, b = cfg.interval
        H = cfg.h if cfg.h is not None else 100
        for k in _need_n(cfg):
            pts = expsum.beatty_frac_points(alpha, k, m, cfg.segment_cap)
            rep = expsum.erdos_turan_bound(pts, H, (a, b), cfg.budget)
            rows.append({"K": k, "m": m, "a": a, "b": b, "H": H,
                         "lhs": rep.lhs, "rhs": rep.rhs, "ratio": rep.ratio})
        emit_table(rows, cfg.output_format, cfg.output_path, COLUMNS["discrepancy_et"])
        return
    for k in _need_n(cfg):
        pts = expsum.beatty_frac_points(alpha, k, m, cfg.segment_cap)
        rows.append({"K": k, "m": m, "dstar": expsum.star_discrepancy(pts)})
    emit_table(rows, cfg.output_format, cfg.output_path, COLUMNS["discrepancy"])


def _run_fit(cfg: ExperimentConfig) -> None:
    alpha = _need_alpha(cfg)
    table = counting.error_table(alpha, _need_n(cfg), cfg.segment_cap)
    rows = [dict(_report_row(r), theta_hat=table.fitted_exponent) for r in table.reports]
    emit_table(rows, cfg.output_format, cfg.output_path, COLUMNS["fit"])


_RUNNERS = {
    "sigma": _run_sigma,
    "carlitz": _run_carlitz,
    "pairs": _run_pairs,
    "single": _run_single,
    "decompose": _run_decompose,
    "expsum": _run_expsum,
    "discrepancy": _run_discrepancy,
    "fit": _run_fit,
}


def run(cfg: ExperimentConfig) -> int:
    """Execute one experiment; returns the process exit status."""
    if cfg.command not in _RUNNERS:
        raise ConfigError(f"unknown command {cfg.command!r}")
    if cfg.output_format not in ("csv", "json"):
        raise ConfigError(f"unknown format {cfg.output_format!r}")
    if cfg.segment_cap < 2 or cfg.budget < 1:
        raise ConfigError("segment cap and budget must be positive")
    start = time.perf_counter()
    _RUNNERS[cfg.command](cfg)
    print(f"{cfg.command}: done in {time.perf_counter() - start:.2f}s",
          file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--alpha", default="", help="alpha spec: sqrt:D | quad:a,b,c,D | poly:c0,..,ck@lo,hi")
    common.add_argument("--n", default="", help="comma-separated N list, 1e6 shorthand ok")
    common.add_argument("--P", default="",
                        help="Euler product truncation (sigma command)")
    common.add_argument("--z", default="pow:0.1", help="z rule: pow:x or fixed:v")
    common.add_argument("--H", default="pow:0.2", help="H rule: pow:x or fixed:v")
    common.add_argument("--d", default="1", help="modulus factor d, 1e3 shorthand ok")
    common.add_argument("--t", default="1", help="modulus factor t, 1e3 shorthand ok")
    common.add_argument("--h", default=None)
    common.add_argument("--interval", default="", help="a,b with 0 <= a < b <= 1")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--out", default="-", help="output path, - for stdout")
    common.add_argument("--segment-cap", default=str(DEFAULT_SEGMENT_CAP))
    common.add_argument("--budget", default=str(expsum.DEFAULT_BUDGET))
    parser = argparse.ArgumentParser(
        prog="sqfpairs",
        description="Desk-verification experiments for consecutive squarefree "
                    "values of [alpha*p].",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sub.add_parser(name, parents=[common])
    return parser


def _parse_modulus_factor(token: str) -> int:
    """--d or --t through parse_count, whose digit limit also keeps float(d) finite."""
    try:
        return parse_count(token)
    except RangeCapError:
        raise RangeCapError(f"--d and --t must be at most {_MAX_COUNT_DIGITS} digits long") from None


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    interval = None
    if args.interval:
        parts = args.interval.split(",")
        if len(parts) != 2:
            raise ConfigError("--interval needs exactly a,b")
        try:
            interval = (float(parts[0]), float(parts[1]))
        except ValueError:
            raise ConfigError(f"bad interval {args.interval!r}") from None
    P = parse_count(args.P) if args.P else 10 ** 6
    return ExperimentConfig(
        command=args.command,
        alpha_spec=args.alpha,
        n_values=parse_number_list(args.n) if args.n else (),
        z_rule=args.z,
        h_rule=args.H,
        output_format=args.format,
        output_path=args.out,
        segment_cap=parse_count(args.segment_cap),
        budget=parse_count(args.budget),
        P=P,
        d=_parse_modulus_factor(args.d),
        t=_parse_modulus_factor(args.t),
        h=parse_count(args.h) if args.h is not None else None,
        interval=interval,
    )


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = config_from_args(args)
        return run(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapError as exc:
        print(f"cap/budget error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("cap/budget error: out of memory; a lower --segment-cap bounds the "
              "memory of each sieve window", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 4


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
