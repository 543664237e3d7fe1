"""Command-line front end: preset experiments emitting CSV/JSON tables.

Data goes to the output file (or stdout); progress and timing go to stderr
only, so outputs are pipeline-safe.  Identical configurations produce
byte-identical files: floats are printed at 15 significant digits, there are
no timestamps, and every computation below is deterministic.

Each command's runner returns its COLUMNS key and its rows, one tuple per
row in that key's column order; run() then writes them with the one writer,
emit_table.  `sigma`'s JSON is a single object, every other JSON output an
array of objects.

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

#: Fixed column orders, one entry per command/mode (documented in README);
#: the only copy of each.
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
    """One experiment; the only copy of each option's default, except h's."""

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
    #: None selects expsum's dyadic mode, and discrepancy --interval then
    #: takes its Erdos-Turan H as 100 (_run_discrepancy)
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
    if value and value.adjusted() >= _MAX_COUNT_DIGITS:  # 0e30 is zero, not 31 digits
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
    if isinstance(v, float):
        return f"{v:.15g}"
    return str(v)


def _canon(v):
    if isinstance(v, float):
        return float(f"{v:.15g}")
    return v


def emit_table(rows, output_format: str, path: str, columns, one_object: bool = False) -> None:
    """Write rows, each a tuple in the order of columns, as CSV (comma, dot
    decimal, 15 significant digits) or as a JSON array of objects with
    identical keys; one_object writes the one row as a bare JSON object."""
    if output_format == "csv":
        lines = [",".join(columns)]
        lines.extend(",".join(map(_fmt_cell, row)) for row in rows)
        text = "\n".join(lines)
    elif output_format == "json":
        payload = [dict(zip(columns, map(_canon, row), strict=True)) for row in rows]
        text = json.dumps(payload[0] if one_object else payload, indent=2)
    else:
        raise ConfigError(f"unknown format {output_format!r}")
    if path == "-":
        sys.stdout.write(text + "\n")
        return
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


# ---- command implementations: each returns its COLUMNS key and its rows ----

def _need_alpha(cfg: ExperimentConfig):
    if not cfg.alpha_spec:
        raise ConfigError(f"{cfg.command} requires --alpha")
    return parse_alpha(cfg.alpha_spec)


def _need_n(cfg: ExperimentConfig) -> tuple:
    if not cfg.n_values:
        raise ConfigError(f"{cfg.command} requires --n")
    return cfg.n_values


def _run_sigma(cfg: ExperimentConfig):
    enc = constants.sigma_enclosure(cfg.P)
    return "sigma", [(enc.lo, enc.hi, enc.width(), enc.midpoint())]


def _run_carlitz(cfg: ExperimentConfig):
    smid = counting.sigma_midpoint()
    counts = ((n, counting.carlitz_count(n)) for n in _need_n(cfg))
    return "carlitz", [(n, c, c / n, smid, abs(c / n - smid)) for n, c in counts]


def _report_row(rep: counting.PairCountReport) -> tuple:
    return (rep.N, rep.count, rep.prime_count, rep.prediction, rep.abs_error,
            rep.rel_error)


def _run_count(cfg: ExperimentConfig):
    """pairs or single: one report row per N."""
    alpha = _need_alpha(cfg)
    count = counting.pair_count if cfg.command == "pairs" else counting.single_count
    return cfg.command, [_report_row(count(alpha, n)) for n in _need_n(cfg)]


def _run_decompose(cfg: ExperimentConfig):
    alpha = _need_alpha(cfg)
    reps = (counting.decompose(alpha, n, apply_rule(cfg.z_rule, n)) for n in _need_n(cfg))
    return "decompose", [(r.N, r.z, r.sigma1, r.sigma2, r.total) for r in reps]


def _run_expsum(cfg: ExperimentConfig):
    alpha = _need_alpha(cfg)
    if cfg.h is not None:
        sums = ((n, expsum.exp_sum_primes(alpha, expsum.ExpSumQuery(cfg.h, cfg.d, cfg.t, n)))
                for n in _need_n(cfg))
        return "expsum_single", [(n, cfg.h, cfg.d, cfg.t, s.real, s.imag, abs(s))
                                 for n, s in sums]
    rows = []
    for n in _need_n(cfg):
        q = expsum.DyadicQuery(H=apply_rule(cfg.h_rule, n), D=float(cfg.d), T=float(cfg.t), N=n)
        rep, = expsum.ratio_scan(alpha, [q], DYADIC_EPS, cfg.budget)
        rows.append((n, q.H, q.D, q.T, rep.lhs, *rep.rhs_terms, rep.rhs, rep.ratio,
                     rep.eps_used))
    return "expsum_dyadic", rows


def _run_discrepancy(cfg: ExperimentConfig):
    alpha = _need_alpha(cfg)
    m = (cfg.d * cfg.t) ** 2
    ks = _need_n(cfg)
    H = cfg.h if cfg.h is not None else 100
    for k in ks:  # every K is checked before the first point is computed
        expsum.check_point_count(k, cfg.segment_cap)
        if cfg.interval is not None:
            expsum.check_erdos_turan(k, H, cfg.interval, cfg.budget)
    # the points of the largest K, once: each K reads a prefix (frac_parts is elementwise)
    points = expsum.beatty_frac_points(alpha, ks[-1], m, cfg.segment_cap)
    if cfg.interval is None:
        return "discrepancy", [(k, m, expsum.star_discrepancy(points[:k])) for k in ks]
    a, b = cfg.interval
    reps = ((k, expsum.erdos_turan_bound(points[:k], H, (a, b), cfg.budget)) for k in ks)
    return "discrepancy_et", [(k, m, a, b, H, r.lhs, r.rhs, r.ratio) for k, r in reps]


def _run_fit(cfg: ExperimentConfig):
    alpha = _need_alpha(cfg)
    table = counting.error_table(alpha, _need_n(cfg))
    return "fit", [_report_row(r) + (table.fitted_exponent,) for r in table.reports]


_RUNNERS = {
    "sigma": _run_sigma,
    "carlitz": _run_carlitz,
    "pairs": _run_count,
    "single": _run_count,
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
    if cfg.segment_cap < 1 or cfg.budget < 1:
        raise ConfigError("segment cap and budget must be positive")
    start = time.perf_counter()
    key, rows = _RUNNERS[cfg.command](cfg)
    emit_table(rows, cfg.output_format, cfg.output_path, COLUMNS[key],
               one_object=(key == "sigma"))
    print(f"{cfg.command}: done in {time.perf_counter() - start:.2f}s",
          file=sys.stderr)
    return 0


def _parse_modulus_factor(token: str) -> int:
    """--d or --t through parse_count, whose digit limit also keeps float(d) finite."""
    try:
        value = parse_count(token)
    except RangeCapError:
        raise RangeCapError(f"--d and --t must be at most {_MAX_COUNT_DIGITS} digits long") from None
    if value < 1:
        raise ConfigError(f"--d and --t must be at least 1, got {token!r}")
    return value


def _parse_interval(text: str) -> tuple:
    """--interval a,b as two floats; expsum.check_erdos_turan checks 0 <= a < b <= 1."""
    try:
        a, b = map(float, text.split(","))
    except ValueError:
        raise ConfigError(f"--interval needs exactly a,b, got {text!r}") from None
    return a, b


#: Each option's ExperimentConfig field, the parser of its text and its help.
_FIELDS = {
    "--alpha": ("alpha_spec", str, "alpha spec: sqrt:D | quad:a,b,c,D | poly:c0,..,ck@lo,hi"),
    "--n": ("n_values", parse_number_list, "comma-separated N list, 1e6 shorthand ok"),
    "--P": ("P", parse_count, "Euler product truncation"),
    "--z": ("z_rule", str, "z rule: pow:x or fixed:v"),
    "--H": ("h_rule", str, "dyadic H rule: pow:x or fixed:v"),
    "--d": ("d", _parse_modulus_factor, "modulus factor d, 1e3 shorthand ok"),
    "--t": ("t", _parse_modulus_factor, "modulus factor t, 1e3 shorthand ok"),
    "--h": ("h", parse_count, "expsum: the one h to sum at; discrepancy: Erdos-Turan H"),
    "--interval": ("interval", _parse_interval, "a,b with 0 <= a < b <= 1"),
    "--segment-cap": ("segment_cap", parse_count, "most points (K) held at once"),
    "--budget": ("budget", parse_count, "cap on exponential terms"),
    "--format": ("output_format", str, "csv or json"),
    "--out": ("output_path", str, "output path, - for stdout"),
}

_PAIR_OPTIONS = ("--alpha", "--n")

#: The options each command reads besides --format and --out; any other
#: option is an argparse error (exit 2).
OPTIONS = {
    "sigma": ("--P",),
    "carlitz": ("--n",),
    "pairs": _PAIR_OPTIONS,
    "single": _PAIR_OPTIONS,
    "decompose": _PAIR_OPTIONS + ("--z",),
    "expsum": ("--alpha", "--n", "--H", "--d", "--t", "--h", "--budget"),
    "discrepancy": ("--alpha", "--n", "--d", "--t", "--h", "--interval", "--segment-cap",
                    "--budget"),
    "fit": _PAIR_OPTIONS,
}

COMMANDS = tuple(OPTIONS)

_OUTPUT = ("--format", "--out")


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command with only its own options, spelled in full
    (--h must not abbreviate --help), and no defaults: an option left out is
    absent from the namespace."""
    parser = argparse.ArgumentParser(
        prog="sqfpairs",
        description="Desk-verification experiments for consecutive squarefree "
                    "values of [alpha*p].",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name, argument_default=argparse.SUPPRESS, allow_abbrev=False)
        for flag in OPTIONS[name] + _OUTPUT:
            field, _, help_text = _FIELDS[flag]
            cmd.add_argument(flag, dest=field, metavar=flag[2:].upper(), help=help_text)
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """Parse the options given; ExperimentConfig supplies the rest."""
    fields = (_FIELDS[flag] for flag in OPTIONS[args.command] + _OUTPUT)
    return ExperimentConfig(command=args.command, **{
        field: parse(getattr(args, field)) for field, parse, _ in fields if hasattr(args, field)})


def _refuse_options_the_mode_ignores(args: argparse.Namespace) -> None:
    """expsum with --h reads neither --H nor --budget, and discrepancy without
    --interval reads neither --h nor --budget: given, they are a ConfigError."""
    ignored = {"expsum": ("--H", "--budget") if hasattr(args, "h") else (),
               "discrepancy": () if hasattr(args, "interval") else ("--h", "--budget")}
    given = [flag for flag in ignored.get(args.command, ()) if hasattr(args, _FIELDS[flag][0])]
    if given:
        mode = "with --h" if args.command == "expsum" else "without --interval"
        raise ConfigError(f"{args.command} {mode} does not read {', '.join(given)}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _refuse_options_the_mode_ignores(args)
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
              "points of discrepancy", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 4


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
