"""Command-line front end.

Subcommands:
  analytic   closed-form mean/variance for one (n, p, x0)
  simulate   Monte Carlo ensemble vs the closed form, with a z-score
  fig1       CSV sweep of analytic vs empirical variance at fixed expected degree
  fig2       CSV table of the variance factor n(1-rho)/delta, no simulation
  oracle     exhaustive-enumeration cross-check of every closed form

JSON commands print a single object on stdout; CSV commands print a
header row plus data rows with \\n line endings. Diagnostics go to
stderr. Exit codes: 0 success, 1 oracle discrepancy above threshold,
2 usage error, 3 non-convergence.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from datetime import datetime, timezone

from .dynamics import DEFAULT_MAX_STEPS, DEFAULT_TOL, NonConvergenceError
from .graphs import GraphSeed, ModelParams
from .montecarlo import ExperimentConfig, factor_sweep, resolve_x0, run_ensemble, sweep_fixed_degree
from .moments import consensus_variance
from .oracle import ENUM_OPTIONAL_MAX_N, ENUM_REQUIRED_MAX_N, oracle_report

SCHEMA_VERSION = "1"
ORACLE_THRESHOLD = 1e-10

EXIT_OK = 0
EXIT_THRESHOLD = 1
EXIT_USAGE = 2
EXIT_NONCONVERGENCE = 3


class UsageError(Exception):
    """Invalid flag value; message names the offending flag."""


def _fmt(value) -> str:
    """Round-trip-safe text for floats (shortest repr), plain str otherwise."""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _timestamp() -> str:
    # SOURCE_DATE_EPOCH makes output byte-reproducible when callers need it.
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    try:
        moment = int(epoch) if epoch else time.time()
        return datetime.fromtimestamp(moment, tz=timezone.utc).isoformat()
    except (ValueError, OverflowError, OSError):
        raise UsageError(f"SOURCE_DATE_EPOCH must be Unix seconds, got {epoch!r}") from None


def _record(command: str, params: dict, results: dict, seed=None) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "params": params,
        "results": results,
        "provenance": {"seed": seed, "timestamp": _timestamp()},
    }


def _emit_json(record: dict, stream) -> None:
    # Encoded whole before writing: a NaN raises here instead of leaving
    # invalid JSON (or half an object) on the stream.
    stream.write(json.dumps(record, indent=2, allow_nan=False) + "\n")


def _parse_x0(text: str, n: int):
    """CLI x0 grammar: 'ramp' | 'const:<v>' | comma-separated floats."""
    spec = text
    if text != "ramp" and not text.startswith("const:"):
        try:
            spec = [float(part) for part in text.split(",")]
        except ValueError as exc:
            raise UsageError(
                f"--x0 must be 'ramp', 'const:<v>', or comma-separated numbers, got {text!r}"
            ) from exc
    try:
        return resolve_x0(spec, n)
    except ValueError as exc:
        raise UsageError(f"--x0: {exc}") from exc


def _model_params(n: int, p: float) -> ModelParams:
    try:
        return ModelParams(n, p)
    except ValueError as exc:
        flag = "--n" if str(exc).startswith("n ") else "--p"
        raise UsageError(f"{flag}: {exc}") from exc


def _threads(args) -> int:
    flag, value = "--threads", args.threads
    if value is None:
        flag, env = "CONSENSUS_THREADS", os.environ.get("CONSENSUS_THREADS")
        try:
            value = int(env) if env else 1
        except ValueError:
            raise UsageError(f"CONSENSUS_THREADS must be an integer, got {env!r}") from None
    if value < 0:
        raise UsageError(f"{flag} must be >= 0, got {value}")
    return value


def _open_output(path: str):
    if path == "-":
        return sys.stdout, False
    return open(path, "w", newline=""), True


def _write_gnuplot(path: str, data_path: str, script: str) -> None:
    with open(path, "w") as handle:
        handle.write(script.format(data=data_path))


def cmd_analytic(args) -> int:
    params = _model_params(args.n, args.p)
    x0 = _parse_x0(args.x0, args.n)
    report = consensus_variance(params, x0)
    results = {
        "mean": report.mean,
        "variance": report.variance,
        "rho": report.rho,
        "delta": report.delta,
        "factor": report.factor,
    }
    _emit_json(_record("analytic", {"n": args.n, "p": args.p, "x0": args.x0}, results), sys.stdout)
    return EXIT_OK


def cmd_simulate(args) -> int:
    params = _model_params(args.n, args.p)
    x0 = _parse_x0(args.x0, args.n)
    cfg = ExperimentConfig(
        params=params,
        x0_spec=x0,
        reps=args.reps,
        seed=GraphSeed(args.seed),
        tol=args.tol,
        max_steps=args.max_steps,
    )
    stats = run_ensemble(cfg, threads=_threads(args))
    analytic = consensus_variance(params, x0)
    diff = stats.variance - analytic.variance
    if stats.stderr_variance > 0.0:
        z = diff / stats.stderr_variance
    else:
        z = 0.0 if diff == 0.0 else None
    results = {
        "empirical_mean": stats.mean,
        "empirical_variance": stats.variance,
        "stderr_variance": stats.stderr_variance,
        "analytic_mean": analytic.mean,
        "analytic_variance": analytic.variance,
        "variance_z": z,
        "reps_used": stats.reps_used,
        "nonconverged": stats.nonconverged,
    }
    record = _record(
        "simulate",
        {
            "n": args.n,
            "p": args.p,
            "x0": args.x0,
            "reps": args.reps,
            "tol": args.tol,
            "max_steps": args.max_steps,
        },
        results,
        seed=args.seed,
    )
    _emit_json(record, sys.stdout)
    return EXIT_OK


FIG1_HEADER = "n,p,analytic_variance,empirical_variance,stderr"
FIG2_HEADER = "c,n,factor"


def render_fig1_csv(rows) -> str:
    """Sweep rows -> the fig1 CSV text (header + one line per size)."""
    lines = [FIG1_HEADER]
    for row in rows:
        lines.append(
            f"{row.n},{_fmt(row.p)},{_fmt(row.analytic_variance)},"
            f"{_fmt(row.empirical_variance)},{_fmt(row.stderr)}"
        )
    return "\n".join(lines) + "\n"


def render_fig2_csv(rows) -> str:
    """Factor rows -> the fig2 CSV text."""
    lines = [FIG2_HEADER]
    for row in rows:
        lines.append(f"{_fmt(row.c)},{row.n},{_fmt(row.factor)}")
    return "\n".join(lines) + "\n"


_GNUPLOT_FIG1 = """set datafile separator ","
set key autotitle columnhead
set xlabel "network size n"
set ylabel "variance of the agreed value"
plot "{data}" using 1:3 with lines title "analytic", \\
     "{data}" using 1:4:(4*column(5)) with yerrorbars title "empirical (4 SE)"
"""

_GNUPLOT_FIG2 = """set datafile separator ","
set xlabel "network size n"
set ylabel "variance factor n(1-rho)/delta"
plot for [c in system("awk -F, 'NR>1 && !seen[$1]++ {{print $1}}' {data}")] \\
     "{data}" using 2:(strcol(1) eq c ? $3 : NaN) with lines title "c = ".c
"""


def cmd_fig1(args) -> int:
    if not args.c > 0:
        raise UsageError(f"--c must be > 0, got {args.c}")
    if args.n_min < args.c:
        raise UsageError(f"--n-min must be >= --c, got n-min {args.n_min} < c {args.c}")
    if args.n_max < args.n_min:
        raise UsageError(f"--n-max must be >= --n-min, got {args.n_max} < {args.n_min}")
    if args.gnuplot and args.output == "-":
        raise UsageError("--gnuplot needs --output to point at a file, not stdout")
    rows = sweep_fixed_degree(
        c=args.c,
        n_range=range(args.n_min, args.n_max + 1),
        reps=args.reps,
        seed=args.seed,
        x0_spec=args.x0,
        tol=args.tol,
        max_steps=args.max_steps,
        threads=_threads(args),
    )
    stream, close = _open_output(args.output)
    try:
        stream.write(render_fig1_csv(rows))
    finally:
        if close:
            stream.close()
    if args.gnuplot:
        _write_gnuplot(args.gnuplot, args.output, _GNUPLOT_FIG1)
    return EXIT_OK


def cmd_fig2(args) -> int:
    try:
        c_list = [float(part) for part in args.c.split(",")]
    except ValueError as exc:
        raise UsageError(f"--c must be comma-separated numbers, got {args.c!r}") from exc
    if args.n_max < args.n_min:
        raise UsageError(f"--n-max must be >= --n-min, got {args.n_max} < {args.n_min}")
    if not all(c >= 1 for c in c_list):
        raise UsageError(f"--c entries must be >= 1, got {args.c!r}")
    if args.gnuplot and args.output == "-":
        raise UsageError("--gnuplot needs --output to point at a file, not stdout")
    rows = factor_sweep(c_list, range(args.n_min, args.n_max + 1))
    stream, close = _open_output(args.output)
    try:
        stream.write(render_fig2_csv(rows))
    finally:
        if close:
            stream.close()
    if args.gnuplot:
        _write_gnuplot(args.gnuplot, args.output, _GNUPLOT_FIG2)
    return EXIT_OK


def cmd_oracle(args) -> int:
    limit = ENUM_OPTIONAL_MAX_N if args.allow_large else ENUM_REQUIRED_MAX_N
    if args.n > limit:
        hint = "" if args.allow_large else f" (--allow-large admits n = {ENUM_OPTIONAL_MAX_N})"
        raise UsageError(f"--n must be <= {limit} for enumeration, got {args.n}{hint}")
    params = _model_params(args.n, args.p)
    x0 = _parse_x0(args.x0, args.n)
    report = oracle_report(params, x0, allow_large=args.allow_large)
    discrepancies = {
        "ew": report.ew_discrepancy,
        "eww": report.eww_discrepancy,
        "eigenvector": report.eigenvector_discrepancy,
        "variance": report.variance_discrepancy,
    }
    results = {
        "max_abs_discrepancy": discrepancies,
        "exact_variance": report.exact_variance,
        "closed_form_variance": report.closed_form_variance,
        "threshold": ORACLE_THRESHOLD,
    }
    record = _record("oracle", {"n": args.n, "p": args.p, "x0": args.x0}, results)
    _emit_json(record, sys.stdout)
    if any(value > ORACLE_THRESHOLD for value in discrepancies.values()):
        worst = max(discrepancies, key=discrepancies.get)
        print(
            f"oracle: {worst} discrepancy {discrepancies[worst]:.3e} "
            f"exceeds {ORACLE_THRESHOLD:.1e}",
            file=sys.stderr,
        )
        return EXIT_THRESHOLD
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="erconsensus",
        description="Moments of the random agreement value of averaging dynamics "
        "over directed Erdős–Rényi graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_threads(p):
        p.add_argument(
            "--threads",
            type=int,
            default=None,
            help="worker threads for replications (0 = one per CPU; "
            "falls back to $CONSENSUS_THREADS, then 1)",
        )

    p = sub.add_parser("analytic", help="closed-form mean/variance for one (n, p, x0)")
    p.add_argument("--n", type=int, required=True, help="network size (>= 2)")
    p.add_argument("--p", type=float, required=True, help="edge probability in (0, 1]")
    p.add_argument("--x0", default="ramp", help="'ramp', 'const:<v>', or comma-separated values")
    p.set_defaults(func=cmd_analytic)

    p = sub.add_parser("simulate", help="Monte Carlo ensemble vs the closed form")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--x0", default="ramp")
    p.add_argument("--reps", type=int, default=2000, help="replication count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--max-steps", type=int, default=DEFAULT_MAX_STEPS)
    add_threads(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fig1", help="CSV sweep: analytic vs empirical variance at fixed c")
    p.add_argument("--c", type=float, required=True, help="expected out-degree (p = c/n)")
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--reps", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--x0", default="ramp")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--max-steps", type=int, default=DEFAULT_MAX_STEPS)
    p.add_argument("--output", default="-", help="CSV path, '-' for stdout")
    p.add_argument("--gnuplot", default=None, help="also write a gnuplot script here")
    add_threads(p)
    p.set_defaults(func=cmd_fig1)

    p = sub.add_parser("fig2", help="CSV table of the variance factor, no simulation")
    p.add_argument("--c", required=True, help="comma-separated expected out-degrees")
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--output", default="-")
    p.add_argument("--gnuplot", default=None)
    p.set_defaults(func=cmd_fig2)

    p = sub.add_parser("oracle", help="enumeration cross-check of the closed forms")
    limits = f"<= {ENUM_REQUIRED_MAX_N}, or {ENUM_OPTIONAL_MAX_N} with --allow-large"
    p.add_argument("--n", type=int, required=True, help=f"network size ({limits})")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--x0", default="ramp")
    p.add_argument("--allow-large", action="store_true", help=f"admit n = {ENUM_OPTIONAL_MAX_N}")
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
