"""Command-line front end.

Subcommands:
  analytic   closed-form mean/variance for one (n, p, x0)
  simulate   Monte Carlo ensemble vs the closed form, with a z-score
  fig1       CSV sweep of analytic vs empirical variance at fixed expected degree
  fig2       CSV table of the variance factor n(1-rho)/delta, no simulation
  oracle     exact-enumeration cross-check of every closed form

JSON commands print a single object on stdout; CSV commands print a
header row plus data rows with \\n line endings. Diagnostics go to
stderr. Exit codes: 0 success, 1 oracle discrepancy above threshold,
2 usage error, 3 non-convergence.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import __version__
from .dynamics import DEFAULT_MAX_STEPS, DEFAULT_TOL, NonConvergenceError, stream_layout
from .graphs import _INT64_MAX, GraphSeed, ModelParams, _check_int
from .montecarlo import (
    ExperimentConfig,
    _check_degree,
    factor_sweep,
    resolve_x0,
    run_ensemble,
    sweep_fixed_degree,
)
from .moments import consensus_variance
from .oracle import ENUM_MAX_N, oracle_report

SCHEMA_VERSION = "13"
ORACLE_THRESHOLD = 1e-10

EXIT_OK = 0
EXIT_THRESHOLD = 1
EXIT_USAGE = 2
EXIT_NONCONVERGENCE = 3


class UsageError(ValueError):
    """Invalid flag value; message names the offending flag."""


def _record(args, params: dict, results: dict, seed=None) -> dict:
    versions = {"erconsensus": __version__, "numpy": np.__version__}
    return {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "params": params,
        "results": results,
        "provenance": {"seed": seed, **versions},
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
    except MemoryError:  # an n below the int64 cap can still be far too large to hold
        raise UsageError(f"--n {n} is too large: x0 needs {8 * n} bytes, which could not be allocated") from None


def _check_table_flags(args, degrees) -> None:
    """Range checks shared by the CSV commands, run before any work; p = c / n is smallest at --n-max."""
    if args.n_min < 2:
        raise UsageError(f"--n-min must be >= 2, got {args.n_min}")
    if args.n_max < args.n_min:
        raise UsageError(f"--n-max must be >= --n-min, got {args.n_max} < {args.n_min}")
    _check_int("n_max", args.n_max, 2, _INT64_MAX)
    for c in map(_check_degree, degrees):
        if c / args.n_max < sys.float_info.min:
            raise ValueError(f"c must be >= {sys.float_info.min} x --n-max {args.n_max}, so that p = c / n "
                             f"is not subnormal, got {c}")


def cmd_analytic(args) -> int:
    params = ModelParams(args.n, args.p)
    x0 = _parse_x0(args.x0, args.n)
    report = consensus_variance(params, x0)
    results = {
        "mean": report.mean,
        "variance": report.variance,
        "rho": report.rho,
        "delta": report.delta,
        "factor": report.factor,
    }
    _emit_json(_record(args, {"n": args.n, "p": args.p, "x0": args.x0}, results), sys.stdout)
    return EXIT_OK


def cmd_simulate(args) -> int:
    params = ModelParams(args.n, args.p)
    x0 = _parse_x0(args.x0, args.n)
    cfg = ExperimentConfig(
        params=params,
        x0_spec=x0,
        reps=args.reps,
        seed=GraphSeed(args.seed),
        tol=args.tol,
        max_steps=args.max_steps,
    )
    stats = run_ensemble(cfg, threads=args.threads)
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
        args,
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
    # Which random-stream layout drew the graphs, from which raw words, the
    # steps replications took, and the share of S(x0) left at their stops.
    record["provenance"].update(
        stream=stream_layout(params),
        bit_generator=type(cfg.seed.generator().bit_generator).__name__,
        steps_mean=stats.steps_mean,
        steps_max=stats.steps_max,
        stop_share=stats.stop_share,
    )
    _emit_json(record, sys.stdout)
    return EXIT_OK


FIG1_HEADER = "n,p,analytic_variance,empirical_variance,stderr"
FIG2_HEADER = "c,n,factor"


def render_fig1_csv(rows) -> str:
    """Sweep rows -> the fig1 CSV text (header + one line per size)."""
    lines = [FIG1_HEADER]
    for row in rows:
        lines.append(f"{row.n},{row.p},{row.analytic_variance},{row.empirical_variance},{row.stderr}")
    return "\n".join(lines) + "\n"


def render_fig2_csv(rows) -> str:
    """Factor rows -> the fig2 CSV text."""
    lines = [FIG2_HEADER]
    for row in rows:
        lines.append(f"{row.c},{row.n},{row.factor}")
    return "\n".join(lines) + "\n"


def cmd_fig1(args) -> int:
    _check_table_flags(args, [args.c])
    if args.n_min < args.c:
        raise UsageError(f"--n-min must be >= --c, got n-min {args.n_min} < c {args.c}")
    resolve_x0(args.x0, args.n_max)  # the largest x0 of the sweep: a size too large to hold fails here
    rows = sweep_fixed_degree(
        c=args.c,
        n_range=range(args.n_min, args.n_max + 1),
        reps=args.reps,
        seed=args.seed,
        x0_spec=args.x0,
        tol=args.tol,
        max_steps=args.max_steps,
        threads=args.threads,
    )
    sys.stdout.write(render_fig1_csv(rows))
    return EXIT_OK


def cmd_fig2(args) -> int:
    try:
        c_list = [float(part) for part in args.c.split(",")]
    except ValueError as exc:
        raise UsageError(f"--c must be comma-separated numbers, got {args.c!r}") from exc
    _check_table_flags(args, c_list)
    rows = factor_sweep(c_list, range(args.n_min, args.n_max + 1))
    sys.stdout.write(render_fig2_csv(rows))
    return EXIT_OK


def cmd_oracle(args) -> int:
    params = ModelParams(args.n, args.p)
    x0 = _parse_x0(args.x0, args.n)
    report = oracle_report(params, x0)
    discrepancies = {
        "ew": report.ew_discrepancy,
        "eww": report.eww_discrepancy,
        "eigenvector": report.eigenvector_discrepancy,
        "variance": report.variance_discrepancy,
    }
    # The variance scales with the square of x0's spread, so its threshold
    # is relative to x0's dispersion (mean squared deviation) once that
    # exceeds 1; the other discrepancies are x0-free.
    thresholds = dict.fromkeys(discrepancies, ORACLE_THRESHOLD)
    thresholds["variance"] *= max(1.0, float(np.var(x0)))
    results = {
        "max_abs_discrepancy": discrepancies,
        "exact_variance": report.exact_variance,
        "closed_form_variance": report.closed_form_variance,
        "threshold": ORACLE_THRESHOLD,
        "variance_threshold": thresholds["variance"],
    }
    record = _record(args, {"n": args.n, "p": args.p, "x0": args.x0}, results)
    # How closely each solved Perron vector satisfies v^T M = v^T.
    record["provenance"]["solve_residual"] = {"ew": report.ew_residual, "eww": report.eww_residual}
    _emit_json(record, sys.stdout)
    worst = max(discrepancies, key=lambda name: discrepancies[name] / thresholds[name])
    if discrepancies[worst] > thresholds[worst]:
        print(
            f"oracle: {worst} discrepancy {discrepancies[worst]:.3e} "
            f"exceeds {thresholds[worst]:.1e}",
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

    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--n", type=int, required=True, help="network size (>= 2)")
    model.add_argument("--p", type=float, required=True, help="edge probability in (0, 1]")
    model.add_argument("--x0", default="ramp", help="'ramp', 'const:<v>' or values v1,v2,...")
    ensemble = argparse.ArgumentParser(add_help=False)
    ensemble.add_argument("--reps", type=int, default=2000, help="replication count")
    ensemble.add_argument("--seed", type=int, default=0, help="root seed (>= 0)")
    ensemble.add_argument(
        "--tol",
        type=float,
        default=DEFAULT_TOL,
        help=f"stop a run once the norm of x - mean(x) is below tol times that of x0 (0 < tol < 1, "
        f"default {DEFAULT_TOL:g}); the variance is divided by 1 - stop_share, the mean share of "
        "S(x0) = sum (x0 - mean x0)^2 left at the stops, which is below tol^2",
    )
    ensemble.add_argument("--max-steps", type=int, default=DEFAULT_MAX_STEPS)
    ensemble.add_argument(
        "--threads",
        type=int,
        default=1,
        help="accepted for compatibility and checked (>= 0, default 1), but ignored: "
        "replications run on one thread, and results never depend on it",
    )
    table = argparse.ArgumentParser(add_help=False)
    table.add_argument("--n-min", type=int, required=True, help="smallest network size (>= 2)")
    table.add_argument("--n-max", type=int, required=True)

    p = sub.add_parser("analytic", parents=[model], help="closed-form moments for one (n, p, x0)")
    p.set_defaults(func=cmd_analytic)

    p = sub.add_parser("simulate", parents=[model, ensemble], help="Monte Carlo vs the closed form")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "fig1", parents=[ensemble, table], help="CSV sweep, analytic vs empirical variance, fixed c"
    )
    p.add_argument("--c", type=float, required=True, help="expected out-degree (p = c/n)")
    p.add_argument("--x0", default="ramp", help="'ramp' or 'const:<v>'")
    p.set_defaults(func=cmd_fig1)

    p = sub.add_parser("fig2", parents=[table], help="variance-factor CSV table, no simulation")
    p.add_argument("--c", required=True, help="comma-separated expected out-degrees")
    p.set_defaults(func=cmd_fig2)

    p = sub.add_parser(
        "oracle", parents=[model], help=f"exact cross-check of the closed forms (n <= {ENUM_MAX_N})"
    )
    p.set_defaults(func=cmd_oracle)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of main, built on its first call, not at import, and reused by every later call.

    parse_args leaves a parser as it found it: each call starts from a
    fresh namespace of defaults.
    """
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except NonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except ValueError as exc:
        # Library checks lead with the parameter name; name the flag that set it.
        name = str(exc).split(" ", 1)[0]
        flag = f"--{name.replace('_', '-')}: " if name in vars(args) else ""
        print(f"error: {flag}{exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # a size below every cap can still be too large to hold
        print(f"error: --{'n-max' if 'n_max' in vars(args) else 'n'}: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
