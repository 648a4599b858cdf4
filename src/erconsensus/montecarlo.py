"""Ensemble experiments: the empirical distribution of the agreed value.

A replication is one full consensus run on its own random-graph path;
an ensemble aggregates many replications into mean/variance estimates
that the closed forms can be checked against. Replication r of an
experiment draws from stream (seed, stream, r), so results are
bit-identical whether the work queue is consumed by one thread or many.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dynamics import DEFAULT_MAX_STEPS, DEFAULT_TOL, NonConvergenceError, run_consensus
from .dynamics import _check_budget
from .graphs import GraphSeed, ModelParams, _check_int, _check_x0
from .moments import consensus_variance, variance_factor

__all__ = [
    "EnsembleStats",
    "ExperimentConfig",
    "FactorRow",
    "SweepRow",
    "factor_sweep",
    "jackknife_variance_stderr",
    "resolve_x0",
    "run_ensemble",
    "sweep_fixed_degree",
]


def resolve_x0(spec, n: int) -> np.ndarray:
    """Initial-condition rule -> concrete length-n vector.

    'ramp' gives x_i(0) = i/n for i = 1..n, 'const:<v>' a constant
    vector; anything array-like is used as-is. Every result must be a
    finite length-n vector. Rules (rather than vectors) exist so sweeps
    can rebuild x0 as n changes.
    """
    if isinstance(spec, str):
        if spec == "ramp":
            spec = np.arange(1, n + 1) / n
        elif spec.startswith("const:"):
            try:
                spec = np.full(n, float(spec[len("const:"):]))
            except ValueError:
                raise ValueError(f"x0 constant must be a number, got {spec!r}") from None
        else:
            raise ValueError(f"x0 rule {spec!r} is unknown; expected 'ramp' or 'const:<v>'")
    return _check_x0(spec, n)


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """One ensemble: fixed (n, p), an initial-condition rule, seeding."""

    params: ModelParams
    x0_spec: object
    reps: int
    seed: GraphSeed
    tol: float = DEFAULT_TOL
    max_steps: int = DEFAULT_MAX_STEPS

    def __post_init__(self) -> None:
        _check_int("reps", self.reps, 1)
        _check_budget(self.tol, "max_steps", self.max_steps)

    def x0(self) -> np.ndarray:
        return resolve_x0(self.x0_spec, self.params.n)


@dataclass(frozen=True)
class EnsembleStats:
    """Aggregated agreement values of one ensemble.

    variance is the unbiased (ddof=1) sample variance of the outcomes and
    stderr_variance its jackknife standard error. Every replication
    counts (a non-converged one raises), so reps_used is the replication
    count and nonconverged is 0; both stay in the record format.
    """

    mean: float
    variance: float
    stderr_variance: float
    reps_used: int
    nonconverged: int


def jackknife_variance_stderr(values) -> float:
    """Jackknife standard error of the unbiased sample variance.

    Leave-one-out variances come from the centered sums in O(reps);
    no fourth-moment plug-in for the unknown outcome distribution is
    needed. Returns 0.0 for fewer than three values or identical values.
    """
    x = np.asarray(values, dtype=float)
    r = x.size
    if r < 3 or np.ptp(x) == 0.0:
        return 0.0
    x = x - x.mean()  # translation-invariant; centering tames cancellation
    s1 = float(x.sum())
    s2 = float(x @ x)
    mean_loo = (s1 - x) / (r - 1)
    ss_loo = s2 - x**2 - (r - 1) * mean_loo**2
    var_loo = ss_loo / (r - 2)
    return float(np.sqrt((r - 1) / r * np.sum((var_loo - var_loo.mean()) ** 2)))


def run_ensemble(cfg: ExperimentConfig, threads: int = 1) -> EnsembleStats:
    """Run cfg.reps independent consensus paths and aggregate the values.

    threads > 1 consumes the replication queue with a thread pool; 0
    means one worker per CPU, and the pool never exceeds the CPU or
    replication count; a negative or non-integer count is rejected.
    Outcomes land in a slot per replication index, so aggregation order
    (and therefore every output bit) is independent of scheduling.

    Any replication that fails to converge raises NonConvergenceError
    naming the failed indices: with p > 0 a non-converged run means a
    broken tolerance/step budget, not bad luck.
    """
    _check_int("threads", threads, 0)
    cpus = os.cpu_count() or 1
    workers = min(threads or cpus, cpus, cfg.reps)
    x0 = cfg.x0()

    def one(rep: int) -> float | None:
        rng = cfg.seed.replication(rep)
        try:
            return run_consensus(cfg.params, x0, rng, tol=cfg.tol, max_steps=cfg.max_steps).value
        except NonConvergenceError:
            return None

    if workers <= 1:
        values = list(map(one, range(cfg.reps)))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            values = list(pool.map(one, range(cfg.reps)))
    failed = [rep for rep, value in enumerate(values) if value is None]
    if failed:
        shown = ", ".join(map(str, failed[:10])) + (", ..." if len(failed) > 10 else "")
        raise NonConvergenceError(
            f"{len(failed)} of {cfg.reps} replications did not converge "
            f"within {cfg.max_steps} steps (indices {shown})"
        )

    outcomes = np.array(values)
    mean = float(outcomes.mean())
    if outcomes.size < 2 or np.ptp(outcomes) == 0.0:
        variance, stderr = 0.0, 0.0
    else:
        centered = outcomes - mean
        variance = float(centered @ centered) / (outcomes.size - 1)
        stderr = jackknife_variance_stderr(outcomes)
    return EnsembleStats(
        mean=mean,
        variance=variance,
        stderr_variance=stderr,
        reps_used=cfg.reps,
        nonconverged=0,
    )


@dataclass(frozen=True)
class SweepRow:
    """One network size of a fixed-expected-degree sweep."""

    n: int
    p: float
    analytic_variance: float
    empirical_variance: float
    stderr: float
    analytic_mean: float
    empirical_mean: float
    reps_used: int


def sweep_fixed_degree(
    c: float,
    n_range,
    reps: int,
    seed: int,
    x0_spec="ramp",
    tol: float = DEFAULT_TOL,
    max_steps: int = DEFAULT_MAX_STEPS,
    threads: int = 1,
) -> list[SweepRow]:
    """Analytic vs empirical variance over sizes n with p = c/n.

    n = c draws p = 1 exactly (complete graph, both variances zero);
    n < c is rejected since it would need p > 1. Row for size n uses
    stream n under the base seed, so rows are independent and the whole
    table is reproducible for a fixed (seed, reps) regardless of threads.
    """
    rows = []
    for n in n_range:
        n = int(n)
        if n < c:
            raise ValueError(f"n = {n} is below c = {c}, which would need p > 1")
        p = 1.0 if n == c else c / n
        params = ModelParams(n, p)
        x0 = resolve_x0(x0_spec, n)
        cfg = ExperimentConfig(
            params=params,
            x0_spec=x0,
            reps=reps,
            seed=GraphSeed(seed, stream=n),
            tol=tol,
            max_steps=max_steps,
        )
        stats = run_ensemble(cfg, threads=threads)
        analytic = consensus_variance(params, x0)
        rows.append(
            SweepRow(
                n=n,
                p=p,
                analytic_variance=analytic.variance,
                empirical_variance=stats.variance,
                stderr=stats.stderr_variance,
                analytic_mean=analytic.mean,
                empirical_mean=stats.mean,
                reps_used=stats.reps_used,
            )
        )
    return rows


@dataclass(frozen=True)
class FactorRow:
    """One (c, n) point of the pure-analytic variance-factor table."""

    c: float
    n: int
    factor: float


def factor_sweep(c_list, n_range) -> list[FactorRow]:
    """Variance factor n(1-rho)/delta over a grid of expected degrees.

    No simulation involved. Sizes below a given c are skipped for that c
    (they would need p > 1); n = c itself contributes a zero-factor row.
    """
    rows = []
    for c in c_list:
        for n in n_range:
            n = int(n)
            if n < c:
                continue
            p = 1.0 if n == c else c / n
            rows.append(FactorRow(c=float(c), n=n, factor=variance_factor(ModelParams(n, p))))
    return rows
