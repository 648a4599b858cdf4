"""Ensemble experiments: the empirical distribution of the agreed value.

A replication is one full consensus run on its own random-graph path;
an ensemble aggregates many replications into mean/variance estimates
that the closed forms can be checked against. Replications go in fixed
blocks of _BLOCK_REPS, and block b steps its replications together
(dynamics.run_block) on one generator, GraphSeed.block(b); the dynamics
module docstring describes the random streams.

The blocks are fixed by the configuration alone and their outcomes are
concatenated in block order, so results are bit-identical for any
thread count: threads is accepted and checked, and does nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import DEFAULT_MAX_STEPS, DEFAULT_TOL, NonConvergenceError, run_block
from .dynamics import _check_budget, _start
from .graphs import _INT64_MAX, GraphSeed, ModelParams, _check_int, _check_real, _check_x0
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

# Replications per block of an ensemble (see run_ensemble).
_BLOCK_REPS = 128


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
    """One ensemble: fixed (n, p), an initial-condition rule, seeding.

    Every replication runs at tol (see the dynamics module docstring for
    the stop rule). The x0 rule is resolved and checked once, here, and
    x0() returns a read-only copy of the result, not a caller's own array.
    """

    params: ModelParams
    x0_spec: object
    reps: int
    seed: GraphSeed
    tol: float = DEFAULT_TOL
    max_steps: int = DEFAULT_MAX_STEPS

    def __post_init__(self) -> None:
        if not isinstance(self.params, ModelParams):
            raise TypeError(f"params must be a ModelParams, got {type(self.params).__name__}")
        if not isinstance(self.seed, GraphSeed):
            raise TypeError(f"seed must be a GraphSeed, got {type(self.seed).__name__}")
        _check_int("reps", self.reps, 1, _INT64_MAX)
        _check_budget(self.tol, self.max_steps)
        object.__setattr__(self, "_x0", resolve_x0(self.x0_spec, self.params.n).copy())
        self._x0.flags.writeable = False

    def x0(self) -> np.ndarray:
        return self._x0


@dataclass(frozen=True)
class EnsembleStats:
    """Aggregated agreement values of one ensemble.

    variance is the unbiased (ddof=1) sample variance of the outcomes over
    1 - stop_share, the optional-stopping estimate of var(x*), and
    stderr_variance its jackknife standard error; stop_share is
    mean(S_tau) / S(x0), below tol**2, but 1 when tol * sqrt(S(x0))
    underflows to 0 (see run_ensemble). steps_mean and
    steps_max are the mean and largest step count of a replication.

    Every replication counts (a non-converged one raises), so reps_used
    is the replication count and nonconverged is 0. Both are kept: the
    simulate record carries them, and the benchmark's fig1 and large-n
    checks read them to count replications that did not converge.
    """

    mean: float
    variance: float
    stderr_variance: float
    reps_used: int
    nonconverged: int
    steps_mean: float
    steps_max: int
    stop_share: float


def jackknife_variance_stderr(values, shares=None) -> float:
    """Jackknife standard error of the unbiased sample variance var, or of var / (1 - mean(shares)).

    shares are the S_tau / S(x0) of run_ensemble's replications, and a
    leave-one-out estimate is then var_loo / (1 - mean share_loo); no
    shares, or all 0, give the plain variance's value. Leave-one-out
    variances come from the centered sums in O(reps); no fourth-moment
    plug-in for the unknown outcome distribution is needed. The centered
    values are scaled by a power of two to below 1 before any squaring
    and the result scaled back, which is exact, so finite inputs of any
    size give a finite result whenever it is representable. Returns 0.0
    for fewer than three values or identical values. values must be a
    1-D sequence of finite numbers, shares one as long, in [0, 1).

    This function checks its inputs and hands them to _jackknife, the
    core, which run_ensemble calls directly: its values are converged, so
    finite, and its shares below tol**2.
    """
    x = np.asarray(values, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"values must be a 1-D sequence, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError(f"values must be finite, got {x[~np.isfinite(x)].tolist()}")
    r = x.size
    share = np.zeros(r) if shares is None else np.asarray(shares, dtype=float)
    if share.shape != x.shape or not ((0.0 <= share) & (share < 1.0)).all():  # NaN fails both comparisons
        raise ValueError(f"shares must be a 1-D sequence of {r} numbers in [0, 1), one per value")
    if r < 3 or np.ptp(x) == 0.0:
        return 0.0
    return _jackknife(x - np.add.reduce(x) / r, share)  # translation-invariant; centering tames cancellation


def _jackknife(x: np.ndarray, share: np.ndarray) -> float:
    """jackknife_variance_stderr of checked values, centred on their mean as x, at least three and not all equal."""
    r = x.size
    exponent = int(np.frexp(np.abs(x).max())[1])
    x = np.ldexp(x, -exponent)  # fourth powers of these cannot overflow
    s1 = float(np.add.reduce(x))
    s2 = float(x @ x)
    mean_loo = (s1 - x) / (r - 1)
    ss_loo = s2 - x**2 - (r - 1) * mean_loo**2
    var_loo = ss_loo / (r - 2) / (1.0 - (float(np.add.reduce(share)) - share) / (r - 1))
    var_loo -= np.add.reduce(var_loo) / r
    var_loo *= var_loo
    return float(np.ldexp(np.sqrt((r - 1) / r * np.add.reduce(var_loo)), 2 * exponent))


def _runs(indices: np.ndarray, limit: int = 10) -> str:
    """Sorted indices as runs, at most limit of them: [0, 1, 2, 5] -> '0-2, 5'."""
    runs = np.split(indices, np.flatnonzero(np.diff(indices) != 1) + 1)
    text = [str(r[0]) if r.size == 1 else f"{r[0]}-{r[-1]}" for r in runs[:limit]]
    return ", ".join(text) + (", ..." if len(runs) > limit else "")


def run_ensemble(cfg: ExperimentConfig, threads: int = 1) -> EnsembleStats:
    """Run cfg.reps independent consensus paths and aggregate the values.

    The replications go in blocks of _BLOCK_REPS (the last may be
    shorter); block b runs dynamics.run_block on cfg.seed.block(b) at cfg.tol.

    The optional-stopping correction. A replication stops at tau with
    value m_tau and dispersion S_tau < tol**2 S(x0), and var(x*) =
    var(m_tau) / (1 - E[S_tau] / S(x0)) (dynamics module docstring). So
    variance is the sample variance over 1 - stop_share, stop_share =
    mean(S_tau) / S(x0), and its SE the jackknife of that ratio. It rests
    on the law only through its shape, var(x*) proportional to S(x0), and
    only for the share; no closed-form number enters. stop_share is 0
    when S(x0) is 0: a constant x0, or one whose S(x0) underflows; it is
    1 when only tol * sqrt(S(x0)) underflows, as every replication then
    stops at step 0 with all of S(x0) (run_block), and variance is 0.

    threads is kept for callers and must be an integer >= 0, but the
    blocks run one after another whatever its value: both step bodies are
    chains of small numpy calls that hold the interpreter lock, and a
    thread pool over blocks ran slower than one thread (BENCH_10.json,
    thread_speedup_over_blocks). The results are the same for every value.

    Any replication that fails to converge raises NonConvergenceError
    naming the failed indices: with p > 0 a non-converged run means a
    broken tolerance/step budget, not bad luck.
    """
    _check_int("threads", threads, 0)
    params, reps = cfg.params, cfg.reps
    x0 = cfg.x0()
    parts = [
        run_block(params, x0, min(_BLOCK_REPS, reps - start), cfg.seed.block(b), cfg.tol, cfg.max_steps)
        for b, start in enumerate(range(0, reps, _BLOCK_REPS))
    ]
    outcomes, steps, dispersions = parts[0] if len(parts) == 1 else (np.concatenate(col) for col in zip(*parts))
    dispersion0 = _start(x0)[2]  # S(x0), the one run_block's stop is relative to
    failed = np.flatnonzero(np.isnan(outcomes))  # a converged value is never NaN
    if failed.size:
        norm = math.sqrt(dispersion0)
        raise NonConvergenceError(
            f"{failed.size} of {reps} replications did not converge to sqrt(S) < tol {cfg.tol:.1e} x sqrt(S(x0)) "
            f"{norm:.3e} = {cfg.tol * norm:.3e} within {cfg.max_steps} steps (indices {_runs(failed)})"
        )
    shares = dispersions / dispersion0 if dispersion0 > 0.0 else np.zeros(reps)
    stop_share = float(np.add.reduce(shares) / reps)
    mean = float(np.add.reduce(outcomes) / reps)
    if reps < 2 or outcomes.max() == outcomes.min():
        variance, stderr = 0.0, 0.0
    else:
        centered = outcomes - mean
        variance = float(centered @ centered) / (reps - 1) / (1.0 - stop_share)
        stderr = _jackknife(centered, shares) if reps > 2 else 0.0  # checked: finite values, shares below tol**2
    return EnsembleStats(
        mean=mean,
        variance=variance,
        stderr_variance=stderr,
        reps_used=reps,
        nonconverged=0,
        steps_mean=float(np.add.reduce(steps, dtype=float) / reps),
        steps_max=int(steps.max()),
        stop_share=stop_share,
    )


def _check_degree(c: float) -> float:
    """The expected degree c as a float; it must be a finite number > 0 for p = c/n to be in range."""
    c = _check_real("c", c)
    if not 0.0 < c < math.inf:  # NaN fails both comparisons
        raise ValueError(f"c must be finite and > 0, got {c}")
    return c


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
    Each row is one run_ensemble at tol, so empirical_variance is its
    optional-stopping estimate; the closed form fills only the analytic
    columns.
    """
    c = _check_degree(c)
    rows = []
    for n in n_range:
        _check_int("n", n, 2)
        if n < c:
            raise ValueError(f"n = {n} is below c = {c}, which would need p > 1")
        p = c / n
        params = ModelParams(n, p)
        cfg = ExperimentConfig(params, x0_spec, reps, GraphSeed(seed, stream=n), tol, max_steps)
        stats = run_ensemble(cfg, threads=threads)
        analytic = consensus_variance(params, cfg.x0())
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
        c = _check_degree(c)
        for n in n_range:
            _check_int("n", n, 2)
            if n >= c:
                rows.append(FactorRow(c=c, n=n, factor=variance_factor(ModelParams(n, c / n))))
    return rows
