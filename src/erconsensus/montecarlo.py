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
import sys
from dataclasses import dataclass

import numpy as np

from .dynamics import DEFAULT_MAX_STEPS, DEFAULT_TOL, NonConvergenceError, run_block
from .dynamics import _check_budget, _stop_rule
from .graphs import GraphSeed, ModelParams, _check_int, _check_real, _check_x0
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
# The variance bias bound of an ensemble is held to this share of the
# closed-form standard error of its variance (see _planned_tol).
_BIAS_SE_SHARE = 0.025


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

    tol is the loosest tolerance the ensemble runs at: run_ensemble runs
    it tighter where the stop's bias is forecast to be too large for the
    standard error of its variance. The x0 rule is resolved at
    construction, so a bad rule fails here rather than at run time.
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
        _check_int("reps", self.reps, 1)
        _check_budget(self.tol, self.max_steps)
        self.x0()

    def x0(self) -> np.ndarray:
        return resolve_x0(self.x0_spec, self.params.n)


@dataclass(frozen=True)
class EnsembleStats:
    """Aggregated agreement values of one ensemble.

    variance is the unbiased (ddof=1) sample variance of the outcomes and
    stderr_variance its jackknife standard error. steps_mean and
    steps_max are the mean and largest step count of a replication.
    tol is the tolerance the reported replications ran at, cfg.tol or
    tighter, and variance_bias_bound bounds how far variance falls short
    of the limit's because the runs stopped there: (tol spread(x0))**2,
    or 0 when every final spread is 0 (see run_ensemble).

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
    tol: float
    variance_bias_bound: float


def jackknife_variance_stderr(values) -> float:
    """Jackknife standard error of the unbiased sample variance.

    Leave-one-out variances come from the centered sums in O(reps);
    no fourth-moment plug-in for the unknown outcome distribution is
    needed. The centered values are scaled by a power of two to below 1
    before any squaring and the result scaled back, which is exact, so
    finite inputs of any size give a finite result whenever it is
    representable. Returns 0.0 for fewer than three values or identical
    values. values must be a 1-D sequence of finite numbers.
    """
    x = np.asarray(values, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"values must be a 1-D sequence, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError(f"values must be finite, got {x[~np.isfinite(x)].tolist()}")
    r = x.size
    if r < 3 or np.ptp(x) == 0.0:
        return 0.0
    x = x - x.mean()  # translation-invariant; centering tames cancellation
    exponent = int(np.frexp(np.abs(x).max())[1])
    x = np.ldexp(x, -exponent)  # fourth powers of these cannot overflow
    s1 = float(x.sum())
    s2 = float(x @ x)
    mean_loo = (s1 - x) / (r - 1)
    ss_loo = s2 - x**2 - (r - 1) * mean_loo**2
    var_loo = ss_loo / (r - 2)
    return float(np.ldexp(np.sqrt((r - 1) / r * np.sum((var_loo - var_loo.mean()) ** 2)), 2 * exponent))


def _runs(indices: np.ndarray, limit: int = 10) -> str:
    """Sorted indices as runs, at most limit of them: [0, 1, 2, 5] -> '0-2, 5'."""
    runs = np.split(indices, np.flatnonzero(np.diff(indices) != 1) + 1)
    text = [str(r[0]) if r.size == 1 else f"{r[0]}-{r[-1]}" for r in runs[:limit]]
    return ", ".join(text) + (", ..." if len(runs) > limit else "")


def _planned_tol(cfg: ExperimentConfig, x0: np.ndarray, spread0: float) -> float:
    """The tol of an ensemble: cfg.tol, or tighter where its bias budget needs it.

    The forecast SE is var(x*) sqrt(2 / (reps - 1)), the standard error
    of a sample variance of normal values, with var(x*) in closed form
    (moments.consensus_variance), and the bound (tol spread(x0))**2 is
    held to _BIAS_SE_SHARE of it. cfg.tol is kept for fewer than three
    replications, or when the budget is 0 to rounding, at most
    (eps spread(x0))**2; otherwise the tol returned exceeds eps.
    """
    if cfg.reps < 3:
        return cfg.tol
    forecast = consensus_variance(cfg.params, x0).variance * math.sqrt(2.0 / (cfg.reps - 1))
    budget = _BIAS_SE_SHARE * forecast
    bound = (cfg.tol * spread0) ** 2
    if bound <= budget or budget <= (sys.float_info.epsilon * spread0) ** 2:
        return cfg.tol
    return cfg.tol * math.sqrt(budget / bound)


def run_ensemble(cfg: ExperimentConfig, threads: int = 1) -> EnsembleStats:
    """Run cfg.reps independent consensus paths and aggregate the values.

    The replications go in blocks of _BLOCK_REPS (the last may be
    shorter); block b runs dynamics.run_block on cfg.seed.block(b).

    The bias budget. Runs stopped at tol report values whose variance
    falls short of the limit's by less than b = (tol spread(x0))**2 (see
    the dynamics module docstring); b = 0 when every final spread is 0,
    as at p = 1 or a constant x0, since each value is then its limit.
    The ensemble runs once, at cfg.tol or at the tighter tol that holds
    b to 0.025 times the SE of its variance forecast from the closed
    form (_planned_tol), and reports that tol and b. The sample SE is
    not consulted: b only lowers the sample variance, so it cannot hide
    a closed form that is too high, and where the closed form is too
    low its forecast SE is low too and the tol tightens in proportion.
    At 40 replications the jackknife SE ranged over 0.48-1.9 times the
    forecast, and no benchmark-shaped ensemble checked had b above 0.1
    times its jackknife SE.

    threads is kept for callers and must be an integer >= 0, but the
    blocks run one after another whatever its value: both step bodies are
    chains of small numpy calls that hold the interpreter lock, and a
    thread pool over blocks ran slower than one thread (0.78x at n = 20,
    p = 0.25). The results are the same for every value.

    Any replication that fails to converge raises NonConvergenceError
    naming the failed indices: with p > 0 a non-converged run means a
    broken tolerance/step budget, not bad luck.
    """
    _check_int("threads", threads, 0)
    params, reps = cfg.params, cfg.reps
    x0 = cfg.x0()
    spread0 = float(x0.max() - x0.min())
    tol = _planned_tol(cfg, x0, spread0)
    parts = [
        run_block(params, x0, min(_BLOCK_REPS, reps - start), cfg.seed.block(b), tol, cfg.max_steps)
        for b, start in enumerate(range(0, reps, _BLOCK_REPS))
    ]
    outcomes, steps, spreads = (np.concatenate(column) for column in zip(*parts))
    failed = np.flatnonzero(np.isnan(outcomes))  # a converged value is never NaN
    if failed.size:
        raise NonConvergenceError(
            f"{failed.size} of {reps} replications did not converge to spread < {_stop_rule(tol, x0)} "
            f"within {cfg.max_steps} steps (indices {_runs(failed)})"
        )
    mean = float(outcomes.mean())
    if reps < 2 or np.ptp(outcomes) == 0.0:
        variance, stderr = 0.0, 0.0
    else:
        centered = outcomes - mean
        variance = float(centered @ centered) / (reps - 1)
        stderr = jackknife_variance_stderr(outcomes)
    return EnsembleStats(
        mean=mean,
        variance=variance,
        stderr_variance=stderr,
        reps_used=reps,
        nonconverged=0,
        steps_mean=float(steps.mean()),
        steps_max=int(steps.max()),
        tol=tol,
        variance_bias_bound=(tol * spread0) ** 2 if spreads.any() else 0.0,
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
    Each row is one run_ensemble, so it keeps the bias budget, at tol or
    tighter.
    """
    c = _check_degree(c)
    rows = []
    for n in n_range:
        _check_int("n", n, 2)
        if n < c:
            raise ValueError(f"n = {n} is below c = {c}, which would need p > 1")
        p = c / n
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
        c = _check_degree(c)
        for n in n_range:
            _check_int("n", n, 2)
            if n >= c:
                rows.append(FactorRow(c=c, n=n, factor=variance_factor(ModelParams(n, c / n))))
    return rows
