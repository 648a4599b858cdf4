"""Averaging dynamics x(k) = W_k x(k-1) over freshly sampled graphs.

Each step draws a graph realization, turns it into a row-stochastic
weight matrix (every node averages itself with its out-neighbors) and
applies it to the state. Row-stochasticity keeps every state inside the
convex hull of the previous ones, so the spread max(x) - min(x) can only
shrink; a run stops once it drops below tolerance.

Steps are drawn in chunks: one generator call and one weight build cover
a stretch of steps whose length the contraction seen so far predicts.
The generator yields the same uniforms as one call per step, so every
outcome is bit-identical to the step-by-step loop, but the generator may
be left advanced past the stopping step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import ModelParams, _check_int, _check_x0

__all__ = [
    "DEFAULT_MAX_STEPS",
    "DEFAULT_TOL",
    "ConsensusOutcome",
    "NonConvergenceError",
    "run_consensus",
]

DEFAULT_TOL = 1e-10
DEFAULT_MAX_STEPS = 10**6

# Steps in a run's first chunk, before any contraction has been seen.
_FIRST_CHUNK = 8
# Uniforms per chunk at most (128 KiB of doubles): from n = 91 on a chunk
# is a single step, so large runs hold no more memory than one step needs.
_CHUNK_DOUBLES = 2**14


class NonConvergenceError(RuntimeError):
    """The spread failed to drop below tolerance within the step budget."""

    def __init__(self, message: str, steps: int | None = None, spread: float | None = None):
        super().__init__(message)
        self.steps = steps
        self.spread = spread


def _weights(adj) -> np.ndarray:
    """Row-stochastic weights of realizations stacked as (..., n, n).

    w_ij = (a_ij + [i == j]) / (d_i + 1): node i averages its own state
    with those of its d_i out-neighbors. The implicit self-loop keeps the
    normalizer positive even for isolated nodes. adj is a bool or 0/1
    array; its diagonal is ignored (overwritten in a new float array, so
    the input is never written).
    """
    w = np.array(adj, dtype=float, order="C")
    if w.ndim < 2 or w.shape[-1] != w.shape[-2]:
        raise ValueError(f"adjacency must be square in its last two axes, got shape {w.shape}")
    n = w.shape[-1]
    w.reshape(*w.shape[:-2], n * n)[..., :: n + 1] = 1.0
    w /= w.sum(axis=-1, keepdims=True)
    return w


def _check_budget(tol: float, cap_name: str, cap: int) -> None:
    """Reject an iteration budget that cannot work: tol finite and > 0, cap an integer >= 1."""
    if not 0.0 < tol < np.inf:  # NaN fails both comparisons
        raise ValueError(f"tol must be finite and positive, got {tol}")
    _check_int(cap_name, cap, 1)


@dataclass(frozen=True)
class ConsensusOutcome:
    """End state of one run: agreed value, steps taken, final spread."""

    value: float
    steps: int
    spread: float


def run_consensus(
    params: ModelParams,
    x0,
    rng: np.random.Generator,
    tol: float = DEFAULT_TOL,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> ConsensusOutcome:
    """Iterate with an independent graph per step until the spread is < tol.

    The reported value is the mean of the final state, which is within
    tol of every coordinate and always inside [min(x0), max(x0)]. A run
    that exhausts max_steps raises NonConvergenceError rather than
    returning a truncated state.

    Steps are drawn in chunks, rng.random((k, n, n)) for k steps at once:
    the first chunk is 8 steps, each later one the number of steps the
    contraction rate seen so far says remain, and no chunk holds more
    than 2**14 uniforms or runs past max_steps. Those are exactly the
    uniforms k separate (n, n) draws would give, so the outcome depends
    only on rng's initial state and equals that of the one-draw-per-step
    loop, bit for bit. The draws of the final chunk that fall after the
    stopping step are discarded: rng is left advanced past it, so do not
    reuse rng expecting the position of a per-step loop.
    """
    _check_budget(tol, "max_steps", max_steps)
    n, p = params.n, params.p
    x = _check_x0(x0, n)
    steps = 0
    spread = float(x.max() - x.min())
    k = _FIRST_CHUNK
    while spread >= tol:
        if steps >= max_steps:
            raise NonConvergenceError(
                f"spread {spread:.3e} still >= tol {tol:.1e} after {max_steps} steps",
                steps=steps,
                spread=spread,
            )
        k = max(1, min(k, max_steps - steps, _CHUNK_DOUBLES // (n * n)))
        # n*n uniforms per step; the diagonal draws are discarded by _weights.
        w = _weights(rng.random((k, n, n)) < p)
        path = np.empty((k, n))
        for j in range(k):
            x = path[j] = w[j] @ x
        spreads = path.max(axis=1) - path.min(axis=1)
        hits = np.flatnonzero(spreads < tol)
        if hits.size:
            j = hits[0]
            return ConsensusOutcome(
                value=float(path[j].mean()), steps=steps + int(j) + 1, spread=float(spreads[j])
            )
        del w, path  # before the next chunk is drawn, so only one is alive
        steps += k
        before, spread = spread, float(spreads[-1])
        # Per-step rate from this chunk's contraction; predict the steps left.
        drop = math.log(before) - math.log(spread)
        if drop > 0.0:
            k = math.ceil((math.log(spread) - math.log(tol)) * k / drop)
    return ConsensusOutcome(value=float(x.mean()), steps=steps, spread=spread)
