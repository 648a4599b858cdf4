"""Averaging dynamics x(k) = W_k x(k-1) over freshly sampled graphs.

Each step draws a graph realization, turns it into a row-stochastic
weight matrix (every node averages itself with its out-neighbors) and
applies it to the state. Row-stochasticity keeps every state inside the
convex hull of the previous ones, so the spread max(x) - min(x) can only
shrink; a run stops once it drops below tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import ModelParams, _check_x0

__all__ = [
    "DEFAULT_MAX_STEPS",
    "DEFAULT_TOL",
    "ConsensusOutcome",
    "NonConvergenceError",
    "run_consensus",
]

DEFAULT_TOL = 1e-10
DEFAULT_MAX_STEPS = 10**6


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
    """
    if not 0.0 < tol < np.inf:  # NaN fails both comparisons
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    n, p = params.n, params.p
    x = _check_x0(x0, n)
    steps = 0
    spread = float(x.max() - x.min())
    while spread >= tol:
        if steps >= max_steps:
            raise NonConvergenceError(
                f"spread {spread:.3e} still >= tol {tol:.1e} after {max_steps} steps",
                steps=steps,
                spread=spread,
            )
        # n*n uniforms per step; the diagonal draws are discarded by _weights.
        x = _weights(rng.random((n, n)) < p) @ x
        steps += 1
        spread = float(x.max() - x.min())
    return ConsensusOutcome(value=float(x.mean()), steps=steps, spread=spread)
