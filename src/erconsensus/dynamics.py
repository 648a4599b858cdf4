"""Averaging dynamics x(k) = W_k x(k-1) over freshly sampled graphs.

Each step draws a graph realization, turns it into a row-stochastic
weight matrix (every node averages itself with its out-neighbors) and
applies it to the state. Row-stochasticity keeps every state inside the
convex hull of the previous ones, so the spread max(x) - min(x) can only
shrink; a run stops once it drops below tolerance.

run_block is the one engine: it steps a block of replications together
on one generator, and run_consensus is a block of one. Each step takes
the replications still active, in index order and in pieces of at most
_CHUNK_DOUBLES numbers, through one of two bodies chosen once per block
from p alone by _sparse_draws:

- dense: the (A, n, n) uniforms of a piece's A replications, one weight
  build and one batched product.
- sparse: the A n(n-1) edge slots of a piece are the next stretch of one
  Bernoulli(p) sequence that runs on over pieces and steps. Its edges are
  found by geometric gap skipping (Batagelj & Brandes, Phys. Rev. E 71,
  036113, 2005), and the update x <- (x + bincount(rows, x[cols])) /
  (deg + 1) costs O(n + edges) per replication and builds no n x n array.

Replications leave the block as they converge. Either body draws one
sequence whatever the piece size, so the outcomes depend only on the
generator's initial state; the generator may be left advanced past the
stopping step.
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
    "run_block",
    "run_consensus",
]

DEFAULT_TOL = 1e-10
DEFAULT_MAX_STEPS = 10**6

# Numbers per piece at most (128 KiB of doubles): a dense replication
# counts its n*n uniforms, a sparse one its state plus its expected edges.
# A piece holds one replication at least, so a block of any size holds no
# more uniforms, weights or edges than one piece needs.
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
    # Row sums by one matrix-vector product (exact: they are small
    # integers), and w * (1/s) equals w / s bit for bit as w is 0 or 1.
    w *= (1.0 / (w.reshape(-1, n) @ np.ones(n))).reshape(*w.shape[:-1], 1)
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


def _sparse_draws(p: float) -> bool:
    """Whether a block at edge probability p takes the sparse step body: p <= 0.15.

    Measured in block mode (128 replications up to n = 100, 40 above,
    ramp x0, one BLAS thread) over n = 5...400, the crossover depends on
    p, not n: the sparse body was faster at every n from 10 to 400 at
    p <= 0.15 (1.1-1.6x at p = 0.15, 1.2-2.7x at p = 0.1), the two were
    within 1.3x either way at p = 0.2, and the dense body won everywhere
    at p >= 0.25, by up to 4x, as most slots hold edges. (At n = 5 the
    dense body is about 5 % faster at every p.) The cut stays below
    p = 1/3, the range where the gap law matches numpy's geometric
    variates.
    """
    return p <= 0.15


def _edges(slots: int, p: float, pending: np.ndarray, rng: np.random.Generator):
    """Edge positions among the next `slots` slots of one Bernoulli(p) sequence.

    pending holds the positions drawn past the previous stretch, counted
    from its end (empty at the start of a sequence). The gaps between
    edges are Geometric(p) on 1, 2, ..., by the package's gap law
    ceil(E / -log1p(-p)) with E standard exponential: for p < 1/3 numpy's
    rng.geometric(p) inverts the same way, so the two agree bit for bit
    there. p = 1 draws nothing (every slot holds an edge), and gaps are
    capped at 2**62 before the int64 cast (at p = 1e-20 one is about
    1e20); no run reaches that far. Gaps are drawn in batches sized to
    cover the stretch.

    Returns the sorted positions in [0, slots) and the new pending, so
    the edges depend only on rng's initial state, not on how the sequence
    is cut into stretches.
    """
    pos, last = pending, int(pending[-1]) if pending.size else -1
    while last < slots:
        expected = (slots - last) * p
        # At least one gap, and only one at tiny p, where a capped gap is
        # near 2**62 and the sum of two such would overflow int64.
        m = math.ceil(expected + 4.0 * math.sqrt(expected))
        grown = np.empty(pos.size + m, dtype=np.int64)
        grown[: pos.size] = pos
        gaps = grown[pos.size :]
        if p == 1.0:
            gaps[:] = 1
        else:
            draws = rng.standard_exponential(m)
            np.divide(draws, -math.log1p(-p), out=draws)
            np.ceil(draws, out=draws)
            gaps[:] = np.minimum(draws, 2.0**62, out=draws)
        np.cumsum(gaps, out=gaps)
        gaps += last
        pos, last = grown, int(grown[-1])
    cut = np.searchsorted(pos, slots)
    return pos[:cut], pos[cut:] - slots


def _sparse_step(x: np.ndarray, out: np.ndarray, p: float, pending: np.ndarray, rng) -> np.ndarray:
    """One sparse step of the (A, n) states x into out; returns the new pending.

    The slots of row i of replication a are the n - 1 columns j != i, so
    slot position s of the piece is row s // (n - 1) = a n + i of the
    stacked (A n, n) adjacency and column s % (n - 1), with i skipped.
    (Integer division by a scalar is fast in numpy, remainders are not.)
    """
    rows, n = x.size, x.shape[1]
    pos, pending = _edges(rows * (n - 1), p, pending, rng)
    row = pos // (n - 1)
    col = pos - row * (n - 1)
    first = row // n * n  # row a n of the replication: the flat offset of its state
    col += col >= row - first
    col += first
    flat = x.reshape(-1)
    sums = np.bincount(row, flat[col], minlength=rows)
    np.multiply(flat + sums, 1.0 / (np.bincount(row, minlength=rows) + 1.0), out=out.reshape(-1))
    return pending


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
    that exhausts max_steps raises NonConvergenceError, carrying the steps
    and the last spread, rather than returning a truncated state.

    This is run_block with one replication, on the step body it picks for
    p. The dense body's outcome equals that of the loop that draws
    rng.random((n, n)) per step, and the sparse body's that of the loop
    that draws one gap at a time, bit for bit. Sparse gaps are drawn in
    batches, so rng may be left advanced past the stopping step: do not
    reuse it expecting the position of a per-step loop.
    """
    values, steps, spreads = run_block(params, x0, 1, rng, tol, max_steps)
    if np.isnan(values[0]):
        raise NonConvergenceError(
            f"spread {spreads[0]:.3e} still >= tol {tol:.1e} after {max_steps} steps",
            steps=int(steps[0]),
            spread=float(spreads[0]),
        )
    return ConsensusOutcome(value=float(values[0]), steps=int(steps[0]), spread=float(spreads[0]))


def run_block(
    params: ModelParams,
    x0,
    reps: int,
    rng: np.random.Generator,
    tol: float = DEFAULT_TOL,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run reps replications from x0 together on one generator.

    Returns (values, steps, spreads): replication r agreed on values[r]
    after steps[r] steps, the mean of the first state whose spread,
    spreads[r], is < tol. A replication still at spread >= tol after
    max_steps gets the value NaN, the step count max_steps and its last
    spread; a converged value is never NaN, since it lies in
    [min(x0), max(x0)].

    Each step takes the replications still active, in index order, in
    pieces of at most 2**14 numbers (one replication at least), through
    the body _sparse_draws(p) picks (see the module docstring):
    n*n uniforms per dense replication, or its state plus its expected
    edges per sparse one. Consecutive uniform draws give the numbers one
    draw would, and sparse gaps drawn past a piece carry into the next,
    so the piece size changes neither the stream nor any outcome. Then
    every replication whose spread fell below tol records its value, step
    and spread and leaves the block.
    """
    _check_budget(tol, "max_steps", max_steps)
    _check_int("reps", reps, 1)
    n, p = params.n, params.p
    x = _check_x0(x0, n)
    values = np.full(reps, np.nan)
    steps = np.full(reps, max_steps)
    spreads = np.full(reps, x.max() - x.min())
    if spreads[0] < tol:
        values[:], steps[:] = x.mean(), 0
        return values, steps, spreads
    sparse = _sparse_draws(p)
    size = n + math.ceil(p * n * (n - 1)) if sparse else n * n  # numbers per replication
    piece = max(1, _CHUNK_DOUBLES // size)
    pending = np.empty(0, dtype=np.int64)  # sparse edge positions past the last piece
    active = np.arange(reps)
    state = np.tile(x, (reps, 1))
    for step in range(1, max_steps + 1):
        new = np.empty_like(state)
        for a in range(0, active.size, piece):
            b = min(a + piece, active.size)
            if sparse:
                pending = _sparse_step(state[a:b], new[a:b], p, pending, rng)
            else:
                # One expression, so no piece's weights outlive its product.
                np.matmul(
                    _weights(rng.random((b - a, n, n)) < p), state[a:b, :, None], out=new[a:b, :, None]
                )
        spread = new.max(axis=1) - new.min(axis=1)
        done = spread < tol
        if done.any():
            values[active[done]] = new[done].mean(axis=1)
            steps[active[done]] = step
            spreads[active[done]] = spread[done]
            active, new, spread = active[~done], new[~done], spread[~done]
            if not active.size:
                break
        state = new
    spreads[active] = spread
    return values, steps, spreads
