"""Averaging dynamics x(k) = W_k x(k-1) over freshly sampled graphs.

Each step draws a graph realization, turns it into a row-stochastic
weight matrix (every node averages itself with its out-neighbors) and
applies it to the state. Row-stochasticity keeps every state inside the
convex hull of the previous ones, so the spread max(x) - min(x) can only
shrink; a run stops once it drops below tolerance.

Steps are drawn in chunks whose length the contraction seen so far
predicts, by one of two bodies chosen once per run from (n, p):

- dense: one rng.random((k, n, n)) call and one weight build for k
  steps. The generator yields the same uniforms as one call per step,
  so every outcome is bit-identical to the step-by-step loop.
- sparse (n > 50 and p <= 0.1): the n(n-1) edge slots of successive
  steps form one Bernoulli(p) sequence, whose edges are found by
  geometric gap skipping (Batagelj & Brandes, Phys. Rev. E 71, 036113,
  2005); a step costs O(n + edges) and builds no n x n array. Gaps
  drawn past a chunk's end carry into the next chunk, so the outcome
  depends only on the generator's initial state.

Either way the generator may be left advanced past the stopping step.
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
# Numbers per chunk at most (128 KiB of doubles): from n = 91 on a dense
# chunk is a single step, so large runs hold no more memory than one step
# needs. A sparse step counts its state plus its expected edges.
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


def _sparse_draws(n: int, p: float) -> bool:
    """Whether a run at (n, p) takes the sparse step body: n > 50 and p <= 0.1.

    Set from step times measured over n = 30, 50, 70, 100, 200, 400 and
    p = 5/n, 0.05, 0.1, 0.25, 1 (one BLAS thread). From n = 70 on the
    sparse step was faster at every p <= 0.1 (1.1-1.5x at p = 0.1, 2.3x at
    p = 5/n and n = 100, 11x at n = 400) and slower at every p >= 0.25,
    where most slots hold edges. Sizes up to 50 stay dense whatever p,
    so the criterion-6 sweep (c = 5, n = 5...50) keeps the stream of the
    one-draw-per-step loop; there the two bodies are a few microseconds
    apart either way.
    """
    return n > 50 and p <= 0.1


def _dense_steps(x: np.ndarray, k: int, n: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Dense step body: k steps from rng.random((k, n, n)); returns their (k, n) path."""
    # n*n uniforms per step; the diagonal draws are discarded by _weights.
    w = _weights(rng.random((k, n, n)) < p)
    path = np.empty((k, n))
    for t in range(k):
        x = np.matmul(w[t], x, out=path[t])
    return path


def _edge_draws(n: int, p: float, rng: np.random.Generator):
    """Edge sampler of successive G(n, p) steps by geometric gap skipping.

    draw(k) returns the edges of the next k steps as arrays (row, i, j),
    sorted by row = t n + i, with t the step within the chunk: entry e is
    the edge i -> j (i != j) of step t, so row indexes a stacked (k n, n)
    adjacency. Step t's slot s = i(n-1) + j' (j' the column j with i
    skipped) sits at position t n(n-1) + s = (t n + i)(n-1) + j' of one
    Bernoulli(p) sequence. Gaps between its edges are Geometric(p), drawn
    in batches sized to cover the chunk; the positions drawn beyond it
    stay pending for the next, so the edges depend only on rng's initial
    state and not on how the steps are split into chunks.
    """
    slots = n * (n - 1)
    pending = np.empty(0, dtype=np.int64)  # edge positions past the last chunk, from its end

    def draw(k: int):
        nonlocal pending
        end = k * slots
        found = [pending]
        last = int(pending[-1]) if pending.size else -1
        while last < end:
            expected = (end - last) * p
            # At least one gap, and only one at tiny p: numpy saturates a gap
            # at 2**63 - 1, and the sum of two such would overflow int64.
            gaps = rng.geometric(p, math.ceil(expected + 4.0 * math.sqrt(expected)))
            positions = np.cumsum(gaps, out=gaps)
            positions += last
            found.append(positions)
            last = int(positions[-1])
        pos = np.concatenate(found)
        cut = np.searchsorted(pos, end)
        pending = pos[cut:] - end
        row, j = np.divmod(pos[:cut], n - 1)
        i = row % n
        j += j >= i
        return row, i, j

    return draw


def _sparse_steps(x: np.ndarray, k: int, n: int, p: float, draw) -> np.ndarray:
    """Sparse step body: k steps over the edges draw(k) returns; their (k, n) path.

    Each step is x <- (x + bincount(i, x[j])) / (deg + 1), touching only
    the edges drawn. p is already in draw (see _edge_draws).
    """
    row, i, j = draw(k)
    inv = 1.0 / (np.bincount(row, minlength=k * n).reshape(k, n) + 1.0)
    bounds = np.searchsorted(row, np.arange(0, (k + 1) * n, n))
    path = np.empty((k, n))
    for t in range(k):
        a, b = bounds[t], bounds[t + 1]
        x = np.multiply(x + np.bincount(i[a:b], x[j[a:b]], minlength=n), inv[t], out=path[t])
    return path


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

    Steps are drawn in chunks: the first chunk is 8 steps, each later one
    the number of steps the contraction rate seen so far says remain,
    and no chunk holds more than 2**14 numbers (one step at least) or
    runs past max_steps. The step body is chosen once per run:

    - dense (n <= 50 or p > 0.1): rng.random((k, n, n)) for k steps.
      Those are exactly the uniforms k separate (n, n) draws would give,
      so the outcome equals that of the one-draw-per-step loop, bit for
      bit.
    - sparse (n > 50 and p <= 0.1): the edges of k steps from geometric
      gaps over their k n(n-1) slots, and the update
      x <- (x + bincount(rows, x[cols])) / (deg + 1), in O(n + edges)
      per step. Gaps drawn past a chunk carry into the next, so the
      outcome depends only on rng's initial state, not on the chunking.

    The draws of the final chunk that fall after the stopping step are
    discarded: rng is left advanced past it, so do not reuse rng
    expecting the position of a per-step loop.
    """
    _check_budget(tol, "max_steps", max_steps)
    n, p = params.n, params.p
    x = _check_x0(x0, n)
    # The body, what it draws from, and the numbers one of its steps holds.
    if _sparse_draws(n, p):
        body, source, step_size = _sparse_steps, _edge_draws(n, p, rng), n + math.ceil(p * n * (n - 1))
    else:
        body, source, step_size = _dense_steps, rng, n * n
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
        k = max(1, min(k, max_steps - steps, _CHUNK_DOUBLES // step_size))
        path = body(x, k, n, p, source)
        spreads = path.max(axis=1) - path.min(axis=1)
        hits = np.flatnonzero(spreads < tol)
        if hits.size:
            j = hits[0]
            return ConsensusOutcome(
                value=float(path[j].mean()), steps=steps + int(j) + 1, spread=float(spreads[j])
            )
        x = path[-1]
        steps += k
        before, spread = spread, float(spreads[-1])
        # Per-step rate from this chunk's contraction; predict the steps left.
        drop = math.log(before) - math.log(spread)
        if drop > 0.0:
            k = math.ceil((math.log(spread) - math.log(tol)) * k / drop)
    return ConsensusOutcome(value=float(x.mean()), steps=steps, spread=spread)
