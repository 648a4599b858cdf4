"""Averaging dynamics x(k) = W_k x(k-1) over freshly sampled graphs.

Each step draws a graph realization and has every node average its own
state with those of its d_i out-neighbors, w_ij = (a_ij + [i == j]) /
(d_i + 1); the self-loop keeps the normalizer positive for isolated
nodes, and a drawn diagonal is ignored. Row-stochasticity keeps every
state inside the convex hull of the previous ones, so the spread
max(x) - min(x) can only shrink.

The tolerance is relative: a run steps the centred state x0 - mean(x0)
and stops once its spread is below tol * spread(x0); the reported value
is the mean of that state plus mean(x0), so it lies within
tol * spread(x0) of every coordinate. Rows of W sum to 1, so centring
shifts every path, and the limit x*, by the same constant, and keeps the
states far from the float spacing of a large common offset. E[W] is
doubly stochastic, so the state mean is a bounded martingale: the
reported mean is an unbiased estimate of x* at any tol, and its variance
is below var(x*) by less than (tol * spread(x0))**2 (optional stopping;
Williams, "Probability with Martingales", 1991). DEFAULT_TOL = 1e-3
bounds that bias by 1e-6 spread(x0)**2, at most 0.32 % of a ramp
variance at c = 5 and n <= 50, and takes about half the steps of 1e-6.
An ensemble runs at a tighter tol where the closed form forecasts the
one asked for as too loose for the standard error of its variance
(montecarlo.run_ensemble).

run_block is the one engine: it steps a block of replications together
on one generator, and run_consensus is a block of one. Each step takes
the replications still active, in index order, in pieces of one
replication at least, through one of two step bodies, chosen once per
block by stream_layout(params). The body fixes how the graphs are drawn
from the generator, so its name is the stream layout:

- "dense-byte-gap-block": a piece holds up to _DENSE_SLOTS slots, n^2 per
  replication. The slots (i, j) of its replications, diagonal included,
  take one byte each of the generator's raw 64-bit words, least
  significant byte first. With t = floor(256 p), a slot is an edge when
  its byte is below t, or when it is a point of the remainder field, an
  independent Bernoulli(q) sequence over the same slots in the same
  order, q = (256 p - t) / (256 - t), so
  P(edge) = t/256 + (1 - t/256) q = p: a byte settles the first eight
  binary digits of p (Knuth & Yao, "The complexity of nonuniform random
  number generation", 1976), and the field, sparse at q < 1/(256 - t),
  settles the rest without reading every slot. Its points are the edges
  of the sparse body's gap law at q (below), drawn from the field
  generator default_rng(w), w the block generator's first raw word; the
  slot bytes start at the second. 256 p - t is exact, so P(edge) = p up
  to the rounding of q and of the gap law, which is the sparse body's
  own. When 256 p is an integer, q = 0 and the field generator is never
  read. The 0/1 slots go straight into a float A + I stack, and one
  batched product of A + I with [x, 1] gives each node's neighborhood
  sum s0 and size s1 = d + 1, so x <- s0 / s1, one divide. The A + I,
  [x, 1] and product stacks are one workspace per block, sized to one
  piece or the block, whichever holds fewer replications, and reused by
  every piece and step.
- "sparse-block": a piece holds up to _SPARSE_NUMBERS numbers, a
  replication counting its state plus its expected edges. The n(n - 1)
  edge slots (i, j), i != j, of a piece's replications, row after row,
  are the next stretch of one Bernoulli(p) sequence, whose edges are
  found by geometric gaps ceil(E / -log1p(-p)), E standard exponential
  (Batagelj & Brandes, Phys. Rev. E 71, 036113, 2005). The update
  x <- (x + bincount(rows, x[cols])) / (deg + 1) costs O(n + edges) per
  replication and builds no n x n array.

Either stream runs on over pieces and steps: slot bytes left in a
piece's last raw word, and edge or field points drawn past a piece,
carry into the next. So the piece size changes no outcome, and the
outcomes depend only on the generator's initial state: a dense run
equals the loop that takes n^2 slot bytes per step, adds the field's
points one gap at a time and applies the weights above, a sparse run
the loop that draws one gap at a time, bit for bit. Raw words and gaps
are drawn in batches, so the generators may be left advanced past the
stopping step: give every run a fresh one.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .graphs import ModelParams, _check_int, _check_real, _check_x0

__all__ = [
    "DEFAULT_MAX_STEPS",
    "DEFAULT_TOL",
    "ConsensusOutcome",
    "NonConvergenceError",
    "run_block",
    "run_consensus",
    "stream_layout",
]

DEFAULT_TOL = 1e-3
DEFAULT_MAX_STEPS = 10**6

# Piece budgets (see the module docstring): a block of any size holds no
# more slot bytes, adjacency or edges than one piece needs. A dense piece
# of 2**16 slots is 512 KiB of float A + I: against 2**14, a fig1 pass
# took 0.76x the time for +2 % peak RSS, and larger pieces gained nothing
# beyond the noise for 1-2 MiB more. 2**16 sparse numbers made the
# n = 100...400 ensembles 2.3x slower than 2**14.
_DENSE_SLOTS = 2**16
_SPARSE_NUMBERS = 2**14


class NonConvergenceError(RuntimeError):
    """The spread failed to drop below tol * spread(x0) within the step budget."""

    def __init__(self, message: str, steps: int | None = None, spread: float | None = None):
        super().__init__(message)
        self.steps = steps
        self.spread = spread


def _check_budget(tol: float, max_steps: int) -> None:
    """Reject an iteration budget that cannot work: tol a number in (0, 1) and normal, max_steps an integer >= 1.

    tol is relative to the spread of x0, so tol >= 1 would stop every run
    after one step. A subnormal tol makes tol * spread(x0) underflow to 0
    for most x0, and every replication would report mean(x0) at step 0.
    """
    if not sys.float_info.min <= _check_real("tol", tol) < 1.0:  # NaN fails both comparisons
        raise ValueError(
            f"tol must be finite and positive and < 1 (relative to the spread of x0), "
            f"not subnormal (< {sys.float_info.min}), got {tol}"
        )
    _check_int("max_steps", max_steps, 1)


def _stop_rule(tol: float, x0: np.ndarray) -> str:
    """The stopping threshold of a run from x0, relative and absolute, for error messages."""
    spread = float(x0.max() - x0.min())
    return f"tol {tol:.1e} x spread(x0) {spread:.3e} = {tol * spread:.3e}"


@dataclass(frozen=True)
class ConsensusOutcome:
    """End state of one run: agreed value, steps taken, final spread."""

    value: float
    steps: int
    spread: float


def stream_layout(params: ModelParams) -> str:
    """The step body of a block at params, "sparse-block" at p <= 0.09, else "dense-byte-gap-block".

    The name is the block's stream layout (see the module docstring).
    Measured in block mode (128 replications up to n = 100, 40 above,
    ramp x0, one BLAS thread) over n = 10...400, the crossover depends on
    p, not n: the sparse body was faster at every n at p <= 0.05 (by
    1.1-2.1x), the two were within 1.4x either way at p = 0.08, and the
    dense body was faster or even at p >= 0.1 at every n, by up to 3.8x
    at p = 0.2: it costs a few ns per slot, edge or not, and the sparse
    body pays per edge. The dense side was timed before the remainder
    field replaced its tie search, and the cut was not timed again. The
    cut stays below p = 1/3, the range where the gap law matches numpy's
    geometric variates.
    """
    return "sparse-block" if params.p <= 0.09 else "dense-byte-gap-block"


def _edges(slots: int, p: float, pending: np.ndarray, rng: np.random.Generator):
    """Edge positions among the next `slots` slots of one Bernoulli(p) sequence.

    pending holds the positions drawn past the previous stretch, counted
    from its end (empty at the start of a sequence). The gaps follow the
    law of the module docstring, which numpy's rng.geometric(p) also
    inverts for p < 1/3, so the two agree bit for bit there. p = 1 draws
    nothing (every slot holds an edge), and gaps are capped at 2**62
    before the int64 cast (at p = 1e-20 one is about 1e20); no run
    reaches that far. Gaps are drawn in batches sized to cover the
    stretch.

    Returns the sorted positions in [0, slots) and the new pending. The
    positions are a view that this function does not read again, so the
    caller may overwrite them.
    """
    if pending.size and pending[0] >= slots:  # no point falls in the stretch
        return pending[:0], pending - slots
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
    The flat state indices overwrite the positions, so a piece holds two
    edge-length index arrays and the gathered neighbor states.
    """
    rows, n = x.size, x.shape[1]
    col, pending = _edges(rows * (n - 1), p, pending, rng)
    row = col // (n - 1)
    col -= row * (n - 1)  # the column j, i skipped, in place of the position
    col += row // n * n  # plus the flat offset a n of the replication's state
    col += col >= row  # j + a n >= a n + i: step over the diagonal
    flat = x.reshape(-1)
    sums = np.bincount(row, flat[col], minlength=rows)
    np.multiply(flat + sums, 1.0 / (np.bincount(row, minlength=rows) + 1.0), out=out.reshape(-1))
    return pending


def _dense_workspace(size: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The dense body's arrays for pieces of up to `size` replications of n nodes.

    The float A + I stack (size, n, n), the [x, 1] stack (size, n, 2)
    with its ones column written here, once, and the product stack
    (size, n, 2). _dense_piece overwrites the rest on every piece.
    """
    xs = np.empty((size, n, 2))
    xs[..., 1] = 1.0
    return np.empty((size, n, n)), xs, np.empty((size, n, 2))


def _dense_piece(
    x: np.ndarray, out: np.ndarray, p: float, spare: np.ndarray, pending: np.ndarray, raw, field, work
) -> tuple[np.ndarray, np.ndarray]:
    """One dense step of the (A, n) states x into out, in the workspace work; returns the new (spare, pending).

    The slot bytes are the spare bytes left from the previous raw word
    (empty at the start), then those of the words raw(k) returns; the
    remainder field takes its positions from field, pending holding those
    drawn past the previous piece (see the module docstring). A holds at
    most the workspace's replications. Every row of a complete graph
    computes the same dot product, so p = 1 agrees in one step with
    spread exactly 0. x is not written.
    """
    a, n = x.shape
    adj, xs, sums = work
    if a != len(adj):
        adj, xs, sums = adj[:a], xs[:a], sums[:a]
    slots = a * n * n
    stream = raw(-(-(slots - spare.size) // 8)).astype("<u8", copy=False).view(np.uint8)
    if spare.size:
        stream = np.concatenate((spare, stream))
    flat = adj.reshape(slots)
    cut = math.floor(256.0 * p)
    np.less(stream[:slots], cut, out=flat, casting="unsafe")
    if 256.0 * p > cut:  # else q = 0, and the block's field generator goes unused
        edges, pending = _edges(slots, (256.0 * p - cut) / (256 - cut), pending, field)
        flat[edges] = 1.0
    flat.reshape(a, n * n)[:, :: n + 1] = 1.0
    np.copyto(xs[..., 0], x)
    np.matmul(adj, xs, out=sums)
    np.divide(sums[..., 0], sums[..., 1], out=out)
    return stream[slots:], pending


def run_consensus(
    params: ModelParams,
    x0,
    rng: np.random.Generator,
    tol: float = DEFAULT_TOL,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> ConsensusOutcome:
    """Iterate with an independent graph per step until the spread is < tol * spread(x0).

    The reported value is the mean of the final state, which is within
    tol * spread(x0) of every coordinate (see the module docstring for
    the centring). A run that exhausts max_steps raises
    NonConvergenceError, carrying the steps and the last spread, rather
    than returning a truncated state.

    This is run_block with one replication; rng may be left advanced
    past the stopping step (see the module docstring).
    """
    values, steps, spreads = run_block(params, x0, 1, rng, tol, max_steps)
    if np.isnan(values[0]):
        raise NonConvergenceError(
            f"spread {spreads[0]:.3e} still >= {_stop_rule(tol, _check_x0(x0, params.n))} after {max_steps} steps",
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
    after steps[r] steps, mean(x0) plus the mean of the first centred
    state whose spread, spreads[r], is < tol * spread(x0). A constant x0
    gives its value at step 0, and so does an x0 whose tol * spread(x0)
    underflows to 0 (a spread below about 5e-324 / tol): mean(x0),
    clipped to [min(x0), max(x0)]. A replication still at or above that
    threshold after max_steps gets the value NaN, the step count
    max_steps and its last spread; a converged value is never NaN, since
    it lies within tol * spread(x0) of every coordinate of a finite state.

    Each step takes the replications still active through the body
    stream_layout(params) names (see the module docstring); then every
    replication whose spread fell below the threshold records its value,
    step and spread and leaves the block. A dense block seeds its field
    generator from rng's first raw word and carries the field's points
    past a piece, as a sparse block carries its edges.
    """
    _check_budget(tol, max_steps)
    _check_int("reps", reps, 1)
    if not isinstance(rng, np.random.Generator):  # the step bodies draw from its methods and bit generator
        raise TypeError(f"rng must be a numpy.random.Generator, got {type(rng).__name__}")
    n, p = params.n, params.p
    x = _check_x0(x0, n)
    values = np.full(reps, np.nan)
    steps = np.full(reps, max_steps)
    spreads = np.full(reps, x.max() - x.min())
    centre, threshold = x.mean(), tol * spreads[0]
    if threshold == 0.0:  # no spread could fall below it
        values[:], steps[:] = min(max(centre, x.min()), x.max()), 0
        return values, steps, spreads
    sparse = stream_layout(params) == "sparse-block"
    pending = np.empty(0, dtype=np.int64)  # edge (or field) positions past the last piece
    if sparse:
        piece = max(1, _SPARSE_NUMBERS // (n + math.ceil(p * n * (n - 1))))
    else:
        piece = max(1, _DENSE_SLOTS // (n * n))
        raw = rng.bit_generator.random_raw
        field = np.random.default_rng(int(raw()))
        spare = np.empty(0, dtype=np.uint8)  # slot bytes left in the last raw word
        work = _dense_workspace(min(piece, reps), n)
    active = np.arange(reps)
    state = np.tile(x - centre, (reps, 1))
    for step in range(1, max_steps + 1):
        new = np.empty_like(state)
        for a in range(0, active.size, piece):
            b = a + piece
            if sparse:
                pending = _sparse_step(state[a:b], new[a:b], p, pending, rng)
            else:
                spare, pending = _dense_piece(state[a:b], new[a:b], p, spare, pending, raw, field, work)
        if len(new) > n:  # numpy reduces a short last axis row by row: put the long one innermost
            cols = new.T.copy()
            spread = cols.max(axis=0) - cols.min(axis=0)
        else:
            spread = new.max(axis=1) - new.min(axis=1)
        done = spread < threshold
        if done.any():
            values[active[done]] = new[done].mean(axis=1) + centre
            steps[active[done]] = step
            spreads[active[done]] = spread[done]
            active, new, spread = active[~done], new[~done], spread[~done]
            if not active.size:
                break
        state = new
    spreads[active] = spread
    return values, steps, spreads
