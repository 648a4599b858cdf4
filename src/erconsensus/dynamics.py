"""Averaging dynamics x(k) = W_k x(k-1) over freshly sampled graphs.

Each step draws a graph realization and has every node average its own
state with those of its d_i out-neighbors, w_ij = (a_ij + [i == j]) /
(d_i + 1); the self-loop keeps the normalizer positive for isolated
nodes, and a drawn diagonal is ignored. Row-stochasticity keeps every
state inside the convex hull of the previous ones, so the spread
max(x) - min(x) can only shrink.

The stop is relative. With S(x) = sum_i (x_i - mean x)**2, a run steps
the centred state x0 - mean(x0) and stops once sqrt(S(x)) < tol *
sqrt(S(x0)); norms are compared, since tol**2 underflows below about
1.5e-154. The reported value is the mean m of that state plus mean(x0),
and |x_i - m| <= sqrt(S(x)), so it lies within tol * sqrt(S(x0)) of
every coordinate. Rows of W sum to 1, so centring shifts every path, and
the limit x*, by the same constant, and keeps the states far from the
float spacing of a large common offset.

The stop needs no bias budget. E[W] is doubly stochastic, so the state
mean is a bounded martingale, and given the state at the stop tau the
rest of a run is a fresh run (optional stopping; Williams, "Probability
with Martingales", 1991). With the law var(x*) = phi S(x0), that gives
var(x*) = var(m_tau) + phi E[S_tau] = var(m_tau) / (1 - E[S_tau] / S(x0)),
which montecarlo.run_ensemble applies to the S_tau run_block returns.
Every S_tau < tol**2 S(x0), so the part that rests on the law's shape is
below tol**2, 1 % at DEFAULT_TOL = 0.1.

run_block is the one engine: it steps a block of replications together
on one generator, and a single run is a block of one. Each step takes
the replications still active, in index order, in pieces of one
replication at least, through one of two step bodies, chosen once per
block by stream_layout(params). The body fixes how the graphs are drawn
from the generator, so its name is the stream layout:

- "dense-word-gap-block": a piece holds up to _DENSE_SLOTS slots, n^2 per
  replication. Each replication takes ceil(n^2 / 8) fresh raw 64-bit
  words of the generator per step, and its slots (i, j), diagonal
  included, take the first n^2 of their bytes, least significant byte
  first; the rest of its last word goes unread. With t = floor(256 p),
  a slot is an edge when its byte is below t, or when it is a point of
  the remainder field, an independent Bernoulli(q) sequence over the
  same slots in the same order, q = (256 p - t) / (256 - t), so
  P(edge) = t/256 + (1 - t/256) q = p: a byte settles the first eight
  binary digits of p (Knuth & Yao, "The complexity of nonuniform random
  number generation", 1976), and the field, sparse at q < 1/(256 - t),
  settles the rest without reading every slot. Its points are the edges
  of the sparse body's gap law at q (below), drawn from the field
  generator default_rng(w), w the block generator's first raw word; the
  slot words start at the second. 256 p - t is exact, so P(edge) = p up
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

Edge or field points drawn past a piece carry into the next, and each
dense replication reads whole words of its own, so the piece size
changes no outcome: a dense run equals the loop that takes ceil(n^2 / 8)
raw words per replication and step, adds the field's points one gap at
a time and applies the weights above, a sparse run the loop that draws
one gap at a time, bit for bit, from the generator's initial state. Raw
words and gaps are drawn in batches, so the generators may be left
advanced past the stopping step: give every run a fresh one.
"""

from __future__ import annotations

import functools
import math
import sys

import numpy as np

from .graphs import _INT64_MAX, ModelParams, _check_int, _check_real, _check_x0

__all__ = [
    "DEFAULT_MAX_STEPS",
    "DEFAULT_TOL",
    "NonConvergenceError",
    "run_block",
    "stream_layout",
]

DEFAULT_TOL = 0.1
DEFAULT_MAX_STEPS = 10**6

# Piece budgets (see the module docstring): a block of any size holds no
# more slot bytes, adjacency or edges than one piece needs. A dense piece
# of 2**16 slots is 512 KiB of float A + I. Smaller dense pieces and a
# larger sparse budget made their ensembles slower; larger dense pieces
# cost memory for no time (BENCH_15.json piece_grid, sparse_budget_check).
_DENSE_SLOTS = 2**16
_SPARSE_NUMBERS = 2**14

# The remainder field's gaps are drawn in batches expected to cover this
# many pieces, so most dense pieces find their points already pending. The
# field generator feeds nothing else, so draws past the stop change no
# outcome. The sparse body draws per piece: its pending positions are
# rewritten on every piece, and a longer array would cost per edge.
_FIELD_AHEAD = 8


class NonConvergenceError(RuntimeError):
    """sqrt(S) stayed at or above tol * sqrt(S(x0)) for the whole step budget."""


def _check_budget(tol: float, max_steps: int) -> None:
    """Reject an iteration budget that cannot work: tol a number in (0, 1) and normal, max_steps an int64 >= 1.

    tol is relative to sqrt(S(x0)), the norm of x0 - mean(x0), so at
    tol >= 1 the stop would test no convergence. A subnormal tol makes
    tol * sqrt(S(x0)) underflow to 0 for most x0, and every replication
    would report mean(x0) at step 0.
    """
    if not sys.float_info.min <= _check_real("tol", tol) < 1.0:  # NaN fails both comparisons
        raise ValueError(
            f"tol must be finite and positive and < 1 (relative to the norm of x0 - mean(x0)), "
            f"not subnormal (< {sys.float_info.min}), got {tol}"
        )
    _check_int("max_steps", max_steps, 1, _INT64_MAX)


def _dispersion(x: np.ndarray) -> np.ndarray:
    """S = sum_i (x_i - mean x)**2 of each row of the 2-D states x.

    Each row is shifted by its first coordinate, so an agreed row gives
    exactly 0 and sum d**2 - (sum d)**2 / n cancels at the scale of the
    row's own spread, not of its mean. A row sum by matrix product and a
    row dot product by einsum are fast whichever axis is the longer; their
    bits are the stop's, so no other reduction may replace them. Finishing
    in place, into the sums, saved nothing and cost time at one row
    (CHANGES.md, "The Monte Carlo loop without its fixed costs").
    """
    d = x - x[:, :1]
    sums = d @ np.ones(x.shape[1])
    return np.einsum("ij,ij->i", d, d) - sums * sums / x.shape[1]


def _start(x0: np.ndarray) -> tuple[float, np.ndarray, float]:
    """mean(x0), the centred start (x0 - mean(x0))[None] of a run from x0 and its S, S(x0) (see the module docstring)."""
    centre = np.add.reduce(x0) / x0.size  # the bits of x0.mean()
    start = (x0 - centre)[None]
    return centre, start, _dispersion(start)[0]


def stream_layout(params: ModelParams) -> str:
    """The step body of a block at params, "sparse-block" at p <= 0.09, else "dense-word-gap-block".

    The name is the block's stream layout (see the module docstring). The
    dense body costs a few ns per slot, and the sparse body pays per edge;
    BENCH_25.json (body_cut) times the two either side of the cut. Their
    crossover lies between p = 0.05 and 0.08, but moving the cut changes
    the stream of the ensembles in between. The cut stays below p = 1/3,
    where the gap law matches numpy's geometric variates.
    """
    return "sparse-block" if params.p <= 0.09 else "dense-word-gap-block"


def _edges(slots: int, p: float, pending: np.ndarray, rng: np.random.Generator, ahead: int = 1):
    """Edge positions among the next `slots` slots of one Bernoulli(p) sequence.

    pending holds the positions drawn past the previous stretch, counted
    from its end (empty at the start of a sequence). The gaps follow the
    law of the module docstring, which numpy's rng.geometric(p) also
    inverts for p < 1/3, so the two agree bit for bit there. p = 1 draws
    nothing (every slot holds an edge), and gaps are capped at 2**62
    before the int64 cast (at p = 1e-20 one is about 1e20); no run
    reaches that far. Gaps are drawn in batches sized to cover `ahead`
    stretches of this length; the batch sizes change no position.

    Returns the sorted positions in [0, slots) and the new pending. The
    positions are a view that this function does not read again, so the
    caller may overwrite them.
    """
    if pending.size and pending[0] >= slots:  # no point falls in the stretch
        return pending[:0], pending - slots
    pos, last = pending, int(pending[-1]) if pending.size else -1
    while last < slots:
        expected = (ahead * slots - last) * p
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
    cut = pos.searchsorted(slots)
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


def _dense_piece(x: np.ndarray, out: np.ndarray, p: float, pending: np.ndarray, raw, field, work) -> np.ndarray:
    """One dense step of the (A, n) states x into out, in the workspace work; returns the new pending.

    Each replication takes ceil(n^2 / 8) fresh words from raw(k), its
    slot bytes the first n^2 of theirs; the remainder field takes its
    positions from field, pending holding those drawn past the previous
    piece (see the module docstring). A holds at most the workspace's
    replications. Every row of a complete graph computes the same dot
    product, so p = 1 agrees in one step with S exactly 0. x is not
    written.
    """
    a, n = x.shape
    adj, xs, sums = work
    if a != len(adj):
        adj, xs, sums = adj[:a], xs[:a], sums[:a]
    stream = raw(a * -(-n * n // 8)).astype("<u8", copy=False).view(np.uint8).reshape(a, -1)
    flat = adj.reshape(a, n * n)
    cut = math.floor(256.0 * p)
    np.less(stream[:, : n * n], cut, out=flat, casting="unsafe")
    if 256.0 * p > cut:  # else q = 0, and the block's field generator goes unused
        edges, pending = _edges(a * n * n, (256.0 * p - cut) / (256 - cut), pending, field, _FIELD_AHEAD)
        flat.reshape(-1)[edges] = 1.0
    flat[:, :: n + 1] = 1.0
    np.copyto(xs[..., 0], x)
    np.matmul(adj, xs, out=sums)
    np.divide(sums[..., 0], sums[..., 1], out=out)
    return pending


def run_block(
    params: ModelParams,
    x0,
    reps: int,
    rng: np.random.Generator,
    tol: float = DEFAULT_TOL,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run reps replications from x0 together on one generator.

    Returns (values, steps, dispersions): replication r agreed on
    values[r] after steps[r] steps, mean(x0) plus the mean of the first
    centred state whose S, dispersions[r], has sqrt(S) < tol * sqrt(S(x0))
    (see the module docstring). A constant x0 gives its value at step 0,
    and so does an x0 whose tol * sqrt(S(x0)) underflows to 0: mean(x0),
    clipped to [min(x0), max(x0)], with dispersion S(x0). A replication
    still at or above that threshold after max_steps gets the value NaN,
    the step count max_steps and its last S; a converged value is never
    NaN, since it lies within tol * sqrt(S(x0)) of every coordinate of a
    finite state.

    Each step takes the replications still active through the body
    stream_layout(params) names (see the module docstring), bound once
    per block and carrying only its gap positions from piece to piece;
    then every replication whose S fell below the threshold records its
    value, step and S and leaves the block. On the sparse body, k steps
    with no edge among their k A n(n - 1) slots (A replications active)
    are counted without a body call: each has W = I, and the gap
    positions move back by their slots, as the k body calls would move
    them, so tiny p fails at the budget in time that does not grow with it.

    The states live in two (reps, n) buffers per block: a step's body
    reads one and writes the other, and then the two swap, so a step
    allocates no state. When replications leave, the written buffer is
    cut to those still active and the other to the same length. A
    leaving value is np.add.reduce(row) / n, the bits of the row's mean.
    """
    _check_budget(tol, max_steps)
    _check_int("reps", reps, 1, _INT64_MAX)
    if not isinstance(rng, np.random.Generator):  # the step bodies draw from its methods and bit generator
        raise TypeError(f"rng must be a numpy.random.Generator, got {type(rng).__name__}")
    n, p = params.n, params.p
    x = _check_x0(x0, n)
    centre, start, dispersion0 = _start(x)
    values, steps, dispersions = np.full(reps, np.nan), np.full(reps, max_steps), np.full(reps, dispersion0)
    threshold = tol * math.sqrt(dispersion0)
    if threshold == 0.0:  # no norm could fall below it
        values[:], steps[:] = min(max(centre, x.min()), x.max()), 0
        return values, steps, dispersions
    sparse = stream_layout(params) == "sparse-block"
    if sparse:
        piece = max(1, _SPARSE_NUMBERS // (n + math.ceil(p * n * (n - 1))))
        body = functools.partial(_sparse_step, p=p, rng=rng)
    else:
        piece = max(1, _DENSE_SLOTS // (n * n))
        raw = rng.bit_generator.random_raw
        field = np.random.default_rng(int(raw()))
        body = functools.partial(_dense_piece, p=p, raw=raw, field=field, work=_dense_workspace(min(piece, reps), n))
    pending = np.empty(0, dtype=np.int64)  # edge (or field) positions past the last piece
    active = np.arange(reps)
    state, new = np.empty((reps, n)), np.empty((reps, n))
    state[:] = start
    step = 0  # steps taken
    while step < max_steps:
        slots = active.size * n * (n - 1)
        if sparse and pending.size and pending[0] >= slots:
            # The next pending[0] // slots steps draw no edge: each has W = I
            # and leaves every state, S and the active set as they are.
            # pending starts empty, so step 1 is taken and dispersion is bound.
            skip = min(int(pending[0]) // slots, max_steps - step)
            step += skip
            pending = pending - skip * slots
            continue
        step += 1
        for a in range(0, active.size, piece):
            pending = body(state[a : a + piece], new[a : a + piece], pending=pending)
        dispersion = _dispersion(new)
        done = np.sqrt(dispersion) < threshold
        left = np.count_nonzero(done)
        if left:
            gone = active[done]
            values[gone] = np.add.reduce(new[done], axis=1) / n + centre  # the bits of new[done].mean(axis=1)
            steps[gone] = step
            dispersions[gone] = dispersion[done]
            if left == active.size:
                return values, steps, dispersions
            stay = ~done
            active, dispersion = active[stay], dispersion[stay]
            new, state = new[stay], state[: active.size]
        state, new = new, state
    dispersions[active] = dispersion
    return values, steps, dispersions
