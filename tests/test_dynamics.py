import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from erconsensus import dynamics
from erconsensus.dynamics import (
    ConsensusOutcome,
    NonConvergenceError,
    _dense_piece,
    _dense_workspace,
    _edges,
    run_block,
    run_consensus,
    stream_layout,
)
from erconsensus.graphs import GraphSeed, ModelParams

# The first chunk of the old chunked run_consensus; the stops and budgets
# around it stay as boundary cases of the per-step engine.
FIRST_CHUNK = 8

DENSE, SPARSE = "dense-byte-gap-block", "sparse-block"


def _named(cases):
    """{id: values} for value tuples, each named as pytest names it: its values joined by '-'."""
    return {"-".join(map(str, case)): case for case in cases}


def _bodies(dense, sparse=None):
    """Parameters (body, *values) of one test over both step bodies, from {id: values} per body.

    A dense case is named by its id alone, as p > 0.09 picks the dense
    body anyway; a sparse case is named 'sparse-' + its id. sparse
    defaults to the dense cases.
    """
    sparse = dense if sparse is None else sparse
    return [pytest.param(DENSE, *values, id=key) for key, values in dense.items()] + [
        pytest.param(SPARSE, *values, id=f"sparse-{key}") for key, values in sparse.items()
    ]


def _dense_literal(n, p, rng):
    """The dense body spelled out one replication at a time: returns step(x), the next W x in stream order.

    The field generator is seeded by rng's first raw word. Each call takes
    the next n*n slot bytes from rng's raw 64-bit words, one word at a
    time, byte k of a word being (word >> 8k) & 255 for k = 0, ..., 7. A
    slot is an edge when its byte is below t = floor(256 p), or when it
    holds a point of the remainder field: the slots of successive calls,
    n*n each, form one Bernoulli(q) sequence, q = (256 p - t) / (256 - t),
    whose next point is found by adding one gap to the last, drawn from
    the field generator by the gap law ceil(E / -log1p(-q)), E standard
    exponential. At q = 0 the field generator is never read.
    Then x <- W x with w_ij = (a_ij + [i == j]) / (d_i + 1), a drawn
    diagonal ignored. The neighborhood sums come from the product
    (A + I) [x, 1], the BLAS call the package makes: another summation
    order would round differently. The normalizer is the literal s0 / (d + 1).
    """
    field = np.random.default_rng(int(rng.bit_generator.random_raw()))
    cut = math.floor(256 * p)
    q = (256 * p - cut) / (256 - cut) if 256 * p > cut else 0.0
    spare = []

    def gap():
        return math.ceil(field.standard_exponential() / -math.log1p(-q))

    point = gap() - 1 if q else math.inf  # the next field point, counted from the first slot of the next call

    def step(x):
        nonlocal spare, point
        while len(spare) < n * n:
            word = int(rng.bit_generator.random_raw())
            spare += [word >> (8 * k) & 0xFF for k in range(8)]
        slot_bytes, spare = spare[: n * n], spare[n * n :]
        adj = np.array([b < cut for b in slot_bytes], dtype=float)
        while point < n * n:
            adj[point] = 1.0
            point += gap()
        point -= n * n
        adj = adj.reshape(n, n)
        np.fill_diagonal(adj, 0.0)
        sums = (adj + np.eye(n)) @ np.column_stack((x, np.ones(n)))
        return sums[:, 0] / (adj.sum(axis=1) + 1.0)

    return step


def _sparse_literal(n, p, rng):
    """The sparse body spelled out one replication at a time: returns step(x), the next W x in stream order.

    The edge slots (i, j), i != j, of successive calls form one
    Bernoulli(p) sequence, call after call and row after row; the next
    edge is found by adding one gap to the last, drawn by the package's
    gap law ceil(E / -log1p(-p)), E standard exponential (at p = 1 every
    gap is 1 and nothing is drawn). Then x <- (x + neighbor sums) / (d + 1).
    """
    slots = n * (n - 1)

    def gap():
        return 1 if p == 1.0 else math.ceil(rng.standard_exponential() / -math.log1p(-p))

    edge = gap() - 1  # the next edge, counted from the first slot of the next call

    def step(x):
        nonlocal edge
        rows, cols = [], []
        while edge < slots:
            i, j = divmod(edge, n - 1)
            rows.append(i)
            cols.append(j + (j >= i))
            edge += gap()
        edge -= slots
        rows, cols = np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp)
        return (x + np.bincount(rows, x[cols], minlength=n)) * (1.0 / (np.bincount(rows, minlength=n) + 1.0))

    return step


def _reference_block(params, x0, reps, rng, tol=1e-6, max_steps=10**6):
    """run_block spelled out the long way, on the step body dynamics.stream_layout(params) names.

    A constant x0, or one whose tol * spread(x0) underflows to 0, gives
    mean(x0) clipped to its hull at step 0. Otherwise the replications
    step the centred state x0 - mean(x0): each step, the active ones in
    index order take their graphs one after another from the body's
    literal stream and apply the literal update, with no pieces and no
    workspace, and each whose spread is below tol * spread(x0) leaves with
    the mean of its state plus mean(x0). Returns run_block's
    (values, steps, spreads).
    """
    x0 = np.asarray(x0, dtype=float)
    spread0 = x0.max() - x0.min()
    values, steps, spreads = np.full(reps, np.nan), np.full(reps, max_steps), np.full(reps, spread0)
    centre = x0.mean()
    if tol * spread0 == 0.0:
        values[:], steps[:] = np.clip(centre, x0.min(), x0.max()), 0
        return values, steps, spreads
    x = np.tile(x0 - centre, (reps, 1))
    literal = _sparse_literal if dynamics.stream_layout(params) == SPARSE else _dense_literal
    step_one = literal(params.n, params.p, rng)
    active = np.arange(reps)
    for step in range(1, max_steps + 1):
        x = np.array([step_one(state) for state in x])
        spread = x.max(axis=1) - x.min(axis=1)
        spreads[active] = spread
        done = spread < tol * spread0
        values[active[done]] = x[done].mean(axis=1) + centre
        steps[active[done]] = step
        active, x = active[~done], x[~done]
        if not active.size:
            break
    return values, steps, spreads


def _reference_run(params, x0, rng, tol=1e-6, max_steps=10**6):
    """run_consensus spelled out: _reference_block with one replication, raising as run_consensus does."""
    values, steps, spreads = _reference_block(params, x0, 1, rng, tol, max_steps)
    if np.isnan(values[0]):
        raise NonConvergenceError("reference run did not converge", steps=int(steps[0]), spread=float(spreads[0]))
    return ConsensusOutcome(value=float(values[0]), steps=int(steps[0]), spread=float(spreads[0]))


def _weights(dense_update, adj):
    """The weights the dense piece applies to the 0/1 adjacency stack adj, read back a column at a time: W e_j."""
    adj = np.asarray(adj)
    n = adj.shape[-1]
    return np.stack([dense_update(adj, np.broadcast_to(e, adj.shape[:-1])) for e in np.eye(n)], axis=-1)


class TestWeightMatrix:
    """The row-stochastic weights of the dense update, read back through the package's dense piece."""

    def test_empty_graph_is_identity(self, dense_update):
        w = _weights(dense_update, np.zeros((3, 3), dtype=bool))
        assert np.array_equal(w, np.eye(3))

    def test_complete_two_node(self, dense_update):
        w = _weights(dense_update, [[0, 1], [1, 0]])
        assert np.array_equal(w, [[0.5, 0.5], [0.5, 0.5]])

    def test_single_edge(self, dense_update):
        w = _weights(dense_update, [[0, 1], [0, 0]])
        assert np.array_equal(w, [[0.5, 0.5], [0.0, 1.0]])

    @pytest.mark.parametrize("p", [0.2, 0.7, 1.0])
    def test_rows_stochastic_and_diagonal(self, dense_update, p):
        n = 9
        adj = GraphSeed(42).generator().random((20, n, n)) < p
        w = _weights(dense_update, adj)
        assert np.max(np.abs(w.sum(axis=-1) - 1.0)) < 1e-12
        assert np.all(w >= 0.0)
        off_diagonal_degrees = adj.sum(axis=-1) - np.diagonal(adj, axis1=-2, axis2=-1)
        expected_diag = 1.0 / (off_diagonal_degrees + 1.0)
        assert np.array_equal(np.diagonal(w, axis1=-2, axis2=-1), expected_diag)
        assert np.all(np.diagonal(w, axis1=-2, axis2=-1) >= 1.0 / n)

    def test_batch_matches_one_at_a_time(self, dense_update, all_graphs):
        adj = np.array([graph for graph, _ in all_graphs(3)])
        batch = _weights(dense_update, adj)
        for k in range(64):
            assert np.array_equal(batch[k], _weights(dense_update, adj[k]))

    def test_input_is_not_written(self):
        # The piece writes its workspace and out, never the states it reads.
        rng = GraphSeed(6).generator()
        x = rng.random((4, 5))
        before = x.copy()
        out = np.empty_like(x)
        no_spare, no_pending = np.empty(0, dtype=np.uint8), np.empty(0, dtype=np.int64)
        field = np.random.default_rng(0)
        _dense_piece(x, out, 0.4, no_spare, no_pending, rng.bit_generator.random_raw, field, _dense_workspace(4, 5))
        assert np.array_equal(x, before)
        assert not np.array_equal(out, before)


class TestStep:
    """One update x -> W x by the package's dense piece."""

    def test_identity(self, dense_update):
        x = np.array([3.0, -1.0, 2.0])
        assert np.array_equal(dense_update(np.zeros((3, 3)), x), x)

    def test_ones_fixed_point(self, dense_update):
        out = dense_update([[0, 1, 0], [1, 0, 1], [0, 0, 0]], np.ones(3))
        assert np.max(np.abs(out - 1.0)) < 1e-15

    def test_hand_example(self, dense_update):
        out = dense_update([[0, 1], [0, 0]], np.array([0.0, 1.0]))
        assert np.array_equal(out, [0.5, 1.0])

    def test_dimension_mismatch(self):
        # States wider than the workspace, or more replications than it holds, are refused.
        work = _dense_workspace(2, 3)
        for shape in [(2, 4), (3, 3), (1, 2)]:
            rng = GraphSeed(0).generator()
            with pytest.raises(ValueError):
                _dense_piece(
                    np.zeros(shape), np.empty(shape), 0.5, np.empty(0, dtype=np.uint8), np.empty(0, dtype=np.int64),
                    rng.bit_generator.random_raw, rng, work,
                )

    def test_workspace_reuse_leaves_no_trace(self, dense_update):
        # Every piece in one workspace equals the same piece in a fresh one: full, short, then full again.
        n, p = 7, 0.35
        rng = GraphSeed(12).generator()
        raw, field = rng.bit_generator.random_raw, np.random.default_rng(int(rng.bit_generator.random_raw()))
        fresh = GraphSeed(12).generator()
        fresh_raw, fresh_field = fresh.bit_generator.random_raw, np.random.default_rng(int(fresh.bit_generator.random_raw()))
        work = _dense_workspace(5, n)
        spare = fresh_spare = np.empty(0, dtype=np.uint8)
        pending = fresh_pending = np.empty(0, dtype=np.int64)
        for reps in (5, 2, 5, 1, 5):
            x = GraphSeed(reps).generator().random((reps, n))
            reused, alone = np.empty_like(x), np.empty_like(x)
            spare, pending = _dense_piece(x, reused, p, spare, pending, raw, field, work)
            fresh_spare, fresh_pending = _dense_piece(
                x, alone, p, fresh_spare, fresh_pending, fresh_raw, fresh_field, _dense_workspace(reps, n)
            )
            assert np.array_equal(reused, alone)
            assert np.array_equal(spare, fresh_spare)
            assert np.array_equal(pending, fresh_pending)

    @pytest.mark.parametrize("p", [0.25, 5 / 8, 5 / 40, 1.0])
    def test_no_tie_draw_when_256p_is_an_integer(self, p):
        # The remainder 256 p - floor(256 p) is 0, so the field is empty: the field generator is never read.
        class Unread:
            def __getattr__(self, name):
                raise AssertionError("field generator read")

        n, a = 20, 40
        rng, fresh = GraphSeed(8).generator(), GraphSeed(8).generator()
        x = GraphSeed(9).generator().random((a, n))
        out, reference = np.empty_like(x), np.empty_like(x)
        no_spare, no_pending = np.empty(0, dtype=np.uint8), np.empty(0, dtype=np.int64)
        raw, work = rng.bit_generator.random_raw, _dense_workspace(a, n)
        _, pending = _dense_piece(x, out, p, no_spare, no_pending, raw, Unread(), work)
        field = np.random.default_rng(0)
        _dense_piece(x, reference, p, no_spare, no_pending, fresh.bit_generator.random_raw, field, _dense_workspace(a, n))
        assert np.array_equal(out, reference)
        assert pending.size == 0

    @given(
        mask=st.integers(min_value=0, max_value=2**12 - 1),
        x=st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            min_size=4,
            max_size=4,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_convexity(self, dense_update, mask, x):
        adj = np.zeros((4, 4))
        adj[~np.eye(4, dtype=bool)] = [mask >> bit & 1 for bit in range(12)]
        x = np.array(x)
        out = dense_update(adj, x)
        slack = 1e-12 * (1.0 + np.max(np.abs(x)))
        assert np.all(out >= x.min() - slack)
        assert np.all(out <= x.max() + slack)


class TestRunConsensus:
    def test_constant_x0_terminates_immediately(self):
        out = run_consensus(ModelParams(4, 0.5), np.full(4, 2.5), GraphSeed(1).generator())
        assert out == ConsensusOutcome(value=2.5, steps=0, spread=0.0)

    def test_complete_graph_averages_in_one_step(self):
        x0 = np.array([0.1, 0.9, 0.4, 0.6, 0.2])
        out = run_consensus(ModelParams(5, 1.0), x0, GraphSeed(3).generator())
        assert out.steps == 1
        assert out.spread == 0.0
        assert abs(out.value - x0.mean()) < 1e-12

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_value_in_convex_hull(self, seed):
        x0 = np.array([-1.0, 4.0, 0.5, 2.0])
        out = run_consensus(ModelParams(4, 0.4), x0, GraphSeed(seed).generator(), tol=1e-10 / np.ptp(x0))
        assert x0.min() <= out.value <= x0.max()
        assert out.spread < 1e-10

    def test_spread_non_increasing_along_path(self):
        n, p = 6, 0.3
        rng = GraphSeed(17).generator()
        raw = rng.bit_generator.random_raw
        field, work = np.random.default_rng(int(raw())), _dense_workspace(1, n)
        spare, pending = np.empty(0, dtype=np.uint8), np.empty(0, dtype=np.int64)
        x = np.array([[0.0, 1.0, 0.2, 0.8, 0.5, 0.3]])
        spread = np.ptp(x)
        for _ in range(40):
            new = np.empty_like(x)
            spare, pending = _dense_piece(x, new, p, spare, pending, raw, field, work)
            x = new
            new_spread = np.ptp(x)
            assert new_spread <= spread + 1e-12 * (1.0 + spread)
            spread = new_spread

    @pytest.mark.parametrize("seed", [0, 8, 31])
    @pytest.mark.parametrize("n,p", [(2, 0.5), (6, 0.3), (20, 0.25)])
    def test_matches_reference_loop(self, n, p, seed):
        params = ModelParams(n, p)
        x0 = np.linspace(-1.0, 2.0, n) ** 2
        fast = run_consensus(params, x0, GraphSeed(seed).generator(), tol=1e-6)
        reference = _reference_run(params, x0, GraphSeed(seed).generator())
        assert fast == reference
        assert fast.steps > 0

    def test_any_bit_generator(self):
        # The dense body reads raw words only, so a bit generator without jumped serves too.
        params, x0 = ModelParams(6, 0.5), _ramp(6)
        fast = run_consensus(params, x0, np.random.Generator(np.random.SFC64(3)), tol=1e-6)
        assert fast == _reference_run(params, x0, np.random.Generator(np.random.SFC64(3)))

    def test_non_convergence_raises_distinctly(self):
        with pytest.raises(NonConvergenceError) as info:
            run_consensus(
                ModelParams(20, 0.1),
                np.arange(20.0),
                GraphSeed(9).generator(),
                tol=1e-300,
                max_steps=5,
            )
        assert info.value.steps == 5
        assert info.value.spread > 0.0

    def test_validates_inputs(self):
        params = ModelParams(3, 0.5)
        rng = GraphSeed(0).generator()
        with pytest.raises(ValueError):
            run_consensus(params, np.zeros(3), rng, tol=0.0)
        with pytest.raises(ValueError):
            run_consensus(params, np.zeros(3), rng, max_steps=0)
        with pytest.raises(ValueError):
            run_consensus(params, np.zeros(4), rng)
        for bad, name in [(np.random.RandomState(0), "RandomState"), (None, "NoneType"), (3, "int")]:
            with pytest.raises(TypeError, match=f"^rng must be a numpy.random.Generator, got {name}$"):
                run_consensus(params, np.zeros(3), bad)

    @pytest.mark.parametrize("max_steps", [2.5, 3.0, True])
    def test_rejects_non_integer_max_steps(self, max_steps):
        with pytest.raises(TypeError, match="^max_steps must be an integer"):
            run_consensus(ModelParams(3, 0.5), np.arange(3.0), GraphSeed(0).generator(), max_steps=max_steps)

    def test_accepts_numpy_integer_max_steps(self):
        out = run_consensus(ModelParams(3, 1.0), np.arange(3.0), GraphSeed(0).generator(), max_steps=np.int64(1))
        assert out.steps == 1

    @pytest.mark.parametrize("tol", [np.nan, np.inf])
    def test_rejects_non_finite_tol(self, tol):
        with pytest.raises(ValueError, match="tol"):
            run_consensus(ModelParams(3, 0.5), np.arange(3.0), GraphSeed(0).generator(), tol=tol)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_x0(self, bad):
        with pytest.raises(ValueError, match="finite"):
            run_consensus(ModelParams(2, 0.5), [bad, 1.0], GraphSeed(0).generator())


class TestRunBlock:
    @pytest.mark.parametrize(
        "body,n,p,reps,cap",
        _bodies(
            {key: (*case, None) for key, case in _named([(2, 0.5, 7), (6, 5 / 6, 40), (50, 0.2, 30)]).items()},
            {key: (*case, None) for key, case in _named([(2, 0.5, 7), (6, 5 / 6, 40), (20, 0.05, 9)]).items()}
            | {"12-0.08-25-cap-100": (12, 0.08, 25, 100)},
        ),
    )
    def test_matches_reference_loop(self, on_body, monkeypatch, body, n, p, reps, cap):
        # Dense: at n = 50 a step of 30 replications is drawn in two pieces, 26 and 4.
        # Sparse: a budget of 100 numbers at n = 12, p = 0.08 holds 100 // (12 + 11) = 4
        # replications, so a step of 25 is drawn in seven pieces.
        on_body(body)
        if cap is not None:
            monkeypatch.setattr(dynamics, "_SPARSE_NUMBERS", cap)
        params = ModelParams(n, p)
        values, steps, spreads = run_block(params, _ramp(n), reps, GraphSeed(4).generator(), tol=1e-6)
        ref_values, ref_steps, ref_spreads = _reference_block(params, _ramp(n), reps, GraphSeed(4).generator())
        assert np.array_equal(values, ref_values)
        assert np.array_equal(steps, ref_steps)
        assert np.array_equal(spreads, ref_spreads)
        assert np.all(steps > 0)
        assert len(set(steps)) > 1  # replications left at different steps

    @pytest.mark.parametrize(
        "body,n,p,cap",
        _bodies({str(cap): (8, 0.4, cap) for cap in (1, 100, 3 * 64 + 5)},
                {str(cap): (200, 0.025, cap) for cap in (1, 100, 3 * 64 + 5)}),
    )
    def test_piece_cap_does_not_change_outcomes(self, monkeypatch, body, n, p, cap):
        # 37 replications at n = 200 fill three sparse pieces of the default budget.
        params, x0 = ModelParams(n, p), _ramp(n)
        assert stream_layout(params) == body
        default = run_block(params, x0, 37, GraphSeed(5).generator())
        monkeypatch.setattr(dynamics, {DENSE: "_DENSE_SLOTS", SPARSE: "_SPARSE_NUMBERS"}[body], cap)
        patched = run_block(params, x0, 37, GraphSeed(5).generator())
        for ours, theirs in zip(default, patched):
            assert np.array_equal(ours, theirs)

    def test_short_pieces_in_a_shrinking_block(self, monkeypatch):
        # 37 replications at n = 50 in pieces of 13/13/11 (26/11 by default): the
        # last piece is short, and the active set later shrinks below the workspace.
        params, x0 = ModelParams(50, 0.2), _ramp(50)
        default = run_block(params, x0, 37, GraphSeed(5).generator())
        monkeypatch.setattr(dynamics, "_DENSE_SLOTS", 13 * 50 * 50)
        patched = run_block(params, x0, 37, GraphSeed(5).generator())
        for ours, theirs in zip(default, patched):
            assert np.array_equal(ours, theirs)
        assert len(set(default[1])) > 1  # replications left at different steps

    @pytest.mark.parametrize(
        "n,p", [pytest.param(n, p, id=str(n)) for n, p in [(6, 5 / 6), (20, 0.25), (50, 0.1), (60, 5 / 60), (200, 0.025)]]
    )
    def test_one_replication_is_run_consensus(self, n, p):
        for seed in range(10):
            values, steps, spreads = run_block(ModelParams(n, p), _ramp(n), 1, GraphSeed(seed).generator())
            outcome = run_consensus(ModelParams(n, p), _ramp(n), GraphSeed(seed).generator())
            assert outcome == ConsensusOutcome(value=values[0], steps=steps[0], spread=spreads[0])

    def test_dense_pieces_respect_the_cap(self):
        rng = _RecordingGenerator(GraphSeed(4).generator())
        run_block(ModelParams(50, 0.2), _ramp(50), 30, rng)
        # One word seeds the field generator; then 2**16 // 50**2 = 26 replications
        # per piece: 65000 slot bytes, 8125 raw words, and the other 4 in 1250.
        assert max(rng.words) <= 8125
        assert rng.words[:4] == [1, 8125, 1250, 8125]

    def test_constant_x0_draws_nothing(self):
        values, steps, _ = run_block(ModelParams(4, 0.5), np.full(4, 2.5), 5, GraphSeed(1).generator())
        assert np.array_equal(values, np.full(5, 2.5))
        assert np.array_equal(steps, np.zeros(5))

    def test_complete_graph_averages_in_one_step(self):
        x0 = np.array([0.1, 0.9, 0.4, 0.6, 0.2])
        values, steps, spreads = run_block(ModelParams(5, 1.0), x0, 3, GraphSeed(3).generator())
        assert np.array_equal(steps, np.ones(3))
        assert np.array_equal(spreads, np.zeros(3))
        assert np.max(np.abs(values - x0.mean())) < 1e-12

    def test_values_in_convex_hull(self):
        x0 = np.array([-1.0, 4.0, 0.5, 2.0])
        values, _, _ = run_block(ModelParams(4, 0.4), x0, 50, GraphSeed(2).generator())
        assert np.all((x0.min() <= values) & (values <= x0.max()))

    def test_every_failed_replication_is_nan_at_the_budget(self):
        values, steps, spreads = run_block(
            ModelParams(20, 0.1), _ramp(20), 9, GraphSeed(9).generator(), tol=1e-300, max_steps=3
        )
        assert np.all(np.isnan(values))
        assert np.array_equal(steps, np.full(9, 3))
        assert np.all(spreads > 0.0)

    def test_validates_inputs(self):
        params, rng = ModelParams(3, 0.5), GraphSeed(0).generator()
        with pytest.raises(ValueError, match="^tol must be finite and positive"):
            run_block(params, np.zeros(3), 4, rng, tol=0.0)
        with pytest.raises(TypeError, match="^tol must be a number, got str$"):
            run_block(params, np.zeros(3), 4, rng, tol="1e-6")
        with pytest.raises(ValueError, match="^max_steps must be >= 1"):
            run_block(params, np.zeros(3), 4, rng, max_steps=0)
        with pytest.raises(ValueError, match="^reps must be >= 1"):
            run_block(params, np.zeros(3), 0, rng)
        with pytest.raises(TypeError, match="^reps must be an integer"):
            run_block(params, np.zeros(3), 2.0, rng)
        with pytest.raises(ValueError, match="^x0 must be a length-3 vector"):
            run_block(params, np.zeros(4), 4, rng)
        with pytest.raises(ValueError, match="finite"):
            run_block(params, [0.0, np.nan, 1.0], 4, rng)
        for bad, name in [(np.random.RandomState(0), "RandomState"), (None, "NoneType"), (3, "int")]:
            with pytest.raises(TypeError, match=f"^rng must be a numpy.random.Generator, got {name}$"):
                run_block(params, np.zeros(3), 4, bad)


class TestRelativeTolerance:
    """The stop is relative: a run steps x0 - mean(x0) until its spread is below tol * spread(x0)."""

    SIZES = [pytest.param(n, p, id=str(n)) for n, p in [(6, 5 / 6), (20, 0.25), (50, 0.1), (200, 0.025)]]

    @pytest.mark.parametrize("n,p", SIZES)
    @pytest.mark.parametrize("tol", [1e-3, 1e-6, 1e-9])
    def test_a_looser_stop_is_a_prefix_within_tol(self, n, p, tol):
        # The state at a step does not depend on tol, so the path to the looser
        # stop is the start of the longer one, and the later value lies in the
        # hull of the earlier state.
        params, x0 = ModelParams(n, p), 3.0 * _ramp(n) - 1.0
        spread0 = np.ptp(x0)
        for seed in range(5):
            loose = run_consensus(params, x0, GraphSeed(seed).generator(), tol=tol)
            tight = run_consensus(params, x0, GraphSeed(seed).generator(), tol=1e-12)
            assert 0 < loose.steps <= tight.steps
            assert loose.spread < tol * spread0
            assert abs(loose.value - tight.value) < tol * spread0
            with pytest.raises(NonConvergenceError) as cut:
                run_consensus(params, x0, GraphSeed(seed).generator(), tol=1e-12, max_steps=loose.steps)
            assert cut.value.spread == loose.spread

    @pytest.mark.parametrize("n,p", SIZES)
    @pytest.mark.parametrize("c", [1e6, -3.7, 2.0**40])
    def test_an_offset_shifts_the_values(self, n, p, c):
        params = ModelParams(n, p)
        values, steps, _ = run_block(params, _ramp(n), 64, GraphSeed(3).generator())
        shifted, shifted_steps, _ = run_block(params, _ramp(n) + c, 64, GraphSeed(3).generator())
        assert np.array_equal(shifted_steps, steps)
        assert np.max(np.abs(shifted - (values + c))) <= 4.0 * np.spacing(abs(c) + 1.0)

    @pytest.mark.parametrize("n,p", SIZES)
    @pytest.mark.parametrize("s", [1e-3, 7.5, 1e6, -2.0])
    def test_a_scale_keeps_the_steps(self, n, p, s):
        params = ModelParams(n, p)
        values, steps, _ = run_block(params, _ramp(n), 64, GraphSeed(3).generator())
        scaled, scaled_steps, _ = run_block(params, s * _ramp(n), 64, GraphSeed(3).generator())
        assert np.array_equal(scaled_steps, steps)
        assert np.max(np.abs(scaled - s * values)) <= 4.0 * np.finfo(float).eps * abs(s)

    @pytest.mark.parametrize("n,p", [(20, 0.25), (50, 0.1)])
    def test_a_large_offset_converges_like_the_ramp(self, n, p):
        # With an absolute tol of 1e-10 below the float spacing of 1e6
        # (1.16e-10), these runs took thousands of steps or never stopped.
        values, steps, _ = run_block(ModelParams(n, p), 1e6 + _ramp(n), 128, GraphSeed(1).generator(), max_steps=100)
        assert not np.isnan(values).any()
        assert steps.max() < 100

    @pytest.mark.parametrize("c", [1e6, 0.1])
    def test_a_constant_is_returned_at_step_zero(self, c):
        # Exactly: the mean of twenty 0.1s rounds to 0.10000000000000002.
        values, steps, spreads = run_block(ModelParams(20, 0.25), np.full(20, c), 5, GraphSeed(1).generator())
        assert np.array_equal(values, np.full(5, c))
        assert np.array_equal(steps, np.zeros(5))
        assert np.array_equal(spreads, np.zeros(5))

    @pytest.mark.parametrize("x0", [[0.0, 1e-320], [1e-320, 0.0, 5e-321]])
    def test_a_threshold_that_underflows_returns_at_step_zero(self, x0):
        # tol * spread(x0) rounds to 0.0, below which no spread can fall.
        params = ModelParams(len(x0), 0.25)
        values, steps, spreads = run_block(params, x0, 5, GraphSeed(1).generator(), tol=1e-6, max_steps=10)
        assert np.array_equal(values, np.full(5, np.mean(x0)))
        assert np.array_equal(steps, np.zeros(5))
        assert np.array_equal(spreads, np.full(5, np.ptp(x0)))
        reference = _reference_block(params, x0, 5, GraphSeed(1).generator(), max_steps=10)
        assert all(np.array_equal(a, b) for a, b in zip(reference, (values, steps, spreads)))
        outcome = run_consensus(params, x0, GraphSeed(1).generator(), tol=1e-6, max_steps=10)
        assert (outcome.value, outcome.steps) == (np.mean(x0), 0)

    @pytest.mark.parametrize("tol", [1.0, 2.0, 1e300])
    def test_rejects_tol_at_or_above_one(self, tol):
        with pytest.raises(ValueError, match=r"^tol must be .* < 1 \(relative to the spread of x0\)"):
            run_block(ModelParams(3, 0.5), np.arange(3.0), 4, GraphSeed(0).generator(), tol=tol)

    @pytest.mark.parametrize("tol", [5e-324, 1e-310, np.nextafter(sys.float_info.min, 0.0)])
    def test_rejects_a_subnormal_tol(self, tol):
        # tol * spread(x0) would underflow, and every replication would report mean(x0) at step 0.
        with pytest.raises(ValueError, match=r"^tol must be .*, not subnormal"):
            run_block(ModelParams(3, 0.5), [0.0, 0.1, 0.2], 4, GraphSeed(0).generator(), tol=tol, max_steps=2)

    def test_accepts_the_smallest_normal_tol(self):
        values, _, _ = run_block(ModelParams(3, 1.0), [0.0, 0.1, 0.2], 4, GraphSeed(0).generator(), tol=sys.float_info.min)
        assert np.allclose(values, 0.1)

    def test_error_names_the_relative_and_absolute_threshold(self):
        x0 = 4.0 * _ramp(20)
        message = r"tol 1\.0e-30 x spread\(x0\) 3\.800e\+00 = 3\.800e-30 after 3 steps$"
        with pytest.raises(NonConvergenceError, match=message):
            run_consensus(ModelParams(20, 0.25), x0, GraphSeed(1).generator(), tol=1e-30, max_steps=3)


def _ramp(n):
    return np.arange(1, n + 1) / n


@pytest.fixture
def on_body(monkeypatch):
    """on_body(body) sends every run through that step body, the references' included."""

    def force(body):
        monkeypatch.setattr(dynamics, "stream_layout", lambda params: body)

    return force


class TestChunkBoundaries:
    """Stops and budgets around the old first chunk on both step bodies; every outcome equals the body's reference."""

    @pytest.mark.parametrize("body,extra", _bodies({"last-of-first-chunk": (0,), "one-past-it": (1,)}))
    def test_stop_at_first_chunk_boundary(self, on_body, body, extra):
        on_body(body)
        params, x0, tol = ModelParams(6, 0.5), _ramp(6), 1e-3
        for seed in range(200):
            reference = _reference_run(params, x0, GraphSeed(seed).generator(), tol=tol)
            if reference.steps == FIRST_CHUNK + extra:
                break
        else:
            pytest.fail(f"no seed stops after {FIRST_CHUNK + extra} steps")
        assert run_consensus(params, x0, GraphSeed(seed).generator(), tol=tol) == reference

    @pytest.mark.parametrize(
        "body,n,p,tol",
        _bodies(
            _named((n, p, tol) for tol in (1e-3, 1e-14) for n, p in [(3, 0.5), (6, 0.3), (20, 0.25), (50, 0.2)]),
            _named((n, p, tol) for tol in (1e-3, 1e-14)
                   for n, p in [(2, 0.5), (6, 0.3), (20, 0.25), (70, 0.05), (150, 0.02)]),
        ),
    )
    def test_tolerances(self, on_body, body, n, p, tol):
        on_body(body)
        for seed in range(5):
            fast = run_consensus(ModelParams(n, p), _ramp(n), GraphSeed(seed).generator(), tol=tol)
            reference = _reference_run(ModelParams(n, p), _ramp(n), GraphSeed(seed).generator(), tol=tol)
            assert fast == reference

    @pytest.mark.parametrize(
        "body,p,x0,steps", _bodies({"one-step": (1.0, _ramp(7), 1), "zero-steps": (0.4, np.full(7, 0.3), 0)})
    )
    def test_trivial_runs(self, on_body, body, p, x0, steps):
        on_body(body)
        fast = run_consensus(ModelParams(7, p), x0, GraphSeed(4).generator())
        assert fast == _reference_run(ModelParams(7, p), x0, GraphSeed(4).generator())
        assert fast.steps == steps

    @pytest.mark.parametrize("n", [127, 128, 130])
    def test_sizes_around_the_one_step_cap(self, n):
        params = ModelParams(n, 0.3)
        fast = run_consensus(params, _ramp(n), GraphSeed(2).generator(), tol=1e-6)
        assert fast == _reference_run(params, _ramp(n), GraphSeed(2).generator())

    @pytest.mark.parametrize(
        "body,p,max_steps",
        _bodies({str(k): (0.2, k) for k in (5, FIRST_CHUNK, 13, 3 * FIRST_CHUNK + 1)},
                {str(k): (0.1, k) for k in (5, FIRST_CHUNK, 13, 3 * FIRST_CHUNK + 1)}),
    )
    def test_step_budget_ends_mid_or_on_chunk(self, on_body, body, p, max_steps):
        on_body(body)
        params, x0 = ModelParams(20, p), _ramp(20)
        with pytest.raises(NonConvergenceError) as fast:
            run_consensus(params, x0, GraphSeed(9).generator(), tol=1e-300, max_steps=max_steps)
        with pytest.raises(NonConvergenceError) as reference:
            _reference_run(params, x0, GraphSeed(9).generator(), tol=1e-300, max_steps=max_steps)
        assert fast.value.steps == reference.value.steps == max_steps
        assert fast.value.spread == reference.value.spread > 0.0


class _RecordingGenerator(np.random.Generator):
    """A Generator on rng's bit generator that records the size of every raw-word draw and of every gap draw."""

    def __init__(self, rng):
        super().__init__(rng.bit_generator)
        self._rng = rng
        self.words = []
        self.gaps = []

    @property
    def bit_generator(self):
        return self  # the dense body reads its raw words from here

    def random_raw(self, size=None):
        self.words.append(1 if size is None else size)
        return self._rng.bit_generator.random_raw(size)

    def standard_exponential(self, size):
        self.gaps.append(size)
        return self._rng.standard_exponential(size)


class TestDrawBudget:
    @pytest.mark.parametrize(
        "n,p",
        [pytest.param(n, p, id=str(n)) for n, p in
         [(2, 1.0), (20, 0.25), (50, 0.2), (90, 0.3), (91, 0.3), (127, 0.3), (128, 0.3)]],
    )
    def test_chunk_memory_cap(self, n, p):
        rng = _RecordingGenerator(GraphSeed(5).generator())
        out = run_consensus(ModelParams(n, p), _ramp(n), rng, tol=1e-14)
        # A single run's piece is its one replication, n*n slots, and its last word may be partly spare.
        assert all(8 * (words - 1) < max(2**14, n * n) for words in rng.words)
        assert 8 * sum(rng.words) >= out.steps * n * n


class TestStepPathChoice:
    """The step body, which names the stream layout, follows p alone: sparse at p <= 0.09, dense above, at every n."""

    @pytest.mark.parametrize(
        "p,sparse",
        [(0.01, True), (0.05, True), (0.09, True), (0.1, False), (0.15, False), (0.16, False), (0.25, False),
         (1.0, False)],
    )
    def test_same_body_at_every_size(self, p, sparse):
        for n in (5, 50, 400, 2000):
            assert stream_layout(ModelParams(n, p)) == (SPARSE if sparse else DENSE)
            # One step of one replication: the sparse body draws gaps, the dense one raw words.
            rng = _RecordingGenerator(GraphSeed(1).generator())
            run_block(ModelParams(n, p), _ramp(n), 1, rng, max_steps=1)
            assert (bool(rng.gaps), bool(rng.words)) == (sparse, not sparse)

    @pytest.mark.parametrize("n", range(5, 51))
    def test_criterion_6_sweep_stays_dense(self, n):
        # Every size: p = 5/n >= 0.1 is above the cut.
        assert stream_layout(ModelParams(n, min(1.0, 5.0 / n))) == DENSE

    @pytest.mark.parametrize(
        "n,p",
        [(100, 0.05), (200, 0.025), (400, 0.0125), (2000, 0.0025), (20, 0.01), (51, 0.09), (400, 0.09),
         (5, 0.08)],
    )
    def test_sparse_below_the_density_cut(self, n, p):
        assert stream_layout(ModelParams(n, p)) == SPARSE

    @pytest.mark.parametrize(
        "n,p",
        [(100, 0.25), (2000, 1.0), (50, 0.2), (20, 0.16), (400, 0.151), (51, 0.1), (50, 0.1), (400, 0.11),
         (5, 0.15), (400, 0.0901)],
    )
    def test_dense_elsewhere(self, n, p):
        assert stream_layout(ModelParams(n, p)) == DENSE

    @pytest.mark.parametrize(
        "n,p,layout",
        [(51, 0.1, DENSE), (51, 0.11, DENSE), (400, 0.0125, SPARSE), (5, 0.15, DENSE), (400, 0.16, DENSE),
         (51, 0.09, SPARSE)],
    )
    def test_follows_the_step_body(self, n, p, layout):
        # Either side of the cut, by the layout names that run metadata records.
        assert stream_layout(ModelParams(n, p)) == layout


class TestSparseSteps:
    """The sparse body equals the per-step geometric-gap reference bit for bit."""

    @pytest.mark.parametrize("seed", [0, 8, 31])
    @pytest.mark.parametrize("n,p", [(60, 5.0 / 60), (100, 0.05), (200, 0.025)])
    def test_chosen_sizes_match_reference(self, n, p, seed):
        params = ModelParams(n, p)
        assert stream_layout(params) == SPARSE
        fast = run_consensus(params, _ramp(n), GraphSeed(seed).generator(), tol=1e-6)
        assert fast == _reference_run(params, _ramp(n), GraphSeed(seed).generator())
        assert fast.steps > 0

    def test_vanishing_p_fails_to_converge(self):
        # Gaps this long are capped at 2**62 before the int64 cast; the run still ends in the budget error.
        with pytest.raises(NonConvergenceError) as info:
            run_consensus(ModelParams(60, 1e-20), _ramp(60), GraphSeed(1).generator(), max_steps=50)
        assert info.value.steps == 50
        assert info.value.spread == np.ptp(_ramp(60) - _ramp(60).mean())  # no edge drawn: the centred x0's spread

    def test_chunking_does_not_change_the_edges(self):
        # The piece split: the slots of 12 steps in one stretch, or in stretches of 1, 5, 2 and 4.
        n, p = 30, 0.05
        slots = n * (n - 1)
        whole, _ = _edges(12 * slots, p, np.empty(0, dtype=np.int64), GraphSeed(3).generator())
        rng, pending, parts, offset = GraphSeed(3).generator(), np.empty(0, dtype=np.int64), [], 0
        for k in (1, 5, 2, 4):
            positions, pending = _edges(k * slots, p, pending, rng)
            parts.append(positions + offset)
            offset += k * slots
        assert np.array_equal(whole, np.concatenate(parts))


def _sparse_adjacency(n, p, seed, steps, chunk):
    """Adjacency of `steps` sparse draws, stacked as (steps, n, n), drawn `chunk` steps at a time.

    Slot position s of a stretch is row s // (n - 1) of the stacked
    adjacency and column s % (n - 1), with the row's own node skipped.
    """
    rng, pending = GraphSeed(seed).generator(), np.empty(0, dtype=np.int64)
    adj = np.zeros((steps, n, n), dtype=bool)
    for start in range(0, steps, chunk):
        positions, pending = _edges(chunk * n * (n - 1), p, pending, rng)
        row, j = np.divmod(positions, n - 1)
        j += j >= row % n
        adj.reshape(steps * n, n)[start * n + row, j] = True
    return adj


class TestSparseDraws:
    """The edge sampler of the sparse body, read back as adjacency matrices."""

    def test_no_self_loops(self):
        adj = _sparse_adjacency(9, 0.6, seed=1, steps=2002, chunk=7)
        assert not np.diagonal(adj, axis1=-2, axis2=-1).any()

    def test_p_one_gives_complete_digraph(self):
        adj = _sparse_adjacency(5, 1.0, seed=0, steps=40, chunk=8)
        assert np.array_equal(adj, np.broadcast_to(~np.eye(5, dtype=bool), adj.shape))

    def test_edge_frequency_binomial_ci(self):
        # 2e4 graphs on 6 nodes = 6e5 Bernoulli slots; 3-sigma band.
        n, p, graphs = 6, 0.05, 20_000
        adj = _sparse_adjacency(n, p, seed=123, steps=graphs, chunk=1000)
        trials = graphs * n * (n - 1)
        assert abs(adj.sum() / trials - p) <= 3.0 * math.sqrt(p * (1.0 - p) / trials)

    @pytest.mark.parametrize("n,p,graphs", [(6, 0.35, 17_000), (100, 0.05, 1_000)])
    def test_out_degree_chi_square_gof(self, n, p, graphs):
        # Rows are independent, so pooling them gives >= 1e5 degree samples.
        degrees = _sparse_adjacency(n, p, seed=2024, steps=graphs, chunk=100).sum(axis=-1).ravel()
        expected = stats.binom.pmf(np.arange(n), n - 1, p) * degrees.size
        kept = np.flatnonzero(expected >= 5.0)
        lo, hi = kept[0], kept[-1]  # tails beyond these merge into the end bins
        observed = np.bincount(np.clip(degrees, lo, hi), minlength=n)[lo : hi + 1]
        expected = expected[lo : hi + 1]
        expected[0] = stats.binom.cdf(lo, n - 1, p) * degrees.size
        expected[-1] = stats.binom.sf(hi - 1, n - 1, p) * degrees.size
        result = stats.chisquare(observed, expected)
        assert result.pvalue > 0.001
