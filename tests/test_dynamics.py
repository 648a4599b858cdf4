import math
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from erconsensus import dynamics
from erconsensus.dynamics import (
    DEFAULT_MAX_STEPS,
    NonConvergenceError,
    _dense_piece,
    _dense_workspace,
    _edges,
    run_block,
    stream_layout,
)
from erconsensus.graphs import GraphSeed, ModelParams
from erconsensus.montecarlo import ExperimentConfig, run_ensemble

# The first chunk of an earlier chunked single-run loop; the stops and
# budgets around it stay as boundary cases of the per-step engine.
FIRST_CHUNK = 8

DENSE, SPARSE = "dense-word-gap-block", "sparse-block"


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
    the next ceil(n*n / 8) raw 64-bit words from rng, one word at a time,
    and its n*n slot bytes are the first n*n of their bytes, byte k of a
    word being (word >> 8k) & 255 for k = 0, ..., 7. A slot is an edge
    when its byte is below t = floor(256 p), or when it holds a point of
    the remainder field: the slots of successive calls, n*n each, form
    one Bernoulli(q) sequence, q = (256 p - t) / (256 - t), whose next
    point is found by adding one gap to the last, drawn from the field
    generator by the gap law ceil(E / -log1p(-q)), E standard
    exponential. At q = 0 the field generator is never read.
    Then x <- W x with w_ij = (a_ij + [i == j]) / (d_i + 1), a drawn
    diagonal ignored. The neighborhood sums come from the product
    (A + I) [x, 1], the BLAS call the package makes: another summation
    order would round differently. The normalizer is the literal s0 / (d + 1).
    """
    field = np.random.default_rng(int(rng.bit_generator.random_raw()))
    cut = math.floor(256 * p)
    q = (256 * p - cut) / (256 - cut) if 256 * p > cut else 0.0

    def gap():
        return math.ceil(field.standard_exponential() / -math.log1p(-q))

    point = gap() - 1 if q else math.inf  # the next field point, counted from the first slot of the next call

    def step(x):
        nonlocal point
        slot_bytes = []
        for _ in range(-(-n * n // 8)):
            word = int(rng.bit_generator.random_raw())
            slot_bytes += [word >> (8 * k) & 0xFF for k in range(8)]
        slot_bytes = slot_bytes[: n * n]
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


def _dispersions(x):
    """S = sum_i (x_i - mean x)**2 of each row of the 2-D states x, as the package computes it.

    Each row is shifted by its first coordinate; the row sums come from a
    product with ones and the sums of squares from einsum, the calls the
    package makes: another summation order would round differently.
    """
    d = x - x[:, :1]
    sums = d @ np.ones(x.shape[1])
    return np.einsum("ij,ij->i", d, d) - sums * sums / x.shape[1]


def _reference_block(params, x0, reps, rng, tol=1e-6, max_steps=10**6):
    """run_block spelled out the long way, on the step body dynamics.stream_layout(params) names.

    A constant x0, or one whose tol * sqrt(S(x0)) underflows to 0, gives
    mean(x0) clipped to its hull at step 0. Otherwise the replications
    step the centred state x0 - mean(x0): each step, the active ones in
    index order take their graphs one after another from the body's
    literal stream and apply the literal update, with no pieces and no
    workspace, and each whose sqrt(S) is below tol * sqrt(S(x0)) leaves
    with the mean of its state plus mean(x0). Returns run_block's
    (values, steps, dispersions).
    """
    x0 = np.asarray(x0, dtype=float)
    centre = x0.mean()
    x = np.tile(x0 - centre, (reps, 1))
    dispersion0 = _dispersions(x[:1])[0]
    values, steps, dispersions = np.full(reps, np.nan), np.full(reps, max_steps), np.full(reps, dispersion0)
    if tol * math.sqrt(dispersion0) == 0.0:
        values[:], steps[:] = np.clip(centre, x0.min(), x0.max()), 0
        return values, steps, dispersions
    literal = _sparse_literal if dynamics.stream_layout(params) == SPARSE else _dense_literal
    step_one = literal(params.n, params.p, rng)
    active = np.arange(reps)
    for step in range(1, max_steps + 1):
        x = np.array([step_one(state) for state in x])
        dispersion = _dispersions(x)
        dispersions[active] = dispersion
        done = np.sqrt(dispersion) < tol * math.sqrt(dispersion0)
        values[active[done]] = x[done].mean(axis=1) + centre
        steps[active[done]] = step
        active, x = active[~done], x[~done]
        if not active.size:
            break
    return values, steps, dispersions


def _same(ours, theirs):
    """Whether two (values, steps, dispersions) triples agree bit for bit, NaN values included."""
    return all(np.array_equal(a, b, equal_nan=True) for a, b in zip(ours, theirs))


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
        field, no_pending = np.random.default_rng(0), np.empty(0, dtype=np.int64)
        _dense_piece(x, out, 0.4, no_pending, rng.bit_generator.random_raw, field, _dense_workspace(4, 5))
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
                    np.zeros(shape), np.empty(shape), 0.5, np.empty(0, dtype=np.int64), rng.bit_generator.random_raw,
                    rng, work,
                )

    def test_workspace_reuse_leaves_no_trace(self, dense_update):
        # Every piece in one workspace equals the same piece in a fresh one: full, short, then full again.
        n, p = 7, 0.35
        rng = GraphSeed(12).generator()
        raw, field = rng.bit_generator.random_raw, np.random.default_rng(int(rng.bit_generator.random_raw()))
        fresh = GraphSeed(12).generator()
        fresh_raw, fresh_field = fresh.bit_generator.random_raw, np.random.default_rng(int(fresh.bit_generator.random_raw()))
        work = _dense_workspace(5, n)
        pending = fresh_pending = np.empty(0, dtype=np.int64)
        for reps in (5, 2, 5, 1, 5):
            x = GraphSeed(reps).generator().random((reps, n))
            reused, alone = np.empty_like(x), np.empty_like(x)
            pending = _dense_piece(x, reused, p, pending, raw, field, work)
            fresh_pending = _dense_piece(x, alone, p, fresh_pending, fresh_raw, fresh_field, _dense_workspace(reps, n))
            assert np.array_equal(reused, alone)
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
        no_pending, raw, work = np.empty(0, dtype=np.int64), rng.bit_generator.random_raw, _dense_workspace(a, n)
        pending = _dense_piece(x, out, p, no_pending, raw, Unread(), work)
        field = np.random.default_rng(0)
        _dense_piece(x, reference, p, no_pending, fresh.bit_generator.random_raw, field, _dense_workspace(a, n))
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
    """Single runs: run_block with one replication."""

    def test_constant_x0_terminates_immediately(self):
        out = run_block(ModelParams(4, 0.5), np.full(4, 2.5), 1, GraphSeed(1).generator())
        assert _same(out, ([2.5], [0], [0.0]))

    def test_complete_graph_averages_in_one_step(self):
        x0 = np.array([0.1, 0.9, 0.4, 0.6, 0.2])
        (value,), (steps,), (dispersion,) = run_block(ModelParams(5, 1.0), x0, 1, GraphSeed(3).generator())
        assert steps == 1
        assert dispersion == 0.0
        assert abs(value - x0.mean()) < 1e-12

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_value_in_convex_hull(self, seed):
        x0 = np.array([-1.0, 4.0, 0.5, 2.0])
        tol = 1e-10 / np.linalg.norm(x0 - x0.mean())
        (value,), _, (dispersion,) = run_block(ModelParams(4, 0.4), x0, 1, GraphSeed(seed).generator(), tol=tol)
        assert x0.min() <= value <= x0.max()
        assert math.sqrt(dispersion) < 1e-10

    def test_spread_non_increasing_along_path(self):
        n, p = 6, 0.3
        rng = GraphSeed(17).generator()
        raw = rng.bit_generator.random_raw
        field, work = np.random.default_rng(int(raw())), _dense_workspace(1, n)
        pending = np.empty(0, dtype=np.int64)
        x = np.array([[0.0, 1.0, 0.2, 0.8, 0.5, 0.3]])
        spread = np.ptp(x)
        for _ in range(40):
            new = np.empty_like(x)
            pending = _dense_piece(x, new, p, pending, raw, field, work)
            x = new
            new_spread = np.ptp(x)
            assert new_spread <= spread + 1e-12 * (1.0 + spread)
            spread = new_spread

    @pytest.mark.parametrize("seed", [0, 8, 31])
    @pytest.mark.parametrize("n,p", [(2, 0.5), (6, 0.3), (20, 0.25), (4, 0.5), (8, 0.3), (5, 0.7), (7, 0.35), (3, 1.0)])
    def test_matches_reference_loop(self, n, p, seed):
        # n^2 fills whole words at n = 4, 8 and 20 and leaves bytes unread at 2, 3, 5, 6 and 7.
        params = ModelParams(n, p)
        x0 = np.linspace(-1.0, 2.0, n) ** 2
        fast = run_block(params, x0, 1, GraphSeed(seed).generator(), tol=1e-6)
        assert _same(fast, _reference_block(params, x0, 1, GraphSeed(seed).generator()))
        assert fast[1][0] > 0

    def test_any_bit_generator(self):
        # The dense body reads raw words only, so a bit generator without jumped serves too.
        params, x0 = ModelParams(6, 0.5), _ramp(6)
        fast = run_block(params, x0, 1, np.random.Generator(np.random.SFC64(3)), tol=1e-6)
        assert _same(fast, _reference_block(params, x0, 1, np.random.Generator(np.random.SFC64(3))))

    def test_non_convergence_raises_distinctly(self):
        # A run that exhausts its budget reports the value NaN, the budget and its last S.
        (value,), (steps,), (dispersion,) = run_block(
            ModelParams(20, 0.1), np.arange(20.0), 1, GraphSeed(9).generator(), tol=1e-300, max_steps=5
        )
        assert np.isnan(value)
        assert steps == 5
        assert dispersion > 0.0

    def test_validates_inputs(self):
        params = ModelParams(3, 0.5)
        rng = GraphSeed(0).generator()
        with pytest.raises(ValueError):
            run_block(params, np.zeros(3), 1, rng, tol=0.0)
        with pytest.raises(ValueError):
            run_block(params, np.zeros(3), 1, rng, max_steps=0)
        with pytest.raises(ValueError):
            run_block(params, np.zeros(4), 1, rng)
        for max_steps in (2**63, 10**30):  # a steps array of uint64 or of objects
            with pytest.raises(ValueError, match=f"^max_steps must be <= {2**63 - 1}, got {max_steps}$"):
                run_block(params, np.arange(3.0), 1, rng, max_steps=max_steps)
        for bad, name in [(np.random.RandomState(0), "RandomState"), (None, "NoneType"), (3, "int")]:
            with pytest.raises(TypeError, match=f"^rng must be a numpy.random.Generator, got {name}$"):
                run_block(params, np.zeros(3), 1, bad)

    @pytest.mark.parametrize("max_steps", [2.5, 3.0, True])
    def test_rejects_non_integer_max_steps(self, max_steps):
        with pytest.raises(TypeError, match="^max_steps must be an integer"):
            run_block(ModelParams(3, 0.5), np.arange(3.0), 1, GraphSeed(0).generator(), max_steps=max_steps)

    def test_accepts_numpy_integer_max_steps(self):
        _, (steps,), _ = run_block(
            ModelParams(3, 1.0), np.arange(3.0), 1, GraphSeed(0).generator(), max_steps=np.int64(1)
        )
        assert steps == 1

    @pytest.mark.parametrize("tol", [np.nan, np.inf])
    def test_rejects_non_finite_tol(self, tol):
        with pytest.raises(ValueError, match="tol"):
            run_block(ModelParams(3, 0.5), np.arange(3.0), 1, GraphSeed(0).generator(), tol=tol)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_x0(self, bad):
        with pytest.raises(ValueError, match="finite"):
            run_block(ModelParams(2, 0.5), [bad, 1.0], 1, GraphSeed(0).generator())


class TestRunBlock:
    @pytest.mark.parametrize(
        "body,n,p,reps,cap",
        _bodies(
            {key: (*case, None) for key, case in _named(
                [(2, 0.5, 7), (6, 5 / 6, 40), (50, 0.2, 30), (4, 0.5, 20), (8, 0.3, 20), (5, 0.7, 9), (7, 0.35, 30),
                 (3, 1.0, 4)]
            ).items()} | {"10-0.3-40-cap-1000": (10, 0.3, 40, 1000)},
            {key: (*case, None) for key, case in _named([(2, 0.5, 7), (6, 5 / 6, 40), (20, 0.05, 9)]).items()}
            | {"12-0.08-25-cap-100": (12, 0.08, 25, 100), "4-0.005-12-cap-10": (4, 0.005, 12, 10)},
        ),
    )
    def test_matches_reference_loop(self, on_body, monkeypatch, body, n, p, reps, cap):
        # Dense: at n = 50 a step of 30 replications is drawn in two pieces, 26 and 4. A
        # budget of 1000 slots at n = 10 holds 10 replications, so the 40 start in four
        # pieces, leave at seven different steps, and shrink to 5 and then 3, below one piece.
        # Each replication reads whole words: n^2 fills them at n = 4 and 8, and leaves
        # bytes unread at n = 2, 3, 5, 6, 7 and 50. 256 p is an integer at p = 0.5 and 1.
        # Sparse: a budget of 100 numbers at n = 12, p = 0.08 holds 100 // (12 + 11) = 4
        # replications, so a step of 25 is drawn in seven pieces. At n = 4, p = 0.005 a
        # budget of 10 holds 2, six pieces, and a step of 12 replications expects 0.72
        # edges, so run_block skips many steps without the body (see the next test).
        on_body(body)
        if cap is not None:
            monkeypatch.setattr(dynamics, {DENSE: "_DENSE_SLOTS", SPARSE: "_SPARSE_NUMBERS"}[body], cap)
        params = ModelParams(n, p)
        values, steps, dispersions = run_block(params, _ramp(n), reps, GraphSeed(4).generator(), tol=1e-6)
        ref_values, ref_steps, ref_dispersions = _reference_block(params, _ramp(n), reps, GraphSeed(4).generator())
        assert np.array_equal(values, ref_values)
        assert np.array_equal(steps, ref_steps)
        assert np.array_equal(dispersions, ref_dispersions)
        assert np.all(steps > 0)
        if p < 1.0:  # p = 1 stops every replication at step 1
            assert len(set(steps)) > 1  # replications left at different steps

    def test_steps_without_an_edge_skip_the_body(self, monkeypatch):
        # The sparse reference case 4-0.005-12-cap-10: pieces of 2 replications, so a
        # step taken in full makes ceil(active / 2) body calls.
        calls, body = [], dynamics._sparse_step

        def counted(*args, **kwargs):
            calls.append(1)
            return body(*args, **kwargs)

        monkeypatch.setattr(dynamics, "_SPARSE_NUMBERS", 10)
        monkeypatch.setattr(dynamics, "_sparse_step", counted)
        _, steps, _ = run_block(ModelParams(4, 0.005), _ramp(4), 12, GraphSeed(4).generator(), tol=1e-6)
        every_step = sum(math.ceil(np.count_nonzero(steps >= k) / 2) for k in range(1, steps.max() + 1))
        assert 0 < len(calls) < every_step / 2

    def test_tiny_p_fails_at_the_default_budget_without_spinning(self):
        # About 2.6e-4 edges per step: 10**6 steps taken one by one took about 55 s.
        params = ModelParams(20, 1e-9)
        start = time.perf_counter()
        values, steps, dispersions = run_block(params, _ramp(20), 128, GraphSeed(9).generator())
        assert time.perf_counter() - start < 1.0
        assert np.isnan(values).all() and np.all(steps == DEFAULT_MAX_STEPS)
        assert np.all(dispersions > 0.0)

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

    def test_dense_pieces_respect_the_cap(self):
        rng = _RecordingGenerator(GraphSeed(4).generator())
        run_block(ModelParams(50, 0.2), _ramp(50), 30, rng)
        # One word seeds the field generator; then 2**16 // 50**2 = 26 replications
        # per piece, each in ceil(2500 / 8) = 313 raw words: 8138, and the other 4 in 1252.
        assert max(rng.words) <= 8138
        assert rng.words[:4] == [1, 8138, 1252, 8138]

    def test_constant_x0_draws_nothing(self):
        values, steps, _ = run_block(ModelParams(4, 0.5), np.full(4, 2.5), 5, GraphSeed(1).generator())
        assert np.array_equal(values, np.full(5, 2.5))
        assert np.array_equal(steps, np.zeros(5))

    def test_complete_graph_averages_in_one_step(self):
        x0 = np.array([0.1, 0.9, 0.4, 0.6, 0.2])
        values, steps, dispersions = run_block(ModelParams(5, 1.0), x0, 3, GraphSeed(3).generator())
        assert np.array_equal(steps, np.ones(3))
        assert np.array_equal(dispersions, np.zeros(3))
        assert np.max(np.abs(values - x0.mean())) < 1e-12

    def test_values_in_convex_hull(self):
        x0 = np.array([-1.0, 4.0, 0.5, 2.0])
        values, _, _ = run_block(ModelParams(4, 0.4), x0, 50, GraphSeed(2).generator())
        assert np.all((x0.min() <= values) & (values <= x0.max()))

    def test_every_failed_replication_is_nan_at_the_budget(self):
        values, steps, dispersions = run_block(
            ModelParams(20, 0.1), _ramp(20), 9, GraphSeed(9).generator(), tol=1e-300, max_steps=3
        )
        assert np.all(np.isnan(values))
        assert np.array_equal(steps, np.full(9, 3))
        assert np.all(dispersions > 0.0)

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
        for big in (2**63, 10**30):
            with pytest.raises(ValueError, match=f"^reps must be <= {2**63 - 1}, got {big}$"):
                run_block(params, np.arange(3.0), big, rng)
            with pytest.raises(ValueError, match=f"^max_steps must be <= {2**63 - 1}, got {big}$"):
                run_block(params, np.arange(3.0), 4, rng, max_steps=big)
        with pytest.raises(ValueError, match="^x0 must be a length-3 vector"):
            run_block(params, np.zeros(4), 4, rng)
        with pytest.raises(ValueError, match="finite"):
            run_block(params, [0.0, np.nan, 1.0], 4, rng)
        for bad, name in [(np.random.RandomState(0), "RandomState"), (None, "NoneType"), (3, "int")]:
            with pytest.raises(TypeError, match=f"^rng must be a numpy.random.Generator, got {name}$"):
                run_block(params, np.zeros(3), 4, bad)


class TestRelativeTolerance:
    """The stop is relative: a run steps x0 - mean(x0) until sqrt(S) < tol * sqrt(S(x0)), S the centred sum of squares."""

    SIZES = [pytest.param(n, p, id=str(n)) for n, p in [(6, 5 / 6), (20, 0.25), (50, 0.1), (200, 0.025)]]

    @pytest.mark.parametrize("n,p", SIZES)
    @pytest.mark.parametrize("tol", [1e-3, 1e-6, 1e-9])
    def test_a_looser_stop_is_a_prefix_within_tol(self, n, p, tol):
        # The state at a step does not depend on tol, so the path to the looser
        # stop is the start of the longer one, and the later value lies in the
        # hull of the earlier state.
        params, x0 = ModelParams(n, p), 3.0 * _ramp(n) - 1.0
        norm0 = np.linalg.norm(x0 - x0.mean())
        for seed in range(5):
            (loose,), (loose_steps,), (loose_dispersion,) = run_block(
                params, x0, 1, GraphSeed(seed).generator(), tol=tol
            )
            (tight,), (tight_steps,), _ = run_block(params, x0, 1, GraphSeed(seed).generator(), tol=1e-12)
            assert 0 < loose_steps <= tight_steps
            assert math.sqrt(loose_dispersion) < tol * norm0
            assert abs(loose - tight) < tol * norm0
            (cut,), _, (cut_dispersion,) = run_block(
                params, x0, 1, GraphSeed(seed).generator(), tol=1e-12, max_steps=loose_steps
            )
            assert np.isnan(cut)
            assert cut_dispersion == loose_dispersion

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
        values, steps, dispersions = run_block(ModelParams(20, 0.25), np.full(20, c), 5, GraphSeed(1).generator())
        assert np.array_equal(values, np.full(5, c))
        assert np.array_equal(steps, np.zeros(5))
        assert np.array_equal(dispersions, np.zeros(5))

    @pytest.mark.parametrize("x0", [[0.0, 1e-320], [1e-320, 0.0, 5e-321]])
    def test_a_threshold_that_underflows_returns_at_step_zero(self, x0):
        # S(x0) underflows to 0.0, so tol * sqrt(S(x0)) is 0.0, below which no norm can fall.
        params = ModelParams(len(x0), 0.25)
        values, steps, dispersions = run_block(params, x0, 5, GraphSeed(1).generator(), tol=1e-6, max_steps=10)
        assert np.array_equal(values, np.full(5, np.mean(x0)))
        assert np.array_equal(steps, np.zeros(5))
        assert np.array_equal(dispersions, np.zeros(5))
        reference = _reference_block(params, x0, 5, GraphSeed(1).generator(), max_steps=10)
        assert all(np.array_equal(a, b) for a, b in zip(reference, (values, steps, dispersions)))
        (value,), (step,), _ = run_block(params, x0, 1, GraphSeed(1).generator(), tol=1e-6, max_steps=10)
        assert (value, step) == (np.mean(x0), 0)

    @pytest.mark.parametrize("n,p", SIZES)
    @pytest.mark.parametrize("tol", [0.1, 0.3])
    def test_every_stop_leaves_less_than_tol_squared_of_s(self, n, p, tol):
        # The share of S(x0) left at a stop is below tol**2 whatever x0 is: ramp and one-hot.
        for x0 in (_ramp(n), np.eye(n)[0]):
            x0_dispersion = _dispersions((x0 - x0.mean())[None])[0]
            values, steps, dispersions = run_block(ModelParams(n, p), x0, 200, GraphSeed(8).generator(), tol=tol)
            assert not np.isnan(values).any() and steps.min() > 0
            assert np.all(dispersions < tol**2 * x0_dispersion)

    def test_dispersion_is_zero_on_agreement_and_exact_off_the_mean(self):
        # An agreed row gives exactly 0, and a spread of 1e-12 about a mean of 0.3 keeps its digits;
        # sum x**2 - (sum x)**2 / n would lose them all to a rounding error of about 1e-17.
        rows = np.array([np.full(7, 0.1), 0.3 + 1e-12 * _ramp(7)])
        exact = math.fsum((x - math.fsum(rows[1]) / 7) ** 2 for x in rows[1])
        got = dynamics._dispersion(rows)
        assert got[0] == 0.0
        assert got[1] == pytest.approx(exact, rel=1e-3)

    @pytest.mark.parametrize("tol", [1.0, 2.0, 1e300])
    def test_rejects_tol_at_or_above_one(self, tol):
        with pytest.raises(ValueError, match=r"^tol must be .* < 1 \(relative to the norm of x0 - mean\(x0\)\)"):
            run_block(ModelParams(3, 0.5), np.arange(3.0), 4, GraphSeed(0).generator(), tol=tol)

    @pytest.mark.parametrize("tol", [5e-324, 1e-310, np.nextafter(sys.float_info.min, 0.0)])
    def test_rejects_a_subnormal_tol(self, tol):
        # tol * sqrt(S(x0)) would underflow, and every replication would report mean(x0) at step 0.
        with pytest.raises(ValueError, match=r"^tol must be .*, not subnormal"):
            run_block(ModelParams(3, 0.5), [0.0, 0.1, 0.2], 4, GraphSeed(0).generator(), tol=tol, max_steps=2)

    def test_accepts_the_smallest_normal_tol(self):
        values, _, _ = run_block(ModelParams(3, 1.0), [0.0, 0.1, 0.2], 4, GraphSeed(0).generator(), tol=sys.float_info.min)
        assert np.allclose(values, 0.1)

    def test_error_names_the_relative_and_absolute_threshold(self):
        x0 = 4.0 * _ramp(20)  # S(x0) = 16 (n^2 - 1) / (12 n) = 26.6
        message = r"tol 1\.0e-30 x sqrt\(S\(x0\)\) 5\.158e\+00 = 5\.158e-30 within 3 steps \(indices 0\)$"
        cfg = ExperimentConfig(
            params=ModelParams(20, 0.25), x0_spec=x0, reps=1, seed=GraphSeed(1), tol=1e-30, max_steps=3
        )
        with pytest.raises(NonConvergenceError, match=message):
            run_ensemble(cfg)


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
            reference = _reference_block(params, x0, 1, GraphSeed(seed).generator(), tol=tol)
            if reference[1][0] == FIRST_CHUNK + extra:
                break
        else:
            pytest.fail(f"no seed stops after {FIRST_CHUNK + extra} steps")
        assert _same(run_block(params, x0, 1, GraphSeed(seed).generator(), tol=tol), reference)

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
            fast = run_block(ModelParams(n, p), _ramp(n), 1, GraphSeed(seed).generator(), tol=tol)
            reference = _reference_block(ModelParams(n, p), _ramp(n), 1, GraphSeed(seed).generator(), tol=tol)
            assert _same(fast, reference)

    @pytest.mark.parametrize(
        "body,p,x0,steps", _bodies({"one-step": (1.0, _ramp(7), 1), "zero-steps": (0.4, np.full(7, 0.3), 0)})
    )
    def test_trivial_runs(self, on_body, body, p, x0, steps):
        on_body(body)
        fast = run_block(ModelParams(7, p), x0, 1, GraphSeed(4).generator())
        assert _same(fast, _reference_block(ModelParams(7, p), x0, 1, GraphSeed(4).generator()))
        assert fast[1][0] == steps

    @pytest.mark.parametrize("n", [127, 128, 130])
    def test_sizes_around_the_one_step_cap(self, n):
        params = ModelParams(n, 0.3)
        fast = run_block(params, _ramp(n), 1, GraphSeed(2).generator(), tol=1e-6)
        assert _same(fast, _reference_block(params, _ramp(n), 1, GraphSeed(2).generator()))

    @pytest.mark.parametrize(
        "body,p,max_steps",
        _bodies({str(k): (0.2, k) for k in (5, FIRST_CHUNK, 13, 3 * FIRST_CHUNK + 1)},
                {str(k): (0.1, k) for k in (5, FIRST_CHUNK, 13, 3 * FIRST_CHUNK + 1)}),
    )
    def test_step_budget_ends_mid_or_on_chunk(self, on_body, body, p, max_steps):
        on_body(body)
        params, x0 = ModelParams(20, p), _ramp(20)
        fast = run_block(params, x0, 1, GraphSeed(9).generator(), tol=1e-300, max_steps=max_steps)
        reference = _reference_block(params, x0, 1, GraphSeed(9).generator(), tol=1e-300, max_steps=max_steps)
        assert _same(fast, reference)
        (value,), (steps,), (dispersion,) = fast
        assert np.isnan(value)
        assert steps == max_steps
        assert dispersion > 0.0


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
        _, (steps,), _ = run_block(ModelParams(n, p), _ramp(n), 1, rng, tol=1e-14)
        # A single run's piece is its one replication: after the word that seeds the field
        # generator, every step reads exactly its ceil(n*n / 8) words.
        assert rng.words == [1] + [-(-n * n // 8)] * steps


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
        fast = run_block(params, _ramp(n), 1, GraphSeed(seed).generator(), tol=1e-6)
        assert _same(fast, _reference_block(params, _ramp(n), 1, GraphSeed(seed).generator()))
        assert fast[1][0] > 0

    def test_vanishing_p_fails_to_converge(self):
        # Gaps this long are capped at 2**62 before the int64 cast; the run still ends at the budget.
        (value,), (steps,), (dispersion,) = run_block(
            ModelParams(60, 1e-20), _ramp(60), 1, GraphSeed(1).generator(), max_steps=50
        )
        assert np.isnan(value)
        assert steps == 50
        assert dispersion == _dispersions((_ramp(60) - _ramp(60).mean())[None])[0]  # no edge drawn: S(x0)

    @pytest.mark.parametrize("p", [1e-12, 0.003, 0.05, 0.3])
    def test_drawing_ahead_does_not_change_the_edges(self, p):
        # The dense body's remainder field draws its batches _FIELD_AHEAD stretches ahead.
        stretches = (5000, 1, 777, 5000, 64, 20000)
        runs = []
        for ahead in (1, dynamics._FIELD_AHEAD):
            rng, pending, parts = GraphSeed(3).generator(), np.empty(0, dtype=np.int64), []
            for slots in stretches:
                positions, pending = _edges(slots, p, pending, rng, ahead)
                parts.append(positions.copy())
            runs.append(parts)
        for ours, theirs in zip(*runs):
            assert np.array_equal(ours, theirs)

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
