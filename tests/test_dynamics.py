import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from erconsensus import dynamics
from erconsensus.dynamics import (
    _FIRST_CHUNK,
    ConsensusOutcome,
    NonConvergenceError,
    _edge_draws,
    _sparse_draws,
    _weights,
    run_block,
    run_consensus,
)
from erconsensus.graphs import GraphSeed, ModelParams


def _reference_run(params, x0, rng, tol=1e-10, max_steps=10**6):
    """run_consensus spelled out the long way, one literal update per step."""
    n, p = params.n, params.p
    x = np.array(x0, dtype=float)
    steps = 0
    spread = float(x.max() - x.min())
    while spread >= tol:
        if steps >= max_steps:
            raise NonConvergenceError("reference run did not converge", steps=steps, spread=spread)
        a = (rng.random((n, n)) < p).astype(float)
        np.fill_diagonal(a, 0.0)
        d = a.sum(axis=1)
        w = (a + np.eye(n)) / (d + 1.0)[:, None]
        x = w @ x
        steps += 1
        spread = float(x.max() - x.min())
    return ConsensusOutcome(value=float(x.mean()), steps=steps, spread=spread)


def _sparse_reference_run(params, x0, rng, tol=1e-10, max_steps=10**6):
    """The sparse step body spelled out: one geometric gap at a time, one step at a time.

    The edge slots (i, j), i != j, of successive steps form one Bernoulli(p)
    sequence, step after step and row after row; an edge at slot position
    pos is found by adding one Geometric(p) gap to the previous one.
    """
    n, p = params.n, params.p
    slots = n * (n - 1)
    x = np.array(x0, dtype=float)
    edge = int(rng.geometric(p)) - 1  # position of the next edge from the start of the run
    steps = 0
    spread = float(x.max() - x.min())
    while spread >= tol:
        if steps >= max_steps:
            raise NonConvergenceError("reference run did not converge", steps=steps, spread=spread)
        rows, cols = [], []
        while edge < (steps + 1) * slots:
            i, j = divmod(edge - steps * slots, n - 1)
            rows.append(i)
            cols.append(j + (j >= i))
            edge += int(rng.geometric(p))
        rows, cols = np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp)
        degrees = np.bincount(rows, minlength=n)
        x = (x + np.bincount(rows, x[cols], minlength=n)) * (1.0 / (degrees + 1.0))
        steps += 1
        spread = float(x.max() - x.min())
    return ConsensusOutcome(value=float(x.mean()), steps=steps, spread=spread)


class TestWeightMatrix:
    def test_empty_graph_is_identity(self):
        w = _weights(np.zeros((3, 3), dtype=bool))
        assert np.array_equal(w, np.eye(3))

    def test_complete_two_node(self):
        w = _weights([[0, 1], [1, 0]])
        assert np.array_equal(w, [[0.5, 0.5], [0.5, 0.5]])

    def test_single_edge(self):
        w = _weights([[0, 1], [0, 0]])
        assert np.array_equal(w, [[0.5, 0.5], [0.0, 1.0]])

    @pytest.mark.parametrize("p", [0.2, 0.7, 1.0])
    def test_rows_stochastic_and_diagonal(self, p):
        n = 9
        adj = GraphSeed(42).generator().random((20, n, n)) < p
        w = _weights(adj)
        assert np.max(np.abs(w.sum(axis=-1) - 1.0)) < 1e-12
        assert np.all(w >= 0.0)
        off_diagonal_degrees = adj.sum(axis=-1) - np.diagonal(adj, axis1=-2, axis2=-1)
        expected_diag = 1.0 / (off_diagonal_degrees + 1.0)
        assert np.array_equal(np.diagonal(w, axis1=-2, axis2=-1), expected_diag)
        assert np.all(np.diagonal(w, axis1=-2, axis2=-1) >= 1.0 / n)

    def test_batch_matches_one_at_a_time(self, all_graphs):
        adj = np.array([graph for graph, _ in all_graphs(3)])
        batch = _weights(adj)
        for k in range(64):
            assert np.array_equal(batch[k], _weights(adj[k]))

    def test_input_is_not_written(self):
        adj = np.array([[1.0, 1.0], [0.0, 1.0]])
        before = adj.copy()
        _weights(adj)
        _weights(adj.T)
        assert np.array_equal(adj, before)


class TestStep:
    """One update x -> W x with W from the weight builder."""

    def test_identity(self):
        x = np.array([3.0, -1.0, 2.0])
        assert np.array_equal(_weights(np.zeros((3, 3))) @ x, x)

    def test_ones_fixed_point(self):
        w = _weights([[0, 1, 0], [1, 0, 1], [0, 0, 0]])
        assert np.max(np.abs(w @ np.ones(3) - 1.0)) < 1e-15

    def test_hand_example(self):
        out = _weights([[0, 1], [0, 0]]) @ np.array([0.0, 1.0])
        assert np.array_equal(out, [0.5, 1.0])

    def test_dimension_mismatch(self):
        for shape in [(3,), (2, 3), (4, 2, 3)]:
            with pytest.raises(ValueError):
                _weights(np.zeros(shape))

    @given(
        mask=st.integers(min_value=0, max_value=2**12 - 1),
        x=st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            min_size=4,
            max_size=4,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_convexity(self, mask, x):
        adj = np.zeros((4, 4))
        adj[~np.eye(4, dtype=bool)] = [mask >> bit & 1 for bit in range(12)]
        w = _weights(adj)
        x = np.array(x)
        out = w @ x
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
        out = run_consensus(ModelParams(4, 0.4), x0, GraphSeed(seed).generator())
        assert x0.min() <= out.value <= x0.max()
        assert out.spread < 1e-10

    def test_spread_non_increasing_along_path(self):
        n, p = 6, 0.3
        rng = GraphSeed(17).generator()
        x = np.array([0.0, 1.0, 0.2, 0.8, 0.5, 0.3])
        spread = np.ptp(x)
        for _ in range(40):
            x = _weights(rng.random((n, n)) < p) @ x
            new_spread = np.ptp(x)
            assert new_spread <= spread + 1e-12 * (1.0 + spread)
            spread = new_spread

    @pytest.mark.parametrize("seed", [0, 8, 31])
    @pytest.mark.parametrize("n,p", [(2, 0.5), (6, 0.3), (20, 0.25)])
    def test_matches_reference_loop(self, n, p, seed):
        params = ModelParams(n, p)
        x0 = np.linspace(-1.0, 2.0, n) ** 2
        fast = run_consensus(params, x0, GraphSeed(seed).generator())
        reference = _reference_run(params, x0, GraphSeed(seed).generator())
        assert fast == reference
        assert fast.steps > 0

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


def _reference_block(params, x0, reps, rng, tol=1e-10, max_steps=10**6):
    """run_block spelled out: one (A, n, n) draw per step, literal weights, no pieces."""
    n, p = params.n, params.p
    values, steps = np.full(reps, np.nan), np.full(reps, max_steps)
    active, x = np.arange(reps), np.tile(np.asarray(x0, dtype=float), (reps, 1))
    for step in range(1, max_steps + 1):
        a = (rng.random((active.size, n, n)) < p).astype(float)
        a[:, np.arange(n), np.arange(n)] = 0.0
        w = (a + np.eye(n)) / (a.sum(axis=2) + 1.0)[:, :, None]
        x = np.matmul(w, x[:, :, None])[:, :, 0]
        done = x.max(axis=1) - x.min(axis=1) < tol
        values[active[done]] = x[done].mean(axis=1)
        steps[active[done]] = step
        active, x = active[~done], x[~done]
        if not active.size:
            break
    return values, steps


class TestRunBlock:
    @pytest.mark.parametrize("n,p,reps", [(2, 0.5, 7), (6, 5 / 6, 40), (50, 0.1, 30)])
    def test_matches_reference_loop(self, n, p, reps):
        # At n = 50 a step of 30 replications is drawn in five pieces.
        params = ModelParams(n, p)
        values, steps = run_block(params, _ramp(n), reps, GraphSeed(4).generator())
        ref_values, ref_steps = _reference_block(params, _ramp(n), reps, GraphSeed(4).generator())
        assert np.array_equal(values, ref_values)
        assert np.array_equal(steps, ref_steps)
        assert np.all(steps > 0)

    @pytest.mark.parametrize("cap", [1, 100, 3 * 64 + 5])
    def test_piece_cap_does_not_change_outcomes(self, monkeypatch, cap):
        params, x0 = ModelParams(8, 0.4), _ramp(8)
        default = run_block(params, x0, 37, GraphSeed(5).generator())
        monkeypatch.setattr(dynamics, "_CHUNK_DOUBLES", cap)
        patched = run_block(params, x0, 37, GraphSeed(5).generator())
        assert np.array_equal(default[0], patched[0])
        assert np.array_equal(default[1], patched[1])

    def test_constant_x0_draws_nothing(self):
        values, steps = run_block(ModelParams(4, 0.5), np.full(4, 2.5), 5, GraphSeed(1).generator())
        assert np.array_equal(values, np.full(5, 2.5))
        assert np.array_equal(steps, np.zeros(5))

    def test_complete_graph_averages_in_one_step(self):
        x0 = np.array([0.1, 0.9, 0.4, 0.6, 0.2])
        values, steps = run_block(ModelParams(5, 1.0), x0, 3, GraphSeed(3).generator())
        assert np.array_equal(steps, np.ones(3))
        assert np.max(np.abs(values - x0.mean())) < 1e-12

    def test_values_in_convex_hull(self):
        x0 = np.array([-1.0, 4.0, 0.5, 2.0])
        values, _ = run_block(ModelParams(4, 0.4), x0, 50, GraphSeed(2).generator())
        assert np.all((x0.min() <= values) & (values <= x0.max()))

    def test_every_failed_replication_is_nan_at_the_budget(self):
        values, steps = run_block(
            ModelParams(20, 0.1), _ramp(20), 9, GraphSeed(9).generator(), tol=1e-300, max_steps=3
        )
        assert np.all(np.isnan(values))
        assert np.array_equal(steps, np.full(9, 3))

    def test_validates_inputs(self):
        params, rng = ModelParams(3, 0.5), GraphSeed(0).generator()
        with pytest.raises(ValueError, match="^tol must be finite and positive"):
            run_block(params, np.zeros(3), 4, rng, tol=0.0)
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


def _ramp(n):
    return np.arange(1, n + 1) / n


class TestChunkBoundaries:
    """Steps are drawn in chunks; every outcome equals the per-step reference."""

    @pytest.mark.parametrize("extra", [0, 1], ids=["last-of-first-chunk", "one-past-it"])
    def test_stop_at_first_chunk_boundary(self, extra):
        params, x0, tol = ModelParams(6, 0.5), _ramp(6), 1e-3
        for seed in range(200):
            reference = _reference_run(params, x0, GraphSeed(seed).generator(), tol=tol)
            if reference.steps == _FIRST_CHUNK + extra:
                break
        else:
            pytest.fail(f"no seed stops after {_FIRST_CHUNK + extra} steps")
        assert run_consensus(params, x0, GraphSeed(seed).generator(), tol=tol) == reference

    @pytest.mark.parametrize("tol", [1e-3, 1e-14])
    @pytest.mark.parametrize("n,p", [(3, 0.5), (6, 0.3), (20, 0.25), (50, 0.1)])
    def test_tolerances(self, n, p, tol):
        for seed in range(5):
            fast = run_consensus(ModelParams(n, p), _ramp(n), GraphSeed(seed).generator(), tol=tol)
            reference = _reference_run(ModelParams(n, p), _ramp(n), GraphSeed(seed).generator(), tol=tol)
            assert fast == reference

    @pytest.mark.parametrize(
        "p,x0,steps", [(1.0, _ramp(7), 1), (0.4, np.full(7, 0.3), 0)], ids=["one-step", "zero-steps"]
    )
    def test_trivial_runs(self, p, x0, steps):
        fast = run_consensus(ModelParams(7, p), x0, GraphSeed(4).generator())
        assert fast == _reference_run(ModelParams(7, p), x0, GraphSeed(4).generator())
        assert fast.steps == steps

    @pytest.mark.parametrize("n", [127, 128, 130])
    def test_sizes_around_the_one_step_cap(self, n):
        params = ModelParams(n, 0.3)
        fast = run_consensus(params, _ramp(n), GraphSeed(2).generator())
        assert fast == _reference_run(params, _ramp(n), GraphSeed(2).generator())

    @pytest.mark.parametrize("max_steps", [5, _FIRST_CHUNK, 13, 3 * _FIRST_CHUNK + 1])
    def test_step_budget_ends_mid_or_on_chunk(self, max_steps):
        params, x0 = ModelParams(20, 0.1), _ramp(20)
        with pytest.raises(NonConvergenceError) as fast:
            run_consensus(params, x0, GraphSeed(9).generator(), tol=1e-300, max_steps=max_steps)
        with pytest.raises(NonConvergenceError) as reference:
            _reference_run(params, x0, GraphSeed(9).generator(), tol=1e-300, max_steps=max_steps)
        assert fast.value.steps == reference.value.steps == max_steps
        assert fast.value.spread == reference.value.spread > 0.0


class _RecordingGenerator:
    """A Generator stand-in that records the shape of every draw."""

    def __init__(self, rng):
        self._rng = rng
        self.shapes = []

    def random(self, shape):
        self.shapes.append(shape)
        return self._rng.random(shape)


class TestDrawBudget:
    @pytest.mark.parametrize(
        "n,p",
        [pytest.param(n, p, id=str(n)) for n, p in
         [(2, 1.0), (20, 0.25), (50, 0.1), (90, 0.3), (91, 0.3), (127, 0.3), (128, 0.3)]],
    )
    def test_chunk_memory_cap(self, n, p):
        rng = _RecordingGenerator(GraphSeed(5).generator())
        out = run_consensus(ModelParams(n, p), _ramp(n), rng, tol=1e-14)
        drawn = [k for k, *_ in rng.shapes]
        assert all(k * n * n <= 2**14 or k == 1 for k in drawn)
        assert sum(drawn) >= out.steps

    def test_predicted_chunks_track_steps(self):
        n, seeds = 20, 50
        calls = drawn = taken = 0
        for seed in range(seeds):
            rng = _RecordingGenerator(GraphSeed(seed).generator())
            out = run_consensus(ModelParams(n, 0.25), _ramp(n), rng)
            calls += len(rng.shapes)
            drawn += sum(k for k, *_ in rng.shapes)
            taken += out.steps
        assert drawn <= 1.25 * taken
        assert calls <= 4 * seeds


@pytest.fixture
def sparse_everywhere(monkeypatch):
    """Send every run_consensus call through the sparse step body."""
    monkeypatch.setattr(dynamics, "_sparse_draws", lambda n, p: True)


class TestStepPathChoice:
    @pytest.mark.parametrize("n", range(5, 51))
    def test_criterion_6_sweep_stays_dense(self, n):
        assert not _sparse_draws(n, min(1.0, 5.0 / n))

    @pytest.mark.parametrize("n,p", [(51, 0.1), (100, 0.05), (200, 0.025), (400, 0.0125), (2000, 0.0025)])
    def test_sparse_below_the_density_cut(self, n, p):
        assert _sparse_draws(n, p)

    @pytest.mark.parametrize("n,p", [(50, 0.1), (20, 0.01), (100, 0.25), (400, 0.11), (2000, 1.0)])
    def test_dense_elsewhere(self, n, p):
        assert not _sparse_draws(n, p)


class TestSparseSteps:
    """The sparse body equals the per-step geometric-gap reference bit for bit."""

    @pytest.mark.parametrize("seed", [0, 8, 31])
    @pytest.mark.parametrize("n,p", [(60, 5.0 / 60), (100, 0.05), (200, 0.025)])
    def test_chosen_sizes_match_reference(self, n, p, seed):
        params = ModelParams(n, p)
        assert _sparse_draws(n, p)
        fast = run_consensus(params, _ramp(n), GraphSeed(seed).generator())
        assert fast == _sparse_reference_run(params, _ramp(n), GraphSeed(seed).generator())
        assert fast.steps > 0

    @pytest.mark.parametrize("extra", [0, 1], ids=["last-of-first-chunk", "one-past-it"])
    def test_stop_at_first_chunk_boundary(self, sparse_everywhere, extra):
        params, x0, tol = ModelParams(6, 0.5), _ramp(6), 1e-3
        for seed in range(200):
            reference = _sparse_reference_run(params, x0, GraphSeed(seed).generator(), tol=tol)
            if reference.steps == _FIRST_CHUNK + extra:
                break
        else:
            pytest.fail(f"no seed stops after {_FIRST_CHUNK + extra} steps")
        assert run_consensus(params, x0, GraphSeed(seed).generator(), tol=tol) == reference

    @pytest.mark.parametrize("tol", [1e-3, 1e-14])
    @pytest.mark.parametrize("n,p", [(2, 0.5), (6, 0.3), (20, 0.25), (70, 0.05), (150, 0.02)])
    def test_tolerances(self, sparse_everywhere, n, p, tol):
        for seed in range(5):
            fast = run_consensus(ModelParams(n, p), _ramp(n), GraphSeed(seed).generator(), tol=tol)
            reference = _sparse_reference_run(ModelParams(n, p), _ramp(n), GraphSeed(seed).generator(), tol=tol)
            assert fast == reference

    @pytest.mark.parametrize(
        "p,x0,steps", [(1.0, _ramp(7), 1), (0.4, np.full(7, 0.3), 0)], ids=["p-one", "constant-x0"]
    )
    def test_trivial_runs(self, sparse_everywhere, p, x0, steps):
        fast = run_consensus(ModelParams(7, p), x0, GraphSeed(4).generator())
        assert fast == _sparse_reference_run(ModelParams(7, p), x0, GraphSeed(4).generator())
        assert fast.steps == steps

    @pytest.mark.parametrize("max_steps", [5, _FIRST_CHUNK, 13, 3 * _FIRST_CHUNK + 1])
    def test_step_budget_ends_mid_or_on_chunk(self, sparse_everywhere, max_steps):
        params, x0 = ModelParams(20, 0.1), _ramp(20)
        with pytest.raises(NonConvergenceError) as fast:
            run_consensus(params, x0, GraphSeed(9).generator(), tol=1e-300, max_steps=max_steps)
        with pytest.raises(NonConvergenceError) as reference:
            _sparse_reference_run(params, x0, GraphSeed(9).generator(), tol=1e-300, max_steps=max_steps)
        assert fast.value.steps == reference.value.steps == max_steps
        assert fast.value.spread == reference.value.spread > 0.0

    def test_vanishing_p_fails_to_converge(self):
        # numpy saturates gaps this long at 2**63 - 1; the run still ends in the budget error.
        with pytest.raises(NonConvergenceError) as info:
            run_consensus(ModelParams(60, 1e-20), _ramp(60), GraphSeed(1).generator(), max_steps=50)
        assert info.value.steps == 50
        assert info.value.spread == _ramp(60).max() - _ramp(60).min()

    def test_chunking_does_not_change_the_edges(self):
        n, p = 30, 0.05
        whole = _edge_draws(n, p, GraphSeed(3).generator())(12)
        draw = _edge_draws(n, p, GraphSeed(3).generator())
        parts = [draw(k) for k in (1, 5, 2, 4)]
        offsets = np.repeat([0, 1, 6, 8], [part[0].size for part in parts]) * n
        assert np.array_equal(whole[0], np.concatenate([part[0] for part in parts]) + offsets)
        for axis in (1, 2):
            assert np.array_equal(whole[axis], np.concatenate([part[axis] for part in parts]))


def _sparse_adjacency(n, p, seed, steps, chunk):
    """Adjacency of `steps` sparse draws, stacked as (steps, n, n), drawn `chunk` steps at a time."""
    draw = _edge_draws(n, p, GraphSeed(seed).generator())
    adj = np.zeros((steps, n, n), dtype=bool)
    for start in range(0, steps, chunk):
        row, i, j = draw(chunk)
        assert np.array_equal(row % n, i)
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
