import math

import numpy as np
import pytest
from scipy import stats

from erconsensus.dynamics import _dense_piece, _dense_workspace
from erconsensus.graphs import GraphSeed, ModelParams, _check_x0
from erconsensus.oracle import enumerate_expected_matrices

# Slot-level samples are read off the diagonal of 64-node graphs: the dense
# piece overwrites the diagonal slots it draws with the 1 of A + I.
SLOT_N = 64


def _sample(graphs, n, p, seed) -> np.ndarray:
    """The first `graphs` n-node graphs of the dense body on a fresh generator, as it sets them up.

    One piece, read back from the workspace as bools: the drawn edges off
    the diagonal and True on it.
    """
    rng = GraphSeed(seed).generator()
    raw = rng.bit_generator.random_raw
    field = np.random.default_rng(int(raw()))
    work = _dense_workspace(graphs, n)
    x = np.zeros((graphs, n))
    _dense_piece(x, np.empty_like(x), p, np.empty(0, dtype=np.uint8), np.empty(0, dtype=np.int64), raw, field, work)
    return work[0] != 0.0


def _slot_bytes(count, seed) -> np.ndarray:
    """The bytes of the first `count` slots (a multiple of 8) on a fresh generator: raw words after the field seed."""
    raw = GraphSeed(seed).generator().bit_generator.random_raw
    raw()
    return raw(count // 8).astype("<u8").view(np.uint8)


def _slots(count, p, seed) -> tuple[np.ndarray, np.ndarray]:
    """The first `count` slots of the dense body's sampler (a multiple of SLOT_N**2), and which are off the diagonal."""
    edges = _sample(count // SLOT_N**2, SLOT_N, p, seed).reshape(-1)
    off = np.tile(~np.eye(SLOT_N, dtype=bool).reshape(-1), count // SLOT_N**2)
    return edges, off


def _degrees(dense_update, adj) -> np.ndarray:
    """Out-degrees of graphs as the dense update sees them: 1/w_ii - 1, w_ii = (W e_i)_i by the dense piece."""
    adj = np.asarray(adj)
    n = adj.shape[-1]
    diagonal = [dense_update(adj, np.broadcast_to(e, adj.shape[:-1]))[..., i] for i, e in enumerate(np.eye(n))]
    return np.rint(1.0 / np.stack(diagonal, axis=-1) - 1.0).astype(int)


class TestModelParams:
    def test_valid(self):
        params = ModelParams(3, 0.5)
        assert params.q == 0.5

    @pytest.mark.parametrize("p", [0.0, -0.1, 1.5, pytest.param(10**400, id="int-past-float-range")])
    def test_bad_p_rejected(self, p):
        with pytest.raises(ValueError):
            ModelParams(3, p)

    def test_p_one_allowed(self):
        assert ModelParams(2, 1.0).q == 0.0

    @pytest.mark.parametrize("p", [np.nextafter(np.finfo(float).tiny, 0.0), 1e-310, 5e-324])
    def test_subnormal_p_rejected_by_name(self, p):
        with pytest.raises(ValueError, match=r"^p must be in \(0, 1\] and not subnormal"):
            ModelParams(3, float(p))

    def test_smallest_normal_p_allowed(self):
        assert ModelParams(3, np.finfo(float).tiny).p == 2.2250738585072014e-308

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            ModelParams(1, 0.5)

    def test_non_integer_n_rejected(self):
        with pytest.raises(TypeError):
            ModelParams(3.0, 0.5)

    def test_bool_p_rejected(self):
        # Non-numbers too: a string or None failed in an unnamed comparison, an array far downstream.
        for p in (True, np.True_, "0.5", None, np.array([0.5])):
            with pytest.raises(TypeError, match=f"^p must be a number, got {type(p).__name__}$"):
                ModelParams(3, p)


class TestGraphSeed:
    def test_same_seed_same_sequence(self):
        first = GraphSeed(11, 2).generator()
        second = GraphSeed(11, 2).generator()
        for _ in range(5):
            assert np.array_equal(first.random((6, 6)) < 0.4, second.random((6, 6)) < 0.4)

    def test_distinct_streams_differ(self):
        a = GraphSeed(11, 0).generator().random((6, 6)) < 0.4
        b = GraphSeed(11, 1).generator().random((6, 6)) < 0.4
        assert not np.array_equal(a, b)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="^seed must be >= 0"):
            GraphSeed(-1)

    @pytest.mark.parametrize("seed", [1.5, True], ids=["float", "bool"])
    def test_rejects_non_integer_seed(self, seed):
        with pytest.raises(TypeError, match="^seed must be an integer"):
            GraphSeed(seed)

    def test_rejects_negative_stream(self):
        with pytest.raises(ValueError, match="^stream must be >= 0"):
            GraphSeed(1, stream=-1)

    def test_accepts_numpy_integers(self):
        a = GraphSeed(np.int64(3), np.uint8(4)).replication(9).random(8)
        assert np.array_equal(a, GraphSeed(3, 4).replication(9).random(8))

    def test_replication_matches_nested_spawn_key(self):
        a = GraphSeed(3, 4).replication(9).random(8)
        b = np.random.default_rng(
            np.random.SeedSequence(entropy=3, spawn_key=(4, 9))
        ).random(8)
        assert np.array_equal(a, b)

    def test_block_key_is_not_a_replication_key(self):
        seed = GraphSeed(3, 4)
        block = seed.block(9).random(8)
        assert np.array_equal(block, GraphSeed(3, 4).block(9).random(8))
        b = np.random.default_rng(np.random.SeedSequence(entropy=3, spawn_key=(4, 9, 0))).random(8)
        assert np.array_equal(block, b)
        for other in (seed.replication(9), seed.replication(0), seed.generator(), seed.block(8)):
            assert not np.array_equal(block, other.random(8))


class TestSampleGraph:
    """The dense body's per-slot sampler (_dense_piece), read through the weights it applies."""

    @pytest.mark.parametrize("n", [3, 5])
    def test_p_one_gives_complete_digraph(self, dense_update, n):
        adj = _sample(1, n, 1.0, seed=0)[0]
        assert np.all(_degrees(dense_update, adj) == n - 1)

    def test_out_degrees_consistent(self, dense_update):
        adj = _sample(1, 8, 0.3, seed=5)[0]
        np.fill_diagonal(adj, True)  # a drawn diagonal must not count as an edge
        assert np.array_equal(_degrees(dense_update, adj), adj.sum(axis=1) - 1)

    def test_drawn_diagonal_is_ignored(self, dense_update):
        adj = _sample(5, 9, 0.4, seed=8)
        x = GraphSeed(9).generator().random((5, 9))
        flipped = adj.copy()
        flipped[:, np.arange(9), np.arange(9)] ^= True
        assert np.array_equal(dense_update(adj, x), dense_update(flipped, x))

    def test_edge_frequency_binomial_ci(self, dense_update):
        # 5e4 graphs on 2 nodes = 1e5 Bernoulli slots; 3-sigma band.
        draws = 50_000
        adj = _sample(draws, 2, 0.5, seed=123)
        freq = _degrees(dense_update, adj).sum() / (2 * draws)
        assert abs(freq - 0.5) <= 3.0 * math.sqrt(0.25 / (2 * draws))

    @pytest.mark.parametrize(
        "p", [0.003, 1 / 256, 64 / 256, 64 / 256 + 1e-9, 65 / 256 - 1e-9, 0.1, 5 / 34, 0.999, 1.0]
    )
    def test_edge_frequency_within_4se(self, p):
        # 2**22 slots. The dyadic p have no field edges and 64/256 + 1e-9 almost none;
        # at 0.003 (floor(256 p) = 0) every edge comes from the field, and just below
        # 65/256 the field has q just below 1/192.
        edges, off = _slots(2**22, p, seed=14)
        slots = np.count_nonzero(off)
        freq = np.count_nonzero(edges[off]) / slots
        assert abs(freq - p) <= 4.0 * math.sqrt(p * (1.0 - p) / slots)

    def test_ties_are_settled_by_the_remainder(self):
        # The byte settles the first eight binary digits of p, the remainder field the
        # rest. One stream at three p with floor(256 p) = 64: every byte below 64 is an
        # edge at each p. At remainder 0.5, q = 0.5 / 192, so a slot is an extra edge
        # (byte >= 64, field point) with probability (192 / 256) q = 1/512:
        # Binomial(slots, 1/512) of them.
        count = 2**20
        low = _slot_bytes(count, seed=15) < 64
        for p in (64 / 256, 64 / 256 + 1e-9, 64.5 / 256):
            edges, off = _slots(count, p, seed=15)
            assert not (low & off & ~edges).any()
            if p == 64 / 256:
                assert np.array_equal(edges[off], low[off])
        added = np.count_nonzero(edges & off & ~low)
        slots = np.count_nonzero(off)
        assert abs(added - slots / 512) <= 4.0 * math.sqrt(slots / 512 * (1.0 - 1 / 512))

    def test_lag_one_independence_across_byte_lanes(self):
        # Slot s is byte s % 8 of its raw word. For each lane k, the pairs (8w + k, 8w + k + 1)
        # share no slot, so the count of pairs off the diagonal that are both edges is
        # Binomial(pairs, p^2).
        p, words = 0.3, 2**19
        edges, off = _slots(8 * words, p, seed=16)
        for lane in range(8):
            first, second = slice(lane, 8 * words - 1, 8), slice(lane + 1, None, 8)
            pairs = off[first] & off[second]
            both = np.count_nonzero(edges[first] & edges[second] & pairs)
            count = np.count_nonzero(pairs)
            z = (both - count * p * p) / math.sqrt(count * p * p * (1.0 - p * p))
            assert abs(z) <= 4.0, (lane, z)

    def test_out_degree_chi_square_gof(self, dense_update):
        # Rows are independent, so pooling them gives >= 1e5 degree samples.
        n, p, graphs = 6, 0.35, 17_000
        adj = _sample(graphs, n, p, seed=2024)
        degrees = _degrees(dense_update, adj).ravel()
        observed = np.bincount(degrees, minlength=n)
        expected = stats.binom.pmf(np.arange(n), n - 1, p) * degrees.size
        assert expected.min() > 5.0  # no tail merging needed at this (n, p)
        result = stats.chisquare(observed, expected)
        assert result.pvalue > 0.001


class TestEnumeration:
    def test_counts_all_realizations(self, all_graphs):
        # The reference walk behind test_oracle's full-walk comparison.
        graphs = list(all_graphs(3))
        assert len({adj.tobytes() for adj, _ in graphs}) == 64
        assert not any(np.diagonal(adj).any() for adj, _ in graphs)
        assert all(adj.sum() == edges for adj, edges in graphs)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_probabilities_sum_to_one(self, n, p):
        # Every W is row-stochastic, so each row of E[W] sums to the total probability.
        ew, _ = enumerate_expected_matrices(ModelParams(n, p))
        assert np.max(np.abs(ew.sum(axis=1) - 1.0)) < 1e-12

    def test_n2_half_is_uniform(self):
        # Each of the four graphs has probability 1/4 and w_01 = 1/2 in the two
        # that hold the edge 0 -> 1, so E[w_01] = 1/4 exactly.
        ew, _ = enumerate_expected_matrices(ModelParams(2, 0.5))
        assert np.array_equal(ew, [[0.75, 0.25], [0.25, 0.75]])
        assert np.array_equal(ew.sum(axis=1), [1.0, 1.0])

    def test_n2_p_one_concentrates_on_complete(self):
        ew, _ = enumerate_expected_matrices(ModelParams(2, 1.0))
        assert np.array_equal(ew, [[0.5, 0.5], [0.5, 0.5]])


class TestCheckX0:
    def test_returns_float_vector(self):
        x = _check_x0([1, 2, 3], 3)
        assert x.dtype == float and np.array_equal(x, [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("x0", [[1.0, 2.0], [[1.0, 2.0, 3.0]], 3.0, []])
    def test_rejects_wrong_shape(self, x0):
        with pytest.raises(ValueError, match="length-3"):
            _check_x0(x0, 3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            _check_x0([0.0, bad, 1.0], 3)

    @pytest.mark.parametrize("big", [1e76, -1e200])
    def test_rejects_entries_whose_moments_overflow(self, big):
        with pytest.raises(ValueError, match=r"^x0 entries must be finite with \|x\| <= 1e75"):
            _check_x0([0.0, big, 1.0], 3)

    def test_accepts_the_bound(self):
        assert np.array_equal(_check_x0([-1e75, 0.0, 1e75], 3), [-1e75, 0.0, 1e75])
