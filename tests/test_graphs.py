import math

import numpy as np
import pytest
from scipy import stats

from erconsensus.dynamics import _weights
from erconsensus.graphs import GraphSeed, ModelParams, _check_x0
from erconsensus.oracle import enumerate_expected_matrices


def _degrees(adj) -> np.ndarray:
    """Out-degrees of drawn graphs, read back from the weights: 1/w_ii - 1."""
    return np.rint(1.0 / np.diagonal(_weights(adj), axis1=-2, axis2=-1) - 1.0).astype(int)


class TestModelParams:
    def test_valid(self):
        params = ModelParams(3, 0.5)
        assert params.q == 0.5

    @pytest.mark.parametrize("p", [0.0, -0.1, 1.5])
    def test_bad_p_rejected(self, p):
        with pytest.raises(ValueError):
            ModelParams(3, p)

    def test_p_one_allowed(self):
        assert ModelParams(2, 1.0).q == 0.0

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            ModelParams(1, 0.5)

    def test_non_integer_n_rejected(self):
        with pytest.raises(TypeError):
            ModelParams(3.0, 0.5)

    def test_bool_p_rejected(self):
        with pytest.raises(TypeError, match="^p must be a number"):
            ModelParams(3, True)


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
    """The per-step draw rng.random((n, n)) < p, read through the weights."""

    @pytest.mark.parametrize("n", [3, 5])
    def test_p_one_gives_complete_digraph(self, n):
        adj = GraphSeed(0).generator().random((n, n)) < 1.0
        assert np.all(_degrees(adj) == n - 1)

    def test_out_degrees_consistent(self):
        adj = GraphSeed(5).generator().random((8, 8)) < 0.3
        np.fill_diagonal(adj, True)  # a drawn diagonal must not count as an edge
        assert np.array_equal(_degrees(adj), adj.sum(axis=1) - 1)

    def test_edge_frequency_binomial_ci(self):
        # 5e4 graphs on 2 nodes = 1e5 Bernoulli slots; 3-sigma band.
        draws = 50_000
        adj = GraphSeed(123).generator().random((draws, 2, 2)) < 0.5
        freq = _degrees(adj).sum() / (2 * draws)
        assert abs(freq - 0.5) <= 3.0 * math.sqrt(0.25 / (2 * draws))

    def test_out_degree_chi_square_gof(self):
        # Rows are independent, so pooling them gives >= 1e5 degree samples.
        n, p, graphs = 6, 0.35, 17_000
        adj = GraphSeed(2024).generator().random((graphs, n, n)) < p
        degrees = _degrees(adj).ravel()
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
        assert np.array_equal(ew, _weights([[0, 1], [1, 0]]))


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
