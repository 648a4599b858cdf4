import itertools

import numpy as np
import pytest

from erconsensus.dynamics import _weights
from erconsensus.graphs import ModelParams
from erconsensus.moments import (
    consensus_variance,
    expected_kron_matrix,
    expected_neighbor_weight,
    expected_self_weight,
    expected_weight_matrix,
    kron_left_eigenvector,
    second_moments,
)
from erconsensus.montecarlo import resolve_x0
from erconsensus.oracle import (
    ENUM_MAX_N,
    EigenvectorEstimate,
    enumerate_expected_matrices,
    exact_variance,
    left_unit_eigenvector,
    oracle_report,
    slem,
)

P_GRID = (0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0)  # the acceptance checklist's p-grid


def _full_walk(params, graphs):
    """E[W] and E[W (x) W] as plain sums over every graph realization."""
    n, slots = params.n, params.n * (params.n - 1)
    ew, eww = np.zeros((n, n)), np.zeros((n * n, n * n))
    for adj, edges in graphs(n):
        prob = params.p**edges * params.q ** (slots - edges)
        w = _weights(adj)
        ew += prob * w
        eww += prob * np.kron(w, w)
    return ew, eww


class TestEnumeratedMoments:
    @pytest.mark.parametrize("n,p", list(itertools.product([2, 3, 4], P_GRID)))
    def test_matches_full_walk(self, all_graphs, n, p):
        params = ModelParams(n, p)
        ew, eww = enumerate_expected_matrices(params)
        walk_ew, walk_eww = _full_walk(params, all_graphs)
        assert np.max(np.abs(ew - walk_ew)) < 1e-13
        assert np.max(np.abs(eww - walk_eww)) < 1e-13

    @pytest.mark.parametrize("n,p", list(itertools.product([2, 3, 4], P_GRID)))
    def test_closed_forms_match_full_walk(self, all_graphs, n, p):
        # The walk relabels nothing, so this also checks moments' 0 <-> i relabelling.
        params = ModelParams(n, p)
        walk_ew, walk_eww = _full_walk(params, all_graphs)
        assert np.max(np.abs(expected_weight_matrix(params) - walk_ew)) < 1e-13
        assert np.max(np.abs(expected_kron_matrix(params) - walk_eww)) < 1e-13

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("p", [0.3, 1.0])
    def test_matches_closed_forms(self, n, p):
        params = ModelParams(n, p)
        ew, eww = enumerate_expected_matrices(params)
        assert np.max(np.abs(ew - expected_weight_matrix(params))) < 1e-12
        assert np.max(np.abs(eww - expected_kron_matrix(params))) < 1e-12

    def test_half_two_nodes_literal(self):
        _, eww = enumerate_expected_matrices(ModelParams(2, 0.5))
        expected = np.array(
            [
                [0.625, 0.125, 0.125, 0.125],
                [0.1875, 0.5625, 0.0625, 0.1875],
                [0.1875, 0.0625, 0.5625, 0.1875],
                [0.125, 0.125, 0.125, 0.625],
            ]
        )
        assert np.allclose(eww, expected, atol=1e-14)

    def test_complete_three_nodes_uniform(self):
        _, eww = enumerate_expected_matrices(ModelParams(3, 1.0))
        assert np.allclose(eww, 1 / 9, atol=1e-15)

    def test_diagonal_matches_mean_self_weight(self):
        params = ModelParams(3, 0.3)
        ew, _ = enumerate_expected_matrices(params)
        assert np.max(np.abs(np.diag(ew) - expected_self_weight(params))) < 1e-12
        off = ew[~np.eye(3, dtype=bool)]
        assert np.max(np.abs(off - expected_neighbor_weight(params))) < 1e-12

    @pytest.mark.parametrize("n,p", [(3, 0.2), (4, 0.6)])
    def test_both_row_stochastic(self, n, p):
        ew, eww = enumerate_expected_matrices(ModelParams(n, p))
        assert np.max(np.abs(ew.sum(axis=1) - 1.0)) < 1e-12
        assert np.max(np.abs(eww.sum(axis=1) - 1.0)) < 1e-12

    def test_every_entry_class_realized_at_n4(self, entry_class):
        n, p = 4, 0.3
        params = ModelParams(n, p)
        _, eww = enumerate_expected_matrices(params)
        m = second_moments(params)
        for i, r, j, s in itertools.product(range(n), repeat=4):
            expected = entry_class(m, i, r, j, s)
            assert abs(eww[i * n + r, j * n + s] - expected) < 1e-12

    def test_size_gate(self):
        with pytest.raises(ValueError, match=f"^n must be <= {ENUM_MAX_N} "):
            enumerate_expected_matrices(ModelParams(ENUM_MAX_N + 1, 0.5))

    def test_optional_n5(self):
        # The smallest size the full 2^(n(n-1)) walk cannot cover in a test.
        params = ModelParams(5, 0.5)
        ew, eww = enumerate_expected_matrices(params)
        assert np.max(np.abs(ew - expected_weight_matrix(params))) < 1e-10
        assert np.max(np.abs(eww - expected_kron_matrix(params))) < 1e-10


class TestAcrossFig1Range:
    """Exact checks at the fig1 sizes c = 5, p = min(1, 5/n), ramp x0."""

    @pytest.mark.parametrize("n", range(5, ENUM_MAX_N + 1))
    def test_report_within_threshold(self, n):
        report = oracle_report(ModelParams(n, min(1.0, 5 / n)), resolve_x0("ramp", n))
        assert report.max_abs_discrepancy < 1e-10

    @pytest.mark.parametrize("n", [2, 5, ENUM_MAX_N])
    @pytest.mark.parametrize("p", [1e-4, 1e-8, 1e-300])
    def test_report_within_threshold_at_small_p(self, n, p):
        # The spectral gap of E[W (x) W] shrinks like p; the accuracy must not.
        report = oracle_report(ModelParams(n, p), resolve_x0("ramp", n))
        assert report.max_abs_discrepancy < 1e-10

    def test_ramp_variance_peaks_at_n10(self):
        # 9.0308e-4, 9.0484e-4 and 8.8979e-4 at n = 9, 10, 11, with no closed form involved.
        var = {n: exact_variance(ModelParams(n, 5 / n), resolve_x0("ramp", n)) for n in (9, 10, 11)}
        assert var[10] > var[9]
        assert var[10] > var[11]


class TestLeftUnitEigenvector:
    def test_rank_one_uniform(self):
        estimate = left_unit_eigenvector(np.full((4, 4), 0.25))
        assert np.allclose(estimate.vector, 0.25, atol=1e-13)
        assert estimate.residual < 1e-13

    def test_expected_w_has_uniform_perron_vector(self):
        estimate = left_unit_eigenvector(expected_weight_matrix(ModelParams(3, 0.5)))
        assert np.max(np.abs(estimate.vector - 1 / 3)) < 1e-12

    def test_enumerated_second_moment_vector(self):
        _, eww = enumerate_expected_matrices(ModelParams(2, 0.5))
        estimate = left_unit_eigenvector(eww)
        assert isinstance(estimate, EigenvectorEstimate)
        assert np.max(np.abs(estimate.vector - [0.3, 0.2, 0.2, 0.3])) < 1e-10
        assert estimate.vector.sum() == pytest.approx(1.0, abs=1e-13)
        assert estimate.iterations == 1

    def test_two_state_chain_within_rounding_of_identity(self):
        # Stationary law (b, a)/(a + b); power iteration from uniform stops at (0.5, 0.5).
        a, b = 1e-200, 3e-200
        estimate = left_unit_eigenvector(np.array([[1 - a, a], [b, 1 - b]]))
        assert np.max(np.abs(estimate.vector - [0.75, 0.25])) < 1e-15
        assert estimate.iterations == 1

    @pytest.mark.parametrize(
        "m",
        [np.eye(3), np.kron(np.eye(2), np.full((2, 2), 0.5)),
         np.kron(np.eye(2), np.array([[0.3, 0.7], [0.6, 0.4]]))],
        ids=["identity", "two-uniform-blocks", "two-blocks"],
    )
    def test_rejects_a_repeated_unit_eigenvalue(self, m):
        with pytest.raises(ValueError, match="unit eigenvalue is not simple"):
            left_unit_eigenvector(m)

    def test_refuses_a_negative_solution(self):
        # Two closed classes, interleaved: the solve meets a rounding-sized pivot,
        # not a zero one, and returns entries far below zero.
        rng = np.random.default_rng(175)
        m = np.zeros((6, 6))
        m[:3, :3], m[3:, 3:] = rng.random((3, 3)), rng.random((3, 3))
        m /= m.sum(axis=1, keepdims=True)
        perm = rng.permutation(6)
        with pytest.raises(ValueError, match="unit eigenvalue is not simple"):
            left_unit_eigenvector(m[perm][:, perm])

    def test_validates_input(self):
        with pytest.raises(ValueError):
            left_unit_eigenvector(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            left_unit_eigenvector(np.ones((3, 3)))  # rows sum to 3


class TestSlem:
    def test_rank_one_is_zero(self):
        assert slem(np.full((5, 5), 0.2)) < 1e-12

    def test_identity_is_one(self):
        assert slem(np.eye(2)) == pytest.approx(1.0, abs=1e-12)

    def test_expected_w_half_two_nodes(self):
        assert slem(np.array([[0.75, 0.25], [0.25, 0.75]])) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 4, 9, 25])
    @pytest.mark.parametrize("p", [0.05, 0.4, 1.0])
    def test_closed_form_for_expected_w(self, n, p):
        params = ModelParams(n, p)
        expected = abs(expected_self_weight(params) - expected_neighbor_weight(params))
        assert slem(expected_weight_matrix(params)) == pytest.approx(expected, abs=1e-12)

    def test_complex_spectrum_handled(self):
        cycle = np.roll(np.eye(3), 1, axis=1)  # eigenvalues are cube roots of unity
        assert slem(cycle) == pytest.approx(1.0, abs=1e-12)

    def test_validates_square(self):
        with pytest.raises(ValueError):
            slem(np.zeros((2, 3)))

    def test_rejects_one_by_one(self):
        with pytest.raises(ValueError, match=r"^matrix must be square with >= 2 rows"):
            slem(np.ones((1, 1)))


class TestExactVariance:
    def test_half_two_nodes(self):
        assert exact_variance(ModelParams(2, 0.5), [0.0, 1.0]) == pytest.approx(
            0.05, abs=1e-10
        )

    def test_complete_graph_zero(self):
        assert abs(exact_variance(ModelParams(3, 1.0), [4.0, -1.0, 2.5])) < 1e-12

    def test_matches_closed_form_at_n4(self):
        params = ModelParams(4, 0.3)
        x0 = np.arange(1, 5) / 4.0
        closed = consensus_variance(params, x0).variance
        assert exact_variance(params, x0) == pytest.approx(closed, abs=1e-10)

    def test_validates_x0_length(self):
        with pytest.raises(ValueError):
            exact_variance(ModelParams(3, 0.5), [0.0, 1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_x0(self, bad):
        with pytest.raises(ValueError, match="finite"):
            exact_variance(ModelParams(2, 0.5), [bad, 1.0])


class TestOracleReport:
    def test_half_two_nodes_report(self):
        report = oracle_report(ModelParams(2, 0.5), [0.0, 1.0])
        assert report.ew_discrepancy < 1e-12
        assert report.eww_discrepancy < 1e-12
        assert report.eigenvector_discrepancy < 1e-10
        assert report.variance_discrepancy < 1e-10
        assert report.max_abs_discrepancy == max(
            report.ew_discrepancy,
            report.eww_discrepancy,
            report.eigenvector_discrepancy,
            report.variance_discrepancy,
        )
        assert report.closed_form_variance == pytest.approx(0.05, abs=1e-12)

    @pytest.mark.parametrize(
        "x0,needle",
        [([0.0, 1.0, 2.0], "length-2"), ([np.nan, 1.0], "finite")],
        ids=["wrong-length", "nan"],
    )
    def test_validates_x0(self, x0, needle):
        with pytest.raises(ValueError, match=needle):
            oracle_report(ModelParams(2, 0.5), x0)

    def test_eigenvector_against_closed_form(self):
        params = ModelParams(4, 0.3)
        _, eww = enumerate_expected_matrices(params)
        estimate = left_unit_eigenvector(eww)
        assert np.max(np.abs(estimate.vector - kron_left_eigenvector(params))) < 1e-10
