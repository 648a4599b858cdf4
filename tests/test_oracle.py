import itertools

import numpy as np
import pytest

from erconsensus.graphs import ModelParams
from erconsensus.moments import (
    consensus_variance,
    expected_kron_matrix,
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
        w = (adj + np.eye(n)) / (adj.sum(axis=1) + 1.0)[:, None]  # the walk's graphs have no self-loops
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
        m = second_moments(params)
        assert np.max(np.abs(np.diag(ew) - m.mean_self)) < 1e-12
        off = ew[~np.eye(3, dtype=bool)]
        assert np.max(np.abs(off - m.mean_neighbor)) < 1e-12

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
    @pytest.mark.parametrize("p", [1e-4, 1e-8, 1e-300, 2.2250738585072014e-308])
    def test_report_within_threshold_at_small_p(self, n, p):
        # The spectral gap of E[W (x) W] shrinks like p; the accuracy must not.
        report = oracle_report(ModelParams(n, p), resolve_x0("ramp", n))
        assert report.max_abs_discrepancy < 1e-10

    @pytest.mark.parametrize("n", [2, 5, ENUM_MAX_N])
    def test_variance_ignores_a_common_offset(self, n):
        # The identity is translation-invariant; a constant x0 agrees on itself.
        params, x0 = ModelParams(n, min(1.0, 5 / n)), resolve_x0("ramp", n)
        assert exact_variance(params, np.full(n, 1e6)) == 0.0
        assert exact_variance(params, x0 + 1e6) == pytest.approx(exact_variance(params, x0), rel=1e-9)

    def test_report_carries_both_solve_residuals(self):
        params, x0 = ModelParams(5, 0.5), resolve_x0("ramp", 5)
        report = oracle_report(params, x0)
        ew, eww = enumerate_expected_matrices(params)
        assert report.ew_residual == left_unit_eigenvector(ew).residual
        assert report.eww_residual == left_unit_eigenvector(eww).residual
        assert 0.0 <= max(report.ew_residual, report.eww_residual) < 1e-13

    def test_ramp_variance_peaks_at_n10(self):
        # 9.0308e-4, 9.0484e-4 and 8.8979e-4 at n = 9, 10, 11, with no closed form involved.
        var = {n: exact_variance(ModelParams(n, 5 / n), resolve_x0("ramp", n)) for n in (9, 10, 11)}
        assert var[10] > var[9]
        assert var[10] > var[11]


def _singular_solve(a, b):
    raise np.linalg.LinAlgError("Singular matrix")


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

    @pytest.mark.parametrize("n,p", [(3, 1e-9), (5, 1e-12), (10, 1e-15), (10, 1e-12)])
    def test_solves_the_closed_form_second_moment_matrix_at_small_p(self, n, p):
        # The closed-form matrix had negative entries here and was refused. A mean
        # neighbour weight of (1 - E[w_ii])/(n - 1) then put the solved vector
        # 1.2e-8 from the closed-form one at (3, 1e-9) and 2.2e-7 at (10, 1e-12).
        params = ModelParams(n, p)
        estimate = left_unit_eigenvector(expected_kron_matrix(params))
        assert estimate.vector.min() >= 0.0
        assert estimate.residual < 1e-15
        assert np.max(np.abs(estimate.vector - kron_left_eigenvector(params))) < 1e-14

    def test_two_state_chain_within_rounding_of_identity(self):
        # Stationary law (b, a)/(a + b); power iteration from uniform stops at (0.5, 0.5).
        a, b = 1e-200, 3e-200
        estimate = left_unit_eigenvector(np.array([[1 - a, a], [b, 1 - b]]))
        assert np.max(np.abs(estimate.vector - [0.75, 0.25])) < 1e-15
        assert estimate.iterations == 1

    @pytest.mark.parametrize("eps", [1e-300, 1e-310, 5e-324])
    def test_three_cycle_with_subnormal_couplings(self, eps):
        # The solve gave [0.25, 0.25, 0.5] at 1e-310 and [0.5, 0, 0.5] at 5e-324, with residual 0.0.
        m = np.array([[1.0, eps, 0.0], [0.0, 1.0, eps], [eps, 0.0, 1.0]])
        estimate = left_unit_eigenvector(m / m.sum(axis=1, keepdims=True))
        assert np.allclose(estimate.vector, 1 / 3, rtol=1e-15, atol=0.0)

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
        # Two closed classes, interleaved: the solve alone meets a rounding-sized
        # pivot, not a zero one, and returns entries far below zero.
        rng = np.random.default_rng(175)
        m = np.zeros((6, 6))
        m[:3, :3], m[3:, 3:] = rng.random((3, 3)), rng.random((3, 3))
        m /= m.sum(axis=1, keepdims=True)
        perm = rng.permutation(6)
        with pytest.raises(ValueError, match="unit eigenvalue is not simple"):
            left_unit_eigenvector(m[perm][:, perm])

    def test_refuses_every_reducible_block_matrix_of_a_scan(self):
        # Random stochastic blocks (2-3 of them, 1-4 states each) on the diagonal,
        # states relabelled: each block is a closed class. Without the class count
        # the solve returned a vector for about one matrix in six.
        rng = np.random.default_rng(2000)
        for _ in range(2000):
            sizes = rng.integers(1, 5, size=rng.integers(2, 4))
            m = np.zeros((sizes.sum(), sizes.sum()))
            for start, size in zip(np.cumsum(sizes) - sizes, sizes):
                m[start : start + size, start : start + size] = rng.random((size, size))
            m /= m.sum(axis=1, keepdims=True)
            perm = rng.permutation(len(m))
            with pytest.raises(ValueError, match=f"^matrix has {len(sizes)} closed classes"):
                left_unit_eigenvector(m[perm][:, perm])

    def test_counts_closed_classes_past_transient_states(self):
        # States 0 and 1 are transient and lead into the closed classes {2} and {3, 4}.
        m = np.array([
            [0.2, 0.3, 0.5, 0.0, 0.0],
            [0.0, 0.5, 0.0, 0.5, 0.0],
            [0.0, 0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.1, 0.9],
            [0.0, 0.0, 0.0, 0.6, 0.4],
        ])
        with pytest.raises(ValueError, match="^matrix has 2 closed classes"):
            left_unit_eigenvector(m)
        m[2] = [0.0, 0.0, 0.5, 0.5, 0.0]  # {2} now leads into {3, 4}: one closed class
        assert np.max(np.abs(left_unit_eigenvector(m).vector - [0.0, 0.0, 0.0, 0.4, 0.6])) < 1e-15

    def test_one_closed_class_reached_only_by_long_paths(self):
        # A cycle 0 -> 1 -> ... -> 7 -> 0 with self-loops: every state reaches every
        # other, but only in up to 7 steps, so the count needs its squarings.
        n = 8
        m = 0.5 * (np.eye(n) + np.roll(np.eye(n), 1, axis=1))
        assert np.max(np.abs(left_unit_eigenvector(m).vector - 1 / n)) < 1e-15

    @pytest.mark.parametrize(
        "solve", [_singular_solve, lambda a, b: np.array([1.0 + 2e-8, -2e-8])], ids=["solve-raises", "negative-entry"]
    )
    def test_a_singular_solve_is_refused(self, monkeypatch, solve):
        # With one closed class the system is nonsingular, and no such matrix tried
        # (2 x 2 couplings down to 5e-324) reached this guard, so the solve is replaced.
        monkeypatch.setattr(np.linalg, "solve", solve)
        with pytest.raises(ValueError, match=r"^matrix is singular: its unit eigenvalue is not simple$"):
            left_unit_eigenvector(np.full((2, 2), 0.5))

    def test_validates_input(self):
        with pytest.raises(ValueError):
            left_unit_eigenvector(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            left_unit_eigenvector(np.ones((3, 3)))  # rows sum to 3

    @pytest.mark.parametrize(
        "m",
        [[[np.nan, np.nan], [0.5, 0.5]], [[np.inf, -np.inf], [0.5, 0.5]], [[1.5, -0.5], [0.5, 0.5]]],
        ids=["nan", "inf", "negative"],
    )
    def test_rejects_non_finite_or_negative_entries(self, m):
        # Rows of NaN or of inf and -inf passed the row-sum check, and a negative
        # entry was refused only when the solve happened to call it singular.
        with pytest.raises(ValueError, match="^matrix entries must be finite and >= 0"):
            left_unit_eigenvector(m)


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
        m = second_moments(params)
        expected = abs(m.mean_self - m.mean_neighbor)
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

    @pytest.mark.parametrize(
        "m,needle",
        [(np.diag([2.0, 3.0]), "rows must sum to 1"), ([[np.nan, 1.0], [0.5, 0.5]], "entries must be finite")],
        ids=["rows-sum-to-2-and-3", "nan"],
    )
    def test_rejects_a_non_stochastic_matrix(self, m, needle):
        # diag(2, 3) used to return 2.0, the modulus of an eigenvalue no stochastic matrix has.
        with pytest.raises(ValueError, match=f"^matrix {needle}"):
            slem(m)


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

    @pytest.mark.parametrize("n,p", list(itertools.product([2, 3, 4, 5], P_GRID)))
    def test_closed_form_fields_are_the_public_closed_forms(self, n, p):
        # The report builds its closed forms from one row model; they must be the public ones, bit for bit.
        params, x0 = ModelParams(n, p), np.random.default_rng(n).normal(size=n)
        report = oracle_report(params, x0, allow_large=n > 4)
        ew, eww = enumerate_expected_matrices(params)
        closed = consensus_variance(params, x0).variance
        perron = left_unit_eigenvector(eww).vector
        assert report.closed_form_variance == closed
        assert report.variance_discrepancy == abs(report.exact_variance - closed)
        assert report.ew_discrepancy == float(np.max(np.abs(ew - expected_weight_matrix(params))))
        assert report.eww_discrepancy == float(np.max(np.abs(eww - expected_kron_matrix(params))))
        assert report.eigenvector_discrepancy == float(np.max(np.abs(perron - kron_left_eigenvector(params))))

    def test_eigenvector_against_closed_form(self):
        params = ModelParams(4, 0.3)
        _, eww = enumerate_expected_matrices(params)
        estimate = left_unit_eigenvector(eww)
        assert np.max(np.abs(estimate.vector - kron_left_eigenvector(params))) < 1e-10
