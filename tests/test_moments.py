import itertools
import math
import subprocess
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erconsensus.graphs import ModelParams
from erconsensus.moments import (
    DENSE_KRON_LIMIT,
    consensus_variance,
    expected_kron_matrix,
    expected_weight_matrix,
    kron_left_eigenvector,
    pattern_map,
    second_moments,
    variance_coefficients,
    variance_factor,
)
from erconsensus.moments import _binomial_pmf
from erconsensus.montecarlo import resolve_x0

P_GRID = [0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0]


def self_weight_sq_series(p: float, n: int) -> float:
    """Series form of the squared-self-weight moment.

    Returns sum_k (k+1)^-2 binom(n-1, k) (p/q)^k, whose product with
    q^(n-1) equals E[w_ii^2]. Needs p < 1 and n small enough for
    q^(n-1) to be representable.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"series form needs 0 <= p < 1, got {p}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    ratio = p / (1.0 - p)
    return sum(math.comb(n - 1, k) * ratio**k / (k + 1) ** 2 for k in range(n))


def kron_row_sums(params: ModelParams) -> np.ndarray:
    """Row sums of E[W (x) W] from the entry-class counts, any n.

    A same-row block row holds the squared class once, the mixed class
    3(n-1) times and the two-neighbor class (n-1)(n-2) times; a cross-row
    block row holds its three classes 1, 2(n-1) and (n-1)^2 times. Both
    sums collapse to 1 algebraically; this computes them the literal way
    so tests can watch the identity survive floating point.
    """
    n = params.n
    m = second_moments(params)
    same_row = m.self_sq + 3.0 * (n - 1) * m.self_neighbor_same_row
    if n >= 3:
        same_row += (n - 1) * (n - 2) * m.neighbor_pair_same_row
    cross_row = (
        m.self_self
        + 2.0 * (n - 1) * m.self_neighbor_cross_row
        + (n - 1) ** 2 * m.neighbor_pair_cross_row
    )
    out = np.full(n * n, cross_row)
    out[np.arange(n) * (n + 1)] = same_row
    return out


def _one_step_alpha(params: ModelParams) -> float:
    """alpha, with E[(mean(W x) - mean(x))^2] = alpha x^T x for every centred x.

    By row independence it is (1/n^2) sum_i x^T C_i x, C_i row i's
    covariance. C_0 takes four values, each a same-row class minus its
    cross-row class, and centring collapses the sum to these counts.
    """
    n = params.n
    m = second_moments(params)
    c_self = m.self_sq - m.self_self
    c_mixed = m.self_neighbor_same_row - m.self_neighbor_cross_row
    c_sq = m.self_neighbor_same_row - m.neighbor_pair_cross_row
    c_pair = (m.neighbor_pair_same_row or 0.0) - m.neighbor_pair_cross_row  # no such pair at n = 2
    return (c_self - 2.0 * c_mixed + (n - 1) * c_sq - (n - 2) * c_pair) / n**2


def _one_minus_mu(params: ModelParams) -> float:
    """1 - mu, mu = a + d - 1 the pattern map's contraction of S(x), without cancellation."""
    n = params.n
    m = pattern_map(params)
    return m.c / (n - 1) + (n - 1) * m.b


SMALL_GRID = [(n, p) for n in (2, 3, 5, 10, 30) for p in (0.05, 0.3, 0.7, 1.0)]


def _exact_inverse_moment(trials: int, p: Fraction, shift: int, power: int) -> Fraction:
    """E[1/(X + shift)^power] for X ~ Binomial(trials, p), exact rationals."""
    q = 1 - p
    return sum(
        Fraction(math.comb(trials, k)) * p**k * q ** (trials - k) / (k + shift) ** power
        for k in range(trials + 1)
    )


def _exact_rho_delta(n: int, p: Fraction) -> tuple[Fraction, Fraction]:
    rho = p * (n - 1) / (p * (n - 2) + 1 - (1 - p) ** n)
    return rho, n + n * (n - 1) * rho


class TestSelfWeight:
    @pytest.mark.parametrize("n,p,expected", [(5, 1.0, 0.2), (2, 1.0, 0.5), (2, 0.5, 0.75)])
    def test_known_values(self, n, p, expected):
        assert second_moments(ModelParams(n, p)).mean_self == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("n", [2, 3, 7, 12])
    @pytest.mark.parametrize("num,den", [(1, 10), (1, 2), (9, 10)])
    def test_against_exact_rational_sum(self, n, num, den):
        p = Fraction(num, den)
        exact = _exact_inverse_moment(n - 1, p, shift=1, power=1)
        value = second_moments(ModelParams(n, float(p))).mean_self
        assert value == pytest.approx(float(exact), rel=1e-14)

    def test_small_p_no_cancellation(self):
        # p = c/n regime: the naive (1-(1-p)^n)/(np) loses digits; ours must not.
        # The reference (1 - p)^n at 60 significant digits: exact as a Fraction
        # it has about 6 million digits.
        n, p = 10**6, Decimal(5) / 10**6
        with localcontext() as context:
            context.prec = 60
            exact = (1 - (1 - p) ** n) / (n * p)
        value = second_moments(ModelParams(n, float(p))).mean_self
        assert value == pytest.approx(float(exact), rel=1e-13)

    @pytest.mark.parametrize("n", [2, 4, 9])
    @pytest.mark.parametrize("p", P_GRID)
    def test_row_sum_identity(self, n, p):
        m = second_moments(ModelParams(n, p))
        assert m.mean_self + (n - 1) * m.mean_neighbor == pytest.approx(1.0, abs=1e-15)


class TestSelfWeightSq:
    @pytest.mark.parametrize("n", [2, 3, 5, 11])
    def test_p_one_is_inverse_square(self, n):
        assert second_moments(ModelParams(n, 1.0)).self_sq == pytest.approx(1 / n**2, abs=1e-15)

    def test_half_two_nodes(self):
        assert second_moments(ModelParams(2, 0.5)).self_sq == pytest.approx(0.625, abs=1e-15)

    @pytest.mark.parametrize("n", [2, 3, 7, 12])
    @pytest.mark.parametrize("num,den", [(1, 10), (1, 2), (9, 10)])
    def test_against_exact_rational_sum(self, n, num, den):
        p = Fraction(num, den)
        exact = _exact_inverse_moment(n - 1, p, shift=1, power=2)
        value = second_moments(ModelParams(n, float(p))).self_sq
        assert value == pytest.approx(float(exact), rel=1e-13)

    def test_large_n_stays_finite_and_positive(self):
        value = second_moments(ModelParams(100_000, 0.5)).self_sq
        assert 0.0 < value < 1.0

    @pytest.mark.parametrize("n", [2, 4, 9, 20])
    @pytest.mark.parametrize("p", [0.05, 0.3, 0.7, 0.9])
    def test_moment_ordering_strict(self, n, p):
        m = second_moments(ModelParams(n, p))
        assert m.mean_self**2 < m.self_sq < m.mean_self


class TestInvSquareBinomialMoment:
    """E[1/(X + 1)^2], X ~ Binomial(n - 1, p), as second_moments sums it over _binomial_pmf into self_sq."""

    @pytest.mark.parametrize("n", [2, 60, 1000, 100_000])
    @pytest.mark.parametrize("rule", ["1e-3", "5/n", "0.3", "0.5", "0.999"])
    def test_matches_scipy_pmf_sum(self, n, rule):
        from scipy import stats

        p = min(5.0 / n, 1.0) if rule == "5/n" else float(rule)
        k = np.arange(n)
        reference = float(np.sum(stats.binom.pmf(k, n - 1, p) / (k + 1) ** 2))
        assert second_moments(ModelParams(n, p)).self_sq == pytest.approx(reference, rel=1e-13)

    @pytest.mark.parametrize("trials", [0, 1, 5, 1000])
    def test_point_masses_are_exact(self, trials):
        assert np.array_equal(_binomial_pmf(0.0, trials), np.eye(trials + 1)[0])
        assert np.array_equal(_binomial_pmf(1.0, trials), np.eye(trials + 1)[-1])
        if trials:
            assert second_moments(ModelParams(trials + 1, 1.0)).self_sq == 1.0 / (trials + 1) ** 2

    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    def test_zero_trials_is_one(self, p):
        assert np.array_equal(_binomial_pmf(p, 0), [1.0])

    def test_package_import_leaves_scipy_out(self, src_env):
        code = "import sys, erconsensus; print(sorted(m for m in sys.modules if 'scipy' in m))"
        done = subprocess.run(
            [sys.executable, "-c", code], env=src_env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"


class TestSeriesForm:
    @pytest.mark.parametrize("p", [0.0, 0.2, 0.8])
    def test_single_trial_is_one(self, p):
        assert self_weight_sq_series(p, 1) == pytest.approx(1.0, abs=1e-15)

    def test_p_zero_is_one(self):
        assert self_weight_sq_series(0.0, 7) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("n", [2, 3, 6])
    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_series_times_q_power_recovers_moment(self, n, p):
        scaled = self_weight_sq_series(p, n) * (1.0 - p) ** (n - 1)
        assert scaled == pytest.approx(second_moments(ModelParams(n, p)).self_sq, rel=1e-12)

    def test_rejects_p_one_and_bad_n(self):
        with pytest.raises(ValueError):
            self_weight_sq_series(1.0, 3)
        with pytest.raises(ValueError):
            self_weight_sq_series(0.5, 0)


class TestSecondMoments:
    def test_complete_three_nodes_all_equal(self):
        m = second_moments(ModelParams(3, 1.0))
        ninth = pytest.approx(1 / 9, abs=1e-15)
        assert m.self_sq == ninth
        assert m.self_self == ninth
        assert m.self_neighbor_same_row == ninth
        assert m.self_neighbor_cross_row == ninth
        assert m.neighbor_pair_same_row == ninth
        assert m.neighbor_pair_cross_row == ninth

    def test_two_nodes_half(self):
        m = second_moments(ModelParams(2, 0.5))
        assert m.self_sq == pytest.approx(0.625, abs=1e-15)
        assert m.self_self == pytest.approx(0.5625, abs=1e-15)
        assert m.self_neighbor_same_row == pytest.approx(0.125, abs=1e-15)
        assert m.self_neighbor_cross_row == pytest.approx(0.1875, abs=1e-15)
        assert m.neighbor_pair_same_row is None
        assert m.neighbor_pair_cross_row == pytest.approx(0.0625, abs=1e-15)

    @pytest.mark.parametrize("n", [3, 4, 8, 60])
    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9, 1e-6, 1e-9, 1e-12])
    def test_same_row_classes_via_conditional_degree(self, n, p):
        # Conditioning on present edges: one forced edge shifts the degree
        # law to 1 + Binomial(n-2, p), two forced edges to 2 + Binomial(n-3, p).
        # Relative bounds: at (3, 1e-9) E[w_ij w_is] is 1.1e-19.
        m = second_moments(ModelParams(n, p))
        exact_p = Fraction(p)
        direct_q3 = exact_p * _exact_inverse_moment(n - 2, exact_p, shift=2, power=2)
        assert m.self_neighbor_same_row == pytest.approx(float(direct_q3), rel=1e-14, abs=0.0)
        direct_q5 = exact_p**2 * _exact_inverse_moment(n - 3, exact_p, shift=3, power=2)
        assert m.neighbor_pair_same_row == pytest.approx(float(direct_q5), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("n,p", [(3, 1e-9), (10, 1e-12), (4, 1e-6), (60, 1e-9), (8, 0.5), (30, 0.9)])
    def test_neighbor_weight_via_conditional_degree(self, n, p):
        # Given the edge, d = 1 + Binomial(n-2, p): E[w_ij] = p E[1/(X + 2)].
        # (1 - E[w_ii])/(n - 1) lost 1.4e-7 of it at (3, 1e-9), 1.5e-5 at (10, 1e-12).
        exact_p = Fraction(p)
        exact = exact_p * _exact_inverse_moment(n - 2, exact_p, shift=2, power=1)
        m = second_moments(ModelParams(n, p))
        assert m.mean_neighbor == pytest.approx(float(exact), rel=1e-14, abs=0.0)
        assert m.neighbor_pair_cross_row == pytest.approx(float(exact**2), rel=1e-14, abs=0.0)
        self_sq = _exact_inverse_moment(n - 1, exact_p, shift=1, power=2)
        assert m.self_sq == pytest.approx(float(self_sq), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("n", range(2, 31))
    @pytest.mark.parametrize("p", P_GRID)
    def test_row_sums_are_one(self, n, p):
        sums = kron_row_sums(ModelParams(n, p))
        assert np.max(np.abs(sums - 1.0)) < 1e-12


class TestExpectedMatrices:
    def test_expected_w_complete(self):
        assert np.allclose(expected_weight_matrix(ModelParams(3, 1.0)), 1 / 3, atol=1e-15)

    def test_expected_w_half_two_nodes(self):
        m = expected_weight_matrix(ModelParams(2, 0.5))
        assert np.allclose(m, [[0.75, 0.25], [0.25, 0.75]], atol=1e-15)

    @pytest.mark.parametrize("n,p", SMALL_GRID)
    def test_uniform_left_eigenvector(self, n, p):
        m = expected_weight_matrix(ModelParams(n, p))
        uniform = np.full(n, 1.0 / n)
        assert np.max(np.abs(uniform @ m - uniform)) < 1e-14

    def test_dense_kron_half_two_nodes_literal(self):
        expected = np.array(
            [
                [0.625, 0.125, 0.125, 0.125],
                [0.1875, 0.5625, 0.0625, 0.1875],
                [0.1875, 0.0625, 0.5625, 0.1875],
                [0.125, 0.125, 0.125, 0.625],
            ]
        )
        assert np.allclose(expected_kron_matrix(ModelParams(2, 0.5)), expected, atol=1e-15)

    @pytest.mark.parametrize("n", [2, 3, 4, 7])
    def test_dense_entries_are_their_class_exactly(self, entry_class, n):
        params = ModelParams(n, 0.3)
        m = second_moments(params)
        dense = expected_kron_matrix(params)
        for i, r, j, s in itertools.product(range(n), repeat=4):
            assert dense[i * n + r, j * n + s] == entry_class(m, i, r, j, s)

    @pytest.mark.parametrize("n", [2, 3, 5, 17, 60])
    @pytest.mark.parametrize("rule", ["1e-12", "5/n", "0.5", "1"])
    def test_dense_is_the_kron_of_means_but_on_its_diagonal_blocks(self, n, rule):
        # Bit for bit: block (i, r), i != r, is E[w_i.] (x) E[w_r.], and block (i, i)
        # is row 0's pair moments m2[j, s] = E[w_0j w_0s] with labels 0 and i swapped.
        params = ModelParams(n, {"1e-12": 1e-12, "5/n": min(1.0, 5 / n), "0.5": 0.5, "1": 1.0}[rule])
        m = second_moments(params)
        m2 = np.full((n, n), m.neighbor_pair_same_row or 0.0)  # None at n = 2, where no entry has it
        np.fill_diagonal(m2, m.self_neighbor_same_row)
        m2[0, :] = m2[:, 0] = m.self_neighbor_same_row
        m2[0, 0] = m.self_sq
        ew = expected_weight_matrix(params)
        expected = np.kron(ew, ew).reshape(n, n, n, n)  # [i, r, j, s]
        for i in range(n):
            swap = np.arange(n)
            swap[[0, i]] = swap[[i, 0]]
            expected[i, i] = m2[np.ix_(swap, swap)]
        assert expected_kron_matrix(params).tobytes() == expected.reshape(n * n, n * n).tobytes()

    def test_dense_kron_complete_three_nodes(self):
        assert np.allclose(expected_kron_matrix(ModelParams(3, 1.0)), 1 / 9, atol=1e-15)

    def test_dense_rows_sum_to_one_full_grid(self):
        worst = 0.0
        for n in range(2, 31):
            for p in P_GRID:
                m = expected_kron_matrix(ModelParams(n, p))
                worst = max(worst, float(np.max(np.abs(m.sum(axis=1) - 1.0))))
        assert worst < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 5, 10, 30, 60])
    @pytest.mark.parametrize("p", [1e-4, 1e-6, 1e-9, 1e-12, 1e-15])
    def test_dense_entries_non_negative_at_small_p(self, n, p):
        assert expected_kron_matrix(ModelParams(n, p)).min() >= 0.0

    def test_dense_cap(self):
        with pytest.raises(ValueError):
            expected_kron_matrix(ModelParams(DENSE_KRON_LIMIT + 1, 0.5))


class TestPatternMap:
    def test_complete_graph_plug_in(self):
        for n in (2, 3, 6):
            m = pattern_map(ModelParams(n, 1.0))
            assert m.b == pytest.approx(1.0 / n, abs=1e-15)
            assert m.d == pytest.approx(1.0 / n, abs=1e-15)

    @pytest.mark.parametrize("n,p", SMALL_GRID)
    def test_unit_eigenvalue_identity(self, n, p):
        m = pattern_map(ModelParams(n, p))
        assert m.b * m.c == pytest.approx((1.0 - m.a) * (1.0 - m.d), abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 5, 9])
    @pytest.mark.parametrize("p", P_GRID[:-1])
    def test_fixed_point_ratio_matches_rho(self, n, p):
        params = ModelParams(n, p)
        m = pattern_map(params)
        rho, _ = variance_coefficients(params)
        assert m.b / (1.0 - m.a) == pytest.approx(rho, abs=1e-12)

    @pytest.mark.parametrize("n,p", [(3, 1e-9), (10, 1e-12), (4, 1e-6), (60, 1e-9)])
    def test_against_exact_rationals_at_small_p(self, n, p):
        # c from 1 - f1 lost 1.4e-7 of it at (3, 1e-9) and 1.5e-5 at (10, 1e-12).
        exact_p = Fraction(p)
        f1 = _exact_inverse_moment(n - 1, exact_p, shift=1, power=1)
        b = (1 - f1) / (n - 1)
        c = (n * f1 + n - 2) * b
        rho, _ = _exact_rho_delta(n, exact_p)
        m = pattern_map(ModelParams(n, p))
        assert m.c == pytest.approx(float(c), rel=1e-14, abs=0.0)
        # rho = b/(1 - a), with 1 - a taken as c/(n - 1).
        assert m.b / (m.c / (n - 1)) == pytest.approx(float(rho), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("p", [0.2, 0.6, 1.0])
    def test_coefficients_match_the_actual_linear_map(self, n, p):
        # Push both pattern basis vectors through the dense matrix; the
        # images must stay patterned with exactly these coefficients.
        params = ModelParams(n, p)
        dense = expected_kron_matrix(params)
        m = pattern_map(params)
        diag = np.arange(n) * (n + 1)
        off = np.setdiff1d(np.arange(n * n), diag)

        pattern_off = np.ones(n * n)
        pattern_off[diag] = 0.0
        image = pattern_off @ dense
        assert np.ptp(image[off]) < 1e-12 if off.size else True
        assert image[off][0] == pytest.approx(m.a, abs=1e-12)
        assert np.ptp(image[diag]) < 1e-12
        assert image[diag][0] == pytest.approx(m.c, abs=1e-12)

        pattern_diag = np.zeros(n * n)
        pattern_diag[diag] = 1.0
        image = pattern_diag @ dense
        assert image[off][0] == pytest.approx(m.b, abs=1e-12)
        assert image[diag][0] == pytest.approx(m.d, abs=1e-12)


class TestVarianceCoefficients:
    @pytest.mark.parametrize("n", [2, 3, 10, 41])
    def test_complete_graph(self, n):
        rho, delta = variance_coefficients(ModelParams(n, 1.0))
        assert rho == pytest.approx(1.0, abs=1e-15)
        assert delta == pytest.approx(n * n, rel=1e-15)

    def test_half_two_nodes(self):
        rho, delta = variance_coefficients(ModelParams(2, 0.5))
        assert rho == pytest.approx(2 / 3, abs=1e-15)
        assert delta == pytest.approx(10 / 3, abs=1e-14)

    @pytest.mark.parametrize("n", [2, 5, 17])
    @pytest.mark.parametrize("num,den", [(1, 20), (2, 5), (1, 1)])
    def test_against_exact_rationals(self, n, num, den):
        p = Fraction(num, den)
        exact_rho, exact_delta = _exact_rho_delta(n, p)
        rho, delta = variance_coefficients(ModelParams(n, float(p)))
        assert rho == pytest.approx(float(exact_rho), rel=1e-13)
        assert delta == pytest.approx(float(exact_delta), rel=1e-13)

    @pytest.mark.parametrize("n,p", SMALL_GRID)
    def test_ranges(self, n, p):
        rho, delta = variance_coefficients(ModelParams(n, p))
        assert 0.0 < rho <= 1.0
        assert delta == pytest.approx(n + n * (n - 1) * rho, rel=1e-15)


class TestKronEigenvector:
    def test_complete_two_nodes_uniform(self):
        assert np.allclose(kron_left_eigenvector(ModelParams(2, 1.0)), 0.25, atol=1e-15)

    def test_half_two_nodes(self):
        v = kron_left_eigenvector(ModelParams(2, 0.5))
        assert np.allclose(v, [0.3, 0.2, 0.2, 0.3], atol=1e-15)

    @pytest.mark.parametrize("n,p", SMALL_GRID)
    def test_probability_vector(self, n, p):
        v = kron_left_eigenvector(ModelParams(n, p))
        assert np.all(v > 0.0)
        assert v.sum() == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("n", [2, 4, 11, 30])
    @pytest.mark.parametrize("p", [0.05, 0.5, 1.0])
    def test_dense_residual(self, n, p):
        params = ModelParams(n, p)
        v = kron_left_eigenvector(params)
        residual = np.max(np.abs(v @ expected_kron_matrix(params) - v))
        assert residual < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 6, 20, 60])
    @pytest.mark.parametrize("p", [1e-3, 0.05, 0.3, 0.9, 1.0])
    def test_one_step_scalars_match_dense_operator(self, n, p):
        # M (x (x) x) = vec E[x' x'^T] for x' = W x. With x centred and
        # S = x^T x = 1: E[mean(x')^2] = alpha S and E[S(x')] = mu S.
        params = ModelParams(n, p)
        x = np.random.default_rng(n).standard_normal(n)
        x -= x.mean()
        x /= np.linalg.norm(x)
        s = x @ x
        image = expected_kron_matrix(params) @ np.kron(x, x)
        mean_sq = image.sum() / n**2
        assert _one_step_alpha(params) * s == pytest.approx(mean_sq, rel=0.0, abs=1e-14)
        spread_sq = image[:: n + 1].sum() - n * mean_sq
        assert (1.0 - _one_minus_mu(params)) * s == pytest.approx(spread_sq, rel=0.0, abs=1e-14)

    @pytest.mark.parametrize("n", [80, 100, 400, 1000])
    @pytest.mark.parametrize("rule", ["1e-3", "0.05", "5/n", "0.3", "0.9"])
    def test_scalar_pair_pins_rho_beyond_dense_cap(self, n, rule):
        # var(x*) = alpha S(x0)/(1 - mu), so alpha/(1 - mu) = (1 - rho)/delta,
        # which is strictly decreasing in rho and so pins the Perron vector.
        params = ModelParams(n, 5.0 / n if rule == "5/n" else float(rule))
        rho, delta = variance_coefficients(params)
        ratio = _one_step_alpha(params) / _one_minus_mu(params)
        assert ratio == pytest.approx((1.0 - rho) / delta, rel=1e-12, abs=0.0)


class TestConsensusMean:
    """The closed-form mean E[x*] = mean(x0), as consensus_variance reports it."""

    def test_two_point(self):
        assert consensus_variance(ModelParams(2, 0.5), [0.0, 1.0]).mean == 0.5

    def test_constant(self):
        assert consensus_variance(ModelParams(7, 0.3), np.full(7, 3.25)).mean == 3.25

    def test_ramp_ten(self):
        x0 = np.arange(1, 11) / 10.0
        assert consensus_variance(ModelParams(10, 0.5), x0).mean == pytest.approx(0.55, abs=1e-15)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            consensus_variance(ModelParams(2, 0.5), [])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            consensus_variance(ModelParams(2, 0.5), [np.nan, 1.0])


class TestConsensusVariance:
    def test_complete_graph_zero(self):
        report = consensus_variance(ModelParams(6, 1.0), np.arange(6.0))
        assert report.variance == 0.0
        assert report.factor == 0.0

    def test_constant_x0_zero(self):
        report = consensus_variance(ModelParams(4, 0.3), np.full(4, 1.7))
        assert abs(report.variance) < 1e-30

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_x0(self, bad):
        with pytest.raises(ValueError, match="finite"):
            consensus_variance(ModelParams(2, 0.5), [bad, 1.0])

    def test_float32_p_gives_the_double_result(self):
        # ModelParams stores float(p); a float32 p ran every closed form in float32 (1e-7 off here).
        report = consensus_variance(ModelParams(3, np.float32(0.5)), [0.0, 1.0, 2.0])
        assert type(report.variance) is float
        assert report == consensus_variance(ModelParams(3, 0.5), [0.0, 1.0, 2.0])

    def test_point_value(self):
        report = consensus_variance(ModelParams(2, 0.5), [0.0, 1.0])
        assert abs(report.variance - 0.05) < 1e-12
        assert report.mean == 0.5
        assert report.x0_dispersion == 0.5

    def test_matches_spectral_form_full_grid(self):
        # v1-based identity with the closed-form eigenvector, 100 random x0
        # per grid point; the oracle module repeats this with enumerated
        # moments at small n.
        rng = np.random.default_rng(314)
        worst = 0.0
        for n in range(2, 31):
            for p in P_GRID:
                params = ModelParams(n, p)
                v = kron_left_eigenvector(params)
                batch = rng.uniform(-2.0, 2.0, size=(100, n))
                kron_products = np.einsum("ki,kj->kij", batch, batch).reshape(100, -1)
                spectral = kron_products @ v - batch.mean(axis=1) ** 2
                closed = np.array(
                    [consensus_variance(params, x0).variance for x0 in batch]
                )
                worst = max(worst, float(np.max(np.abs(closed - spectral))))
        assert worst < 1e-12

    @given(
        a=st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
        b=st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
        values=st.lists(
            st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
            min_size=4,
            max_size=4,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_scale_law(self, a, b, values):
        params = ModelParams(4, 0.35)
        x0 = np.array(values)
        base = consensus_variance(params, x0).variance
        scaled = consensus_variance(params, a * x0 + b).variance
        assert scaled == pytest.approx(a * a * base, rel=1e-12, abs=1e-12)

    def test_scale_law_exact_for_dyadic_scale(self):
        params = ModelParams(4, 0.35)
        x0 = np.array([1.0, 2.0, 7.0, -4.0])
        base = consensus_variance(params, x0).variance
        assert consensus_variance(params, 8.0 * x0).variance == 64.0 * base

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            consensus_variance(ModelParams(3, 0.5), [0.0, 1.0])

    @pytest.mark.parametrize("offset", [0.0, 1e12])
    @pytest.mark.parametrize("n", [2, 3, 9, 50, 300])
    def test_mean_and_dispersion_are_numpys_bit_for_bit(self, n, offset):
        # 300 entries run numpy's pairwise summation over more than one block.
        for x0 in np.random.default_rng(n).normal(size=(20, n)) + offset:
            report = consensus_variance(ModelParams(n, 0.3), x0)
            mean = float(x0.mean())
            assert report.mean.hex() == mean.hex()
            assert report.x0_dispersion.hex() == float(np.sum((x0 - mean) ** 2)).hex()


class TestVarianceFactor:
    def test_complete_graph_zero(self):
        assert variance_factor(ModelParams(9, 1.0)) == 0.0

    def test_half_two_nodes(self):
        assert variance_factor(ModelParams(2, 0.5)) == pytest.approx(0.2, abs=1e-15)

    @pytest.mark.parametrize("n,p", SMALL_GRID)
    def test_range(self, n, p):
        factor = variance_factor(ModelParams(n, p))
        assert 0.0 <= factor < 1.0

    def test_one_over_n_decay(self):
        def factor(n):
            return variance_factor(ModelParams(n, 5.0 / n))

        for n in (500, 1000):
            assert 0.35 <= factor(2 * n) / factor(n) <= 0.65
        reference = 2000 * factor(2000)
        for n in range(500, 2001):
            assert abs(n * factor(n) / reference - 1.0) < 0.10


class TestPeakSize:
    @staticmethod
    def _exact_variance_argmax(c: int, n_max: int) -> int:
        best_n, best = None, Fraction(-1)
        for n in range(c + 1, n_max + 1):
            rho, delta = _exact_rho_delta(n, Fraction(c, n))
            value = (1 - rho) / delta * Fraction(n * n - 1, 12 * n)
            if value > best:
                best_n, best = n, value
        return best_n

    @staticmethod
    def _package_variance_argmax(c: int, n_max: int) -> int:
        def variance(n: int) -> float:
            return consensus_variance(ModelParams(n, c / n), resolve_x0("ramp", n)).variance

        return max(range(c + 1, n_max + 1), key=variance)

    def test_c5_matches_exact_rational_scan(self):
        # The ramp-dispersion peak sits at 10 for c = 5; the x0-independent
        # factor peaks one size earlier (see test_factor_peak_c5).
        assert self._exact_variance_argmax(5, 50) == 10
        assert self._package_variance_argmax(5, 50) == 10

    def test_c7_regression_fixture(self):
        assert self._exact_variance_argmax(7, 200) == 14
        assert self._package_variance_argmax(7, 200) == 14

    def test_factor_peak_c5(self):
        factors = {
            n: variance_factor(ModelParams(n, 5.0 / n if n > 5 else 1.0))
            for n in range(5, 71)
        }
        assert max(factors, key=factors.get) == 9
        exact = {
            n: (lambda rd: n * (1 - rd[0]) / rd[1])(_exact_rho_delta(n, Fraction(5, n)))
            for n in range(6, 71)
        }
        assert max(exact, key=exact.get) == 9

