"""Closed-form moments of the random agreement value over G(n, p).

Everything here is exact double-precision arithmetic on (n, p, x0); no
sampling. Notation used throughout:

  d          out-degree of one node, Binomial(n - 1, p), q = 1 - p
  w_ii       self-weight 1/(d_i + 1) of the update matrix
  w_ij       neighbor weight a_ij/(d_i + 1), i != j
  rho, delta coefficients of the variance law, see variance_coefficients

The agreed value x* of the averaging dynamics is random (the graph
sequence is random). Its mean is the plain average of the initial states;
its variance is (1 - rho)/delta times the unnormalized dispersion
sum_i (x_i(0) - mean(x0))^2. E[W] and E[W (x) W] are built from one
row model, the classes of second_moments (_weight_matrix, _kron_matrix).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import ModelParams, _check_x0

__all__ = [
    "DENSE_KRON_LIMIT",
    "PatternMap",
    "VarianceReport",
    "WeightSecondMoments",
    "consensus_variance",
    "expected_kron_matrix",
    "expected_weight_matrix",
    "kron_left_eigenvector",
    "pattern_map",
    "second_moments",
    "variance_coefficients",
    "variance_factor",
]

# n^4 dense entries; 60^4 = 1.3e7 doubles is the cap for full assembly.
DENSE_KRON_LIMIT = 60


def _one_minus_q_pow(p: float, n: int) -> float:
    """1 - (1-p)^n without cancellation for small p."""
    if p >= 1.0:
        return 1.0
    return -math.expm1(n * math.log1p(-p))


def _binomial_pmf(p: float, trials: int) -> np.ndarray:
    """The pmf of Binomial(trials, p) at 0, ..., trials.

    Weights come from the ratio recurrence pmf(k+1)/pmf(k) =
    (trials-k)/(k+1) * p/q, multiplied outward from the mode, so they are
    at most 1 and underflow harmlessly to 0 in the tails; dividing by
    their sum stands in for the binomial coefficient and q^trials. As
    products, not sums of log ratios (which lose k |log p| ulps), they
    keep full relative precision at small p. The point masses are exact.
    """
    pmf = np.zeros(trials + 1)
    if trials == 0 or p <= 0.0:
        pmf[0] = 1.0
    elif p >= 1.0:
        pmf[-1] = 1.0
    else:
        mode = min(int((trials + 1) * p), trials)
        k = np.arange(trials)
        ratio = (trials - k) / (k + 1) * (p / (1.0 - p))
        pmf[mode] = 1.0
        pmf[mode + 1:] = np.cumprod(ratio[mode:])
        pmf[:mode] = np.cumprod(1.0 / ratio[:mode][::-1])[::-1]
        pmf /= pmf.sum()
    return pmf


def _row_degree_moments(params: ModelParams) -> tuple[float, float, float, float]:
    """E[w_ii^2], E[w_ij], E[w_ij^2] and E[w_ij w_is], i, j, s distinct, from one degree law.

    Given the degree d ~ Binomial(n-1, p) of row i, E[a_ij | d] = d/(n-1)
    and E[a_ij a_is | d] = d(d-1)/((n-1)(n-2)), so each is a sum of
    non-negative terms over the one pmf. The forms through E[w_ii] and
    E[w_ii^2], such as (1 - E[w_ii])/(n-1), cancel at small p.
    """
    n = params.n
    k = np.arange(n, dtype=float)
    pmf = _binomial_pmf(params.p, n - 1)
    inv_sq = pmf / (k + 1.0) ** 2
    pair = float((k * (k - 1.0)) @ inv_sq) / ((n - 1) * (n - 2)) if n >= 3 else None
    return float(inv_sq.sum()), float(pmf @ (k / (k + 1.0))) / (n - 1), float(k @ inv_sq) / (n - 1), pair


@dataclass(frozen=True)
class WeightSecondMoments:
    """A row's first moments and the six classes E[w_ij w_rs] of one graph draw.

    With i, j, r, s pairwise distinct, the first moments and the six
    classes into which every product of two entries of W falls:

      mean_self                E[w_ii] = E[1/(d+1)] = (1 - q^n)/(n p)
      mean_neighbor            E[w_ij] = E[d/(d+1)]/(n-1)
      self_sq                  E[w_ii^2]
      self_self                E[w_ii w_rr]          (independent rows)
      self_neighbor_same_row   E[w_ii w_is] = E[w_ij w_ii] = E[w_ij^2]
      self_neighbor_cross_row  E[w_ii w_ri] = E[w_ii w_rs]
      neighbor_pair_same_row   E[w_ij w_is]; None at n = 2, where one row
                               cannot hold two distinct neighbor weights
      neighbor_pair_cross_row  E[w_ij w_ji] = E[w_ij w_js] = E[w_ij w_ri]
                               = E[w_ij w_rj] = E[w_ij w_rs]

    Rows of W are independent, so cross-row classes factor into products
    of first moments; same-row classes carry the joint degree dependence.
    """

    mean_self: float
    mean_neighbor: float
    self_sq: float
    self_self: float
    self_neighbor_same_row: float
    self_neighbor_cross_row: float
    neighbor_pair_same_row: float | None
    neighbor_pair_cross_row: float


def second_moments(params: ModelParams) -> WeightSecondMoments:
    """A row's moments: E[w_ii] = (1 - q^n)/(n p), the rest from one pass over the degree law."""
    f1 = _one_minus_q_pow(params.p, params.n) / (params.n * params.p)
    g2, off, same, pair_same = _row_degree_moments(params)
    return WeightSecondMoments(
        mean_self=f1,
        mean_neighbor=off,
        self_sq=g2,
        self_self=f1 * f1,
        self_neighbor_same_row=same,
        self_neighbor_cross_row=f1 * off,
        neighbor_pair_same_row=pair_same,
        neighbor_pair_cross_row=off * off,
    )


def _weight_matrix(n: int, m: WeightSecondMoments) -> np.ndarray:
    """E[W] at n nodes from a row's moments m: mean_self on the diagonal, mean_neighbor off it."""
    ew = np.full((n, n), m.mean_neighbor)
    np.fill_diagonal(ew, m.mean_self)
    return ew


def _kron_matrix(n: int, m: WeightSecondMoments) -> np.ndarray:
    """E[W (x) W] at n nodes from a row's moments m; see expected_kron_matrix."""
    out = np.empty((n * n, n * n))
    e = out.reshape(n, n, n, n)  # e[i, r, j, s] = E[w_ij w_rs]
    cross = np.full((n, n), m.neighbor_pair_cross_row)  # [r, s] of e[i, r, j, s], i != r, j != i
    np.fill_diagonal(cross, m.self_neighbor_cross_row)
    e[...] = cross[:, None, :]
    np.einsum("iris->irs", e)[...] = m.self_neighbor_cross_row  # j = i
    np.einsum("irir->ir", e)[...] = m.self_self
    same = np.einsum("iijs->ijs", e)  # r = i: block (i, i), row i's pairs
    same[...] = m.neighbor_pair_same_row or 0.0  # None at n = 2, never kept
    np.einsum("ijj->ij", same)[...] = m.self_neighbor_same_row
    np.einsum("iis->is", same)[...] = m.self_neighbor_same_row
    np.einsum("iji->ij", same)[...] = m.self_neighbor_same_row
    np.einsum("iii->i", same)[...] = m.self_sq
    return out


def expected_weight_matrix(params: ModelParams) -> np.ndarray:
    """E[W]: expected self-weight on the diagonal, uniform off-diagonal.

    Row-stochastic and symmetric, so its left unit eigenvector is the
    uniform distribution, which is what makes the mean of the agreed
    value the plain average of x(0).
    """
    return _weight_matrix(params.n, second_moments(params))


def expected_kron_matrix(params: ModelParams) -> np.ndarray:
    """Dense E[W (x) W], the n^2 x n^2 matrix of entries E[w_ij w_rs].

    Row (i, r) = i*n + r, column (j, s) = j*n + s. Block (i, r), i != r,
    is E[w_i.] (x) E[w_r.]: rows are independent, so each entry is one of
    the three cross-row classes. Block (i, i) holds row i's same-row
    classes. Rejected above DENSE_KRON_LIMIT.

    Write order: first the i-independent pattern, the class of entry
    (r, s) for j != i, in one broadcast copy of an n x n array over i
    and j; then the j = i entries, n runs of n per i; then the n diagonal
    blocks (r = i), each contiguous. So the matrix is written once, in
    runs of n from a source that stays in cache, and only the j = i and
    r = i entries, 2/n of it, a second time, for about the cost of np.full.
    Setting the s = r entries one by one after a fill costs more, as each
    lands in a cold cache line (BENCH_28.json layers_in_process_ms).
    """
    n = params.n
    if n > DENSE_KRON_LIMIT:
        raise ValueError(f"dense assembly capped at n <= {DENSE_KRON_LIMIT}, got {n}")
    return _kron_matrix(n, second_moments(params))


@dataclass(frozen=True)
class PatternMap:
    """Coefficients of the 2x2 map E[W (x) W] induces on pattern vectors.

    A pattern vector holds one value alpha on every (i, r) position with
    i != r and another value beta on the n positions with i == r. Left
    multiplication preserves the pattern:

        alpha' = a * alpha + b * beta
        beta'  = c * alpha + d * beta

    b*c = (1-a)(1-d) holds identically, which is exactly what gives the
    map a unit eigenvalue and the second-moment matrix its closed-form
    left eigenvector with ratio alpha/beta = b/(1-a).

    a and d are stored near 1 at small p, so take 1 - a as c/(n-1) and
    1 - d as (n-1)*b rather than subtracting them from 1.
    """

    a: float
    b: float
    c: float
    d: float


def pattern_map(params: ModelParams) -> PatternMap:
    """The four pattern-map coefficients in terms of the mean weights.

    With f1 = E[w_ii], b = E[w_ij] = (1 - f1)/(n-1) and s = (n f1 + n - 2) b:
    a = 1 - s/(n-1), c = s, d = f1. s is built from b, not from 1 - f1,
    which cancels at small p. Note a < 1; the empirical map extracted
    from the enumerated second-moment matrix fixes this sign (tests
    cover it), and b/(1-a), with 1 - a = s/(n-1), then reproduces rho.
    """
    m = second_moments(params)
    n, f1, b = params.n, m.mean_self, m.mean_neighbor
    scale = (n * f1 + n - 2.0) * b
    return PatternMap(a=1.0 - scale / (n - 1.0), b=b, c=scale, d=f1)


def variance_coefficients(params: ModelParams) -> tuple[float, float]:
    """The pair (rho, delta) parameterizing the variance law.

    rho = p(n-1) / (p(n-2) + 1 - q^n) is the ratio of off-pattern to
    diagonal-pattern mass in the Perron vector of E[W (x) W]; delta =
    n + n(n-1) rho normalizes that vector to a probability distribution.
    0 < rho <= 1, with rho = 1 exactly at p = 1 (zero variance). The
    1 - q^n term is evaluated cancellation-safely, which matters for the
    fixed-expected-degree sweeps where p = c/n gets small.
    """
    n, p = params.n, params.p
    rho = p * (n - 1) / (p * (n - 2) + _one_minus_q_pow(p, n))
    delta = n + n * (n - 1) * rho
    return rho, delta


def kron_left_eigenvector(params: ModelParams) -> np.ndarray:
    """Closed-form left unit (Perron) eigenvector of E[W (x) W].

    Every component equals rho/delta except the n positions i*(n+1)
    (pattern positions (i, i)), which equal 1/delta; components sum to 1.
    """
    n = params.n
    rho, delta = variance_coefficients(params)
    v = np.full(n * n, rho / delta)
    v[np.arange(n) * (n + 1)] = 1.0 / delta
    return v


@dataclass(frozen=True)
class VarianceReport:
    """Closed-form mean/variance of the agreed value for one (n, p, x0).

    x0_dispersion is the unnormalized sum of squares around the mean,
    the quantity the variance law scales by (1 - rho)/delta.
    """

    mean: float
    variance: float
    rho: float
    delta: float
    factor: float
    x0_dispersion: float


def consensus_variance(params: ModelParams, x0) -> VarianceReport:
    """var(x*) = (1 - rho)/delta * sum_i (x_i(0) - mean(x0))^2.

    Zero exactly when p = 1 (rho = 1: the one-step average is
    deterministic) or when x0 is constant. Agrees with the spectral form
    [x0 (x) x0]^T v1(E[W (x) W]) - (mean x0)^2 to rounding; the oracle
    module checks that equality against enumerated moments.
    """
    x0 = _check_x0(x0, params.n)
    rho, delta = variance_coefficients(params)
    # np.add.reduce and d * d are the bits of x0.mean() and np.sum(d ** 2), without their wrappers
    mean = float(np.add.reduce(x0) / x0.size)
    d = x0 - mean
    dispersion = float(np.add.reduce(d * d))
    return VarianceReport(
        mean=mean,
        variance=(1.0 - rho) / delta * dispersion,
        rho=rho,
        delta=delta,
        factor=params.n * (1.0 - rho) / delta,
        x0_dispersion=dispersion,
    )


def variance_factor(params: ModelParams) -> float:
    """n (1 - rho)/delta: variance per unit of normalized x0 dispersion.

    var(x*) = factor * (dispersion / n). Lives in [0, 1), equals 0 at
    p = 1, and for fixed expected degree c (p = c/n) rises steeply just
    above n = c, peaks, then decays like 1/n.
    """
    rho, delta = variance_coefficients(params)
    return params.n * (1.0 - rho) / delta

