"""Brute-force ground truth for the closed forms.

Walks every one of the 2^(n(n-1)) graph realizations, accumulates the
exact E[W] and E[W (x) W], extracts Perron vectors by power iteration,
and evaluates the agreement-value variance straight from the spectral
identity

    var(x*) = [x0 (x) x0]^T v1(E[W (x) W]) - (x0^T v1(E[W]))^2

so the analytic module has something independent to be measured against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import _weights
from .graphs import ModelParams, _check_x0, decode_adjacency_masks, edge_slots
from .moments import (
    consensus_variance,
    expected_kron_matrix,
    expected_weight_matrix,
    kron_left_eigenvector,
)

__all__ = [
    "ENUM_OPTIONAL_MAX_N",
    "ENUM_REQUIRED_MAX_N",
    "EigenvectorEstimate",
    "OracleReport",
    "enumerate_expected_matrices",
    "exact_variance",
    "left_unit_eigenvector",
    "oracle_report",
    "slem",
]

ENUM_REQUIRED_MAX_N = 4
ENUM_OPTIONAL_MAX_N = 5
POWER_ITERATION_TOL = 1e-13
POWER_ITERATION_CAP = 10**6
_BLOCK = 4096


class _KahanSum:
    """Elementwise compensated accumulator.

    Keeps the error of a ~10^6-term weighted sum near machine epsilon
    instead of growing linearly with the term count.
    """

    def __init__(self, shape: tuple[int, ...]):
        self.total = np.zeros(shape)
        self._comp = np.zeros(shape)

    def add(self, value: np.ndarray) -> None:
        y = value - self._comp
        t = self.total + y
        self._comp = (t - self.total) - y
        self.total = t


def enumerate_expected_matrices(
    params: ModelParams, allow_large: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Exact E[W] and E[W (x) W] by full enumeration.

    Returns (exact_ew, exact_eww) with exact_eww indexed like the dense
    analytic assembly: row (i, r) = i*n + r, column (j, s) = j*n + s,
    entry sum_g P(g) w_ij(g) w_rs(g). Realizations are processed in
    blocks (vectorized weight construction, one matmul per block) and the
    block results merge through compensated summation.

    n <= 4 always works (at most 4096 graphs); n = 5 walks 2^20 graphs
    and must be requested via allow_large.
    """
    n = params.n
    limit = ENUM_OPTIONAL_MAX_N if allow_large else ENUM_REQUIRED_MAX_N
    if n > limit:
        hint = "" if allow_large else " (pass allow_large=True for n = 5)"
        raise ValueError(f"enumeration supports n <= {limit}, got {n}{hint}")

    m = n * (n - 1)
    ew = _KahanSum((n, n))
    eww = _KahanSum((n * n, n * n))
    # Masks of one block differ only in their low bits: decode those once and
    # rewrite the high-bit edges in place (fresh buffers page-fault per block).
    block = min(_BLOCK, 2**m)
    low = block.bit_length() - 1
    adj = decode_adjacency_masks(n, np.arange(block))
    high_slots = [i * n + j for i, j in edge_slots(n)[low:]]
    for start in range(0, 2**m, block):
        adj.reshape(block, n * n)[:, high_slots] = (start >> np.arange(low, m)) & 1
        edges = adj.sum(axis=(1, 2))
        prob = params.p**edges * params.q ** (m - edges)
        w = _weights(adj)
        ew.add(np.tensordot(prob, w, axes=(0, 0)))
        wf = w.reshape(-1, n * n)
        second = (wf * prob[:, None]).T @ wf  # [(i,j),(r,s)] ordering
        eww.add(second.reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n, n * n))
    return ew.total, eww.total


@dataclass(frozen=True, eq=False)
class EigenvectorEstimate:
    """Perron vector estimate with its achieved residual max|v^T M - v^T|."""

    vector: np.ndarray
    residual: float
    iterations: int


def left_unit_eigenvector(
    m,
    tol: float = POWER_ITERATION_TOL,
    max_iterations: int = POWER_ITERATION_CAP,
) -> EigenvectorEstimate:
    """Left unit eigenvector of a positive row-stochastic matrix.

    Power iteration on the transpose from the uniform vector, renormalized
    to sum 1 each step, until max|v^T M - v^T| < tol. Strict positivity
    makes the unit eigenvalue simple (Perron-Frobenius), so the iteration
    converges geometrically; a healthy spectral gap keeps the default cap
    far out of reach.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    if np.max(np.abs(m.sum(axis=1) - 1.0)) > 1e-8:
        raise ValueError("matrix rows must sum to 1")
    size = m.shape[0]
    v = np.full(size, 1.0 / size)
    for iteration in range(1, max_iterations + 1):
        v = v @ m
        v /= v.sum()
        residual = float(np.max(np.abs(v @ m - v)))
        if residual < tol:
            return EigenvectorEstimate(vector=v, residual=residual, iterations=iteration)
    raise RuntimeError(
        f"power iteration residual {residual:.3e} still >= {tol:.1e} "
        f"after {max_iterations} iterations"
    )


def slem(m) -> float:
    """Second largest eigenvalue modulus of a row-stochastic matrix.

    Subunit SLEM of the expected update matrix is the condition for the
    dynamics to agree almost surely; this returns the numerically computed
    value (full eigenvalue set, robust to complex pairs).
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    mods = np.sort(np.abs(np.linalg.eigvals(m)))
    return float(mods[-2])


def _enumerated_variance(params: ModelParams, x0, allow_large: bool):
    """Enumerate, power-iterate, evaluate the spectral identity.

    Returns (E[W], E[W (x) W], v1(E[W (x) W]), variance) with the variance
    [x0 (x) x0]^T v1(E[W (x) W]) - (x0^T v1(E[W]))^2 left unclipped.
    """
    x0 = _check_x0(x0, params.n)
    ew, eww = enumerate_expected_matrices(params, allow_large=allow_large)
    v_small = left_unit_eigenvector(ew).vector
    v_big = left_unit_eigenvector(eww).vector
    variance = float(np.kron(x0, x0) @ v_big) - float(x0 @ v_small) ** 2
    return ew, eww, v_big, variance


def exact_variance(params: ModelParams, x0, allow_large: bool = False) -> float:
    """Agreement-value variance straight from enumerated moments.

    Evaluates [x0 (x) x0]^T v1(E[W (x) W]) - (x0^T v1(E[W]))^2 with both
    Perron vectors obtained by power iteration on the enumerated
    matrices. Can come out a hair below zero from rounding; the raw value
    is returned, never clipped.
    """
    return _enumerated_variance(params, x0, allow_large)[3]


@dataclass(frozen=True, eq=False)
class OracleReport:
    """Enumeration vs closed forms, discrepancies reported unclipped."""

    exact_ew: np.ndarray
    exact_eww: np.ndarray
    exact_variance: float
    closed_form_variance: float
    ew_discrepancy: float
    eww_discrepancy: float
    eigenvector_discrepancy: float
    variance_discrepancy: float

    @property
    def max_abs_discrepancy(self) -> float:
        return max(
            self.ew_discrepancy,
            self.eww_discrepancy,
            self.eigenvector_discrepancy,
            self.variance_discrepancy,
        )


def oracle_report(params: ModelParams, x0, allow_large: bool = False) -> OracleReport:
    """Full side-by-side: enumerated moments against every closed form."""
    ew, eww, v_big, enumerated_variance = _enumerated_variance(params, x0, allow_large)
    closed = consensus_variance(params, x0)
    return OracleReport(
        exact_ew=ew,
        exact_eww=eww,
        exact_variance=enumerated_variance,
        closed_form_variance=closed.variance,
        ew_discrepancy=float(np.max(np.abs(ew - expected_weight_matrix(params)))),
        eww_discrepancy=float(np.max(np.abs(eww - expected_kron_matrix(params)))),
        eigenvector_discrepancy=float(
            np.max(np.abs(v_big - kron_left_eigenvector(params)))
        ),
        variance_discrepancy=abs(enumerated_variance - closed.variance),
    )
