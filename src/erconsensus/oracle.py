"""Enumerated ground truth for the closed forms.

Enumerates every out-neighbour set of one node, builds the exact E[W]
and E[W (x) W] from them, extracts Perron vectors by power iteration,
and evaluates the agreement-value variance straight from the spectral
identity

    var(x*) = [x0 (x) x0]^T v1(E[W (x) W]) - (x0^T v1(E[W]))^2

so the analytic module has something independent to be measured against.
The only model facts used are that rows of W are independent and that
relabelling nodes maps one row's distribution onto every other's
(moments._relabel); no entry class or binomial moment is used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import _check_budget, _weights
from .graphs import ModelParams, _check_x0
from .moments import (
    _relabel,
    consensus_variance,
    expected_kron_matrix,
    expected_weight_matrix,
    kron_left_eigenvector,
)

__all__ = [
    "ENUM_MAX_N",
    "EigenvectorEstimate",
    "OracleReport",
    "enumerate_expected_matrices",
    "exact_variance",
    "left_unit_eigenvector",
    "oracle_report",
    "slem",
]

# Measured on a 2-CPU VM: the 2^15 sets at n = 16 take 0.13 s and 82 MiB
# of peak memory; each further node doubles both.
ENUM_MAX_N = 16
POWER_ITERATION_TOL = 1e-13
POWER_ITERATION_CAP = 10**6


def enumerate_expected_matrices(params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Exact E[W] and E[W (x) W] from the 2^(n-1) out-neighbour sets of node 0.

    Returns (exact_ew, exact_eww) with exact_eww indexed like the dense
    analytic assembly: row (i, r) = i*n + r, column (j, s) = j*n + s,
    entry E[w_ij w_rs]. Each set with k neighbours has probability
    p^k q^(n-1-k) and its weights come from the model's weight rule;
    that gives m1 = E[w_0.] and m2 = E[w_0j w_0s]. Swapping labels 0 and
    i carries them to row i. Distinct rows are independent, so block
    (i, r) of E[W (x) W] is E[w_i.] (x) E[w_r.] for i != r.
    """
    n = params.n
    if n > ENUM_MAX_N:
        raise ValueError(f"n must be <= {ENUM_MAX_N} for enumeration, got {n}")
    sets = np.arange(2 ** (n - 1))[:, None] >> np.arange(n - 1) & 1
    adj = np.zeros((len(sets), n, n), dtype=bool)
    adj[:, 0, 1:] = sets
    degree = sets.sum(axis=1)
    prob = params.p**degree * params.q ** (n - 1 - degree)
    rows = _weights(adj)[:, 0]
    m1 = prob @ rows
    m2 = (rows * prob[:, None]).T @ rows
    ew = _relabel(m1)
    eww = np.einsum("ij,rs->irjs", ew, ew)
    nodes = np.arange(n)
    swap = _relabel(nodes)
    eww[nodes, nodes] = m2[swap[:, :, None], swap[:, None, :]]
    return ew, eww.reshape(n * n, n * n)


@dataclass(frozen=True, eq=False)
class EigenvectorEstimate:
    """Perron vector estimate with its achieved residual max|v^T M - v^T|."""

    vector: np.ndarray
    residual: float
    iterations: int


def _square(m, min_size: int) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < min_size:
        raise ValueError(f"matrix must be square with >= {min_size} rows, got shape {m.shape}")
    return m


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
    far out of reach. A bad tol or max_iterations is rejected up front.
    """
    m = _square(m, 1)
    _check_budget(tol, "max_iterations", max_iterations)
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
    value (full eigenvalue set, robust to complex pairs). A 1 x 1 matrix
    has no second eigenvalue and is rejected.
    """
    m = _square(m, 2)
    mods = np.sort(np.abs(np.linalg.eigvals(m)))
    return float(mods[-2])


def _enumerated_variance(params: ModelParams, x0):
    """Enumerate, power-iterate, evaluate the spectral identity.

    Returns (E[W], E[W (x) W], v1(E[W (x) W]), variance) with the variance
    [x0 (x) x0]^T v1(E[W (x) W]) - (x0^T v1(E[W]))^2 left unclipped.
    """
    x0 = _check_x0(x0, params.n)
    ew, eww = enumerate_expected_matrices(params)
    v_small = left_unit_eigenvector(ew).vector
    v_big = left_unit_eigenvector(eww).vector
    variance = float(np.kron(x0, x0) @ v_big) - float(x0 @ v_small) ** 2
    return ew, eww, v_big, variance


def exact_variance(params: ModelParams, x0) -> float:
    """Agreement-value variance straight from enumerated moments.

    Evaluates [x0 (x) x0]^T v1(E[W (x) W]) - (x0^T v1(E[W]))^2 with both
    Perron vectors obtained by power iteration on the enumerated
    matrices. Can come out a hair below zero from rounding; the raw value
    is returned, never clipped.
    """
    return _enumerated_variance(params, x0)[3]


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
    """Full side-by-side: enumerated moments against every closed form.

    allow_large is accepted and ignored: every n <= ENUM_MAX_N is enumerated.
    """
    ew, eww, v_big, enumerated_variance = _enumerated_variance(params, x0)
    closed = consensus_variance(params, x0)
    return OracleReport(
        exact_ew=ew,
        exact_eww=eww,
        exact_variance=enumerated_variance,
        closed_form_variance=closed.variance,
        ew_discrepancy=float(np.max(np.abs(ew - expected_weight_matrix(params)))),
        eww_discrepancy=float(np.max(np.abs(eww - expected_kron_matrix(params)))),
        eigenvector_discrepancy=float(np.max(np.abs(v_big - kron_left_eigenvector(params)))),
        variance_discrepancy=abs(enumerated_variance - closed.variance),
    )
