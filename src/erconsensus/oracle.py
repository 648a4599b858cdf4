"""Enumerated ground truth for the closed forms.

Enumerates every out-neighbour set of one node, builds the exact E[W]
and E[W (x) W] from them, solves one linear system for each Perron
vector, and evaluates the agreement-value variance straight from the
spectral identity

    var(x*) = [x0 (x) x0]^T v1(E[W (x) W]) - (x0^T v1(E[W]))^2

taken at x0 - mean(x0), to which it is invariant, so the analytic
module has something independent to be measured against. The only
model facts used are the weight rule, that rows of W are independent
and that relabelling nodes maps one row's distribution onto every
other's (moments._relabel); no entry class or binomial moment is used,
and no code is shared with the simulator in dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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

# Measured on a 2-CPU VM: the 2^15 sets at n = 16 take 11-17 ms and 14 MiB
# (42 MiB peak in a fresh process); each further node about doubles both.
ENUM_MAX_N = 16


def enumerate_expected_matrices(params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Exact E[W] and E[W (x) W] from the 2^(n-1) out-neighbour sets of node 0.

    Returns (ew, eww) with eww indexed like the dense
    analytic assembly: row (i, r) = i*n + r, column (j, s) = j*n + s,
    entry E[w_ij w_rs]. Each set with d neighbours has probability
    p^d q^(n-1-d) and, by the model's weight rule, row-0 weights
    w_0j = ([j == 0] + a_0j)/(d + 1); that gives m1 = E[w_0.] and
    m2 = E[w_0j w_0s]. Swapping labels 0 and i carries them to row i.
    Distinct rows are independent, so block (i, r) of E[W (x) W] is
    E[w_i.] (x) E[w_r.] for i != r.
    """
    n = params.n
    if n > ENUM_MAX_N:
        raise ValueError(f"n must be <= {ENUM_MAX_N} for enumeration, got {n}")
    sets = np.arange(2 ** (n - 1))[:, None] >> np.arange(n - 1) & 1
    degree = sets.sum(axis=1)
    prob = params.p**degree * params.q ** (n - 1 - degree)
    rows = np.column_stack([np.ones(len(sets)), sets]) / (degree + 1)[:, None]
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
    """Perron vector, its residual max|v^T M - v^T| and the solves taken (always 1)."""

    vector: np.ndarray
    residual: float
    iterations: int


def _row_stochastic(m, min_size: int) -> np.ndarray:
    """m as a float array, checked to be square with >= min_size rows, finite, >= 0 and with rows summing to 1."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < min_size:
        raise ValueError(f"matrix must be square with >= {min_size} rows, got shape {m.shape}")
    if not (np.isfinite(m).all() and m.min() >= 0.0):
        raise ValueError("matrix entries must be finite and >= 0")
    if np.max(np.abs(m.sum(axis=1) - 1.0)) > 1e-8:
        raise ValueError("matrix rows must sum to 1")
    return m


def _closed_classes(m: np.ndarray) -> int:
    """The number of closed classes of m's support graph, with an edge i -> j where m_ij > 0.

    The support of (I + M)^(2^k) is reachability within 2^k steps, so
    ceil(log2(n - 1)) boolean squarings give full reachability. A state
    that every state reaches lies in every closed class, so finding one
    ends the count at 1 (a positive M at once, with no squaring).
    Otherwise a state is in a closed class when every state it reaches
    reaches it back, and its class is its row of the reachability.
    """
    reach = (m > 0.0) | np.eye(len(m), dtype=bool)
    span = 1  # reach holds the paths of up to span steps
    while not reach.all(axis=0).any():
        if span >= len(m) - 1:
            closed = ~(reach & ~reach.T).any(axis=1)
            return len(np.unique(reach[closed], axis=0))
        paths = reach.astype(float)
        reach = paths @ paths > 0.0
        span *= 2
    return 1


def left_unit_eigenvector(m) -> EigenvectorEstimate:
    """Left unit eigenvector (stationary distribution) of a row-stochastic matrix.

    One linear solve, A v = e_last: A is M^T with each diagonal entry set
    to minus its column's off-diagonal sum, so 1 - m_jj has no cancellation
    even within rounding of I (Grassmann, Taksar & Heyman, Oper. Res. 33(5),
    1985), and the last row of A holds ones, so sum(v) = 1. M's entries
    must be finite and >= 0 and its rows sum to 1. M needs one closed
    class, as a positive M has; with several the unit eigenvalue is
    not simple, and ValueError names their count, found on M's support
    graph before any solve. A system that is still singular, or a
    solution with a negative entry, raises ValueError too.
    """
    m = _row_stochastic(m, 1)
    classes = _closed_classes(m)
    if classes > 1:
        raise ValueError(f"matrix has {classes} closed classes: its unit eigenvalue is not simple")
    a = m.T.copy()
    np.fill_diagonal(a, 0.0)
    np.fill_diagonal(a, -a.sum(axis=0))
    a[-1] = 1.0
    rhs = np.zeros(len(a))
    rhs[-1] = 1.0
    try:
        v = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError:
        v = None
    # A negative entry means the system was singular to rounding.
    if v is None or v.min() < -1e-8:
        raise ValueError("matrix is singular: its unit eigenvalue is not simple")
    residual = float(np.max(np.abs(v @ m - v)))
    return EigenvectorEstimate(vector=v, residual=residual, iterations=1)


def slem(m) -> float:
    """Second largest eigenvalue modulus of a row-stochastic matrix.

    Subunit SLEM of the expected update matrix is the condition for the
    dynamics to agree almost surely; this returns the numerically computed
    value (full eigenvalue set, robust to complex pairs). M's entries
    must be finite and >= 0 and its rows sum to 1. A 1 x 1 matrix has no
    second eigenvalue and is rejected.
    """
    m = _row_stochastic(m, 2)
    mods = np.sort(np.abs(np.linalg.eigvals(m)))
    return float(mods[-2])


def _enumerated_variance(params: ModelParams, x0):
    """Enumerate, solve for both Perron vectors, evaluate the spectral identity.

    Returns (E[W], E[W (x) W], the estimates of v1(E[W]) and
    v1(E[W (x) W]), variance) with the variance left unclipped. It is
    evaluated on x0 - mean(x0): every v1 sums to 1, so the identity is
    translation-invariant, and centring keeps a large common offset of x0
    from cancelling terms of size ||x0||^2.
    """
    x0 = _check_x0(x0, params.n)
    centred = x0 - x0.mean()
    ew, eww = enumerate_expected_matrices(params)
    small = left_unit_eigenvector(ew)
    big = left_unit_eigenvector(eww)
    variance = float(np.kron(centred, centred) @ big.vector) - float(centred @ small.vector) ** 2
    return ew, eww, small, big, variance


def exact_variance(params: ModelParams, x0) -> float:
    """Agreement-value variance straight from enumerated moments.

    Evaluates [c (x) c]^T v1(E[W (x) W]) - (c^T v1(E[W]))^2 for the
    centred c = x0 - mean(x0), which equals the spectral identity at x0
    itself, with both Perron vectors solved for on the enumerated
    matrices. Can come out a hair below zero from rounding; the raw value
    is returned, never clipped.
    """
    return _enumerated_variance(params, x0)[4]


@dataclass(frozen=True, eq=False)
class OracleReport:
    """Enumeration vs closed forms, discrepancies reported unclipped.

    ew_residual and eww_residual are the solve residuals max|v^T M - v^T|
    of the Perron vectors of the enumerated E[W] and E[W (x) W]; the
    matrices themselves are enumerate_expected_matrices(params).
    """

    exact_variance: float
    closed_form_variance: float
    ew_discrepancy: float
    eww_discrepancy: float
    eigenvector_discrepancy: float
    variance_discrepancy: float
    ew_residual: float
    eww_residual: float

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
    ew, eww, small, big, enumerated_variance = _enumerated_variance(params, x0)
    closed = consensus_variance(params, x0)
    return OracleReport(
        exact_variance=enumerated_variance,
        closed_form_variance=closed.variance,
        ew_discrepancy=float(np.max(np.abs(ew - expected_weight_matrix(params)))),
        eww_discrepancy=float(np.max(np.abs(eww - expected_kron_matrix(params)))),
        eigenvector_discrepancy=float(np.max(np.abs(big.vector - kron_left_eigenvector(params)))),
        variance_discrepancy=abs(enumerated_variance - closed.variance),
        ew_residual=small.residual,
        eww_residual=big.residual,
    )
