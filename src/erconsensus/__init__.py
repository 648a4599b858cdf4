"""Consensus over switching directed Erdős–Rényi graphs.

Averaging dynamics x(k) = W_k x(k-1) with a fresh random graph every
step drive all states to a common random value. This package computes
the closed-form mean and variance of that value from (n, p, x0), and
ships two independent validation routes: exact enumeration of one
node's out-neighbour sets and seeded Monte Carlo simulation.
"""

from .dynamics import NonConvergenceError, run_block
from .graphs import GraphSeed, ModelParams
from .moments import (
    consensus_variance,
    expected_kron_matrix,
    expected_weight_matrix,
    kron_left_eigenvector,
    pattern_map,
    second_moments,
    variance_coefficients,
    variance_factor,
)
from .montecarlo import (
    EnsembleStats,
    ExperimentConfig,
    factor_sweep,
    resolve_x0,
    run_ensemble,
    sweep_fixed_degree,
)
from .oracle import (
    OracleReport,
    enumerate_expected_matrices,
    exact_variance,
    left_unit_eigenvector,
    oracle_report,
    slem,
)

__version__ = "0.1.0"

__all__ = [
    "EnsembleStats",
    "ExperimentConfig",
    "GraphSeed",
    "ModelParams",
    "NonConvergenceError",
    "OracleReport",
    "consensus_variance",
    "enumerate_expected_matrices",
    "exact_variance",
    "expected_kron_matrix",
    "expected_weight_matrix",
    "factor_sweep",
    "kron_left_eigenvector",
    "left_unit_eigenvector",
    "oracle_report",
    "pattern_map",
    "resolve_x0",
    "run_block",
    "run_ensemble",
    "second_moments",
    "slem",
    "sweep_fixed_degree",
    "variance_coefficients",
    "variance_factor",
]
