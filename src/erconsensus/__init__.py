"""Consensus over switching directed Erdős–Rényi graphs.

Averaging dynamics x(k) = W_k x(k-1) with a fresh random graph every
step drive all states to a common random value. This package computes
the closed-form mean and variance of that value from (n, p, x0), and
ships two independent validation routes: exact enumeration of one
node's out-neighbour sets and seeded Monte Carlo simulation.
"""

from .dynamics import ConsensusOutcome, NonConvergenceError, run_consensus
from .graphs import GraphSeed, ModelParams
from .moments import (
    PatternMap,
    VarianceReport,
    WeightSecondMoments,
    consensus_mean,
    consensus_variance,
    expected_kron_matrix,
    expected_neighbor_weight,
    expected_self_weight,
    expected_self_weight_sq,
    expected_weight_matrix,
    kron_apply_left,
    kron_left_eigenvector,
    pattern_map,
    peak_size,
    second_moments,
    variance_coefficients,
    variance_factor,
)
from .montecarlo import (
    EnsembleStats,
    ExperimentConfig,
    FactorRow,
    SweepRow,
    factor_sweep,
    jackknife_variance_stderr,
    resolve_x0,
    run_ensemble,
    sweep_fixed_degree,
)
from .oracle import (
    EigenvectorEstimate,
    OracleReport,
    enumerate_expected_matrices,
    exact_variance,
    left_unit_eigenvector,
    oracle_report,
    slem,
)

__version__ = "0.1.0"

__all__ = [
    "ConsensusOutcome",
    "EigenvectorEstimate",
    "EnsembleStats",
    "ExperimentConfig",
    "FactorRow",
    "GraphSeed",
    "ModelParams",
    "NonConvergenceError",
    "OracleReport",
    "PatternMap",
    "SweepRow",
    "VarianceReport",
    "WeightSecondMoments",
    "consensus_mean",
    "consensus_variance",
    "enumerate_expected_matrices",
    "exact_variance",
    "expected_kron_matrix",
    "expected_neighbor_weight",
    "expected_self_weight",
    "expected_self_weight_sq",
    "expected_weight_matrix",
    "factor_sweep",
    "jackknife_variance_stderr",
    "kron_apply_left",
    "kron_left_eigenvector",
    "left_unit_eigenvector",
    "oracle_report",
    "pattern_map",
    "peak_size",
    "resolve_x0",
    "run_consensus",
    "run_ensemble",
    "second_moments",
    "slem",
    "sweep_fixed_degree",
    "variance_coefficients",
    "variance_factor",
]
