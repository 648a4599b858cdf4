"""Exact enumeration as ground truth for the closed forms.

Rows of W are independent, and relabelling nodes maps one row's
distribution onto every other's. So the 2^(n-1) out-neighbour sets of a
single node give E[W] and E[W (x) W] exactly, with no formulas at all:
weight each set's row of W by its probability and sum. This script does
exactly that and measures the closed forms against it, at a small n and
at n = 10, far beyond a walk over all 2^(n(n-1)) graphs.
"""

import numpy as np

from erconsensus import (
    ModelParams,
    consensus_variance,
    exact_variance,
    expected_kron_matrix,
    expected_weight_matrix,
    kron_left_eigenvector,
    left_unit_eigenvector,
    enumerate_expected_matrices,
    oracle_report,
    resolve_x0,
    slem,
)

params = ModelParams(n=3, p=0.35)
ew, eww = enumerate_expected_matrices(params)
# Every W is row-stochastic, so a row of E[W] sums to the total probability.
total_error = np.max(np.abs(ew.sum(axis=1) - 1.0))
print(f"n = {params.n}, p = {params.p}: 2^{params.n - 1} = {2 ** (params.n - 1)} "
      f"out-neighbour sets per node, probabilities sum to 1 within {total_error:.1e}")
print(f"\nenumerated E[W] vs closed form:        "
      f"max |diff| = {np.max(np.abs(ew - expected_weight_matrix(params))):.2e}")
print(f"enumerated E[W (x) W] vs closed form:  "
      f"max |diff| = {np.max(np.abs(eww - expected_kron_matrix(params))):.2e}")

estimate = left_unit_eigenvector(eww)
gap = np.max(np.abs(estimate.vector - kron_left_eigenvector(params)))
print(f"solved Perron vector vs closed form: max |diff| = {gap:.2e} "
      f"(one linear solve, residual {estimate.residual:.1e})")

x0 = np.array([0.0, 0.5, 1.0])
enumerated = exact_variance(params, x0)
closed = consensus_variance(params, x0).variance
print(f"\nvariance of x* for x0 = {x0}:")
print(f"  spectral identity on enumerated moments: {enumerated:.12f}")
print(f"  closed form (1-rho)/delta * dispersion:  {closed:.12f}")
print(f"  |difference| = {abs(enumerated - closed):.2e}")

print(f"\nconvergence precondition: slem(E[W]) = {slem(ew):.6f} < 1")

large = ModelParams(n=10, p=0.5)
report = oracle_report(large, resolve_x0("ramp", large.n))
print(f"\nn = {large.n}, p = {large.p}: 2^{large.n - 1} sets per node stand in for "
      f"2^{large.n * (large.n - 1)} graphs; worst discrepancy against the closed "
      f"forms = {report.max_abs_discrepancy:.2e}")
if report.max_abs_discrepancy > 1e-10:
    raise SystemExit("enumeration and closed forms disagree beyond 1e-10")
