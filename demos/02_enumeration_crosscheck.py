"""Exhaustive enumeration as ground truth for the closed forms.

For n <= 4 every one of the 2^(n(n-1)) graph realizations can be walked,
so E[W] and E[W (x) W] are computable with no formulas at all: weight
each realization's W and W (x) W by its probability and sum. This script
does exactly that and measures the closed forms against it.
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
    slem,
)

params = ModelParams(n=3, p=0.35)
ew, eww = enumerate_expected_matrices(params)
# Every W is row-stochastic, so a row of E[W] sums to the total probability.
total_error = np.max(np.abs(ew.sum(axis=1) - 1.0))
print(f"n = {params.n}, p = {params.p}: 2^{params.n * (params.n - 1)} = "
      f"{2 ** (params.n * (params.n - 1))} realizations, probabilities sum to 1 "
      f"within {total_error:.1e}")
print(f"\nenumerated E[W] vs closed form:        "
      f"max |diff| = {np.max(np.abs(ew - expected_weight_matrix(params))):.2e}")
print(f"enumerated E[W (x) W] vs closed form:  "
      f"max |diff| = {np.max(np.abs(eww - expected_kron_matrix(params))):.2e}")

estimate = left_unit_eigenvector(eww)
gap = np.max(np.abs(estimate.vector - kron_left_eigenvector(params)))
print(f"power-iterated Perron vector vs closed form: max |diff| = {gap:.2e} "
      f"({estimate.iterations} iterations, residual {estimate.residual:.1e})")

x0 = np.array([0.0, 0.5, 1.0])
enumerated = exact_variance(params, x0)
closed = consensus_variance(params, x0).variance
print(f"\nvariance of x* for x0 = {x0}:")
print(f"  spectral identity on enumerated moments: {enumerated:.12f}")
print(f"  closed form (1-rho)/delta * dispersion:  {closed:.12f}")
print(f"  |difference| = {abs(enumerated - closed):.2e}")

print(f"\nconvergence precondition: slem(E[W]) = {slem(ew):.6f} < 1")
