"""Tour of the closed-form moment engine.

For averaging dynamics over directed Erdős–Rényi graphs G(n, p), the
agreed value x* is random. Its mean is always the average of the initial
states; its variance has the closed form

    var(x*) = (1 - rho)/delta * sum_i (x_i(0) - mean(x0))^2

with rho = p(n-1)/(p(n-2) + 1 - (1-p)^n) and delta = n + n(n-1) rho.
This script walks the ingredients on a small example.
"""

import numpy as np

from erconsensus import (
    ModelParams,
    consensus_variance,
    expected_kron_matrix,
    expected_weight_matrix,
    kron_left_eigenvector,
    second_moments,
    variance_coefficients,
)

params = ModelParams(n=4, p=0.4)
print(f"model: n = {params.n}, p = {params.p} (q = {params.q})")

m = second_moments(params)
print(f"\nE[w_ii]   = {m.mean_self:.6f}   (expected self-weight, E[1/(d+1)])")
print(f"E[w_ii^2] = {m.self_sq:.6f}   (second moment, E[1/(d+1)^2])")

print("\nE[W] has this self-weight on the diagonal, the rest uniform:")
print(np.array_str(expected_weight_matrix(params), precision=4))

print("\nthe six classes of E[w_ij w_rs]:")
print(f"  self squared            {m.self_sq:.6f}")
print(f"  self x self, two rows   {m.self_self:.6f}")
print(f"  self x neighbor, row    {m.self_neighbor_same_row:.6f}")
print(f"  self x neighbor, cross  {m.self_neighbor_cross_row:.6f}")
print(f"  two neighbors, one row  {m.neighbor_pair_same_row:.6f}")
print(f"  two neighbors, cross    {m.neighbor_pair_cross_row:.6f}")

kron = expected_kron_matrix(params)
print(f"\nassembled E[W (x) W] is {kron.shape[0]} x {kron.shape[1]}; "
      f"row sums all 1 within {np.max(np.abs(kron.sum(axis=1) - 1.0)):.1e}")

rho, delta = variance_coefficients(params)
v = kron_left_eigenvector(params)
residual = np.max(np.abs(v @ kron - v))
print(f"rho = {rho:.6f}, delta = {delta:.6f}")
print(f"closed-form Perron vector of E[W (x) W]: residual {residual:.1e}")

x0 = np.array([0.0, 1.0, 0.25, 0.75])
report = consensus_variance(params, x0)
print(f"\nfor x0 = {x0}:")
print(f"  E[x*]   = {report.mean}")
print(f"  var(x*) = {report.variance:.8f}")
print(f"  factor n(1-rho)/delta = {report.factor:.6f} "
      f"(variance per unit of normalized dispersion)")
