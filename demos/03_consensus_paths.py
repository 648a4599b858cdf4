"""Watching single runs agree, and an ensemble match the variance law.

Every step draws a fresh graph, so each run lands on its own random
value inside the hull of x0; a single run is run_block with one
replication. A run stops once the norm of x - mean(x), sqrt(S), is
below tol times that of x0; across many runs the values scatter around
mean(x0) with the closed-form variance, once the sample variance is
corrected for the dispersion S left at the stops.
"""

import numpy as np

from erconsensus import (
    ExperimentConfig,
    GraphSeed,
    ModelParams,
    consensus_variance,
    run_block,
    run_ensemble,
)

params = ModelParams(n=8, p=0.3)
x0 = np.arange(1, 9) / 8.0

print("three single paths (same model, different streams):")
for stream in range(3):
    (value,), (steps,), (dispersion,) = run_block(params, x0, 1, GraphSeed(42, stream).generator())
    print(f"  stream {stream}: x* = {value:.8f} after {steps} steps (final sqrt(S) {np.sqrt(dispersion):.1e})")

print("\none path, stopped at ever smaller norms (the same stream every time):")
for exponent in range(1, 11):
    (value,), (steps,), _ = run_block(params, x0, 1, GraphSeed(7).generator(), tol=10.0**-exponent)
    print(f"  sqrt(S) < 1e-{exponent:02d} x sqrt(S(x0)) after {steps:3d} steps, x = {value:.10f}")

report = consensus_variance(params, x0)
cfg = ExperimentConfig(params=params, x0_spec=x0, reps=4000, seed=GraphSeed(2))
stats = run_ensemble(cfg)
z = (stats.variance - report.variance) / stats.stderr_variance
print(f"\nensemble of {cfg.reps} runs:")
print(f"  mean(x*)      {stats.mean:.6f}   predicted {report.mean:.6f}")
print(f"  var(x*)       {stats.variance:.6e} predicted {report.variance:.6e}")
print(f"  z-score of the variance gap: {z:+.2f} (jackknife SE {stats.stderr_variance:.1e})")
print(f"  share of S(x0) left at the stops, corrected for: {stats.stop_share:.2%}")
