"""The three benchmark workloads: inputs from a seed, a timed body, output checks.

Each workload has
  warmup()   a small call of the same code, run before timing;
  run()      the timed body: calls into the package and nothing else;
  check(out) every output of run() checked -> a PassResult.

fig1-sweep        the criterion-6 sweep (c = 5, n = 5..50, ramp x0) through
                  `erconsensus.cli.main(["fig1", ...])` at threads = 1. Small
                  steps, so per-step Python overhead in dynamics, the per-
                  replication generators of graphs and the ensemble loop of
                  montecarlo do nearly all the work.
large-n-ensemble  `run_ensemble` at c = 5, n in {100, 200, 400}, ramp x0,
                  threads = 2. Each step is O(n^2) numpy work that releases
                  the GIL, so kernel changes and thread scaling show here and
                  per-step Python overhead is a small share.
exact-check       no sampling: the enumeration oracle over the acceptance
                  p-grid, the dense E[W (x) W] at n = 60 against its closed-form
                  Perron vector, the factor sweep and a grid of the closed-form
                  variance. oracle and moments do all the work.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
from dataclasses import dataclass, field

import numpy as np

from erconsensus import cli, dynamics, graphs, montecarlo, moments, oracle

MODULES = (graphs, dynamics, montecarlo, moments, oracle, cli)

C = 5.0
ORACLE_THRESHOLD = 1e-10  # the same threshold the CLI's oracle command applies
P_GRID = (0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0)  # the acceptance checklist's p-grid
MEAN_FLOOR = 1e-12  # the p = 1 row has zero standard error; means then differ by rounding


@dataclass
class PassResult:
    """Checked outcome of one run() call."""

    ops: int
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    digest: str = ""
    rows: int = 0
    rows_within_4se: int = 0

    def expect(self, condition: bool, message: str) -> None:
        if not condition:
            self.failed += 1
            self.failures.append(message)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _within_4se(mean: float, target: float, variance: float, reps: int) -> bool:
    return abs(mean - target) <= 4.0 * math.sqrt(max(variance, 0.0) / reps) + MEAN_FLOOR


class Fig1Sweep:
    name = "fig1-sweep"
    threads = 1
    calibration = (20, 40000)  # (n, steps) of run.calibration_kernel: about a fifth of a pass

    def __init__(self, seed: int, reps: int = 100, n_max: int = 50):
        self.seed, self.reps = seed, reps
        self.sizes = range(int(C), n_max + 1)

    def _argv(self, sizes, reps, seed):
        return [
            "fig1", "--c", str(C), "--n-min", str(sizes[0]), "--n-max", str(sizes[-1]),
            "--reps", str(reps), "--seed", str(seed), "--threads", str(self.threads),
        ]

    def warmup(self) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(self._argv(range(5, 9), 5, 0))

    def run(self):
        # The CSV holds no means, so the sweep rows are kept as well: one
        # extra call per sweep, not per replication.
        captured = []
        sweep = cli.sweep_fixed_degree

        def keep_rows(*args, **kwargs):
            captured.append(sweep(*args, **kwargs))
            return captured[-1]

        cli.sweep_fixed_degree = keep_rows
        try:
            with contextlib.redirect_stdout(io.StringIO()) as out:
                code = cli.main(self._argv(self.sizes, self.reps, self.seed))
        finally:
            cli.sweep_fixed_degree = sweep
        return code, out.getvalue(), captured[0] if captured else None

    def check(self, output) -> PassResult:
        code, text, rows = output
        res = PassResult(ops=self.reps * len(self.sizes), digest=digest(text.encode()))
        if code != 0 or rows is None:
            res.failed = res.ops
            res.failures.append(f"fig1 exited with code {code}")
            return res
        lines = text.split("\n")
        res.expect(lines[0] == cli.FIG1_HEADER, f"fig1 header {lines[0]!r}")
        res.expect(text == cli.render_fig1_csv(rows), "fig1 CSV differs from the sweep rows")
        body = [line.split(",") for line in lines[1:] if line]
        res.expect([int(f[0]) for f in body] == list(self.sizes), "fig1 rows are not n = 5..50")
        for fields, row in zip(body, rows):
            n, p = int(fields[0]), float(fields[1])
            analytic, empirical, stderr = map(float, fields[2:5])
            params = graphs.ModelParams(n, p)
            x0 = montecarlo.resolve_x0("ramp", n)
            closed = moments.consensus_variance(params, x0)
            res.expect(p == (1.0 if n == C else C / n), f"n={n}: p = {p!r}")
            res.expect(analytic == closed.variance, f"n={n}: analytic_variance != consensus_variance")
            res.expect(np.isfinite(empirical) and empirical >= 0.0, f"n={n}: empirical variance {empirical!r}")
            res.expect(np.isfinite(stderr) and stderr >= 0.0, f"n={n}: stderr {stderr!r}")
            res.expect(
                _within_4se(row.empirical_mean, closed.mean, closed.variance, row.reps_used),
                f"n={n}: empirical mean {row.empirical_mean!r} not within 4 SE of {closed.mean!r}",
            )
            if row.reps_used != self.reps:  # each dropped replication is a failed op
                res.failed += self.reps - row.reps_used
                res.failures.append(f"n={n}: {self.reps - row.reps_used} replications did not converge")
            res.rows += 1
            res.rows_within_4se += abs(empirical - analytic) <= 4.0 * stderr
        return res


class LargeNEnsemble:
    name = "large-n-ensemble"
    threads = 2
    calibration = (200, 1600)

    def __init__(self, seed: int, reps: int = 40, sizes=(100, 200, 400)):
        self.seed, self.reps, self.sizes = seed, reps, tuple(sizes)

    def _config(self, n: int, reps: int, seed: int):
        return montecarlo.ExperimentConfig(
            params=graphs.ModelParams(n, C / n),
            x0_spec="ramp",
            reps=reps,
            seed=graphs.GraphSeed(seed, stream=n),
        )

    def warmup(self) -> None:
        montecarlo.run_ensemble(self._config(20, 4, 0), threads=self.threads)

    def run(self):
        results = []
        for n in self.sizes:
            try:
                results.append(montecarlo.run_ensemble(self._config(n, self.reps, self.seed), threads=self.threads))
            except dynamics.NonConvergenceError as exc:
                results.append(exc)
        return results

    def check(self, output) -> PassResult:
        text = "\n".join(
            repr(r) if isinstance(r, Exception) else
            f"{r.mean!r},{r.variance!r},{r.stderr_variance!r},{r.reps_used},{r.nonconverged}"
            for r in output
        )
        res = PassResult(ops=self.reps * len(self.sizes), digest=digest(text.encode()))
        for n, stats in zip(self.sizes, output):
            if isinstance(stats, Exception):
                res.failed += self.reps
                res.failures.append(f"n={n}: {stats}")
                continue
            closed = moments.consensus_variance(graphs.ModelParams(n, C / n), montecarlo.resolve_x0("ramp", n))
            res.expect(np.isfinite(stats.variance) and stats.variance >= 0.0, f"n={n}: variance {stats.variance!r}")
            res.expect(
                _within_4se(stats.mean, closed.mean, closed.variance, stats.reps_used),
                f"n={n}: empirical mean {stats.mean!r} not within 4 SE of {closed.mean!r}",
            )
            if stats.reps_used != self.reps:
                res.failed += self.reps - stats.reps_used
                res.failures.append(f"n={n}: {self.reps - stats.reps_used} replications did not converge")
            res.rows += 1
            res.rows_within_4se += abs(stats.variance - closed.variance) <= 4.0 * stats.stderr_variance
        return res


def _reference_factor(n: int, p: float) -> float:
    """n (1 - rho)/delta straight from the published formulas, in plain floats."""
    rho = p * (n - 1) / (p * (n - 2) + 1.0 - (1.0 - p) ** n)
    delta = n + n * (n - 1) * rho
    return n * (1.0 - rho) / delta


def _close(a: float, b: float, rtol: float = 1e-12, atol: float = 1e-15) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + atol


class ExactCheck:
    name = "exact-check"
    threads = 1
    calibration = (60, 10000)

    def __init__(self, seed: int, oracle_sizes=(2, 3, 4), large_n: int | None = 5,
                 kron_n: int = 60, factor_n_max: int = 70, variance_n_max: int = 50):
        rng = np.random.default_rng(seed)
        self.oracle_cases = [(n, p, rng.random(n)) for n in oracle_sizes for p in P_GRID]
        if large_n is not None:
            self.oracle_cases.append((large_n, 0.5, rng.random(large_n)))
        self.kron = graphs.ModelParams(kron_n, C / kron_n)
        self.factor_c = range(5, 11)
        self.factor_n = range(5, factor_n_max + 1)
        self.variance_cases = [
            (graphs.ModelParams(n, p), rng.normal(size=n))
            for n in range(2, variance_n_max + 1) for p in P_GRID
        ]
        self.tracer = None  # set while traced: each check then gets its own op id

    @property
    def ops(self) -> int:
        return len(self.oracle_cases) + 2 + len(self.variance_cases)

    def _op(self) -> None:
        if self.tracer is not None:
            self.tracer.new_op()

    def warmup(self) -> None:
        oracle.oracle_report(graphs.ModelParams(3, 0.5), np.arange(3.0))
        moments.expected_kron_matrix(graphs.ModelParams(6, 0.5))
        montecarlo.factor_sweep([5], range(5, 8))

    def run(self):
        reports = []
        for n, p, x0 in self.oracle_cases:
            self._op()
            try:
                reports.append(oracle.oracle_report(graphs.ModelParams(n, p), x0, allow_large=n > 4))
            except (ValueError, RuntimeError) as exc:
                reports.append(exc)
        self._op()
        matrix = moments.expected_kron_matrix(self.kron)
        vector = moments.kron_left_eigenvector(self.kron)
        self._op()
        factors = montecarlo.factor_sweep(self.factor_c, self.factor_n)
        variances = []
        for params, x0 in self.variance_cases:
            self._op()
            variances.append(moments.consensus_variance(params, x0))
        if self.tracer is not None:
            self.tracer.op = None
        return reports, (matrix, vector), factors, variances

    def check(self, output) -> PassResult:
        reports, (matrix, vector), factors, variances = output
        res = PassResult(ops=self.ops)
        for (n, p, _), report in zip(self.oracle_cases, reports):
            worst = report if isinstance(report, Exception) else report.max_abs_discrepancy
            res.expect(
                not isinstance(worst, Exception) and worst < ORACLE_THRESHOLD,
                f"oracle n={n} p={p}: discrepancy {worst}",
            )
        size = self.kron.n ** 2
        residual = float(np.max(np.abs(vector @ matrix - vector)))
        res.expect(
            matrix.shape == (size, size)
            and float(np.max(np.abs(matrix.sum(axis=1) - 1.0))) < 1e-12
            and abs(float(vector.sum()) - 1.0) < 1e-12
            and residual < 1e-12,
            f"E[W (x) W] at n={self.kron.n}: eigenvector residual {residual:.3e}",
        )
        expected_rows = [(c, n) for c in self.factor_c for n in self.factor_n if n >= c]
        res.expect(
            [(row.c, row.n) for row in factors] == expected_rows
            and all(_close(row.factor, _reference_factor(row.n, min(1.0, row.c / row.n))) for row in factors),
            "factor_sweep rows differ from n(1 - rho)/delta",
        )
        for (params, x0), report in zip(self.variance_cases, variances):
            reference = _reference_factor(params.n, params.p) / params.n * float(np.sum((x0 - x0.mean()) ** 2))
            res.expect(
                _close(report.mean, float(x0.mean()), atol=1e-12) and _close(report.variance, reference),
                f"consensus_variance n={params.n} p={params.p}: {report.variance!r} vs {reference!r}",
            )
        values = [r if isinstance(r, Exception) else r.exact_variance for r in reports]
        values += [row.factor for row in factors] + [report.variance for report in variances]
        res.digest = digest(repr(values).encode())
        return res


WORKLOADS = {w.name: w for w in (Fig1Sweep, LargeNEnsemble, ExactCheck)}
