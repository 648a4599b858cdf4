import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erconsensus import dynamics, montecarlo
from erconsensus.dynamics import NonConvergenceError, run_block, run_consensus, stream_layout
from erconsensus.graphs import GraphSeed, ModelParams
from erconsensus.montecarlo import (
    EnsembleStats,
    ExperimentConfig,
    factor_sweep,
    jackknife_variance_stderr,
    resolve_x0,
    run_ensemble,
    sweep_fixed_degree,
)
from erconsensus.moments import consensus_variance, variance_factor


class TestResolveX0:
    def test_ramp(self):
        assert np.array_equal(resolve_x0("ramp", 2), [0.5, 1.0])
        assert np.array_equal(resolve_x0("ramp", 4), [0.25, 0.5, 0.75, 1.0])

    def test_const(self):
        assert np.array_equal(resolve_x0("const:2.5", 3), [2.5, 2.5, 2.5])

    def test_explicit_vector_passthrough(self):
        assert np.array_equal(resolve_x0([1.0, 2.0, 3.0], 3), [1.0, 2.0, 3.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            resolve_x0([1.0, 2.0], 3)

    def test_unknown_rule(self):
        with pytest.raises(ValueError, match="^x0 rule 'linspace' is unknown"):
            resolve_x0("linspace", 3)

    def test_bad_constant_names_x0(self):
        with pytest.raises(ValueError, match="^x0 constant must be a number"):
            resolve_x0("const:abc", 3)

    @pytest.mark.parametrize("spec", ["const:nan", "const:-inf", [0.0, np.inf, 1.0]])
    def test_rejects_non_finite(self, spec):
        with pytest.raises(ValueError, match="finite"):
            resolve_x0(spec, 3)


class TestJackknife:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        x = rng.normal(2.0, 1.5, size=400)
        loo = np.array([np.var(np.delete(x, i), ddof=1) for i in range(x.size)])
        brute = math.sqrt((x.size - 1) / x.size * np.sum((loo - loo.mean()) ** 2))
        assert jackknife_variance_stderr(x) == pytest.approx(brute, rel=1e-10)

    def test_zero_for_constant_data(self):
        assert jackknife_variance_stderr(np.full(50, 1.23)) == 0.0

    def test_zero_for_tiny_samples(self):
        assert jackknife_variance_stderr([1.0, 2.0]) == 0.0

    @pytest.mark.parametrize("values", [[1.0, np.nan, 2.0, 3.0], [1.0, np.inf, 2.0]])
    def test_rejects_non_finite_values(self, values):
        with pytest.raises(ValueError, match="^values must be finite"):
            jackknife_variance_stderr(values)

    def test_rejects_two_dimensional_values(self):
        with pytest.raises(ValueError, match=r"^values must be a 1-D sequence, got shape \(2, 3\)"):
            jackknife_variance_stderr(np.ones((2, 3)))

    def test_shrinks_with_sample_size(self):
        rng = np.random.default_rng(11)
        small = jackknife_variance_stderr(rng.normal(size=200))
        large = jackknife_variance_stderr(rng.normal(size=20_000))
        assert large < small

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6).map(lambda v: round(v, 6)), min_size=3, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_power_of_two_scaling_changes_no_bit(self, values):
        # The same sums without the scaling, as computed before it was added. Values on a
        # 1e-6 grid keep their fourth powers clear of underflow, which the scaling avoids
        # and the unscaled sums do not (at [0, 0, 1e-104] they return 0.0).
        x = np.asarray(values, dtype=float)
        if np.ptp(x) == 0.0:
            return
        r = x.size
        x = x - x.mean()
        mean_loo = (float(x.sum()) - x) / (r - 1)
        var_loo = (float(x @ x) - x**2 - (r - 1) * mean_loo**2) / (r - 2)
        unscaled = float(np.sqrt((r - 1) / r * np.sum((var_loo - var_loo.mean()) ** 2)))
        assert jackknife_variance_stderr(values) == unscaled

    def test_huge_values_stay_finite(self):
        values = np.array([1e100, 0.0, -1e100, 5.0])
        with np.errstate(all="raise"):
            stderr = jackknife_variance_stderr(values)
        assert np.isfinite(stderr)
        assert stderr == 2.0**400 * jackknife_variance_stderr(values / 2.0**200)


def _config(n=8, p=0.5, reps=64, seed=13, **kwargs):
    return ExperimentConfig(
        params=ModelParams(n, p),
        x0_spec="ramp",
        reps=reps,
        seed=GraphSeed(seed),
        **kwargs,
    )


class TestRunEnsemble:
    def test_deterministic_across_thread_counts(self):
        cfg = _config()
        reference = run_ensemble(cfg, threads=1)
        assert run_ensemble(cfg, threads=4) == reference
        assert run_ensemble(cfg, threads=16) == reference
        assert run_ensemble(cfg, threads=0) == reference

    def test_complete_graph_degenerates(self):
        cfg = _config(n=5, p=1.0, reps=10)
        stats = run_ensemble(cfg)
        assert stats.variance == 0.0
        assert stats.stderr_variance == 0.0
        assert stats.nonconverged == 0
        assert stats.reps_used == 10
        assert abs(stats.mean - np.mean(resolve_x0("ramp", 5))) < 1e-12

    def test_constant_x0_zero_variance(self):
        cfg = ExperimentConfig(
            params=ModelParams(4, 0.4),
            x0_spec="const:1.7",
            reps=20,
            seed=GraphSeed(3),
        )
        stats = run_ensemble(cfg)
        assert stats.variance == 0.0
        assert stats.mean == 1.7

    def test_reps_validation(self):
        with pytest.raises(ValueError):
            _config(reps=0)

    @pytest.mark.parametrize("reps", [True, 2.0])
    def test_rejects_non_integer_reps(self, reps):
        with pytest.raises(TypeError, match="^reps must be an integer"):
            _config(reps=reps)

    def test_rejects_negative_threads(self):
        with pytest.raises(ValueError, match=r"^threads must be >= 0, got -3$"):
            run_ensemble(_config(), threads=-3)

    @pytest.mark.parametrize("threads", [1.5, True])
    def test_rejects_non_integer_threads(self, threads):
        with pytest.raises(TypeError, match="^threads must be an integer"):
            run_ensemble(_config(), threads=threads)

    @pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0, 5e-324, 1e-310])
    def test_rejects_bad_tol_at_construction(self, tol):
        with pytest.raises(ValueError, match="^tol must be finite and positive"):
            _config(tol=tol)

    @pytest.mark.parametrize(
        "max_steps,error,needle",
        [(0, ValueError, "must be >= 1"), (2.5, TypeError, "must be an integer"),
         (True, TypeError, "must be an integer")],
        ids=["zero", "float", "bool"],
    )
    def test_rejects_bad_max_steps_at_construction(self, max_steps, error, needle):
        with pytest.raises(error, match=f"^max_steps {needle}"):
            _config(max_steps=max_steps)

    def test_rejects_params_that_are_not_model_params(self):
        with pytest.raises(TypeError, match="^params must be a ModelParams, got tuple$"):
            ExperimentConfig(params=(6, 0.5), x0_spec="ramp", reps=4, seed=GraphSeed(0))

    def test_rejects_a_seed_that_is_not_a_graph_seed(self):
        with pytest.raises(TypeError, match="^seed must be a GraphSeed, got int$"):
            ExperimentConfig(params=ModelParams(6, 0.5), x0_spec="ramp", reps=4, seed=3)

    def test_rejects_an_unknown_x0_rule_at_construction(self):
        with pytest.raises(ValueError, match="^x0 rule 'bogus' is unknown"):
            ExperimentConfig(params=ModelParams(6, 0.5), x0_spec="bogus", reps=4, seed=GraphSeed(0))

    def test_fatal_nonconvergence_lists_indices(self):
        # A two-node replication converges in two steps only if a step draws both
        # edges: at p = 0.5 all 50 do with probability 0.4375**50, about 1e-18.
        cfg = ExperimentConfig(
            params=ModelParams(2, 0.5),
            x0_spec=[0.0, 1.0],
            reps=50,
            seed=GraphSeed(1),
            max_steps=2,
        )
        with pytest.raises(NonConvergenceError) as info:
            run_ensemble(cfg)
        message = str(info.value)
        assert "did not converge" in message
        assert "indices" in message

    def test_two_node_half_matches_closed_form(self):
        # Closed form gives exactly 0.05 for x0 = (0, 1).
        cfg = ExperimentConfig(
            params=ModelParams(2, 0.5),
            x0_spec=[0.0, 1.0],
            reps=100_000,
            seed=GraphSeed(99),
        )
        stats = run_ensemble(cfg)
        assert abs(stats.variance - 0.05) <= 4.0 * stats.stderr_variance
        se_mean = math.sqrt(stats.variance / stats.reps_used)
        assert abs(stats.mean - 0.5) <= 4.0 * se_mean

    def test_medium_grid_point_within_four_sigma(self):
        params = ModelParams(20, 0.25)
        cfg = ExperimentConfig(
            params=params, x0_spec="ramp", reps=2000, seed=GraphSeed(1)
        )
        stats = run_ensemble(cfg)
        analytic = consensus_variance(params, resolve_x0("ramp", 20)).variance
        assert abs(stats.variance - analytic) <= 4.0 * stats.stderr_variance

    @pytest.mark.parametrize("n,reps", [(100, 3000), (400, 2000), (2000, 500)])
    def test_sparse_steps_within_four_sigma(self, n, reps):
        # p = 5/n takes the sparse step body from n = 34 on.
        params = ModelParams(n, 5.0 / n)
        cfg = ExperimentConfig(params=params, x0_spec="ramp", reps=reps, seed=GraphSeed(2026, stream=n))
        stats = run_ensemble(cfg)
        analytic = consensus_variance(params, resolve_x0("ramp", n))
        assert abs(stats.variance - analytic.variance) <= 4.0 * stats.stderr_variance
        assert abs(stats.mean - analytic.mean) <= 4.0 * math.sqrt(stats.variance / reps)


class TestDenseBlocks:
    """Ensembles in blocks of _BLOCK_REPS on one generator each, of the dense layout."""

    @pytest.mark.parametrize(
        "n,p", [pytest.param(n, 5.0 / n, id=str(n)) for n in (6, 20, 50)] + [pytest.param(50, 0.2, id="50-0.2")]
    )
    def test_within_four_sigma_of_closed_form_and_reference(self, n, p):
        # Replication count and seed were fixed before the first run. Every case
        # takes the dense body: p = 5/n is 0.1 at n = 50, above the 0.09 cut.
        reps = 2000
        params = ModelParams(n, p)
        x0 = resolve_x0("ramp", n)
        seed = GraphSeed(2026, stream=n)
        stats = run_ensemble(ExperimentConfig(params=params, x0_spec="ramp", reps=reps, seed=seed))
        analytic = consensus_variance(params, x0)
        assert abs(stats.variance - analytic.variance) <= 4.0 * stats.stderr_variance
        assert abs(stats.mean - analytic.mean) <= 4.0 * math.sqrt(stats.variance / reps)
        # The per-replication run_consensus ensemble on the same seed.
        values = np.array([run_consensus(params, x0, seed.replication(r)).value for r in range(reps)])
        mean, variance, stderr = values.mean(), values.var(ddof=1), jackknife_variance_stderr(values)
        assert abs(stats.variance - variance) <= 4.0 * math.hypot(stats.stderr_variance, stderr)
        assert abs(stats.mean - mean) <= 4.0 * math.sqrt((stats.variance + variance) / reps)

    @pytest.mark.parametrize("offset", [-1, 0, 1], ids=["below", "equal", "above"])
    def test_block_boundary_thread_invariant(self, offset):
        cfg = _config(reps=montecarlo._BLOCK_REPS + offset)
        reference = run_ensemble(cfg, threads=1)
        assert run_ensemble(cfg, threads=2) == reference
        assert run_ensemble(cfg, threads=0) == reference
        assert reference.reps_used == cfg.reps

    def test_blocks_draw_from_block_generators(self):
        cfg = _config(reps=montecarlo._BLOCK_REPS + 3)
        x0 = cfg.x0()
        first = run_block(cfg.params, x0, montecarlo._BLOCK_REPS, cfg.seed.block(0))
        last = run_block(cfg.params, x0, 3, cfg.seed.block(1))
        values, steps = np.concatenate([first[0], last[0]]), np.concatenate([first[1], last[1]])
        stats = run_ensemble(cfg)
        assert stats.mean == values.mean()
        assert (stats.steps_mean, stats.steps_max) == (steps.mean(), steps.max())

    def test_failed_block_names_every_index(self):
        reps = montecarlo._BLOCK_REPS + 2
        cfg = ExperimentConfig(
            params=ModelParams(20, 0.1), x0_spec="ramp", reps=reps, seed=GraphSeed(4), tol=1e-6, max_steps=3
        )
        with pytest.raises(NonConvergenceError, match=rf"^{reps} of {reps} replications did not converge to spread "
                           rf"< tol 1\.0e-06 x spread\(x0\) 9\.500e-01 = 9\.500e-07 within 3 steps "
                           rf"\(indices 0-{reps - 1}\)$"):
            run_ensemble(cfg)

    def test_failed_indices_as_runs(self):
        runs = montecarlo._runs
        assert runs(np.array([0, 1, 2, 5, 7, 8])) == "0-2, 5, 7-8"
        assert runs(np.arange(0, 40, 2)) == ", ".join(map(str, range(0, 20, 2))) + ", ..."


class TestSparseBlocks:
    """Ensembles of the sparse-block layout, against the dense body and the closed form."""

    def test_forced_sparse_body_matches_dense_body(self, monkeypatch):
        # Replication count and seed were fixed before the first run.
        reps, params = 2000, ModelParams(20, 0.25)
        cfg = ExperimentConfig(params=params, x0_spec="ramp", reps=reps, seed=GraphSeed(2027, stream=20))
        dense = run_ensemble(cfg)
        monkeypatch.setattr(dynamics, "stream_layout", lambda params: "sparse-block")
        sparse = run_ensemble(cfg)
        assert abs(sparse.variance - dense.variance) <= 4.0 * math.hypot(sparse.stderr_variance, dense.stderr_variance)
        assert abs(sparse.mean - dense.mean) <= 4.0 * math.sqrt((sparse.variance + dense.variance) / reps)
        analytic = consensus_variance(params, cfg.x0())
        assert abs(sparse.variance - analytic.variance) <= 4.0 * sparse.stderr_variance
        assert abs(sparse.mean - analytic.mean) <= 4.0 * math.sqrt(sparse.variance / reps)

    def test_variance_halves_from_500_to_1000(self):
        # Criterion 8's 1/n decay, measured: at c = 5 the closed-form ratio is 0.50.
        # Replication count, seed and tol were fixed before the first run; a
        # stop at spread < 1e-6 moves a value by far less than its spread
        # (about 4e-3 here), and takes about 40 % fewer steps than 1e-10.
        reps, variances = 600, []
        for n in (500, 1000):
            params = ModelParams(n, 5.0 / n)
            assert stream_layout(params) == "sparse-block"
            cfg = ExperimentConfig(params=params, x0_spec="ramp", reps=reps, seed=GraphSeed(2027, stream=n), tol=1e-6)
            variances.append(run_ensemble(cfg).variance)
        assert 0.35 <= variances[1] / variances[0] <= 0.65


class TestStepCounts:
    def test_dense_counts(self):
        stats = run_ensemble(_config(n=5, p=1.0, reps=10))
        assert (stats.steps_mean, stats.steps_max) == (1.0, 1)
        constant = run_ensemble(ExperimentConfig(ModelParams(4, 0.4), "const:1.7", 20, GraphSeed(3)))
        assert (constant.steps_mean, constant.steps_max) == (0.0, 0)

    def test_sparse_counts_match_replications(self):
        cfg = _config(n=60, p=0.05, reps=6)
        _, steps, _ = run_block(cfg.params, cfg.x0(), 6, cfg.seed.block(0))
        stats = run_ensemble(cfg, threads=2)
        assert stats.steps_mean == np.mean(steps)
        assert stats.steps_max == max(steps)


class TestSweepFixedDegree:
    def test_smoke_rows(self):
        rows = sweep_fixed_degree(5.0, range(5, 8), reps=300, seed=7)
        assert [row.n for row in rows] == [5, 6, 7]
        endpoint = rows[0]
        assert endpoint.p == 1.0
        assert endpoint.analytic_variance == 0.0
        assert endpoint.empirical_variance == 0.0
        assert endpoint.stderr == 0.0
        for row in rows:
            params = ModelParams(row.n, row.p)
            x0 = resolve_x0("ramp", row.n)
            assert row.analytic_variance == consensus_variance(params, x0).variance
            if row.stderr > 0:
                assert abs(row.empirical_variance - row.analytic_variance) <= 6 * row.stderr

    def test_rejects_sizes_below_c(self):
        with pytest.raises(ValueError):
            sweep_fixed_degree(5.0, range(3, 6), reps=10, seed=0)

    def test_rejects_a_non_integer_size(self):
        # int() would have run n = 7.
        with pytest.raises(TypeError, match="^n must be an integer"):
            sweep_fixed_degree(5, [7.9], 10, 1)

    @pytest.mark.parametrize("c", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_a_bad_degree_by_name(self, c):
        with pytest.raises(ValueError, match="^c must be finite and > 0"):
            sweep_fixed_degree(c, [5], 10, 1)

    @pytest.mark.parametrize("c", [True, np.True_, "5", None], ids=["bool", "numpy-bool", "str", "none"])
    def test_rejects_a_bool_degree(self, c):
        # A bool would otherwise run as c = 1.0.
        with pytest.raises(TypeError, match=f"^c must be a number, got {type(c).__name__}$"):
            sweep_fixed_degree(c, range(2, 4), 10, 1)

    def test_reproducible_and_thread_invariant(self):
        a = sweep_fixed_degree(5.0, range(5, 7), reps=120, seed=3)
        b = sweep_fixed_degree(5.0, range(5, 7), reps=120, seed=3)
        c = sweep_fixed_degree(5.0, range(5, 7), reps=120, seed=3, threads=4)
        assert a == b == c


class TestFactorSweep:
    def test_groups_and_endpoints(self):
        rows = factor_sweep([5, 6, 7, 8, 9, 10], range(5, 71))
        cs = sorted({row.c for row in rows})
        assert cs == [5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        for c in cs:
            group = [row for row in rows if row.c == c]
            assert group[0].n == int(c)
            assert group[0].factor == 0.0
            assert group[-1].n == 70
            assert all(row.factor > 0.0 for row in group[1:])

    def test_sizes_below_c_skipped(self):
        rows = factor_sweep([10.0], range(5, 12))
        assert [row.n for row in rows] == [10, 11]

    def test_rejects_a_non_integer_size(self):
        with pytest.raises(TypeError, match="^n must be an integer"):
            factor_sweep([5], [7.9])

    @pytest.mark.parametrize("c", [0.0, -1.0, math.nan, math.inf, pytest.param(10**400, id="int-past-float-range")])
    def test_rejects_a_bad_degree_by_name(self, c):
        with pytest.raises(ValueError, match="^c must be finite and > 0"):
            factor_sweep([5.0, c], [5])

    @pytest.mark.parametrize("c", [True, np.True_, "5", None], ids=["bool", "numpy-bool", "str", "none"])
    def test_rejects_a_bool_degree(self, c):
        with pytest.raises(TypeError, match=f"^c must be a number, got {type(c).__name__}$"):
            factor_sweep([c], range(2, 4))

    def test_matches_direct_factor(self):
        rows = factor_sweep([4.0], range(4, 9))
        for row in rows[1:]:
            assert row.factor == variance_factor(ModelParams(row.n, 4.0 / row.n))


class TestEnsembleStatsShape:
    def test_fields(self):
        stats = run_ensemble(_config(reps=16))
        assert isinstance(stats, EnsembleStats)
        assert stats.reps_used == 16
        assert stats.variance >= 0.0
        assert stats.stderr_variance >= 0.0


def _recording_run_block(monkeypatch):
    """Send run_ensemble's blocks through run_block, recording the tol of each call; returns that list."""
    tols = []

    def record(params, x0, reps, rng, tol, max_steps):
        tols.append(tol)
        return run_block(params, x0, reps, rng, tol, max_steps)

    monkeypatch.setattr(montecarlo, "run_block", record)
    return tols


class TestBiasBudget:
    """run_ensemble runs once, at cfg.tol or at the tighter tol that holds (tol spread(x0))**2 to 0.025 of the forecast SE."""

    @pytest.mark.parametrize("n,p,x0", [(5, 1.0, "ramp"), (8, 0.5, "const:0.3")], ids=["complete", "constant"])
    def test_zero_final_spreads_never_rerun(self, monkeypatch, n, p, x0):
        # Every value is the limit itself: b = 0 even at a tol of 0.5.
        tols = _recording_run_block(monkeypatch)
        cfg = ExperimentConfig(params=ModelParams(n, p), x0_spec=x0, reps=50, seed=GraphSeed(6), tol=0.5)
        stats = run_ensemble(cfg)
        assert tols == [0.5]
        assert (stats.tol, stats.variance_bias_bound) == (0.5, 0.0)

    @pytest.mark.parametrize("reps", [1, 2])
    def test_no_standard_error_no_rerun(self, monkeypatch, reps):
        tols = _recording_run_block(monkeypatch)
        stats = run_ensemble(_config(n=8, p=0.5, reps=reps, tol=0.5))
        assert stats.stderr_variance == 0.0
        assert tols == [0.5]
        assert (stats.tol, stats.variance_bias_bound) == (0.5, (0.5 * 7 / 8) ** 2)

    def test_reproducible_and_thread_invariant_at_a_planned_tol(self):
        cfg = _config(n=20, p=0.25, reps=300, tol=0.05)
        reference = run_ensemble(cfg)
        assert reference.tol < 0.05
        assert run_ensemble(cfg) == reference
        assert run_ensemble(cfg, threads=4) == reference
        assert run_ensemble(cfg, threads=0) == reference

    @pytest.mark.parametrize(
        "n,reps,tol,seed",
        [pytest.param(400, 40, 1e-3, GraphSeed(seed, stream=400), id=str(seed)) for seed in range(5)]
        + [pytest.param(20, 400, 0.05, GraphSeed(13), id="loose")],
    )
    def test_the_first_run_is_planned_and_not_rerun(self, monkeypatch, n, reps, tol, seed):
        # At n = 400 and 40 replications the default bound is 0.107 of the forecast SE; ramp x0
        # at n = 20 has spread 0.95, and at tol 0.05 the bound 2.3e-3 is above the variance itself.
        # Either way the one run goes tighter, at 0.025 forecast SE, and meets the measured rule.
        tols = _recording_run_block(monkeypatch)
        params = ModelParams(n, 5.0 / n)
        cfg = ExperimentConfig(params=params, x0_spec="ramp", reps=reps, seed=seed, tol=tol)
        stats = run_ensemble(cfg)
        forecast = consensus_variance(params, cfg.x0()).variance * math.sqrt(2.0 / (reps - 1))
        assert tols == [stats.tol] * -(-reps // 128) and stats.tol < tol  # one call per 128-replication block
        assert stats.variance_bias_bound == pytest.approx(0.025 * forecast, rel=1e-12)
        assert stats.variance_bias_bound <= 0.1 * stats.stderr_variance

    @pytest.mark.parametrize("n,reps", [(50, 100), (20, 200), (8, 2)], ids=["fig1", "simulate", "no-se"])
    def test_a_bound_within_the_plan_keeps_the_tol(self, monkeypatch, n, reps):
        # The fig1 row at n = 50 forecasts 0.022 of the budget at 1e-3, the simulate default 0.014,
        # and fewer than three replications have no SE to forecast.
        tols = _recording_run_block(monkeypatch)
        stats = run_ensemble(_config(n=n, p=min(1.0, 5.0 / n), reps=reps))
        assert tols == [1e-3] * -(-reps // 128) and stats.tol == 1e-3  # one run of 128-replication blocks

    def test_a_forecast_at_rounding_level_keeps_the_tol(self):
        # A complete graph has var(x*) = 0: no budget to plan for.
        cfg = _config(n=5, p=1.0, reps=50, tol=0.5)
        assert montecarlo._planned_tol(cfg, cfg.x0(), 0.8) == 0.5

    @pytest.mark.parametrize("n", [6, 20, 50, 200])
    def test_within_four_sigma_at_the_default_tol(self, n):
        # Replication count and seed were fixed before the first run; p = 5/n is dense up
        # to n = 50 and sparse at 200.
        reps, params = 2000, ModelParams(n, 5.0 / n)
        cfg = ExperimentConfig(params=params, x0_spec="ramp", reps=reps, seed=GraphSeed(2031, stream=n))
        assert cfg.tol == dynamics.DEFAULT_TOL == 1e-3
        stats = run_ensemble(cfg)
        analytic = consensus_variance(params, cfg.x0())
        assert abs(stats.variance - analytic.variance) <= 4.0 * stats.stderr_variance
        assert abs(stats.mean - analytic.mean) <= 4.0 * math.sqrt(stats.variance / reps)
        assert 0.0 < stats.variance_bias_bound <= 0.1 * stats.stderr_variance
