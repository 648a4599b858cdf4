import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import erconsensus
from erconsensus import cli, dynamics, graphs, moments, montecarlo, oracle
from erconsensus.montecarlo import FactorRow, SweepRow
from erconsensus.oracle import ENUM_MAX_N


# A file below a non-directory can never be opened for writing.
BAD_PATH = os.path.join(os.devnull, "table.csv")


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out), err


ENVELOPE_KEYS = ["schema_version", "command", "params", "results", "provenance"]


@pytest.mark.parametrize(
    "argv",
    [
        ["analytic", "--n", "3", "--p", "0.5", "--x0", "ramp"],
        ["simulate", "--n", "6", "--p", "0.5", "--x0", "ramp", "--reps", "5", "--seed", "2"],
        ["oracle", "--n", "3", "--p", "0.5", "--x0", "ramp"],
    ],
    ids=lambda argv: argv[0],
)
def test_every_record_names_the_versions(capsys, argv):
    code, record, _ = run_json(capsys, *argv)
    assert code == 0
    assert record["provenance"]["erconsensus"] == erconsensus.__version__
    assert record["provenance"]["numpy"] == np.__version__
    assert not {"erconsensus", "numpy"} & set(record["results"])


@pytest.mark.parametrize(
    "module", [erconsensus, graphs, dynamics, moments, montecarlo, oracle], ids=lambda m: m.__name__
)
def test_every_export_exists(module):
    # A name deleted from a module but left in __all__ breaks "import *".
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


class TestAnalytic:
    def test_point_value(self, capsys):
        code, record, _ = run_json(capsys, "analytic", "--n", "2", "--p", "0.5", "--x0", "0,1")
        assert code == 0
        assert list(record) == ENVELOPE_KEYS
        assert list(record["results"]) == ["mean", "variance", "rho", "delta", "factor"]
        assert abs(record["results"]["variance"] - 0.05) < 1e-12
        assert record["results"]["mean"] == 0.5
        assert record["command"] == "analytic"
        assert record["provenance"]["seed"] is None

    def test_complete_graph_zero_variance(self, capsys):
        code, record, _ = run_json(capsys, "analytic", "--n", "10", "--p", "1", "--x0", "ramp")
        assert code == 0
        assert record["results"]["variance"] == 0.0
        assert record["results"]["factor"] == 0.0

    @pytest.mark.parametrize(
        "argv,needle",
        [
            (["analytic", "--n", "2", "--p", "0", "--x0", "ramp"], "--p"),
            (["analytic", "--n", "1", "--p", "0.5", "--x0", "ramp"], "--n"),
            (["analytic", "--n", "3", "--p", "0.5", "--x0", "0,1"], "--x0"),
            (["analytic", "--n", "3", "--p", "0.5", "--x0", "zebra"], "--x0"),
            (["fig1", "--c", "0", "--n-min", "2", "--n-max", "3"], "--c"),
            (["fig1", "--c", "nan", "--n-min", "2", "--n-max", "3"], "--c"),
            (["fig2", "--c", "5,nan", "--n-min", "5", "--n-max", "6"], "--c"),
            (["simulate", "--n", "3", "--p", "0.5", "--reps", "0"], "--reps"),
            (["fig1", "--c", "5", "--n-min", "5", "--n-max", "6", "--reps", "0"], "--reps"),
            (["simulate", "--n", "3", "--p", "0.5", "--max-steps", "0"], "--max-steps"),
            (["simulate", "--n", "3", "--p", "0.5", "--seed", "-1"], "--seed"),
            (["fig1", "--c", "5", "--n-min", "5", "--n-max", "6", "--seed", "-1"], "--seed"),
            (["fig1", "--c", "5", "--n-min", "5", "--n-max", "6", "--x0", "zebra"], "--x0"),
            (["fig1", "--c", "5", "--n-min", "5", "--n-max", "6", "--x0", "const:abc"], "--x0"),
            (["fig2", "--c", "1", "--n-min", "1", "--n-max", "3"], "--n-min"),
            (["fig2", "--c", "5", "--n-min", "5", "--n-max", "6", "--output", BAD_PATH], "--output"),
            (
                ["fig2", "--c", "5", "--n-min", "5", "--n-max", "6", "--output", os.devnull,
                 "--gnuplot", BAD_PATH],
                "--gnuplot",
            ),
            (["fig1", "--c", "5", "--n-min", "5", "--n-max", "6", "--x0", "0,1"], "--x0"),
            (["fig2", "--c", "5,inf", "--n-min", "5", "--n-max", "6"], "--c"),
            (["fig2", "--c", "inf", "--n-min", "5", "--n-max", "6"], "--c"),
            (["oracle", "--n", "5", "--p", "1e-310", "--x0", "ramp"], "error: --p: p must be in (0, 1] and not subnormal"),
            (["oracle", "--n", "5", "--p", "5e-324", "--x0", "ramp"], "error: --p: p must be in (0, 1] and not subnormal"),
            (
                ["simulate", "--n", "5", "--p", "1e-310", "--x0", "ramp", "--reps", "1", "--max-steps", "2"],
                "error: --p: p must be in (0, 1] and not subnormal",
            ),
            # Counts past int64: --reps 1e30 walked about 7.8e27 blocks instead of failing.
            (["simulate", "--n", "3", "--p", "0.5", "--reps", str(10**30)], "error: --reps: reps must be <= "),
            (["analytic", "--n", str(10**30), "--p", "0.5"], "error: --n: n must be <= "),
            (["simulate", "--n", "3", "--p", "0.5", "--max-steps", str(2**63)], "error: --max-steps: max_steps must be <= "),
            # Below the int64 cap, but x0 alone would need 8e18 bytes: this ended in a numpy traceback.
            *[([command, "--n", str(10**18), "--p", "0.5"], f"error: --n {10**18} is too large: x0 needs {8 * 10**18}")
              for command in ("analytic", "simulate")],
            (["fig2", "--c", "5", "--n-min", "6", "--n-max", "5"], "--n-max"),
            # p = c / n is subnormal at --n-max, and p is no flag of either command.
            (["fig1", "--c", "1e-310", "--n-min", "2", "--n-max", "3", "--reps", "5"], "error: --c: "),
            (["fig2", "--c", "5,1e-320", "--n-min", "5", "--n-max", "6"], "error: --c: "),
            # Past int64, x0 at --n-max (resolved before the sweep) would fail in numpy, naming no flag.
            (["fig1", "--c", "5", "--n-min", "5", "--n-max", str(10**20)], "error: --n-max: n_max must be <= "),
        ],
    )
    def test_usage_errors_name_the_flag(self, capsys, argv, needle):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert needle in err
        assert out == ""
        assert "Traceback" not in err
        if argv[0] == "fig1":  # a sweep rebuilds x0 per n, so it never takes a vector
            assert "vector" not in err

    @pytest.mark.parametrize("command", ["analytic", "simulate"])
    @pytest.mark.parametrize("x0", ["nan,1", "1,inf", "const:nan"])
    def test_non_finite_x0_is_a_usage_error(self, capsys, command, x0):
        code, out, err = run_cli(capsys, command, "--n", "2", "--p", "0.5", "--x0", x0)
        assert code == 2
        assert out == ""
        assert "--x0" in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["analytic", "simulate", "oracle"])
    def test_overflowing_x0_is_a_usage_error(self, capsys, command):
        code, out, err = run_cli(capsys, command, "--n", "3", "--p", "0.5", "--x0", "1e200,0,-1e200")
        assert code == 2
        assert out == ""
        assert err.startswith("error: --x0: x0 entries must be finite with |x| <= 1e75")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["analytic", "simulate"])
    def test_x0_at_the_bound_runs_clean(self, capsys, command):
        # The JSON encoder rejects inf, so exit 0 means every moment stayed finite.
        argv = [command, "--n", "3", "--p", "0.5", "--x0", "1e75,0,-1e75"]
        code, _, err = run_cli(capsys, *argv, *(["--reps", "200"] if command == "simulate" else []))
        assert code == 0
        assert err == ""

    def test_out_of_memory_in_fig1_names_n_max_before_any_run(self, capsys, monkeypatch):
        # x0 at --n-max is the sweep's largest array; 10**15 floats fail at malloc, past the address space.
        def never(*args, **kwargs):
            raise AssertionError("an ensemble ran")

        monkeypatch.setattr(montecarlo, "run_ensemble", never)
        code, out, err = run_cli(capsys, "fig1", "--c", "5", "--n-min", "5", "--n-max", str(10**15), "--reps", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: --n-max: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_out_of_memory_in_a_run_names_n(self, capsys, monkeypatch):
        def too_large(size, n):
            raise MemoryError(f"Unable to allocate an array with shape ({size}, {n}, {n})")

        monkeypatch.setattr(dynamics, "_dense_workspace", too_large)
        code, out, err = run_cli(capsys, "simulate", "--n", "20", "--p", "0.25")
        assert code == 2
        assert out == ""
        assert err.startswith("error: --n: out of memory: Unable to allocate an array with shape (")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_json_never_carries_nan(self):
        stream = io.StringIO()
        with pytest.raises(ValueError):
            cli._emit_json({"results": {"variance": float("nan")}}, stream)
        assert stream.getvalue() == ""

    def test_missing_required_flag(self, capsys):
        code, _, _ = run_cli(capsys, "analytic", "--n", "2")
        assert code == 2

    def test_unknown_command(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 2


class TestSimulate:
    def test_keys_and_consistency(self, capsys):
        argv = ["simulate", "--n", "2", "--p", "0.5", "--x0", "0,1", "--reps", "3000", "--seed", "7"]
        code, record, _ = run_json(capsys, *argv)
        assert code == 0
        results = record["results"]
        assert list(results) == [
            "empirical_mean",
            "empirical_variance",
            "stderr_variance",
            "analytic_mean",
            "analytic_variance",
            "variance_z",
            "reps_used",
            "nonconverged",
        ]
        assert results["nonconverged"] == 0
        assert results["reps_used"] == 3000
        assert abs(results["variance_z"]) < 6.0

    def test_deterministic_given_flags(self, capsys):
        argv = ["simulate", "--n", "4", "--p", "0.5", "--x0", "ramp", "--reps", "500", "--seed", "3"]
        _, first, _ = run_json(capsys, *argv)
        _, second, _ = run_json(capsys, *argv)
        _, threaded, _ = run_json(capsys, *argv, "--threads", "4")
        assert first["results"] == second["results"] == threaded["results"]

    def test_negative_threads_is_a_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "--n", "4", "--p", "0.5", "--reps", "10", "--threads", "-1")
        assert code == 2
        assert out == ""
        assert "error: --threads: " in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--n", "3", "--p", "0.5", "--reps", "5", "--tol", "inf"],
            ["fig1", "--c", "5", "--n-min", "5", "--n-max", "7", "--reps", "20", "--tol", "nan"],
        ],
        ids=["simulate-inf", "fig1-nan"],
    )
    def test_non_finite_tol_is_a_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "--tol" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--n", "3", "--p", "0.5", "--reps", "5", "--tol", "1"],
            ["fig1", "--c", "5", "--n-min", "5", "--n-max", "7", "--reps", "20", "--tol", "2.5"],
        ],
        ids=["simulate-one", "fig1-above-one"],
    )
    def test_tol_at_or_above_one_is_a_usage_error(self, capsys, argv):
        # tol is relative to the norm of x0 - mean(x0): at 1 the stop would test no convergence.
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(
            "error: --tol: tol must be finite and positive and < 1 (relative to the norm of x0 - mean(x0))"
        )

    @pytest.mark.parametrize("tol", ["5e-324", "1e-310"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--n", "3", "--p", "0.5", "--x0", "0,0.1,0.2", "--reps", "5", "--max-steps", "2"],
            ["fig1", "--c", "5", "--n-min", "5", "--n-max", "7", "--reps", "5", "--max-steps", "2"],
        ],
        ids=["simulate", "fig1"],
    )
    def test_subnormal_tol_is_a_usage_error(self, capsys, argv, tol):
        # tol * sqrt(S(x0)) would underflow to 0 (or to a subnormal no step count reaches).
        code, out, err = run_cli(capsys, *argv, "--tol", tol)
        assert code == 2
        assert out == ""
        assert err.startswith("error: --tol: tol must be finite and positive and < 1")
        assert "not subnormal" in err

    def test_tol_help_says_relative(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--help")
        assert code == 0
        assert "the norm of x - mean(x) is below tol times that of x0" in " ".join(out.split())

    def test_nonconvergence_exit_code(self, capsys):
        argv = [
            "simulate", "--n", "20", "--p", "0.2", "--x0", "ramp",
            "--reps", "5", "--seed", "1", "--tol", "1e-300", "--max-steps", "2",
        ]
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert "converge" in err

    @pytest.mark.parametrize(
        "n,p,stream", [("20", "0.25", "dense-word-gap-block"), ("200", "0.025", "sparse-cyclic-block")]
    )
    def test_provenance_names_the_stream(self, capsys, n, p, stream):
        argv = ["simulate", "--n", n, "--p", p, "--x0", "ramp", "--reps", "5", "--seed", "2"]
        code, record, _ = run_json(capsys, *argv)
        assert code == 0
        assert record["schema_version"] == "13"
        assert record["provenance"]["stream"] == stream

    def test_provenance_names_numpy_and_the_bit_generator(self, capsys):
        # The dense stream is a function of the bit generator's raw words.
        argv = ["simulate", "--n", "6", "--p", "0.5", "--x0", "ramp", "--reps", "5", "--seed", "2"]
        code, record, _ = run_json(capsys, *argv)
        assert code == 0
        assert record["provenance"]["numpy"] == np.__version__
        assert record["provenance"]["bit_generator"] == "PCG64"
        assert set(record["results"]) == {
            "empirical_mean", "empirical_variance", "stderr_variance", "analytic_mean",
            "analytic_variance", "variance_z", "reps_used", "nonconverged",
        }

    def test_step_counts_in_provenance_not_results(self, capsys):
        argv = ["simulate", "--n", "5", "--p", "1", "--x0", "ramp", "--reps", "10", "--seed", "0"]
        code, record, _ = run_json(capsys, *argv)
        assert code == 0
        assert (record["provenance"]["steps_mean"], record["provenance"]["steps_max"]) == (1.0, 1)
        assert not {"steps_mean", "steps_max"} & set(record["results"])

    @pytest.mark.parametrize("tol", [None, "0.3"], ids=["default", "loose"])
    def test_stop_share_in_provenance_not_results(self, capsys, tol):
        # The share of S(x0) left at the stops, below tol**2; the planned tol and its bias bound are gone.
        argv = ["simulate", "--n", "20", "--p", "0.25", "--x0", "ramp", "--reps", "200", "--seed", "5"]
        code, record, _ = run_json(capsys, *argv, *(["--tol", tol] if tol else []))
        assert code == 0
        provenance, used = record["provenance"], record["params"]["tol"]
        assert used == (float(tol) if tol else 0.1)
        assert 0.0 < provenance["stop_share"] < used**2
        assert not {"tol", "variance_bias_bound"} & set(provenance)
        assert "stop_share" not in record["results"]

    def test_complete_graph_zero_empirical_variance(self, capsys):
        argv = ["simulate", "--n", "5", "--p", "1", "--x0", "ramp", "--reps", "10", "--seed", "0"]
        code, record, _ = run_json(capsys, *argv)
        assert code == 0
        assert record["results"]["empirical_variance"] == 0.0
        assert record["results"]["variance_z"] == 0.0


class TestFig1:
    ARGV = ["fig1", "--c", "5", "--n-min", "5", "--n-max", "8", "--reps", "60", "--seed", "3"]

    def test_header_and_rows(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGV)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,p,analytic_variance,empirical_variance,stderr"
        assert len(lines) == 5
        assert lines[1] == "5,1.0,0.0,0.0,0.0"
        assert out.endswith("\n")
        assert "\r" not in out

    def test_byte_identical_across_runs_and_threads(self, capsys):
        _, first, _ = run_cli(capsys, *self.ARGV)
        _, second, _ = run_cli(capsys, *self.ARGV)
        _, threaded, _ = run_cli(capsys, *self.ARGV, "--threads", "4")
        assert first == second == threaded

    def test_bad_range_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "fig1", "--c", "5", "--n-min", "3", "--n-max", "8")
        assert code == 2
        assert "--n-min" in err

    def test_infinite_c_blames_c(self, capsys):
        code, out, err = run_cli(capsys, "fig1", "--c", "inf", "--n-min", "5", "--n-max", "6")
        assert code == 2
        assert out == ""
        assert err.startswith("error: --c: ")

    def test_numpy_floats_print_as_numbers(self):
        row = SweepRow(
            n=6, p=np.float64(5 / 6), analytic_variance=np.float64(0.1), empirical_variance=np.float64(0.25),
            stderr=np.float64(1e-3), analytic_mean=0.5, empirical_mean=0.5, reps_used=10,
        )
        assert cli.render_fig1_csv([row]).splitlines()[1] == f"6,{5 / 6!r},0.1,0.25,0.001"

    def test_gnuplot_requires_file_output(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, *self.ARGV, "--gnuplot", str(tmp_path / "x.gp"))
        assert code == 2
        assert "--gnuplot" in err or "--output" in err


class TestParser:
    """main builds its parser once per process, on its first call, and parses every call from fresh defaults."""

    FIG1 = ["fig1", "--c", "5", "--n-min", "5", "--n-max", "6", "--reps", "10", "--seed", "3"]

    def test_a_flag_does_not_outlive_its_call(self, capsys, monkeypatch):
        tols, sweep = [], cli.sweep_fixed_degree

        def kept(**kwargs):
            tols.append(kwargs["tol"])
            return sweep(**kwargs)

        monkeypatch.setattr(cli, "sweep_fixed_degree", kept)
        assert run_cli(capsys, *self.FIG1, "--tol", "0.3")[0] == 0
        assert run_cli(capsys, *self.FIG1)[0] == 0
        assert tols == [0.3, dynamics.DEFAULT_TOL]

    def test_simulate_help_matches_a_fresh_parser(self, capsys):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["simulate", "--help"])
        fresh = capsys.readouterr().out
        assert run_cli(capsys, *self.FIG1, "--tol", "0.3")[0] == 0
        for _ in range(2):
            code, out, _ = run_cli(capsys, "simulate", "--help")
            assert code == 0
            assert out == fresh

    def test_import_builds_no_parser(self, src_env):
        probe = "import erconsensus.cli as cli; print(cli._parser.cache_info().currsize)"
        done = subprocess.run([sys.executable, "-c", probe], env=src_env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0
        assert done.stdout.strip() == "0"


class TestEntryPoints:
    """python -m erconsensus and python -m erconsensus.cli: the same argv prints the same bytes."""

    MODULES = ["erconsensus", "erconsensus.cli"]

    @staticmethod
    def run(src_env, module, *argv):
        # SOURCE_DATE_EPOCH, the reproducible-builds override of a clock, must change nothing:
        # records hold no clock reading.
        env = dict(src_env, SOURCE_DATE_EPOCH="abc")
        argv = [sys.executable, "-m", module, *argv]
        return subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)

    def test_same_argv_same_bytes(self, src_env):
        argv = ["analytic", "--n", "3", "--p", "0.5"]
        runs = [self.run(src_env, module, *argv) for module in self.MODULES for _ in range(2)]
        assert [done.returncode for done in runs] == [0, 0, 0, 0], runs[0].stderr
        assert len({done.stdout for done in runs}) == 1
        assert json.loads(runs[0].stdout)["schema_version"] == cli.SCHEMA_VERSION
        assert "timestamp" not in runs[0].stdout

    @pytest.mark.parametrize("module", MODULES)
    def test_usage_error_names_the_flag(self, src_env, module):
        done = self.run(src_env, module, "analytic", "--n", "1", "--p", "0.5")
        assert done.returncode == 2
        assert "error: --n:" in done.stderr
        assert done.stdout == ""
        assert "Traceback" not in done.stderr


class TestStreamContract:
    """Golden digests of seeded output on the "dense-word-gap-block" and "sparse-cyclic-block" layouts (schema "13").

    Any change to how replications consume their random streams (draw
    order, draws per step, seeding) changes these bytes; such a change
    must be declared on purpose and the digests re-recorded.
    """

    def test_fig1_csv(self, capsys):
        argv = ["fig1", "--c", "5", "--n-min", "5", "--n-max", "50", "--reps", "20", "--seed", "1"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "acaf66f863335159f5bfab6585cf98bdba4707b963a53a89996f2d4f2af6da3e"

    def test_simulate_results(self, capsys):
        argv = ["simulate", "--n", "20", "--p", "0.25", "--x0", "ramp", "--reps", "200", "--seed", "5"]
        code, record, _ = run_json(capsys, *argv)
        assert code == 0
        digest = hashlib.sha256(json.dumps(record["results"], sort_keys=True).encode()).hexdigest()
        assert digest == "a79f55fc66d387e9d2adb9972ab01415e2d9e14812b72786ecb57b466f4d66f8"

    SPARSE_ARGV = ["simulate", "--n", "200", "--p", "0.02", "--x0", "ramp", "--reps", "200", "--seed", "5"]
    SPARSE_DIGEST = "d18ef844cbdf6b50fadb9043f1e20c979c4580a7fb17aa705fdd360417424bec"

    def test_simulate_sparse_results(self, capsys):
        # p = 0.02 runs the sparse body; the two digests above run the dense one.
        code, record, _ = run_json(capsys, *self.SPARSE_ARGV)
        assert code == 0
        assert record["provenance"]["stream"] == "sparse-cyclic-block"
        digest = hashlib.sha256(json.dumps(record["results"], sort_keys=True).encode()).hexdigest()
        assert digest == self.SPARSE_DIGEST

    @pytest.mark.parametrize(
        "env",
        [{"OPENBLAS_CORETYPE": "Haswell"}, {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}],
        ids=["openblas-haswell", "numpy-without-avx512"],
    )
    def test_sparse_stream_under_other_kernels(self, capsys, src_env, env):
        # The sparse step calls no BLAS and no SIMD-dispatched transcendental, so with
        # numpy's AVX-512 loops off the record is the same bytes as this process's, which
        # test_simulate_sparse_results pins. Under the Haswell kernel the stop's BLAS row
        # sums give the same bits too, so the replications are the same: the same mean,
        # steps and stop share. run_ensemble's sum of squares is a BLAS dot whose last bit
        # follows the kernel, so the variance fields need only agree to rounding there.
        _, ours, _ = run_json(capsys, *self.SPARSE_ARGV)
        argv = [sys.executable, "-m", "erconsensus", *self.SPARSE_ARGV]
        done = subprocess.run(argv, env=dict(src_env, **env), capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        theirs = json.loads(done.stdout)
        assert theirs["provenance"] == ours["provenance"]  # stream, steps_mean, steps_max and stop_share among them
        if "OPENBLAS_CORETYPE" in env:
            for key, value in ours["results"].items():
                assert theirs["results"][key] == pytest.approx(value, rel=1e-12, abs=0.0), key
            assert theirs["results"]["empirical_mean"] == ours["results"]["empirical_mean"]
        else:
            assert theirs["results"] == ours["results"]

    def test_readme_names_the_schema_and_every_layout(self):
        # README states them by hand, so a schema bump, a new default tol or a renamed layout must reach it too.
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        assert f'`schema_version`, now `"{cli.SCHEMA_VERSION}"`' in readme
        assert readme.count(f"`tol = {dynamics.DEFAULT_TOL:g}`") == 2
        layouts = {dynamics.stream_layout(graphs.ModelParams(10, p)) for p in (1e-9, 0.01, 0.09, 0.0901, 0.5, 1.0)}
        assert len(layouts) == 2
        assert [layout for layout in sorted(layouts) if layout not in readme] == []


class TestFig2:
    ARGV = ["fig2", "--c", "5,6,7,8,9,10", "--n-min", "5", "--n-max", "70"]

    def test_header_groups_and_endpoints(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGV)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "c,n,factor"
        rows = [line.split(",") for line in lines[1:]]
        assert {row[0] for row in rows} == {"5.0", "6.0", "7.0", "8.0", "9.0", "10.0"}
        for c_text, n_text, factor_text in rows:
            if float(c_text) == float(n_text):
                assert factor_text == "0.0"

    def test_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, *self.ARGV)
        _, second, _ = run_cli(capsys, *self.ARGV)
        assert first == second

    def test_bad_c_list(self, capsys):
        code, _, err = run_cli(capsys, "fig2", "--c", "5,banana", "--n-min", "5", "--n-max", "10")
        assert code == 2
        assert "--c" in err

    def test_accepts_every_degree_fig1_accepts(self, capsys):
        # fig1 and both sweeps take any finite c > 0, below 1 too.
        code, out, _ = run_cli(capsys, "fig2", "--c", "0.5", "--n-min", "2", "--n-max", "3")
        assert code == 0
        assert [line.split(",")[:2] for line in out.splitlines()[1:]] == [["0.5", "2"], ["0.5", "3"]]

    def test_numpy_floats_print_as_numbers(self):
        rows = [FactorRow(c=np.float64(5.0), n=5, factor=np.float64(0.0)),
                FactorRow(c=5.0, n=6, factor=np.float64(0.125))]
        assert cli.render_fig2_csv(rows) == "c,n,factor\n5.0,5,0.0\n5.0,6,0.125\n"


class TestOracle:
    def test_half_two_nodes(self, capsys):
        code, record, _ = run_json(capsys, "oracle", "--n", "2", "--p", "0.5", "--x0", "0,1")
        assert code == 0
        discrepancies = record["results"]["max_abs_discrepancy"]
        assert set(discrepancies) == {"ew", "eww", "eigenvector", "variance"}
        assert all(value < 1e-12 for value in discrepancies.values())
        assert abs(record["results"]["closed_form_variance"] - 0.05) < 1e-12

    def test_complete_three_nodes_default_x0(self, capsys):
        code, record, _ = run_json(capsys, "oracle", "--n", "3", "--p", "1")
        assert code == 0
        assert all(v < 1e-12 for v in record["results"]["max_abs_discrepancy"].values())

    def test_n4(self, capsys):
        code, record, _ = run_json(capsys, "oracle", "--n", "4", "--p", "0.3", "--x0", "ramp")
        assert code == 0
        assert all(v < 1e-10 for v in record["results"]["max_abs_discrepancy"].values())

    @pytest.mark.parametrize(
        "extra,needle",
        [([], f"error: --n: n must be <= {ENUM_MAX_N}"),
         (["--allow-large"], "unrecognized arguments: --allow-large")],
        ids=["plain", "allow-large"],
    )
    def test_n_above_cap_names_n(self, capsys, extra, needle):
        # --allow-large had no effect and is gone; the parser now rejects it.
        n = str(ENUM_MAX_N + 1)
        code, out, err = run_cli(capsys, "oracle", "--n", n, "--p", "0.5", *extra)
        assert code == 2
        assert needle in err
        assert out == ""

    def test_small_p_runs_clean_and_fast(self, capsys):
        start = time.perf_counter()
        code, record, _ = run_json(capsys, "oracle", "--n", "5", "--p", "1e-6")
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert all(v < 1e-10 for v in record["results"]["max_abs_discrepancy"].values())

    def test_cap_size_runs_clean(self, capsys):
        n = ENUM_MAX_N
        code, record, _ = run_json(capsys, "oracle", "--n", str(n), "--p", str(5 / n))
        assert code == 0
        assert all(v < 1e-10 for v in record["results"]["max_abs_discrepancy"].values())

    def test_variance_threshold_follows_the_dispersion_of_x0(self, capsys):
        # Exact variance 8.96e10; a discrepancy of 3.4e-3 is a relative error of 4e-14.
        code, record, err = run_json(capsys, "oracle", "--n", "5", "--p", "0.5", "--x0", "0,1e6,2e6,3e6,4e6")
        assert code == 0, err
        assert record["results"]["variance_threshold"] == 1e-10 * 2e12  # x0's mean squared deviation
        assert record["results"]["threshold"] == 1e-10

    def test_relative_variance_error_still_fails(self, capsys, monkeypatch):
        real = cli.oracle_report

        def off(params, x0, allow_large=False):
            report = real(params, x0, allow_large=allow_large)
            closed = report.closed_form_variance * (1.0 + 1e-6)
            object.__setattr__(report, "closed_form_variance", closed)
            object.__setattr__(report, "variance_discrepancy", abs(report.exact_variance - closed))
            return report

        monkeypatch.setattr(cli, "oracle_report", off)
        code, _, err = run_cli(capsys, "oracle", "--n", "5", "--p", "0.5", "--x0", "0,1e6,2e6,3e6,4e6")
        assert code == 1
        assert "variance discrepancy" in err

    @pytest.mark.parametrize(
        "x0", ["const:1e6", "1000000.2,1000000.4,1000000.6,1000000.8,1000001"], ids=["const", "offset-ramp"]
    )
    def test_large_common_offset_runs_clean(self, capsys, x0):
        # Both used to exit 1: the identity cancelled terms of size ||x0||^2 = 5e12.
        code, record, err = run_json(capsys, "oracle", "--n", "5", "--p", "0.5", "--x0", x0)
        assert code == 0, err
        assert record["results"]["max_abs_discrepancy"]["variance"] < 1e-15

    def test_offset_variance_error_still_fails(self, capsys, monkeypatch):
        real = cli.oracle_report

        def off(params, x0, allow_large=False):
            report = real(params, x0, allow_large=allow_large)
            closed = report.closed_form_variance * (1.0 + 1e-6)
            object.__setattr__(report, "closed_form_variance", closed)
            object.__setattr__(report, "variance_discrepancy", abs(report.exact_variance - closed))
            return report

        monkeypatch.setattr(cli, "oracle_report", off)
        x0 = "1000000.2,1000000.4,1000000.6,1000000.8,1000001"
        code, _, err = run_cli(capsys, "oracle", "--n", "5", "--p", "0.5", "--x0", x0)
        assert code == 1
        assert "variance discrepancy" in err

    def test_provenance_carries_the_solve_residuals(self, capsys):
        code, record, _ = run_json(capsys, "oracle", "--n", "4", "--p", "0.3")
        assert code == 0
        residual = record["provenance"]["solve_residual"]
        assert set(residual) == {"ew", "eww"}
        assert all(0.0 <= value < 1e-13 for value in residual.values())
        assert set(record["results"]) == {
            "max_abs_discrepancy", "exact_variance", "closed_form_variance", "threshold", "variance_threshold"
        }

    def test_threshold_violation_exit_code(self, capsys, monkeypatch):
        real = cli.oracle_report

        def broken(params, x0, allow_large=False):
            report = real(params, x0, allow_large=allow_large)
            object.__setattr__(report, "eww_discrepancy", 1e-6)
            return report

        monkeypatch.setattr(cli, "oracle_report", broken)
        code, _, err = run_cli(capsys, "oracle", "--n", "2", "--p", "0.5", "--x0", "0,1")
        assert code == 1
        assert "exceeds" in err
