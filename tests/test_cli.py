import hashlib
import io
import json
import os
import subprocess
import sys
import time

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

    @pytest.mark.parametrize("command", ["fig1", "fig2"])
    @pytest.mark.parametrize("flag", ["--output", "--gnuplot"])
    def test_bad_path_fails_before_the_table_is_built(self, capsys, monkeypatch, command, flag):
        def never(*args, **kwargs):
            raise AssertionError("the table was built")

        monkeypatch.setattr(cli, "sweep_fixed_degree", never)
        monkeypatch.setattr(cli, "factor_sweep", never)
        argv = [command, "--c", "5", "--n-min", "5", "--n-max", "6", "--output", os.devnull]
        code, out, err = run_cli(capsys, *argv, flag, BAD_PATH)  # the last --output wins
        assert code == 2
        assert out == ""
        assert f"error: {flag}: " in err

    @pytest.mark.parametrize("command", ["fig1", "fig2"])
    @pytest.mark.parametrize("spelling", ["t.csv", "./t.csv"])
    def test_gnuplot_over_the_output_fails_before_the_table_is_built(
        self, capsys, monkeypatch, tmp_path, command, spelling
    ):
        def never(*args, **kwargs):
            raise AssertionError("the table was built")

        monkeypatch.setattr(cli, "sweep_fixed_degree", never)
        monkeypatch.setattr(cli, "factor_sweep", never)
        monkeypatch.chdir(tmp_path)
        argv = [command, "--c", "5", "--n-min", "5", "--n-max", "7", "--output", "t.csv", "--gnuplot", spelling]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "error: --gnuplot: " in err
        assert not (tmp_path / "t.csv").exists()

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

    @pytest.mark.parametrize("epoch", ["abc", "1e9", "9" * 20])
    def test_bad_source_date_epoch_names_the_variable(self, src_env, epoch):
        env = dict(src_env, SOURCE_DATE_EPOCH=epoch)
        argv = [sys.executable, "-m", "erconsensus.cli", "analytic", "--n", "3", "--p", "0.5"]
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 2
        assert done.stdout == ""
        assert "SOURCE_DATE_EPOCH" in done.stderr
        assert "Traceback" not in done.stderr

    def test_bad_source_date_epoch_fails_before_the_run(self, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("the ensemble ran")

        monkeypatch.setattr(cli, "run_ensemble", never)
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "abc")
        code, out, err = run_cli(capsys, "simulate", "--n", "20", "--p", "0.25")
        assert code == 2
        assert out == ""
        assert "SOURCE_DATE_EPOCH" in err

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
        # tol is relative to the spread of x0: 1 would stop every run after one step.
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: --tol: tol must be finite and positive and < 1 (relative to the spread of x0)")

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
        # tol * spread(x0) would underflow to 0 (or to a subnormal no step count reaches).
        code, out, err = run_cli(capsys, *argv, "--tol", tol)
        assert code == 2
        assert out == ""
        assert err.startswith("error: --tol: tol must be finite and positive and < 1")
        assert "not subnormal" in err

    def test_tol_help_says_relative(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--help")
        assert code == 0
        assert "below tol times the spread of x0" in " ".join(out.split())

    def test_nonconvergence_exit_code(self, capsys):
        argv = [
            "simulate", "--n", "20", "--p", "0.2", "--x0", "ramp",
            "--reps", "5", "--seed", "1", "--tol", "1e-300", "--max-steps", "2",
        ]
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert "converge" in err

    @pytest.mark.parametrize("n,p,stream", [("20", "0.25", "dense-byte-gap-block"), ("200", "0.025", "sparse-block")])
    def test_provenance_names_the_stream(self, capsys, n, p, stream):
        argv = ["simulate", "--n", n, "--p", p, "--x0", "ramp", "--reps", "5", "--seed", "2"]
        code, record, _ = run_json(capsys, *argv)
        assert code == 0
        assert record["schema_version"] == "9"
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

    def test_tol_and_bias_bound_in_provenance_not_results(self, capsys):
        # Ramp x0 at n = 20 has spread 0.95; 200 replications meet the budget at the default tol.
        argv = ["simulate", "--n", "20", "--p", "0.25", "--x0", "ramp", "--reps", "200", "--seed", "5"]
        code, record, _ = run_json(capsys, *argv)
        assert code == 0
        provenance = record["provenance"]
        assert record["params"]["tol"] == provenance["tol"] == 1e-3
        assert provenance["variance_bias_bound"] == (1e-3 * 0.95) ** 2
        assert provenance["variance_bias_bound"] <= 0.1 * record["results"]["stderr_variance"]
        assert not {"tol", "variance_bias_bound"} & set(record["results"])

    def test_provenance_records_the_tightened_tol(self, capsys):
        # At tol 0.05 the bound (0.05 x 0.95)**2 is far above 0.1 SE, so the ensemble is planned tighter.
        argv = ["simulate", "--n", "20", "--p", "0.25", "--x0", "ramp", "--reps", "400", "--seed", "5", "--tol", "0.05"]
        code, record, _ = run_json(capsys, *argv)
        assert code == 0
        provenance = record["provenance"]
        assert record["params"]["tol"] == 0.05
        assert provenance["tol"] < 0.05
        assert provenance["variance_bias_bound"] == (provenance["tol"] * 0.95) ** 2
        assert provenance["variance_bias_bound"] <= 0.1 * record["results"]["stderr_variance"]

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

    def test_output_file_and_gnuplot(self, capsys, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        gp_path = tmp_path / "sweep.gp"
        code, out, _ = run_cli(
            capsys, *self.ARGV, "--output", str(csv_path), "--gnuplot", str(gp_path)
        )
        assert code == 0
        assert out == ""
        text = csv_path.read_bytes().decode()
        assert text.startswith("n,p,analytic_variance")
        assert "\r" not in text
        assert str(csv_path) in gp_path.read_text()

    def test_gnuplot_requires_file_output(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, *self.ARGV, "--gnuplot", str(tmp_path / "x.gp"))
        assert code == 2
        assert "--gnuplot" in err or "--output" in err


class TestStreamContract:
    """Golden digests of seeded output on the "dense-byte-gap-block" and "sparse-block" stream layouts (schema "9").

    Any change to how replications consume their random streams (draw
    order, draws per step, seeding) changes these bytes; such a change
    must be declared on purpose and the digests re-recorded.
    """

    def test_fig1_csv(self, capsys):
        argv = ["fig1", "--c", "5", "--n-min", "5", "--n-max", "50", "--reps", "20", "--seed", "1"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "dedcb718586f8afbbcc2d81b6eee24a5018634ced418c181824cef4003c44c80"

    def test_simulate_results(self, capsys):
        argv = ["simulate", "--n", "20", "--p", "0.25", "--x0", "ramp", "--reps", "200", "--seed", "5"]
        code, record, _ = run_json(capsys, *argv)
        assert code == 0
        digest = hashlib.sha256(json.dumps(record["results"], sort_keys=True).encode()).hexdigest()
        assert digest == "b9907362a886640105d772085902baf5f863c709237bd1c3b0ee7bd027f23175"


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
