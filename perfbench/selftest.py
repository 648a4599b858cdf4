"""Self-test of the benchmark: python3 perfbench/selftest.py (about a minute).

1. Runs every workload at a tiny size, untraced and traced, and asserts that
   every metric BENCHMARK.json names is reported with its unit and that the
   untouched package passes every check.
2. Makes the package give one wrong output per workload and asserts that the
   run counts it as a failed op and reports correct = false.
3. Runs the benchmark in a directory that holds only BENCHMARK.json and
   perfbench/, and asserts that it exits non-zero without a result line.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import shutil
import subprocess
import sys

import run  # sets the BLAS thread count before numpy is imported

sys.path.insert(0, str(run.ROOT / "src"))

import workloads  # noqa: E402
from erconsensus import montecarlo, oracle  # noqa: E402


def tiny(name: str, seed: int = 3):
    return {
        "fig1-sweep": lambda: workloads.Fig1Sweep(seed, reps=6, n_max=9),
        "large-n-ensemble": lambda: workloads.LargeNEnsemble(seed, reps=4, sizes=(30,)),
        "exact-check": lambda: workloads.ExactCheck(
            seed, oracle_sizes=(2, 3), large_n=None, kron_n=6, factor_n_max=12, variance_n_max=6
        ),
    }[name]()


@contextlib.contextmanager
def replaced(owner, attr, make_wrong):
    original = getattr(owner, attr)
    setattr(owner, attr, make_wrong(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def altered(field, change):
    """A wrong version of a function that returns a dataclass: one field changed."""
    def make_wrong(function):
        def wrong(*args, **kwargs):
            out = function(*args, **kwargs)
            return dataclasses.replace(out, **{field: change(getattr(out, field))})
        return wrong
    return make_wrong


SABOTAGE = {
    # the analytic column no longer equals consensus_variance
    "fig1-sweep": (montecarlo, "consensus_variance", altered("variance", lambda v: v * (1 + 1e-9))),
    # the ensemble mean far outside 4 SE of mean(x0)
    "large-n-ensemble": (montecarlo, "run_ensemble", altered("mean", lambda m: m + 1.0)),
    # the enumerated E[W (x) W] off by 1e-9 against the closed form
    "exact-check": (oracle, "expected_kron_matrix", lambda f: lambda *a: f(*a) + 1e-9),
}


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            result = run.run(tiny(name), seed=3, seconds=0, trace=trace, setup_repeats=1)["result"]
            got = {key: metric["unit"] for key, metric in result["metrics"].items()}
            assert got == wanted[trace], f"{name} trace={trace}: metrics {got} != {wanted[trace]}"
            assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, (name, result)
            print(f"ok   {name} trace={int(trace)}: {len(got)} metrics, {result['attempted']} ops")
        owner, attr, make_wrong = SABOTAGE[name]
        with replaced(owner, attr, make_wrong):
            result = run.run(tiny(name), seed=3, seconds=0, trace=False, setup_repeats=1)["result"]
        assert not result["correct"] and result["failed"] >= 1, f"{name}: wrong output not counted: {result}"
        print(f"ok   {name}: wrong output counted, {result['failed']} of {result['attempted']} ops failed")

    bare = run.OUT_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    done = subprocess.run(
        spec["command"] + ["--workload", "fig1-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    assert done.returncode != 0 and '"correct"' not in done.stdout, done
    print(f"ok   without the package: exit code {done.returncode}, no result line")
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
