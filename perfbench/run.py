"""erconsensus benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

<name> is fig1-sweep, large-n-ensemble or exact-check (see workloads.py), or
`all` to run the three one after another in their own processes.

--trace 0 (timed run, no tracing) repeats the workload's body on inputs made
from --seed until --seconds have passed, checks every output, and reports

    wall_cal      median over passes of (wall time of the pass / mean wall
                  time of the calibration kernel run just before and just
                  after it); see calibration_kernel. Unit "cal": one run of
                  that kernel.
    ops_per_cal   ops of one pass / wall_cal (an op is one replication in the
                  simulation workloads, one validation check in exact-check)
    setup_s       median over SETUP_REPEATS fresh interpreters of the time to
                  import the package and run the workload's warm-up call
    peak_rss_mib  peak resident memory of this process

The summary lines above the result also give the raw median wall_s and
ops_per_s, failed_frac and rows_within_4se_frac.

--trace 1 alternates untraced passes with traced ones, which have a span
around every public function of graphs, dynamics, montecarlo, moments, oracle
and cli (tracing.py), and reports the per-layer metrics; a metric of a layer
the workload does not exercise reads 0. Spans are written to .bench_out/.
large-n-ensemble also runs single-threaded untraced passes for the thread
speed-up, and requires its traced single-threaded results to be
byte-identical to the threads = 2 results.

Every run prints a provenance line and a human summary, then as its last line
one JSON object with the keys correct, attempted, failed and metrics. It
exits 1 when any check failed and 2 when the package is not there.
selftest.py checks the benchmark itself; spread.py measures its run-to-run
spread and records BASELINE.json.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from tracing import ATTRS, END, NAME, OP, PARENT, START, Tracer, self_times, traced

# At most nproc threads per workload: the thread pool of run_ensemble, and no
# BLAS worker threads beside it. Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5
LAYERS = ("bench", "cli", "montecarlo", "dynamics", "graphs", "moments", "oracle")
ORACLE_SIZES = (2, 3, 4, 5)
END_TO_END_UNITS = {"wall_cal": "cal", "ops_per_cal": "1/cal", "setup_s": "s", "peak_rss_mib": "MiB"}
PER_LAYER_UNITS = {
    "graphs.replication_us": "us",
    "graphs.replication_calls": "count",
    "graphs.decode_masks_s": "s",
    "dynamics.run_consensus_us_p50": "us",
    "dynamics.run_consensus_us_tail": "us",
    "dynamics.steps_per_rep_mean": "count",
    "dynamics.steps_per_rep_max": "count",
    "dynamics.step_us": "us",
    "dynamics.nonconverged": "count",
    "montecarlo.run_ensemble_s": "s",
    "montecarlo.jackknife_us": "us",
    "montecarlo.thread_speedup": "x",
    "montecarlo.parallel_efficiency": "frac",
    "montecarlo.rows_within_4se_frac": "frac",
    "montecarlo.factor_sweep_s": "s",
    "moments.consensus_variance_us": "us",
    "moments.expected_kron_matrix_s": "s",
    "moments.kron_left_eigenvector_us": "us",
    "oracle.power_iterations": "count",
    "oracle.left_unit_eigenvector_s": "s",
    "oracle.report_s": "s",
    "cli.main_s": "s",
    "cli.render_fig1_csv_ms": "ms",
    "traced_wall_s": "s",
    "trace_overhead_frac": "frac",
    **{f"oracle.enumerate_s_n{n}": "s" for n in ORACLE_SIZES},
    **{f"oracle.graphs_per_s_n{n}": "1/s" for n in ORACLE_SIZES},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
}


def _replication_hook(tracer, span, args, result, error):
    span[OP] = tracer.new_op()  # a replication starts an op; its run_consensus follows


def _consensus_hook(tracer, span, args, result, error):
    if error is None:
        span[ATTRS] = {"n": args[0].n, "steps": result.steps}
    else:
        span[ATTRS] = {"n": args[0].n, "steps": getattr(error, "steps", None), "nonconverged": True}
    tracer.op = None


def _iterations_hook(tracer, span, args, result, error):
    if error is None:
        span[ATTRS] = {"iterations": result.iterations}


def _size_hook(tracer, span, args, result, error):
    span[ATTRS] = {"n": args[0].n}


HOOKS = {
    "graphs.GraphSeed.replication": _replication_hook,
    "dynamics.run_consensus": _consensus_hook,
    "oracle.left_unit_eigenvector": _iterations_hook,
    "oracle.enumerate_expected_matrices": _size_hook,
    "moments.expected_kron_matrix": _size_hook,
}


def one_pass(workload):
    t0 = time.perf_counter()
    output = workload.run()
    wall = time.perf_counter() - t0
    return wall, workload.check(output)


def _update_loop(n: int, steps: int) -> None:
    import numpy as np

    rng = np.random.default_rng(0)
    x, eye = np.arange(n) / n, np.eye(n)
    for _ in range(steps):
        adj = (rng.random((n, n)) < 5.0 / n).astype(float)
        np.fill_diagonal(adj, 0.0)
        x = (adj + eye) / (adj.sum(axis=1) + 1.0)[:, None] @ x


def calibration_kernel(n: int, steps: int, threads: int) -> float:
    """Seconds taken by a fixed reference: `steps` consensus updates at size n
    in each of `threads` threads.

    The CPUs of a shared machine change speed by tens of percent over
    minutes. Timing this kernel before and after each pass and reporting the
    pass in units of it ("cal") cancels most of that drift; running it on as
    many threads as the workload also catches contention on the other CPU.
    The kernel is a frozen copy of the update loop in benchmark code, so no
    change to the package moves it.
    """
    t0 = time.perf_counter()
    if threads == 1:
        _update_loop(n, steps)
    else:
        with ThreadPoolExecutor(threads) as pool:
            list(pool.map(_update_loop, [n] * threads, [steps] * threads))
    return time.perf_counter() - t0


def measure_setup(name: str, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"), name],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def _percentile(sorted_values, q: float) -> float:
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def _tail(values) -> tuple[float, float]:
    """(percentile, value): the highest of p99.9/p99/p90 with >= 10 samples beyond it."""
    ordered = sorted(values)
    for q in (0.999, 0.99, 0.9):
        if len(ordered) * (1.0 - q) >= 10:
            return 100 * q, _percentile(ordered, q)
    return 50.0, _percentile(ordered, 0.5) if ordered else 0.0


def layer_metrics(spans, passes: int):
    """Per-layer metrics from the spans of `passes` traced passes; totals are per pass."""
    own = self_times(spans)
    durations: dict[str, list[int]] = {}
    layer_self = dict.fromkeys(LAYERS, 0)
    for span, self_ns in zip(spans, own):
        durations.setdefault(span[NAME], []).append(span[END] - span[START])
        layer_self[span[NAME].split(".", 1)[0]] += self_ns
    roots = [span[END] - span[START] for span in spans if span[PARENT] < 0]
    if sum(own) != sum(roots):
        raise AssertionError(f"self times add up to {sum(own)} ns, traced wall is {sum(roots)} ns")

    def total_s(name):
        return sum(durations.get(name, ())) / 1e9 / passes

    def median_us(name):
        values = durations.get(name)
        return statistics.median(values) / 1e3 if values else 0.0

    consensus = [s for s in spans if s[NAME] == "dynamics.run_consensus"]
    steps = [s[ATTRS]["steps"] for s in consensus if s[ATTRS]["steps"] is not None]
    tail_pct, tail_ns = _tail(durations.get("dynamics.run_consensus", ()))
    m = {
        "graphs.replication_us": median_us("graphs.GraphSeed.replication"),
        "graphs.replication_calls": len(durations.get("graphs.GraphSeed.replication", ())) / passes,
        "graphs.decode_masks_s": total_s("graphs.decode_adjacency_masks"),
        "dynamics.run_consensus_us_p50": median_us("dynamics.run_consensus"),
        "dynamics.run_consensus_us_tail": tail_ns / 1e3,
        "dynamics.steps_per_rep_mean": statistics.fmean(steps) if steps else 0.0,
        "dynamics.steps_per_rep_max": max(steps, default=0),
        "dynamics.step_us": total_s("dynamics.run_consensus") * passes * 1e6 / sum(steps) if steps else 0.0,
        "dynamics.nonconverged": sum(1 for s in consensus if s[ATTRS].get("nonconverged")),
        "montecarlo.run_ensemble_s": total_s("montecarlo.run_ensemble"),
        "montecarlo.jackknife_us": median_us("montecarlo.jackknife_variance_stderr"),
        "montecarlo.factor_sweep_s": total_s("montecarlo.factor_sweep"),
        "moments.consensus_variance_us": median_us("moments.consensus_variance"),
        "moments.expected_kron_matrix_s": total_s("moments.expected_kron_matrix"),
        "moments.kron_left_eigenvector_us": median_us("moments.kron_left_eigenvector"),
        "oracle.power_iterations": sum(
            s[ATTRS]["iterations"] for s in spans if s[NAME] == "oracle.left_unit_eigenvector" and s[ATTRS]
        ) / passes,
        "oracle.left_unit_eigenvector_s": total_s("oracle.left_unit_eigenvector"),
        "oracle.report_s": total_s("oracle.oracle_report"),
        "cli.main_s": total_s("cli.main"),
        "cli.render_fig1_csv_ms": median_us("cli.render_fig1_csv") / 1e3,
        "traced_wall_s": sum(roots) / 1e9 / passes,
    }
    for n in ORACLE_SIZES:
        spent = [s[END] - s[START] for s in spans
                 if s[NAME] == "oracle.enumerate_expected_matrices" and s[ATTRS]["n"] == n]
        m[f"oracle.enumerate_s_n{n}"] = sum(spent) / 1e9 / passes
        m[f"oracle.graphs_per_s_n{n}"] = len(spent) * 2 ** (n * (n - 1)) / (sum(spent) / 1e9) if spent else 0.0
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer] / 1e9 / passes
    busy_s = total_s("dynamics.run_consensus") + total_s("graphs.GraphSeed.replication")
    notes = {
        "run_consensus_samples": len(consensus),
        "run_consensus_tail_percentile": tail_pct,
        "spans": len(spans),
        "self_s_sum": sum(own) / 1e9 / passes,
    }
    return m, busy_s, notes


def _timed(workload, seconds: float, setup_repeats: int):
    setup_s = measure_setup(workload.name, setup_repeats)
    walls, cals, results = [], [calibration_kernel(*workload.calibration, workload.threads)], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        wall, result = one_pass(workload)
        walls.append(wall)
        results.append(result)
        cals.append(calibration_kernel(*workload.calibration, workload.threads))
    # Each pass is bracketed by two kernel runs; their mean is the pass's unit.
    wall_cal = statistics.median(2 * w / (before + after) for w, before, after in zip(walls, cals, cals[1:]))
    metrics = {
        "wall_cal": wall_cal,
        "ops_per_cal": results[0].ops / wall_cal,
        "setup_s": setup_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    wall = statistics.median(walls)
    notes = {
        "wall_s": wall,
        "ops_per_s": results[0].ops / wall,
        "calibration_s": statistics.median(cals),
        "passes": len(walls),
        "pass_walls_s": walls,
        "calibration_walls_s": cals,
    }
    return metrics, results, notes


def _traced(workload, seconds: float, seed: int):
    """Untraced and traced passes, interleaved so that drift hits both alike."""
    import workloads

    parallel = workload.threads > 1
    single = copy.copy(workload)
    single.threads = 1
    tracer = Tracer(HOOKS)
    if hasattr(single, "tracer"):
        single.tracer = tracer
    namespaces = workloads.MODULES + (sys.modules["erconsensus"],)
    walls, single_walls, results = [], [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        wall, result = one_pass(workload)
        walls.append(wall)
        results.append(result)
        if parallel:
            wall, result = one_pass(single)
            single_walls.append(wall)
            results.append(result)
        with traced(tracer, workloads.MODULES, namespaces):
            output = tracer.wrap(f"bench.{workload.name}", single.run)()
        results.append(single.check(output))
    passes = len(walls)
    single_walls = single_walls or walls
    metrics, busy_s, notes = layer_metrics(tracer.spans, passes)
    untraced_single = statistics.fmean(single_walls)
    metrics["trace_overhead_frac"] = (metrics["traced_wall_s"] - untraced_single) / untraced_single
    wall = statistics.median(walls)
    metrics["montecarlo.thread_speedup"] = statistics.median(single_walls) / wall if parallel else 0.0
    metrics["montecarlo.parallel_efficiency"] = busy_s / (wall * workload.threads)
    rows = sum(r.rows for r in results)
    metrics["montecarlo.rows_within_4se_frac"] = sum(r.rows_within_4se for r in results) / rows if rows else 0.0
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload.name}-seed{seed}.jsonl"
    tracer.write(spans_path)
    notes.update(passes=passes, spans_file=str(spans_path.relative_to(ROOT)),
                 pass_walls_s=walls, single_thread_pass_walls_s=single_walls)
    return metrics, results, notes


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def provenance(seed: int) -> dict:
    import numpy as np
    import scipy

    from erconsensus import cli, graphs

    ours = graphs.GraphSeed(seed, stream=7).replication(3).random(4)
    reference = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(7, 3))).random(4)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "seed": seed,
        "schema_version": cli.SCHEMA_VERSION,
        "stream_layout": (
            "one stream per replication: SeedSequence(seed, spawn_key=(stream, replication))"
            if np.array_equal(ours, reference) else "not one SeedSequence stream per replication"
        ),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def run(workload, seed: int, seconds: float, trace: bool, setup_repeats: int = SETUP_REPEATS) -> dict:
    """One benchmark run of a workload instance; returns the full report."""
    workload.warmup()
    if trace:
        metrics, results, notes = _traced(workload, seconds, seed)
        units = PER_LAYER_UNITS
    else:
        metrics, results, notes = _timed(workload, seconds, setup_repeats)
        units = END_TO_END_UNITS
    attempted = sum(r.ops for r in results)
    failed = sum(r.failed for r in results)
    failures = [msg for r in results for msg in r.failures]
    digests = sorted({r.digest for r in results})
    if len(digests) > 1:  # same inputs every pass, threads = 1 or 2, traced or not
        failed += 1
        failures.append(f"passes gave different results: digests {digests}")
    rows = sum(r.rows for r in results)
    return {
        "workload": workload.name,
        "provenance": provenance(seed),
        "digest": digests[0],
        "failures": failures[:20],
        "summary": {
            "failed_frac": failed / attempted,
            "rows_within_4se_frac": sum(r.rows_within_4se for r in results) / rows if rows else None,
            **notes,
        },
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        },
    }


def _run_all(args) -> int:
    code = 0
    for name in ("fig1-sweep", "large-n-ensemble", "exact-check"):
        print(f"== {name}", flush=True)
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, timeout=600,
        )
        code = code or done.returncode
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "erconsensus" / "__init__.py").is_file():
        print(f"error: no package at {ROOT / 'src' / 'erconsensus'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)} or all")
    report = run(workloads.WORKLOADS[args.workload](args.seed), args.seed, args.seconds, bool(args.trace))
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(report, indent=2))
    print("provenance " + json.dumps(report["provenance"]))
    for message in report["failures"]:
        print(f"FAILED: {message}", file=sys.stderr)
    print(f"digest {report['digest']}")
    for name, value in report["summary"].items():
        if not isinstance(value, list):
            print(f"{name} = {value}")
    for name, metric in report["result"]["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(report["result"]))
    return 0 if report["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
