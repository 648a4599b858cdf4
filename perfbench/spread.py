"""Run-to-run spread of the benchmark, and the recorded baseline.

    python3 perfbench/spread.py --workload fig1-sweep --seeds 1-10 [--record]

Runs perfbench/run.py once per seed with --trace 0 and prints for every
end-to-end metric the median of the runs and the spread: (q3 - q1) / median with q1, q3 from statistics.quantiles(values, n=4).
With --record it then makes one --trace 1 run on the first seed and stores
the medians, spreads, per-layer metrics and provenance in
perfbench/BASELINE.json under the workload's name.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINE = HERE / "BASELINE.json"


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def size_breakdown(workload: str, seed: int) -> dict:
    """Per-size numbers from the spans of a traced run, for the ROADMAP baseline."""
    spans = [json.loads(line) for line in (ROOT / ".bench_out" / f"spans-{workload}-seed{seed}.jsonl").open()]
    out = {}
    for span in spans:
        attrs = span.get("attrs") or {}
        if "n" not in attrs:
            continue
        key = f"{span['name']} n={attrs['n']}"
        entry = out.setdefault(key, {"calls": 0, "seconds": 0.0, "steps": 0})
        entry["calls"] += 1
        entry["seconds"] += (span["end_ns"] - span["start_ns"]) / 1e9
        entry["steps"] += attrs.get("steps") or 0
    for entry in out.values():
        if entry["steps"]:
            entry["steps_per_call"] = entry["steps"] / entry["calls"]
            entry["step_us"] = entry["seconds"] * 1e6 / entry["steps"]
        entry["seconds_per_call"] = entry.pop("seconds") / entry["calls"]
        del entry["steps"]
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="first-last")
    parser.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    first, last = map(int, args.seeds.split("-"))
    seeds = list(range(first, last + 1))
    runs = [bench(args.workload, seed, seconds, 0) for seed in seeds]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in runs]
        summary[name] = {"median": statistics.median(values), "spread": spread(values),
                         "bound": bound, "unit": runs[0]["metrics"][name]["unit"], "values": values}
        print(f"{name:14s} median {summary[name]['median']:.6g} spread {summary[name]['spread']:.4f} "
              f"(bound {bound}, a third {bound / 3:.4f})")
    print(f"correct on every seed: {all(r['correct'] for r in runs)}")
    if args.record:
        traced = bench(args.workload, seeds[0], seconds, 1)
        report = json.loads((ROOT / ".bench_out" / f"{args.workload}-seed{seeds[0]}-trace1.json").read_text())
        baseline = json.loads(BASELINE.read_text()) if BASELINE.is_file() else {}
        baseline[args.workload] = {
            "seeds": seeds,
            "run_seconds": seconds,
            "end_to_end": summary,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "by_size": size_breakdown(args.workload, seeds[0]),
            "provenance": report["provenance"],
        }
        BASELINE.write_text(json.dumps(baseline, indent=1) + "\n")
        print(f"recorded in {BASELINE.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
