"""Time one cold set-up of a workload: import the package, then its warm-up call.

Usage: python3 perfbench/setup_probe.py <workload>
Prints the elapsed seconds as the last line. run.py starts this several
times per run and reports the median as setup_s.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

start = time.perf_counter()
import workloads  # noqa: E402  (imports erconsensus, numpy and scipy: part of set-up)

workloads.WORKLOADS[sys.argv[1]](seed=0).warmup()
print(time.perf_counter() - start)
