"""One round of one workload, in a fresh process.

Usage: python3 perfbench/worker.py <workload> <seed> <round> <trace 0|1>

A round makes its inputs, builds its tasks, then issues the tasks one
after another (a closed loop with one caller and no threads) and times
each, with the host-speed probe of ``probe.py`` timed between tasks.
Outputs are checked after the timed loop. The last line of standard
output is a JSON object with the task times, raw and in reference
seconds, the process's peak memory and, when traced, the per-layer
metrics.

A fresh process per round keeps process-wide caches such as
``ehrhart.cli._fitted`` from turning a later round into cache hits.
"""

from __future__ import annotations

import json
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

import ehrhart  # noqa: E402

if Path(ehrhart.__file__).resolve().parent != SRC / "ehrhart":
    sys.exit(f"ehrhart was imported from {ehrhart.__file__}, not from {SRC}")

import probe  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from ehrhart.counting import kernel_name  # noqa: E402


def run_round(workload: str, seed: int, round_index: int, trace: bool) -> dict:
    tasks = workloads.make_tasks(workload, workloads.make_inputs(workload, seed, round_index))
    spans = tracer.Tracer() if trace else None
    if spans:
        spans.install()
    times = []
    outputs = []
    probes = [probe.sample()]  # host speed between tasks, outside their timing
    try:
        for task in tasks:
            t0 = time.perf_counter()
            try:
                outputs.append(task.run())
            except Exception as exc:  # a failed task is counted, not fatal
                traceback.print_exc()
                outputs.append(exc)
            times.append(time.perf_counter() - t0)
            probes.append(probe.sample())
    finally:
        if spans:
            spans.uninstall()
    results = []
    for i, (task, output, seconds) in enumerate(zip(tasks, outputs, times)):
        if isinstance(output, Exception):
            error = f"raised {type(output).__name__}: {output}"
        else:
            error = task.check(output)
        results.append({
            "name": task.name,
            "seconds": seconds,
            "ref_seconds": seconds * probe.REF_S / probe.local(probes, i),
            "error": error,
        })
    wall = sum(times)
    return {
        "workload": workload,
        "round": round_index,
        "traced": trace,
        "wall_s": wall,
        "wall_ref_s": sum(r["ref_seconds"] for r in results),
        "probe_s": statistics.median(t for times in probes for t in times),
        "tasks": results,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "kernel": kernel_name(),
        "python": platform.python_version(),
        "layers": spans.metrics(wall) if spans else None,
    }


def main(argv: list[str]) -> int:
    workload, seed, round_index, trace = argv
    result = run_round(workload, int(seed), int(round_index), trace == "1")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
