#!/usr/bin/env python3
"""End-to-end benchmark of the ehrhart library.

Usage:
    python3 perfbench/run.py --workload {verify-p2,count-deep,hull-faces,all}
        --seed N --seconds S --trace {0,1}

Each round of a workload runs in a fresh worker process (``worker.py``);
with ``--workload all`` the rounds of the workloads are interleaved
round-robin, so machine drift lands on every workload alike. The load
is a closed loop: one caller, no threads, the next task issued when the
previous one returns. ``--seconds`` sets the number of rounds through
the round times measured on the reference machine (2 cores, Python
3.11, pure-Python kernel), so every run of a workload pools the same
tasks and its percentiles mean the same thing.

With ``--trace 0`` the run reports the end-to-end metrics: ``setup_s``
(a fresh interpreter until ``import ehrhart.cli`` returns, median of
several), ``wall_ref_s`` (median time of a round's task list),
``task_p50_ref_s`` and ``task_tail_ref_s`` (pooled task times), and
``peak_rss_mb`` (largest peak memory of a worker). All four times are in
reference seconds: each measured time is scaled by the host-speed probe
of ``probe.py`` timed around it, because the host's CPU speed drifts by up
to 2x over minutes. ``setup_s`` keeps the name and unit ``s`` that every
benchmark of this repository reports. Raw seconds are printed next to
each.

``--trace 1`` alternates untraced and traced rounds on the same inputs
and reports the per-layer metrics of ``tracer.py``, with
``trace.overhead`` (traced over untraced wall time).

Every output is checked. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is 1 when a check failed and 2 when the
benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

# probe and tracer use the standard library only; workers import the library
import probe
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("verify-p2", "count-deep", "hull-faces")
# seconds one round's worker process takes on the reference machine
ROUND_S = {"verify-p2": 12.0, "count-deep": 24.0, "hull-faces": 8.0}
SETUP_REPS = 11
DEADLINE_S = 170.0  # every run must end within 180 s
TAIL_BEYOND = 10


class BenchError(Exception):
    """The benchmark could not run (as opposed to a wrong output)."""


def rounds_for(workload: str, seconds: int) -> int:
    return max(1, round(seconds / ROUND_S[workload]))


def schedule(workloads: list[str], seconds: int, trace: bool) -> list[tuple[str, int, bool]]:
    """(workload, input index, traced) per round, workloads interleaved round-robin."""
    per_workload = {}
    for w in workloads:
        n = rounds_for(w, seconds)
        if trace:  # an untraced and a traced round on the same inputs
            per_workload[w] = [(i // 2, i % 2 == 1) for i in range(2 * max(1, n // 2))]
        else:
            per_workload[w] = [(i, False) for i in range(n)]
    plan = []
    for step in range(max(len(v) for v in per_workload.values())):
        for w in workloads:
            if step < len(per_workload[w]):
                plan.append((w, *per_workload[w][step]))
    return plan


def remaining(start: float) -> float:
    left = DEADLINE_S - (time.perf_counter() - start)
    if left <= 0:
        raise BenchError(f"out of time after {DEADLINE_S} s")
    return left


def measure_setup(start: float) -> tuple[float, float]:
    """Median time from a fresh interpreter until ``import ehrhart.cli`` returns,
    in reference seconds and in raw seconds."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, "-c", "import ehrhart.cli"]
    times = []
    probes = [probe.sample()]
    for rep in range(SETUP_REPS + 1):  # the first one compiles bytecode; users pay that once
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=remaining(start))
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError(f"import ehrhart.cli failed: {proc.stderr.strip()[-500:]}")
        if rep:
            times.append(elapsed)
            probes.append(probe.sample())
    ref = [t * probe.REF_S / probe.local(probes, i) for i, t in enumerate(times)]
    return statistics.median(ref), statistics.median(times)


def run_worker(workload: str, seed: int, index: int, traced: bool, start: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(index), "1" if traced else "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=remaining(start))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {workload} round {index} failed: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and that percentile."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def _timings(rounds: list[dict], wall_key: str, task_key: str):
    times = [t[task_key] for r in rounds for t in r["tasks"]]
    tail_value, pct = tail(times)
    return statistics.median(r[wall_key] for r in rounds), statistics.median(times), tail_value, pct, len(times)


def summarize(rounds: list[dict], setup: tuple[float, float]) -> tuple[dict, list[str]]:
    """End-to-end metrics of one workload, and the lines that print them."""
    plain = [r for r in rounds if not r["traced"]]
    wall, p50, tail_ref, pct, n = _timings(plain, "wall_ref_s", "ref_seconds")
    raw_wall, raw_p50, raw_tail, _, _ = _timings(plain, "wall_s", "seconds")
    metrics = {
        "setup_s": (setup[0], "s"),
        "wall_ref_s": (wall, "ref_s"),
        "task_p50_ref_s": (p50, "ref_s"),
        "task_tail_ref_s": (tail_ref, "ref_s"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in rounds), "MB"),
    }
    notes = {
        "setup_s": f"median of {SETUP_REPS} fresh imports, in reference seconds; raw {setup[1]:.6f} s",
        "wall_ref_s": f"median of {len(plain)} rounds of {len(plain[0]['tasks'])} tasks; raw {raw_wall:.6f} s",
        "task_p50_ref_s": f"{n} pooled tasks; raw {raw_p50:.6f} s",
        "task_tail_ref_s": f"p{pct:.1f} of {n} pooled tasks, {min(TAIL_BEYOND, n - 1)} beyond; raw {raw_tail:.6f} s",
        "peak_rss_mb": "largest worker peak",
    }
    lines = [f"  {name:16} {value:12.6f} {unit:5} {notes[name]}" for name, (value, unit) in metrics.items()]
    probe_s = statistics.median(r["probe_s"] for r in plain)
    lines.append(f"  {'probe':16} {probe_s:12.6f} s     host-speed probe; ref_s = s * {probe.REF_S} / probe")
    return metrics, lines


def layer_metrics(rounds: list[dict]) -> dict:
    """Per-layer metrics: medians over the traced rounds, plus the tracing overhead."""
    traced = [r["layers"] for r in rounds if r["traced"]]
    out = {name: statistics.median(t[name] for t in traced) for name in traced[0]}
    plain_wall = sum(r["wall_ref_s"] for r in rounds if not r["traced"])
    traced_wall = sum(r["wall_ref_s"] for r in rounds if r["traced"])
    out["trace.overhead"] = traced_wall / plain_wall
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    trace = args.trace == 1
    start = time.perf_counter()

    try:
        setup = None if trace else measure_setup(start)
        by_workload = {w: [] for w in workloads}
        for workload, index, traced in schedule(workloads, args.seconds, trace):
            by_workload[workload].append(run_worker(workload, args.seed, index, traced, start))
    except (BenchError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    first = next(iter(by_workload.values()))[0]
    print(f"# env {json.dumps({'kernel': first['kernel'], 'python': first['python'], 'nproc': os.cpu_count(), 'seed': args.seed})}")
    metrics = {}
    attempted = failed = 0
    for workload, rounds in by_workload.items():
        prefix = "" if len(workloads) == 1 else f"{workload}."
        print(f"workload {workload}: closed loop, 1 caller, no threads, rounds: {len(rounds)}, a fresh process each")
        tasks = [(r["round"], t) for r in rounds for t in r["tasks"]]
        errors = [(index, t) for index, t in tasks if t["error"]]
        for index, t in errors:
            print(f"  FAIL round {index} {t['name']}: {t['error']}")
        attempted += len(tasks)
        failed += len(errors)
        if trace:
            units = tracer.metric_units()
            for name, value in layer_metrics(rounds).items():
                metrics[prefix + name] = {"value": value, "unit": units[name]}
                print(f"  {name:48} {value:14.6f} {units[name]:5}  moves: {tracer.moves(name)}")
        else:
            e2e, lines = summarize(rounds, setup)
            print("\n".join(lines))
            for name, (value, unit) in e2e.items():
                metrics[prefix + name] = {"value": value, "unit": unit}
        print(f"  {'fail_ratio':16} {len(errors) / len(tasks):12.6f}       {len(errors)} failed of {len(tasks)} attempted")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
