"""Tests of the benchmark itself: inputs, tracer arithmetic, output checks.

Run from the repository root: python3 -m pytest perfbench
"""

import json
from pathlib import Path

import pytest

import probe
import run
import tracer
import workloads
from ehrhart import cli, constructions, polytope

BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("make", [workloads.count_inputs, workloads.hull_inputs])
def test_same_seed_same_inputs_new_seed_new_permutations(make):
    first = make(7, 0)
    assert make(7, 0) == first
    other = make(8, 0)
    assert [item["name"] for item in other] == [item["name"] for item in first]
    moved = [a for a, b in zip(first, other) if a.get("points") != b.get("points")]
    assert len(moved) >= len(first) // 2
    assert make(7, 1) != first


def test_count_orientations_put_every_coordinate_last():
    lasts = [item["name"].rsplit("=x", 1)[1] for item in workloads.count_inputs(3, 0) if "hull(4,3)" in item["name"]]
    assert sorted(lasts) == ["0", "1", "2", "3"]


def test_point_clouds_hold_non_extreme_points():
    for item in workloads.hull_inputs(5, 0):
        if item["name"].startswith("cloud"):
            poly = polytope.from_vertices(item["points"])
            assert len(poly.vertices) <= len(item["points"]) - workloads.CLOUD_INNER


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_tracer_self_time_on_nested_calls():
    clock = FakeClock()
    spans = tracer.Tracer(clock)

    def inner():
        clock.now += 3.0

    def outer():
        clock.now += 1.0
        traced_inner()
        clock.now += 2.0

    traced_inner = spans.wrap("inner", inner)
    traced_outer = spans.wrap("outer", outer)
    traced_outer()
    traced_inner()
    out, inn = spans.stats["outer"], spans.stats["inner"]
    assert (out.calls, out.total_s, out.self_s) == (1, 6.0, 3.0)
    assert (inn.calls, inn.total_s, inn.self_s) == (2, 6.0, 6.0)
    assert spans.metrics(wall_s=9.0)["trace.coverage"] == 1.0


def test_tracer_sees_calls_through_by_name_imports_and_restores():
    original = polytope.from_vertices
    spans = tracer.Tracer()
    spans.install()
    try:
        assert constructions.from_vertices is not original
        constructions.pentagon(2)  # constructions imports from_vertices by name
    finally:
        spans.uninstall()
    assert constructions.from_vertices is original and polytope.from_vertices is original
    metrics = spans.metrics(wall_s=1.0)
    assert metrics["polytope.from_vertices.calls"] == 1
    assert metrics["polytope.from_vertices.points"] == 5


def test_checker_flags_tampered_count():
    inputs = [item for item in workloads.count_inputs(1, 0) if item["name"].startswith("heptagon(2)")]
    for task in workloads.count_tasks(inputs):
        count = task.run()
        assert task.check(count) is None
        assert task.check(count + 1) is not None


def test_checker_flags_skipped_and_failed_claims():
    report = {"claim": "mcmullen", "params": {}, "witness": {}}
    assert workloads.check_claim((0, json.dumps(dict(report, outcome="pass")))) is None
    skipped = dict(report, outcome="skipped: budget exceeded (bounding box too large)")
    assert workloads.check_claim((0, json.dumps(skipped))) is not None
    assert workloads.check_claim((1, json.dumps(dict(report, outcome="fail")))) is not None
    assert workloads.check_claim((2, "")) is not None


def test_checker_flags_a_point_outside_the_hull():
    points = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    output = workloads._hull_pipeline(points)
    assert workloads.check_hull(points)(output) is None
    assert workloads.check_hull(points + [(1, 1, 1)])(output) is not None


def test_probe_window_around_a_task():
    samples = [[float(i)] for i in range(1, 9)]  # sample i is taken before task i
    assert probe.local(samples, 0) == 2.5  # samples 1..4
    assert probe.local(samples, 4) == 5.5  # samples 3..8


def test_tail_keeps_ten_samples_beyond():
    value, pct = run.tail([float(i) for i in range(22)])
    assert value == 11.0 and pct == pytest.approx(100 * 12 / 22)


def test_benchmark_json_lists_what_the_runs_report():
    units = tracer.metric_units()
    assert tracer.CLAIMS == cli.CLAIMS
    assert all(tracer.moves(name) for name in units)
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == units
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    rounds = [{"traced": False, "wall_s": 1.0, "wall_ref_s": 0.8, "probe_s": 0.01, "peak_rss_mb": 20.0,
               "tasks": [{"name": "t", "seconds": 0.5, "ref_seconds": 0.4, "error": None}]}]
    e2e, _ = run.summarize(rounds, setup=(0.1, 0.12))
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == {k: u for k, (_, u) in e2e.items()}
