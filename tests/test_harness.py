"""The benchmark harness in ``perfbench/`` against the library it binds.

The worker imports library names and its tracer wraps library functions
by module and name, so a rename in the library would otherwise show only
when the benchmark runs. One traced ``hull-faces`` round, run in this
process (about half a second), checks both.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import worker  # noqa: E402


def test_a_traced_hull_faces_round_runs_every_task_through_the_bound_layers():
    result = worker.run_round("hull-faces", 7, 0, True)
    assert len(result["tasks"]) == 16
    assert [t["error"] for t in result["tasks"]] == [None] * 16
    assert result["layers"]["polytope.faces.calls"] > 0
    assert result["layers"]["indices.index_sequence.calls"] > 0
