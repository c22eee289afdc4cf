"""The benchmark harness in ``perfbench/`` against the library it binds.

The worker imports library names and its tracer wraps library functions
by module and name, so a rename in the library would otherwise show only
when the benchmark runs. One traced ``hull-faces`` round, run in this
process (about half a second), checks both.

The workloads' walks are pinned too: every ``walk_box`` call of
``verify-p2`` and of one ``count-deep`` round, by the hash of its counts
and charges, so a kernel change that moves any of them fails here, and
the slice line orders those walks build, so a horizon made looser or
tighter fails here too, and the sub-walks they keep in the memo and read
back.
"""

import contextlib
import io
import sys
from hashlib import sha256
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import worker  # noqa: E402
import workloads  # noqa: E402
from test_kernels import memo_use  # noqa: E402

from ehrhart import _enum_py, cli  # noqa: E402


def test_a_traced_hull_faces_round_runs_every_task_through_the_bound_layers():
    result = worker.run_round("hull-faces", 7, 0, True)
    assert len(result["tasks"]) == 16
    assert [t["error"] for t in result["tasks"]] == [None] * 16
    assert result["layers"]["polytope.faces.calls"] > 0
    assert result["layers"]["indices.index_sequence.calls"] > 0


def walk_log(run) -> tuple[int, int, str]:
    """The ``walk_box`` calls that ``run`` makes: their number, their total
    charge, and the sha256 of the ``repr`` of their ``(count, charge)``
    list in call order."""
    log = []
    walk_box = _enum_py.walk_box

    def recorded(*args):
        log.append(walk_box(*args))
        return log[-1]

    with mock.patch.object(_enum_py, "walk_box", recorded):
        run()
    return len(log), sum(charge for _, charge in log), sha256(repr(log).encode()).hexdigest()


def test_the_verify_p2_walks_count_and_charge_as_recorded(fresh_bodies):
    # every walk of ``verify all --max-p 2`` from fresh bodies, as recorded
    # once a slice where several systems are live was counted in closed
    # form: only the two union walks charge less, 16 for 19
    def verify():
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["verify", "all", "--max-p", "2"]) == 0

    assert walk_log(verify) == (
        582, 2929, "f1dda92bd37172beb9be4db7c3f0d6d8508838ddb6f134225bbe4faf687e9271"
    )


def test_the_count_deep_walks_count_and_charge_as_recorded():
    # the walks of the count-deep tasks of seed 7, round 0, as recorded
    # with the verify-p2 walks above: the two union walks charge 664 for 860
    tasks = workloads.make_tasks("count-deep", workloads.make_inputs("count-deep", 7, 0))
    assert walk_log(lambda: [task.run() for task in tasks]) == (
        62, 5948, "a5fae75cbeab05b9820a95a6a26efce6b08450d13aaa5e4810c0267b2c1d1c12"
    )


def order_builds(run) -> int:
    """How often ``run`` builds a run's slice line orders with their
    horizon: its calls of ``_run``."""
    calls = []
    build = _enum_py._run

    def counted(*args):
        calls.append(None)
        return build(*args)

    with mock.patch.object(_enum_py, "_run", counted):
        run()
    return len(calls)


def test_the_verify_p2_walks_keep_one_sub_walk_in_their_memo(fresh_bodies):
    # stored and read back: a sub-walk kept where no call reads it moves this
    def verify():
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["verify", "all", "--max-p", "2"]) == 0

    assert memo_use(verify) == (1, 0)


def test_the_count_deep_walks_keep_their_memo_as_recorded():
    tasks = workloads.make_tasks("count-deep", workloads.make_inputs("count-deep", 7, 0))
    assert memo_use(lambda: [task.run() for task in tasks]) == (25, 550)


def test_the_verify_p2_walks_build_their_line_orders_as_recorded(fresh_bodies):
    # a run builds its orders again only past the values over which the
    # comparisons that built them hold: a looser or tighter horizon moves this
    def verify():
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["verify", "all", "--max-p", "2"]) == 0

    assert order_builds(verify) == 207


def test_the_count_deep_walks_build_their_line_orders_as_recorded():
    # as above, for the count-deep round of seed 7
    tasks = workloads.make_tasks("count-deep", workloads.make_inputs("count-deep", 7, 0))
    assert order_builds(lambda: [task.run() for task in tasks]) == 44
