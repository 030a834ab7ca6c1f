"""The work recorder, ``faultnet.trace``.

Counts reach only a recording open in the same context; outside one they
are dropped.  The exact search reports its work there once per search, and
the cutting plane and ``solve_dense_lp`` once per run, so the totals of a
cell list repeat exactly from run to run.
"""

import contextvars
import sys
import threading
from pathlib import Path

from faultnet import Problem, exact_solve, fgc_requirements, lp, trace
from faultnet.simplex import solve_dense_lp
from oracle_utils import random_graph

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import run  # noqa: E402

run.import_faultnet()

from workloads import WORKLOADS, run_cells  # noqa: E402


def _search():
    g = random_graph(5, 6, 12)
    exact_solve(g, Problem("flex", flex=fgc_requirements(g.n, 1, 1)))


def test_counts_outside_a_recording_are_dropped():
    trace.count("outside", 3)
    _search()
    with trace.recording() as counts:
        pass
    assert counts == {}
    with trace.recording() as counts:
        _search()
    assert set(counts) == {
        "exact.nodes", "exact.checks", "exact.bounds", "exact.prunes", "exact.dominated"
    }
    assert counts["exact.nodes"] > 0 and counts["exact.checks"] > 0


def test_lp_runs_count_rounds_rows_and_pivots():
    g = random_graph(5, 6, 12)
    with trace.recording() as counts:
        sol, model = lp.cutting_plane_flex(g, fgc_requirements(g.n, 1, 1))
    assert set(counts) == {"lp.rounds", "lp.rows", "simplex.pivots"}
    assert counts["lp.rounds"] == sol.rounds == len(model.rows) + 1
    assert counts["simplex.pivots"] >= len(model.rows) > 0
    rows = [(list(row.terms), row.rhs) for row in model.rows]
    with trace.recording() as counts:
        solve_dense_lp([e.cost for e in g.edges], rows)
    assert set(counts) == {"simplex.pivots"} and counts["simplex.pivots"] > 0


def test_a_recording_sees_only_its_own_context():
    thread_counts = {}

    def worker():
        trace.count("x", 1000)  # no recording open in this context
        with trace.recording() as own:
            trace.count("x", 100)
        thread_counts.update(own)

    with trace.recording() as outer:
        trace.count("x")
        contextvars.Context().run(trace.count, "x", 10)
        # A thread in a context of its own, as a new thread has by default.
        thread = threading.Thread(target=contextvars.Context().run, args=(worker,))
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        with trace.recording() as inner:
            trace.count("y", 2)
        assert inner == {"y": 2}
    # A nested recording adds its counts to the one around it on exit.
    assert outer == {"x": 1, "y": 2}
    assert thread_counts == {"x": 100}


def test_two_runs_of_the_same_cells_count_the_same():
    totals = []
    for name in ("ratio-sweep", "bulk-relative"):
        cells = WORKLOADS[name].make_cells(1, 12)
        for _ in range(2):
            with trace.recording() as counts:
                outcomes, _wall = run_cells(cells)
            assert [out.error for out in outcomes if out.error] == []
            totals.append(dict(counts))
    assert totals[0] == totals[1] and totals[2] == totals[3]
    assert all(total["exact.nodes"] > 0 for total in totals)
