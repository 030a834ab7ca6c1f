"""Exact-search work pinned across commits.

Most of the time of ``ratio-sweep`` and ``bulk-relative`` goes to
``exact_solve``, as the exact baseline and as the FGC (p, 0) base.  This
runs the seed-1 cell list of both workloads in ``perfbench/workloads.py``,
sized as ``python3 perfbench/run.py --seed 1 --seconds 5`` sizes it, and
reads the work that the search reports to :mod:`faultnet.trace`: its
feasibility tests and packing bounds, its DFS nodes, its bound prunes and
its dominance skips.
Unlike a timing the counts repeat exactly, so a change that makes the
search do more or less work fails here.  A change that lowers them on
purpose re-pins them and names each one in its log.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import run  # noqa: E402

run.import_faultnet()

from faultnet import trace  # noqa: E402
from workloads import WORKLOADS, run_cells  # noqa: E402

SECONDS = 5
SEARCH_CALLS = {
    "ratio-sweep": {"exact.checks": 7355, "exact.bounds": 714},
    "bulk-relative": {"exact.checks": 30517, "exact.bounds": 16545},
}
# DFS nodes entered, ``exact.nodes``.
SEARCH_NODES = {"ratio-sweep": 8620, "bulk-relative": 26040}
# Exclusions skipped because a cheaper parallel edge dominates a chosen one,
# ``exact.dominated``.
SEARCH_DOMINATED = {"ratio-sweep": 793, "bulk-relative": 529}
# Nodes whose subtree a bound cut, ``exact.prunes``.
SEARCH_PRUNES = {"ratio-sweep": 2288, "bulk-relative": 5077}


@pytest.mark.parametrize("name", list(SEARCH_CALLS))
def test_seed_1_search_work_is_unchanged(name):
    workload = WORKLOADS[name]
    cells = workload.make_cells(1, workload.cell_count(SECONDS))
    with trace.recording() as counts:
        outcomes, _wall = run_cells(cells)
    assert [out.error for out in outcomes if out.error] == []
    assert {key: counts[key] for key in SEARCH_CALLS[name]} == SEARCH_CALLS[name]
    assert counts["exact.nodes"] == SEARCH_NODES[name]
    assert counts["exact.dominated"] == SEARCH_DOMINATED[name]
    assert counts["exact.prunes"] == SEARCH_PRUNES[name]
