"""Exact-search work pinned across commits.

Most of the time of ``ratio-sweep`` and ``bulk-relative`` goes to
``exact_solve``, as the exact baseline and as the FGC (p, 0) base.  This
runs the seed-1 cell list of both workloads in ``perfbench/workloads.py``,
sized as ``python3 perfbench/run.py --seed 1 --seconds 5`` sizes it, and
counts the search's checker scans and packing bounds with
:func:`oracle_utils.counting_search_calls`.  Unlike a timing the counts
repeat exactly, so a change that makes the search do more or less work
fails here.  A change that lowers them on purpose re-pins them and names
each one in its log.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import run  # noqa: E402

run.import_faultnet()

from oracle_utils import counting_search_calls  # noqa: E402
from workloads import WORKLOADS, run_cells  # noqa: E402

SECONDS = 5
SEARCH_CALLS = {
    "ratio-sweep": {"first_bad": 20482, "bound": 895},
    "bulk-relative": {"first_bad": 43642, "bound": 23290},
}


@pytest.mark.parametrize("name", list(SEARCH_CALLS))
def test_seed_1_search_work_is_unchanged(name):
    workload = WORKLOADS[name]
    cells = workload.make_cells(1, workload.cell_count(SECONDS))
    with counting_search_calls() as counts:
        outcomes, _wall = run_cells(cells)
    assert [out.error for out in outcomes if out.error] == []
    assert dict(counts) == SEARCH_CALLS[name]
