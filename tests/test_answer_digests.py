"""Benchmark answers pinned across commits.

Criterion 7 asks that a change leave every answer byte-identical.  This
runs the seed-1 cell list of each workload in ``perfbench/workloads.py``,
sized as ``python3 perfbench/run.py --seed 1 --seconds 5`` sizes it, applies
the benchmark's own checks and compares the sha256 digest of the answers
with the one a trusted earlier commit gave.  A change that alters an answer
on purpose re-pins the digest here and says why in its log.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import run  # noqa: E402

run.import_faultnet()

from workloads import WORKLOADS, digest, run_cells, verify  # noqa: E402

SECONDS = 5
DIGESTS = {
    "ratio-sweep": "e0256b0d2989a01272f3076b105fa9dc3ba36a1cb5fd5e80b1819e592c84b2a6",
    "fgc-fallback": "f55b68fd0cb57919a5a295488d0fe80f027b878b1053d06508c3cb00d7eabd14",
    "bulk-relative": "b26ec4f59eef2992643f649f8fe17fe6e0549b00dad0bcf2017e61b9019f468d",
    "lp-cutting-plane": "a88b481cf0dabc6511235843a06fc33608797c35169557bfc5321a40b103aecb",
}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_seed_1_answers_are_unchanged(name):
    workload = WORKLOADS[name]
    cells = workload.make_cells(1, workload.cell_count(SECONDS))
    outcomes, _wall = run_cells(cells)
    first: dict = {}
    verify(cells, outcomes, first)
    assert [out.error for out in outcomes if out.error] == []
    assert digest(first) == DIGESTS[name]
