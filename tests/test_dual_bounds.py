"""Primal-dual cover results pinned across commits.

No answer digest reads a cover's dual lower bound or its add/drop trace,
so this pins them here.  It runs the seed-1 cell list of ``ratio-sweep``
and ``fgc-fallback`` in ``perfbench/workloads.py``, sized as ``python3
perfbench/run.py --seed 1 --seconds 5`` sizes it, records every
``cover.primal_dual_cover`` result in call order, and compares the sha256
over ``float.hex`` of each dual bound, its trace and its sorted edges with
the value a trusted earlier commit gave.  The dual bound must not move by
a bit: it is the certificate below the optimum.  Next to it are the
counts that the covers and ``flexalg.flex_base`` report to
:mod:`faultnet.trace`: covers, growth steps, drops, and which base ran.
"""

import hashlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import run  # noqa: E402

run.import_faultnet()

from faultnet import cover, flexalg, trace  # noqa: E402
from workloads import WORKLOADS, run_cells  # noqa: E402

SECONDS = 5
PINS = {
    "ratio-sweep": {
        "digest": "07dc56cd63bc3f231c75fde2ef0c971643fb25f18887b6d7ae22fb5038ae0c8f",
        "cover.covers": 171,
        "cover.steps": 143,
        "cover.drops": 20,
        "flexalg.exact_bases": 40,
        "flexalg.ecsndp_bases": 0,
    },
    "fgc-fallback": {
        "digest": "bc67271f9ed41db86eb6f7e11f94c8d645af992f060da6fa11f3a24cf6f3a8f1",
        "cover.covers": 525,
        "cover.steps": 1650,
        "cover.drops": 154,
        "flexalg.exact_bases": 0,
        "flexalg.ecsndp_bases": 75,
    },
}


@pytest.mark.parametrize("name", list(PINS))
def test_seed_1_cover_results_are_unchanged(name, monkeypatch):
    results = []
    original = cover.primal_dual_cover

    def recorded(fam):
        result = original(fam)
        results.append(result)
        return result

    # ecsndp_base calls the name in cover, the stage loop the one in flexalg.
    monkeypatch.setattr(cover, "primal_dual_cover", recorded)
    monkeypatch.setattr(flexalg, "primal_dual_cover", recorded)
    workload = WORKLOADS[name]
    with trace.recording() as counts:
        outcomes, _wall = run_cells(workload.make_cells(1, workload.cell_count(SECONDS)))
    assert [out.error for out in outcomes if out.error] == []
    sha = hashlib.sha256()
    for result in results:
        line = f"{result.dual_lower_bound.hex()} {result.trace} {sorted(result.edges)}\n"
        sha.update(line.encode())
    got = {key: counts[key] for key in PINS[name]}
    got["digest"] = sha.hexdigest()
    assert got == PINS[name]
