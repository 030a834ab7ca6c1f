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
A stage or base level with no cut to cover calls no cover, so every
recorded cover has a member: each digest is the one its list gave,
before empty covers were skipped, over its non-empty covers only.
"""

import hashlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import run  # noqa: E402

run.import_faultnet()

from faultnet import flexalg, trace  # noqa: E402
from workloads import WORKLOADS, run_cells  # noqa: E402

SECONDS = 5
PINS = {
    "ratio-sweep": {
        "digest": "bc1b1e4d4eeec39451d0df2b0c1dc7c1ea6d49f8cab6c3c4c7d0b197e4da268b",
        "cover.covers": 67,
        "cover.steps": 143,
        "cover.drops": 20,
        "flexalg.exact_bases": 40,
        "flexalg.ecsndp_bases": 0,
    },
    "fgc-fallback": {
        "digest": "c4bbfebe55691401783a216335db1cc0a2cd2739a6e9c74595367e64ba0f7740",
        "cover.covers": 380,
        "cover.steps": 1650,
        "cover.drops": 154,
        "flexalg.exact_bases": 0,
        "flexalg.ecsndp_bases": 75,
    },
}


@pytest.mark.parametrize("name", list(PINS))
def test_seed_1_cover_results_are_unchanged(name, monkeypatch):
    results = []
    original = flexalg.primal_dual_cover

    def recorded(fam):
        result = original(fam)
        results.append(result)
        return result

    # The fallback base levels and the augmentation stages run on one stage
    # loop, which calls the name in flexalg.
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
