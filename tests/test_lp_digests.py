"""Cutting-plane LP answers pinned at full precision across commits.

``tests/test_answer_digests.py`` pins the ``lp-cutting-plane`` answers by
the objective rounded to 6 decimals, which a change to the separator's
float arithmetic or tie rule could leave untouched.  These digests take the
sha256 of ``repr((x, objective, rounds, rows))``, every row as
``(key, terms, rhs)`` in the order the driver added it, so a changed last
bit of any x, a different row or a different round count fails them.  They
cover the seed-1 ``lp-cutting-plane`` cells of ``perfbench/workloads.py``,
sized as ``python3 perfbench/run.py --seed 1 --seconds 5`` sizes them, and
the Appendix A instances at k = 7, 8 and 9.  A change that alters an LP
answer on purpose re-pins the digest here and says why in its log.

The same cells' work is pinned too: the cutting-plane rounds, rows and
dual-simplex pivots that ``faultnet.trace`` records.  A change that does
more simplex work fails here even when every answer stays the same.
"""

import hashlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import run  # noqa: E402

run.import_faultnet()

from faultnet import instances, lp, trace  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SECONDS = 5
WORKLOAD_DIGEST = "f6767eb2633c0664cc536fe6885074c8d0f9e9ce1e21307e82f8c1fcd01b14e5"
WORKLOAD_WORK = {"lp.rounds": 1617, "lp.rows": 1492, "simplex.pivots": 3284}
APPENDIX_A_DIGESTS = {
    7: "ed2105207e8e9771d876508d4aa660fa29805336d4976c6987fbb2f2f15cfc34",
    8: "33c2cdc570f6efd264de0fe1c37a837482541daabf52e31587cb7497be88f5dd",
    9: "0343b1a36757c78a89866cb57ea9c4bc853829e56d5b0dc538a0b0e21eefb806",
}


def lp_answer(inst) -> str:
    """``repr((x, objective, rounds, rows))`` of the instance's cutting-plane LP."""
    g = inst.to_graph()
    if inst.problem.kind == "flex":
        sol, model = lp.cutting_plane_flex(g, inst.problem.flex)
    else:
        sol, model = lp.cutting_plane_bulk(g, inst.problem.scenarios)
    assert sol.separation_clean
    rows = [(row.key, row.terms, row.rhs) for row in model.rows]
    return repr((sol.x, sol.objective, sol.rounds, rows))


def test_seed_1_lp_answers_are_pinned():
    workload = WORKLOADS["lp-cutting-plane"]
    h = hashlib.sha256()
    for cell in workload.make_cells(1, workload.cell_count(SECONDS)):
        assert cell.kind == "lp"
        h.update(lp_answer(instances.parse(cell.text)).encode())
    assert h.hexdigest() == WORKLOAD_DIGEST


def test_seed_1_lp_work_is_pinned():
    workload = WORKLOADS["lp-cutting-plane"]
    cells = workload.make_cells(1, workload.cell_count(SECONDS))
    with trace.recording() as counts:
        for cell in cells:
            lp_answer(instances.parse(cell.text))
    assert counts == WORKLOAD_WORK


@pytest.mark.parametrize("k", sorted(APPENDIX_A_DIGESTS))
def test_appendix_a_lp_answers_are_pinned(k):
    answer = lp_answer(instances.appendix_a_instance(k))
    assert hashlib.sha256(answer.encode()).hexdigest() == APPENDIX_A_DIGESTS[k]
