"""Answers pinned across commits, byte for byte.

Criterion 7 compares two runs of the same code; these tests compare the
current code with files written by a trusted earlier commit:

* ``golden/suite.json`` is a bench suite over every algorithm, including
  ``fgc`` both on the exact (p, 0) base and above the exact budget (m > 30)
  on the primal-dual fallback base.  Its CSV (no timing column) and its
  solutions map are ``golden/suite.csv`` and ``golden/solutions.json``.
* ``golden/cuts.json`` holds ``is_flex_feasible`` verdicts and witnesses,
  ``violated_cuts_flex_aug`` members and the masks its ``contains``
  accepts, and the families of ``_stage_families``, over the fixed seeded
  cases built by :func:`cut_cases`.
* ``golden/lp.json`` holds the ``repr`` of every float the LP layer returns:
  ``x``, objective, rounds and every row of seeded ``cutting_plane_flex`` and
  ``cutting_plane_bulk`` runs (through ``solve_problem_lp``), and raw
  answers of the two-phase reference simplex ``oracle_utils.two_phase_lp``,
  built by :func:`lp_cases`.  Each cutting-plane run is also checked against
  the optimum of its own final rows: they separate clean, and the reference,
  the package's ``solve_dense_lp`` and scipy HiGHS give the pinned
  objective, so a re-pin that moves ``x`` or the rounds must keep it.
* ``golden/exact.json`` holds the sorted edge ids and the ``repr`` of the
  cost of ``exact_solve`` on seeded bulk, relative (r = 2 and r = 3) and
  flex instances (FGC (2,2), (3,2), (3,3) and (4,4), Flex-ST (2,2) and a
  three-class flex-sndp mix), built by :func:`exact_cases`.

A change that alters an answer on purpose rewrites the files with
``PYTHONPATH=src python tests/test_golden.py`` and says why in its log.
"""

import functools
import json
import sys
from pathlib import Path
from random import Random

import pytest

from faultnet import simplex
from faultnet.bench import bench, solutions_json
from faultnet.errors import FaultnetError
from faultnet.exact import exact_solve
from faultnet.flexalg import (
    _stage_families,
    fgc_plans,
    make_flex_st_plan,
)
from faultnet.graph import FaultGraph
from faultnet.instances import appendix_a_instance, generate
from faultnet.lp import separate_bulk, separate_flex, solve_problem_lp
from faultnet.oracles import (
    FlexRequirement,
    fgc_requirements,
    is_flex_feasible,
    violated_cuts_flex_aug,
)
from oracle_utils import assert_solve_matches_reference, highs_lp, random_lp, safety, two_phase_lp

GOLDEN = Path(__file__).parent / "golden"


def suite_outputs() -> tuple[str, str]:
    suite = json.loads((GOLDEN / "suite.json").read_text(encoding="utf-8"))
    records, csv_text, _code = bench(suite, with_timing=False)
    return csv_text, solutions_json(records)


def _random_graph(rng: Random, n: int) -> FaultGraph:
    specs = []
    for _ in range(rng.randint(2 * n, 4 * n)):
        u, v = rng.sample(range(n), 2)
        specs.append((u, v, round(rng.uniform(0.5, 2.0), 2), rng.choice(("safe", "unsafe"))))
    return FaultGraph(n, specs)


def _requirements(rng: Random, n: int, p: int, q: int) -> tuple:
    shape = rng.choice(("pair", "pairs", "all"))
    if shape == "all":
        return fgc_requirements(n, p, q)
    count = 1 if shape == "pair" else rng.randint(2, 3)
    reqs = []
    for _ in range(count):
        s, t = rng.sample(range(n), 2)
        reqs.append(FlexRequirement(s, t, rng.randint(1, p), rng.randint(0, q)))
    return tuple(reqs)


def _thin(rng: Random, g: FaultGraph, reqs, H: frozenset) -> frozenset:
    """Drop edges of H in random order while it stays feasible for reqs."""
    order = sorted(H)
    rng.shuffle(order)
    for eid in order:
        if is_flex_feasible(g, reqs, H - {eid})[0]:
            H = H - {eid}
    return H


def _witness(result) -> list:
    ok, w = result
    if ok:
        return [True]
    r = w.requirement
    return [False, [r.s, r.t, r.p, r.q], sorted(w.removed), w.cut.mask]


def _family(fam, n: int) -> list:
    return [
        fam.label,
        list(fam.members),
        [mask for mask in range(1 << n) if fam.contains(mask)],
    ]


def _attempt(fn):
    try:
        return fn()
    except FaultnetError as exc:
        return type(exc).__name__


def cut_cases(count: int = 80) -> list:
    rng = Random(20240322)
    out = []
    for _ in range(count):
        n = rng.randint(4, 7)
        g = _random_graph(rng, n)
        p, q = rng.randint(1, 3), rng.randint(1, 3)
        reqs = _requirements(rng, n, p, q)
        H = frozenset(eid for eid in range(g.m) if rng.random() < 0.6)
        prior = tuple(FlexRequirement(r.s, r.t, r.p, max(0, r.q - 1)) for r in reqs)
        F1 = _thin(rng, g, prior, g.all_edge_ids())
        case = {
            "n": n,
            "edges": [[e.u, e.v, e.cost, safety(e)] for e in g.edges],
            "reqs": [[r.s, r.t, r.p, r.q] for r in reqs],
            "H": sorted(H),
            "F1": sorted(F1),
            "feasible_H": _witness(is_flex_feasible(g, reqs, H)),
            "feasible_F1": _witness(is_flex_feasible(g, reqs, F1)),
            "flex_aug": _attempt(
                lambda: _family(violated_cuts_flex_aug(g, reqs, F1), n)
            ),
        }
        s, t = reqs[0].s, reqs[0].t
        # Every p, q in 1..3 has a spanning plan.
        plans = [("spanning", fgc_plans(p, q)[-1], fgc_requirements(n, p, q - 1))]
        if p + q > p * q / 2:
            plans.append(("st", make_flex_st_plan(p, q, s, t), (FlexRequirement(s, t, p, q - 1),)))
        stages = {}
        for scope, plan, base_reqs in plans:
            F = _thin(rng, g, base_reqs, g.all_edge_ids())
            stages[scope] = {
                "p": plan.p,
                "q": plan.q,
                "F": sorted(F),
                "families": [
                    _attempt(
                        lambda spec=spec: [
                            _family(fam, n) for fam in _stage_families(g, F, plan, spec)
                        ]
                    )
                    for spec in plan.stages
                ],
            }
        case["stages"] = stages
        out.append(case)
    return out


def cut_cases_json() -> str:
    return json.dumps(cut_cases(), indent=0, sort_keys=True) + "\n"


def _lp_run(name: str, inst) -> dict:
    sol, model = solve_problem_lp(inst.to_graph(), inst.problem)
    return {
        "name": name,
        "x": repr(sol.x),
        "objective": repr(sol.objective),
        "rounds": sol.rounds,
        "clean": sol.separation_clean,
        "rows": [[repr(r.key), repr(r.terms), repr(r.rhs)] for r in model.rows],
    }


# Hand-written two_phase_lp cases: (name, objective, rows, upper bounds).
SIMPLEX_CASES = (
    ("flipped-rows", [1.0, 2.0, 0.5],
     [([(0, 1.0), (1, 1.0)], 1.0), ([(0, -1.0)], -0.25), ([(1, -1.0), (2, -1.0)], -1.5)], 1.0),
    ("rhs-zero", [1.0, 1.0], [([(0, 1.0), (1, -1.0)], 0.0), ([(1, 1.0)], 0.5)], 1.0),
    ("free-above", [1.0, 3.0], [([(0, 1.0), (1, 1.0)], 2.5)], None),
    ("mixed-bounds", [1.0, 0.5, 2.0],
     [([(0, 1.0), (1, 1.0), (2, 1.0)], 2.5), ([(1, 1.0), (2, -1.0)], 0.75)], [None, 1.0, None]),
    ("infeasible", [1.0, 1.0], [([(0, 1.0), (1, 1.0)], 3.0)], 1.0),
    ("redundant-row", [1.0, 2.0],
     [([(0, 1.0), (1, 1.0)], 1.0), ([(0, 1.0), (1, 1.0)], 1.0), ([(0, 2.0), (1, 2.0)], 2.0)], 1.0),
    ("unbounded", [-1.0, 1.0], [([(0, 1.0), (1, -1.0)], 0.0)], None),
    ("no-rows", [1.0, -1.0], [], 1.0),
)


def _simplex_answer(objective, rows, upper_bounds) -> list:
    status, x, value = two_phase_lp(objective, rows, upper_bounds)
    return [status.value, repr(x), repr(value)]


def lp_instances() -> list:
    """(family, name, instance) of every cutting-plane run in :func:`lp_cases`."""
    out = []
    for seed in (1, 2):
        for p, q in ((2, 1), (2, 2)):
            for skeleton in ("mixed", "safe"):
                params = {"problem": "fgc", "p": p, "q": q, "skeleton": skeleton, "safe_prob": 0.45}
                inst = generate("random-multigraph", n=7, m=15, seed=seed, params=params)
                out.append(("flex", f"fgc-{p}{q}-{skeleton}-s{seed}", inst))
        for p, q in ((2, 1), (1, 2)):
            params = {"problem": "flex-st", "p": p, "q": q, "skeleton": "mixed"}
            inst = generate("random-multigraph", n=6, m=12, seed=seed, params=params)
            out.append(("flex", f"flex-st-{p}{q}-s{seed}", inst))
    for k in (2, 3, 4, 5, 6, 7, 8, 9):
        out.append(("flex", f"appendix-a-k{k}", appendix_a_instance(k)))
    for seed in (1, 2, 3, 4, 5, 6, 7, 8):
        params = {"problem": "bulk", "width": 2, "scenarios": 4}
        inst = generate("random-multigraph", n=7, m=14, seed=seed, params=params)
        out.append(("bulk", f"bulk-s{seed}", inst))
    return out


def lp_cases() -> dict:
    cases = {"flex": [], "bulk": []}
    for family, name, inst in lp_instances():
        cases[family].append(_lp_run(name, inst))
    raw = [[name, _simplex_answer(*case)] for name, *case in SIMPLEX_CASES]
    raw += [[f"random-{seed}", _simplex_answer(*random_lp(seed))] for seed in range(60)]
    # Bland's rule takes over after DEGENERATE_LIMIT degenerate pivots in a
    # row; a limit of 1 makes the seeded LPs exercise it.
    limit = simplex.DEGENERATE_LIMIT
    simplex.DEGENERATE_LIMIT = 1
    try:
        raw += [[f"bland-{seed}", _simplex_answer(*random_lp(seed))] for seed in range(60)]
    finally:
        simplex.DEGENERATE_LIMIT = limit
    cases["simplex"] = raw
    return cases


def lp_cases_json() -> str:
    return json.dumps(lp_cases(), indent=0, sort_keys=True) + "\n"


# Bulk scenarios of width 2, and relative requirements whose expansion has
# up to 1 + 16 + 120 = 137 scenarios at r = 3 and m = 16: n = 6 + i % 2 and
# m = 12 + i % 5 for the i-th instance.
EXACT_SHAPES = (
    ("bulk", {"problem": "bulk", "width": 2, "scenarios": 4}),
    ("rsndp-r2", {"problem": "rsndp", "pairs": 2, "r": 2}),
    ("rsndp-r3", {"problem": "rsndp", "pairs": 2, "r": 3}),
)


def _flex_sizes(p: int, q: int) -> list:
    """The criterion-2 (n, m, skeleton) rotation: n 5..8, m <= 18."""
    mixed_cycles = max((p + 1) // 2, (p + q + 1) // 2)
    safe_cycles = (p + 1) // 2
    sizes = []
    for n in (5, 6, 7, 8):
        if mixed_cycles * n + 2 <= 18:
            sizes.append((n, min(18, mixed_cycles * n + 4), "mixed"))
        if safe_cycles * n + 4 <= 18:
            sizes.append((n, min(18, safe_cycles * n + 6), "safe"))
    return sizes


# Flex instances on the criterion-2 shapes: FGC, Flex-ST between 0 and n-1,
# and a flex-sndp mix of three (p, q) classes whose skeleton of two mixed
# cycles certifies every pair.
FLEX_SNDP_MIX = [[0, 4, 1, 2], [1, 3, 2, 1], [2, 4, 2, 0]]
FLEX_SHAPES = (
    ("fgc-22", "fgc", 2, 2),
    ("fgc-32", "fgc", 3, 2),
    ("fgc-33", "fgc", 3, 3),
    ("fgc-44", "fgc", 4, 4),
    ("flex-st-22", "flex-st", 2, 2),
    ("flex-sndp-mix", "flex-sndp", 2, 2),
)


def _exact_answer(name: str, n: int, m: int, seed: int, params: dict) -> dict:
    inst = generate("random-multigraph", n=n, m=m, seed=seed, params=params)
    sol, cost = exact_solve(inst.to_graph(), inst.problem)
    return {"name": name, "n": n, "m": m, "edges": sorted(sol), "cost": repr(cost)}


def exact_cases(per_shape: int = 20) -> list:
    out = []
    for name, params in EXACT_SHAPES:
        for i in range(per_shape):
            out.append(_exact_answer(f"{name}-{i}", 6 + i % 2, 12 + i % 5, 100 + i, params))
    for k, (name, problem, p, q) in enumerate(FLEX_SHAPES):
        sizes = _flex_sizes(p, q)
        for i in range(per_shape):
            n, m, skeleton = sizes[i % len(sizes)]
            if problem == "flex-sndp":
                n, m, skeleton = 5 + i % 2, 12 + i % 4, "mixed"
            params = {"problem": problem, "p": p, "q": q, "skeleton": skeleton, "safe_prob": 0.45}
            if problem == "flex-sndp":
                params["pairs"] = FLEX_SNDP_MIX
            out.append(_exact_answer(f"{name}-{i}", n, m, 300 + 20 * k + i, params))
    return out


def exact_cases_json() -> str:
    return json.dumps(exact_cases(), indent=0, sort_keys=True) + "\n"


def test_bench_suite_matches_golden():
    csv_text, sols = suite_outputs()
    assert csv_text.encode() == (GOLDEN / "suite.csv").read_bytes()
    assert sols.encode() == (GOLDEN / "solutions.json").read_bytes()


def test_cut_answers_match_golden():
    assert cut_cases_json().encode() == (GOLDEN / "cuts.json").read_bytes()


def test_lp_answers_match_golden():
    assert lp_cases_json().encode() == (GOLDEN / "lp.json").read_bytes()


LP_INSTANCES = {name: (family, inst) for family, name, inst in lp_instances()}


@functools.cache
def _final_rows(name: str) -> tuple:
    """(solution, costs, final rows) of one cutting-plane case."""
    _family, inst = LP_INSTANCES[name]
    g = inst.to_graph()
    sol, model = solve_problem_lp(g, inst.problem)
    return sol, [e.cost for e in g.edges], [(list(r.terms), r.rhs) for r in model.rows]


def _pinned_objective(name: str) -> float:
    family, _inst = LP_INSTANCES[name]
    cases = json.loads((GOLDEN / "lp.json").read_text(encoding="utf-8"))[family]
    return float(next(case["objective"] for case in cases if case["name"] == name))


@pytest.mark.parametrize("name", LP_INSTANCES)
def test_cutting_plane_rows_hold_the_pinned_optimum(name):
    # The final rows separate clean, and a cold solve of them, by the
    # reference and by the package, gives the pinned objective: a re-pin
    # that moves x or the rounds keeps the optimum.
    family, inst = LP_INSTANCES[name]
    g = inst.to_graph()
    sol, costs, rows = _final_rows(name)
    if family == "flex":
        leftover = separate_flex(g, inst.problem.flex, sol.x)
    else:
        leftover = separate_bulk(g, inst.problem.scenarios, sol.x)
    assert sol.separation_clean and leftover is None
    status, _x, cold = two_phase_lp(costs, rows, 1.0)
    assert status is simplex.SimplexStatus.OPTIMAL
    assert abs(cold - _pinned_objective(name)) <= 1e-9
    package = assert_solve_matches_reference(costs, rows)
    assert abs(package - _pinned_objective(name)) <= 1e-9
    assert abs(sol.objective - _pinned_objective(name)) <= 1e-9


@pytest.mark.parametrize("name", LP_INSTANCES)
def test_cutting_plane_rows_agree_with_highs(name):
    pytest.importorskip("scipy")
    _sol, costs, rows = _final_rows(name)
    code, fun = highs_lp(costs, rows, [1.0] * len(costs))
    assert code == 0
    assert abs(fun - _pinned_objective(name)) <= 1e-7


def test_exact_answers_match_golden():
    assert exact_cases_json().encode() == (GOLDEN / "exact.json").read_bytes()


def write_golden() -> None:
    csv_text, sols = suite_outputs()
    (GOLDEN / "suite.csv").write_bytes(csv_text.encode())
    (GOLDEN / "solutions.json").write_bytes(sols.encode())
    (GOLDEN / "cuts.json").write_bytes(cut_cases_json().encode())
    (GOLDEN / "lp.json").write_bytes(lp_cases_json().encode())
    (GOLDEN / "exact.json").write_bytes(exact_cases_json().encode())


if __name__ == "__main__":
    sys.exit(write_golden())
