import gc
import sys
from math import inf
from random import Random

import pytest

from faultnet.cuts import Boundary, crossed, layout_of
from faultnet.errors import BudgetExceeded, EnumerationTooLarge, InfeasibleInstance
from faultnet.exact import _Checker, _Packing, exact_solve
from faultnet.graph import FaultGraph
from faultnet.instances import appendix_a_instance, generate
from faultnet.oracles import (
    BulkScenario,
    FlexRequirement,
    Problem,
    RelativeRequirement,
    check_problem_feasible,
    fgc_requirements,
)
from oracle_utils import (
    brute_connected,
    brute_flex_feasible,
    brute_rsndp_feasible,
    counting_search_calls,
    dijkstra_cost,
    global_flex_oracle,
    kruskal_mst_cost,
    random_graph,
)


def brute_minimum(g, feasible):
    """Cheapest feasible subset of all 2^m edge subsets."""
    best = None
    for bits in range(1 << g.m):
        H = frozenset(eid for eid in range(g.m) if (bits >> eid) & 1)
        cost = g.total_cost(H)
        if (best is None or cost < best) and feasible(H):
            best = cost
    return best


class TestExactSolve:
    def test_single_pair_10_is_shortest_path(self):
        for seed in range(5):
            g = random_graph(seed + 10, 7, 13)
            prob = Problem("flex", flex=(FlexRequirement(0, 6, 1, 0),))
            _sol, cost = exact_solve(g, prob)
            assert abs(cost - dijkstra_cost(g, 0, 6)) < 1e-9

    def test_all_pairs_10_is_mst(self):
        for seed in range(5):
            g = random_graph(seed + 30, 6, 12)
            prob = Problem("flex", flex=fgc_requirements(6, 1, 0))
            _sol, cost = exact_solve(g, prob)
            assert abs(cost - kruskal_mst_cost(g)) < 1e-9

    def test_appendix_a_k2_opt(self):
        # Frozen from exhaustive search over all 2^9 edge subsets with the
        # flex oracle: two safe edges at cost 3 plus three unsafe halves.
        inst = appendix_a_instance(2)
        _sol, cost = exact_solve(inst.to_graph(), inst.problem)
        assert abs(cost - 7.5) < 1e-9

    def test_never_beaten(self):
        # exact <= any feasible solution, here the full edge set.
        inst = generate(
            "random-multigraph",
            n=6,
            m=14,
            seed=2,
            params={"problem": "fgc", "p": 2, "q": 2},
        )
        g = inst.to_graph()
        sol, cost = exact_solve(g, inst.problem)
        assert cost <= g.total_cost(g.all_edge_ids()) + 1e-12
        ok, _ = check_problem_feasible(g, inst.problem, sol)
        assert ok

    def test_budget_guard(self):
        g = random_graph(1, 6, 12)
        prob = Problem("flex", flex=(FlexRequirement(0, 5, 1, 0),))
        with pytest.raises(BudgetExceeded):
            exact_solve(g, prob, budget=5)

    def test_search_state_is_freed_on_return(self):
        # With the cyclic collector off, nothing of a finished search may
        # still hold the graph.
        g = random_graph(3, 6, 12)
        prob = Problem("flex", flex=fgc_requirements(g.n, 1, 1))
        exact_solve(g, prob)  # warm every cache the search may fill
        before = sys.getrefcount(g)
        gc.disable()
        try:
            exact_solve(g, prob)
            after = sys.getrefcount(g)
        finally:
            gc.enable()
        assert after == before

    def test_infeasible_instance(self):
        g = FaultGraph(3, [(0, 1, 1, "unsafe"), (1, 2, 1, "unsafe")])
        prob = Problem("flex", flex=(FlexRequirement(0, 2, 1, 1),))
        with pytest.raises(InfeasibleInstance):
            exact_solve(g, prob)

    def test_rsndp_enumeration_budget(self, monkeypatch):
        # 1 + 12 + 66 = 79 failure sets of size < 3: the bulk expansion's
        # guard fires one set over the budget.
        g = random_graph(1, 6, 12)
        prob = Problem("rsndp", relative=(RelativeRequirement(0, 5, 3),))
        monkeypatch.setenv("FAULTNET_ENUM_BUDGET", "78")
        with pytest.raises(EnumerationTooLarge, match="^79 failure sets exceed the enumeration budget$"):
            exact_solve(g, prob)
        monkeypatch.setenv("FAULTNET_ENUM_BUDGET", "79")
        sol, _cost = exact_solve(g, prob)
        assert check_problem_feasible(g, prob, sol)[0]

    def test_bulk_and_rsndp_paths(self):
        # Failing edge 0 leaves the detour 0-3-2 as the only route, and the
        # detour alone already satisfies the scenario: optimum {2, 3} at 4.
        g = FaultGraph(
            4,
            [(0, 1, 1, "safe"), (1, 2, 1, "safe"), (0, 3, 2, "safe"), (3, 2, 2, "safe")],
        )
        prob = Problem("bulk", scenarios=(BulkScenario(frozenset({0}), ((0, 2),)),))
        sol, cost = exact_solve(g, prob)
        assert sol == frozenset({2, 3}) and abs(cost - 4.0) < 1e-9

        # r=2 demands surviving every single-edge failure G survives; every
        # 3-edge subset fails one of them, so the optimum is all four edges.
        prob_r = Problem("rsndp", relative=(RelativeRequirement(0, 2, 2),))
        sol_r, cost_r = exact_solve(g, prob_r)
        ok, _ = check_problem_feasible(g, prob_r, sol_r)
        assert ok
        assert abs(cost_r - 6.0) < 1e-9


BRUTE_SHAPES = [
    ({"problem": "bulk", "width": 2, "scenarios": 4}, seed) for seed in range(6)
] + [({"problem": "rsndp", "pairs": 2, "r": r}, seed) for r in (2, 3) for seed in range(4)]


@pytest.mark.parametrize(
    "params, seed",
    BRUTE_SHAPES,
    ids=[f"{params['problem']}-{params.get('r', params.get('width'))}-{seed}" for params, seed in BRUTE_SHAPES],
)
def test_bulk_and_rsndp_optimum_matches_brute_force(params, seed):
    n, m = 5 + seed % 2, 8 + seed % 3
    inst = generate("random-multigraph", n=n, m=m, seed=700 + seed, params=params)
    g, prob = inst.to_graph(), inst.problem
    if prob.kind == "bulk":
        def feasible(H):
            return all(
                brute_connected(g, H - sc.fail, u, v) for sc in prob.scenarios for u, v in sc.pairs
            )
    else:
        def feasible(H):
            return brute_rsndp_feasible(g, prob.relative, H)
    _sol, cost = exact_solve(g, prob)
    assert abs(cost - brute_minimum(g, feasible)) < 1e-9


# Flex classes on two pairs, and a two-class mix.  Unsafe edges cost a third
# of a safe one on average, so optima mix safe and unsafe edges.
FLEX_CLASSES = {
    "11": ((1, 1), (1, 1)),
    "21": ((2, 1), (2, 1)),
    "22": ((2, 2), (2, 2)),
    "mix": ((2, 1), (1, 2)),
}
FLEX_BRUTE_SHAPES = [(name, seed) for name in FLEX_CLASSES for seed in range(4)]


def _flex_case(name, seed):
    """The first seeded graph, with n = 5-6 and m = 8-10, whose full edge
    set meets the requirements of class set ``name``."""
    n, m = 5 + seed % 2, 8 + seed % 3
    (p1, q1), (p2, q2) = FLEX_CLASSES[name]
    reqs = (FlexRequirement(0, n - 1, p1, q1), FlexRequirement(1, 3, p2, q2))
    for attempt in range(100):
        g = random_graph(1000 * seed + attempt + 17 * len(name), n, m, safe_prob=0.4)
        specs = [(e.u, e.v, e.cost if e.safe else round(e.cost / 3, 3), e.safety) for e in g.edges]
        g = FaultGraph(n, specs)
        if brute_flex_feasible(g, reqs, g.all_edge_ids()):
            return g, Problem("flex", flex=reqs)
    raise AssertionError("no feasible seeded graph")


@pytest.mark.parametrize("name, seed", FLEX_BRUTE_SHAPES, ids=[f"{n}-{s}" for n, s in FLEX_BRUTE_SHAPES])
def test_flex_optimum_matches_brute_force(name, seed):
    g, prob = _flex_case(name, seed)
    _sol, cost = exact_solve(g, prob)
    assert abs(cost - brute_minimum(g, lambda H: brute_flex_feasible(g, prob.flex, H))) < 1e-9


# Spanning (all-pairs) classes, for which the search adds the degree bound.
FGC_CLASSES = {"fgc20": (2, 0), "fgc21": (2, 1), "fgc30": (3, 0)}


def _fgc_case(name, seed):
    """The first seeded graph, with n = 5-6 and m = 10-11, whose full edge
    set meets all-pairs requirements ``name``."""
    n, m = 5 + seed % 2, 10 + seed % 2
    p, q = FGC_CLASSES[name]
    for attempt in range(100):
        g = random_graph(1000 * seed + attempt + 7 * p + q, n, m, safe_prob=0.4)
        feasible = global_flex_oracle(g, p, q)
        if feasible(g.all_edge_ids()):
            return g, Problem("flex", flex=fgc_requirements(n, p, q)), feasible
    raise AssertionError("no feasible seeded graph")


def _bound_case(name, seed):
    """(graph, problem, brute-force feasibility) for the admissibility test."""
    if name in FLEX_CLASSES:
        g, prob = _flex_case(name, seed)
        return g, prob, lambda H: brute_flex_feasible(g, prob.flex, H)
    if name in FGC_CLASSES:
        return _fgc_case(name, seed)
    params = {
        "bulk": {"problem": "bulk", "width": 2, "scenarios": 4},
        "rsndp": {"problem": "rsndp", "pairs": 2, "r": 3},
    }[name]
    inst = generate("random-multigraph", n=5 + seed % 2, m=9, seed=800 + seed, params=params)
    g, prob = inst.to_graph(), inst.problem
    if prob.kind == "bulk":
        return g, prob, lambda H: all(
            brute_connected(g, H - sc.fail, u, v) for sc in prob.scenarios for u, v in sc.pairs
        )
    return g, prob, lambda H: brute_rsndp_feasible(g, prob.relative, H)


BOUND_CASES = [
    (name, seed) for name in (*FLEX_CLASSES, *FGC_CLASSES, "bulk", "rsndp") for seed in range(2)
]


def _fresh_table(g, packing, chosen, k):
    """The degree table from scratch: the repair of each vertex at depth k,
    from its chosen and safe degrees counted edge by edge."""
    table = []
    for v in range(g.n):
        mine = [eid for eid in g.incident(v) if eid in chosen]
        table.append(packing.repair(v, len(mine), sum(g.edges[eid].safe for eid in mine), k))
    return table


@pytest.mark.parametrize("name, seed", BOUND_CASES, ids=[f"{n}-{s}" for n, s in BOUND_CASES])
def test_packing_bound_never_exceeds_the_cheapest_completion(name, seed):
    # A partial state of the search: edges order[:k] are decided, ``chosen``
    # among them; any completion adds a subset of the undecided order[k:].
    g, prob, feasible = _bound_case(name, seed)
    order = sorted(range(g.m), key=lambda eid: (-g.cost_of(eid), eid))
    cross = [crossed(g, (eid,)) for eid in range(g.m)]
    layout = layout_of(g)
    checker = _Checker(g, prob)
    packing = _Packing(g, order, checker.classes)
    # Only the all-pairs classes hold every singleton cut in scope.
    assert bool(packing.spanning) == (name in FGC_CLASSES)
    rng = Random(seed)
    checked = stronger = degree_wins = 0
    for _ in range(80):
        k = rng.randrange(g.m)
        chosen = frozenset(eid for eid in order[:k] if rng.random() < 0.5)
        undecided = order[k:]
        best = inf
        for bits in range(1 << len(undecided)):
            added = frozenset(eid for i, eid in enumerate(undecided) if (bits >> i) & 1)
            cost = g.total_cost(added)
            if cost < best and feasible(chosen | added):
                best = cost
        counts = Boundary(g, chosen)
        violated = checker.first_bad(counts.total, counts.safe, counts.inside)
        if violated is None or best == inf:
            continue
        # A finite limit stops a packing that never drops its cuts.
        bound = packing.bound(counts.total, counts.safe, k, violated, 0.0, best + 1.0)
        assert bound <= best + 1e-9
        if packing.spanning:
            # The whole degree bound, without the search's early stop.
            degree = 0.0
            for repair in _fresh_table(g, packing, chosen, k):
                degree += repair
            degree /= 2
            assert degree <= best + 1e-9
            degree_wins += degree > bound + 1e-9
        bad, _pq, fail = violated
        low = layout.compact(bad & -bad)  # the first bad cut, as a cut set
        one_edge = min(g.cost_of(e) for e in undecided if cross[e] & low and e not in fail)
        checked += 1
        stronger += bound > one_edge + 1e-9
    assert checked >= 10
    if name in FLEX_CLASSES:
        # A flex cut that needs p - s or p + q - t > 1 edges costs more than
        # its cheapest candidate: the packing must show that somewhere.
        assert stronger >= 1
    if name in FGC_CLASSES:
        # Violated singleton cuts whose repairs the packing cannot all count
        # (their candidates overlap) must lift the bound somewhere.
        assert degree_wins >= 1


FGC_BOUND_CASES = [(name, seed) for name, seed in BOUND_CASES if name in FGC_CLASSES]


@pytest.mark.parametrize("name, seed", FGC_BOUND_CASES, ids=[f"{n}-{s}" for n, s in FGC_BOUND_CASES])
def test_degree_table_matches_a_fresh_computation(name, seed):
    # Random include/exclude paths from the root, as the search walks them:
    # after each decision ``refresh`` recomputes the decided edge's two
    # endpoints, and every entry must be bitwise the fresh repair.
    g, prob, _feasible = _bound_case(name, seed)
    order = sorted(range(g.m), key=lambda eid: (-g.cost_of(eid), eid))
    packing = _Packing(g, order, _Checker(g, prob).classes)
    rng = Random(seed)
    states = moved = 0
    for _ in range(20):
        chosen: set[int] = set()
        counts = Boundary(g)
        table = _fresh_table(g, packing, chosen, 0)
        for k, eid in enumerate(order, start=1):
            if rng.random() < 0.5:
                chosen.add(eid)
                counts.add(eid)
            before = list(table)
            packing.refresh(table, k, counts.total, counts.safe)
            fresh = _fresh_table(g, packing, chosen, k)
            assert list(map(float.hex, table)) == list(map(float.hex, fresh))
            states += 1
            moved += table != before
    assert states == 20 * g.m
    # The entries do move along the paths, so equality is not vacuous.
    assert moved >= states // 4


@pytest.mark.parametrize("name", ("bulk", "rsndp"))
def test_scenario_check_skips_sets_with_no_light_cut(name):
    # A scenario cuts off only cuts with at most |F_j| edges of the set, so
    # first_bad answers None without a scan when no in-scope cut is that
    # light.  It must give the scan's answer and brute force's verdict.
    skipped = scanned = 0
    for seed in range(4):
        g, prob, feasible = _bound_case(name, seed)
        checker = _Checker(g, prob)
        rng = Random(seed)
        for _ in range(60):
            keep = rng.choice((0.5, 0.8, 1.0))
            H = frozenset(eid for eid in range(g.m) if rng.random() < keep)
            counts = Boundary(g, H)
            got = checker.first_bad(counts.total, counts.safe, counts.inside)
            scan = next(
                ((bad, None, fail) for scope, fail in checker.scenarios
                 if (bad := scope & counts.cut_off(fail))),
                None,
            )
            assert got == scan
            assert (got is None) == feasible(H)
            if got is None:
                light = checker.reach & ~(counts.total + checker.few_offset)
                skipped += not light
                scanned += bool(light)
    assert skipped >= 10 and scanned >= 10


# Search work, as calls of the checker's scan (one per node and one per
# exclusion tried) and of the packing bound (one per node that survives the
# cost and feasibility checks).  The degree bound is not counted here; an
# FGC search prunes on it alone and makes no bound call.
def _search_calls(insts, problem_of):
    with counting_search_calls() as counts:
        for inst in insts:
            exact_solve(inst.to_graph(), problem_of(inst))
    return dict(counts)


def _ratio_sweep_graphs():
    """Six FGC graphs of the ratio-sweep's largest shape, n = 8, m = 18."""
    params = {"problem": "fgc", "p": 3, "q": 2, "skeleton": "safe", "safe_prob": 0.45}
    return [generate("random-multigraph", n=8, m=18, seed=seed, params=params) for seed in range(6)]


# Pruned on the degree table alone, the searches below make exactly these
# calls: more checker scans than with the packing beside it (1178 and 1119),
# but no packing bound.  The first_bad pin also fails a search that
# bypasses the checker, which the ratio to the parent counts would pass.
SPANNING_CALLS = {
    (3, 0): {"first_bad": 1510, "bound": 0},
    (3, 2): {"first_bad": 1427, "bound": 0},
}


@pytest.mark.parametrize(
    "p, q, parent",
    [
        # Before the degree bound, these searches made 2594 first_bad and
        # 1450 bound calls for (3, 0), the base of solve_fgc, and 2455 and
        # 1371 for the (3, 2) baseline.
        (3, 0, {"first_bad": 2594, "bound": 1450}),
        (3, 2, {"first_bad": 2455, "bound": 1371}),
    ],
)
def test_degree_bound_cuts_the_spanning_search(p, q, parent):
    counts = _search_calls(
        _ratio_sweep_graphs(), lambda inst: Problem("flex", flex=fgc_requirements(inst.n, p, q))
    )
    assert counts == SPANNING_CALLS[p, q]
    for name, calls in parent.items():
        assert counts[name] <= 0.6 * calls


def _boundary_case(seed):
    """A seeded graph, n = 5 and m = 11-12, that meets all-pairs (2, 0)
    plus (3, 0) between vertices 0 and 1, with both requirement sets."""
    n, m = 5, 11 + seed % 2
    fgc = fgc_requirements(n, 2, 0)
    mixed = fgc + (FlexRequirement(0, 1, 3, 0),)
    for attempt in range(100):
        g = random_graph(100 * seed + attempt, n, m)
        if brute_flex_feasible(g, mixed, g.all_edge_ids()):
            return g, fgc, mixed
    raise AssertionError("no feasible seeded graph")


@pytest.mark.parametrize("seed", range(4))
def test_only_an_all_spanning_search_drops_the_packing(seed):
    # FGC alone: every class spanning, no scenario, so the degree table alone
    # prunes.  The same classes plus a non-spanning pair class: the degree
    # table cannot see the pair's cuts, so the packing still runs.
    g, fgc, mixed = _boundary_case(seed)
    for reqs, packs in ((fgc, False), (mixed, True)):
        prob = Problem("flex", flex=reqs)
        checker = _Checker(g, prob)
        order = sorted(range(g.m), key=lambda eid: (-g.cost_of(eid), eid))
        assert len(_Packing(g, order, checker.classes).spanning) == 1
        with counting_search_calls() as counts:
            _sol, cost = exact_solve(g, prob)
        assert (counts["bound"] > 0) == packs
        assert abs(cost - brute_minimum(g, lambda H: brute_flex_feasible(g, reqs, H))) < 1e-9


def test_fallback_sized_spanning_search_work():
    # The exact search's work on six FGC instances of the fallback path's
    # shapes, (2, 2), (3, 2) and (3, 3) at n = 9-10 and m = 32-38, with the
    # m cap of 30 lifted.  With the packing beside the degree table these
    # searches made 14,537 first_bad and 5,736 bound calls.
    with counting_search_calls() as counts:
        for i, (p, q) in enumerate([(2, 2), (3, 2), (3, 3)] * 2):
            skeleton = ("mixed", "safe")[(i // 2) % 2]
            params = {"problem": "fgc", "p": p, "q": q, "skeleton": skeleton, "safe_prob": 0.45}
            n, m = (9, 10)[i % 2], 32 + (i * 3) % 7
            inst = generate("random-multigraph", n=n, m=m, seed=i, params=params)
            exact_solve(inst.to_graph(), inst.problem, budget=60)
    assert dict(counts) == {"first_bad": 15645, "bound": 0}


SAME_SEARCH_SHAPES = {
    "flex-st": {"problem": "flex-st", "p": 2, "q": 2, "skeleton": "mixed", "safe_prob": 0.45},
    "flex-sndp": {
        "problem": "flex-sndp", "p": 1, "q": 2, "skeleton": "mixed", "pairs": [[0, 6, 1, 2], [1, 4, 2, 1]]
    },
    "bulk": {"problem": "bulk", "width": 2, "scenarios": 4},
    "rsndp": {"problem": "rsndp", "pairs": 2, "r": 2},
}


@pytest.mark.parametrize(
    "name, parent",
    [
        # Counts from before the degree bound: no class of these problems
        # holds every singleton cut, so the search must not change.
        ("flex-st", {"first_bad": 505, "bound": 260}),
        ("flex-sndp", {"first_bad": 803, "bound": 442}),
        ("bulk", {"first_bad": 610, "bound": 314}),
        ("rsndp", {"first_bad": 798, "bound": 415}),
    ],
)
def test_other_searches_do_the_same_work(name, parent):
    params = SAME_SEARCH_SHAPES[name]
    insts = [generate("random-multigraph", n=7, m=14, seed=seed, params=params) for seed in range(4)]
    assert _search_calls(insts, lambda inst: inst.problem) == parent
