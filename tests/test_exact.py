import gc
import sys
from math import inf
from random import Random

import pytest

from faultnet import oracles, trace
from faultnet.cli import main
from faultnet.cuts import Boundary, cut_index, layout_of
from faultnet.errors import BudgetExceeded, EnumerationTooLarge, InfeasibleInstance
from faultnet.exact import _Checker, _Packing, _Tables, exact_solve
from faultnet.flexalg import solve_fgc
from faultnet.graph import FaultGraph
from faultnet.instances import appendix_a_instance, generate, parse
from faultnet.oracles import (
    BulkScenario,
    FlexRequirement,
    Problem,
    RelativeRequirement,
    check_problem_feasible,
    expand_rsndp_to_bulk,
    fgc_requirements,
    is_rsndp_feasible,
)
from oracle_utils import (
    brute_connected,
    brute_flex_feasible,
    brute_rsndp_feasible,
    crossed,
    degree_repair,
    dijkstra_cost,
    global_flex_oracle,
    kruskal_mst_cost,
    layout_count,
    random_graph,
    safety,
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
        # 1 + 12 + 66 = 79 failure sets of size < 3, but the search reads
        # the requirement as cut classes and lists none of them, so a budget
        # below 79 still answers, with the answer of the default budget.
        # Only the cut sweep's guard, 2^6 cuts, refuses.
        prob = Problem("rsndp", relative=(RelativeRequirement(0, 5, 3),))
        want = exact_solve(random_graph(1, 6, 12), prob)
        monkeypatch.setenv("FAULTNET_ENUM_BUDGET", "64")
        g = random_graph(1, 6, 12)
        sol, cost = exact_solve(g, prob)
        assert (sol, cost) == want
        assert check_problem_feasible(g, prob, sol)[0]
        monkeypatch.setenv("FAULTNET_ENUM_BUDGET", "63")
        with pytest.raises(EnumerationTooLarge, match=r"^2\^6 cuts exceed the enumeration budget$"):
            exact_solve(random_graph(1, 6, 12), prob)

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
        specs = [(e.u, e.v, e.cost if e.safe else round(e.cost / 3, 3), safety(e)) for e in g.edges]
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
        table.append(degree_repair(packing, v, len(mine), sum(g.edges[eid].safe for eid in mine), k))
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
    packing = _Packing(g, checker.classes)
    assert packing.order == tuple(order)
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
        bound, _packed = packing.bound(counts.total, counts.safe, k, violated, 0.0, best + 1.0)
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
    # an inclusion adds 1 to the chosen and safe degrees of the edge's two
    # endpoints, which must read as the singleton cuts' Boundary counts, and
    # after each decision ``refresh`` recomputes those two entries from
    # them.  Every entry must be bitwise the fresh repair.
    g, prob, _feasible = _bound_case(name, seed)
    order = sorted(range(g.m), key=lambda eid: (-g.cost_of(eid), eid))
    packing = _Packing(g, _Checker(g, prob).classes)
    assert packing.order == tuple(order)
    singles = [cut_index(g.n, 1 << v) for v in range(g.n)]
    rng = Random(seed)
    states = moved = 0
    for _ in range(20):
        chosen: set[int] = set()
        counts = Boundary(g)
        degrees, safe_degrees = [0] * g.n, [0] * g.n
        # The root table: every vertex refreshed from nothing chosen.
        table = [0.0] * g.n
        packing.refresh(table, 0, range(g.n), degrees, safe_degrees)
        assert list(map(float.hex, table)) == list(map(float.hex, _fresh_table(g, packing, chosen, 0)))
        for k, eid in enumerate(order, start=1):
            if rng.random() < 0.5:
                chosen.add(eid)
                counts.add(eid)
                e = g.edges[eid]
                for v in (e.u, e.v):
                    degrees[v] += 1
                    safe_degrees[v] += e.safe
            assert degrees == [layout_count(counts.layout, counts.total, i) for i in singles]
            assert safe_degrees == [layout_count(counts.layout, counts.safe, i) for i in singles]
            before = list(table)
            packing.refresh(table, k, packing.ends[k - 1], degrees, safe_degrees)
            fresh = _fresh_table(g, packing, chosen, k)
            assert list(map(float.hex, table)) == list(map(float.hex, fresh))
            states += 1
            moved += table != before
    assert states == 20 * g.m
    # The entries do move along the paths, so equality is not vacuous.
    assert moved >= states // 4


def test_a_positive_degree_entry_means_a_violated_chosen_set():
    # An entry is positive only where a spanning class finds the cut {v}
    # violated, so a chosen set with a positive entry fails the class test,
    # and a feasible one has an all-zero table.  The converse does not hold:
    # a deficient vertex whose cheapest repair costs nothing has entry 0.0,
    # so a zero table still needs the test.
    cases = [_bound_case(name, seed)[:2] for name, seed in FGC_BOUND_CASES]
    for seed in range(20):
        n, specs = _table_spec(seed)
        rng = Random(3000 + seed)
        reqs = fgc_requirements(n, rng.randint(1, 2), rng.randint(0, 1))
        cases.append((FaultGraph(n, specs), Problem("flex", flex=reqs)))
    positive = feasible = free_repairs = 0
    for g, prob in cases:
        checker = _Checker(g, prob)
        packing = _Packing(g, checker.classes)
        assert len(packing.spanning) == len(checker.classes)
        rng = Random(g.m)
        for _ in range(60):
            k = rng.randrange(g.m + 1)
            keep = rng.choice((0.5, 0.8, 1.0))
            chosen = {eid for eid in packing.order[:k] if rng.random() < keep}
            counts = Boundary(g, chosen)
            table = _fresh_table(g, packing, chosen, k)
            violated = checker.first_bad(counts.total, counts.safe, counts.inside)
            if any(table):
                assert violated is not None
                positive += 1
            if violated is None:
                assert not any(table)
                feasible += 1
            for v, entry in enumerate(table):
                mine = [eid for eid in g.incident(v) if eid in chosen]
                t, s = len(mine), sum(g.edges[eid].safe for eid in mine)
                short = any(t < pq and s < p for p, pq in packing.spanning)
                free_repairs += short and entry == 0.0
    assert positive >= 500 and feasible >= 100
    assert free_repairs >= 100


def test_a_packing_holds_while_the_excluded_edge_is_no_candidate():
    # The search hands a node's packing to its exclusion child when the
    # excluded edge order[k] is no candidate of a packed cut: it crosses
    # none of them or the answer fails it.  Then the packing at depth k + 1
    # must be the one at k, cut for cut and bit for bit.
    held = candidate = 0
    for name, seed in BOUND_CASES:
        g, prob, _feasible = _bound_case(name, seed)
        checker = _Checker(g, prob)
        packing = _Packing(g, checker.classes)
        order = packing.order
        rng = Random(seed)
        for _ in range(100):
            k = rng.randrange(g.m)
            counts = Boundary(g, (eid for eid in order[:k] if rng.random() < 0.5))
            violated = checker.first_bad(counts.total, counts.safe, counts.inside)
            if violated is None:
                continue
            bound, packed = packing.bound(counts.total, counts.safe, k, violated, 0.0, inf)
            if bound == inf:  # stopped at a cut it cannot repair
                continue
            eid = order[k]
            if packing.cross[eid] & packed and eid not in violated[2]:
                candidate += 1
                continue
            child = packing.bound(counts.total, counts.safe, k + 1, violated, 0.0, inf)
            assert (child[0].hex(), child[1]) == (bound.hex(), packed)
            held += 1
    assert held >= 10 and candidate >= 10


def test_first_bad_states_the_kernels_flexible_rule():
    # The search keeps an inline copy of Boundary.deficient.  For each flex
    # class alone, the bad guard set that first_bad gives must be the
    # class's scope and the kernel's deficient cuts, bit for bit, with no
    # decode, on sets that pass and sets that fail.
    passed = failed = 0
    for seed in range(24):
        rng = Random(500 + seed)
        n = rng.randint(3, 6)
        g = random_graph(seed, n, rng.randint(n, 3 * n))
        reqs = [
            FlexRequirement(*rng.sample(range(n), 2), rng.randint(1, 3), rng.randint(0, 2))
            for _ in range(rng.randint(1, 5))
        ]
        by_class: dict = {}
        for r in reqs:
            by_class.setdefault((r.p, r.q), []).append(r)
        checkers = {pq: _Checker(g, Problem("flex", flex=tuple(rs))) for pq, rs in by_class.items()}
        for _ in range(20):
            keep = rng.choice((0.3, 0.6, 0.9, 1.0))
            counts = Boundary(g, (eid for eid in range(g.m) if rng.random() < keep))
            for (p, q), checker in checkers.items():
                [(scope, *_rest)] = checker.classes
                want = scope & counts.deficient(p, q)
                got = checker.first_bad(counts.total, counts.safe, counts.inside)
                if want:
                    assert got == (want, (p, q), frozenset())
                    failed += 1
                else:
                    assert got is None
                    passed += 1
    assert passed >= 200 and failed >= 200


@pytest.mark.parametrize("name", ("bulk", "rsndp"))
def test_scenario_check_skips_sets_with_no_light_cut(name):
    # A scenario cuts off only cuts with at most |F_j| edges of the set, so
    # first_bad answers None without a scan when no in-scope cut is that
    # light.  It must give the scan's answer and brute force's verdict.  The
    # scan counts a scenario's failed edges in the set itself, so the
    # reference is Boundary.cut_off, and the scans must see scenarios with
    # failed edges in the set and scenarios with none there.  A
    # relative problem has no scenario to scan: its (k, 0) cut classes
    # alone must give brute force's verdict, on sets that pass and sets
    # that fail.
    skipped = scanned = dead = alive = 0
    verdicts = [0, 0]
    for seed in range(4):
        g, prob, feasible = _bound_case(name, seed)
        checker = _Checker(g, prob)
        rng = Random(seed)
        for _ in range(60):
            keep = rng.choice((0.5, 0.8, 1.0))
            H = frozenset(eid for eid in range(g.m) if rng.random() < keep)
            counts = Boundary(g, H)
            got = checker.first_bad(counts.total, counts.safe, counts.inside)
            assert (got is None) == feasible(H)
            verdicts[got is None] += 1
            if name == "rsndp":
                assert not checker.scenarios and not checker.reach
                continue
            scan = next(
                ((bad, None, fail) for scope, fail, _failed in checker.scenarios
                 if (bad := scope & counts.cut_off(fail))),
                None,
            )
            assert got == scan
            light = checker.reach & ~(counts.total + checker.few_offset)
            if got is None:
                skipped += not light
                scanned += bool(light)
            if light:
                # The scenarios the scan reads: up to the first that fails.
                read = []
                for scope, fail, _failed in checker.scenarios:
                    read.append(fail)
                    if scope & counts.cut_off(fail):
                        break
                dead += any(fail & H for fail in read)
                alive += any(not fail & H for fail in read)
    assert min(verdicts) >= 10
    if name == "bulk":
        assert skipped >= 10 and scanned >= 10
        assert dead >= 10 and alive >= 10


def _relative_case(rng):
    """(graph, requirements): a random multigraph of 2-6 vertices and 0-9
    edges, drawn with no skeleton, so that bridges, parallel edges and
    pairs that G does not connect all occur, and 1-3 pairs with r = 1..4."""
    n = rng.randint(2, 6)
    specs = [
        (*rng.sample(range(n), 2), rng.choice((0.0, 1.0, 2.5, round(rng.uniform(0.1, 3.0), 1))),
         rng.choice(("safe", "unsafe")))
        for _ in range(rng.randint(0, 9))
    ]
    if specs and rng.random() < 0.3:
        specs.append(rng.choice(specs))
    reqs = tuple(
        RelativeRequirement(*rng.sample(range(n), 2), rng.randint(1, 4))
        for _ in range(rng.randint(1, 3))
    )
    return FaultGraph(n, specs), reqs


@pytest.mark.parametrize("seed", range(4))
def test_relative_classes_match_brute_force(seed):
    # The checker reads relative requirements as (k, 0) cut classes; their
    # verdict must be the definition's, over every F of fewer than r edges.
    rng = Random(f"relative-{seed}")
    seen = {"bridge": 0, "parallel": 0, "apart": 0, "feasible": 0, "infeasible": 0}
    for _ in range(30):
        g, reqs = _relative_case(rng)
        checker = _Checker(g, Problem("rsndp", relative=reqs))
        assert not checker.scenarios
        everything = g.all_edge_ids()
        seen["bridge"] += any(
            not brute_connected(g, everything - {eid}, e.u, e.v) for eid, e in enumerate(g.edges)
        )
        seen["parallel"] += len({frozenset((e.u, e.v)) for e in g.edges}) < g.m
        seen["apart"] += any(not brute_connected(g, everything, r.s, r.t) for r in reqs)
        for _ in range(15):
            keep = rng.choice((0.4, 0.7, 0.9, 1.0))
            H = frozenset(eid for eid in range(g.m) if rng.random() < keep)
            counts = Boundary(g, H)
            ok = checker.first_bad(counts.total, counts.safe, counts.inside) is None
            assert ok == brute_rsndp_feasible(g, reqs, H)
            seen["feasible" if ok else "infeasible"] += 1
    assert min(seen.values()) >= 5, seen


@pytest.mark.parametrize("seed", range(4))
def test_relative_search_matches_its_bulk_expansion(seed):
    # The relative model reduces to the bulk model through its expansion
    # into failure sets.  The search on the cut classes must find the set
    # that the search on the expansion finds, at the same cost bits.  With
    # no pair that G connects, nothing is needed.
    rng = Random(f"expansion-{seed}")
    solved = 0
    for _ in range(25):
        g, reqs = _relative_case(rng)
        got = exact_solve(g, Problem("rsndp", relative=reqs))
        scenarios = expand_rsndp_to_bulk(g, reqs)
        if not scenarios:
            assert got == (frozenset(), 0.0)
            continue
        want = exact_solve(g, Problem("bulk", scenarios=scenarios))
        assert (got[0], got[1].hex()) == (want[0], want[1].hex())
        solved += bool(got[0])
    assert solved >= 10


def test_relative_search_lists_no_failure_set(monkeypatch, tmp_path):
    # Pair 0-2 with r = 7 on 28 edges: 499,178 failure sets of size < 7,
    # which the search used to list and scan; `faultnet exact` was still
    # running on this file after 120 s.  With the expansion refused, the
    # search answers, feasibly, and so does the command.
    argv = ["gen", "--kind", "random-multigraph", "--n", "6", "--m", "28", "--seed", "1",
            "--params", '{"problem": "rsndp", "pairs": 1, "r": 7}']
    path = tmp_path / "r7.fni"
    assert main([*argv, "--out", str(path)]) == 0

    def refuse(*_args):
        raise AssertionError("the exact search listed failure sets")

    monkeypatch.setattr(oracles, "expand_rsndp_to_bulk", refuse)
    inst = parse(path.read_text(encoding="utf-8"))
    g = inst.to_graph()
    sol, _cost = exact_solve(g, inst.problem)
    assert is_rsndp_feasible(g, inst.problem.relative, sol)[0]
    assert main(["exact", str(path)]) == 0


# Search work, as the search reports it to faultnet.trace: "exact.checks"
# counts its feasibility tests (one per greedy step, one per node past the
# cost check that is not an exclusion child, except in an all-spanning
# search where its degree table shows a short vertex, and one per exclusion
# tried, whether inline or through _Checker.first_bad), "exact.bounds" its
# packing bounds (one per node that survives the cost, feasibility and
# degree checks where the packing runs, unless the node is an exclusion
# child that takes its parent's packing) and "exact.nodes" the DFS nodes
# entered.  An FGC search prunes on the degree bound alone and computes no
# packing bound.
WORK = ("exact.checks", "exact.bounds", "exact.nodes")


def _search_work(insts, problem_of):
    with trace.recording() as counts:
        for inst in insts:
            exact_solve(inst.to_graph(), problem_of(inst))
    return {name: counts[name] for name in WORK}


def _ratio_sweep_graphs():
    """Six FGC graphs of the ratio-sweep's largest shape, n = 8, m = 18."""
    params = {"problem": "fgc", "p": 3, "q": 2, "skeleton": "safe", "safe_prob": 0.45}
    return [generate("random-multigraph", n=8, m=18, seed=seed, params=params) for seed in range(6)]


# Pruned on the degree table alone, the searches below do exactly this
# work, and no packing bound.  An exclusion child takes its parent's answer
# and makes no feasibility test of its own, and a node whose degree table
# has a positive entry tests no chosen set.  Before the dominance skip they
# made 1332 tests in 799 nodes for (3, 0) and 1257 in 753 for (3, 2), and
# while every chosen set was tested, 1182 and 1122 tests.
SPANNING_CALLS = {
    (3, 0): {"exact.checks": 640, "exact.bounds": 0, "exact.nodes": 712},
    (3, 2): {"exact.checks": 611, "exact.bounds": 0, "exact.nodes": 672},
}


@pytest.mark.parametrize(
    "p, q, parent",
    [
        # Before the degree bound, these searches made 2594 feasibility
        # tests and 1450 packing bounds for (3, 0), the base of solve_fgc,
        # and 2455 and 1371 for the (3, 2) baseline.
        (3, 0, {"exact.checks": 2594, "exact.bounds": 1450}),
        (3, 2, {"exact.checks": 2455, "exact.bounds": 1371}),
    ],
)
def test_degree_bound_cuts_the_spanning_search(p, q, parent):
    counts = _search_work(
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
        assert len(_Packing(g, _Checker(g, prob).classes).spanning) == 1
        with trace.recording() as counts:
            _sol, cost = exact_solve(g, prob)
        assert (counts["exact.bounds"] > 0) == packs
        assert abs(cost - brute_minimum(g, lambda H: brute_flex_feasible(g, reqs, H))) < 1e-9


def test_fallback_sized_spanning_search_work():
    # The exact search's work on six FGC instances of the fallback path's
    # shapes, (2, 2), (3, 2) and (3, 3) at n = 9-10 and m = 32-38, with the
    # m cap of 30 lifted.  With the packing beside the degree table these
    # searches made 14,537 feasibility tests and 5,736 packing bounds,
    # before the dominance skip 12,275 tests in 9,416 nodes, and while every
    # chosen set was tested 7,939 tests.
    with trace.recording() as counts:
        for i, (p, q) in enumerate([(2, 2), (3, 2), (3, 3)] * 2):
            skeleton = ("mixed", "safe")[(i // 2) % 2]
            params = {"problem": "fgc", "p": p, "q": q, "skeleton": skeleton, "safe_prob": 0.45}
            n, m = (9, 10)[i % 2], 32 + (i * 3) % 7
            inst = generate("random-multigraph", n=n, m=m, seed=i, params=params)
            exact_solve(inst.to_graph(), inst.problem, budget=60)
    work = {name: counts[name] for name in WORK}
    assert work == {"exact.checks": 3918, "exact.bounds": 0, "exact.nodes": 6246}


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
        # No class of these problems holds every singleton cut, so the
        # degree bound leaves the nodes as they were before it.  An
        # exclusion child takes its parent's answer, and its packing while
        # the excluded edge is no candidate of a packed cut.  Before the
        # dominance skip, flex-st made 419 tests, flex-sndp 640 tests and
        # 376 bounds in 470 nodes, and bulk 444 and 233 in 410.  While the
        # checker scanned rsndp's bulk expansion, rsndp made 599 tests and
        # 313 bounds in 524 nodes.
        ("flex-st", {"exact.checks": 414, "exact.bounds": 224, "exact.nodes": 273}),
        ("flex-sndp", {"exact.checks": 627, "exact.bounds": 366, "exact.nodes": 460}),
        ("bulk", {"exact.checks": 409, "exact.bounds": 218, "exact.nodes": 381}),
        ("rsndp", {"exact.checks": 433, "exact.bounds": 223, "exact.nodes": 370}),
    ],
)
def test_other_searches_do_the_same_work(name, parent):
    params = SAME_SEARCH_SHAPES[name]
    insts = [generate("random-multigraph", n=7, m=14, seed=seed, params=params) for seed in range(4)]
    assert _search_work(insts, lambda inst: inst.problem) == parent


def test_an_all_spanning_dfs_calls_neither_the_checker_nor_repair(monkeypatch):
    # Flex classes alone are tested inline in the DFS, and the degree table
    # is refreshed at the endpoints of one edge per node, with no repair of
    # the whole table: an FGC search calls first_bad once, for the opening
    # question (its greedy seed tests the classes inline too), and
    # refreshes every vertex only for the root table.  A scenario search
    # still calls first_bad from its DFS, which shows that the spy sees it.
    callers = []

    def spy(method):
        def wrapped(self, *args):
            # refresh's third argument lists the vertices it recomputes.
            width = len(args[2]) if method.__name__ == "refresh" else None
            callers.append((method.__name__, sys._getframe(1).f_code.co_name, width))
            return method(self, *args)

        return wrapped

    monkeypatch.setattr(_Checker, "first_bad", spy(_Checker.first_bad))
    monkeypatch.setattr(_Packing, "refresh", spy(_Packing.refresh))
    insts = _ratio_sweep_graphs()
    with trace.recording() as counts:
        for inst in insts:
            exact_solve(inst.to_graph(), inst.problem)
    # The DFS calls refresh alone, at most once per node, and the table did
    # move.  Each refresh there recomputes the two endpoints of the edge
    # decided last.
    from_dfs = [(name, width) for name, caller, width in callers if caller == "dfs"]
    assert {name for name, _width in from_dfs} == {"refresh"}
    assert 0 < len(from_dfs) <= counts["exact.nodes"]
    assert {width for _name, width in from_dfs} == {2}
    # Outside it: one first_bad per search, for the opening question, and
    # one whole-table refresh per search, for its root.
    others = [(name, width) for name, caller, width in callers if caller != "dfs"]
    assert {name for name, _width in others} == {"first_bad", "refresh"}
    assert [name for name, _width in others].count("first_bad") == len(insts)
    assert [width for name, width in others if name == "refresh"] == [inst.n for inst in insts]
    callers.clear()
    g, prob, _feasible = _bound_case("bulk", 0)
    exact_solve(g, prob)
    assert ("first_bad", "dfs", None) in callers


def _table_spec(seed):
    """(n, edge specs) of a connected random multigraph with n = 4-7, with
    zero-cost edges and parallel edges."""
    rng = Random(seed)
    n = 4 + seed % 4
    cost = lambda: 0.0 if rng.random() < 0.2 else round(rng.uniform(0.1, 2.0), 2)  # noqa: E731
    label = lambda: rng.choice(("safe", "unsafe"))  # noqa: E731
    specs = [(v, (v + 1) % n, cost(), label()) for v in range(n)]
    while len(specs) < 2 * n + rng.randrange(n):
        if rng.random() < 0.3:
            u, v, _cost, _label = rng.choice(specs)  # a parallel edge
        else:
            u, v = rng.sample(range(n), 2)
        specs.append((u, v, cost(), label()))
    return n, specs


def _table_problem(rng, n):
    """All-pairs classes, pair classes or a mix of both, with p <= 2."""
    p, q = rng.randint(1, 2), rng.randint(0, 1)
    pairs = tuple(
        FlexRequirement(*rng.sample(range(n), 2), rng.randint(1, 2), rng.randint(0, 1))
        for _ in range(rng.randint(1, 2))
    )
    shape = rng.choice(("spanning", "pairs", "mix"))
    reqs = {"spanning": fgc_requirements(n, p, q), "pairs": pairs}.get(
        shape, fgc_requirements(n, p, q) + pairs
    )
    return Problem("flex", flex=reqs)


def _outcome(g, prob):
    try:
        sol, cost = exact_solve(g, prob)
    except InfeasibleInstance as exc:
        return str(exc)
    return sorted(sol), cost.hex()


def test_search_tables_kept_on_the_graph_give_fresh_answers():
    # A graph whose tables a search of another problem built answers as a
    # fresh graph of the same spec does, edge for edge and bit for bit.
    solved = spanning = 0
    for seed in range(40):
        n, specs = _table_spec(seed)
        rng = Random(1000 + seed)
        earlier, prob = _table_problem(rng, n), _table_problem(rng, n)
        g = FaultGraph(n, specs)
        _outcome(g, earlier)
        tables = g._search
        assert tables is not None
        got = _outcome(g, prob)
        assert g._search is tables
        assert got == _outcome(FaultGraph(n, specs), prob)
        solved += not isinstance(got, str)
        if tables.vertices is not None:
            spanning += 1
            # The degree tables against their definition: running sums of
            # the cheapest costs, and the order positions of the incident
            # edges, cheapest first, after m and before m + 1 entries of -1.
            # Position j is at least k exactly when at least j incident
            # edges are still undecided at depth k.
            order = sorted(range(g.m), key=lambda eid: (-g.cost_of(eid), eid))
            for v, (sums, spots, safe_sums, safe_spots) in enumerate(tables.vertices):
                for table_sums, table_spots, edges in (
                    (sums, spots, g.incident(v)),
                    (safe_sums, safe_spots, [e for e in g.incident(v) if g.edges[e].safe]),
                ):
                    running = [0.0]
                    for c in sorted(g.cost_of(e) for e in edges):
                        running.append(running[-1] + c)
                    assert list(map(float.hex, table_sums)) == list(map(float.hex, running))
                    positions = sorted((order.index(e) for e in edges), reverse=True)
                    assert list(table_spots) == [g.m, *positions] + [-1] * (g.m + 1)
                    for k in range(g.m + 1):
                        undecided = sum(order.index(e) >= k for e in edges)
                        for j in range(1, g.m + 2):
                            assert (table_spots[j] >= k) == (undecided >= j)
    assert solved >= 30 and spanning >= 25


def test_one_fgc_cell_builds_the_search_tables_once(monkeypatch):
    # solve_fgc's (p, 0) base and then the (p, q) baseline on the same graph,
    # as a bench cell runs them, share one set of tables.
    built = []
    init = _Tables.__init__

    def counted_init(self, g):
        built.append(g)
        init(self, g)

    monkeypatch.setattr(_Tables, "__init__", counted_init)
    params = {"problem": "fgc", "p": 2, "q": 1, "skeleton": "safe", "safe_prob": 0.45}
    inst = generate("random-multigraph", n=6, m=14, seed=3, params=params)
    g = inst.to_graph()
    solve_fgc(g, 2, 1)
    tables = g._search
    vertices = tables.vertices
    assert vertices is not None
    exact_solve(g, inst.problem)
    assert built == [g]
    assert g._search is tables and tables.vertices is vertices


def test_opening_check_is_the_oracle_on_g():
    # exact_solve refuses an instance exactly when the whole graph fails the
    # problem's own oracle.
    refused = solved = 0
    for seed in range(60):
        rng = Random(seed)
        n = 4 + seed % 3
        g = random_graph(2000 + seed, n, rng.randint(n, 2 * n), safe_prob=0.4)
        if seed % 2:
            pairs = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(1, 2))]
            prob = Problem("flex", flex=tuple(
                FlexRequirement(s, t, rng.randint(1, 3), rng.randint(0, 2)) for s, t in pairs
            ))
        else:
            prob = Problem("bulk", scenarios=tuple(
                BulkScenario(frozenset(rng.sample(range(g.m), rng.randint(1, 3))),
                             (tuple(rng.sample(range(n), 2)),))
                for _ in range(rng.randint(1, 3))
            ))
        if check_problem_feasible(g, prob, g.all_edge_ids())[0]:
            exact_solve(g, prob)
            solved += 1
        else:
            with pytest.raises(InfeasibleInstance, match="^graph itself is infeasible for the problem$"):
                exact_solve(g, prob)
            refused += 1
    assert refused >= 15 and solved >= 15


# The dominance skip against the same search with its table emptied.  The
# instances are parallel-heavy multigraphs at n = 3-6, with equal-cost
# parallel edges, zero-cost edges and mixed safety, under each kind of
# problem the skip reads differently: flex classes with q = 0 (safety
# ignored), with q > 0 (safety tested) and mixed, bulk scenarios that fail
# the cheaper or the dearer edge of a parallel pair, and relative problems.
TWIN_SHAPES = ("q0", "q1", "mixed", "bulk-cheap", "bulk-dear", "rsndp")


def _twin_spec(rng):
    """(n, edge specs): a ring at n = 3-6 plus parallel-heavy extra edges.
    A fifth of the costs are 0, and a parallel edge copies the cost of the
    edge it repeats a third of the time."""
    n = rng.randint(3, 6)
    cost = lambda: 0.0 if rng.random() < 0.2 else round(rng.uniform(0.1, 3.0), 1)  # noqa: E731
    label = lambda: rng.choice(("safe", "unsafe"))  # noqa: E731
    specs = [(v, (v + 1) % n, cost(), label()) for v in range(n)]
    for _ in range(rng.randint(5, 15 - n)):
        if rng.random() < 0.6:
            u, v, same, _label = rng.choice(specs)  # a parallel edge
            specs.append((u, v, same if rng.random() < 0.3 else cost(), label()))
        else:
            specs.append((*rng.sample(range(n), 2), cost(), label()))
    return n, specs


def _twin_pairs(specs):
    """(dearer, cheaper) edge ids of each parallel pair of unequal cost."""
    pairs = []
    for a, (u, v, cost, _label) in enumerate(specs):
        for b, (x, y, other, _other_label) in enumerate(specs):
            if {u, v} == {x, y} and cost > other:
                pairs.append((a, b))
    return pairs


def _twin_problem(rng, shape, n, specs):
    pair = lambda: tuple(rng.sample(range(n), 2))  # noqa: E731
    if shape in ("q0", "q1"):
        q = shape == "q1"
        if rng.random() < 0.5:
            return Problem("flex", flex=fgc_requirements(n, rng.randint(1, 3), q * rng.randint(1, 2)))
        return Problem("flex", flex=tuple(
            FlexRequirement(*pair(), rng.randint(1, 3), q * rng.randint(1, 2))
            for _ in range(rng.randint(1, 3))
        ))
    if shape == "mixed":
        zero = fgc_requirements(n, 2, 0) if rng.random() < 0.5 else (FlexRequirement(*pair(), 3, 0),)
        return Problem("flex", flex=zero + (FlexRequirement(*pair(), 2, rng.randint(1, 2)),))
    if shape == "rsndp":
        return Problem("rsndp", relative=tuple(
            RelativeRequirement(*pair(), rng.randint(2, 3)) for _ in range(rng.randint(1, 2))
        ))
    twins = _twin_pairs(specs) or [(0, 1)]
    scenarios = []
    for _ in range(rng.randint(3, 6)):
        dearer, cheaper = rng.choice(twins)
        fail = {cheaper if shape == "bulk-cheap" else dearer}
        if rng.random() < 0.5:
            fail.add(rng.randrange(len(specs)))
        scenarios.append(BulkScenario(frozenset(fail), tuple(pair() for _ in range(rng.randint(2, 4)))))
    return Problem("bulk", scenarios=tuple(scenarios))


def _twin_search(n, specs, prob):
    """(outcome, work) of one search on a fresh graph."""
    with trace.recording() as counts:
        outcome = _outcome(FaultGraph(n, specs), prob)
    return outcome, counts


def _empty_the_dominance_tables(patch):
    """Patch _Tables so that every graph's dominance table is empty."""
    init = _Tables.__init__

    def no_twins(self, g):
        init(self, g)
        self.twins = self.safe_twins = (frozenset(),) * g.m

    patch.setattr(_Tables, "__init__", no_twins)


@pytest.mark.parametrize("shape", TWIN_SHAPES)
def test_dominance_skip_keeps_every_answer(shape, monkeypatch):
    cases = []
    for seed in range(50):
        rng = Random(f"{shape}-{seed}")
        for _attempt in range(20):
            n, specs = _twin_spec(rng)
            prob = _twin_problem(rng, shape, n, specs)
            g = FaultGraph(n, specs)
            if check_problem_feasible(g, prob, g.all_edge_ids())[0]:
                break
        cases.append((n, specs, prob))
    got = [_twin_search(*case) for case in cases]
    with monkeypatch.context() as patch:
        _empty_the_dominance_tables(patch)
        want = [_twin_search(*case) for case in cases]
    skipped = solved = 0
    for (outcome, work), (reference, plain) in zip(got, want):
        assert outcome == reference
        assert plain["exact.dominated"] == 0
        assert work["exact.nodes"] <= plain["exact.nodes"]
        skipped += work["exact.dominated"]
        solved += not isinstance(outcome, str)
    assert solved >= 45
    assert skipped >= 3


# Edges 0 and 1 join vertices 0 and 1, edge 0 safe at 3 and edge 1 at 1.
DOMINANCE_SPECS = [(0, 1, 3.0, "safe"), (0, 1, 1.0, "unsafe"), (0, 2, 3.0, "safe"),
                   (1, 3, 1.0, "safe"), (3, 2, 1.0, "safe")]


def _dominance_case(p, q):
    """(outcome, exclusions skipped) of the search for (0, 1, p, q)."""
    prob = Problem("flex", flex=(FlexRequirement(0, 1, p, q),))
    outcome, work = _twin_search(4, DOMINANCE_SPECS, prob)
    return outcome, work["exact.dominated"]


def test_dominance_reads_safety_only_under_q_above_0(monkeypatch):
    # Under (0, 1, 2, 1) a cut that separates 0 and 1 needs 2 safe or 3
    # edges, so unsafe edge 1 cannot stand in for safe edge 0: the search
    # skips nothing, and the optimum {0, 2, 3, 4} at 8 holds edge 0 without
    # edge 1.  The search does reach edge 1 with edge 0 chosen: with the
    # safety test dropped, it skips there.  Under (0, 1, 3, 0) a cut fails
    # on its count alone, so edge 1 dominates edge 0; every edge is needed,
    # at 9, with or without the skip.
    q_above_0 = (([0, 2, 3, 4], (8.0).hex()), 0)
    q_0 = (([0, 1, 2, 3, 4], (9.0).hex()), 1)
    assert _dominance_case(2, 1) == q_above_0
    assert _dominance_case(3, 0) == q_0
    init = _Tables.__init__

    def safety_dropped(self, g):
        init(self, g)
        self.safe_twins = self.twins

    with monkeypatch.context() as patch:
        patch.setattr(_Tables, "__init__", safety_dropped)
        assert _dominance_case(2, 1) == (q_above_0[0], 1)
    with monkeypatch.context() as patch:
        _empty_the_dominance_tables(patch)
        assert _dominance_case(3, 0) == (q_0[0], 0)
    # The graph's table: edge 1, at order position 2, beats edge 0 when
    # safety is ignored, and under q > 0 only when it is safe itself.
    for label, under_q in (("unsafe", frozenset()), ("safe", frozenset({0}))):
        specs = list(DOMINANCE_SPECS)
        specs[1] = (0, 1, 1.0, label)
        tables = _Tables(FaultGraph(4, specs))
        assert tables.order == (0, 2, 1, 3, 4)
        none = frozenset()
        assert tables.twins == (none, none, frozenset({0}), none, none)
        assert tables.safe_twins == (none, none, under_q, none, none)


def test_equal_cost_parallel_edges_never_dominate():
    # Costs equal, or apart by no more than the float slop of a cost sum,
    # m * 2^-52 * (the sum of all costs): no table entry and no skip.  A
    # zero-cost edge does dominate a dearer parallel one.
    near = 1.0 + 2.0**-52
    for costs, twin in (((1.0, 1.0, 1.0), False), ((1.0, near, 1.0), False), ((0.0, 0.0, 1.0), True)):
        specs = [(0, 1, cost, "safe") for cost in costs] + [(1, 2, 1.0, "safe")]
        tables = _Tables(FaultGraph(3, specs))
        assert any(tables.twins) == twin and any(tables.safe_twins) == twin
    for seed in range(30):
        rng = Random(seed)
        n = rng.randint(3, 5)
        specs = [(v, (v + 1) % n, 1.0, "safe") for v in range(n)]
        specs += [(u, v, 1.0, rng.choice(("safe", "unsafe"))) for u, v, _c, _l in specs * 2]
        assert not any(_Tables(FaultGraph(n, specs)).twins)
        prob = Problem("flex", flex=fgc_requirements(n, rng.randint(1, 3), rng.randint(0, 2)))
        outcome, work = _twin_search(n, specs, prob)
        assert not isinstance(outcome, str)
        assert work["exact.dominated"] == 0
