import pytest

from faultnet.errors import BudgetExceeded, InfeasibleInstance
from faultnet.exact import exact_solve
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
    brute_rsndp_feasible,
    dijkstra_cost,
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

    def test_infeasible_instance(self):
        g = FaultGraph(3, [(0, 1, 1, "unsafe"), (1, 2, 1, "unsafe")])
        prob = Problem("flex", flex=(FlexRequirement(0, 2, 1, 1),))
        with pytest.raises(InfeasibleInstance):
            exact_solve(g, prob)

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
