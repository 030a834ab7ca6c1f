"""Exact exponential baseline: provably minimum-cost feasible edge sets.

Branch and bound over edge include/exclude decisions, with feasibility
pruning in both directions (the chosen set alone, and chosen plus all still
undecided edges) and an admissible remaining-cost bound read off one violated
structure.  Flex problems keep their boundary counts over every cut as
incrementally updated bit planes, which is what makes the 200-instance
acceptance sweeps affordable; bulk and relative problems recompute
connectivity per node.

This is the oracle that backs every derived expected value in the test
suite, so it favors simplicity over cleverness everywhere the budget allows.
"""

from __future__ import annotations

import os

from .cuts import Boundary, separating
from .errors import BudgetExceeded, InfeasibleInstance
from .graph import FaultGraph, boundary, connected_components, same_component
from .oracles import (
    BulkScenario,
    Problem,
    RelativeRequirement,
    check_problem_feasible,
    expand_rsndp_to_bulk,
)

COST_EPS = 1e-12


def exact_budget() -> int:
    return int(os.environ.get("FAULTNET_EXACT_BUDGET", "30"))


class _FlexChecker:
    """Incremental feasibility for flex problems.

    Keeps the boundary counts of ``chosen`` (0) and ``pool`` (1) over every
    cut as bit planes, updated by edge toggles.  Requirements are grouped
    into (p, q) classes; a class constrains the cuts that separate one of
    its pairs, and a set is feasible when none of those cuts has fewer than
    p safe and fewer than p+q total edges.
    """

    def __init__(self, g: FaultGraph, reqs):
        self.g = g
        scopes: dict[tuple[int, int], int] = {}
        for r in reqs:
            scopes[(r.p, r.q)] = scopes.get((r.p, r.q), 0) | separating(g.n, r.s, r.t)
        self.classes = sorted(scopes.items())
        self.counts: list[Boundary] = []

    def toggle(self, which: int, eid: int, delta: int) -> None:
        if delta > 0:
            self.counts[which].add(eid)
        else:
            self.counts[which].remove(eid)

    def init_counts(self, chosen, pool) -> None:
        self.counts = [Boundary(self.g, chosen), Boundary(self.g, pool)]

    def _bad_cuts(self, which: int):
        """Cut sets failing each class, in class order."""
        b = self.counts[which]
        return (scope & b.deficient(p, q) for (p, q), scope in self.classes)

    def chosen_feasible(self) -> bool:
        return not any(self._bad_cuts(0))

    def pool_feasible(self) -> bool:
        return not any(self._bad_cuts(1))

    def violated_candidates(self, undecided):
        """Edges among ``undecided`` crossing the lowest-index bad cut of
        the first class with one."""
        for bad in self._bad_cuts(0):
            if bad:
                return boundary(self.g, undecided, (bad & -bad).bit_length())
        return frozenset()


class _ScenarioChecker:
    """Recompute-style feasibility for bulk (and expanded rsndp) problems."""

    def __init__(self, g: FaultGraph, scenarios):
        self.g = g
        self.scenarios = scenarios
        self.chosen: set[int] = set()
        self.pool: set[int] = set()

    def toggle(self, which, eid, delta):
        target = self.chosen if which == 0 else self.pool
        if delta > 0:
            target.add(eid)
        else:
            target.discard(eid)

    def init_counts(self, chosen, pool):
        self.chosen = set(chosen)
        self.pool = set(pool)

    def _feasible(self, edge_set) -> bool:
        for sc in self.scenarios:
            alive = edge_set - sc.fail
            for u, v in sc.pairs:
                if not same_component(self.g, alive, u, v):
                    return False
        return True

    def chosen_feasible(self):
        return self._feasible(self.chosen)

    def pool_feasible(self):
        return self._feasible(self.pool)

    def violated_candidates(self, undecided):
        for sc in self.scenarios:
            alive = self.chosen - sc.fail
            comps = connected_components(self.g, alive)
            comp_of = {}
            for ci, comp in enumerate(comps):
                for v in comp:
                    comp_of[v] = ci
            for u, v in sc.pairs:
                if comp_of[u] != comp_of[v]:
                    mask = sum(1 << x for x in comps[comp_of[u]])
                    alive_undecided = (eid for eid in undecided if eid not in sc.fail)
                    return boundary(self.g, alive_undecided, mask)
        return frozenset()


def _make_checker(g: FaultGraph, problem: Problem):
    if problem.kind == "flex":
        return _FlexChecker(g, problem.flex)
    if problem.kind == "bulk":
        return _ScenarioChecker(g, problem.scenarios)
    return _ScenarioChecker(g, expand_rsndp_to_bulk(g, problem.relative))


def exact_solve(
    g: FaultGraph, problem: Problem, budget: int | None = None
) -> tuple[frozenset, float]:
    """Provably minimum-cost feasible edge set for the given problem.

    Cost-ordered DFS over include/exclude decisions (expensive edges decided
    first, exclusion branch first) seeded with a reverse-delete greedy upper
    bound.  Raises BudgetExceeded when m exceeds the search budget and
    InfeasibleInstance when even the full edge set fails.
    """
    cap = exact_budget() if budget is None else budget
    if g.m > cap:
        raise BudgetExceeded(f"m={g.m} exceeds exact-search budget {cap}")
    ok, _ = check_problem_feasible(g, problem, g.all_edge_ids())
    if not ok:
        raise InfeasibleInstance("graph itself is infeasible for the problem")

    checker = _make_checker(g, problem)
    order = sorted(range(g.m), key=lambda eid: (-g.cost_of(eid), eid))
    costs = [g.cost_of(eid) for eid in range(g.m)]

    # Greedy seed: keep everything, then drop expensive edges while feasible.
    checker.init_counts(chosen=range(g.m), pool=range(g.m))
    kept = set(range(g.m))
    for eid in order:
        checker.toggle(0, eid, -1)
        if checker.chosen_feasible():
            kept.discard(eid)
        else:
            checker.toggle(0, eid, +1)
    best_set = frozenset(kept)
    best_cost = sum(costs[eid] for eid in kept)

    # Reset counters for the DFS: nothing chosen, everything in the pool.
    checker.init_counts(chosen=(), pool=range(g.m))

    def dfs(k: int, cost_in: float) -> None:
        nonlocal best_set, best_cost
        if cost_in >= best_cost - COST_EPS:
            return
        if checker.chosen_feasible():
            best_cost = cost_in
            best_set = frozenset(chosen_now)
            return
        if k == g.m or not checker.pool_feasible():
            return
        undecided = order[k:]
        fix_candidates = checker.violated_candidates(undecided)
        if fix_candidates:
            lb = min(costs[eid] for eid in fix_candidates)
            if cost_in + lb >= best_cost - COST_EPS:
                return
        eid = order[k]
        # Exclude branch first: expensive edges drop out early.
        checker.toggle(1, eid, -1)
        if checker.pool_feasible():
            dfs(k + 1, cost_in)
        checker.toggle(1, eid, +1)
        # Include branch.
        chosen_now.add(eid)
        checker.toggle(0, eid, +1)
        dfs(k + 1, cost_in + costs[eid])
        checker.toggle(0, eid, -1)
        chosen_now.discard(eid)

    chosen_now: set[int] = set()
    dfs(0, 0.0)
    return best_set, best_cost
