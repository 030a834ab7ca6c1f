"""Exact exponential baseline: provably minimum-cost feasible edge sets.

Branch and bound over edge include/exclude decisions, with feasibility
pruning in both directions (the chosen set alone, and chosen plus all still
undecided edges) and an admissible remaining-cost bound from a packing of
violated cuts.  Every fault model is a cut condition here, tested on the
packed cut kernel: the boundary counts of the chosen and pool sets over every
cut are packed counters, updated by one big-int add or subtract per edge, and
every test and cut set stays in the kernel's guard-bit form.  A flex (p, q)
class fails on a cut that separates one of its pairs and has fewer than p
safe and fewer than p+q edges.  A bulk scenario, and each scenario of the
bulk expansion of relative requirements, fails on a cut that separates one
of its pairs when every edge crossing it is one the scenario fails: a cut
its failure set cuts off (:meth:`faultnet.cuts.Boundary.cut_off`).

The bound packs the violated cuts of the first failing class or scenario
greedily, lowest cut first, so that no two packed cuts share a candidate (an
undecided edge that crosses the cut and is not failed there), and sums what
repairing each packed cut costs at least: the cheapest candidate for a
scenario, and for a flex class the cheaper of the p - s cheapest safe
candidates and the p + q - t cheapest candidates, with s and t the cut's
safe and total counts in the chosen set.  A completion repairs every packed
cut with its own candidates, so the sum never exceeds what it adds.

A flex class whose scope holds every singleton cut {v}, as an all-pairs
(FGC) class does, adds a degree bound: half the sum, over the singleton
cuts it finds violated, of each cut's repair cost by the same rule, over
the undecided edges at v.  A completion repairs every such cut with edges
at its vertex, and each edge is at two vertices, so it adds at least half
the sum.  The DFS prunes on the larger of the two bounds; which bound runs
is fixed once per search, so other searches run the packing alone.

Both bounds are admissible: a pruned subtree holds only completions that
the DFS's cost check would reject anyway, since the incumbent is replaced
only on a gain above COST_EPS.  A stronger bound therefore visits fewer
nodes but finds the same incumbents in the same order, and the answer does
not change.

This is the oracle that backs every derived expected value in the test
suite, so it favors simplicity over cleverness everywhere the budget allows.
"""

from __future__ import annotations

import os
from bisect import bisect_right
from math import inf

from .cuts import Boundary, layout_of
from .errors import BudgetExceeded, InfeasibleInstance
from .graph import FaultGraph
from .oracles import (
    Problem,
    check_problem_feasible,
    expand_rsndp_to_bulk,
    guard_failure_sets,
)

COST_EPS = 1e-12
_NO_FAIL: frozenset = frozenset()


def exact_budget() -> int:
    return int(os.environ.get("FAULTNET_EXACT_BUDGET", "30"))


class _Checker:
    """Incremental feasibility over every cut, for any fault model.

    Keeps the packed boundary counts of ``chosen`` (0) and ``pool`` (1),
    which the search updates by edge adds and removes.  Flex requirements
    are grouped into (p, q) classes, scenarios keep their failure sets; each
    constrains the cuts that separate one of its pairs, its scope, kept as a
    guard set.  A class holds the offsets of its two thresholds.  A scenario
    fails on a cut in scope that its failure set cuts off
    (:meth:`Boundary.cut_off`): nothing crossing the cut survives.
    """

    def __init__(self, g: FaultGraph, problem: Problem):
        self.g = g
        lay = layout_of(g)
        pairs: dict[tuple[int, int], list] = {}
        for r in problem.flex:
            pairs.setdefault((r.p, r.q), []).append((r.s, r.t))
        self.classes = [
            (lay.scope(pairs[p, q]), (p, q), lay.offset(p), lay.offset(p + q))
            for p, q in sorted(pairs)
        ]
        scenarios = problem.scenarios
        if problem.kind == "rsndp":
            scenarios = expand_rsndp_to_bulk(g, problem.relative)
        self.scenarios = [(lay.scope(sc.pairs), sc.fail) for sc in scenarios]
        self.counts: list[Boundary] = []

    def reset(self, chosen, pool) -> None:
        self.counts = [Boundary(self.g, chosen), Boundary(self.g, pool)]

    def first_bad(self, which: int):
        """(bad guard set, (p, q), failed edges) of the first class, or else
        scenario, that the set fails, None if it is feasible.  A class fails
        no edges; a scenario has no (p, q)."""
        counts = self.counts[which]
        safe, total = counts.safe, counts.total
        for scope, pq, safe_offset, total_offset in self.classes:
            bad = scope & ~((safe + safe_offset) | (total + total_offset))
            if bad:
                return bad, pq, _NO_FAIL
        for scope, fail in self.scenarios:
            bad = scope & counts.cut_off(fail)
            if bad:
                return bad, None, fail
        return None


class _Packing:
    """Lower bound on the cost of completing a chosen set: greedy packing of
    violated cuts with pairwise disjoint candidate sets, and for spanning
    classes a degree bound over the singleton cuts.

    ``order`` lists the edge ids by descending cost; at depth k the edges at
    ``order[k:]`` are undecided.  The candidates of a cut for a failure set
    are the edges that cross it and are not failed, listed once per (failure
    set, cut) when first needed: their negated order positions from the cheap
    end, the running sums of their costs and the running unions of their
    crossing guard sets, and the positions and cost sums of the safe ones.
    The undecided candidates at depth k are a prefix of that list.

    ``spanning`` holds (p, p + q) of each of the checker's ``classes`` whose
    scope holds every singleton cut {v}.  Only then does ``vertices`` list,
    per vertex, the field shift of its singleton cut and two tables, one for
    its incident edges and one for its safe ones, each cheapest first.
    """

    def __init__(self, g: FaultGraph, order: list[int], classes: list):
        self.order = order
        counts = Boundary(g)
        self.width = counts.layout.width
        self.field = (1 << self.width) - 1
        self.cross = [cuts << (self.width - 1) for cuts in counts.cross]
        self.costs = [g.cost_of(eid) for eid in range(g.m)]
        self.safe = [e.safe for e in g.edges]
        self.columns: dict = {}
        self.spanning = []
        self.vertices = []
        if not classes:  # no flex pair, maybe n = 1
            return
        # The cut {v} is named by v's own bit, and the anchor's by all the
        # other vertices (at n = 2 both name the one cut).
        shifts = [((1 << v) - 1) * self.width for v in range(g.n - 1)]
        shifts.append(((1 << (g.n - 1)) - 2) * self.width)
        singles = sum(1 << (shift + self.width - 1) for shift in set(shifts))
        for scope, (p, q), _safe_offset, _total_offset in classes:
            if scope & singles == singles:
                self.spanning.append((p, p + q))
        if self.spanning:
            at = {eid: i for i, eid in enumerate(order)}
            for v, shift in enumerate(shifts):
                incident = sorted(g.incident(v), key=at.__getitem__, reverse=True)
                safe = [eid for eid in incident if self.safe[eid]]
                self.vertices.append((shift, *self._table(incident, at), *self._table(safe, at)))

    def _table(self, edges: list[int], at: dict) -> tuple:
        """Running cost sums of ``edges``, cheapest first, and at each depth
        k how many of them are undecided: the undecided ones are a prefix."""
        sums = [0.0]
        for eid in edges:
            sums.append(sums[-1] + self.costs[eid])
        undecided = [0] * (len(self.order) + 1)
        for eid in edges:
            undecided[at[eid]] += 1
        for k in range(len(self.order) - 1, -1, -1):
            undecided[k] += undecided[k + 1]
        return sums, undecided

    def column(self, fail: frozenset, low: int, top: int) -> tuple:
        """The candidate column of the cut whose guard is ``low``, at bit
        ``top - 1``."""
        col = self.columns.get((fail, top))
        if col is None:
            spots, sums, hits = [], [0.0], [low]
            safe_spots, safe_sums = [], [0.0]
            for i in range(len(self.order) - 1, -1, -1):
                eid = self.order[i]
                if self.cross[eid] & low and eid not in fail:
                    spots.append(-i)
                    sums.append(sums[-1] + self.costs[eid])
                    hits.append(hits[-1] | self.cross[eid])
                    if self.safe[eid]:
                        safe_spots.append(-i)
                        safe_sums.append(safe_sums[-1] + self.costs[eid])
            col = self.columns[(fail, top)] = (spots, sums, hits, safe_spots, safe_sums)
        return col

    def bound(self, counts: Boundary, k: int, violated, cost_in: float, limit: float) -> float:
        """Repair cost of the packed cuts of ``violated`` (a ``first_bad``
        answer for the chosen set ``counts``), summed until cost_in plus the
        sum reaches ``limit``."""
        bad, pq, fail = violated
        bound = 0.0
        while bad:
            low = bad & -bad
            top = low.bit_length()
            spots, sums, hits, safe_spots, safe_sums = self.column(fail, low, top)
            reach = bisect_right(spots, -k)  # undecided candidates
            if pq is None:
                repair = sums[1] if reach else inf
            else:
                p, q = pq
                field = top - self.width  # the cut's field starts here
                need = p + q - ((counts.total >> field) & self.field)
                repair = sums[need] if need <= reach else inf
                need = p - ((counts.safe >> field) & self.field)
                if need <= bisect_right(safe_spots, -k):
                    repair = min(repair, safe_sums[need])
            bound += repair
            if cost_in + bound >= limit:
                break
            # Drop every cut that one of these candidates crosses.
            bad &= ~hits[reach]
        return bound

    def degree(self, counts: Boundary, k: int, cost_in: float, limit: float) -> float:
        """Half the summed repair costs of the singleton cuts that a spanning
        class finds violated in the chosen set ``counts``, summed until
        cost_in plus the half reaches ``limit``.  A cut {v} that several
        classes violate is charged its dearest repair."""
        total, safe, field = counts.total, counts.safe, self.field
        twice = 2.0 * (limit - cost_in)
        bound = 0.0
        for shift, sums, undecided, safe_sums, safe_undecided in self.vertices:
            t = (total >> shift) & field
            s = (safe >> shift) & field
            worst = 0.0
            for p, pq in self.spanning:
                if t < pq and s < p:
                    need = pq - t
                    repair = sums[need] if need <= undecided[k] else inf
                    need = p - s
                    if need <= safe_undecided[k] and safe_sums[need] < repair:
                        repair = safe_sums[need]
                    if repair > worst:
                        worst = repair
            bound += worst
            if bound >= twice:
                break
        return bound / 2

    def spanning_bound(
        self, counts: Boundary, k: int, violated, cost_in: float, limit: float
    ) -> float:
        """The larger of the degree and packing bounds; the packing is left
        out when the degree bound alone reaches ``limit``."""
        bound = self.degree(counts, k, cost_in, limit)
        if cost_in + bound >= limit:
            return bound
        return max(bound, self.bound(counts, k, violated, cost_in, limit))


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
    if problem.kind == "rsndp":
        # The whole graph keeps its own connectivity under every failure, so
        # only the budget of the oracle's failure-set enumeration applies;
        # the checker's bulk expansion enumerates the same sets.
        guard_failure_sets(g.m, problem.relative)
    else:
        ok, _ = check_problem_feasible(g, problem, g.all_edge_ids())
        if not ok:
            raise InfeasibleInstance("graph itself is infeasible for the problem")

    checker = _Checker(g, problem)
    order = sorted(range(g.m), key=lambda eid: (-g.cost_of(eid), eid))
    packing = _Packing(g, order, checker.classes)
    # Chosen once per search: only spanning classes pay for the degree bound.
    bound = packing.spanning_bound if packing.spanning else packing.bound
    costs = packing.costs

    # Greedy seed: keep everything, then drop expensive edges while feasible.
    checker.reset(chosen=range(g.m), pool=range(g.m))
    chosen = checker.counts[0]
    kept = set(range(g.m))
    for eid in order:
        chosen.remove(eid)
        if checker.first_bad(0) is None:
            kept.discard(eid)
        else:
            chosen.add(eid)
    best_set = frozenset(kept)
    best_cost = sum(costs[eid] for eid in kept)

    # Reset counters for the DFS: nothing chosen, everything in the pool.
    # The pool stays feasible at every node: the root's pool is the whole
    # graph, an exclusion is checked before descending, and an inclusion
    # leaves the pool as it is.
    checker.reset(chosen=(), pool=range(g.m))
    chosen, pool = checker.counts

    def dfs(k: int, cost_in: float) -> None:
        nonlocal best_set, best_cost
        if cost_in >= best_cost - COST_EPS:
            return
        violated = checker.first_bad(0)
        if violated is None:
            best_cost = cost_in
            best_set = frozenset(chosen_now)
            return
        if k == g.m:
            return
        # Any completion repairs each packed cut of the violated class or
        # scenario with its own undecided candidates, so it adds at least the
        # packing bound, and for a spanning class at least the degree bound
        # too.  A pruned subtree holds nothing cheaper than the
        # incumbent by more than COST_EPS, the only gain that replaces it.
        limit = best_cost - COST_EPS
        if cost_in + bound(chosen, k, violated, cost_in, limit) >= limit:
            return
        eid = order[k]
        # Exclude branch first: expensive edges drop out early.
        pool.remove(eid)
        if checker.first_bad(1) is None:
            dfs(k + 1, cost_in)
        pool.add(eid)
        # Include branch.
        chosen_now.add(eid)
        chosen.add(eid)
        dfs(k + 1, cost_in + costs[eid])
        chosen.remove(eid)
        chosen_now.discard(eid)

    chosen_now: set[int] = set()
    dfs(0, 0.0)
    # dfs holds itself through its closure cell; emptying the cell frees the
    # search state and the graph on return, not at the next cyclic collection.
    del dfs
    return best_set, best_cost
