"""Exact exponential baseline: provably minimum-cost feasible edge sets.

Branch and bound over edge include/exclude decisions, with feasibility
pruning in both directions (the chosen set alone, and the pool: chosen plus
all still undecided edges) and admissible remaining-cost bounds.  Every
fault model is a cut condition here, tested on the packed cut kernel: the
boundary counts of an edge set over every cut are packed ints, changed by
one big-int add or subtract per edge, and every test and cut set stays in
the kernel's guard-bit form.  A flex (p, q) class fails on a cut that
separates one of its pairs and has fewer than p safe and fewer than p+q
edges.  A bulk scenario, and each scenario of the bulk expansion of
relative requirements, fails on a cut that separates one of its pairs when
every edge crossing it is one the scenario fails: a cut its failure set
cuts off (:meth:`faultnet.cuts.Layout.cut_off`).

The search is one recursive kernel.  The chosen set's packed total and safe
counts go down the recursion as arguments, so a child's are its parent's
plus at most one edge's crossing set; the pool's are updated in place and
restored on return, and so are the chosen set's per-vertex degrees when a
class is spanning (see below).  With scenarios, a bytearray per set
records which edges it holds, for their test.  The edge count and every
table are read into locals once per search.  When every constraint is a
flex class (no scenarios), the chosen-set and pool tests run inline in the
kernel, as the guard-set expression of :meth:`_Checker.first_bad` over the
classes; a search with scenarios calls ``first_bad``, whose scan counts
each scenario's failed edges in the set and shares the cuts the set does
not cross among the scenarios with none there.  The opening question,
whether G itself is feasible, is ``first_bad`` on G's packed counts, which
the greedy seed then starts from.

The tables that depend on the graph alone (the decision order, the costs,
the shifted crossing sets, the per-vertex cost sums and undecided counts
of the degree bound) are built on the graph's first search and kept on the
graph (:class:`_Tables`), so one bench cell's (p, 0) base and (p, q)
baseline share them.

The packing bound packs the violated cuts of the first failing class or
scenario greedily, lowest cut first, so that no two packed cuts share a
candidate (an undecided edge that crosses the cut and is not failed there),
and sums what repairing each packed cut costs at least: the cheapest
candidate for a scenario, and for a flex class the cheaper of the p - s
cheapest safe candidates and the p + q - t cheapest candidates, with s and
t the cut's safe and total counts in the chosen set.  A completion repairs
every packed cut with its own candidates, so the sum never exceeds what it
adds.

A flex class whose scope holds every singleton cut {v}, as an all-pairs
(FGC) class does, has a degree bound: half the sum, over the vertices, of
what repairing the cut {v} costs at least by the same rule over the
undecided edges at v, 0 where no such class finds it violated.  A
completion repairs every such cut with edges at its vertex, and each edge
is at two vertices, so it adds at least half the sum.  The kernel keeps
these repair costs in a degree table, one entry per vertex, computed from
the chosen set's degree and safe degree at the vertex.  The DFS keeps those
two counts per vertex in two int lists: an inclusion adds 1 at the two
endpoints of its edge and takes it back on return.  Deciding edge
``order[k]`` changes the chosen degree and the undecided edges of its two
endpoints only, so a child recomputes just those two entries, in one
:meth:`_Packing.refresh` call, and the parent restores them on return;
the same call at the root computes every entry.
The bound adds the entries in vertex order, one ``+=`` at a time, and
stops once the sum reaches the limit, so each value is bitwise the one a
fresh sum over the vertices gives.

A node refreshes and sums its degree table before it tests its chosen set.
An entry is positive only where a spanning class finds the cut {v}
violated: fewer than p safe and fewer than p + q chosen edges at v.  So
when every constraint is a spanning class, a positive sum means that the
chosen set fails, and the node skips the test.  It cannot be an incumbent,
and its exclusion child gets a marker answer in place of the bad cuts,
which no bound of such a search reads.  The skip is exact: it drops only
tests that would fail, so nodes, prunes and incumbents are the same.  A
zero sum runs the test as before, since a deficient vertex whose cheapest
repair costs nothing has entry 0 too.

Which bounds prune is fixed once per search.  When every constraint is a
spanning class (every flex class holds every singleton cut and there are
no scenarios, the FGC case), the degree table alone prunes and the packing
never runs.  There the packing would run only at nodes the degree bound
failed to prune, and it prunes few of those (3,753 of 21,843 on the seed-1
20-second ``ratio-sweep`` list), so it costs more than the nodes it
saves.  With a mix of spanning and other classes the DFS prunes on the
degree table and then on the packing, since the degree table does not see
the other classes' cuts; with no spanning class it prunes on the packing
alone.

An exclusion child has its parent's chosen set, cost and limit (no
incumbent can change between the parent's test and the child), so the
parent hands it its ``first_bad`` answer, or the marker, and the child
runs neither the cost check nor a test of its own.  The parent hands down
its packing too, as the guard set of its packed cuts, unless the excluded
edge is a candidate of one of them.  Otherwise every packed cut keeps its
undecided candidates, so the child's packing is the parent's cut for cut,
with the same sum, which did not prune, and the child skips
:meth:`_Packing.bound`.  The child still refreshes and sums its degree
table, which the excluded edge does change.

Both bounds are admissible: a pruned subtree holds only completions that
the DFS's cost check would reject anyway, since the incumbent is replaced
only on a gain above COST_EPS.  So whichever bounds run, the search finds
the same incumbents in the same order, and the answer does not change; a
weaker bound only visits more nodes.

Parallel edges add a dominance rule.  Edge e2 dominates edge e1 when both
join the same two vertices, c(e1) - c(e2) exceeds the float slop of a cost
sum, m * 2^-52 * (the sum of all costs), e2 is safe or e1 is unsafe, and
every scenario that fails e2 also fails e1.  The safety test is dropped
when every class has q = 0, since a cut then fails on its total count
alone.  The two edges cross the same cuts, so swapping e1 for e2 keeps
every total count, keeps or raises every safe count, and leaves a scenario
that fails the swapped set failing the set before the swap.  The DFS does
not try the exclusion of e2 = ``order[k]`` while the chosen set holds an
edge e1 that e2 dominates: every set in that branch has a twin, the same
set with e2 in place of e1, which is feasible whenever it is and cheaper.
Each of the two sums rounds off by under (m - 1) * 2^-53 times the sum of
all costs, so the twin's float cost is below the set's too.  The twin lies
in e1's exclusion branch, which the exclusion-first DFS searched earlier
(or in a skipped branch whose own twin it searched earlier still), so no
skipped set can become an incumbent, and the search finds the same
incumbents in the same order.  Equal-cost parallel edges never qualify.
Relative problems rarely qualify: their bulk expansion fails each edge on
its own, in a scenario {e2} wherever G minus e2 still connects a pair, and
that scenario does not fail e1.  The graph-only part, the parallel groups
under the cost margin with and without the safety test, is built with the
other tables; a search with scenarios filters it by their failure sets.

The search counts its own work in local ints and reports it once, on
return, to :mod:`faultnet.trace`: ``exact.nodes`` (DFS nodes entered),
``exact.checks`` (feasibility tests, inline or not: of the chosen set at
the root and at each include child past the cost check, unless the degree
table of an all-spanning search skips it, of the pool at each exclusion
tried, and of each greedy step; the opening question, the exclusion
child's handed-down answer and the exclusions the dominance rule skips are
not counted), ``exact.bounds`` (packing bounds computed, not
those handed down), ``exact.prunes`` (nodes whose subtree the degree or
the packing bound cut) and ``exact.dominated`` (exclusions the dominance
rule skipped).

This is the oracle that backs every derived expected value in the test
suite, so it favors simplicity over cleverness everywhere the budget allows.
"""

from __future__ import annotations

from bisect import bisect_right
from math import inf
from typing import Iterable

from . import trace
from .cuts import crossing_table, layout_of
from .errors import BudgetExceeded, InfeasibleInstance
from .graph import FaultGraph, env_budget
from .oracles import Problem, expand_rsndp_to_bulk

COST_EPS = 1e-12
_NO_FAIL: frozenset = frozenset()
# The answer a node of an all-spanning search hands its exclusion child when
# its degree table shows that the chosen set fails: no bad set is computed,
# and there only the answer's presence is read.
_SHORT = (0, None, _NO_FAIL)


def exact_budget() -> int:
    return env_budget("FAULTNET_EXACT_BUDGET", 30)


class _Checker:
    """Feasibility of an edge set over every cut, for any fault model.

    The set is given by its packed ``total`` and ``safe`` boundary counts
    and by ``inside``, where ``inside[eid]`` is 1 while it holds edge eid.
    Flex requirements are grouped into (p, q) classes, scenarios keep their
    failure sets; each constrains the cuts that separate one of its pairs,
    its scope, kept as a guard set.  A class holds the offsets of its two
    thresholds.  A scenario fails on a cut in scope that its failure set
    cuts off (:meth:`Layout.cut_off`): nothing crossing the cut survives.
    A scenario also holds its failed edges, each with its packed crossing
    set.
    """

    def __init__(self, g: FaultGraph, problem: Problem):
        lay = layout_of(g)
        cross, _safe = crossing_table(g)
        self.nonzero = lay.nonzero
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
        self.scenarios = [
            (lay.scope(sc.pairs), sc.fail, tuple((eid, cross[eid]) for eid in sc.fail))
            for sc in scenarios
        ]
        # A scenario cuts off only cuts with at most |F_j| edges of the set.
        self.reach = 0
        for scope, _fail, _failed in self.scenarios:
            self.reach |= scope
        self.few_offset = lay.offset(max((len(sc.fail) for sc in scenarios), default=0) + 1)

    def first_bad(self, total: int, safe: int, inside):
        """(bad guard set, (p, q), failed edges) of the first class, or else
        scenario, that the set fails, None if it is feasible.  A class fails
        no edges; a scenario has no (p, q)."""
        for scope, pq, safe_offset, total_offset in self.classes:
            bad = scope & ~((safe + safe_offset) | (total + total_offset))
            if bad:
                return bad, pq, _NO_FAIL
        reach = self.reach
        if not reach or not reach & ~(total + self.few_offset):
            return None
        # Layout.cut_off, inline: the cuts whose total equals the count of
        # the set's failed edges.  With none of them in the set, those are
        # the cuts the set does not cross, the same for every such scenario.
        nonzero = self.nonzero
        uncrossed = None
        for scope, fail, failed in self.scenarios:
            dead = 0
            for eid, cuts in failed:
                if inside[eid]:
                    dead += cuts
            if dead:
                bad = scope & ~((total ^ dead) + nonzero)
            else:
                if uncrossed is None:
                    uncrossed = ~(total + nonzero)
                bad = scope & uncrossed
            if bad:
                return bad, None, fail
        return None


class _Tables:
    """The search tables of a graph: what the search reads that depends on
    the graph alone.  Built on its first search and kept on the graph
    itself (:func:`_tables_of`), never in a module cache, so they live
    exactly as long as the graph and every search of it shares them.  They
    are tuples and ints, read-only, and none refers back to the graph.

    ``order`` lists the edge ids by descending cost, ties by id: at depth k
    the edges at ``order[k:]`` are undecided.  ``costs`` and ``safe`` are
    per edge id, ``cross`` the crossing sets shifted onto the guard bits,
    and ``steps[k]`` is edge ``order[k]`` with its crossing set, the same
    set again if the edge is safe (else 0) and its cost.  ``whole`` holds
    the packed total and safe counts of all of g's edges.  ``singles`` is
    the guard set of the singleton cuts {v}.  The degree tables are built
    on the first search with a spanning class (:meth:`degree_tables`).  ``vertices`` holds, per
    vertex, the running cost sums of its incident edges, cheapest first,
    and how many of them are undecided at each depth k (the undecided ones
    are the cheapest, a prefix), and then the same two for its safe edges.
    ``ends`` holds the two endpoints of each edge of ``order``.

    ``twins[k]`` holds the edges that edge ``order[k]`` dominates by the
    graph alone (:func:`exact_solve`): those of ``order[:k]`` that join its
    two endpoints and cost more than it by over the float slop of a cost
    sum.  ``safe_twins[k]`` keeps those of them it may also replace under a
    class with q > 0: all of them if ``order[k]`` is safe, the unsafe ones
    if not.  An edge with no parallel edge has the empty set in both.
    """

    __slots__ = (
        "order", "costs", "safe", "cross", "steps", "whole", "width", "field", "singles",
        "vertices", "ends", "twins", "safe_twins",
    )

    def __init__(self, g: FaultGraph):
        self.width = width = layout_of(g).width
        self.field = (1 << width) - 1
        cross, self.safe = crossing_table(g)
        self.costs = costs = g.costs
        self.order = order = tuple(sorted(range(g.m), key=lambda eid: (-costs[eid], eid)))
        self.cross = tuple(cuts << (width - 1) for cuts in cross)
        self.steps = tuple(
            (eid, cross[eid], cross[eid] if self.safe[eid] else 0, costs[eid]) for eid in order
        )
        self.whole = (sum(cross), sum(cuts for cuts, safe in zip(cross, self.safe) if safe))
        # The cut {v} is named by v's own bit, and the anchor's by all the
        # other vertices (at n = 2 both name the one cut; at n = 1 there is
        # no cut).
        shifts = [((1 << v) - 1) * width for v in range(g.n - 1)]
        if g.n > 1:
            shifts.append(((1 << (g.n - 1)) - 2) * width)
        self.singles = sum(1 << (shift + width - 1) for shift in set(shifts))
        self.vertices = self.ends = None
        # A group lists the edges of one vertex pair seen so far, the
        # dearer ones, since order runs from the dearest edge.
        slop = g.m * 2.0**-52 * sum(costs)
        twins, safe_twins = [frozenset()] * g.m, [frozenset()] * g.m
        groups: dict[int, list[int]] = {}
        for k, eid in enumerate(order):
            e = g.edges[eid]
            group = groups.setdefault(1 << e.u | 1 << e.v, [])
            if group:
                dearer = [other for other in group if costs[other] - costs[eid] > slop]
                if dearer:
                    twins[k] = frozenset(dearer)
                    safe_twins[k] = frozenset(
                        dearer if self.safe[eid] else (o for o in dearer if not self.safe[o])
                    )
            group.append(eid)
        self.twins, self.safe_twins = tuple(twins), tuple(safe_twins)

    def degree_tables(self, g: FaultGraph) -> tuple:
        """(vertices, ends), built on the first call."""
        if self.vertices is None:
            order, costs, safe = self.order, self.costs, self.safe
            ends = tuple((g.edges[eid].u, g.edges[eid].v) for eid in order)
            sums = [[0.0] for _v in range(g.n)]
            safe_sums = [[0.0] for _v in range(g.n)]
            counts, safe_counts = [0] * g.n, [0] * g.n
            rows, safe_rows = [tuple(counts)], [tuple(safe_counts)]
            # From the cheap end: at depth k the edges at order[k:] are
            # undecided, and each vertex's are its cheapest ones.
            for k in range(len(order) - 1, -1, -1):
                eid = order[k]
                for v in ends[k]:
                    sums[v].append(sums[v][-1] + costs[eid])
                    counts[v] += 1
                    if safe[eid]:
                        safe_sums[v].append(safe_sums[v][-1] + costs[eid])
                        safe_counts[v] += 1
                rows.append(tuple(counts))
                safe_rows.append(tuple(safe_counts))
            undecided = zip(*reversed(rows))
            safe_undecided = zip(*reversed(safe_rows))
            self.ends = ends
            self.vertices = tuple(
                zip(map(tuple, sums), undecided, map(tuple, safe_sums), safe_undecided)
            )
        return self.vertices, self.ends


def _tables_of(g: FaultGraph) -> _Tables:
    """g's search tables, built on the first call and kept in its
    ``_search`` slot, as :func:`faultnet.cuts.crossing_table` keeps its
    table."""
    tables = g._search
    if tables is None:
        tables = g._search = _Tables(g)
    return tables


class _Packing:
    """Lower bounds on the cost of completing a chosen set: a greedy packing
    of violated cuts with pairwise disjoint candidate sets, and for spanning
    classes the repair costs of the singleton cuts that the degree bound
    sums.  The graph's own tables come from its :class:`_Tables`.

    The candidates of a cut for a failure set are the edges that cross it
    and are not failed, listed once per (failure set, cut) when first
    needed, in ``columns``: their negated order positions from the cheap
    end, the running sums of their costs and the running unions of their
    crossing guard sets, and the positions and cost sums of the safe ones.
    The undecided candidates at depth k are a prefix of that list.

    ``spanning`` holds (p, p + q) of each of the checker's ``classes`` whose
    scope holds every singleton cut {v}.  Only then are ``vertices`` and
    ``ends`` the graph's degree tables.  The search's degree table holds, at
    depth k for a chosen set, one entry per vertex v, from v's chosen and
    safe degrees at k, which the search keeps per vertex; :meth:`refresh`
    holds the one rule for an entry.  The root computes every entry, and
    between depths k - 1 and k only the entries of the endpoints of
    ``order[k - 1]``, ``ends[k - 1]``, change, so the search refreshes just
    those.
    """

    def __init__(self, g: FaultGraph, classes: list):
        tables = _tables_of(g)
        self.order, self.costs, self.safe = tables.order, tables.costs, tables.safe
        self.cross, self.width, self.field = tables.cross, tables.width, tables.field
        self.columns: dict = {}
        self.spanning = []
        self.vertices = self.ends = ()
        if not classes:  # no flex pair, maybe n = 1
            return
        singles = tables.singles
        for scope, (p, q), _safe_offset, _total_offset in classes:
            if scope & singles == singles:
                self.spanning.append((p, p + q))
        if self.spanning:
            self.vertices, self.ends = tables.degree_tables(g)

    def column(self, fail: frozenset, low: int, top: int) -> tuple:
        """The candidate column of the cut whose guard is ``low``, at bit
        ``top - 1``, built and kept in ``columns`` on first use."""
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

    def bound(
        self, total: int, safe: int, k: int, violated, cost_in: float, limit: float
    ) -> tuple[float, int]:
        """(repair cost, guard set) of the packed cuts of ``violated`` (a
        ``first_bad`` answer for the chosen set with packed counts ``total``
        and ``safe``), summed until cost_in plus the sum reaches ``limit``."""
        bad, pq, fail = violated
        if pq is not None:
            p, q = pq
        columns, width, mask = self.columns, self.width, self.field
        bound = 0.0
        packed = 0
        while bad:
            low = bad & -bad
            top = low.bit_length()
            col = columns.get((fail, top))
            if col is None:
                col = self.column(fail, low, top)
            spots, sums, hits, safe_spots, safe_sums = col
            reach = bisect_right(spots, -k)  # undecided candidates
            if pq is None:
                repair = sums[1] if reach else inf
            else:
                field = top - width  # the cut's field starts here
                need = p + q - ((total >> field) & mask)
                repair = sums[need] if need <= reach else inf
                need = p - ((safe >> field) & mask)
                if need <= bisect_right(safe_spots, -k) and safe_sums[need] < repair:
                    repair = safe_sums[need]
            bound += repair
            packed |= low
            if cost_in + bound >= limit:
                break
            # Drop every cut that one of these candidates crosses.
            bad &= ~hits[reach]
        return bound, packed

    def refresh(
        self,
        table: list[float],
        k: int,
        stale: Iterable[int],
        degrees: list[int],
        safe_degrees: list[int],
    ) -> None:
        """Bring the degree ``table`` to depth k at the ``stale`` vertices,
        for the chosen set with ``degrees[v]`` edges and ``safe_degrees[v]``
        safe edges at each vertex v.  The entry of v is what repairing the
        singleton cut {v} costs at least: the dearest repair over the
        spanning classes that find it violated, 0 if none does."""
        vertices, spanning = self.vertices, self.spanning
        for v in stale:
            t = degrees[v]
            s = safe_degrees[v]
            sums, undecided, safe_sums, safe_undecided = vertices[v]
            worst = 0.0
            for p, pq in spanning:
                if t < pq and s < p:
                    need = pq - t
                    repair = sums[need] if need <= undecided[k] else inf
                    need = p - s
                    if need <= safe_undecided[k] and safe_sums[need] < repair:
                        repair = safe_sums[need]
                    if repair > worst:
                        worst = repair
            table[v] = worst


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

    checker = _Checker(g, problem)
    packing = _Packing(g, checker.classes)
    tables = _tables_of(g)
    first_bad, costs, steps, cross, m = (
        checker.first_bad, tables.costs, tables.steps, tables.cross, g.m
    )
    whole_total, whole_safe = tables.whole
    held = bytearray(b"\x01") * m
    # G keeps its own connectivity under any failure, so a relative problem
    # always holds on G.
    if problem.kind != "rsndp" and first_bad(whole_total, whole_safe, held) is not None:
        raise InfeasibleInstance("graph itself is infeasible for the problem")

    # Greedy seed: keep everything, then drop expensive edges while feasible.
    total, safe = whole_total, whole_safe
    kept = set(range(m))
    for eid, cuts, safe_cuts, _cost in steps:
        held[eid] = 0
        if first_bad(total - cuts, safe - safe_cuts, held) is None:
            total -= cuts
            safe -= safe_cuts
            kept.discard(eid)
        else:
            held[eid] = 1
    checks = m  # one test per greedy step
    best_set = frozenset(kept)
    best_cost = sum((costs[eid] for eid in kept), 0.0)

    # The DFS starts with nothing chosen and everything in the pool.  The
    # pool stays feasible at every node: the root's pool is the whole graph,
    # an exclusion is checked before descending, and an inclusion leaves the
    # pool as it is.
    pool_total, pool_safe = whole_total, whole_safe
    classes = checker.classes
    # Flex classes alone are tested inline; a scenario needs first_bad.
    scenarios = bool(checker.scenarios)
    inside = bytearray(m)
    pool_inside = bytearray(b"\x01") * m
    # The incumbent is copied from this set, not rebuilt from ``inside``:
    # its iteration order, which later cost sums follow, depends on the
    # set's history.  The dominance skip below changes that history, so a
    # returned set can iterate in another order than it did before the
    # skip, with the same members and cost.
    chosen_now: set[int] = set()
    # beaten[k]: the edges that order[k] dominates in this search.  Safety
    # counts only under a class with q > 0; a scenario that fails order[k]
    # must fail the edge it replaces too.
    beaten = tables.safe_twins if any(pq[1] for _s, pq, _o, _t in classes) else tables.twins
    if scenarios and any(beaten):
        fails = [0] * m
        for j, (_scope, fail, _failed) in enumerate(checker.scenarios):
            for eid in fail:
                fails[eid] |= 1 << j
        beaten = tuple(
            frozenset(e for e in dearer if not fails[eid] & ~fails[e])
            for eid, dearer in zip(tables.order, beaten)
        )
    bound, refresh, ends, safe_edges = packing.bound, packing.refresh, packing.ends, tables.safe
    spanning = bool(packing.spanning)
    # The packing runs only when some constraint is not a spanning class:
    # an FGC search prunes on the degree table alone.
    packs = len(packing.spanning) < len(classes) or scenarios
    table = [0.0] * len(packing.vertices)
    # The chosen set's degree and safe degree at each vertex, for refresh.
    degrees, safe_degrees = [0] * len(table), [0] * len(table)
    refresh(table, 0, range(len(table)), degrees, safe_degrees)
    nodes = bounds = prunes = dominated = 0

    def dfs(
        k: int, cost_in: float, total: int, safe: int, violated=None, packed: int = 0
    ) -> None:
        # An exclusion child gets its parent's first_bad answer ``violated``
        # and, while it holds, the guard set ``packed`` of its packed cuts.
        nonlocal best_set, best_cost, pool_total, pool_safe, nodes, checks, bounds, prunes
        nonlocal dominated
        nodes += 1
        limit = best_cost - COST_EPS
        if violated is None and cost_in >= limit:
            return
        if spanning:
            if k:
                refresh(table, k, ends[k - 1], degrees, safe_degrees)
            # One += at a time: the builtin sum compensates from Python 3.12.
            twice = 2.0 * (limit - cost_in)
            degree = 0.0
            for repair in table:
                degree += repair
                if degree >= twice:
                    break
            # A positive entry is a singleton cut that a spanning class finds
            # violated.  With spanning classes alone the chosen set then
            # fails, and only an all-zero table, which a zero-cost repair
            # also gives, leaves the test to run.
            if degree and violated is None and not packs:
                violated = _SHORT
        if violated is None:
            checks += 1
            if scenarios:
                violated = first_bad(total, safe, inside)
            else:
                for scope, pq, safe_offset, total_offset in classes:
                    bad = scope & ~((safe + safe_offset) | (total + total_offset))
                    if bad:
                        violated = bad, pq, _NO_FAIL
                        break
            if violated is None:
                best_cost = cost_in
                best_set = frozenset(chosen_now)
                return
        if k == m:
            return
        # Any completion repairs each packed cut of the violated class or
        # scenario with its own undecided candidates, so it adds at least the
        # packing bound, and with a spanning class at least the degree bound.
        # A pruned subtree holds nothing cheaper than the incumbent by more
        # than COST_EPS, the only gain that replaces it.
        if spanning and cost_in + degree / 2 >= limit:
            prunes += 1
            return
        if packs and not packed:
            bounds += 1
            repair, packed = bound(total, safe, k, violated, cost_in, limit)
            if cost_in + repair >= limit:
                prunes += 1
                return
        eid, cuts, safe_cuts, cost = steps[k]
        if spanning:
            u, w = ends[k]
            saved = table[u], table[w]
        # Exclude branch first: expensive edges drop out early.  Not while
        # the chosen set holds an edge that eid dominates: each set there
        # has a cheaper feasible twin, searched in that edge's exclusion.
        twins = beaten[k]
        if twins and not chosen_now.isdisjoint(twins):
            dominated += 1
        else:
            pool_total -= cuts
            pool_safe -= safe_cuts
            checks += 1
            if scenarios:
                pool_inside[eid] = 0
                feasible = first_bad(pool_total, pool_safe, pool_inside) is None
            else:
                feasible = True
                for scope, _pq, safe_offset, total_offset in classes:
                    if scope & ~((pool_safe + safe_offset) | (pool_total + total_offset)):
                        feasible = False
                        break
            if feasible:
                # The child has this node's chosen set, cost and limit: the
                # same answer, and the same packing, cut for cut, unless eid
                # is a candidate of a packed cut.  That packing did not prune
                # here.
                if packed and cross[eid] & packed and eid not in violated[2]:
                    packed = 0
                dfs(k + 1, cost_in, total, safe, violated, packed)
            pool_total += cuts
            pool_safe += safe_cuts
        # Include branch.
        if scenarios:
            pool_inside[eid] = 1
            inside[eid] = 1
        chosen_now.add(eid)
        if spanning:
            degrees[u] += 1
            degrees[w] += 1
            if safe_edges[eid]:
                safe_degrees[u] += 1
                safe_degrees[w] += 1
        dfs(k + 1, cost_in + cost, total + cuts, safe + safe_cuts)
        if scenarios:
            inside[eid] = 0
        chosen_now.discard(eid)
        if spanning:
            degrees[u] -= 1
            degrees[w] -= 1
            if safe_edges[eid]:
                safe_degrees[u] -= 1
                safe_degrees[w] -= 1
            table[u], table[w] = saved

    dfs(0, 0.0, 0, 0)
    # dfs holds itself through its closure cell; emptying the cell frees the
    # search state on return, not at the next cyclic collection.
    del dfs
    trace.count("exact.nodes", nodes)
    trace.count("exact.checks", checks)
    trace.count("exact.bounds", bounds)
    trace.count("exact.prunes", prunes)
    trace.count("exact.dominated", dominated)
    return best_set, best_cost
