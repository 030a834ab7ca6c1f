"""Bulk-robust network design via tree paths and greedy hitting sets.

Level-by-level augmentation: to satisfy all sub-failures of size `level`,
sample a spanning tree, buy the tree paths of every terminal pair, then hit
each remaining violating (failure set, pair) with a fundamental cycle
{e} + tree path of e, chosen by the greedy hitting-set rule.  ``TREES`` = 8
trees are tried per level and the cheapest feasible outcome kept.

A tree is a shortest-path tree under perturbed costs, grown by Dijkstra
on a neighbour table that each graph builds once and keeps; each
vertex's depth is set when it is popped, from its parent's, and the
root's edges are relaxed before the heap starts.  Most trees serve only
the two rules below that pass a tree over, so the sampling is the loop's
largest fixed cost.  Trees and cycles read their costs from the graph's
own table, ``FaultGraph.costs``, and a level keys each tree on its edge
set, ``frozenset(tree.parent_edge)``.

A level passes over a tree whose edge set an earlier tree of the level
had.  The level step reads a tree only through ``tree.path(u, v)``, the
unique u-v path of the tree in walk order from u, which the edge set
fixes whatever the root.  So such a repeat would rebuild its twin's H,
hitting instance, picks and candidate, to the bit: it cannot replace the
kept one, which takes a cost below best - 1e-12, and it would be skipped
or unhittable exactly as its twin was (the twin's Unhittable stands for
it in the level's last failure).

A level stops drawing trees once the kept candidate costs at most 1e-12:
every candidate costs >= 0, as a float sum of costs >= 0, and only one
below best - 1e-12 replaces the kept one, so no later tree can win.  A
tree is evaluated only if it can still win: once a best is kept, a tree
whose paths alone (H - H_prev) cost more than best * (1 + 1e-9) is
skipped, since costs are >= 0, each of its candidates holds H, and a float
sum of at most m terms >= 0 is within relative m * 2^-53 of its exact
value in any order.  Each distinct H is evaluated once per level: its
Boundary and violating sets are kept in a per-loop memo, and that one
Boundary also serves the hitting instance.  None of these shortcuts can
change the kept tree.  The hitting instance walks each fundamental cycle
once, for its cost and the cuts its edges cross.

Every level closes on its own oracle: the kept candidate's violating sets
are read from the same memo, or asked once when no tree's H is the
candidate, and a level that leaves any is refused.  The oracle's answer
is right there: the candidate holds H_prev, so it meets the oracle's
precondition whenever H_prev does.

Every connectivity question of the loop is a cut condition answered on the
packed cut kernel.  F cuts a pair in H when a cut that separates the pair is
a zero cut of H - F, one that F cuts off in H
(:meth:`faultnet.cuts.Boundary.cut_off`).  Those cuts are the dead cuts of
(F, pair), and a fundamental cycle C reconnects the pair exactly when the
edges of C - F cross every dead cut.  The level oracle and the
precondition on H_prev are the kernel's, in :mod:`faultnet.oracles`; only
the bulk check of record uses union-find.  No level lists
sub-failures: once H survives every smaller one, a violating F of a level
is, by Menger, the H-boundary of a cut with exactly that many edges of H,
all inside the scenario's failure set.  So the number of sub-failures, the
sum of 2^|F_j|, bounds no work and is not checked against any budget.

The flexible and relative drivers reduce to the level step
(``_best_of_trees``) with oracles of their own, and neither expands its
requirements into a scenario list.  The flexible driver seeds with
:func:`faultnet.flexalg.flex_base` at the (p_i, 0) level and activates
pairs round by round, honoring heterogeneous (p_i, q_i) requirements;
each round's oracle reads the violating sets off the H-boundaries of the
kernel's tight cuts (``_flex_violating_sets``), and ``is_flex_feasible``
on the answer is its check of record.  The relative driver buys tree
paths for the pairs that G connects, and level L's oracle
(:func:`faultnet.oracles._relative_violations`) keeps the H-boundaries
F of cuts with exactly L edges of H whose pair G - F still connects;
``is_rsndp_feasible`` on the answer, also on cuts, is its check of record.
Neither checks a precondition: each level's closing check gives the next
level its own.  One decoder (:func:`faultnet.oracles._cut_boundaries`)
turns the cuts of a bulk or relative level and of a flexible round into
edge sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from math import inf
from random import Random
from typing import Callable, Iterable, Sequence

from . import trace
from .cuts import Boundary, separating
from .errors import (
    Disconnected,
    InfeasibleAugmentation,
    InfeasibleInstance,
    Unhittable,
)
from .flexalg import flex_base
from .graph import FaultGraph
from .oracles import (
    BulkScenario,
    FlexRequirement,
    RelativeRequirement,
    _check_prior_levels,
    _cut_boundaries,
    _relative_violations,
    _violations_of_level,
    is_bulk_feasible,
    is_flex_feasible,
    is_rsndp_feasible,
)

TREES = 8  # sampled trees per level


# -- spanning tree embeddings ---------------------------------------------------

@dataclass(frozen=True)
class TreeEmbedding:
    """A spanning tree with path lookup."""

    root: int
    parent_vertex: tuple[int, ...]
    parent_edge: tuple[int, ...]
    depth: tuple[int, ...]

    def path(self, u: int, v: int) -> tuple[int, ...]:
        """Edge ids of the unique tree path between u and v, in walk order
        from u."""
        parent_e, parent_v, depth = self.parent_edge, self.parent_vertex, self.depth
        du, dv = depth[u], depth[v]
        left, right = [], []
        while du > dv:
            left.append(parent_e[u])
            u = parent_v[u]
            du -= 1
        while dv > du:
            right.append(parent_e[v])
            v = parent_v[v]
            dv -= 1
        while u != v:
            left.append(parent_e[u])
            right.append(parent_e[v])
            u = parent_v[u]
            v = parent_v[v]
        if right:
            right.reverse()
            left += right
        return tuple(left)


def _neighbour_table(g: FaultGraph) -> tuple[tuple[tuple[int, int], ...], ...]:
    """``_neighbour_table(g)[x]``: the (other endpoint, edge id) of each
    edge at x, in ``g.incident(x)`` order.

    Built on the first call and kept on g itself, as
    :func:`faultnet.cuts.crossing_table` keeps its table, so it lives
    exactly as long as the graph."""
    table = g._neighbours
    if table is None:
        edges = g.edges
        table = g._neighbours = tuple(
            tuple((edges[eid].v if edges[eid].u == x else edges[eid].u, eid) for eid in g.incident(x))
            for x in range(g.n)
        )
    return table


def sample_tree(g: FaultGraph, seed: int = 0) -> TreeEmbedding:
    """Random low-ish-stretch spanning tree, deterministic per seed.

    Edge costs get a multiplicative log-uniform [1, 2] perturbation, then a
    shortest-path tree is grown from a random root by Dijkstra on g's
    neighbour table (:func:`_neighbour_table`), with the root's edges
    relaxed before the heap starts, as its pop would relax them.  The
    draws are m calls to ``random()``, one per edge in id order, then
    ``randrange(n)`` for the root.  Downstream correctness never depends
    on the stretch, only expected cost does.
    """
    trace.count("bulk.trees")
    rng = Random(seed)
    draw = rng.random
    weights = [c * (2.0 ** draw()) for c in g.costs]
    n = g.n
    root = rng.randrange(n)
    neighbours = _neighbour_table(g)
    push, pop = heappush, heappop
    dist = [inf] * n
    parent_v = [-1] * n
    parent_e = [-1] * n
    depth = [-1] * n  # -1 until popped
    dist[root] = 0.0
    depth[root] = 0
    # The root pops first, at distance 0: its edges are relaxed here, in
    # the order its pop would relax them, and it is never pushed.
    heap: list[tuple[float, int]] = []
    for y, eid in neighbours[root]:
        nd = weights[eid]
        if nd < dist[y] - 1e-15:
            dist[y] = nd
            parent_v[y] = root
            parent_e[y] = eid
            push(heap, (nd, y))
    while heap:
        d, x = pop(heap)
        if depth[x] >= 0:
            continue
        # Weights are >= 0, so a parent pops before its child and the depth
        # comes from the parent's; distance order would not do, as with
        # zero-cost edges it can put a child before its parent.
        depth[x] = depth[parent_v[x]] + 1
        for y, eid in neighbours[x]:
            nd = d + weights[eid]
            if nd < dist[y] - 1e-15:
                dist[y] = nd
                parent_v[y] = x
                parent_e[y] = eid
                push(heap, (nd, y))
    if -1 in depth:
        raise Disconnected("graph is not connected")
    return TreeEmbedding(root, tuple(parent_v), tuple(parent_e), tuple(depth))


# -- hitting set ------------------------------------------------------------------

@dataclass(frozen=True)
class HittingInstance:
    """Sets = violating (failure, pair) tuples; elements = candidate edges.

    An element e hits a set (F, pair) when the fundamental cycle C = {e} +
    tree path of e reconnects the pair in H - F: when the edges of C - F
    cross every dead cut of (F, pair), a cut that separates the pair and
    that F cuts off in H (``Boundary.cut_off``).  Its cost is the cycle
    cost."""

    set_keys: tuple
    elements: tuple[int, ...]
    costs: dict
    hits: dict  # element id -> frozenset of set indices


def build_hitting_instance(
    g: FaultGraph,
    H: frozenset,
    tree: TreeEmbedding,
    viol: Sequence[tuple[frozenset, tuple[int, int]]],
    counts: Boundary | None = None,
) -> HittingInstance:
    """The hitting instance of ``viol`` in H over the tree's fundamental
    cycles; ``counts`` is H's Boundary when the caller already has it.

    One walk of each cycle gives its cost terms, summed in the cycle's
    own iteration order as ``g.total_cost`` sums them, and the packed set
    of cuts that its edges cross.  A set whose dead cuts the whole cycle
    misses is not hit; otherwise, when F meets the cycle, the cuts of its
    edges outside F decide."""
    trace.count("bulk.hitting_instances")
    if counts is None:
        counts = Boundary(g, H)
    lay, cross = counts.layout, counts.cross
    shift = lay.width - 1
    # The dead cuts of each set, moved from the guard bits to the low bits
    # of their fields, where the packed crossing sets have theirs.
    dead_cuts = [(F, (lay.scope((pair,)) & counts.cut_off(F)) >> shift) for F, pair in viol]
    edges, edge_costs, path = g.edges, g.costs, tree.path
    elements = tuple([eid for eid in range(g.m) if eid not in H])
    costs = {}
    hits = {}
    for eid in elements:
        e = edges[eid]
        cycle = frozenset({eid}) | frozenset(path(e.u, e.v))
        terms = []
        whole = 0
        for x in cycle:
            terms.append(edge_costs[x])
            whole |= cross[x]
        costs[eid] = sum(terms)
        hit = []
        for si, (F, dead) in enumerate(dead_cuts):
            if dead & ~whole:
                continue
            if not F.isdisjoint(cycle):
                alive = 0
                for x in cycle:
                    if x not in F:
                        alive |= cross[x]
                if dead & ~alive:
                    continue
            hit.append(si)
        hits[eid] = frozenset(hit)
    keys = tuple((tuple(sorted(F)), pair) for F, pair in viol)
    return HittingInstance(keys, elements, costs, hits)


def greedy_hitting_set(inst: HittingInstance) -> list[int]:
    """Classic greedy: max newly-hit-per-cost, ties to the smallest element.

    Ratios compare exactly, by integer cross-multiplication with each
    cost's integer ratio, so runs are reproducible bit for bit."""
    ratio = {eid: inst.costs[eid].as_integer_ratio() for eid in inst.elements}
    uncovered = set(range(len(inst.set_keys)))
    picks: list[int] = []
    while uncovered:
        best = None  # (newly, cost numerator, cost denominator, eid)
        for eid in inst.elements:
            newly = len(inst.hits[eid] & uncovered)
            if newly == 0:
                continue
            num, den = ratio[eid]
            if best is not None:
                b_new, b_num, b_den, b_eid = best
                # newly / cost > b_new / b_cost, exactly: both sides times
                # the positive den * b_den.
                lhs = newly * b_num * den
                rhs = b_new * num * b_den
                if not (lhs > rhs or (lhs == rhs and eid < b_eid)):
                    continue
            best = (newly, num, den, eid)
        if best is None:
            si = min(uncovered)
            raise Unhittable(
                f"set {inst.set_keys[si]} cannot be hit by any element",
                witness=inst.set_keys[si],
            )
        picks.append(best[3])
        uncovered -= inst.hits[best[3]]
    return picks


# -- one augmentation level --------------------------------------------------------

def _tree_seed(seed: int, level: int, t: int) -> int:
    return (seed * 1_000_003 + level * 1_009 + t) & 0x7FFFFFFF


def _best_of_trees(
    g: FaultGraph,
    H_prev: frozenset,
    pairs: Sequence[tuple[int, int]],
    violating: Callable[[frozenset, Boundary | None], list],
    level: int,
    seed: int,
) -> frozenset:
    """Cheapest of ``TREES`` sampled-tree augmentations of H_prev.

    Each try buys the tree paths of ``pairs``, builds the hitting instance
    over ``violating(H, counts)``, the violating (failure, pair) tuples left
    in the result H given H's Boundary, and unions the greedy picks'
    fundamental cycles.  A tree whose instance is unhittable is skipped;
    when every tree is, InfeasibleAugmentation is raised from the last
    Unhittable.

    The level then closes on ``violating``: InfeasibleAugmentation is
    raised if the kept candidate has a violating set, read from the memo
    below or, when no tree's H is the candidate, asked once.

    Four shortcuts leave the result unchanged.  A tree whose edge set
    (``frozenset(tree.parent_edge)``) an earlier tree of this call had is
    passed over: the loop reads a tree only through ``tree.path``, and
    the unique u-v tree path, in walk order from u, is fixed by the edge
    set whatever the root.  So the repeat would build its twin's H in
    the same insertion order, the same hitting instance, picks and
    candidate, and a candidate cost with the same bits, which cannot be
    below best - 1e-12 since best only falls; and it would be skipped, or
    unhittable, exactly as its twin was, so the twin's Unhittable stands
    as the last one when no tree succeeds.  No tree is drawn once the
    kept cost is at most 1e-12: a candidate's cost is a float sum of
    ``g.costs`` terms >= 0, so it is >= 0, and only a cost below
    best - 1e-12 replaces the kept one.  A tree is not evaluated when a
    best is kept and its paths alone, H - H_prev, cost more than
    best * (1 + 1e-9): costs are >= 0 and each candidate of the tree holds
    H, and a float sum of k <= m terms >= 0 lies within relative k * 2^-53
    of its exact value in any order, so the candidate's float cost is still
    >= best.  That sum runs over the tree's path edges outside H_prev, so
    H is not built for a skipped tree.  Without a kept best no tree is
    skipped or stops the level, so the unhittable path is as before.  And
    each distinct H is evaluated once: its Boundary and violating sets are
    kept for the loop, and a later tree with the same H reuses them (the
    hitting instance still depends on the tree).

    The repeats and the trees that the cost test skips are reported once
    per call, as ``bulk.trees_repeated`` and ``bulk.trees_skipped``.
    """
    trace.count("bulk.levels")
    costs = g.costs
    best = None
    unhittable = None
    seen: dict[frozenset, tuple[Boundary, list]] = {}
    # Each drawn tree's edge set, with the Unhittable its instance raised.
    drawn: dict[frozenset, Unhittable | None] = {}
    repeated = skipped = 0
    for t in range(TREES):
        tree = sample_tree(g, seed=_tree_seed(seed, level, t))
        edge_set = frozenset(tree.parent_edge)
        if edge_set in drawn:
            repeated += 1
            if drawn[edge_set] is not None:
                unhittable = drawn[edge_set]
            continue
        drawn[edge_set] = None
        H_P: set[int] = set()
        for u, v in pairs:
            H_P.update(tree.path(u, v))
        if best is not None and sum(costs[e] for e in H_P if e not in H_prev) > best[0] * (1 + 1e-9):
            skipped += 1
            continue
        H = H_prev | H_P
        if H not in seen:
            counts = Boundary(g, H)
            seen[H] = (counts, violating(H, counts))
        counts, viol = seen[H]
        added: set[int] = set()
        if viol:
            inst = build_hitting_instance(g, H, tree, viol, counts)
            try:
                picks = greedy_hitting_set(inst)
            except Unhittable as exc:
                unhittable = drawn[edge_set] = exc
                continue
            for eid in picks:
                e = g.edges[eid]
                added.add(eid)
                added.update(tree.path(e.u, e.v))
        candidate = H | added
        cost = g.total_cost(candidate - H_prev)
        if best is None or cost < best[0] - 1e-12:
            best = (cost, candidate)
            if cost <= 1e-12:
                break
    trace.count("bulk.trees_repeated", repeated)
    trace.count("bulk.trees_skipped", skipped)
    if best is None:
        raise InfeasibleAugmentation(
            f"level {level}: every tree failed, last with {unhittable}"
        ) from unhittable
    candidate = best[1]
    leftover = seen[candidate][1] if candidate in seen else violating(candidate, None)
    if leftover:
        raise InfeasibleAugmentation(
            f"level {level}: cover left {len(leftover)} violating sets"
        )
    return candidate


def augment_bulk(
    g: FaultGraph,
    scenarios: Sequence[BulkScenario],
    H_prev: Iterable[int],
    level: int,
    seed: int = 0,
) -> frozenset:
    """Lift a solution from level-1 to level (all sub-failures of that size).

    The cheapest of ``TREES`` tree augmentations over the scenario pairs,
    hitting the violating (failure, pair) tuples of this level.  A failure
    set can break every fundamental cycle of one tree and not of another,
    so a tree whose hitting instance is unhittable is skipped.

    H_prev must survive every sub-failure of size < level, or
    PriorLevelNotSatisfied is raised.  It is checked once: every tree's H
    contains H_prev, so it survives them too, and that is what the level
    oracle needs to read each violating set off a cut's H-boundary.  The
    check and the oracle run on the cut kernel, with no union-find call
    and no listing of sub-failures; ``_best_of_trees`` closes the level on
    the oracle.
    """
    H_prev = frozenset(H_prev)
    _check_prior_levels(g, scenarios, H_prev, level)
    pairs = sorted({pr for sc in scenarios for pr in sc.pairs})
    return _best_of_trees(
        g, H_prev, pairs, _violations_of_level(g, scenarios, level), level, seed
    )


def solve_bulk_sndp(
    g: FaultGraph,
    scenarios: Sequence[BulkScenario],
    seed: int = 0,
) -> frozenset:
    """Full pipeline: levels 0..width of augment_bulk from the empty set,
    oracle-verified.  No level lists sub-failures, so no scenario is
    refused for their number; only the graph's cut sweep is checked
    against the budget."""
    ok, witness = is_bulk_feasible(g, scenarios, g.all_edge_ids())
    if not ok:
        raise InfeasibleInstance(f"graph cannot satisfy scenario {witness}")
    H: frozenset = frozenset()
    for level in range(max((len(sc.fail) for sc in scenarios), default=0) + 1):
        H = augment_bulk(g, scenarios, H, level, seed=seed)
    ok, witness = is_bulk_feasible(g, scenarios, H)
    if not ok:
        raise InfeasibleAugmentation(f"final solution fails scenario {witness}")
    return H


# -- flexible and relative drivers ---------------------------------------------------

def _flex_violating_sets(
    g: FaultGraph,
    H: frozenset,
    reqs: Sequence[FlexRequirement],
    round_index: int,
    bound: Boundary | None = None,
) -> list[tuple[frozenset, tuple[int, int]]]:
    """Minimal violating (F, pair) sets for the round's active pairs;
    ``bound`` is H's Boundary when the caller already has it.

    With H feasible at (p_i, round-1), a minimal violating F for pair i is,
    by Menger, exactly the H-boundary of an s-t cut with p_i + round - 1
    edges of H, fewer than p_i of them safe: a tight cut of the kernel.
    """
    if bound is None:
        bound = Boundary(g, H)
    tight = [
        ((r.s, r.t), separating(g.n, r.s, r.t) & bound.tight(r.p, round_index))
        for r in reqs
        if r.q >= round_index
    ]
    return _cut_boundaries(g, H, tight)


def solve_flex_sndp(
    g: FaultGraph,
    reqs: Sequence[FlexRequirement],
    seed: int = 0,
) -> frozenset:
    """Heterogeneous flexible SNDP: ``flex_base`` at (p_i, 0), then one
    cut-cover round per unsafe-failure level with per-pair activation.

    Each round closes on ``_flex_violating_sets``, whose answer is right
    for an H that is (p_i, round - 1)-feasible: the base for round 1, the
    previous round's output after.  ``is_flex_feasible`` on the answer is
    the check of record."""
    reqs = tuple(reqs)
    ok, witness = is_flex_feasible(g, reqs, g.all_edge_ids())
    if not ok:
        raise InfeasibleInstance(f"graph cannot satisfy {witness}")
    H = flex_base(g, tuple(FlexRequirement(r.s, r.t, r.p, 0) for r in reqs))
    for round_index in range(1, max(r.q for r in reqs) + 1):
        active = [(r.s, r.t) for r in reqs if r.q >= round_index]
        H = _best_of_trees(
            g,
            H,
            active,
            # The default binds this round: a late-binding closure would read
            # the round the loop is at when it is called.
            lambda H_work, counts, round_index=round_index: _flex_violating_sets(
                g, H_work, reqs, round_index, counts
            ),
            round_index,
            seed,
        )
    ok, witness = is_flex_feasible(g, reqs, H)
    if not ok:
        raise InfeasibleAugmentation(f"final solution fails {witness}")
    return H


def _hops(g: FaultGraph, s: int) -> list[int]:
    """BFS edge counts of the shortest paths from s on g's neighbour
    table; -1 where g does not reach."""
    neighbours = _neighbour_table(g)
    dist = [-1] * g.n
    dist[s] = 0
    frontier = [s]
    while frontier:
        nxt = []
        for x in frontier:
            for y, _eid in neighbours[x]:
                if dist[y] < 0:
                    dist[y] = dist[x] + 1
                    nxt.append(y)
        frontier = nxt
    return dist


def solve_rsndp(
    g: FaultGraph,
    reqs: Sequence[RelativeRequirement],
    seed: int = 0,
) -> frozenset:
    """Relative SNDP on its own cut oracle, oracle-verified.

    The pairs that G connects get tree paths, and level L closes on
    ``_relative_violations`` at L, whose answer is right for an H that
    closed every level below.  G - F connects a pair exactly when F misses
    one of its paths, so the largest such F has m - hops(s, t) edges, and
    the levels run to the largest min(r - 1, m - hops(s, t)).  No level,
    nor ``is_rsndp_feasible`` on the answer, the check of record, lists
    failure sets.
    """
    reqs = tuple(reqs)
    whole = Boundary(g, g.all_edge_ids())
    hops: dict[int, list[int]] = {}
    connected = set()
    width = 0
    for r in reqs:
        if r.s not in hops:
            hops[r.s] = _hops(g, r.s)
        h = hops[r.s][r.t]
        if h >= 0:
            connected.add((r.s, r.t))
            width = max(width, min(r.r - 1, g.m - h))
    if not connected:
        return frozenset()
    pairs = sorted(connected)
    H: frozenset = frozenset()
    for level in range(width + 1):
        H = _best_of_trees(g, H, pairs, _relative_violations(g, reqs, level, whole), level, seed)
    ok, witness = is_rsndp_feasible(g, reqs, H)
    if not ok:
        raise InfeasibleAugmentation(f"final solution fails {witness}")
    return H
