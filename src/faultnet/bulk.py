"""Bulk-robust network design via tree paths and greedy hitting sets.

Level-by-level augmentation: to satisfy all sub-failures of size `level`,
sample a spanning tree, buy the tree paths of every terminal pair, then hit
each remaining violating (failure set, pair) with a fundamental cycle
{e} + tree path of e, chosen by the greedy hitting-set rule.  Several trees
are tried per level and the cheapest feasible outcome kept.

The flexible and relative drivers reduce to this machinery through scenario
expansion; the flexible driver additionally seeds with an exact base at the
(p_i, 0) level and activates pairs round by round, honoring heterogeneous
(p_i, q_i) requirements.
"""

from __future__ import annotations

import heapq
import itertools
import logging
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Iterable, Sequence

from .cover import ecsndp_base
from .errors import (
    Disconnected,
    InfeasibleAugmentation,
    InfeasibleInstance,
    Unhittable,
)
from .exact import exact_budget, exact_solve
from .graph import FaultGraph, same_component
from .oracles import (
    BulkScenario,
    FlexRequirement,
    Problem,
    RelativeRequirement,
    expand_rsndp_to_bulk,
    fgc_requirements,
    is_bulk_feasible,
    is_flex_feasible,
    is_rsndp_feasible,
    violating_edge_sets_bulk,
)

log = logging.getLogger(__name__)

DEFAULT_TREES = 8


# -- spanning tree embeddings ---------------------------------------------------

@dataclass(frozen=True)
class TreeEmbedding:
    """A spanning tree with path lookup and measured empirical stretch."""

    root: int
    parent_vertex: tuple[int, ...]
    parent_edge: tuple[int, ...]
    depth: tuple[int, ...]
    tree_edges: frozenset
    max_stretch: float
    mean_stretch: float

    def path(self, u: int, v: int) -> tuple[int, ...]:
        """Edge ids of the unique tree path between u and v."""
        up, vp = u, v
        du, dv = self.depth[u], self.depth[v]
        left, right = [], []
        while du > dv:
            left.append(self.parent_edge[up])
            up = self.parent_vertex[up]
            du -= 1
        while dv > du:
            right.append(self.parent_edge[vp])
            vp = self.parent_vertex[vp]
            dv -= 1
        while up != vp:
            left.append(self.parent_edge[up])
            right.append(self.parent_edge[vp])
            up = self.parent_vertex[up]
            vp = self.parent_vertex[vp]
        return tuple(left + right[::-1])


def _dijkstra(g: FaultGraph, weights: Sequence[float], root: int):
    INF = float("inf")
    dist = [INF] * g.n
    parent_v = [-1] * g.n
    parent_e = [-1] * g.n
    dist[root] = 0.0
    heap = [(0.0, root)]
    done = [False] * g.n
    while heap:
        d, x = heapq.heappop(heap)
        if done[x]:
            continue
        done[x] = True
        for eid in g.incident(x):
            e = g.edges[eid]
            y = e.v if x == e.u else e.u
            nd = d + weights[eid]
            if nd < dist[y] - 1e-15:
                dist[y] = nd
                parent_v[y] = x
                parent_e[y] = eid
                heapq.heappush(heap, (nd, y))
    return dist, parent_v, parent_e


def sample_tree(g: FaultGraph, costs: Sequence[float] | None = None, seed: int = 0) -> TreeEmbedding:
    """Random low-ish-stretch spanning tree, deterministic per seed.

    Edge costs get a multiplicative log-uniform [1, 2] perturbation, then a
    shortest-path tree is grown from a random root.  Stretch is measured
    against true shortest-path distances over all vertex pairs; downstream
    correctness never depends on it, only expected cost does.
    """
    if costs is None:
        costs = [e.cost for e in g.edges]
    rng = Random(seed)
    weights = [c * (2.0 ** rng.random()) for c in costs]
    root = rng.randrange(g.n)
    dist, parent_v, parent_e = _dijkstra(g, weights, root)
    if any(d == float("inf") for d in dist):
        raise Disconnected("graph is not connected")
    depth = [0] * g.n
    order = sorted(range(g.n), key=lambda v: dist[v])
    for v in order:
        if v != root:
            depth[v] = depth[parent_v[v]] + 1
    tree_edges = frozenset(parent_e[v] for v in range(g.n) if v != root)
    # Empirical stretch against the unperturbed metric.
    tree_cost_to_root = [0.0] * g.n
    for v in order:
        if v != root:
            tree_cost_to_root[v] = (
                tree_cost_to_root[parent_v[v]] + costs[parent_e[v]]
            )
    emb = TreeEmbedding(
        root=root,
        parent_vertex=tuple(parent_v),
        parent_edge=tuple(parent_e),
        depth=tuple(depth),
        tree_edges=tree_edges,
        max_stretch=1.0,
        mean_stretch=1.0,
    )
    ratios = []
    for u in range(g.n):
        d_g, _pv, _pe = _dijkstra(g, costs, u)
        for v in range(u + 1, g.n):
            d_t = sum(costs[eid] for eid in emb.path(u, v))
            if d_g[v] > 0:
                ratios.append(d_t / d_g[v])
    max_s = max(ratios) if ratios else 1.0
    mean_s = sum(ratios) / len(ratios) if ratios else 1.0
    return TreeEmbedding(
        root=emb.root,
        parent_vertex=emb.parent_vertex,
        parent_edge=emb.parent_edge,
        depth=emb.depth,
        tree_edges=emb.tree_edges,
        max_stretch=max_s,
        mean_stretch=mean_s,
    )


# -- hitting set ------------------------------------------------------------------

@dataclass(frozen=True)
class HittingInstance:
    """Sets = violating (failure, pair) tuples; elements = candidate edges.

    An element e hits a set when the fundamental cycle {e} + tree path of e
    reconnects the pair after the failure; its cost is the cycle cost."""

    set_keys: tuple
    elements: tuple[int, ...]
    costs: dict
    hits: dict  # element id -> frozenset of set indices


def build_hitting_instance(
    g: FaultGraph,
    H: frozenset,
    tree: TreeEmbedding,
    viol: Sequence[tuple[frozenset, tuple[int, int]]],
) -> HittingInstance:
    elements = tuple(sorted(g.all_edge_ids() - H))
    costs = {}
    hits = {}
    for eid in elements:
        e = g.edges[eid]
        cycle = frozenset({eid}) | frozenset(tree.path(e.u, e.v))
        costs[eid] = g.total_cost(cycle)
        hit = []
        for si, (F, (u, v)) in enumerate(viol):
            if same_component(g, (H | cycle) - F, u, v):
                hit.append(si)
        hits[eid] = frozenset(hit)
    keys = tuple((tuple(sorted(F)), pair) for F, pair in viol)
    return HittingInstance(keys, elements, costs, hits)


def greedy_hitting_set(inst: HittingInstance) -> list[int]:
    """Classic greedy: max newly-hit-per-cost, ties to the smallest element.

    Ratios compare exactly (rational cross-multiplication), so runs are
    reproducible bit for bit."""
    uncovered = set(range(len(inst.set_keys)))
    picks: list[int] = []
    while uncovered:
        best = None  # (newly, cost, eid)
        for eid in inst.elements:
            newly = len(inst.hits[eid] & uncovered)
            if newly == 0:
                continue
            if best is None:
                best = (newly, inst.costs[eid], eid)
                continue
            b_new, b_cost, b_eid = best
            # newly / cost > b_new / b_cost, exactly.
            lhs = Fraction(newly) * Fraction(b_cost)
            rhs = Fraction(b_new) * Fraction(inst.costs[eid])
            if lhs > rhs or (lhs == rhs and eid < b_eid):
                best = (newly, inst.costs[eid], eid)
        if best is None:
            si = min(uncovered)
            raise Unhittable(
                f"set {inst.set_keys[si]} cannot be hit by any element",
                witness=inst.set_keys[si],
            )
        picks.append(best[2])
        uncovered -= inst.hits[best[2]]
    return picks


# -- one augmentation level --------------------------------------------------------

@dataclass
class LevelStats:
    level: int
    tree_index: int
    tree_cost_added: float
    cycle_cost_added: float
    violating_sets: int
    max_stretch: float


def _tree_seed(seed: int, level: int, t: int) -> int:
    return (seed * 1_000_003 + level * 1_009 + t) & 0x7FFFFFFF


def augment_bulk(
    g: FaultGraph,
    scenarios: Sequence[BulkScenario],
    H_prev: Iterable[int],
    level: int,
    seed: int = 0,
    trees: int = DEFAULT_TREES,
    stats_out: list | None = None,
) -> frozenset:
    """Lift a solution from level-1 to level (all sub-failures of that size).

    Tries ``trees`` sampled trees and keeps the cheapest feasible outcome;
    each try buys the terminal tree paths, builds the hitting instance over
    the violating (failure, pair) tuples, and unions the greedy picks'
    fundamental cycles.  Unhittable sets mean the instance itself cannot be
    augmented at this width (hittability does not depend on the tree).
    """
    H_prev = frozenset(H_prev)
    pairs = sorted({pr for sc in scenarios for pr in sc.pairs})
    best = None
    for t in range(max(1, trees)):
        tree = sample_tree(g, seed=_tree_seed(seed, level, t))
        H_P: set[int] = set()
        for u, v in pairs:
            H_P.update(tree.path(u, v))
        H = H_prev | H_P
        viol = violating_edge_sets_bulk(g, scenarios, H, level)
        added_cycles: set[int] = set()
        if viol:
            inst = build_hitting_instance(g, H, tree, viol)
            try:
                picks = greedy_hitting_set(inst)
            except Unhittable as exc:
                raise InfeasibleAugmentation(
                    f"level {level}: {exc}"
                ) from exc
            for eid in picks:
                e = g.edges[eid]
                added_cycles.add(eid)
                added_cycles.update(tree.path(e.u, e.v))
        candidate = H | added_cycles
        leftover = violating_edge_sets_bulk(g, scenarios, candidate, level)
        if leftover:
            raise InfeasibleAugmentation(
                f"level {level}: cover left {len(leftover)} violating sets"
            )
        cost = g.total_cost(candidate - H_prev)
        entry = (cost, t, candidate, tree, len(viol), g.total_cost(frozenset(H_P) - H_prev))
        if best is None or entry[0] < best[0] - 1e-12:
            best = entry
    cost, t, candidate, tree, nviol, hp_cost = best
    if stats_out is not None:
        stats_out.append(
            LevelStats(
                level=level,
                tree_index=t,
                tree_cost_added=hp_cost,
                cycle_cost_added=cost - hp_cost,
                violating_sets=nviol,
                max_stretch=tree.max_stretch,
            )
        )
    log.debug(
        "bulk level %d: tree %d, +%d violating sets, added cost %.6g",
        level,
        t,
        nviol,
        cost,
    )
    return candidate


def bulk_width(scenarios: Sequence[BulkScenario]) -> int:
    return max((len(sc.fail) for sc in scenarios), default=0)


def solve_bulk_sndp(
    g: FaultGraph,
    scenarios: Sequence[BulkScenario],
    seed: int = 0,
    trees: int = DEFAULT_TREES,
    stats_out: list | None = None,
) -> frozenset:
    """Full pipeline: levels 0..width of augment_bulk, oracle-verified."""
    ok, witness = is_bulk_feasible(g, scenarios, g.all_edge_ids())
    if not ok:
        raise InfeasibleInstance(f"graph cannot satisfy scenario {witness}")
    H: frozenset = frozenset()
    for level in range(bulk_width(scenarios) + 1):
        H = augment_bulk(
            g, scenarios, H, level, seed=seed, trees=trees, stats_out=stats_out
        )
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
) -> list[tuple[frozenset, tuple[int, int]]]:
    """Minimal violating (F, pair) sets for the round's active pairs.

    With H feasible at (p_i, round-1), every minimal violating F for pair i
    lies inside H, has exactly p_i + round - 1 edges, and at most p_i - 1
    safe ones; enumeration is restricted accordingly.
    """
    out = set()
    H_sorted = sorted(H)
    for r in reqs:
        if r.q < round_index:
            continue
        size = r.p + round_index - 1
        for combo in itertools.combinations(H_sorted, size):
            F = frozenset(combo)
            if len(F & g.safe_ids) > r.p - 1:
                continue
            if not same_component(g, H - F, r.s, r.t):
                out.add((F, (r.s, r.t)))
    return sorted(out, key=lambda fp: (sorted(fp[0]), fp[1]))


def solve_flex_sndp(
    g: FaultGraph,
    reqs: Sequence[FlexRequirement],
    seed: int = 0,
    trees: int = DEFAULT_TREES,
    stats_out: list | None = None,
) -> frozenset:
    """Heterogeneous flexible SNDP: exact base at (p_i, 0), then one
    cut-cover round per unsafe-failure level with per-pair activation."""
    reqs = tuple(reqs)
    ok, witness = is_flex_feasible(g, reqs, g.all_edge_ids())
    if not ok:
        raise InfeasibleInstance(f"graph cannot satisfy {witness}")
    base_reqs = tuple(FlexRequirement(r.s, r.t, r.p, 0) for r in reqs)
    if g.m <= exact_budget():
        H, _cost = exact_solve(g, Problem("flex", flex=base_reqs))
    else:
        H = ecsndp_base(g, base_reqs)
    max_q = max(r.q for r in reqs)
    for round_index in range(1, max_q + 1):
        active = [(r.s, r.t) for r in reqs if r.q >= round_index]
        if not active:
            break
        best = None
        unhittable = None
        for t in range(max(1, trees)):
            tree = sample_tree(g, seed=_tree_seed(seed, round_index, t))
            H_P: set[int] = set()
            for u, v in active:
                H_P.update(tree.path(u, v))
            H_work = H | H_P
            viol = _flex_violating_sets(g, H_work, reqs, round_index)
            added: set[int] = set()
            if viol:
                inst = build_hitting_instance(g, H_work, tree, viol)
                try:
                    picks = greedy_hitting_set(inst)
                except Unhittable as exc:
                    # Hittability depends on the tree here, since the tree
                    # paths join H_work: another tree may still succeed.
                    unhittable = exc
                    continue
                for eid in picks:
                    e = g.edges[eid]
                    added.add(eid)
                    added.update(tree.path(e.u, e.v))
            candidate = H_work | added
            cost = g.total_cost(candidate - H)
            entry = (cost, t, candidate, len(viol), g.total_cost(frozenset(H_P) - H))
            if best is None or entry[0] < best[0] - 1e-12:
                best = entry
        if best is None:
            raise InfeasibleAugmentation(
                f"round {round_index}: every tree failed, last with {unhittable}"
            ) from unhittable
        cost, t, H_new, nviol, hp_cost = best
        round_reqs = tuple(
            FlexRequirement(r.s, r.t, r.p, min(r.q, round_index)) for r in reqs
        )
        ok, witness = is_flex_feasible(g, round_reqs, H_new)
        if not ok:
            raise InfeasibleAugmentation(
                f"round {round_index} output fails {witness}"
            )
        if stats_out is not None:
            stats_out.append(
                LevelStats(
                    level=round_index,
                    tree_index=t,
                    tree_cost_added=hp_cost,
                    cycle_cost_added=cost - hp_cost,
                    violating_sets=nviol,
                    max_stretch=0.0,
                )
            )
        H = H_new
    ok, witness = is_flex_feasible(g, reqs, H)
    if not ok:
        raise InfeasibleAugmentation(f"final solution fails {witness}")
    return H


def solve_rsndp(
    g: FaultGraph,
    reqs: Sequence[RelativeRequirement],
    seed: int = 0,
    trees: int = DEFAULT_TREES,
    stats_out: list | None = None,
) -> frozenset:
    """Relative SNDP through scenario expansion, oracle-verified."""
    scenarios = expand_rsndp_to_bulk(g, reqs)
    if not scenarios:
        return frozenset()
    H = solve_bulk_sndp(g, scenarios, seed=seed, trees=trees, stats_out=stats_out)
    ok, witness = is_rsndp_feasible(g, reqs, H)
    if not ok:
        raise InfeasibleAugmentation(f"final solution fails {witness}")
    return H
