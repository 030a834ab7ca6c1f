"""Independent brute-force oracles the tests check the library against.

Everything here is deliberately definitional: exhaustive enumeration over
cuts, failure subsets, or path sets.  None of it shares code paths with the
implementations under test; ``list_primal_dual_cover`` keeps the cover
engine's earlier member-list form as its reference, ``two_phase_lp`` keeps
the cold two-phase primal simplex as the reference for the package's dual
simplex, and ``max_flow_min_cut`` is an Edmonds-Karp max flow that shares
only the capacity check and the augmenting step with ``min_cost_flow``.
``membership_ciq`` is the definition of a path-indexed ring family, cut by
cut, that the single-pair solvers' path grouping must reproduce.
``plain_best_of_trees`` keeps the bulk driver's best-of-trees loop as it was
before it skipped trees and memoised edge sets: every tree evaluated, every
H's violations recomputed.  ``union_find_violating_edge_sets_bulk``,
``union_find_check_prior_levels`` and ``union_find_level_violations`` are
the bulk level question answered by listing every sub-failure, with one
union-find each: the reference for the package's precondition and level
oracle, which read violating sets off cut boundaries.  The reference
precondition lists every smaller size.  ``union_find_level_violations``
answers for every H, the package's oracle only for an H that meets the
precondition, so the tests compare the two only there.
``expansion_solve_rsndp`` keeps the relative driver's scenario-expansion
form as the reference for ``solve_rsndp``, which runs on its own cut
oracle.  ``row_at_a_time_pivot`` is the elimination that the dual simplex's
pivot claims to match bit for bit, and ``two_phase_lp`` pivots with it;
``numpy_basic_x`` is the numpy form of ``DualReoptimizer.x``, kept as its
bitwise reference.  The last section keeps the package members that only
tests called, with the same behaviour: ``expand_flex_to_bulk`` lists the
scenarios of the flex-to-bulk reduction that ``solve_flex_sndp`` carries
out without listing any, ``solve_lp`` adds a model's rows at once to a
fresh dual simplex, ``degree_repair`` is the exact search's degree-table
rule that ``_Packing.refresh`` must match bit for bit, and
``boundary_counts``, ``layout_count``, ``tree_edges``, ``unsafe_ids`` and
``safety`` read one cut's counts, a tree's edges and edge labels.
"""

from __future__ import annotations

import itertools
from collections import Counter, deque
from fractions import Fraction
from random import Random
from typing import Iterable, Sequence

import numpy as np

from faultnet import bulk, simplex
from faultnet.bulk import HittingInstance
from faultnet.cover import CoverResult
from faultnet.cuts import Boundary, crossed, cut_index
from faultnet.errors import (
    InfeasibleAugmentation,
    LpInfeasible,
    LpUnbounded,
    PriorLevelNotSatisfied,
    SourceEqualsSink,
    Uncoverable,
    Unhittable,
)
from faultnet.flow import Flow, _augment, _normalize_caps
from faultnet.graph import (
    SAFE,
    UNSAFE,
    FaultGraph,
    VertexCut,
    boundary,
    failure_sets,
    same_component,
)
from faultnet.lp import ROW_TOL, FractionalSolution, LinearProgramModel, LpRow
from faultnet.oracles import (
    BulkScenario,
    FlexRequirement,
    _connected_pairs_ok,
    expand_rsndp_to_bulk,
    is_rsndp_feasible,
    violated_cuts_flex_aug,
)


def brute_min_cut(g: FaultGraph, caps, s: int, t: int) -> int:
    """Minimum s-t cut capacity by sweeping all 2^(n-2) s-side cuts."""
    if isinstance(caps, int):
        caps = [caps] * g.m
    rest = [v for v in range(g.n) if v not in (s, t)]
    best = None
    for sub in range(1 << len(rest)):
        mask = 1 << s
        for i, v in enumerate(rest):
            if (sub >> i) & 1:
                mask |= 1 << v
        value = sum(
            caps[e.id] for e in g.edges if ((mask >> e.u) ^ (mask >> e.v)) & 1
        )
        best = value if best is None else min(best, value)
    return best


def max_flow_min_cut(g: FaultGraph, cap, s: int, t: int) -> tuple[int, Flow, VertexCut]:
    """Edmonds-Karp max flow with the residual-reachable minimum cut.

    Returns (value, flow, cut) where ``cut`` is the s-side of a minimum
    capacity cut.  Capacities must be non-negative integers (scalar or
    per-edge); the returned flow is integral.
    """
    if s == t:
        raise SourceEqualsSink(f"source {s} equals sink {t}")
    caps = _normalize_caps(g, cap)
    flow = [0] * g.m
    edges = g.edges
    value = 0
    while True:
        # BFS in the residual network; arcs scanned in edge-id order.
        parent: list[tuple[int, int] | None] = [None] * g.n
        parent[s] = (-1, s)
        queue = deque([s])
        while queue and parent[t] is None:
            x = queue.popleft()
            for eid in g.incident(x):
                e = edges[eid]
                y = e.v if x == e.u else e.u
                if parent[y] is not None:
                    continue
                residual = caps[eid] - flow[eid] if x == e.u else caps[eid] + flow[eid]
                if residual > 0:
                    parent[y] = (eid, x)
                    queue.append(y)
        if parent[t] is None:
            break
        value += _augment(g, caps, flow, parent, s, t, float("inf"))
    # Min cut: vertices reachable from s in the final residual network.
    reach = 1 << s
    queue = deque([s])
    seen = [False] * g.n
    seen[s] = True
    while queue:
        x = queue.popleft()
        for eid in g.incident(x):
            e = edges[eid]
            y = e.v if x == e.u else e.u
            if seen[y]:
                continue
            residual = caps[eid] - flow[eid] if x == e.u else caps[eid] + flow[eid]
            if residual > 0:
                seen[y] = True
                reach |= 1 << y
                queue.append(y)
    return value, Flow(s, t, value, tuple(flow)), VertexCut(g.n, reach)


def brute_connected(g: FaultGraph, edges, u: int, v: int) -> bool:
    """Reachability by naive closure over the surviving edge list."""
    reach = {u}
    changed = True
    while changed:
        changed = False
        for eid in edges:
            e = g.edges[eid]
            if e.u in reach and e.v not in reach:
                reach.add(e.v)
                changed = True
            elif e.v in reach and e.u not in reach:
                reach.add(e.u)
                changed = True
    return v in reach


def brute_flex_feasible(g: FaultGraph, reqs, H) -> bool:
    """Double brute force: every unsafe failure subset x every cut."""
    H = frozenset(H)
    unsafe_in_H = sorted(H & unsafe_ids(g))
    for req in reqs:
        for size in range(req.q + 1):
            for B in itertools.combinations(unsafe_in_H, size):
                alive = H - frozenset(B)
                # p-edge-connectivity via all-cuts sweep.
                rest = [v for v in range(g.n) if v not in (req.s, req.t)]
                for sub in range(1 << len(rest)):
                    mask = 1 << req.s
                    for i, v in enumerate(rest):
                        if (sub >> i) & 1:
                            mask |= 1 << v
                    crossing = sum(
                        1
                        for eid in alive
                        if ((mask >> g.edges[eid].u) ^ (mask >> g.edges[eid].v)) & 1
                    )
                    if crossing < req.p:
                        return False
    return True


def global_flex_oracle(g: FaultGraph, p: int, q: int):
    """Feasibility test for all-pairs (p, q) requirements: every vertex cut
    keeps p edges after any q unsafe failures, that is, has p safe or p+q
    crossing edges.  Each cut's crossing edges are an edge-id bitmask, so a
    test costs two popcounts per cut."""
    cuts = []
    for mask in range(1, 1 << (g.n - 1)):
        ids = _crossing_ids(g, range(g.m), mask)
        cuts.append(
            (sum(1 << eid for eid in ids), sum(1 << eid for eid in ids if g.edges[eid].safe))
        )

    def feasible(H) -> bool:
        bits = sum(1 << eid for eid in H)
        return all(
            (bits & safe).bit_count() >= p or (bits & cross).bit_count() >= p + q
            for cross, safe in cuts
        )

    return feasible


def brute_rsndp_feasible(g: FaultGraph, reqs, H) -> bool:
    """Straight from the definition: all F with |F| < r_i."""
    H = frozenset(H)
    all_ids = sorted(g.all_edge_ids())
    max_r = max(r.r for r in reqs)
    for size in range(max_r):
        for F in itertools.combinations(all_ids, size):
            F = frozenset(F)
            for req in reqs:
                if req.r <= size:
                    continue
                in_g = brute_connected(g, g.all_edge_ids() - F, req.s, req.t)
                in_h = brute_connected(g, H - F, req.s, req.t)
                if in_g and not in_h:
                    return False
    return True


def union_find_expand_rsndp(g: FaultGraph, reqs) -> tuple:
    """``expand_rsndp_to_bulk`` with one union-find per (F, requirement):
    for each F with |F| < max r_i, the pairs with r_i > |F| that G - F
    still connects."""
    all_ids = sorted(g.all_edge_ids())
    out = []
    for size in range(max(r.r for r in reqs)):
        for combo in itertools.combinations(all_ids, size):
            F = frozenset(combo)
            alive = g.all_edge_ids() - F
            pairs = [
                (r.s, r.t)
                for r in reqs
                if r.r > size and same_component(g, alive, r.s, r.t)
            ]
            if pairs:
                out.append(BulkScenario(F, tuple(sorted(set(pairs)))))
    return tuple(out)


def union_find_violating_edge_sets_bulk(
    g: FaultGraph,
    scenarios: Sequence[BulkScenario],
    H: Iterable[int],
    level: int,
) -> list[tuple[frozenset, tuple[int, int]]]:
    """All (F, pair) with F inside some scenario, |F| = level, pair cut off.

    Requires H to satisfy every sub-scenario of size < level; that makes
    each returned F minimal (no proper subset disconnects the pair).
    Results are deduplicated and sorted for reproducibility.
    """
    H = frozenset(H)
    union_find_check_prior_levels(g, scenarios, H, level)
    return union_find_level_violations(g, scenarios, H, level)


def union_find_check_prior_levels(
    g: FaultGraph, scenarios: Sequence[BulkScenario], H: frozenset, level: int
) -> None:
    """Raise PriorLevelNotSatisfied unless every pair of every scenario
    survives each of its sub-failures of size < level in H.  A superset of
    H passes whenever H does."""
    for j, sc in enumerate(scenarios):
        fail = sorted(sc.fail)
        for size in range(min(level, len(fail) + 1)):
            for combo in itertools.combinations(fail, size):
                broken = _connected_pairs_ok(g, H - frozenset(combo), sc.pairs)
                if broken:
                    raise PriorLevelNotSatisfied(
                        f"scenario {j}: pair {broken[0]} cut by sub-failure {combo}"
                    )


def union_find_level_violations(
    g: FaultGraph, scenarios: Sequence[BulkScenario], H: frozenset, level: int
) -> list[tuple[frozenset, tuple[int, int]]]:
    """The (F, pair) tuples of ``union_find_violating_edge_sets_bulk``
    without its precondition check."""
    out = set()
    for sc in scenarios:
        fail = sorted(sc.fail)
        if len(fail) < level:
            continue
        for combo in itertools.combinations(fail, level):
            F = frozenset(combo)
            for pair in _connected_pairs_ok(g, H - F, sc.pairs):
                out.add((F, pair))
    return sorted(out, key=lambda fp: (sorted(fp[0]), fp[1]))


def union_find_hitting_instance(g: FaultGraph, H, tree, viol) -> HittingInstance:
    """``build_hitting_instance`` with one union-find per (element, set): e
    hits (F, (u, v)) when (H | cycle of e) - F connects u and v."""
    elements = tuple(sorted(g.all_edge_ids() - H))
    costs = {}
    hits = {}
    for eid in elements:
        e = g.edges[eid]
        cycle = frozenset({eid}) | frozenset(tree.path(e.u, e.v))
        costs[eid] = g.total_cost(cycle)
        hits[eid] = frozenset(
            si
            for si, (F, (u, v)) in enumerate(viol)
            if same_component(g, (H | cycle) - F, u, v)
        )
    keys = tuple((tuple(sorted(F)), pair) for F, pair in viol)
    return HittingInstance(keys, elements, costs, hits)


def fraction_greedy_hitting_set(inst: HittingInstance) -> list[int]:
    """``greedy_hitting_set`` with every ratio compared as a Fraction: max
    newly-hit-per-cost, ties to the smallest element."""
    uncovered = set(range(len(inst.set_keys)))
    picks = []
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
            lhs = Fraction(newly) * Fraction(b_cost)
            rhs = Fraction(b_new) * Fraction(inst.costs[eid])
            if lhs > rhs or (lhs == rhs and eid < b_eid):
                best = (newly, inst.costs[eid], eid)
        if best is None:
            si = min(uncovered)
            raise Unhittable(f"set {inst.set_keys[si]} cannot be hit", witness=inst.set_keys[si])
        picks.append(best[2])
        uncovered -= inst.hits[best[2]]
    return picks


def plain_best_of_trees(g: FaultGraph, H_prev, pairs, violating, level: int, seed: int):
    """``bulk._best_of_trees`` without its shortcuts: each of the ``TREES``
    trees is evaluated in full and each H's violations are recomputed, the
    kept candidate's too for the level's closing check.  The tree,
    hitting-set and greedy steps are looked up on ``faultnet.bulk`` at call
    time, so a test that patches them there patches both loops."""
    best = None
    unhittable = None
    for t in range(bulk.TREES):
        tree = bulk.sample_tree(g, seed=bulk._tree_seed(seed, level, t))
        H_P: set[int] = set()
        for u, v in pairs:
            H_P.update(tree.path(u, v))
        H = H_prev | H_P
        viol = violating(H, Boundary(g, H))
        added: set[int] = set()
        if viol:
            inst = bulk.build_hitting_instance(g, H, tree, viol)
            try:
                picks = bulk.greedy_hitting_set(inst)
            except Unhittable as exc:
                unhittable = exc
                continue
            for eid in picks:
                e = g.edges[eid]
                added.add(eid)
                added.update(tree.path(e.u, e.v))
        candidate = H | added
        cost = g.total_cost(candidate - H_prev)
        if best is None or cost < best[0] - 1e-12:
            best = (cost, candidate)
    if best is None:
        raise InfeasibleAugmentation(
            f"level {level}: every tree failed, last with {unhittable}"
        ) from unhittable
    leftover = violating(best[1], Boundary(g, best[1]))
    if leftover:
        raise InfeasibleAugmentation(
            f"level {level}: cover left {len(leftover)} violating sets"
        )
    return best[1]


def expansion_solve_rsndp(g: FaultGraph, reqs, seed: int = 0) -> frozenset:
    """``solve_rsndp`` through the bulk expansion: ``expand_rsndp_to_bulk``,
    then levels 0..width of ``augment_bulk`` from the empty set, then
    ``is_rsndp_feasible`` as the check of record."""
    scenarios = expand_rsndp_to_bulk(g, reqs)
    if not scenarios:
        return frozenset()
    H: frozenset = frozenset()
    for level in range(max(len(sc.fail) for sc in scenarios) + 1):
        H = bulk.augment_bulk(g, scenarios, H, level, seed=seed)
    ok, witness = is_rsndp_feasible(g, reqs, H)
    if not ok:
        raise InfeasibleAugmentation(f"final solution fails {witness}")
    return H


def brute_set_cover(rows, costs):
    """Exact set cover by subset enumeration over the candidate universe."""
    universe = sorted(set().union(*map(set, rows)))
    best = None
    for size in range(len(universe) + 1):
        for combo in itertools.combinations(universe, size):
            chosen = set(combo)
            if all(chosen & set(r) for r in rows):
                cost = sum(costs[e] for e in combo)
                if best is None or cost < best[0] - 1e-12:
                    best = (cost, frozenset(combo))
    return best


def membership_ciq(
    g: FaultGraph,
    mask: int,
    Q: Sequence[Iterable[int]],
    F: frozenset,
    p: int,
    q: int,
    s: int,
    t: int,
) -> bool:
    """Is the cut in the ring subfamily keyed by the path subset Q?

    True iff the cut is violated (boundary of exactly p+q-1 F-edges, fewer
    than p safe, separating s from t with s inside), each path of Q meets
    the boundary in exactly one edge, those edges are distinct and safe, and
    together they are exactly the cut's safe boundary.
    """
    full = (1 << g.n) - 1
    if not 0 < mask < full or not (mask >> s) & 1 or (mask >> t) & 1:
        return False
    bnd = boundary(g, F, mask)
    safe_bnd = {eid for eid in bnd if g.edges[eid].safe}
    if len(bnd) != p + q - 1 or len(safe_bnd) >= p or len(safe_bnd) != len(Q):
        return False
    hit_edges = []
    for path in Q:
        hits = [eid for eid in path if eid in bnd]
        if len(hits) != 1 or not g.edges[hits[0]].safe:
            return False
        hit_edges.append(hits[0])
    return len(set(hit_edges)) == len(hit_edges) and set(hit_edges) == safe_bnd


def _violated_members(fam, A) -> list[int]:
    """Members of ``fam.members`` whose boundary misses A entirely."""
    n = fam.graph.n
    hit = crossed(fam.graph, A)
    return [mask for mask in fam.members if not (hit >> cut_index(n, mask)) & 1]


def _minimal_violated(fam, A) -> list[int]:
    viol = _violated_members(fam, A)
    viol.sort(key=lambda m: (bin(m).count("1"), m))
    minimal = []
    for mask in viol:
        if not any((prev & ~mask) == 0 for prev in minimal):
            minimal.append(mask)
    return minimal


def list_primal_dual_cover(fam) -> CoverResult:
    """The primal-dual cover over the member list: per-mask duals, and loads
    summed over multiplicity planes (a cut listed twice weighs two).  The
    reference for ``faultnet.cover.primal_dual_cover``."""
    cost = {eid: Fraction(fam.graph.cost_of(eid)) for eid in fam.ground}
    n = fam.graph.n
    cross = {eid: crossed(fam.graph, (eid,)) for eid in fam.ground}
    residual = dict(cost)
    duals: dict[int, Fraction] = {}
    chosen: list[int] = []
    trace: list[tuple[str, int]] = []
    while True:
        active = _minimal_violated(fam, chosen)
        if not active:
            break
        candidates = sorted(fam.ground - set(chosen))
        active_bits = [cut_index(n, mask) for mask in active]
        by_multiplicity: dict[int, int] = {}  # multiplicity -> cut set
        for bit, times in Counter(active_bits).items():
            by_multiplicity[times] = by_multiplicity.get(times, 0) | (1 << bit)
        loads = {}
        reached = 0
        for eid in candidates:
            x = cross[eid]
            load = sum(
                times * (x & cuts).bit_count() for times, cuts in by_multiplicity.items()
            )
            if load:
                loads[eid] = load
            reached |= x
        for mask, bit in zip(active, active_bits):
            if not (reached >> bit) & 1:
                raise Uncoverable(
                    f"violated cut {VertexCut(n, mask).vertices()} has no "
                    f"candidate edge ({fam.label})"
                )
        delta = min(residual[eid] / load for eid, load in loads.items())
        for mask in active:
            duals[mask] = duals.get(mask, Fraction(0)) + delta
        tight = None
        for eid in sorted(loads):
            residual[eid] -= delta * loads[eid]
            if residual[eid] <= 0 and tight is None:
                tight = eid
        chosen.append(tight)
        trace.append(("add", tight))
    kept = list(chosen)
    for eid in reversed(chosen):
        trial = [x for x in kept if x != eid]
        if not _violated_members(fam, trial):
            kept = trial
            trace.append(("drop", eid))
    dual_bound = sum(duals.values(), Fraction(0))
    return CoverResult(frozenset(kept), float(dual_bound), tuple(trace))


def kruskal_mst_cost(g: FaultGraph) -> float:
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    total = 0.0
    for e in sorted(g.edges, key=lambda e: (e.cost, e.id)):
        ru, rv = find(e.u), find(e.v)
        if ru != rv:
            parent[rv] = ru
            total += e.cost
    return total


def dijkstra_cost(g: FaultGraph, s: int, t: int) -> float:
    import heapq

    dist = {s: 0.0}
    heap = [(0.0, s)]
    seen = set()
    while heap:
        d, x = heapq.heappop(heap)
        if x in seen:
            continue
        seen.add(x)
        if x == t:
            return d
        for eid in g.incident(x):
            e = g.edges[eid]
            y = e.v if x == e.u else e.u
            nd = d + e.cost
            if nd < dist.get(y, float("inf")):
                dist[y] = nd
                heapq.heappush(heap, (nd, y))
    return float("inf")


def tree_stretch(g: FaultGraph, tree) -> tuple[float, float]:
    """(max, mean) stretch of the tree over all vertex pairs: tree-path cost
    over shortest-path distance.  Pairs at distance 0 are skipped; with none
    left it is (1, 1)."""
    ratios = []
    for u in range(g.n):
        for v in range(u + 1, g.n):
            d_g = dijkstra_cost(g, u, v)
            if d_g > 0:
                ratios.append(g.total_cost(tree.path(u, v)) / d_g)
    if not ratios:
        return 1.0, 1.0
    return max(ratios), sum(ratios) / len(ratios)


def random_graph(seed: int, n: int, m: int, safe_prob: float = 0.5) -> FaultGraph:
    """Connected random multigraph, no feasibility guarantees."""
    rng = Random(seed)
    specs = []
    perm = list(range(n))
    rng.shuffle(perm)
    for i in range(n - 1):
        label = "safe" if rng.random() < safe_prob else "unsafe"
        specs.append((perm[i], perm[i + 1], round(rng.uniform(0.2, 2.0), 3), label))
    while len(specs) < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        label = "safe" if rng.random() < safe_prob else "unsafe"
        specs.append((u, v, round(rng.uniform(0.2, 2.0), 3), label))
    return FaultGraph(n, specs)


def random_lp(seed: int):
    """Seeded small LP for ``two_phase_lp``: (objective, rows, upper bounds).

    Costs take either sign; rows mix negative, zero and positive right-hand
    sides; upper bounds mix None (free above) and 1.0, so the draws include
    optimal, infeasible and unbounded LPs.
    """
    rng = Random(seed)
    n = rng.randint(2, 6)
    objective = [round(rng.uniform(-1.0, 2.0), 3) for _ in range(n)]
    rows = []
    for _ in range(rng.randint(1, 8)):
        cols = rng.sample(range(n), rng.randint(1, n))
        terms = [(j, round(rng.uniform(-1.0, 2.0), 3)) for j in cols]
        rhs = 0.0 if rng.random() < 0.15 else round(rng.uniform(-1.5, 1.5), 3)
        rows.append((terms, rhs))
    upper_bounds = [None if rng.random() < 0.4 else 1.0 for _ in range(n)]
    return objective, rows, upper_bounds


def row_at_a_time_pivot(tab, basis, row, col):
    """Divide the pivot row by its pivot entry, then eliminate the pivot
    column from the other rows one at a time: row i becomes
    row i - tab[i, col] * pivot row.  A row whose entry is zero (+0.0 or
    -0.0) is not written, so its signed zeros stay as they are."""
    tab[row] /= tab[row, col]
    for i in range(len(tab)):
        factor = tab[i, col]
        if i != row and factor != 0.0:
            tab[i] -= factor * tab[row]
    basis[row] = col


def numpy_basic_x(warm) -> list[float]:
    """``DualReoptimizer.x`` as numpy expressions: each basic structural
    variable takes its row's rhs, every other variable 0.0, and values in
    (-1e-9, 0) and (1, 1 + 1e-9) are clamped to 0.0 and 1.0.  The basic
    rows are the first ``len(warm.basis)`` rows of the tableau."""
    basis = np.asarray(warm.basis, dtype=np.intp)
    structural = basis < warm.n
    x = np.zeros(warm.n)
    x[basis[structural]] = warm.tab[: basis.size, -1][structural]
    x[(x < 0.0) & (x > -1e-9)] = 0.0
    x[(x > 1.0) & (x < 1.0 + 1e-9)] = 1.0
    return x.tolist()


def two_phase_lp(objective, rows, upper_bounds):
    """Reference LP solve by a cold two-phase primal simplex.

    Minimizes objective subject to sparse >=-rows and 0 <= x <= ub, where
    upper_bounds is a scalar or per-variable bound (None = free above) and
    costs take either sign.  Rows are (terms, rhs) with terms = [(var
    index, coeff), ...].  Returns (status, x, objective value) as
    ``simplex.solve_dense_lp`` does.  Pivot rule: Dantzig with lowest-index
    ties, Bland's rule after ``simplex.DEGENERATE_LIMIT`` degenerate pivots
    (read at call time, so tests can patch it); tolerance
    ``simplex.PIVOT_TOL``.

    The tableau is allocated once, artificial columns included.  Row i owns
    column n + i: a surplus (-1) for a >= row, a slack (+1) for a bound row.
    Rows with b < 0 are negated, so the own column reads +1, and starts the
    basis, exactly where a row is a flipped >= row or an unflipped bound row;
    every other row starts on an artificial column, placed after the real
    columns in row order.
    """
    tol = simplex.PIVOT_TOL
    n = len(objective)
    if isinstance(upper_bounds, (int, float)) or upper_bounds is None:
        ubs = [upper_bounds] * n
    else:
        ubs = list(upper_bounds)
    bounded = [j for j in range(n) if ubs[j] is not None]

    m_ge = len(rows)
    m_ub = len(bounded)
    m = m_ge + m_ub

    # Columns: x (n) | surplus/slack for >= rows (m_ge) | ub slacks (m_ub)
    # | artificials | rhs.
    total = n + m_ge + m_ub
    b = np.zeros(m)
    for i, (_terms, rhs) in enumerate(rows):
        b[i] = rhs
    for k, j in enumerate(bounded):
        b[m_ge + k] = ubs[j]
    flip = b < 0
    art_rows = np.flatnonzero((np.arange(m) < m_ge) != flip)
    tab = np.zeros((m, total + len(art_rows) + 1))
    for i, (terms, _rhs) in enumerate(rows):
        for j, coeff in terms:
            tab[i, j] += coeff
        tab[i, n + i] = -1.0  # surplus
    for k, j in enumerate(bounded):
        i = m_ge + k
        tab[i, j] = 1.0
        tab[i, n + i] = 1.0  # slack
    tab[flip, :total] *= -1.0
    b[flip] *= -1.0
    tab[:, -1] = b
    basis = list(range(n, total))
    for k, i in enumerate(art_rows):
        tab[i, total + k] = 1.0
        basis[i] = total + k

    def run_phase(tab, basis, c_full):
        """Optimize c_full over the current tableau in place."""
        # Reduced costs row kept separately.
        z = c_full.copy()
        obj = 0.0
        for i, bc in enumerate(basis):
            if c_full[bc] != 0.0:
                z -= c_full[bc] * tab[i, :-1]
                obj += c_full[bc] * tab[i, -1]
        degenerate = 0
        bland = False
        for _ in range(simplex.MAX_ITERATIONS):
            if bland:
                negative = (z < -tol).nonzero()[0]
                enter = int(negative[0]) if negative.size else None
            else:
                j_min = int(z.argmin())
                enter = j_min if z[j_min] < -tol else None
            if enter is None:
                return obj
            # Ratio test; argmin takes the first minimum, i.e. the lowest row.
            col = tab[:, enter]
            rows_in = (col > tol).nonzero()[0]
            if not rows_in.size:
                raise LpUnbounded("unbounded direction in simplex")
            ratios = tab[rows_in, -1] / col[rows_in]
            k = int(ratios.argmin())
            theta, row = ratios[k], int(rows_in[k])
            delta = z[enter]
            row_at_a_time_pivot(tab, basis, row, enter)
            z = z - delta * tab[row, :-1]
            new_obj = obj + theta * delta
            if abs(new_obj - obj) <= tol:
                degenerate += 1
                if degenerate >= simplex.DEGENERATE_LIMIT:
                    bland = True
            else:
                degenerate = 0
            obj = new_obj
        raise LpUnbounded("simplex iteration limit hit")

    # Phase 1: drive artificials to zero.
    if art_rows.size:
        c1 = np.zeros(tab.shape[1] - 1)
        c1[total:] = 1.0
        if run_phase(tab, basis, c1) > 1e-7:
            return simplex.SimplexStatus.INFEASIBLE, [0.0] * n, 0.0
        # Pivot remaining artificials out of the basis where possible.
        for i in range(m):
            if basis[i] >= total:
                real = np.flatnonzero(np.abs(tab[i, :total]) > tol)
                if real.size:
                    row_at_a_time_pivot(tab, basis, i, int(real[0]))
                # Else a redundant row; leave the zero-valued artificial basic.
        # Freeze artificial columns at zero.
        tab[:, total:-1] = 0.0

    # Phase 2.
    c2 = np.zeros(tab.shape[1] - 1)
    c2[:n] = objective
    try:
        obj2 = run_phase(tab, basis, c2)
    except LpUnbounded:
        return simplex.SimplexStatus.UNBOUNDED, [0.0] * n, float("-inf")

    # Structural values, with float dust clamped into the box.
    x = [0.0] * n
    for i, bc in enumerate(basis):
        if bc < n:
            x[bc] = float(tab[i, -1])
    for j, ub in enumerate(ubs):
        if x[j] < 0 and x[j] > -1e-9:
            x[j] = 0.0
        if ub is not None and x[j] > ub and x[j] < ub + 1e-9:
            x[j] = ub
    return simplex.SimplexStatus.OPTIMAL, x, float(obj2)


def assert_solve_matches_reference(costs, rows) -> float:
    """Check ``simplex.solve_dense_lp`` against ``two_phase_lp`` on the unit box.

    Costs must be >= 0.  Both must report the same status; on an optimum
    the objectives agree within 1e-9, and the package's x lies in the box
    and satisfies every row.  Returns the package's objective.
    """
    status, x, value = simplex.solve_dense_lp(costs, rows)
    ref_status, _x, ref_value = two_phase_lp(costs, rows, 1.0)
    assert status is ref_status
    if status is simplex.SimplexStatus.OPTIMAL:
        assert abs(value - ref_value) <= 1e-9
        assert all(0.0 <= v <= 1.0 for v in x)
        for terms, rhs in rows:
            assert sum(coeff * x[j] for j, coeff in terms) >= rhs - 1e-9
    return value


def highs_lp(objective, rows, upper_bounds):
    """(status, objective) of ``two_phase_lp``'s LP solved by scipy HiGHS.

    Same arguments as ``two_phase_lp``, with per-variable upper bounds.
    Status codes are ``scipy.optimize.linprog``'s: 0 optimal, 2 infeasible,
    3 unbounded.  Callers guard the scipy import with ``importorskip``.
    """
    from scipy.optimize import linprog

    a_ub = np.zeros((len(rows), len(objective)))
    for i, (terms, _rhs) in enumerate(rows):
        for j, coeff in terms:
            a_ub[i, j] -= coeff
    res = linprog(
        objective,
        A_ub=a_ub,
        b_ub=[-rhs for _terms, rhs in rows],
        bounds=[(0.0, ub) for ub in upper_bounds],
        method="highs",
    )
    return res.status, res.fun


def nested_st_masks(n: int, s: int, t: int):
    """Cuts with s inside and t outside: entry ``sub`` adds the vertices
    other than s and t whose rank among them is a set bit of ``sub``."""
    rest = [v for v in range(n) if v != s and v != t]
    for sub in range(1 << len(rest)):
        mask = 1 << s
        for i, v in enumerate(rest):
            if (sub >> i) & 1:
                mask |= 1 << v
        yield mask


def _crossing_ids(g: FaultGraph, ids, mask: int) -> tuple:
    return tuple(eid for eid in ids if ((mask >> g.edges[eid].u) ^ (mask >> g.edges[eid].v)) & 1)


def loop_sum(values) -> float:
    """Left-to-right float sum (Python >= 3.12's ``sum`` compensates)."""
    total = 0.0
    for value in values:
        total += value
    return total


def separating_masks_reference(n: int, reqs) -> list[int]:
    """Canonical sides of the cuts that separate a requirement pair, each
    once, in first-appearance order over every requirement's s-t cuts."""
    full = (1 << n) - 1
    return list(
        dict.fromkeys(min(mask, full ^ mask) for r in reqs for mask in nested_st_masks(n, r.s, r.t))
    )


def loop_separate_flex(g: FaultGraph, reqs, x):
    """Reference flex separator: a loop over every cut's crossing edges.

    Cuts in first-appearance order of their canonical side over the
    requirements' s-t cuts; the capacitated row of the most violated cut if
    any, else the flex row with B the q unsafe crossing edges of largest x
    (ties to the lower id).  A later cut replaces the kept one only when its
    violation is larger by more than 1e-15.
    """
    (p, q), = {(r.p, r.q) for r in reqs}
    masks = separating_masks_reference(g.n, reqs)
    best_cap = None
    best_flex = None
    for mask in masks:
        ids = _crossing_ids(g, range(g.m), mask)
        boundary_sum = loop_sum(x[eid] for eid in ids)
        safe_sum = loop_sum(x[eid] for eid in ids if g.edges[eid].safe)
        cap_viol = p * (p + q) - ((p + q) * safe_sum + p * (boundary_sum - safe_sum))
        if cap_viol > ROW_TOL and (best_cap is None or cap_viol > best_cap[0] + 1e-15):
            best_cap = (cap_viol, mask, ids)
        unsafe = sorted(
            ((x[eid], eid) for eid in ids if not g.edges[eid].safe),
            key=lambda t: (-t[0], t[1]),
        )
        flex_viol = p - (boundary_sum - loop_sum(val for val, _eid in unsafe[:q]))
        if flex_viol > ROW_TOL and (best_flex is None or flex_viol > best_flex[0] + 1e-15):
            B = tuple(sorted(eid for _val, eid in unsafe[:q]))
            best_flex = (flex_viol, mask, ids, B)
    if best_cap is not None:
        _viol, mask, ids = best_cap
        terms = tuple((eid, float(p + q) if g.edges[eid].safe else float(p)) for eid in ids)
        return LpRow(key=("cap", mask), terms=terms, rhs=float(p * (p + q)))
    if best_flex is not None:
        _viol, mask, ids, B = best_flex
        terms = tuple((eid, 1.0) for eid in ids if eid not in B)
        return LpRow(key=("flex", mask, B), terms=terms, rhs=float(p))
    return None


def loop_separate_bulk(g: FaultGraph, scenarios, x):
    """Reference bulk separator: per scenario, pair and s-t cut in that
    order, x summed over the crossing edges outside the failure set; the
    most violated row, with the same 1e-15 rule as ``loop_separate_flex``."""
    best = None
    for j, sc in enumerate(scenarios):
        alive = [eid for eid in range(g.m) if eid not in sc.fail]
        for u, v in sc.pairs:
            for mask in nested_st_masks(g.n, u, v):
                ids = _crossing_ids(g, alive, mask)
                viol = 1.0 - loop_sum(x[eid] for eid in ids)
                if viol > ROW_TOL and (best is None or viol > best[0] + 1e-15):
                    best = (viol, j, mask, ids)
    if best is None:
        return None
    _viol, j, mask, ids = best
    return LpRow(key=("bulk", j, mask), terms=tuple((eid, 1.0) for eid in ids), rhs=1.0)


def separate_flex_definitional(g: FaultGraph, reqs, x) -> bool:
    """Slow reference check: all cuts x all B subsets, no prefix shortcut.
    True iff no violated constraint exists."""
    (p, q), = {(r.p, r.q) for r in reqs}
    full = (1 << g.n) - 1
    masks = {min(mask, full ^ mask) for r in reqs for mask in nested_st_masks(g.n, r.s, r.t)}
    unsafe = sorted(unsafe_ids(g))
    for mask in masks:
        ids = _crossing_ids(g, range(g.m), mask)
        safe_sum = sum(x[eid] for eid in ids if g.edges[eid].safe)
        unsafe_sum = sum(x[eid] for eid in ids if not g.edges[eid].safe)
        if (p + q) * safe_sum + p * unsafe_sum < p * (p + q) - ROW_TOL:
            return False
        for size in range(q + 1):
            for B in itertools.combinations(unsafe, size):
                value = sum(x[eid] for eid in ids if eid not in B)
                if value < p - ROW_TOL:
                    return False
    return True


def check_augmentation_lp_validity(g: FaultGraph, reqs, x, F1) -> tuple[bool, VertexCut | None]:
    """Every violated cut of F1 must carry >= 1 unit of x outside F1."""
    F1 = frozenset(F1)
    outside = [eid for eid in range(g.m) if eid not in F1]
    for mask in violated_cuts_flex_aug(g, reqs, F1).members:
        if sum(x[eid] for eid in _crossing_ids(g, outside, mask)) < 1.0 - ROW_TOL:
            return False, VertexCut(g.n, mask)
    return True, None


# -- former package members that only the tests call --------------------------

def safety(e) -> str:
    """The safety label of edge record ``e``."""
    return SAFE if e.safe else UNSAFE


def unsafe_ids(g: FaultGraph) -> frozenset:
    """The ids of g's unsafe edges."""
    return frozenset(e.id for e in g.edges if not e.safe)


def boundary_counts(g: FaultGraph, F: Iterable[int], mask: int) -> tuple[int, int]:
    """(safe, total) boundary edge counts of F across ``mask``."""
    safe = 0
    total = 0
    edges = g.edges
    for eid in F:
        e = edges[eid]
        if ((mask >> e.u) ^ (mask >> e.v)) & 1:
            total += 1
            if e.safe:
                safe += 1
    return safe, total


def layout_count(layout, counts: int, index: int) -> int:
    """The count of the one cut at ``index`` in ``layout``'s packed
    ``counts``."""
    return (counts >> (index * layout.width)) & ((1 << layout.width) - 1)


def tree_edges(tree) -> frozenset:
    """Edge ids of a ``TreeEmbedding``."""
    return frozenset(eid for v, eid in enumerate(tree.parent_edge) if v != tree.root)


def degree_repair(packing, v: int, t: int, s: int, k: int) -> float:
    """What repairing the singleton cut {v} costs at least at depth k of an
    exact search with ``packing``, with t chosen and s safe edges at v: the
    dearest repair over the spanning classes that find it violated, 0 if
    none does.  ``_Packing.refresh`` must give every entry bitwise this."""
    sums, undecided, safe_sums, safe_undecided = packing.vertices[v]
    worst = 0.0
    for p, pq in packing.spanning:
        if t < pq and s < p:
            need = pq - t
            repair = sums[need] if need <= undecided[k] else float("inf")
            need = p - s
            if need <= safe_undecided[k] and safe_sums[need] < repair:
                repair = safe_sums[need]
            if repair > worst:
                worst = repair
    return worst


def expand_flex_to_bulk(
    g: FaultGraph, reqs: Sequence[FlexRequirement]
) -> tuple[BulkScenario, ...]:
    """Explicit scenario list equivalent to the flex requirements: the
    paper's flex-to-bulk reduction, which ``solve_flex_sndp`` carries out
    without listing any scenario.

    A failure set F threatens pair i iff |F| <= p_i + q_i - 1 and F contains
    at most p_i - 1 safe edges (split F into B = up to q_i unsafe edges and
    A = the at most p_i - 1 others).  Width is max(p_i + q_i - 1).
    """
    reqs = tuple(reqs)
    width = max(r.p + r.q - 1 for r in reqs)
    grouped: dict[frozenset, list[tuple[int, int]]] = {}
    for combo in failure_sets(g.m, width):
        F = frozenset(combo)
        n_safe = len(F & g.safe_ids)
        pairs = [
            (r.s, r.t)
            for r in reqs
            if len(F) <= r.p + r.q - 1 and n_safe <= r.p - 1
        ]
        if pairs:
            grouped[F] = pairs
    return tuple(
        BulkScenario(F, tuple(sorted(set(pairs))))
        for F, pairs in sorted(grouped.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))
    )


def solve_lp(model: LinearProgramModel) -> FractionalSolution:
    """Optimize the model's current working rows (no separation), adding
    them all at once to a fresh dual simplex."""
    g = model.g
    obj = [e.cost for e in g.edges]
    rows = [(list(r.terms), r.rhs) for r in model.rows]
    status, x, objective = simplex.solve_dense_lp(obj, rows)
    if status is not simplex.SimplexStatus.OPTIMAL:
        raise LpInfeasible(f"simplex returned {status}")
    return FractionalSolution(tuple(x), objective, rounds=0, separation_clean=False)
