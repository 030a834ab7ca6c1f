"""Independent brute-force oracles the tests check the library against.

Everything here is deliberately definitional: exhaustive enumeration over
cuts, failure subsets, or path sets.  None of it shares code paths with the
implementations under test.
"""

from __future__ import annotations

import itertools
from random import Random

from faultnet.graph import FaultGraph


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
    unsafe_in_H = sorted(H & g.unsafe_ids)
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
    """Seeded small LP for ``solve_dense_lp``: (objective, rows, upper bounds).

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


def highs_lp(objective, rows, upper_bounds):
    """(status, objective) of ``solve_dense_lp``'s LP solved by scipy HiGHS.

    Same arguments as ``solve_dense_lp``, with per-variable upper bounds.
    Status codes are ``scipy.optimize.linprog``'s: 0 optimal, 2 infeasible,
    3 unbounded.  Callers guard the scipy import with ``importorskip``.
    """
    import numpy as np
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
