"""Integral min-cost flow and flow decomposition.

All routines work on the undirected :class:`~faultnet.graph.FaultGraph` with
integer per-edge capacities.  A flow assigns each edge a signed integer
amount (positive meaning u -> v in the edge record's orientation).  Results
are deterministic: searches scan arcs in edge-id order and Dijkstra relaxes
on strict improvement only, so ties always resolve to the smallest edge id.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from .errors import InfeasibleDemand, NonIntegralFlow, SourceEqualsSink
from .graph import FaultGraph


@dataclass(frozen=True)
class Flow:
    """Integral s-t flow: signed per-edge amounts, positive = u -> v."""

    source: int
    sink: int
    value: int
    amounts: tuple[int, ...]

    def support(self) -> frozenset:
        return frozenset(eid for eid, a in enumerate(self.amounts) if a != 0)


def _normalize_caps(g: FaultGraph, cap) -> list[int]:
    if isinstance(cap, int):
        caps = [cap] * g.m
    else:
        caps = [cap[eid] for eid in range(g.m)]
    for eid, c in enumerate(caps):
        if c != int(c) or c < 0:
            raise ValueError(f"capacity of edge {eid} must be a non-negative integer")
    return [int(c) for c in caps]


def _augment(g: FaultGraph, caps, flow: list[int], parent, s: int, t: int, limit) -> int:
    """Push the bottleneck residual, at most ``limit``, along the ``parent``
    path from s to t (``parent[y]`` is the (edge id, tail) arc into y);
    returns the amount pushed."""
    arcs = []
    y = t
    while y != s:
        eid, x = parent[y]
        arcs.append((eid, x == g.edges[eid].u))
        y = x
    bottleneck = min(
        limit, *(caps[eid] - flow[eid] if fwd else caps[eid] + flow[eid] for eid, fwd in arcs)
    )
    for eid, fwd in arcs:
        flow[eid] += bottleneck if fwd else -bottleneck
    return bottleneck


def min_cost_flow(g: FaultGraph, cap, s: int, t: int, demand: int) -> Flow:
    """Min-cost integral s-t flow of exactly ``demand`` units.

    Successive shortest paths with Johnson potentials; edge costs are taken
    from the graph.  Deterministic: Dijkstra scans arcs in edge-id order and
    keeps the first-found shortest parent.
    """
    if s == t:
        raise SourceEqualsSink(f"source {s} equals sink {t}")
    if demand < 0 or demand != int(demand):
        raise ValueError("demand must be a non-negative integer")
    caps = _normalize_caps(g, cap)
    demand = int(demand)
    flow = [0] * g.m
    edges = g.edges
    potential = [0.0] * g.n
    INF = float("inf")
    remaining = demand
    while remaining > 0:
        dist = [INF] * g.n
        parent: list[tuple[int, int] | None] = [None] * g.n
        dist[s] = 0.0
        heap = [(0.0, s)]
        done = [False] * g.n
        while heap:
            d, x = heapq.heappop(heap)
            if done[x]:
                continue
            done[x] = True
            for eid in g.incident(x):
                e = edges[eid]
                y = e.v if x == e.u else e.u
                residual = caps[eid] - flow[eid] if x == e.u else caps[eid] + flow[eid]
                if residual <= 0:
                    continue
                # Reduced cost; tiny negatives from float noise clamp to 0.
                rc = e.cost + potential[x] - potential[y]
                if rc < 0:
                    rc = 0.0
                nd = d + rc
                if nd < dist[y] - 1e-12:
                    dist[y] = nd
                    parent[y] = (eid, x)
                    heapq.heappush(heap, (nd, y))
        if dist[t] == INF:
            raise InfeasibleDemand(
                f"demand {demand} exceeds max flow (stalled with {remaining} left)"
            )
        for v in range(g.n):
            if dist[v] < INF:
                potential[v] += dist[v]
        remaining -= _augment(g, caps, flow, parent, s, t, remaining)
    return Flow(s, t, demand, tuple(flow))


def _flow_arcs(g: FaultGraph, amounts: list[int]) -> dict[int, list[tuple[int, int]]]:
    """Outgoing (edge id, head) arcs of the flow support, per tail vertex."""
    out: dict[int, list[tuple[int, int]]] = {v: [] for v in range(g.n)}
    for eid, a in enumerate(amounts):
        if a > 0:
            e = g.edges[eid]
            out[e.u].append((eid, e.v))
        elif a < 0:
            e = g.edges[eid]
            out[e.v].append((eid, e.u))
    for v in out:
        out[v].sort()
    return out


def flow_decompose(g: FaultGraph, f: Flow) -> list[tuple[int, ...]]:
    """Split an integral flow into ``f.value`` unit s-t paths of edge ids.

    Paths come out shortest-hop first with edge-id tie-breaks, so the
    decomposition is canonical.  Any directed flow cycles carry no s-t value
    and are discarded (equivalent to cancelling them first); the multiset
    union of path edges then consumes the cycle-free flow exactly.
    """
    for a in f.amounts:
        if a != int(a):
            raise NonIntegralFlow(f"edge amount {a} is not integral")
    amounts = [int(a) for a in f.amounts]
    paths = []
    for _ in range(f.value):
        # BFS over the remaining support; neighbor order = edge-id order
        # makes the first found shortest path lexicographically least.
        out = _flow_arcs(g, amounts)
        parent: list[tuple[int, int] | None] = [None] * g.n
        parent[f.source] = (-1, f.source)
        queue = deque([f.source])
        while queue and parent[f.sink] is None:
            x = queue.popleft()
            for eid, y in out[x]:
                if parent[y] is None:
                    parent[y] = (eid, x)
                    queue.append(y)
        if parent[f.sink] is None:
            raise NonIntegralFlow("flow value not decomposable; inconsistent amounts")
        path = []
        y = f.sink
        while y != f.source:
            eid, y = parent[y]
            path.append(eid)
        path.reverse()
        for eid in path:
            amounts[eid] += -1 if amounts[eid] > 0 else 1
        paths.append(tuple(path))
    return paths
