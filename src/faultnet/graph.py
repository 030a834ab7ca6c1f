"""Multigraph substrate: fault-labeled edges, vertex cuts, boundaries, components.

The whole library operates on :class:`FaultGraph`, an immutable undirected
multigraph whose edges carry a non-negative cost and a safe/unsafe label.
Edge sets (partial solutions, failure sets) are plain ``frozenset`` objects
over dense edge ids.  Vertex cuts are bit masks over vertices, wrapped in
:class:`VertexCut` at API boundaries; every algorithm in the package is sized
for exhaustive 2^n cut sweeps, so ``n`` is capped at :data:`MAX_SWEEP_N`.

Thread safety: a FaultGraph never mutates after construction and can be
shared freely; all functions here allocate private state.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

SAFE = "safe"
UNSAFE = "unsafe"

#: Hard ceiling on vertex counts for the exhaustive-cut representation.
MAX_SWEEP_N = 24


def enumeration_budget() -> int:
    """Subset-enumeration budget used by the oracles (env-overridable)."""
    return int(os.environ.get("FAULTNET_ENUM_BUDGET", "2000000"))


@dataclass(frozen=True)
class EdgeRec:
    """One undirected edge.  Parallel edges are distinct records.

    Costs are 64-bit floats: :class:`FaultGraph` converts every given cost
    with ``float``, Fraction included."""

    id: int
    u: int
    v: int
    cost: float
    safe: bool

    @property
    def safety(self) -> str:
        return SAFE if self.safe else UNSAFE


def _as_safe_flag(safety) -> bool:
    if isinstance(safety, bool):
        return safety
    if safety in (SAFE, "S"):
        return True
    if safety in (UNSAFE, "U"):
        return False
    raise ValueError(f"unknown safety label {safety!r}")


class FaultGraph:
    """Immutable undirected multigraph with safe/unsafe edge labels.

    Edges are given as ``(u, v, cost, safety)`` tuples and receive dense ids
    ``0..m-1`` in input order.  Self-loops are rejected (they break cut
    semantics); parallel edges are allowed and common.
    """

    __slots__ = ("n", "edges", "_safe_ids", "_unsafe_ids", "_incident")

    def __init__(self, n: int, edge_specs: Sequence[tuple]):
        if n < 1:
            raise ValueError("vertex count must be positive")
        if n > MAX_SWEEP_N:
            raise ValueError(f"n={n} exceeds the exhaustive-sweep cap {MAX_SWEEP_N}")
        recs = []
        for eid, spec in enumerate(edge_specs):
            u, v, cost, safety = spec
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {eid}: endpoint out of range")
            if u == v:
                raise ValueError(f"edge {eid}: self-loops are not allowed")
            if not math.isfinite(cost):
                raise ValueError(f"edge {eid}: cost {cost!r} is not finite")
            if cost < 0:
                raise ValueError(f"edge {eid}: negative cost")
            recs.append(EdgeRec(eid, u, v, float(cost), _as_safe_flag(safety)))
        self.n = n
        self.edges = tuple(recs)
        self._safe_ids = frozenset(e.id for e in recs if e.safe)
        self._unsafe_ids = frozenset(e.id for e in recs if not e.safe)
        incident: list[list[int]] = [[] for _ in range(n)]
        for e in recs:
            incident[e.u].append(e.id)
            incident[e.v].append(e.id)
        self._incident = tuple(tuple(ids) for ids in incident)

    # -- basic accessors ---------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def safe_ids(self) -> frozenset:
        return self._safe_ids

    @property
    def unsafe_ids(self) -> frozenset:
        return self._unsafe_ids

    def all_edge_ids(self) -> frozenset:
        return frozenset(range(self.m))

    def incident(self, v: int) -> tuple[int, ...]:
        return self._incident[v]

    def endpoints(self, eid: int) -> tuple[int, int]:
        e = self.edges[eid]
        return e.u, e.v

    def cost_of(self, eid: int) -> float:
        return self.edges[eid].cost

    def total_cost(self, edge_ids: Iterable[int]) -> float:
        return sum(self.edges[eid].cost for eid in edge_ids)

    def other_end(self, eid: int, v: int) -> int:
        e = self.edges[eid]
        return e.v if v == e.u else e.u

    def __repr__(self) -> str:
        return f"FaultGraph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class VertexCut:
    """One side S of a vertex cut, as a bit mask over vertices.

    The canonical orientation for spanning problems excludes the anchor
    vertex ``n-1``; for s-t problems it contains ``s``.  ``canonical_spanning``
    flips to whichever side satisfies the anchor rule.
    """

    n: int
    mask: int

    def __post_init__(self):
        full = (1 << self.n) - 1
        if not (0 < self.mask < full):
            raise ValueError("cut side must be a nonempty proper subset")

    def vertices(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.n) if (self.mask >> v) & 1)

    def contains(self, v: int) -> bool:
        return bool((self.mask >> v) & 1)

    def complement(self) -> "VertexCut":
        full = (1 << self.n) - 1
        return VertexCut(self.n, full ^ self.mask)

    def canonical_spanning(self) -> "VertexCut":
        anchor = self.n - 1
        return self.complement() if self.contains(anchor) else self

    def separates(self, s: int, t: int) -> bool:
        return self.contains(s) != self.contains(t)


def boundary(g: FaultGraph, F: Iterable[int], S) -> frozenset:
    """Edges of F with exactly one endpoint in S.

    ``S`` may be a :class:`VertexCut` or a raw bit mask.  Symmetric in S
    versus its complement.
    """
    mask = S.mask if isinstance(S, VertexCut) else S
    out = []
    edges = g.edges
    for eid in F:
        e = edges[eid]
        if ((mask >> e.u) ^ (mask >> e.v)) & 1:
            out.append(eid)
    return frozenset(out)


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


def spanning_cut_masks(n: int) -> Iterator[int]:
    """All canonical spanning cuts: nonempty subsets of vertices 0..n-2.

    Each unordered cut {S, V-S} appears exactly once, as the side that
    excludes the anchor vertex n-1.
    """
    for mask in range(1, 1 << (n - 1)):
        yield mask


def st_cut_masks(n: int, s: int, t: int) -> list[int]:
    """All cuts with s inside and t outside (each separating cut once).

    Entry ``sub`` holds the vertices other than s and t whose rank among
    them is a set bit of ``sub``: each such vertex doubles the list."""
    if s == t:
        raise ValueError("s == t")
    out = [1 << s]
    for v in range(n):
        if v != s and v != t:
            bit = 1 << v
            out += [mask | bit for mask in out]
    return out


class _UnionFind:
    __slots__ = ("parent",)

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def connected_components(g: FaultGraph, F: Iterable[int]) -> list[frozenset]:
    """Components of (V, F), sorted by smallest member vertex."""
    uf = _UnionFind(g.n)
    for eid in F:
        e = g.edges[eid]
        uf.union(e.u, e.v)
    groups: dict[int, list[int]] = {}
    for v in range(g.n):
        groups.setdefault(uf.find(v), []).append(v)
    return sorted((frozenset(vs) for vs in groups.values()), key=min)


def same_component(g: FaultGraph, F: Iterable[int], u: int, v: int) -> bool:
    uf = _UnionFind(g.n)
    for eid in F:
        e = g.edges[eid]
        uf.union(e.u, e.v)
    return uf.find(u) == uf.find(v)
