"""Multigraph substrate: fault-labeled edges, vertex cuts, boundaries, components.

The whole library operates on :class:`FaultGraph`, an immutable undirected
multigraph whose edges carry a non-negative cost and a safe/unsafe label.
Edge sets (partial solutions, failure sets) are plain ``frozenset`` objects
over dense edge ids.  Vertex cuts are bit masks over vertices, wrapped in
:class:`VertexCut` at API boundaries; every algorithm in the package is sized
for exhaustive 2^n cut sweeps, so ``n`` is capped at :data:`MAX_SWEEP_N`.
Both kinds of exhaustive enumeration are checked here against one budget,
:func:`enumeration_budget`: a cut sweep by :func:`guard_sweep`, and a
listing of failure sets by :func:`failure_sets`, which also lists them.

Thread safety: a FaultGraph never mutates after construction and can be
shared freely; all functions here allocate private state.  Its four lazily
filled fields, the packed layout of :func:`faultnet.cuts.layout_of`, the
crossing table of :func:`faultnet.cuts.crossing_table`, the neighbour
table of :func:`faultnet.bulk.sample_tree` and the search tables of
:func:`faultnet.exact.exact_solve`, are pure functions of the graph, so a
racing second fill stores an equal value.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import EnumerationTooLarge

SAFE = "safe"
UNSAFE = "unsafe"

#: Hard ceiling on vertex counts for the exhaustive-cut representation.
MAX_SWEEP_N = 24


def env_budget(name: str, default: int) -> int:
    """The budget in environment variable ``name``, or ``default`` when it
    is unset.  A value that is not a non-negative integer raises a
    ``ValueError`` that names the variable."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    message = f"{name} must be a non-negative integer, got {raw!r}"
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(message) from None
    if value < 0:
        raise ValueError(message)
    return value


def enumeration_budget() -> int:
    """Budget of every exhaustive enumeration, of cuts or of failure sets
    (env-overridable)."""
    return env_budget("FAULTNET_ENUM_BUDGET", 2_000_000)


def guard_sweep(n: int) -> None:
    """Raise EnumerationTooLarge unless the 2^n cuts of an n-vertex graph
    fit the enumeration budget."""
    if (1 << n) > enumeration_budget():
        raise EnumerationTooLarge(f"2^{n} cuts exceed the enumeration budget")


def failure_sets(m: int, width: int) -> Iterator[tuple[int, ...]]:
    """The subsets of ``range(m)`` with at most ``width`` elements, by size
    and then in ``itertools.combinations`` order.  Raises
    EnumerationTooLarge, before listing any, unless they fit the
    enumeration budget.  A width above m lists the same sets."""
    width = min(width, m)
    total = sum(math.comb(m, k) for k in range(width + 1))
    if total > enumeration_budget():
        raise EnumerationTooLarge(f"{total} failure sets exceed the enumeration budget")
    return itertools.chain.from_iterable(
        itertools.combinations(range(m), k) for k in range(width + 1)
    )


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


def _as_safe_flag(safety) -> bool:
    if safety == SAFE:
        return True
    if safety == UNSAFE:
        return False
    raise ValueError(f"unknown safety label {safety!r}")


class FaultGraph:
    """Immutable undirected multigraph with safe/unsafe edge labels.

    Edges are given as ``(u, v, cost, safety)`` tuples, with safety
    ``"safe"`` or ``"unsafe"`` as in instance files, and receive dense ids
    ``0..m-1`` in input order.  Self-loops are rejected (they break cut
    semantics); parallel edges are allowed and common.  ``costs[eid]`` is
    edge eid's cost, in a tuple built with the edges.
    """

    __slots__ = (
        "n", "edges", "costs", "_safe_ids", "_incident", "_layout", "_crossing",
        "_neighbours", "_search",
    )

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
        self.costs = tuple(e.cost for e in recs)
        self._safe_ids = frozenset(e.id for e in recs if e.safe)
        incident: list[list[int]] = [[] for _ in range(n)]
        for e in recs:
            incident[e.u].append(e.id)
            incident[e.v].append(e.id)
        self._incident = tuple(tuple(ids) for ids in incident)
        self._layout = None  # filled by faultnet.cuts.layout_of
        self._crossing = None  # filled by faultnet.cuts.crossing_table
        self._neighbours = None  # filled by faultnet.bulk._neighbour_table
        self._search = None  # filled by faultnet.exact._tables_of

    # -- basic accessors ---------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def safe_ids(self) -> frozenset:
        return self._safe_ids

    def all_edge_ids(self) -> frozenset:
        return frozenset(range(self.m))

    def incident(self, v: int) -> tuple[int, ...]:
        return self._incident[v]

    def cost_of(self, eid: int) -> float:
        return self.costs[eid]

    def total_cost(self, edge_ids: Iterable[int]) -> float:
        costs = self.costs
        return sum((costs[eid] for eid in edge_ids), 0.0)

    def __repr__(self) -> str:
        return f"FaultGraph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class VertexCut:
    """One side S of a vertex cut, as a bit mask over vertices.

    The canonical orientation for spanning problems excludes the anchor
    vertex ``n-1``; for s-t problems it contains ``s``.
    """

    n: int
    mask: int

    def __post_init__(self):
        full = (1 << self.n) - 1
        if not (0 < self.mask < full):
            raise ValueError("cut side must be a nonempty proper subset")

    def vertices(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.n) if (self.mask >> v) & 1)


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


def component_labels(g: FaultGraph, F: Iterable[int]) -> list[int]:
    """Per vertex, a label of its component of (V, F): two vertices share
    a component exactly when their labels are equal."""
    uf = _UnionFind(g.n)
    for eid in F:
        e = g.edges[eid]
        uf.union(e.u, e.v)
    return [uf.find(v) for v in range(g.n)]


def connected_components(g: FaultGraph, F: Iterable[int]) -> list[frozenset]:
    """Components of (V, F), sorted by smallest member vertex."""
    groups: dict[int, list[int]] = {}
    for v, label in enumerate(component_labels(g, F)):
        groups.setdefault(label, []).append(v)
    return sorted((frozenset(vs) for vs in groups.values()), key=min)


def same_component(g: FaultGraph, F: Iterable[int], u: int, v: int) -> bool:
    labels = component_labels(g, F)
    return labels[u] == labels[v]
