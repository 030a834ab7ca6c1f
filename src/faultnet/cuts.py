"""Packed cut kernel: boundary counts of an edge set over every cut at once.

Sweeps over all vertex cuts use one canonical index: the cut {S, V-S} is
named by its side that excludes the anchor vertex n-1, a mask c in
1..2^(n-1)-1, and sits at index c-1.  A *cut set* is a Python int with bit
c-1 set for each cut in it.  ``side(n)[v]`` is the cut set of the cuts whose
named side contains v, so an edge (u, v) crosses exactly the cuts in
``side[u] ^ side[v]``, and a pair (s, t) is separated by the same expression.

The boundary counts of an edge set are kept packed: in a graph with m edges
every cut owns a field of w = m.bit_length() + 1 bits of one Python int, the
field of cut index i at bits i*w .. i*w+w-1, in cut index order.  A count
never exceeds m, so the top bit of each field, its *guard*, stays clear.
Adding an edge is one big-int add of its packed crossing set (a 1 in the
field of each cut it crosses) and removing one is a subtract.  A threshold
test adds a per-field offset and keeps the guard bits: count + 2^(w-1) - c
carries into the guard exactly when count >= c, and never into the next
field.  The answer is a *guard set*, the packed twin of a cut set; the
package works on guard sets and :meth:`Layout.compact` turns one into a
cut set in one linear pass, only for a cover family or a witness.  The
flexible cut rule has one statement, :meth:`Boundary.deficient` and
:meth:`Boundary.tight` (the exact search inlines the first, for speed),
and a pair's cuts one, :meth:`Layout.scope`.  A failure set F cuts off a
pair in an edge set H when a cut that separates the pair is crossed only by
edges of F; :meth:`Boundary.cut_off` answers that for every cut at once.
Questions about one given mask go only to :func:`faultnet.graph.boundary`.
A graph's first :func:`layout_of` call checks its sweep against the
enumeration budget (:func:`faultnet.graph.guard_sweep`), before any of its
packed structures is built.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable

from . import trace
from .graph import FaultGraph, guard_sweep


def _repeat(block: int, period: int, total: int) -> int:
    """``block``, one period of ``period`` bits, repeated up to ``total``
    bits (``total`` is ``period`` times a power of two), by doubling."""
    while period < total:
        block |= block << period
        period <<= 1
    return block


@lru_cache(maxsize=None)
def side(n: int) -> tuple[int, ...]:
    """``side(n)[v]``: the cut set of cuts whose named side contains v."""
    return _side(n, 1)


def _side(n: int, width: int) -> tuple[int, ...]:
    """``side(n)`` with every bit spread to the low bit of a ``width``-bit
    field.  Bit c of the pattern is mask c, and mask 0 (no cut) is shifted
    out at the end."""
    count = (1 << (n - 1)) * width  # masks 0..2^(n-1)-1
    out = []
    unit = 1  # one low bit per field over the first half-period
    for v in range(n - 1):
        half = 1 << v
        if v:
            unit |= unit << ((half >> 1) * width)
        out.append(_repeat(unit << (half * width), 2 * half * width, count) >> width)
    out.append(0)  # the anchor is never on the named side
    return tuple(out)


# An offset is one int as long as its layout, about 6 MB at n = 24, so a
# layout keeps at most OFFSETS of them, and only while one fits in
# OFFSET_BITS bits (n <= 14 at width 6).
OFFSETS = 16
OFFSET_BITS = 1 << 16


class Layout:
    """Packed per-cut fields of ``width`` bits for an n-vertex graph.

    ``side[v]`` is the packed twin of ``side(n)[v]``, ``ones`` has a 1 in
    every field, ``guards`` the guard bit of every field and ``nonzero`` is
    ``offset(1)``.  A small layout keeps the first offsets it makes (see
    ``OFFSETS``).
    """

    __slots__ = ("n", "width", "side", "ones", "guards", "nonzero", "_offsets", "_room", "_singles")

    def __init__(self, n: int, width: int):
        self.n = n
        self.width = width
        self.side = _side(n, width)
        self.ones = _repeat(1, width, (1 << (n - 1)) * width) >> width
        self.guards = self.ones << (width - 1)
        self._offsets: dict[int, int] = {}
        self._room = OFFSETS if ((1 << (n - 1)) - 1) * width <= OFFSET_BITS else 0
        self._singles: int | None = None
        self.nonzero = self.offset(1)

    @property
    def singles(self) -> int:
        """The guard set of the singleton cuts {v}, built on first use."""
        if self._singles is None:
            # The cut {v} is named by v's own bit, and the anchor's by all
            # the other vertices (at n = 2 both name the one cut; at n = 1
            # there is no cut).
            fields = {(1 << v) - 1 for v in range(self.n - 1)}
            if self.n > 1:
                fields.add((1 << (self.n - 1)) - 2)
            self._singles = sum(1 << (field + 1) * self.width - 1 for field in fields)
        return self._singles

    def offset(self, c: int) -> int:
        """Added to packed counts, sets the guard of every field whose count
        is at least c."""
        value = self._offsets.get(c)
        if value is None:
            top = 1 << (self.width - 1)
            value = min(max(top - c, 0), top) * self.ones
            if len(self._offsets) < self._room:
                self._offsets[c] = value
        return value

    def at_least(self, counts: int, c: int) -> int:
        """The guard set of cuts whose packed count is at least c."""
        return (counts + self.offset(c)) & self.guards

    def exactly(self, counts: int, c: int) -> int:
        """The guard set of cuts whose packed count is exactly c."""
        return self.at_least(counts, c) ^ self.at_least(counts, c + 1)

    def equal(self, a: int, b: int) -> int:
        """The guard set of cuts whose counts in ``a`` and ``b`` are equal."""
        return self.guards & ~((a ^ b) + self.nonzero)

    def scope(self, pairs: Iterable[tuple[int, int]]) -> int:
        """The guard set of the cuts that separate one of the pairs."""
        sd = self.side
        out = 0
        for u, v in pairs:
            out |= sd[u] ^ sd[v]
        return out << (self.width - 1)

    def compact(self, guards: int) -> int:
        """The cut set of a guard set."""
        if not guards:
            return 0
        fields = (1 << (self.n - 1)) - 1
        return int(format(guards, f"0{fields * self.width}b")[:: self.width], 2)


def layout_of(g: FaultGraph) -> Layout:
    """The shared layout of g's boundary counts, which never exceed m;
    kept on g after the first call's :func:`guard_sweep`."""
    lay = g._layout
    if lay is None:
        guard_sweep(g.n)
        lay = g._layout = _layout(g.n, g.m.bit_length() + 1)
    return lay


# Bounded: at n = 24 one layout holds about n * 2^23 * width bits, some
# 150 MB at width 6.
@lru_cache(maxsize=8)
def _layout(n: int, width: int) -> Layout:
    return Layout(n, width)


def all_cuts(n: int) -> int:
    """The cut set of every cut of an n-vertex graph."""
    return (1 << ((1 << (n - 1)) - 1)) - 1


def cut_index(n: int, mask: int) -> int:
    """Bit of the cut with side ``mask`` (either side); -1 for no cut."""
    full = (1 << n) - 1
    if not 0 < mask < full:
        return -1
    if (mask >> (n - 1)) & 1:
        mask ^= full
    return mask - 1


def masks(n: int, cuts: int, s: int | None = None) -> list[int]:
    """Sorted vertex masks of the cuts in ``cuts``: the side without the
    anchor, or with ``s`` given, the side that contains s."""
    full = (1 << n) - 1
    out = []
    bits = format(cuts, "b")[::-1]
    index = bits.find("1")
    while index >= 0:
        mask = index + 1
        if s is not None and not (mask >> s) & 1:
            mask ^= full
        out.append(mask)
        index = bits.find("1", index + 1)
    if s is not None:
        out.sort()
    return out


def first_mask(n: int, cuts: int, s: int) -> int:
    """``masks(n, cuts, s)[0]`` for a nonempty ``cuts``, decoding one cut.

    A named side that holds s is its own s-side and lacks the anchor; the
    others are s-sides only complemented, and then hold the anchor, so
    they are all larger and the largest named side gives the smallest.
    """
    with_s = cuts & side(n)[s]
    if with_s:
        return (with_s & -with_s).bit_length()
    return ((1 << n) - 1) ^ (cuts & ~side(n)[s]).bit_length()


def predicate(n: int, cuts: int, s: int | None = None) -> Callable[[int], bool]:
    """Membership test for any int mask: is it a side of a cut in ``cuts``
    (with ``s`` given, the side that contains s)?"""

    def member(mask: int) -> bool:
        if s is not None and not (mask >> s) & 1:
            return False
        index = cut_index(n, mask)
        return index >= 0 and bool((cuts >> index) & 1)

    return member


def crossing_table(g: FaultGraph) -> tuple[tuple[int, ...], tuple[bool, ...]]:
    """(cross, safe) of g: ``cross[eid]`` is the packed crossing set of edge
    eid in ``layout_of(g)`` and ``safe[eid]`` its safe flag.

    Built on the first call and kept on g itself, never in a module cache, so
    it lives exactly as long as the graph.  Both are tuples, shared read-only
    by every :class:`Boundary` of g.
    """
    table = g._crossing
    if table is None:
        sd = layout_of(g).side
        table = g._crossing = (
            tuple(sd[e.u] ^ sd[e.v] for e in g.edges),
            tuple(e.safe for e in g.edges),
        )
    return table


class Boundary:
    """Safe and total boundary counts of an edge set over every cut.

    ``safe`` and ``total`` are packed counts in ``layout``,
    ``cross[eid]`` is the packed crossing set of edge eid and
    ``inside[eid]`` is 1 while the set holds edge eid.  ``cross`` and the
    safe flags are g's :func:`crossing_table`, built once per graph and
    shared by all of its Boundaries, so a Boundary costs one pass over
    its own edges.
    """

    __slots__ = ("layout", "cross", "_safe", "inside", "safe", "total")

    def __init__(self, g: FaultGraph, edge_ids: Iterable[int] = ()):
        trace.count("cuts.boundaries")
        self.layout = layout_of(g)
        self.cross, self._safe = cross, safe = crossing_table(g)
        self.inside = inside = bytearray(g.m)
        # The rule of add, with the sums in locals.
        total = safe_total = 0
        for eid in edge_ids:
            cuts = cross[eid]
            total += cuts
            if safe[eid]:
                safe_total += cuts
            inside[eid] = 1
        self.total, self.safe = total, safe_total

    def add(self, eid: int) -> None:
        cuts = self.cross[eid]
        self.total += cuts
        if self._safe[eid]:
            self.safe += cuts
        self.inside[eid] = 1

    def cut_off(self, fail: Iterable[int]) -> int:
        """The guard set of cuts that no edge of the set outside ``fail``
        crosses: those where the set's edges in ``fail`` count as many as
        all of its edges."""
        cross, inside = self.cross, self.inside
        dead = 0
        for eid in fail:
            if inside[eid]:
                dead += cross[eid]
        return self.layout.equal(self.total, dead)

    def deficient(self, p: int, q: int) -> int:
        """Guard set of the cuts with fewer than p safe and fewer than p+q
        edges, which fail (p, q)-flex-connectivity for a pair they separate."""
        lay = self.layout
        return lay.guards ^ (lay.at_least(self.safe, p) | lay.at_least(self.total, p + q))

    def tight(self, p: int, q: int) -> int:
        """Guard set of the cuts with exactly p+q-1 edges, fewer than p of
        them safe: the cuts that lifting (p, q-1) to (p, q) must cover."""
        lay = self.layout
        return lay.exactly(self.total, p + q - 1) & ~lay.at_least(self.safe, p)
