"""Bit-plane cut kernel: boundary counts of an edge set over every cut at once.

Sweeps over all vertex cuts use one canonical index: the cut {S, V-S} is
named by its side that excludes the anchor vertex n-1, a mask c in
1..2^(n-1)-1, and sits at bit c-1.  A *cut set* is a Python int over that
index.  ``side(n)[v]`` is the cut set of the cuts whose named side contains
v, so an edge (u, v) crosses exactly the cuts in ``side[u] ^ side[v]``, and
a pair (s, t) is separated by the same expression.

The boundary counts of an edge set are kept as bit-sliced planes, plane k
holding bit k of every cut's count.  Adding an edge is a ripple-carry add
of its crossing set and removing one is a borrow; threshold tests are
comparators that return cut sets.  Every predicate over all cuts is then a
few big-int operations.  Questions about one given mask go to
:func:`faultnet.graph.boundary` and :func:`faultnet.graph.boundary_counts`.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import zip_longest
from typing import Callable, Iterable

from .graph import FaultGraph


@lru_cache(maxsize=None)
def side(n: int) -> tuple[int, ...]:
    """``side(n)[v]``: the cut set of cuts whose named side contains v."""
    count = 1 << (n - 1)  # masks 0..2^(n-1)-1; mask 0 is no cut
    out = []
    for v in range(n - 1):
        half = 1 << v
        block = ((1 << half) - 1) << half  # masks with bit v, one period
        repeat = ((1 << count) - 1) // ((1 << (2 * half)) - 1)
        out.append((block * repeat) >> 1)
    out.append(0)  # the anchor is never on the named side
    return tuple(out)


def all_cuts(n: int) -> int:
    """The cut set of every cut of an n-vertex graph."""
    return (1 << ((1 << (n - 1)) - 1)) - 1


def separating(n: int, s: int, t: int) -> int:
    """The cut set of cuts that separate s from t."""
    sd = side(n)
    return sd[s] ^ sd[t]


def crossed(g: FaultGraph, edge_ids: Iterable[int]) -> int:
    """The cut set of cuts crossed by at least one of the edges."""
    sd = side(g.n)
    out = 0
    for eid in edge_ids:
        e = g.edges[eid]
        out |= sd[e.u] ^ sd[e.v]
    return out


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
    while cuts:
        low = cuts & -cuts
        mask = low.bit_length()
        if s is not None and not (mask >> s) & 1:
            mask ^= full
        out.append(mask)
        cuts ^= low
    if s is not None:
        out.sort()
    return out


def predicate(n: int, cuts: int, s: int | None = None) -> Callable[[int], bool]:
    """Membership test for any int mask: is it a side of a cut in ``cuts``
    (with ``s`` given, the side that contains s)?"""

    def member(mask: int) -> bool:
        if s is not None and not (mask >> s) & 1:
            return False
        index = cut_index(n, mask)
        return index >= 0 and bool((cuts >> index) & 1)

    return member


class Planes:
    """A count per cut, bit-sliced: ``planes[k]`` is bit k of every count."""

    __slots__ = ("full", "planes")

    def __init__(self, full: int):
        self.full = full
        self.planes: list[int] = []

    def add(self, cuts: int) -> None:
        """Count one more on every cut in ``cuts`` (ripple carry)."""
        planes = self.planes
        for k, plane in enumerate(planes):
            planes[k] = plane ^ cuts
            cuts &= plane
            if not cuts:
                return
        planes.append(cuts)

    def remove(self, cuts: int) -> None:
        """Count one less on every cut in ``cuts``, each counted (borrow)."""
        planes = self.planes
        for k, plane in enumerate(planes):
            planes[k] = plane ^ cuts
            cuts &= ~plane
            if not cuts:
                return

    def count(self, bit: int) -> int:
        """The count of the one cut at ``bit``."""
        out = 0
        for k, plane in enumerate(self.planes):
            out |= ((plane >> bit) & 1) << k
        return out

    def at_least(self, c: int) -> int:
        """The cut set of cuts whose count is at least c."""
        planes = self.planes
        if c <= 0:
            return self.full
        if c >> len(planes):
            return 0
        above, equal = 0, self.full
        for k in range(len(planes) - 1, -1, -1):
            plane = planes[k]
            if (c >> k) & 1:
                equal &= plane
            else:
                above |= equal & plane
                equal &= ~plane
        return above | equal

    def equal(self, other: "Planes") -> int:
        """The cut set of cuts whose count equals their count in ``other``."""
        differ = 0
        for a, b in zip_longest(self.planes, other.planes, fillvalue=0):
            differ |= a ^ b
        return self.full & ~differ

    def exactly(self, c: int) -> int:
        """The cut set of cuts whose count is exactly c."""
        planes = self.planes
        if c < 0 or c >> len(planes):
            return 0
        equal = self.full
        for k, plane in enumerate(planes):
            equal &= plane if (c >> k) & 1 else ~plane
        return equal


class Boundary:
    """Safe and total boundary counts of an edge set over every cut.

    ``cross[eid]`` is the cut set of the cuts that edge eid crosses.
    """

    __slots__ = ("cross", "_safe", "safe", "total")

    def __init__(self, g: FaultGraph, edge_ids: Iterable[int] = ()):
        sd = side(g.n)
        self.cross = [sd[e.u] ^ sd[e.v] for e in g.edges]
        self._safe = [e.safe for e in g.edges]
        full = all_cuts(g.n)
        self.safe = Planes(full)
        self.total = Planes(full)
        for eid in edge_ids:
            self.add(eid)

    def add(self, eid: int) -> None:
        cuts = self.cross[eid]
        self.total.add(cuts)
        if self._safe[eid]:
            self.safe.add(cuts)

    def remove(self, eid: int) -> None:
        cuts = self.cross[eid]
        self.total.remove(cuts)
        if self._safe[eid]:
            self.safe.remove(cuts)

    def deficient(self, p: int, q: int) -> int:
        """Cuts with fewer than p safe and fewer than p+q edges: the cuts
        that fail (p, q)-flex-connectivity for a pair they separate."""
        return self.safe.full & ~(self.safe.at_least(p) | self.total.at_least(p + q))

    def tight(self, p: int, q: int) -> int:
        """Cuts with exactly p+q-1 edges, fewer than p of them safe: the
        cuts that lifting (p, q-1) to (p, q) must cover."""
        return self.total.exactly(p + q - 1) & ~self.safe.at_least(p)
