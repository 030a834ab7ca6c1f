"""Covering engines for cut families.

Two engines back every augmentation step in the package:

* :func:`primal_dual_cover` - the classic synchronized-dual-growth
  2-approximation for covering an uncrossable family, with reverse delete
  and an explicit dual lower bound certificate.
* :func:`ring_cover_exact` - exact minimum-cost cover for ring families
  (closure-verified), via branch and bound with an LP bound at the root.

Plus :func:`ecsndp_base`, the primal-dual (p_i, 0) base that the flexible
solvers use above the exact search budget, :func:`check_uncrossable`, the
enumerating property checker used by the structure tests, and
:func:`exact_cover`, the shared exact set-cover search.

A :class:`CutFamily` is one kernel cut set (see :mod:`faultnet.cuts`),
optionally oriented by one vertex.  Its members and its membership test
both decode that set, the violated members under a partial cover are one
mask-and of cut sets, their inclusion-minimal members a few shifts of that
cut set (:meth:`CutFamily.minimal`), and an edge's load in the dual growth
is the popcount of its crossing set over the active cuts.  Dual growth runs
in exact integer arithmetic over one common denominator (every float cost is
a binary fraction), so tight-edge detection never drifts and the dual bound
is the correctly rounded float of the exact rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import lcm
from typing import Callable, Iterable, Mapping, Sequence

from . import trace
from .cuts import Boundary, all_cuts, crossed, masks, predicate, separating, side
from .errors import NotRingFamily, Uncoverable
from .graph import FaultGraph, VertexCut, boundary, guard_sweep
from .simplex import SimplexStatus, solve_dense_lp


@dataclass(frozen=True, eq=False)
class CutFamily:
    """A family of vertex cuts over a fixed partial solution.

    ``cuts`` is the family as one kernel cut set.  ``side`` orients its
    members: each member is the side of its cut that holds vertex ``side``,
    or the anchor-free side when ``side`` is None.  ``members`` decodes the
    cut set once into those sides, as sorted bit masks.  ``contains`` is the
    membership test on any mask: a side of a cut in ``cuts`` and, with
    ``side`` set, the side that holds it (with ``side`` None, either side).
    ``ground`` is the candidate edge set a cover may buy from.
    """

    graph: FaultGraph
    cuts: int
    ground: frozenset
    label: str = ""
    side: int | None = None

    @cached_property
    def members(self) -> tuple[int, ...]:
        return tuple(masks(self.graph.n, self.cuts, self.side))

    @cached_property
    def contains(self) -> Callable[[int], bool]:
        return predicate(self.graph.n, self.cuts, self.side)

    def violated(self, A: Iterable[int]) -> int:
        """The cut set of members that no edge of A crosses."""
        return self.cuts & ~crossed(self.graph, A)

    def minimal(self, cuts: int) -> int:
        """The cut set of the inclusion-minimal members among ``cuts``.

        The sides strictly above a member are that member grown by one
        vertex and then by any more.  Growing a member by a vertex v other
        than ``side`` and the anchor moves its cut's bit by 2^v: up when the
        member is the named side (the side without the anchor), down when it
        is the complement.  Growing a named side by the anchor gives the
        complement of the rest, the cut index reversed.  So the members
        above another one are a few shifts of ``cuts``, and the minimal ones
        are the rest.  No cuts, the state of an empty family and of every
        finished cover, have no minimal member and need no shifts.
        """
        if not cuts:
            return 0
        low, high, dims, width = _orientation(self.graph.n, self.side)
        a, b = cuts & low, cuts & high
        up_a = up_b = 0
        for sd_v, shift in dims:  # one step up
            up_a |= (a & ~sd_v) << shift
            up_b |= (b & sd_v) >> shift
        for sd_v, shift in dims:  # and any more
            up_a |= (up_a & ~sd_v) << shift
            up_b |= (up_b & sd_v) >> shift
        above = up_a | up_b
        if width:
            grown = (a | up_a) & ((1 << width) - 1)
            if grown:
                above |= int(format(grown, f"0{width}b")[::-1], 2)
        return cuts & ~above


@lru_cache(maxsize=None)
def _orientation(n: int, s: int | None) -> tuple[int, int, tuple[tuple[int, int], ...], int]:
    """(low, high, dims, width) of members oriented by ``s``: the cut sets
    of cuts whose member is the named side (``low``) or its complement
    (``high``, members that hold the anchor), each vertex v that a member
    may grow by, other than ``s`` and the anchor, as (``side(n)[v]``,
    2^v), and the width of the index reversal that grows a named side by
    the anchor (0 when no member grows that way)."""
    sd = side(n)
    every = all_cuts(n)
    low = every if s is None else sd[s]
    dims = tuple((sd[v], 1 << v) for v in range(n - 1) if v != s)
    width = (1 << (n - 1)) - 2 if s is not None and low else 0
    return low, every ^ low, dims, width


@dataclass(frozen=True)
class CoverResult:
    """Cover plus its primal-dual certificate and the add/drop trace."""

    edges: frozenset
    dual_lower_bound: float
    trace: tuple[tuple[str, int], ...]


def primal_dual_cover(fam: CutFamily) -> CoverResult:
    """Cover the family by synchronized dual growth plus reverse delete.

    Duals grow uniformly on all currently minimal violated sets; the edge
    whose cost is exhausted first goes into the solution (ties to the
    smallest id).  When the family is uncrossable the result costs at most
    twice the returned dual lower bound, which itself never exceeds the
    optimum cover cost.

    The growth is exact on integers.  Each residual cost and the dual bound
    are numerators over one common denominator ``den``, at first the lcm of
    the costs' ``as_integer_ratio`` denominators.  A step grows by the least
    residual / load, found by cross-multiplication; if that load exceeds 1
    every numerator and ``den`` are scaled by it.  The bound is ``dual /
    den`` in correctly rounded int division, the float of the same
    rational.  The violated cut set is kept from step to step, less each
    chosen edge's crossing set, and each step grows on its minimal members
    (:meth:`CutFamily.minimal`).

    A family with no member costs nothing: it returns no edges, a dual
    bound of 0.0 and an empty trace before any table is built.
    """
    violated = fam.cuts
    active = fam.minimal(violated)
    if not active:
        trace.count("cover.covers")
        trace.count("cover.steps", 0)
        trace.count("cover.drops", 0)
        return CoverResult(frozenset(), 0.0, ())
    g = fam.graph
    cross = {eid: crossed(g, (eid,)) for eid in fam.ground}
    ratios = {eid: g.cost_of(eid).as_integer_ratio() for eid in fam.ground}
    den = lcm(*(d for _n, d in ratios.values()))
    residual = {eid: num * (den // d) for eid, (num, d) in ratios.items()}
    dual = 0
    candidates = sorted(fam.ground)
    chosen: list[int] = []
    steps: list[tuple[str, int]] = []
    while active:
        # load = number of active cuts an edge would cross
        loads = {}
        reached = 0
        for eid in candidates:
            x = cross[eid]
            load = (x & active).bit_count()
            if load:
                loads[eid] = load
            reached |= x
        if active & ~reached:
            mask = masks(g.n, active & ~reached, fam.side)[0]
            raise Uncoverable(
                f"violated cut {VertexCut(g.n, mask).vertices()} has no "
                f"candidate edge ({fam.label})"
            )
        # delta = r / l, the least residual / load
        r, l = None, 1
        for eid, load in loads.items():
            if r is None or residual[eid] * l < r * load:
                r, l = residual[eid], load
        if l > 1:
            for eid in residual:
                residual[eid] *= l
            dual *= l
            den *= l
        dual += r * active.bit_count()
        tight = None
        for eid, load in loads.items():
            residual[eid] -= r * load
            if residual[eid] <= 0 and tight is None:
                tight = eid
        candidates.remove(tight)
        violated &= ~cross[tight]
        chosen.append(tight)
        steps.append(("add", tight))
        active = fam.minimal(violated)
    # Reverse delete: drop in reverse addition order when still covering.
    kept = list(chosen)
    for eid in reversed(chosen):
        trial = [x for x in kept if x != eid]
        if not fam.violated(trial):
            kept = trial
            steps.append(("drop", eid))
    trace.count("cover.covers")
    trace.count("cover.steps", len(chosen))
    trace.count("cover.drops", len(chosen) - len(kept))
    return CoverResult(frozenset(kept), dual / den, tuple(steps))


def ecsndp_base(g: FaultGraph, reqs) -> frozenset:
    """Levelwise primal-dual base for p_i-edge-connectivity between each
    requirement's pair (s, t), used when the exact search budget is exceeded.

    Level k covers the cuts that separate a pair with p_i >= k and carry
    exactly k-1 chosen edges, an uncrossable family.
    """
    F: frozenset = frozenset()
    for k in range(1, max(r.p for r in reqs) + 1):
        scope = 0
        for r in reqs:
            if r.p >= k:
                scope |= separating(g.n, r.s, r.t)
        counts = Boundary(g, F)
        level = scope & counts.exactly(counts.total, k - 1)
        fam = CutFamily(
            graph=g,
            cuts=level,
            ground=g.all_edge_ids() - F,
            label=f"ecsndp level {k}",
        )
        F = F | primal_dual_cover(fam).edges
    return F


# -- exact covering -----------------------------------------------------------

def exact_cover(
    rows: Sequence[frozenset], costs: Mapping[int, float]
) -> tuple[frozenset, float]:
    """Exact minimum-cost hitting of every row (a row is a candidate set).

    Branch and bound: branch over the candidates of an uncovered row with
    the fewest options, with a greedy upper bound and an admissible
    max-over-rows cheapest-candidate lower bound.  Deterministic.
    """
    rows = [frozenset(r) for r in rows]
    for r in rows:
        if not r:
            raise Uncoverable("row with no candidates")
    # Dominated rows (supersets of another row) are implied.
    rows.sort(key=len)
    reduced: list[frozenset] = []
    for r in rows:
        if not any(prev <= r for prev in reduced):
            reduced.append(r)
    rows = reduced
    if not rows:
        return frozenset(), 0.0

    universe = sorted(set().union(*rows))

    # Greedy upper bound: best newly-hit count per cost.
    uncovered = set(range(len(rows)))
    greedy: set[int] = set()
    while uncovered:
        best_e, best_key = None, None
        for eid in universe:
            newly = sum(1 for i in uncovered if eid in rows[i])
            if newly == 0:
                continue
            c = costs[eid]
            key = (c / newly, eid)
            if best_key is None or key < best_key:
                best_e, best_key = eid, key
        greedy.add(best_e)
        uncovered = {i for i in uncovered if best_e not in rows[i]}
    best_cost = sum(costs[e] for e in greedy)
    best_set = frozenset(greedy)

    order_cache: dict[frozenset, list[int]] = {}

    def candidates_sorted(row: frozenset) -> list[int]:
        if row not in order_cache:
            order_cache[row] = sorted(row, key=lambda e: (costs[e], e))
        return order_cache[row]

    def search(chosen: set, chosen_cost: float, banned: frozenset) -> None:
        nonlocal best_cost, best_set
        open_rows = [r for r in rows if not (r & chosen)]
        if not open_rows:
            if chosen_cost < best_cost - 1e-12:
                best_cost = chosen_cost
                best_set = frozenset(chosen)
            return
        lb = 0.0
        pick_row = None
        for r in open_rows:
            allowed = [e for e in candidates_sorted(r) if e not in banned]
            if not allowed:
                return  # this branch cannot cover r
            lb = max(lb, costs[allowed[0]])
            if pick_row is None or len(allowed) < len(pick_row):
                pick_row = allowed
        if chosen_cost + lb >= best_cost - 1e-12:
            return
        newly_banned = set()
        for e in pick_row:
            chosen.add(e)
            search(chosen, chosen_cost + costs[e], banned | frozenset(newly_banned))
            chosen.remove(e)
            newly_banned.add(e)

    search(set(), 0.0, frozenset())
    return best_set, best_cost


def _ring_verify(fam: CutFamily) -> None:
    """Closure under intersection/union for properly intersecting members,
    plus a unique minimal member."""
    members = fam.members
    minimal = masks(fam.graph.n, fam.minimal(fam.cuts), fam.side)
    if len(minimal) != 1:
        raise NotRingFamily(
            f"{fam.label}: {len(minimal)} minimal members, expected 1",
            witness=tuple(minimal[:2]),
        )
    for i, a in enumerate(members):
        for b in members[i + 1 :]:
            inter = a & b
            if inter == 0 or (a & ~b) == 0 or (b & ~a) == 0:
                continue  # not properly intersecting
            if not (fam.contains(inter) and fam.contains(a | b)):
                raise NotRingFamily(
                    f"{fam.label}: closure fails for a properly intersecting pair",
                    witness=(a, b),
                )


def ring_cover_exact(fam: CutFamily) -> frozenset:
    """Exact min-cost cover of a ring family.

    Verifies the ring property by enumeration, solves the covering problem
    exactly by branch and bound, and cross-checks that the covering LP at
    the root is integral (it must be for a ring family; a gap raises
    :class:`NotRingFamily`).
    """
    if not fam.members:
        return frozenset()
    _ring_verify(fam)
    cost = {eid: fam.graph.cost_of(eid) for eid in fam.ground}
    ground = sorted(fam.ground)
    rows = []
    for mask in fam.members:
        row = boundary(fam.graph, ground, mask)
        if not row:
            raise Uncoverable(
                f"{fam.label}: member {VertexCut(fam.graph.n, mask).vertices()} "
                "has empty candidate boundary"
            )
        rows.append(row)
    picked, ilp = exact_cover(rows, cost)
    lp = _covering_lp_bound(rows, cost)
    if ilp > lp + 1e-6 * max(1.0, abs(ilp)):
        raise NotRingFamily(
            f"{fam.label}: covering LP optimum {lp} is fractional below ILP {ilp}"
        )
    return picked


def _covering_lp_bound(rows: Sequence[frozenset], costs: Mapping[int, float]) -> float:
    universe = sorted(set().union(*rows))
    col = {e: j for j, e in enumerate(universe)}
    obj = [costs[e] for e in universe]
    lp_rows = [([(col[e], 1.0) for e in sorted(r)], 1.0) for r in rows]
    status, x, objective = solve_dense_lp(obj, lp_rows)
    if status is not SimplexStatus.OPTIMAL:
        raise Uncoverable("covering LP infeasible")
    return objective


# -- uncrossability -----------------------------------------------------------

def uncross_pair_ok(membership: Callable[[int], bool], a: int, b: int) -> bool:
    """The defining disjunction for one member pair: both corner sets stay
    in the family under (intersection, union) or under both differences."""
    return (membership(a & b) and membership(a | b)) or (
        membership(a & ~b) and membership(b & ~a)
    )


def check_uncrossable(fam: CutFamily) -> tuple[bool, tuple[VertexCut, VertexCut] | None]:
    """Enumerate member pairs over the full cut domain and test uncrossing.

    The domain is every nonempty proper subset of the vertices, so a family
    without a ``side`` has both orientations of each member examined,
    exactly as the raw definition reads.  Returns the first violating (A, B) if any.
    """
    n = fam.graph.n
    guard_sweep(n)
    members = [m for m in range(1, (1 << n) - 1) if fam.contains(m)]
    for i, a in enumerate(members):
        for b in members[i + 1 :]:
            if not uncross_pair_ok(fam.contains, a, b):
                return False, (VertexCut(n, a), VertexCut(n, b))
    return True, None
