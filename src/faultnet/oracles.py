"""Ground-truth feasibility oracles, and the one place requirements become
cuts: :func:`cut_classes`, which the exact search tests and the fallback
base of ``flexalg.flex_base`` covers, and the drivers' three level
oracles, bulk (``_violations_of_level``), relative
(``_relative_violations``) and flexible (``_flex_violations``), each a
factory of ``violations(H, counts)``.  The oracles read a pair's cuts
from ``Layout.scope`` and the flexible rule from ``Boundary.deficient``
and ``Boundary.tight``, all guard sets; ``_cut_boundaries`` is the one
decoder of guard sets into edge sets.

Three fault models share the same verification style: exhaustively sweep the
relevant failure/cut space and either certify feasibility or return a
constructive witness; every algorithm in the package is validated against
them.  ``is_flex_feasible`` and ``violated_cuts_flex_aug`` sweep every cut
at once on the packed cut kernel (``faultnet.cuts``), and
``expand_rsndp_to_bulk`` asks it which cuts each failure set cuts off
(``Boundary.cut_off``).  So do the bulk level oracle and its
precondition (``_check_prior_levels``), once per scenario and listing no
sub-failure, and the relative level oracle and the check of record
``is_rsndp_feasible``, on G once per light H-boundary.  The bulk check
of record ``is_bulk_feasible`` tests connectivity by union-find, one
failure set at a time.  No driver or search lists failure sets, so the
relative expansion serves only the tests.  Every failure-set enumeration
here that no input lists comes from :func:`faultnet.graph.failure_sets`,
which checks it against the enumeration budget first.

Key equivalence used throughout (Menger): a pair (s, t) is (p, q)-flex-
connected in H iff every s-t cut has at least p safe edges or at least p+q
total edges of H on its boundary.  The sweeps below test that cut form and
construct the failing edge set B from a violating cut when asked.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache, reduce
from operator import and_
from typing import Callable, Iterable, Sequence

from . import trace
from .cover import CutFamily
from .cuts import Boundary, crossing_table, first_mask, layout_of, masks
from .errors import BaseNotFeasible, PriorLevelNotSatisfied
from .graph import (
    FaultGraph,
    VertexCut,
    boundary,
    component_labels,
    failure_sets,
)


# -- requirement types -----------------------------------------------------

@dataclass(frozen=True)
class FlexRequirement:
    """Pair (s, t) must stay p-edge-connected after any <= q unsafe failures."""

    s: int
    t: int
    p: int
    q: int

    def __post_init__(self):
        if self.s == self.t:
            raise ValueError("s == t in flex requirement")
        if self.p < 1 or self.q < 0:
            raise ValueError("need p >= 1 and q >= 0")


@dataclass(frozen=True)
class BulkScenario:
    """Failure set F_j with the terminal pairs that must survive it."""

    fail: frozenset
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.pairs:
            raise ValueError("scenario with no pairs")
        if any(s == t for s, t in self.pairs):
            raise ValueError("s == t in bulk scenario")


@dataclass(frozen=True)
class RelativeRequirement:
    """Pair (s, t) must match G's connectivity under every |F| < r."""

    s: int
    t: int
    r: int

    def __post_init__(self):
        if self.s == self.t:
            raise ValueError("s == t in relative requirement")
        if self.r < 1:
            raise ValueError("need r >= 1")


# Bounded: an entry holds n(n-1)/2 frozen requirements, 276 at n = 24 (about
# 34 KB), so 32 shapes hold about 1.1 MB at most.
@lru_cache(maxsize=32, typed=True)
def fgc_requirements(n: int, p: int, q: int) -> tuple[FlexRequirement, ...]:
    """All-pairs uniform (p, q) requirements: the spanning/global problem.

    Built once per shape; every call with the same (n, p, q) shares the
    one immutable tuple."""
    return tuple(
        FlexRequirement(u, v, p, q) for u in range(n) for v in range(u + 1, n)
    )


def uniform_pq(reqs: Sequence[FlexRequirement]) -> tuple[int, int] | None:
    """The (p, q) that every requirement shares, or None when they differ
    or there are none."""
    pqs = {(r.p, r.q) for r in reqs}
    return next(iter(pqs)) if len(pqs) == 1 else None


@dataclass(frozen=True)
class Problem:
    """One instance's requirement block: exactly one fault model."""

    kind: str  # "flex" | "bulk" | "rsndp"
    flex: tuple[FlexRequirement, ...] = ()
    scenarios: tuple[BulkScenario, ...] = ()
    relative: tuple[RelativeRequirement, ...] = ()

    def __post_init__(self):
        if self.kind not in ("flex", "bulk", "rsndp"):
            raise ValueError(f"unknown problem kind {self.kind!r}")
        payloads = {
            "flex": self.flex,
            "bulk": self.scenarios,
            "rsndp": self.relative,
        }
        if not payloads[self.kind]:
            raise ValueError(f"{self.kind} problem with empty requirements")

    def is_fgc(self, n: int) -> bool:
        """All-pairs uniform flex requirements: the spanning problem.  The
        pairs are read as a bitmask, pair s < t at bit t(t-1)/2 + s, which
        must hold all n(n-1)/2 bits and no other."""
        if self.kind != "flex":
            return False
        p, q = self.flex[0].p, self.flex[0].q
        seen = 0
        for r in self.flex:
            if r.p != p or r.q != q:
                return False
            s, t = r.s, r.t
            if s > t:
                s, t = t, s
            if s < 0 or s == t:
                return False
            seen |= 1 << (t * (t - 1) // 2 + s)
        return seen == (1 << n * (n - 1) // 2) - 1


def check_problem_feasible(g: FaultGraph, problem: Problem, H: Iterable[int]):
    """(ok, witness) for H under whichever fault model the problem uses."""
    if problem.kind == "flex":
        return is_flex_feasible(g, problem.flex, H)
    if problem.kind == "bulk":
        return is_bulk_feasible(g, problem.scenarios, H)
    return is_rsndp_feasible(g, problem.relative, H)


# -- cut classes --------------------------------------------------------------

def cut_classes(g: FaultGraph, problem: Problem) -> dict[tuple[int, int], int]:
    """The problem's cut classes, {(p, q): guard set}: a class fails on a
    cut of its set with fewer than p safe and fewer than p + q edges.  Flex
    pairs give one class per (p, q), in sorted order, on the cuts that
    separate one of the class's pairs; relative ones the (k, 0) classes of
    :func:`_relative_classes`; bulk scenarios none."""
    if problem.kind == "rsndp":
        return _relative_classes(g, problem.relative)
    pairs: dict[tuple[int, int], list] = {}
    for r in problem.flex:
        pairs.setdefault((r.p, r.q), []).append((r.s, r.t))
    lay = layout_of(g)
    return {pq: lay.scope(pairs[pq]) for pq in sorted(pairs)}


def _relative_classes(g: FaultGraph, reqs: Iterable[RelativeRequirement]) -> dict:
    """The relative requirements as (k, 0) classes: {(k, 0): guard set}.

    H fails (s, t, r) exactly when some F of fewer than r edges leaves s and
    t connected in G but not in H.  Then F holds δ_H(S) for a scope cut S
    (a cut that separates s and t), and F = δ_H(S) fails H too, so by
    Menger's theorem H fails exactly when a scope cut has |δ_H(S)| < r and
    δ_H(S) holds no s-t cut-set of G.  Such a cut-set has fewer than r
    edges, so it holds the G-boundary of a *light* scope cut, one that G
    crosses fewer than r times, and then a *minimal* light cut-set D: a
    light boundary δ_G(S') that holds no other.  Say D *covers* S when
    every edge of D crosses S.  Then H is feasible exactly when it holds
    every edge of each minimal D and crosses each scope cut that no D
    covers at least r times:

    - if so, a scope cut S with |δ_H(S)| < r is covered by some D, which
      then lies in δ_H(S), so G - δ_H(S) does not connect s and t either;
    - H must hold each D: for e in D, D - e holds no light boundary, so
      G - (D - e) connects s and t, and H, which crosses S' only on edges
      of D, must cross it through e;
    - H must cross an uncovered scope cut S at least r times: else G -
      δ_H(S) still connects s and t, since a light boundary in δ_H(S) ⊆
      δ_G(S), and some D in it, would cover S.

    So a pair gives a (k, 0) class on the cuts whose G-boundary is a
    minimal D of k edges, and an (r, 0) class on its uncovered scope cuts,
    for its largest r (a smaller r asks less).  A pair that G does not
    connect gives nothing: ∅ is a light boundary that covers every cut.
    The classes are grouped by k and listed from the highest k down, each
    with only the cuts that no higher-k class holds, since a cut's count
    that meets k meets every lower one.  G meets every class.
    """
    lay = layout_of(g)
    cross, _safe = crossing_table(g)
    whole = sum(cross)
    crossed = lay.at_least(whole, 1)
    largest: dict[tuple[int, int], int] = {}
    for req in reqs:
        pair = (min(req.s, req.t), max(req.s, req.t))
        largest[pair] = max(largest.get(pair, 0), req.r)
    by_k: dict[int, int] = {}
    for pair, r in largest.items():
        scope = lay.scope([pair])
        if scope & ~crossed:
            continue
        light = scope & ~lay.at_least(whole, r)
        boundaries = {F for F, _ in _cut_boundaries(g, g.all_edge_ids(), [(pair, light)])}
        minimal: list[frozenset] = []
        covered = 0
        for cut_set in sorted(boundaries, key=len):
            if any(kept <= cut_set for kept in minimal):
                continue
            minimal.append(cut_set)
            cover = reduce(and_, (cross[eid] for eid in cut_set)) << (lay.width - 1)
            covered |= cover
            k = len(cut_set)
            by_k[k] = by_k.get(k, 0) | (light & cover & lay.exactly(whole, k))
        by_k[r] = by_k.get(r, 0) | (scope & ~covered)
    scopes, held = {}, 0
    for k in sorted(by_k, reverse=True):
        if by_k[k] & ~held:
            scopes[k, 0] = by_k[k] & ~held
            held |= by_k[k]
    return scopes


# -- witnesses ---------------------------------------------------------------

@dataclass(frozen=True)
class FlexWitness:
    requirement: FlexRequirement
    removed: frozenset  # the unsafe failure set B
    cut: VertexCut


@dataclass(frozen=True)
class BulkWitness:
    scenario_index: int
    pair: tuple[int, int]


@dataclass(frozen=True)
class RsndpWitness:
    requirement: RelativeRequirement
    fail: frozenset


# -- flex feasibility --------------------------------------------------------

def is_flex_feasible(
    g: FaultGraph, reqs: Sequence[FlexRequirement], H: Iterable[int]
) -> tuple[bool, FlexWitness | None]:
    """Check every requirement against every <= q_i unsafe failure set.

    Uses the cut form of the definition (sweep all s-t cuts; a cut is bad for
    requirement i when it has fewer than p_i safe edges and fewer than
    p_i + q_i total edges).  The bad cuts of each (p, q) class are computed
    once.  On failure returns the witness (B, cut) of the first failing
    requirement, with B the worst unsafe edges on the violating boundary.
    """
    H = frozenset(H)
    counts = Boundary(g, H)
    lay = counts.layout
    deficient = cache(counts.deficient)
    for req in reqs:
        bad = lay.scope(((req.s, req.t),)) & deficient(req.p, req.q)
        if bad:
            mask = first_mask(g.n, lay.compact(bad), req.s)
            bad_unsafe = sorted(
                eid for eid in boundary(g, H, mask) if not g.edges[eid].safe
            )
            B = frozenset(bad_unsafe[: req.q])
            return False, FlexWitness(req, B, VertexCut(g.n, mask))
    return True, None


def _connected_pairs_ok(g, alive, pairs):
    label = component_labels(g, alive)
    return [(u, v) for u, v in pairs if label[u] != label[v]]


def is_bulk_feasible(
    g: FaultGraph, scenarios: Sequence[BulkScenario], H: Iterable[int]
) -> tuple[bool, BulkWitness | None]:
    """Every scenario's pairs must be connected in H minus its failure set."""
    trace.count("oracles.bulk_checks")
    H = frozenset(H)
    for j, sc in enumerate(scenarios):
        broken = _connected_pairs_ok(g, H - sc.fail, sc.pairs)
        if broken:
            return False, BulkWitness(j, broken[0])
    return True, None


def is_rsndp_feasible(
    g: FaultGraph, reqs: Sequence[RelativeRequirement], H: Iterable[int]
) -> tuple[bool, RsndpWitness | None]:
    """Check H on Menger's cut condition: H fails (s, t, r) exactly when a
    cut S that separates s and t has |δ_H(S)| < r and G - δ_H(S) still
    connects s and t.  Each requirement whose pair G connects decodes the
    light cuts in its scope and asks ``cut_off`` on G.  The witness
    (requirement, δ_H(S)) has the fewest edges, then the smallest sorted
    edge list, then the first requirement: the first violation that a
    listing of every F by size, in ``combinations`` order, would meet."""
    trace.count("oracles.rsndp_checks")
    H = frozenset(H)
    counts = Boundary(g, H)
    whole = Boundary(g, g.all_edge_ids())
    lay = counts.layout
    apart = whole.cut_off(())
    bad = []
    for i, req in enumerate(reqs):
        scope = lay.scope([(req.s, req.t)])
        light = scope & ~lay.at_least(counts.total, req.r)
        if light and not apart & scope:
            for F, _ in _cut_boundaries(g, H, [((req.s, req.t), light)]):
                if not whole.cut_off(F) & scope:
                    bad.append(((len(F), sorted(F), i), RsndpWitness(req, F)))
    if bad:
        return False, min(bad)[1]  # distinct keys: no two witnesses are compared
    return True, None


# -- violated cut family for flex augmentation -------------------------------

def violated_cuts_flex_aug(
    g: FaultGraph, reqs: Sequence[FlexRequirement], F1: Iterable[int]
) -> CutFamily:
    """Family of violated cuts when augmenting F1 from (p, q-1) to (p, q).

    A cut S is violated iff it separates some pair i, its F1-boundary has
    exactly p_i + q_i - 1 edges, and fewer than p_i of them are safe.
    Requires F1 feasible at (p_i, q_i - 1) for every pair; the returned
    family's canonical member orientation is the s-side for a single pair
    and the anchor-free side otherwise.
    """
    reqs = tuple(reqs)
    if not reqs:
        raise ValueError("no requirements")
    F1 = frozenset(F1)
    prior = [
        FlexRequirement(r.s, r.t, r.p, r.q - 1) for r in reqs if r.q >= 1
    ]
    ok, witness = is_flex_feasible(g, prior, F1)
    if not ok:
        raise BaseNotFeasible(f"F1 is not (p, q-1)-feasible: {witness}")
    counts = Boundary(g, F1)
    lay = counts.layout
    violated = 0
    for r in reqs:
        if r.q >= 1:
            violated |= lay.scope(((r.s, r.t),)) & counts.tight(r.p, r.q)
    return CutFamily(
        graph=g,
        cuts=lay.compact(violated),
        ground=g.all_edge_ids() - F1,
        label=f"flex-aug({len(reqs)} reqs)",
        side=reqs[0].s if len(reqs) == 1 else None,
    )


# -- bulk violated edge sets --------------------------------------------------

def violating_edge_sets_bulk(
    g: FaultGraph,
    scenarios: Sequence[BulkScenario],
    H: Iterable[int],
    level: int,
) -> list[tuple[frozenset, tuple[int, int]]]:
    """All (F, pair) with F inside some scenario, |F| = level, pair cut off.

    Requires H to satisfy every sub-scenario of size < level, or raises
    PriorLevelNotSatisfied; that makes each returned F minimal (no proper
    subset disconnects the pair).  Results are deduplicated and sorted for
    reproducibility.  Both steps run on the cut kernel.
    """
    H = frozenset(H)
    _check_prior_levels(g, scenarios, H, level)
    return _violations_of_level(g, scenarios, level)(H, Boundary(g, H))


def _check_prior_levels(
    g: FaultGraph, scenarios: Sequence[BulkScenario], H: frozenset, level: int
) -> None:
    """Raise PriorLevelNotSatisfied unless every pair of every scenario
    survives each of its sub-failures of size < level in H.  A superset of
    H passes whenever H does.

    A sub-failure F of F_j cuts a pair exactly when a cut S that separates
    the pair has δ_H(S) inside F, and δ_H(S) is then a sub-failure of F_j
    that cuts the pair with no more edges than F.  So each scenario takes
    one packed test: a cut in its pairs' scope with at most level - 1
    edges of H that F_j cuts off.  The message names, for the first
    failing scenario, a smallest such δ_H(S), a minimal sub-failure, and
    the pair it cuts."""
    if level == 0:
        return
    counts = Boundary(g, H)
    lay = counts.layout
    light = ~lay.at_least(counts.total, level)
    for sc in scenarios:
        bad = light & lay.scope(sc.pairs)
        if bad:
            bad &= counts.cut_off(sc.fail)
        if bad:
            scoped = [(pair, bad & lay.scope((pair,))) for pair in sc.pairs]
            F, pair = min(_cut_boundaries(g, H, scoped), key=lambda fp: len(fp[0]))
            raise PriorLevelNotSatisfied(f"pair {pair} cut by sub-failure {tuple(sorted(F))}")


def _violations_of_level(
    g: FaultGraph, scenarios: Sequence[BulkScenario], level: int
) -> Callable[[frozenset, Boundary], list[tuple[frozenset, tuple[int, int]]]]:
    """The level oracle: the (F, pair) tuples of ``violating_edge_sets_bulk``
    at ``level`` without its precondition check, as a function of H and
    H's Boundary, on the cut kernel.

    Its answer is right for every H that meets the precondition.  Then a
    failure set F of ``level`` edges inside F_j that cuts a pair is, by
    Menger, the H-boundary of a cut S that separates the pair: δ_H(S) lies
    inside F and cuts the pair, so it has at least ``level`` edges and is
    F.  The violating sets are therefore the δ_H(S) of the cuts in a
    pair's scope with exactly ``level`` edges of H that F_j cuts off: one
    ``cut_off(F_j)`` per scenario with at least ``level`` failed edges and
    a cut in its scope with exactly ``level`` edges of H, then one decode
    of each pair's cuts (:func:`_cut_boundaries`).
    """
    trace.count("oracles.level_builds")
    lay = layout_of(g)
    tested = [(lay.scope(sc.pairs), sc.fail, sc.pairs) for sc in scenarios if len(sc.fail) >= level]
    scope_of = {pair: lay.scope((pair,)) for _scope, _fail, pairs in tested for pair in pairs}

    def violations(H: frozenset, counts: Boundary) -> list[tuple[frozenset, tuple[int, int]]]:
        trace.count("oracles.level_evaluations")
        exact = lay.exactly(counts.total, level)
        dead_of: dict[tuple[int, int], int] = {}
        for scope, fail, pairs in tested:
            if exact & scope:
                dead = exact & counts.cut_off(fail)
                for pair in pairs:
                    dead_of[pair] = dead_of.get(pair, 0) | (dead & scope_of[pair])
        if not dead_of:
            return []
        return _cut_boundaries(g, H, dead_of.items())

    return violations


def _relative_violations(
    g: FaultGraph, reqs: Sequence[RelativeRequirement], level: int, whole: Boundary
) -> Callable[[frozenset, Boundary], list[tuple[frozenset, tuple[int, int]]]]:
    """The relative level oracle: the (F, pair) tuples that
    ``_violations_of_level(g, expand_rsndp_to_bulk(g, reqs), level)``
    gives, as a function of H and H's Boundary, with no scenario list;
    ``whole`` is G's Boundary.

    Its answer is right for every H that meets the expansion's
    precondition: for each F of fewer than ``level`` edges, H - F connects
    every pair that G - F connects and whose requirement has r > |F|.
    Then, by the Menger argument of ``_violations_of_level``, a violating
    F of ``level`` edges is the H-boundary of a cut S that separates the
    pair with exactly ``level`` edges of H.  So the oracle keeps the pairs
    of requirements with r > ``level`` that G connects, decodes the cuts
    in each one's scope with exactly ``level`` edges of H
    (:func:`_cut_boundaries`), and keeps each (δ_H(S), pair) whose pair
    G - δ_H(S) still connects: one ``cut_off`` on G's Boundary per
    distinct δ_H(S), kept for the oracle's life.
    """
    trace.count("oracles.level_builds")
    lay = whole.layout
    apart = whole.cut_off(())
    scope_of: dict[tuple[int, int], int] = {}
    for r in reqs:
        pair = (r.s, r.t)
        if r.r > level and pair not in scope_of:
            scope = lay.scope((pair,))
            if not apart & scope:
                scope_of[pair] = scope
    cut_off = cache(whole.cut_off)

    def violations(H: frozenset, counts: Boundary) -> list[tuple[frozenset, tuple[int, int]]]:
        trace.count("oracles.level_evaluations")
        exact = lay.exactly(counts.total, level)
        guards_of = [(pair, exact & scope) for pair, scope in scope_of.items()]
        return [
            (F, pair)
            for F, pair in _cut_boundaries(g, H, guards_of)
            if not cut_off(F) & scope_of[pair]
        ]

    return violations


def _flex_violations(
    g: FaultGraph, reqs: Sequence[FlexRequirement], round_index: int
) -> Callable[[frozenset, Boundary], list[tuple[frozenset, tuple[int, int]]]]:
    """The flexible round oracle: the minimal violating (F, pair) sets of
    the round's active pairs, each keyed (s, t) as given, as a function of
    H and H's Boundary.

    With H feasible at (p_i, round-1), a minimal violating F for pair i is,
    by Menger, exactly the H-boundary of an s-t cut with p_i + round - 1
    edges of H, fewer than p_i of them safe: a tight cut of the kernel.
    """
    lay = layout_of(g)
    active = [((r.s, r.t), r.p, lay.scope(((r.s, r.t),))) for r in reqs if r.q >= round_index]

    def violations(H: frozenset, counts: Boundary) -> list[tuple[frozenset, tuple[int, int]]]:
        tight = [(pair, scope & counts.tight(p, round_index)) for pair, p, scope in active]
        return _cut_boundaries(g, H, tight)

    return violations


def _cut_boundaries(
    g: FaultGraph, H: frozenset, guards_of: Iterable[tuple[tuple[int, int], int]]
) -> list[tuple[frozenset, tuple[int, int]]]:
    """The distinct (δ_H(S), pair) of each cut S in the guard set of each
    (pair, guard set), sorted by edge ids and then pair."""
    compact = layout_of(g).compact
    cuts_of = [(pair, compact(guards)) for pair, guards in guards_of]
    out = {(boundary(g, H, mask), pair) for pair, cuts in cuts_of for mask in masks(g.n, cuts)}
    return sorted(out, key=lambda fp: (sorted(fp[0]), fp[1]))


# -- expansions into the bulk model -------------------------------------------

def expand_rsndp_to_bulk(
    g: FaultGraph, reqs: Sequence[RelativeRequirement]
) -> tuple[BulkScenario, ...]:
    """Scenario list equivalent to the relative requirements.

    For each F with |F| <= max r_i - 1 keep the pairs with r_i > |F| that G
    itself still connects after removing F; empty scenarios are dropped.
    G - F connects a pair when no cut that separates it is a zero cut of
    G - F, one that only edges of F cross: a cut that F cuts off in G
    (:meth:`faultnet.cuts.Boundary.cut_off`).
    """
    reqs = tuple(reqs)
    width = max(r.r for r in reqs) - 1
    # Checked before the cut sweep, so that a refusal names the failure sets.
    listed = failure_sets(g.m, width)
    counts = Boundary(g, g.all_edge_ids())
    scoped = [(r.r, (r.s, r.t), counts.layout.scope([(r.s, r.t)])) for r in reqs]
    out = []
    for F in listed:
        zero = counts.cut_off(F)
        pairs = [pair for r, pair, scope in scoped if r > len(F) and not zero & scope]
        if pairs:
            out.append(BulkScenario(frozenset(F), tuple(sorted(set(pairs)))))
    return tuple(out)
