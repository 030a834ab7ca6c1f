"""Ground-truth feasibility oracles and violated-structure enumerators.

Three fault models share the same verification style: exhaustively sweep the
relevant failure/cut space and either certify feasibility or return a
constructive witness; every algorithm in the package is validated against
them.  ``is_flex_feasible`` and ``violated_cuts_flex_aug`` sweep every cut
at once on the packed cut kernel (``faultnet.cuts``), and
``expand_rsndp_to_bulk`` asks it which cuts each failure set cuts off
(``Boundary.cut_off``).  So do the bulk level oracle
(``_violations_of_level``, which ``violating_edge_sets_bulk`` asks) and
its precondition (``_check_prior_levels``), once per scenario: they list
no sub-failure, but read each violating set off the H-boundary of a cut
(``_cut_boundaries``).  The relative level oracle
(``_relative_violations``) reads its violating sets off the same
H-boundaries with no scenario list, and asks ``cut_off`` on G once per
set, and so does the check of record ``is_rsndp_feasible``; the exact
search reads relative requirements as cut classes, so the relative
expansion serves only the tests.  The bulk check of record
``is_bulk_feasible`` tests connectivity by union-find, one failure set at
a time.  The relative expansion is the only one left: no
driver lists the scenarios of the flex-to-bulk reduction.  Every
failure-set enumeration here that no input lists comes from
:func:`faultnet.graph.failure_sets`, which checks it against the
enumeration budget first.

Key equivalence used throughout (Menger): a pair (s, t) is (p, q)-flex-
connected in H iff every s-t cut has at least p safe edges or at least p+q
total edges of H on its boundary.  The sweeps below test that cut form and
construct the failing edge set B from a violating cut when asked.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache
from typing import Callable, Iterable, Sequence

from . import trace
from .cover import CutFamily
from .cuts import Boundary, first_mask, layout_of, masks, separating
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
        """All-pairs uniform flex requirements: the spanning problem."""
        if self.kind != "flex" or uniform_pq(self.flex) is None:
            return False
        pairs = {(min(r.s, r.t), max(r.s, r.t)) for r in self.flex}
        return pairs == {(u, v) for u in range(n) for v in range(u + 1, n)}


def check_problem_feasible(g: FaultGraph, problem: Problem, H: Iterable[int]):
    """(ok, witness) for H under whichever fault model the problem uses."""
    if problem.kind == "flex":
        return is_flex_feasible(g, problem.flex, H)
    if problem.kind == "bulk":
        return is_bulk_feasible(g, problem.scenarios, H)
    return is_rsndp_feasible(g, problem.relative, H)


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
    deficient = cache(Boundary(g, H).deficient)
    for req in reqs:
        bad = separating(g.n, req.s, req.t) & deficient(req.p, req.q)
        if bad:
            mask = first_mask(g.n, bad, req.s)
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
            for F, _ in _cut_boundaries(g, H, [((req.s, req.t), lay.compact(light))]):
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
    violated = 0
    for r in reqs:
        if r.q >= 1:
            violated |= separating(g.n, r.s, r.t) & counts.tight(r.p, r.q)
    return CutFamily(
        graph=g,
        cuts=violated,
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
            cuts = lay.compact(bad)
            scoped = [(pair, cuts & separating(g.n, *pair)) for pair in sc.pairs]
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
        return _cut_boundaries(g, H, [(pair, lay.compact(dead)) for pair, dead in dead_of.items()])

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
        cuts_of = [(pair, lay.compact(exact & scope)) for pair, scope in scope_of.items()]
        return [
            (F, pair)
            for F, pair in _cut_boundaries(g, H, cuts_of)
            if not cut_off(F) & scope_of[pair]
        ]

    return violations


def _cut_boundaries(
    g: FaultGraph, H: frozenset, cuts_of: Iterable[tuple[tuple[int, int], int]]
) -> list[tuple[frozenset, tuple[int, int]]]:
    """The distinct (δ_H(S), pair) of each cut S in the cut set of each
    (pair, cut set), sorted by edge ids and then pair."""
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
