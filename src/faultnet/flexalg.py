"""Constant-factor algorithms for flexible connectivity.

Spanning case (solve_fgc): a base at level (p, 0) from flex_base (the exact
optimum within the search budget, else the primal-dual on cut classes, one
plan per level), then one augmentation round per unsafe-failure level as
make_fgc_plan lays it out.  That is the solver's only (p, q) case split: its
supported set (fgc_plans) and its guarantee (fgc_guarantee) are read off
the plans.  augment_stages runs the levels of both.

Single-pair case (solve_flex_st, solve_flex_st_22): each round seeds the
partial solution with the support of a min-cost flow under capacities
(safe: p+q, unsafe: p) and demand p(p+q), decomposes that flow into unit
paths, and covers each stage's violated cuts through ring subfamilies
indexed by path subsets, each solved exactly.  Requires p+q > pq/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import comb
from typing import Iterable, Sequence

from . import trace
from .cover import CutFamily, primal_dual_cover, ring_cover_exact
from .cuts import Boundary, cut_index, first_mask, masks
from .errors import (
    BaseNotFeasible,
    InfeasibleInstance,
    ParameterConditionViolated,
    StageCoverFailed,
    UnsupportedParameters,
)
from .exact import exact_budget, exact_solve
from .flow import flow_decompose, min_cost_flow
from .graph import FaultGraph, boundary
from .oracles import FlexRequirement, Problem, cut_classes, fgc_requirements, is_flex_feasible


@dataclass(frozen=True)
class StagePlan:
    """Per-level augmentation plan: target (p, q), scope, ordered stages.

    A stage is the safe-boundary count of the violated cuts it covers, or
    None for all violated cuts at once.  The scope is the cuts the plan
    constrains: every cut, the s-t cuts, or the guard set ``guards`` (a
    fallback base level, p = k and q = 0).  It picks the cover engine:
    s-t stages are ring families covered exactly, the others one
    primal-dual family each.  Stages 0..p-1 are a ``range``, of any p.
    """

    p: int
    q: int
    scope: str  # "spanning" | "st" | "cuts"
    s: int = 0
    t: int = 0
    stages: Sequence[int | None] = ()
    guards: int = 0


def make_fgc_plan(p: int, q: int) -> StagePlan:
    """Plan for lifting a (p, q-1)-feasible spanning solution to (p, q).

    One uncrossable family when p <= 2 or q = 1; p stages, the violated cuts
    with 0..p-1 safe boundary edges, when q is 2 or 3, or 4 with p even.
    Elsewhere no stage split is known to be uncrossable.
    """
    if p < 1 or q < 1:
        raise UnsupportedParameters(f"no augmentation plan for (p, q)=({p}, {q})")
    if p <= 2 or q == 1:
        stages = (None,)
    elif q in (2, 3) or (q == 4 and p % 2 == 0):
        stages = range(p)
    else:
        raise UnsupportedParameters(f"no uncrossable stage families lift p={p} to level {q}")
    return StagePlan(p=p, q=q, scope="spanning", stages=stages)


# Bounded: an entry holds q plans of at most p stages each.
@lru_cache(maxsize=32, typed=True)
def fgc_plans(p: int, q: int) -> tuple[StagePlan, ...]:
    """The plans of levels 1..q of a spanning (p, q) solve, built once per
    (p, q).  Raises UnsupportedParameters when p < 1, q < 0 or some level
    has no plan."""
    if p < 1 or q < 0:
        raise UnsupportedParameters(f"(p, q)=({p}, {q}) is outside the supported set")
    return tuple(make_fgc_plan(p, level) for level in range(1, q + 1))


def make_flex_st_plan(p: int, q: int, s: int, t: int) -> StagePlan:
    if p + q <= p * q / 2:
        raise ParameterConditionViolated(f"(p, q)=({p}, {q}) violates p+q > pq/2")
    return StagePlan(p=p, q=q, scope="st", s=s, t=t, stages=range(p))


# -- violated-cut machinery ----------------------------------------------------

def _scope(counts: Boundary, plan: StagePlan) -> int:
    """The guard set of the cuts the plan constrains: every cut, the s-t
    cuts, or the plan's own guard set."""
    if plan.scope == "spanning":
        return counts.layout.guards
    if plan.scope == "st":
        return counts.layout.scope(((plan.s, plan.t),))
    return plan.guards


def _violated(counts: Boundary, plan: StagePlan) -> int:
    """The guard set of the plan's violated cuts for the set F that
    ``counts`` holds: the in-scope cuts that ``Boundary.tight`` gives."""
    return _scope(counts, plan) & counts.tight(plan.p, plan.q)


def _stage_guards(counts: Boundary, violated: int, stage: int | None) -> int:
    """The guard set of the cuts of ``violated`` that one stage covers:
    those with ``stage`` safe F-boundary edges, or all of them when
    ``stage`` is None."""
    if stage is None or not violated:
        return violated
    return violated & counts.layout.exactly(counts.safe, stage)


def _feasible_for(counts: Boundary, plan: StagePlan, q: int) -> bool:
    """Whether the set that ``counts`` holds is (plan.p, q)-feasible in
    scope: no in-scope cut is one that ``Boundary.deficient`` gives."""
    return not _scope(counts, plan) & counts.deficient(plan.p, q)


def _answers(reached: tuple[int, int, int], scope: int, p: int, q: int) -> bool:
    """Whether a passed (p_r, q_r) check on the guard set ``done``, with
    ``reached`` = (done, p_r, q_r), implies a (p, q) check on ``scope``.
    The passed check leaves every cut min(p_r, p_r + q_r) edges or more."""
    done, p_r, q_r = reached
    return not scope & ~done and (
        p_r >= p and p_r + q_r >= p + q or min(p_r, p_r + q_r) >= p + q
    )


def _cap_flow_paths(g: FaultGraph, F: frozenset, plan: StagePlan) -> list[tuple[int, ...]]:
    """Unit s-t paths of a flow of value p(p+q) inside (V, F) under the stage caps."""
    p, q = plan.p, plan.q
    caps = [0] * g.m
    for eid in F:
        caps[eid] = p + q if g.edges[eid].safe else p
    flow = min_cost_flow(g, caps, plan.s, plan.t, p * (p + q))
    return flow_decompose(g, flow)


def _path_groups(
    g: FaultGraph, F: frozenset, cuts: int, paths: Sequence[Sequence[int]], s: int
) -> dict[frozenset, int]:
    """Map each path subset to the cut set of the cuts in ``cuts`` it matches.

    A subset matches a cut when its paths take the cut's safe F-boundary
    edges one each, every path meeting the boundary exactly once (so no
    path can take two edges).  A cut with no safe boundary edge matches the
    empty subset.
    """
    path_sets = [frozenset(path) for path in paths]
    groups: dict[frozenset, int] = {}
    for mask in masks(g.n, cuts, s):
        bnd = boundary(g, F, mask)
        opts = [
            [j for j, pset in enumerate(path_sets) if eid in pset and len(bnd & pset) == 1]
            for eid in sorted(bnd)
            if g.edges[eid].safe
        ]
        for picks in product(*opts):
            qs = frozenset(picks)
            groups[qs] = groups.get(qs, 0) | (1 << cut_index(g.n, mask))
    return groups


def _ring_families(g: FaultGraph, F: frozenset, plan: StagePlan, i: int, cuts: int) -> list[CutFamily]:
    """The nonempty C_i^Q subfamilies of stage i, whose cut set is
    ``cuts``, one per useful path subset.

    Every violated cut with i safe boundary edges must land in at least one
    subfamily (guaranteed under p+q > pq/2); anything else means the stage
    construction cannot cover the family and is reported, not papered over.
    """
    groups = _path_groups(g, F, cuts, _cap_flow_paths(g, F, plan), plan.s)
    covered = 0
    for group in groups.values():
        covered |= group
    if covered != cuts:
        mask = first_mask(g.n, cuts & ~covered, plan.s)
        raise StageCoverFailed(
            f"violated cut {bin(mask)} has no qualifying path subset at "
            f"stage {i} (p={plan.p}, q={plan.q})"
        )
    ground = g.all_edge_ids() - F
    return [
        CutFamily(graph=g, cuts=groups[qs], ground=ground, label=f"C_{i}^{sorted(qs)}", side=plan.s)
        for qs in sorted(groups, key=sorted)
    ]


def _stage_families(
    g: FaultGraph, F: frozenset, plan: StagePlan, stage: int | None, cuts: int
) -> list[CutFamily]:
    """The families that cover ``cuts``, the cut set of the stage."""
    if plan.scope == "st":
        return _ring_families(g, F, plan, stage, cuts)
    if plan.scope == "cuts":
        label = f"ecsndp level {plan.p}"
    else:
        share = "all-violated" if stage is None else f"safe={stage}"
        label = f"spanning({plan.p},{plan.q}) {share}"
    return [CutFamily(graph=g, cuts=cuts, ground=g.all_edge_ids() - F, label=label)]


def augment_stages(g: FaultGraph, F: Iterable[int], plans: Sequence[StagePlan]) -> frozenset:
    """Run each plan's stages in turn, growing F: a plan lifts F from
    (plan.p, plan.q - 1) to (plan.p, plan.q), so F must already be
    feasible at the first plan's (p, q - 1).

    One Boundary of F serves every plan: its opening check, its violated
    cuts and every stage's share of them; each bought edge is added to it.
    All of these are guard sets of that Boundary's layout.  The violated
    cuts are read when a plan opens and again after each stage that bought
    edges, and only a stage with cuts to cover decodes its share into a
    cut set, once, for its families.  Those read last are the closing
    check: F stays (p, q - 1)-feasible as it grows, so a cut with fewer
    than p safe and fewer than p + q edges has exactly p + q - 1, and F is
    (p, q)-feasible exactly when no violated cut is left.  A plan's
    closing check answers the next plan's opening check when it implies
    it: a plan that lifts the same scope and p from the level just
    reached, or a fallback base level, opens on no check of its own.

    A stage with nothing to cover costs nothing: it builds no family and
    calls no cover, in any scope.  For a single-pair stage that also
    skips the cap flow: the flow depends on F alone, so it would either go
    unused or fail as the next non-empty stage's flow fails on the same F;
    and with no such stage left, F is already (p, q)-feasible, so the flow
    exists."""
    F = frozenset(F)
    counts = Boundary(g, F)
    compact = counts.layout.compact
    reached = None  # (scope, p, q) of the last closing check
    for plan in plans:
        p, q = plan.p, plan.q
        scope = _scope(counts, plan)
        answered = reached and _answers(reached, scope, p, q - 1)
        if not answered and not _feasible_for(counts, plan, q - 1):
            raise BaseNotFeasible(f"input edges are not ({p}, {q - 1})-feasible")
        violated = _violated(counts, plan)
        for stage in plan.stages:
            guards = _stage_guards(counts, violated, stage)
            if not guards:
                continue
            added: set[int] = set()
            for fam in _stage_families(g, F, plan, stage, compact(guards)):
                if plan.scope == "st":
                    added |= ring_cover_exact(fam)
                else:
                    added |= primal_dual_cover(fam).edges
            for eid in added:  # every family's ground lies outside F
                counts.add(eid)
            F = F | added
            violated = _violated(counts, plan)
        if violated:
            raise StageCoverFailed(
                f"stages completed but the result is not ({p}, {q})-feasible"
            )
        reached = (scope, p, q)
    return F


def flex_base(g: FaultGraph, reqs: Sequence[FlexRequirement]) -> frozenset:
    """A (p_i, 0) base for the flexible solvers: the exact optimum when the
    edge count is within ``exact_budget()``, otherwise the level-by-level
    primal-dual of Goemans et al. (SODA 1994) on the problem's
    ``cut_classes``.  Level k is a one-stage plan on the "cuts" scope of
    the classes with p >= k, whose violated cuts have exactly k - 1 chosen
    edges: on flex pairs, an uncrossable family."""
    problem = Problem("flex", flex=tuple(reqs))
    budget = exact_budget()
    if g.m <= budget:
        trace.count("flexalg.exact_bases")
        F, _cost = exact_solve(g, problem, budget)
        return F
    trace.count("flexalg.ecsndp_bases")
    classes = cut_classes(g, problem)
    plans = []
    for k in range(1, max(p for p, _q in classes) + 1):
        guards = 0
        for (p, _q), cuts in classes.items():
            if p >= k:
                guards |= cuts
        plans.append(StagePlan(p=k, q=0, scope="cuts", stages=(None,), guards=guards))
    return augment_stages(g, frozenset(), plans)


# -- spanning solver -----------------------------------------------------------

def solve_fgc(g: FaultGraph, p: int, q: int) -> frozenset:
    """Spanning (p, q) solver for the (p, q) that ``fgc_plans`` accepts.

    ``flex_base`` at (p, 0), then one augmentation round per level 1..q
    following the per-level plan, all in one ``augment_stages`` call.  The
    graph is checked (p, q)-feasible first and each level checks its
    result, so the result is checked at (p, q) for q >= 1; at q = 0 the
    base is returned as built.
    """
    plans = fgc_plans(p, q)
    if g.n < 2:
        return frozenset()
    if Boundary(g, g.all_edge_ids()).deficient(p, q):
        raise InfeasibleInstance(f"graph is not ({p}, {q})-feasible")
    F = flex_base(g, fgc_requirements(g.n, p, 0))
    return augment_stages(g, F, plans) if plans else F


def fgc_guarantee(p: int, q: int) -> int:
    """The ratio this construction guarantees at (p, q): 2 for a (p, 0)
    base within factor 2 of optimal, plus 2 for each primal-dual cover of
    an uncrossable family that the level plans run.  Raises
    UnsupportedParameters where ``fgc_plans`` does."""
    return 2 + 2 * sum(len(plan.stages) for plan in fgc_plans(p, q))


# -- single-pair solvers ---------------------------------------------------------

def solve_flex_st(g: FaultGraph, s: int, t: int, p: int, q: int) -> frozenset:
    """Single-pair (p, q) solver for p+q > pq/2.

    Exact min-cost p-flow for the (p, 0) base, then per level j: capacitated
    seeding (support of a min-cost flow of p(p+j) units under caps p+j safe
    / p unsafe) followed by the staged ring-family covers.
    """
    plans = [make_flex_st_plan(p, level, s, t) for level in range(1, q + 1)]
    ok, _ = is_flex_feasible(g, [FlexRequirement(s, t, p, q)], g.all_edge_ids())
    if not ok:
        raise InfeasibleInstance(f"graph is not ({p}, {q})-flex-connected for the pair")
    F = min_cost_flow(g, 1, s, t, p).support()
    for plan in plans:
        caps = [p + plan.q if e.safe else p for e in g.edges]
        seed = min_cost_flow(g, caps, s, t, p * (p + plan.q)).support()
        F = augment_stages(g, F | seed, [plan])
    return F


def flex_st_guarantee(p: int, q: int) -> float:
    """Construction ceiling: base + per level the cap seeding factor plus
    one exact cover per path subset per stage."""
    total = 1.0
    for j in range(1, q + 1):
        total += (p + j) + sum(comb(p * (p + j), i) for i in range(p))
    return total


def solve_flex_st_22(g: FaultGraph, s: int, t: int) -> frozenset:
    """The specialized (2, 2) single-pair algorithm with ratio 5.

    Seeds with the support of a min-cost 4-flow under caps 2 safe / 1
    unsafe, decomposes the (then maximum) flow into 4 unit paths, and covers
    the three ring families keyed by the first three paths exactly.
    """
    ok, _ = is_flex_feasible(g, [FlexRequirement(s, t, 2, 2)], g.all_edge_ids())
    if not ok:
        raise InfeasibleInstance("graph is not (2, 2)-flex-connected for the pair")
    caps = [2 if e.safe else 1 for e in g.edges]
    seed = min_cost_flow(g, caps, s, t, 4).support()
    counts = Boundary(g, seed)
    lay = counts.layout
    violated = lay.compact(lay.scope(((s, t),)) & counts.tight(2, 2))
    if not violated:
        return seed
    seed_caps = [caps[eid] if eid in seed else 0 for eid in range(g.m)]
    paths = flow_decompose(g, min_cost_flow(g, seed_caps, s, t, 4))
    groups = _path_groups(g, seed, violated, paths, s)
    ground = g.all_edge_ids() - seed
    covered = 0
    result = set(seed)
    for idx in range(3):
        cuts = groups.get(frozenset({idx}), 0)
        covered |= cuts
        result |= ring_cover_exact(
            CutFamily(graph=g, cuts=cuts, ground=ground, label=f"C_1^P{idx + 1}", side=s)
        )
    if covered != violated:
        raise StageCoverFailed(
            "some violated cut escaped the three path-indexed ring families"
        )
    ok, _ = is_flex_feasible(g, [FlexRequirement(s, t, 2, 2)], result)
    if not ok:
        raise StageCoverFailed("cover union is not (2, 2)-feasible")
    return frozenset(result)
