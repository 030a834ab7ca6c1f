"""Constant-factor algorithms for flexible connectivity.

Spanning case (solve_fgc): a base at level (p, 0) from flex_base (the exact
optimum within the search budget, else the primal-dual ecsndp_base), then
one augmentation round per unsafe-failure level as make_fgc_plan lays it
out.  That is the solver's only (p, q) case split: its supported set
(fgc_plans) and its guarantee (fgc_guarantee) are read off the plans.

Single-pair case (solve_flex_st, solve_flex_st_22): each round seeds the
partial solution with the support of a min-cost flow under capacities
(safe: p+q, unsafe: p) and demand p(p+q), decomposes that flow into unit
paths, and covers each stage's violated cuts through ring subfamilies
indexed by path subsets, each solved exactly.  Requires p+q > pq/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import comb
from typing import Iterable, Sequence

from . import trace
from .cover import CutFamily, ecsndp_base, primal_dual_cover, ring_cover_exact
from .cuts import Boundary, all_cuts, cut_index, first_mask, masks, separating
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
from .oracles import FlexRequirement, Problem, fgc_requirements, is_flex_feasible


@dataclass(frozen=True)
class StagePlan:
    """Per-level augmentation plan: target (p, q), scope, ordered stages.

    A stage is the safe-boundary count of the violated cuts it covers, or
    None for all violated cuts at once.  The scope picks the cover engine:
    spanning stages are one primal-dual family each, s-t stages are ring
    families covered exactly.  Stages 0..p-1 are a ``range``, of any p.
    """

    p: int
    q: int
    scope: str  # "spanning" | "st"
    s: int = 0
    t: int = 0
    stages: Sequence[int | None] = ()


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


def fgc_plans(p: int, q: int) -> list[StagePlan]:
    """The plans of levels 1..q of a spanning (p, q) solve.  Raises
    UnsupportedParameters when p < 1, q < 0 or some level has no plan."""
    if p < 1 or q < 0:
        raise UnsupportedParameters(f"(p, q)=({p}, {q}) is outside the supported set")
    return [make_fgc_plan(p, level) for level in range(1, q + 1)]


def make_flex_st_plan(p: int, q: int, s: int, t: int) -> StagePlan:
    if p + q <= p * q / 2:
        raise ParameterConditionViolated(f"(p, q)=({p}, {q}) violates p+q > pq/2")
    return StagePlan(p=p, q=q, scope="st", s=s, t=t, stages=range(p))


# -- violated-cut machinery ----------------------------------------------------

def _scope(g: FaultGraph, plan: StagePlan) -> int:
    """The cut set the plan constrains: every cut, or the s-t cuts."""
    if plan.scope == "spanning":
        return all_cuts(g.n)
    return separating(g.n, plan.s, plan.t)


def _violated_cuts(
    g: FaultGraph, F: Iterable[int], plan: StagePlan, counts: Boundary | None = None
):
    """(violated cut set, boundary counts of F): in-scope cuts whose
    F-boundary has exactly p+q-1 edges, fewer than p of them safe.
    ``counts`` is F's Boundary when the caller already has it."""
    if counts is None:
        counts = Boundary(g, F)
    return _scope(g, plan) & counts.tight(plan.p, plan.q), counts


def _stage_cuts(
    g: FaultGraph,
    F: Iterable[int],
    plan: StagePlan,
    stage: int | None,
    counts: Boundary | None = None,
) -> int:
    """The cut set one stage covers: the violated cuts with ``stage`` safe
    F-boundary edges, or every violated cut when ``stage`` is None."""
    violated, counts = _violated_cuts(g, F, plan, counts)
    if stage is None:
        return violated
    return violated & counts.exactly(counts.safe, stage)


def _feasible_for(g: FaultGraph, counts: Boundary, plan: StagePlan, q: int) -> bool:
    """Whether the set that ``counts`` holds is (plan.p, q)-feasible in scope."""
    return not _scope(g, plan) & counts.deficient(plan.p, q)


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


def _ring_families(
    g: FaultGraph, F: frozenset, plan: StagePlan, i: int, counts: Boundary | None = None
) -> list[CutFamily]:
    """The nonempty C_i^Q subfamilies of stage i, one per useful path subset.

    Every violated cut with i safe boundary edges must land in at least one
    subfamily (guaranteed under p+q > pq/2); anything else means the stage
    construction cannot cover the family and is reported, not papered over.
    """
    stage = _stage_cuts(g, F, plan, i, counts)
    groups = _path_groups(g, F, stage, _cap_flow_paths(g, F, plan), plan.s)
    covered = 0
    for cuts in groups.values():
        covered |= cuts
    if covered != stage:
        mask = first_mask(g.n, stage & ~covered, plan.s)
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
    g: FaultGraph,
    F: frozenset,
    plan: StagePlan,
    stage: int | None,
    counts: Boundary | None = None,
) -> list[CutFamily]:
    if plan.scope == "st":
        return _ring_families(g, F, plan, stage, counts)
    label = "all-violated" if stage is None else f"safe={stage}"
    return [
        CutFamily(
            graph=g,
            cuts=_stage_cuts(g, F, plan, stage, counts),
            ground=g.all_edge_ids() - F,
            label=f"spanning({plan.p},{plan.q}) {label}",
        )
    ]


def augment_stages(g: FaultGraph, F: Iterable[int], plan: StagePlan) -> frozenset:
    """Run the plan's stages, growing F.  F must already be feasible at
    (plan.p, plan.q - 1).

    One Boundary of F serves the opening check, every stage's violated cuts
    and the closing check; each bought edge is added to it.

    A stage with nothing to cover costs nothing.  A single-pair stage with
    no violated cut is skipped before its cap flow: the flow depends on F
    alone, so it would either go unused or fail as the next non-empty
    stage's flow fails on the same F; and with no such stage left, F is
    already (p, q)-feasible, so the flow exists."""
    p, q = plan.p, plan.q
    F = frozenset(F)
    counts = Boundary(g, F)
    if not _feasible_for(g, counts, plan, q - 1):
        raise BaseNotFeasible(f"input edges are not ({p}, {q - 1})-feasible")
    for stage in plan.stages:
        if plan.scope == "st" and not _stage_cuts(g, F, plan, stage, counts):
            continue
        added: set[int] = set()
        for fam in _stage_families(g, F, plan, stage, counts):
            if plan.scope == "st":
                added |= ring_cover_exact(fam)
            else:
                added |= primal_dual_cover(fam).edges
        for eid in added:  # every family's ground lies outside F
            counts.add(eid)
        F = F | added
    if not _feasible_for(g, counts, plan, q):
        raise StageCoverFailed(
            f"stages completed but the result is not ({p}, {q})-feasible"
        )
    return F


def flex_base(g: FaultGraph, reqs: Sequence[FlexRequirement]) -> frozenset:
    """A (p_i, 0) base for the flexible solvers: the exact optimum when the
    edge count is within ``exact_budget()``, otherwise ``ecsndp_base``, the
    level-by-level primal-dual of Goemans et al. (SODA 1994)."""
    if g.m <= exact_budget():
        trace.count("flexalg.exact_bases")
        F, _cost = exact_solve(g, Problem("flex", flex=tuple(reqs)))
        return F
    trace.count("flexalg.ecsndp_bases")
    return ecsndp_base(g, reqs)


# -- spanning solver -----------------------------------------------------------

def solve_fgc(g: FaultGraph, p: int, q: int) -> frozenset:
    """Spanning (p, q) solver for the (p, q) that ``fgc_plans`` accepts.

    ``flex_base`` at (p, 0), then one augmentation round per level 1..q
    following the per-level plan.  The graph is checked (p, q)-feasible
    first and each level checks its result, so the result is checked at
    (p, q) for q >= 1; at q = 0 the base is returned as built.
    """
    plans = fgc_plans(p, q)
    if g.n < 2:
        return frozenset()
    probe = StagePlan(p=p, q=q, scope="spanning")
    if not _feasible_for(g, Boundary(g, g.all_edge_ids()), probe, q):
        raise InfeasibleInstance(f"graph is not ({p}, {q})-feasible")
    F = flex_base(g, fgc_requirements(g.n, p, 0))
    for plan in plans:
        F = augment_stages(g, F, plan)
    return F


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
        F = augment_stages(g, F | seed, plan)
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
    plan = StagePlan(p=2, q=2, scope="st", s=s, t=t)
    violated = _violated_cuts(g, seed, plan)[0]
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
