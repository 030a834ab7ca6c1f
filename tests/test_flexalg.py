import ast
import itertools
from math import comb
from random import Random

import pytest

from faultnet import flexalg, trace
from faultnet.cover import CoverResult, CutFamily, primal_dual_cover, ring_cover_exact
from faultnet.cuts import Boundary, Layout, cut_index, predicate
from faultnet.errors import (
    BaseNotFeasible,
    InfeasibleInstance,
    ParameterConditionViolated,
    StageCoverFailed,
    UnsupportedParameters,
)
from faultnet.exact import exact_solve
from faultnet.flexalg import (
    StagePlan,
    _cap_flow_paths,
    _path_groups,
    _ring_families,
    _stage_families,
    augment_stages,
    fgc_guarantee,
    fgc_plans,
    flex_base,
    flex_st_guarantee,
    make_fgc_plan,
    make_flex_st_plan,
    solve_fgc,
    solve_flex_st,
    solve_flex_st_22,
)
from faultnet.flow import flow_decompose, min_cost_flow
from faultnet.graph import FaultGraph, boundary, st_cut_masks
from faultnet.instances import generate
from faultnet.oracles import (
    FlexRequirement,
    Problem,
    fgc_requirements,
    is_flex_feasible,
    violated_cuts_flex_aug,
)
from oracle_utils import (
    boundary_counts,
    compact_feasible_for,
    compact_stage_cuts,
    kruskal_mst_cost,
    membership_ciq,
    random_graph,
    stage_cuts,
)


def fgc_instance(seed, n=6, m=14, p=2, q=2, skeleton="mixed", safe_prob=0.5):
    cycles = (p + 1) // 2
    if skeleton == "mixed":
        cycles = max(cycles, (p + q + 1) // 2)
    m = max(m, cycles * n + 4)
    return generate(
        "random-multigraph",
        n=n,
        m=m,
        seed=seed,
        params={
            "problem": "fgc",
            "p": p,
            "q": q,
            "skeleton": skeleton,
            "safe_prob": safe_prob,
        },
    )


def st_instance(seed, n=6, m=16, p=2, q=2, safe_prob=0.4):
    cycles = max((p + 1) // 2, (p + q + 1) // 2)
    m = max(m, cycles * n + 4)
    return generate(
        "random-multigraph",
        n=n,
        m=m,
        seed=seed,
        params={
            "problem": "flex-st",
            "p": p,
            "q": q,
            "skeleton": "mixed",
            "safe_prob": safe_prob,
        },
    )


def supported_fgc_plans(top=4):
    """Every level plan of ``fgc_plans(p, q)`` for p, q <= ``top``, once each."""
    plans = {}
    for p in range(1, top + 1):
        for q in range(top + 1):
            try:
                for plan in fgc_plans(p, q):
                    plans[plan.p, plan.q] = plan
            except UnsupportedParameters:
                continue
    return list(plans.values())


def random_base_levels(rng, g):
    """Fallback base levels k = 1..3, each on a random guard set of g's
    layout."""
    guards = Boundary(g).layout.guards
    return [
        StagePlan(p=k, q=0, scope="cuts", stages=(None,), guards=guards & rng.getrandbits(guards.bit_length()))
        for k in (1, 2, 3)
    ]


def per_stage_reference(g, F, plans):
    """The spanning stage loop as it read before it skipped empty stages:
    cut sets in place of guard sets, an opening and a closing check per
    plan, and a family and a cover for every stage, empty or not."""
    F = frozenset(F)
    counts = Boundary(g, F)
    for plan in plans:
        p, q = plan.p, plan.q
        if not compact_feasible_for(g, counts, plan, q - 1):
            raise BaseNotFeasible(f"input edges are not ({p}, {q - 1})-feasible")
        for stage in plan.stages:
            cuts = compact_stage_cuts(g, counts, plan, stage)
            added = set()
            for fam in _stage_families(g, F, plan, stage, cuts):
                added |= primal_dual_cover(fam).edges
            for eid in added:
                counts.add(eid)
            F = F | added
        if not compact_feasible_for(g, counts, plan, q):
            raise StageCoverFailed(f"stages completed but the result is not ({p}, {q})-feasible")
    return F


class TestSolveFgc:
    def test_10_is_mst(self):
        inst = fgc_instance(3, p=1, q=0, skeleton="safe")
        g = inst.to_graph()
        sol = solve_fgc(g, 1, 0)
        assert abs(g.total_cost(sol) - kruskal_mst_cost(g)) < 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_22_feasible_and_within_ceiling(self, seed):
        inst = fgc_instance(seed, p=2, q=2)
        g = inst.to_graph()
        sol = solve_fgc(g, 2, 2)
        ok, _ = is_flex_feasible(g, fgc_requirements(g.n, 2, 2), sol)
        assert ok
        _opt_sol, opt = exact_solve(g, inst.problem)
        assert g.total_cost(sol) <= (2 * 2 + 4) * opt + 1e-9

    def test_all_safe_degenerates_to_p0(self):
        inst = fgc_instance(8, p=2, q=3, skeleton="safe", safe_prob=1.0)
        g = inst.to_graph()
        sol_q = solve_fgc(g, 2, 3)
        sol_0 = solve_fgc(g, 2, 0)
        assert abs(g.total_cost(sol_q) - g.total_cost(sol_0)) < 1e-9

    def test_unsupported_parameters(self):
        g = fgc_instance(1, p=2, q=2).to_graph()
        with pytest.raises(UnsupportedParameters):
            solve_fgc(g, 3, 5)
        with pytest.raises(UnsupportedParameters):
            solve_fgc(g, 3, 4)

    def test_infeasible_instance(self):
        g = FaultGraph(3, [(0, 1, 1, "safe"), (1, 2, 1, "safe")])
        with pytest.raises(InfeasibleInstance):
            solve_fgc(g, 2, 0)

    @pytest.mark.parametrize("p", range(1, 7))
    @pytest.mark.parametrize("q", range(7))
    def test_support_and_guarantee_follow_the_plans(self, p, q):
        # Supported: p <= 2 for any q, any p for q <= 3, even p at q = 4.
        # The guarantee is 2 for the base plus 2 per stage: one stage at
        # level 1 or when p <= 2, p stages at every other level.
        g = FaultGraph(2, [(0, 1, 1, "safe")] * 6)  # (p, q)-feasible for p <= 6
        if p <= 2 or q <= 3 or (q == 4 and p % 2 == 0):
            stages = q if p <= 2 else min(q, 1) + p * max(q - 1, 0)
            assert sum(len(plan.stages) for plan in fgc_plans(p, q)) == stages
            assert fgc_guarantee(p, q) == 2 + 2 * stages
            assert len(solve_fgc(g, p, q)) == p
        else:
            for call in (fgc_plans, fgc_guarantee, lambda p, q: solve_fgc(g, p, q)):
                with pytest.raises(UnsupportedParameters, match=r"level [45]\b"):
                    call(p, q)

    @pytest.mark.parametrize("q", [4, 5])
    def test_p1_above_q3_within_guarantee(self, q):
        for seed in range(4):
            inst = fgc_instance(seed, p=1, q=q)
            g = inst.to_graph()
            sol = solve_fgc(g, 1, q)
            assert is_flex_feasible(g, fgc_requirements(g.n, 1, q), sol)[0]
            _opt_sol, opt = exact_solve(g, inst.problem)
            assert g.total_cost(sol) <= fgc_guarantee(1, q) * opt + 1e-9


class TestAugmentStages:
    def test_feasible_input_unchanged(self):
        inst = fgc_instance(5, p=2, q=2, skeleton="safe", safe_prob=1.0)
        g = inst.to_graph()
        base, _ = exact_solve(g, Problem("flex", flex=fgc_requirements(g.n, 2, 2)))
        plan = make_fgc_plan(2, 2)
        out = augment_stages(g, base, [plan])
        assert out == frozenset(base)

    def test_per_stage_cover_within_twice_stage_optimum(self):
        from faultnet.cover import exact_cover

        checked = 0
        for seed in range(60):
            inst = fgc_instance(seed + 30, p=2, q=2, safe_prob=0.25)
            g = inst.to_graph()
            base, _ = exact_solve(
                g, Problem("flex", flex=fgc_requirements(g.n, 2, 1))
            )
            plan = make_fgc_plan(2, 2)
            F = frozenset(base)
            for spec in plan.stages:
                for fam in _stage_families(g, F, plan, spec, stage_cuts(g, F, plan, spec)):
                    if not fam.members:
                        continue
                    from faultnet.cover import primal_dual_cover

                    result = primal_dual_cover(fam)
                    rows = [boundary(g, fam.ground, m) for m in fam.members]
                    _s, opt = exact_cover(
                        rows, {eid: g.cost_of(eid) for eid in fam.ground}
                    )
                    assert g.total_cost(result.edges) <= 2 * opt + 1e-9
                    F = F | result.edges
                    checked += 1
            if checked >= 3:
                break
        assert checked >= 3

    def test_odd_p_q4_rejected_at_planning(self):
        with pytest.raises(UnsupportedParameters):
            make_fgc_plan(3, 4)

    def test_base_not_feasible(self):
        inst = fgc_instance(2, p=2, q=2)
        g = inst.to_graph()
        plan = make_fgc_plan(2, 2)
        with pytest.raises(BaseNotFeasible):
            augment_stages(g, frozenset(), [plan])

    def test_monotone_stage_invariant(self):
        # After stage i no violated cut carries i or fewer safe edges.
        from faultnet.cover import primal_dual_cover

        for seed in (4, 9):
            inst = fgc_instance(seed + 50, p=3, q=2, safe_prob=0.4)
            g = inst.to_graph()
            base, _ = exact_solve(
                g, Problem("flex", flex=fgc_requirements(g.n, 3, 1))
            )
            plan = make_fgc_plan(3, 2)
            F = frozenset(base)
            for stage_index, spec in enumerate(plan.stages):
                for fam in _stage_families(g, F, plan, spec, stage_cuts(g, F, plan, spec)):
                    F = F | primal_dual_cover(fam).edges
                membership = predicate(g.n, stage_cuts(g, F, plan, None))
                for mask in range(1, (1 << g.n) - 1):
                    if membership(mask):
                        safe, _tot = boundary_counts(g, F, mask)
                        assert safe > stage_index

    @pytest.mark.parametrize("scope", ("spanning", "st"))
    def test_one_boundary_per_call(self, scope):
        # The opening check, each stage and the closing check share one
        # Boundary of F, grown by each bought edge.
        grown = 0
        for seed in range(4):
            if scope == "spanning":
                g = fgc_instance(seed + 50, p=3, q=2, safe_prob=0.4).to_graph()
                F, _ = exact_solve(g, Problem("flex", flex=fgc_requirements(g.n, 3, 1)))
                plan = make_fgc_plan(3, 2)
            else:
                inst = st_instance(seed)
                g = inst.to_graph()
                r = inst.problem.flex[0]
                # Level 2 as solve_flex_st runs it: level 1, then the seeding.
                plan = make_flex_st_plan(r.p, 2, r.s, r.t)
                caps = [r.p + 2 if e.safe else r.p for e in g.edges]
                F = solve_flex_st(g, r.s, r.t, r.p, 1)
                F |= min_cost_flow(g, caps, r.s, r.t, r.p * (r.p + 2)).support()
            with trace.recording() as counts:
                out = augment_stages(g, F, [plan])
            assert counts["cuts.boundaries"] == 1
            grown += out != frozenset(F)
        assert grown


    def test_stages_with_nothing_to_cover_call_no_cover(self, monkeypatch):
        # Seeded FGC instances at every supported (p, q) with q >= 1, from
        # the (p, 0) base that solve_fgc starts from: the stage loop hands
        # primal_dual_cover only families with members, and its answer is
        # the per-stage reference's, which also covers the empty stages.
        families = []

        def recorded(fam):
            families.append(fam)
            return primal_dual_cover(fam)

        monkeypatch.setattr(flexalg, "primal_dual_cover", recorded)
        solves = reference_covers = 0
        for p, q in sorted({(plan.p, plan.q) for plan in supported_fgc_plans()}):
            for seed in range(3):
                g = fgc_instance(seed + 10 * p + q, n=5, m=12, p=p, q=q).to_graph()
                if not is_flex_feasible(g, fgc_requirements(g.n, p, q), g.all_edge_ids())[0]:
                    continue
                base = flex_base(g, fgc_requirements(g.n, p, 0))
                with trace.recording() as counts:
                    want = per_stage_reference(g, base, fgc_plans(p, q))
                reference_covers += counts["cover.covers"]
                assert augment_stages(g, base, fgc_plans(p, q)) == want
                solves += 1
        assert solves >= 30
        assert families and all(fam.members for fam in families)
        assert reference_covers > len(families)


    def test_nothing_to_cover_decodes_no_cut_set(self, monkeypatch):
        # On a set with nothing violated at any level, the checks and the
        # empty stages stay on guard sets: no cut set is decoded.
        def refused(*_args):
            raise AssertionError("a cut set was decoded")

        for p, q in ((2, 3), (3, 2), (4, 3)):
            g = fgc_instance(3, p=p, q=q).to_graph()
            F = g.all_edge_ids()
            assert is_flex_feasible(g, fgc_requirements(g.n, p, q), F)[0]
            Boundary(g, F)  # the layout, built before compact is refused
            with monkeypatch.context() as mp:
                mp.setattr(Layout, "compact", refused)
                assert augment_stages(g, F, fgc_plans(p, q)) == F

    def test_a_closing_check_answers_the_next_opening_check(self, monkeypatch):
        # Levels 1..3 of one call: one feasibility check, the opening one at
        # level 0.  Each level closes on its violated cuts, and the next
        # level opens on that.  The fallback base's levels 1..p do the
        # same: one check, level 1's opening one at (1, -1), since each
        # level's (k, 0) check implies level k + 1's opening (k + 1, -1).
        checks = []
        feasible_for = flexalg._feasible_for

        def recorded(counts, plan, q):
            checks.append((plan.p, plan.q, q))
            return feasible_for(counts, plan, q)

        monkeypatch.setattr(flexalg, "_feasible_for", recorded)
        for p in (1, 3):
            g = fgc_instance(7, p=p, q=3).to_graph()
            base = flex_base(g, fgc_requirements(g.n, p, 0))
            checks.clear()
            out = augment_stages(g, base, fgc_plans(p, 3))
            assert checks == [(p, 1, 0)]
            assert is_flex_feasible(g, fgc_requirements(g.n, p, 3), out)[0]
        monkeypatch.setenv("FAULTNET_EXACT_BUDGET", "0")
        for p in (1, 2, 3):
            g = fgc_instance(7, p=p, q=0).to_graph()
            checks.clear()
            with trace.recording() as counts:
                base = flex_base(g, fgc_requirements(g.n, p, 0))
            assert counts["flexalg.ecsndp_bases"] == 1 and counts["cover.covers"] == p
            assert checks == [(1, 0, -1)]
            assert is_flex_feasible(g, fgc_requirements(g.n, p, 0), base)[0]

    def test_a_plan_that_lifts_another_p_opens_with_its_own_check(self):
        # The (2, 1) plan's closing check says nothing about (3, 1), which
        # the (3, 2) plan opens on.
        g = fgc_instance(7, p=3, q=2).to_graph()
        F = flex_base(g, fgc_requirements(g.n, 2, 0))
        assert not is_flex_feasible(g, fgc_requirements(g.n, 3, 1), F)[0]
        with pytest.raises(BaseNotFeasible):
            augment_stages(g, F, [make_fgc_plan(2, 1), make_fgc_plan(3, 2)])

    @pytest.mark.parametrize("scope", ("spanning", "st"))
    def test_a_violated_cut_left_fails_the_closing_check(self, scope, monkeypatch):
        # Covers that buy nothing leave the violated cuts in place.
        monkeypatch.setattr(flexalg, "primal_dual_cover", lambda fam: CoverResult(frozenset(), 0.0, ()))
        monkeypatch.setattr(flexalg, "ring_cover_exact", lambda fam: frozenset())
        if scope == "spanning":
            g = fgc_instance(7, p=3, q=2).to_graph()
            F = flex_base(g, fgc_requirements(g.n, 3, 0))
            plans = fgc_plans(3, 2)
        else:
            inst = st_instance(1)
            g, r = inst.to_graph(), inst.problem.flex[0]
            # Level 2 as solve_flex_st runs it: level 1, then the seeding.
            caps = [r.p + 2 if e.safe else r.p for e in g.edges]
            F = solve_flex_st(g, r.s, r.t, r.p, 1)
            F |= min_cost_flow(g, caps, r.s, r.t, r.p * (r.p + 2)).support()
            plans = [make_flex_st_plan(r.p, 2, r.s, r.t)]
        assert flexalg._violated(Boundary(g, F), plans[0])
        with pytest.raises(StageCoverFailed):
            augment_stages(g, F, plans)


class TestStageGuardSets:
    """The stage loop's guard-set reads against the cut-set forms they
    replaced, ``compact_stage_cuts`` and ``compact_feasible_for``."""

    def test_guard_sets_match_the_cut_set_forms(self):
        plans = supported_fgc_plans()
        for p in range(1, 5):
            for q in range(1, 5):
                if p + q > p * q / 2:
                    plans.append(make_flex_st_plan(p, q, 0, 1))
                    plans.append(make_flex_st_plan(p, q, 2, 0))
        seen = {"violated": 0, "clear": 0, "feasible": 0, "short": 0}
        for seed in range(24):
            rng = Random(seed)
            n = rng.randint(3, 6)
            g = random_graph(seed, n, rng.randint(n, 4 * n), safe_prob=rng.random())
            sets = [(), g.all_edge_ids(), [eid for eid in range(g.m) if rng.random() < 0.6]]
            base_levels = random_base_levels(rng, g)
            assert {plan.scope for plan in plans + base_levels} == {"spanning", "st", "cuts"}
            for F in sets:
                counts = Boundary(g, F)
                compact = counts.layout.compact
                for plan in plans + base_levels:
                    violated = flexalg._violated(counts, plan)
                    for stage in (None, *range(plan.p)):
                        got = compact(flexalg._stage_guards(counts, violated, stage))
                        assert got == compact_stage_cuts(g, counts, plan, stage), (seed, plan, stage)
                    seen["violated" if violated else "clear"] += 1
                    for level in range(-1, plan.q + 1):
                        verdict = flexalg._feasible_for(counts, plan, level)
                        assert verdict == compact_feasible_for(g, counts, plan, level), (seed, plan, level)
                        seen["feasible" if verdict else "short"] += 1
        assert min(seen.values()) >= 50, seen

    def test_a_check_answers_only_checks_it_implies(self):
        # Wherever a passed check on one plan answers a check on another,
        # the other check passes too: random sets, the plans of every
        # scope, and every level from -1 up.
        answered = 0
        for seed in range(24):
            rng = Random(seed)
            n = rng.randint(3, 6)
            g = random_graph(seed, n, rng.randint(n, 4 * n), safe_prob=rng.random())
            plans = supported_fgc_plans(3) + random_base_levels(rng, g)
            plans += [make_flex_st_plan(2, 1, 0, 1), make_flex_st_plan(1, 2, 1, 2)]
            counts = Boundary(g, [eid for eid in range(g.m) if rng.random() < 0.7])
            passed = [
                (flexalg._scope(counts, plan), plan.p, level)
                for plan in plans
                for level in range(-1, plan.q + 1)
                if flexalg._feasible_for(counts, plan, level)
            ]
            for reached in passed:
                for plan in plans:
                    for level in range(-1, plan.q + 1):
                        if flexalg._answers(reached, flexalg._scope(counts, plan), plan.p, level):
                            verdict = flexalg._feasible_for(counts, plan, level)
                            assert verdict, (seed, reached, plan, level)
                            answered += 1
        assert answered >= 1000


class TestSolveFlexSt:
    def test_parameter_arithmetic(self):
        g = st_instance(1, p=2, q=2).to_graph()
        make_flex_st_plan(3, 3, 0, 5)
        make_flex_st_plan(3, 4, 0, 5)
        with pytest.raises(ParameterConditionViolated):
            make_flex_st_plan(4, 4, 0, 5)
        with pytest.raises(ParameterConditionViolated):
            solve_flex_st(g, 0, 5, 4, 4)

    @pytest.mark.parametrize("seed", range(5))
    def test_11_within_guarantee(self, seed):
        inst = st_instance(seed, p=1, q=1)
        g = inst.to_graph()
        sol = solve_flex_st(g, 0, g.n - 1, 1, 1)
        ok, _ = is_flex_feasible(g, inst.problem.flex, sol)
        assert ok
        _opt_sol, opt = exact_solve(g, inst.problem)
        assert g.total_cost(sol) <= flex_st_guarantee(1, 1) * opt + 1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_22_specialized_within_five(self, seed):
        inst = st_instance(seed + 20, p=2, q=2)
        g = inst.to_graph()
        sol = solve_flex_st_22(g, 0, g.n - 1)
        ok, _ = is_flex_feasible(g, inst.problem.flex, sol)
        assert ok
        _opt_sol, opt = exact_solve(g, inst.problem)
        assert g.total_cost(sol) <= 5 * opt + 1e-9

    def test_stages_with_nothing_to_cover_run_no_flow(self, monkeypatch):
        # Level 1's two stages and one of level 2's have no violated cut, so
        # only the base, the two level seeds and one stage's cap flow run:
        # demands p, p(p+1), p(p+2) and p(p+2) again.  Running a cap flow
        # for every stage gave [2, 6, 6, 6, 8, 8, 8] and the same answer.
        inst = generate(
            "random-multigraph", n=6, m=16, seed=0,
            params={"problem": "flex-st", "p": 2, "q": 2, "skeleton": "mixed"},
        )
        g = inst.to_graph()
        demands = []

        def recorded(g, caps, s, t, demand):
            demands.append(demand)
            return min_cost_flow(g, caps, s, t, demand)

        monkeypatch.setattr(flexalg, "min_cost_flow", recorded)
        sol = solve_flex_st(g, 0, g.n - 1, 2, 2)
        assert demands == [2, 6, 8, 8]
        assert sorted(sol) == [0, 4, 5, 6, 7, 8, 10, 13, 14]

    def test_infeasible_instance(self):
        g = FaultGraph(3, [(0, 1, 1, "unsafe"), (1, 2, 1, "unsafe")])
        with pytest.raises(InfeasibleInstance):
            solve_flex_st(g, 0, 2, 1, 2)
        with pytest.raises(InfeasibleInstance):
            solve_flex_st_22(g, 0, 2)


class TestMembershipCiq:
    def _seeded(self, seed, p=2, q=2):
        inst = st_instance(seed, p=p, q=q, safe_prob=0.35)
        g = inst.to_graph()
        s, t = 0, g.n - 1
        caps = [p + q if e.safe else p for e in g.edges]
        seed_set = min_cost_flow(g, caps, s, t, p * (p + q)).support()
        seed_caps = [caps[eid] if eid in seed_set else 0 for eid in range(g.m)]
        paths = flow_decompose(g, min_cost_flow(g, seed_caps, s, t, p * (p + q)))
        return g, s, t, seed_set, paths

    def test_i0_reduces_to_zero_safe_boundary(self):
        g, s, t, F, _paths = self._seeded(2)
        plan = StagePlan(p=2, q=2, scope="st", s=s, t=t)
        membership = predicate(g.n, stage_cuts(g, F, plan, None), s)
        for mask in st_cut_masks(g.n, s, t):
            expected = membership(mask) and boundary_counts(g, F, mask)[0] == 0
            assert membership_ciq(g, mask, (), F, 2, 2, s, t) == expected

    @pytest.mark.parametrize("seed", range(8))
    def test_union_over_q_covers_stage_family(self, seed):
        # Exhaustive sweep: every violated cut with i safe edges belongs to
        # some path subset's family (needs p+q > pq/2).
        p = q = 2
        g, s, t, F, paths = self._seeded(seed + 40, p=p, q=q)
        plan = StagePlan(p=p, q=q, scope="st", s=s, t=t)
        membership = predicate(g.n, stage_cuts(g, F, plan, None), s)
        for mask in st_cut_masks(g.n, s, t):
            if not membership(mask):
                continue
            i = boundary_counts(g, F, mask)[0]
            hit = False
            for combo in itertools.combinations(range(len(paths)), i):
                Q = tuple(paths[j] for j in combo)
                if membership_ciq(g, mask, Q, F, p, q, s, t):
                    hit = True
                    break
            assert hit

    def test_22_violated_cuts_live_in_first_three_path_families(self):
        # The unique safe edge of a violated cut carries two flow units, so
        # it lies on two of the four paths, hence on one of the first three.
        found_violated = False
        for seed in range(15):
            inst = st_instance(seed + 60, p=2, q=2, safe_prob=0.3)
            g = inst.to_graph()
            s, t = 0, g.n - 1
            caps = [2 if e.safe else 1 for e in g.edges]
            seed_set = min_cost_flow(g, caps, s, t, 4).support()
            plan = StagePlan(p=2, q=2, scope="st", s=s, t=t)
            membership = predicate(g.n, stage_cuts(g, seed_set, plan, None), s)
            violated = [m for m in st_cut_masks(g.n, s, t) if membership(m)]
            if not violated:
                continue
            found_violated = True
            seed_caps = [caps[eid] if eid in seed_set else 0 for eid in range(g.m)]
            paths = flow_decompose(g, min_cost_flow(g, seed_caps, s, t, 4))
            for mask in violated:
                assert any(
                    membership_ciq(g, mask, (paths[i],), seed_set, 2, 2, s, t)
                    for i in range(3)
                )
        assert found_violated

    def test_seed_trichotomy(self):
        # Every s-t cut of a capacitated seed: two safe edges, or four total
        # edges, or exactly one safe plus two unsafe.
        for seed in range(6):
            inst = st_instance(seed + 80, p=2, q=2)
            g = inst.to_graph()
            s, t = 0, g.n - 1
            caps = [2 if e.safe else 1 for e in g.edges]
            seed_set = min_cost_flow(g, caps, s, t, 4).support()
            for mask in st_cut_masks(g.n, s, t):
                safe, total = boundary_counts(g, seed_set, mask)
                unsafe = total - safe
                assert (
                    safe >= 2
                    or total >= 4
                    or (safe == 1 and unsafe == 2)
                )


FLEX_ST_PARAMS = [
    (p, q) for p in range(1, 5) for q in range(1, 4) if p + q > p * q / 2
]


class TestPathGroups:
    """The path-subset grouping against the cut-by-cut definition
    ``membership_ciq``: a family built from a group contains exactly the
    masks the definition accepts."""

    @pytest.mark.parametrize("p,q", FLEX_ST_PARAMS)
    def test_ring_families_match_the_definition(self, p, q):
        # Replay the top level of solve_flex_st.  At p = 1 or q = 1 the
        # capacitated seed leaves no violated cut, so no family forms.
        found = 0
        for seed in range(2):
            g = st_instance(seed, p=p, q=q, safe_prob=0.35).to_graph()
            s, t = 0, g.n - 1
            caps = [p + q if e.safe else p for e in g.edges]
            F = solve_flex_st(g, s, t, p, q - 1)
            F = F | min_cost_flow(g, caps, s, t, p * (p + q)).support()
            plan = make_flex_st_plan(p, q, s, t)
            for i in range(p):
                paths = _cap_flow_paths(g, F, plan)
                added = set()
                for fam in _ring_families(g, F, plan, i, stage_cuts(g, F, plan, i)):
                    Q = [paths[j] for j in ast.literal_eval(fam.label.split("^")[1])]
                    for mask in range(1 << g.n):
                        assert fam.contains(mask) == membership_ciq(g, mask, Q, F, p, q, s, t)
                    added |= ring_cover_exact(fam)
                    found += 1
                F = F | added
        assert found or p == 1 or q == 1

    def test_22_path_groups_match_the_definition(self):
        found = 0
        plan = StagePlan(p=2, q=2, scope="st", s=0, t=5)
        for seed in range(12):
            g = st_instance(seed, m=16, safe_prob=0.3).to_graph()
            caps = [2 if e.safe else 1 for e in g.edges]
            seed_set = min_cost_flow(g, caps, 0, 5, 4).support()
            violated = stage_cuts(g, seed_set, plan, None)
            seed_caps = [caps[eid] if eid in seed_set else 0 for eid in range(g.m)]
            paths = flow_decompose(g, min_cost_flow(g, seed_caps, 0, 5, 4))
            groups = _path_groups(g, seed_set, violated, paths, 0)
            for idx in range(3):
                fam = CutFamily(
                    graph=g,
                    cuts=groups.get(frozenset({idx}), 0),
                    ground=g.all_edge_ids() - seed_set,
                    side=0,
                )
                found += bool(fam.cuts)
                for mask in range(1 << g.n):
                    expected = membership_ciq(g, mask, (paths[idx],), seed_set, 2, 2, 0, 5)
                    assert fam.contains(mask) == expected
        assert found

    def test_a_path_meeting_the_boundary_more_than_once_takes_no_edge(self):
        # The cut {0, 1} has boundary edges 0 (safe), 1 (unsafe) and 2
        # (safe).  Path 0 crosses it three times, at both safe edges; paths
        # 1 and 2 cross it once each, at edges 0 and 2.  Only a path that
        # meets the boundary exactly once may take a safe edge, so {1, 2} is
        # the cut's only group.
        g = FaultGraph(
            4,
            [
                (0, 2, 1, "safe"),
                (2, 1, 1, "unsafe"),
                (1, 3, 1, "safe"),
                (2, 3, 1, "unsafe"),
                (0, 1, 1, "unsafe"),
            ],
        )
        paths = [(0, 1, 2), (0, 3), (4, 2)]
        cut = 1 << cut_index(g.n, 0b0011)
        assert _path_groups(g, g.all_edge_ids(), cut, paths, 0) == {frozenset({1, 2}): cut}

    def test_flex_aug_contains_follows_the_orientation(self):
        # A single-pair family holds the s-side of each cut, a spanning
        # family either side.
        for single in (True, False):
            found = False
            for seed in range(10):
                if single:
                    g = st_instance(seed + 20, safe_prob=0.3).to_graph()
                    reqs = [FlexRequirement(0, g.n - 1, 2, 2)]
                    F1 = solve_flex_st(g, 0, g.n - 1, 2, 1)
                else:
                    g = fgc_instance(seed + 20).to_graph()
                    reqs = fgc_requirements(g.n, 2, 2)
                    F1, _ = exact_solve(g, Problem("flex", flex=fgc_requirements(g.n, 2, 1)))
                fam = violated_cuts_flex_aug(g, reqs, F1)
                if not fam.cuts:
                    continue
                found = True
                full = (1 << g.n) - 1
                sides = set(fam.members)
                if single:
                    assert all(mask & 1 for mask in sides)
                else:
                    sides |= {full ^ mask for mask in sides}
                assert {mask for mask in range(1 << g.n) if fam.contains(mask)} == sides
            assert found


class TestStageCosts:
    def test_stage_cost_within_binomial_bound(self):
        # Stage i adds at most (p(p+q) choose i) exact covers' worth.
        p = q = 2
        for seed in range(8):
            inst = st_instance(seed + 100, p=p, q=q, safe_prob=0.35)
            g = inst.to_graph()
            prob = inst.problem
            _opt_sol, opt = exact_solve(g, prob)
            base = min_cost_flow(g, 1, 0, g.n - 1, p).support()
            for level in range(1, q + 1):
                caps = [p + level if e.safe else p for e in g.edges]
                seed_set = min_cost_flow(g, caps, 0, g.n - 1, p * (p + level)).support()
                plan = make_flex_st_plan(p, level, 0, g.n - 1)
                # Replay the stages: each stage's exact ring covers together.
                F = base | seed_set
                for i, spec in enumerate(plan.stages):
                    added = set()
                    for fam in _stage_families(g, F, plan, spec, stage_cuts(g, F, plan, spec)):
                        added |= ring_cover_exact(fam)
                    assert g.total_cost(added) <= comb(p * (p + level), i) * opt + 1e-9
                    F = F | added
                assert F == augment_stages(g, base | seed_set, [plan])
                base = F


class TestGuarantees:
    def test_fgc_table(self):
        # (2, 2) gets the tighter of 2q+2 = 6 and 2p+4 = 8.
        assert fgc_guarantee(2, 2) == 6
        assert fgc_guarantee(2, 3) == 8
        assert fgc_guarantee(3, 2) == 10
        assert fgc_guarantee(3, 3) == 16
        assert fgc_guarantee(4, 4) == 28
        assert fgc_guarantee(5, 1) == 4

    def test_flex_st_formula(self):
        # 1 + sum over levels of (p+j) + sum_i C(p(p+j), i)
        assert flex_st_guarantee(1, 1) == 1 + (2 + 1)
        assert flex_st_guarantee(2, 2) == 1 + (3 + 1 + 6) + (4 + 1 + 8)
