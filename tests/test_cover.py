import itertools
from dataclasses import replace
from random import Random

import pytest

from faultnet import cover, flexalg, trace
from faultnet.cover import (
    CoverResult,
    CutFamily,
    exact_cover,
    primal_dual_cover,
    ring_cover_exact,
)
from faultnet.cuts import all_cuts, cut_index, layout_of, masks, predicate
from faultnet.errors import NotRingFamily, Uncoverable
from faultnet.exact import exact_solve
from faultnet.flexalg import fgc_plans, flex_base, make_fgc_plan, _stage_families, solve_fgc
from faultnet.graph import FaultGraph, boundary
from faultnet.instances import (
    figure_1_instance,
    figure_3_instance,
    figure_4_instance,
    generate,
)
from faultnet.oracles import (
    FlexRequirement,
    Problem,
    cut_classes,
    fgc_requirements,
    is_flex_feasible,
    violated_cuts_flex_aug,
)
from oracle_utils import (
    _minimal_violated,
    boundary_counts,
    brute_set_cover,
    check_uncrossable,
    ecsndp_base,
    list_primal_dual_cover,
    membership_ciq,
    per_requirement_ecsndp_base,
    stage_cuts,
    uncross_pair_ok,
    violated,
)
from test_acceptance import FALLBACK_CONFIGS, _fgc_inst, _ratio_shape


def family_from_members(g, members, ground=None, side=None):
    """The family of the given masks, all oriented by ``side`` (the side
    holding that vertex, or the anchor-free side when None)."""
    mem = frozenset(members)
    cuts = 0
    for mask in mem:
        cuts |= 1 << cut_index(g.n, mask)
    fam = CutFamily(
        graph=g,
        cuts=cuts,
        ground=frozenset(ground if ground is not None else g.all_edge_ids()),
        label="test",
        side=side,
    )
    assert fam.members == tuple(sorted(mem))
    return fam


def single_member_family():
    g = FaultGraph(
        3, [(0, 1, 5.0, "safe"), (0, 1, 2.0, "safe"), (1, 2, 1.0, "safe")]
    )
    return family_from_members(g, {0b001})


def uncoverable_family():
    g = FaultGraph(3, [(0, 1, 1.0, "safe"), (1, 2, 1.0, "safe")])
    return family_from_members(g, {0b001}, ground={1})  # edge 1 misses the cut


def nested_chain_family():
    # chain 0-1-2-3 plus a long chord 0-3; nested cuts {0},{0,1},{0,1,2}
    g = FaultGraph(
        4,
        [
            (0, 1, 3.0, "safe"),
            (1, 2, 4.0, "safe"),
            (2, 3, 5.0, "safe"),
            (0, 3, 2.0, "safe"),
        ],
    )
    return family_from_members(g, {0b0001, 0b0011, 0b0111}, ground={3}, side=0)


def two_minimal_family():
    g = FaultGraph(4, [(0, 1, 1, "safe"), (1, 2, 1, "safe"), (2, 3, 1, "safe")])
    return family_from_members(g, {0b0001, 0b0100})


def closure_failing_family():
    # properly intersecting members whose intersection is missing
    g = FaultGraph(4, [(0, 1, 1, "safe"), (1, 2, 1, "safe"), (2, 3, 1, "safe"), (0, 3, 1, "safe")])
    return family_from_members(g, {0b0001, 0b0011, 0b1001}, side=0)


def path_ring_families(seed):
    """Ring subfamilies harvested from a real (2, 2) single-pair seed: the
    violated cuts of the flow seed, split by the first three flow paths."""
    from faultnet.flexalg import StagePlan
    from faultnet.flow import flow_decompose, min_cost_flow
    from faultnet.graph import st_cut_masks

    inst = generate(
        "random-multigraph",
        n=6,
        m=16,
        seed=seed,
        params={
            "problem": "flex-st",
            "p": 2,
            "q": 2,
            "skeleton": "mixed",
            "safe_prob": 0.3,
        },
    )
    g = inst.to_graph()
    caps = [2 if e.safe else 1 for e in g.edges]
    seed_set = min_cost_flow(g, caps, 0, 5, 4).support()
    plan = StagePlan(p=2, q=2, scope="st", s=0, t=5)
    membership = predicate(g.n, stage_cuts(g, seed_set, plan, None), plan.s)
    violated = [m for m in st_cut_masks(g.n, 0, 5) if membership(m)]
    if not violated:
        return []
    seed_caps = [caps[eid] if eid in seed_set else 0 for eid in range(g.m)]
    paths = flow_decompose(g, min_cost_flow(g, seed_caps, 0, 5, 4))
    ground = g.all_edge_ids() - seed_set
    families = []
    for idx in range(3):
        Q = (paths[idx],)
        members = [
            m
            for m in violated
            if membership_ciq(g, m, Q, seed_set, 2, 2, 0, 5)
        ]
        if members:
            families.append(family_from_members(g, members, ground=ground, side=0))
    return families


def family_rows(fam):
    return [boundary(fam.graph, fam.ground, m) for m in fam.members]


def fgc_instance(seed, n=6, m=14, p=2, q=2, skeleton="mixed"):
    cycles = (p + 1) // 2
    if skeleton == "mixed":
        cycles = max(cycles, (p + q + 1) // 2)
    m = max(m, cycles * n + 4)
    inst = generate(
        "random-multigraph",
        n=n,
        m=m,
        seed=seed,
        params={"problem": "fgc", "p": p, "q": q, "skeleton": skeleton},
    )
    return inst.to_graph()


class TestPrimalDual:
    def test_single_member_picks_cheapest_crossing_edge(self):
        fam = single_member_family()
        result = primal_dual_cover(fam)
        assert result.edges == {1}
        assert result.dual_lower_bound == 2.0

    @pytest.mark.parametrize("seed", range(6))
    def test_21_fgc_family_within_twice_exact(self, seed):
        g = fgc_instance(seed, p=2, q=1)
        base, _ = exact_solve(g, Problem("flex", flex=fgc_requirements(6, 2, 0)))
        fam = violated_cuts_flex_aug(g, fgc_requirements(6, 2, 1), base)
        if not fam.members:
            pytest.skip("no violated cuts")
        result = primal_dual_cover(fam)
        _best, opt = exact_cover(
            family_rows(fam), {eid: g.cost_of(eid) for eid in fam.ground}
        )
        assert g.total_cost(result.edges) <= 2 * opt + 1e-9
        assert result.dual_lower_bound <= opt + 1e-9

    @pytest.mark.parametrize("seed", range(4))
    def test_staged_2q_within_2q_plus_2(self, seed):
        # End-to-end (2, q) runs match the staged analysis bound.
        q = 2
        g = fgc_instance(seed + 20, p=2, q=q)
        prob = Problem("flex", flex=fgc_requirements(6, 2, q))
        _sol, opt = exact_solve(g, prob)
        from faultnet.flexalg import solve_fgc

        sol = solve_fgc(g, 2, q)
        assert g.total_cost(sol) <= (2 * q + 2) * opt + 1e-9

    def test_certificate_and_minimality(self):
        for seed in range(5):
            g = fgc_instance(seed + 40, p=2, q=2)
            base, _ = exact_solve(g, Problem("flex", flex=fgc_requirements(6, 2, 1)))
            fam = violated_cuts_flex_aug(g, fgc_requirements(6, 2, 2), base)
            if not fam.members:
                continue
            result = primal_dual_cover(fam)
            assert _minimal_violated(fam, result.edges) == []
            assert g.total_cost(result.edges) <= 2 * result.dual_lower_bound + 1e-9
            for eid in result.edges:
                assert _minimal_violated(fam, result.edges - {eid}) != []

    def test_uncoverable(self):
        with pytest.raises(Uncoverable):
            primal_dual_cover(uncoverable_family())

    def test_a_family_with_no_member_builds_no_tables(self, monkeypatch):
        # It returns before the crossing, ratio and residual tables, so
        # neither the crossing sets nor the costs of its ground are read.
        fam = replace(single_member_family(), cuts=0)

        def refused(*_args):
            raise AssertionError("an empty cover read its ground")

        monkeypatch.setattr(cover, "side", refused)
        monkeypatch.setattr(cover, "lcm", refused)
        with trace.recording() as counts:
            result = primal_dual_cover(fam)
        assert result == CoverResult(frozenset(), 0.0, ())
        assert result.dual_lower_bound.hex() == (0.0).hex()
        assert dict(counts) == {"cover.covers": 1, "cover.steps": 0, "cover.drops": 0}


class TestMinimalMembers:
    """``CutFamily.minimal`` on the cut kernel against the pairwise filter
    over decoded members."""

    @pytest.mark.parametrize("n", range(2, 9))
    def test_random_cut_sets(self, n):
        rng = Random(n)
        g = FaultGraph(n, [(v, (v + 1) % n, 1.0, "safe") for v in range(n)])
        every = all_cuts(n)
        for side in (None, *range(n)):
            for density in (0.05, 0.3, 0.7, 1.0):
                for _ in range(12):
                    cuts = sum(
                        1 << i for i in range(every.bit_length()) if rng.random() < density
                    )
                    fam = CutFamily(graph=g, cuts=cuts, ground=g.all_edge_ids(), side=side)
                    A = rng.sample(range(g.m), rng.randint(0, 2))
                    got = masks(n, fam.minimal(violated(fam, A)), side)
                    assert got == sorted(_minimal_violated(fam, A)), (
                        side,
                        bin(cuts),
                        A,
                    )


class TestRingCoverExact:
    def test_nested_chain_shared_edge(self):
        assert ring_cover_exact(nested_chain_family()) == {3}

    def test_path_families_match_brute_force_ilp(self):
        # Ring subfamilies harvested from real (2, 2) single-pair seeds:
        # the exact cover must equal the subset-enumeration ILP optimum.
        checked = 0
        for seed in range(20):
            for fam in path_ring_families(seed):
                g = fam.graph
                got = ring_cover_exact(fam)
                rows = family_rows(fam)
                best = brute_set_cover(
                    rows, {eid: g.cost_of(eid) for eid in g.all_edge_ids()}
                )
                assert abs(g.total_cost(got) - best[0]) < 1e-9
                checked += 1
            if checked >= 6:
                break
        assert checked >= 3

    def test_not_ring_family_two_minimal(self):
        with pytest.raises(NotRingFamily):
            ring_cover_exact(two_minimal_family())

    def test_not_ring_family_closure(self):
        with pytest.raises(NotRingFamily):
            ring_cover_exact(closure_failing_family())

    def test_uncoverable_member(self):
        with pytest.raises(Uncoverable):
            ring_cover_exact(uncoverable_family())


class TestExactCover:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_subset_enumeration(self, seed):
        rng = Random(seed)
        universe = list(range(8))
        rows = []
        for _ in range(rng.randint(2, 5)):
            size = rng.randint(1, 4)
            rows.append(frozenset(rng.sample(universe, size)))
        costs = {e: round(rng.uniform(0.5, 3.0), 3) for e in universe}
        got_set, got_cost = exact_cover(rows, costs)
        best_cost, _best_set = brute_set_cover(rows, costs)
        assert abs(got_cost - best_cost) < 1e-9
        assert all(got_set & set(r) for r in rows)


class TestUncrossable:
    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_2q_families_uncrossable(self, q):
        # Lifting (2, q-1) to (2, q): the whole violated family uncrosses.
        for seed in range(4):
            g = fgc_instance(seed + q * 10, p=2, q=q)
            base, _ = exact_solve(
                g, Problem("flex", flex=fgc_requirements(6, 2, q - 1))
            )
            fam = violated_cuts_flex_aug(g, fgc_requirements(6, 2, q), base)
            ok, _pair = check_uncrossable(fam)
            assert ok

    def test_figure_1_counterexample(self):
        inst = figure_1_instance()
        g = inst.to_graph()
        fam = violated_cuts_flex_aug(g, fgc_requirements(4, 3, 2), g.all_edge_ids())
        ok, pair = check_uncrossable(fam)
        assert not ok
        assert {pair[0].mask, pair[1].mask} == {0b0011, 0b0110}
        assert not uncross_pair_ok(fam.contains, 0b0011, 0b0110)

    def test_figure_3_counterexample(self):
        inst = figure_3_instance()
        g = inst.to_graph()
        fam = violated_cuts_flex_aug(g, fgc_requirements(4, 3, 4), g.all_edge_ids())
        ok, pair = check_uncrossable(fam)
        assert not ok
        assert not uncross_pair_ok(fam.contains, 0b0011, 0b0110)

    def test_figure_4_counterexample_in_stage_c3(self):
        inst = figure_4_instance()
        g = inst.to_graph()
        F = g.all_edge_ids()
        fam = violated_cuts_flex_aug(g, fgc_requirements(4, 4, 5), F)
        # Both named cuts carry exactly 3 safe edges (stage family C_3).
        for mask in (0b0011, 0b0110):
            assert fam.contains(mask)
            assert boundary_counts(g, F, mask)[0] == 3
        ok, _pair = check_uncrossable(fam)
        assert not ok
        assert not uncross_pair_ok(fam.contains, 0b0011, 0b0110)

    def test_lemma_structure_corner_boundaries(self):
        # Member pairs whose intersection/union (or both differences) carry
        # exactly p+q-1 edges must uncross.
        p, q = 2, 2
        for seed in range(4):
            g = fgc_instance(seed + 60, p=p, q=q)
            base, _ = exact_solve(
                g, Problem("flex", flex=fgc_requirements(6, p, q - 1))
            )
            fam = violated_cuts_flex_aug(g, fgc_requirements(6, p, q), base)
            members = [m for m in range(1, (1 << g.n) - 1) if fam.contains(m)]
            for a, b in itertools.combinations(members, 2):
                du = boundary_counts(g, base, a | b)[1]
                di = boundary_counts(g, base, a & b)[1]
                dab = boundary_counts(g, base, a & ~b)[1]
                dba = boundary_counts(g, base, b & ~a)[1]
                if (du == di == p + q - 1) or (dab == dba == p + q - 1):
                    assert uncross_pair_ok(fam.contains, a, b)

    @pytest.mark.parametrize("p,q", [(3, 2), (3, 3), (4, 2), (4, 3)])
    def test_stage_families_uncrossable_q_le_3(self, p, q):
        # Each stage family constructed during a real staged run uncrosses.
        g = fgc_instance(p * 17 + q, n=6, m=max(14, ((p + 1) // 2) * 6 + 6), p=p, q=q)
        base, _ = exact_solve(g, Problem("flex", flex=fgc_requirements(6, p, q - 1)))
        plan = make_fgc_plan(p, q)
        F = frozenset(base)
        for spec in plan.stages:
            for fam in _stage_families(g, F, plan, spec, stage_cuts(g, F, plan, spec)):
                ok, _ = check_uncrossable(fam)
                assert ok
                F = F | primal_dual_cover(fam).edges

    def test_stage_families_uncrossable_q4_even_p(self):
        p, q = 4, 4
        g = fgc_instance(91, n=6, m=18, p=p, q=q)
        base, _ = exact_solve(g, Problem("flex", flex=fgc_requirements(6, p, 3)))
        plan = make_fgc_plan(p, q)
        F = frozenset(base)
        for spec in plan.stages:
            for fam in _stage_families(g, F, plan, spec, stage_cuts(g, F, plan, spec)):
                ok, _ = check_uncrossable(fam)
                assert ok
                F = F | primal_dual_cover(fam).edges

    @pytest.mark.parametrize("q", [4, 5])
    def test_stage_families_uncrossable_p1(self, q):
        # At p = 1 a violated cut has no safe edge and exactly q boundary
        # edges, so the one family of every level uncrosses.  Replays
        # solve_fgc from its (1, 0) base through every level.
        crossing_pairs_possible = 0
        for seed in range(6):
            g = fgc_instance(seed + 10 * q, n=7, p=1, q=q)
            F, _ = exact_solve(g, Problem("flex", flex=fgc_requirements(7, 1, 0)))
            for plan in fgc_plans(1, q):
                for spec in plan.stages:
                    for fam in _stage_families(g, F, plan, spec, stage_cuts(g, F, plan, spec)):
                        ok, _ = check_uncrossable(fam)
                        assert ok
                        crossing_pairs_possible += plan.q >= 4 and len(fam.members) >= 2
                        F = F | primal_dual_cover(fam).edges
        assert crossing_pairs_possible


def cover_and_kept_sets(fam):
    """``primal_dual_cover(fam)`` and the minimal violated cut set its
    growth saw at each step, in step order (the last one empty)."""
    kept = []
    minimal = CutFamily.minimal

    def recorded(self, cuts):
        out = minimal(self, cuts)
        if self is fam:
            kept.append(out)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(CutFamily, "minimal", recorded)
        return primal_dual_cover(fam), kept


def assert_matches_list_reference(fam):
    """The cover of ``fam`` equals the member-list reference exactly: the
    same edges, the same dual bound to the bit, the same trace, and at each
    growth step the same minimal violated members."""
    try:
        want = list_primal_dual_cover(fam)
    except Uncoverable:
        with pytest.raises(Uncoverable):
            primal_dual_cover(fam)
        return None
    got, kept = cover_and_kept_sets(fam)
    assert got.edges == want.edges, fam.label
    assert got.dual_lower_bound.hex() == want.dual_lower_bound.hex(), fam.label
    assert got.trace == want.trace, fam.label
    added = [eid for step, eid in got.trace if step == "add"]
    assert len(kept) == len(added) + 1, fam.label
    for step, cuts in enumerate(kept):
        want_minimal = sorted(_minimal_violated(fam, added[:step]))
        assert masks(fam.graph.n, cuts, fam.side) == want_minimal, (fam.label, step)
    return got


# Costs whose binary exponents span the whole float range, with 0.0, 1/3 and
# 0.1, which no finite binary fraction holds.
ADVERSARIAL_COSTS = (5e-324, 2.0**-60, 0.1, 1 / 3, 1e300, 0.0)


def adversarial_family(seed):
    """A random family on a cycle plus chords, its edge costs drawn with
    repeats from ADVERSARIAL_COSTS and 1.0, so that costs tie and duals of
    every magnitude add up."""
    rng = Random(seed)
    n = rng.randint(3, 7)
    pairs = [(v, (v + 1) % n) for v in range(n)]
    pairs += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 2 * n))]
    costs = rng.choices((*ADVERSARIAL_COSTS, 1.0), k=rng.randint(2, 4))
    g = FaultGraph(n, [(u, v, rng.choice(costs), "safe") for u, v in pairs])
    cuts = 0
    while not cuts:
        cuts = rng.getrandbits(all_cuts(n).bit_length())
    side = rng.choice([None, *range(n)])
    return CutFamily(graph=g, cuts=cuts, ground=g.all_edge_ids(), label=f"costs {seed}", side=side)


class TestListReference:
    """``primal_dual_cover`` on a cut set against the member-list reference
    with per-mask duals and multiplicity planes."""

    def test_hand_built_families(self):
        families = [
            single_member_family(),
            uncoverable_family(),
            nested_chain_family(),
            two_minimal_family(),
            closure_failing_family(),
        ]
        for seed in range(20):
            families += path_ring_families(seed)
        covered = [assert_matches_list_reference(fam) for fam in families]
        assert sum(r is not None for r in covered) >= 10
        assert covered[1] is None  # the uncoverable family raises in both

    def test_adversarial_costs(self):
        # Exact growth only: float residuals miss ties and tight edges here,
        # and a float running sum of the duals rounds each step.
        results = [assert_matches_list_reference(adversarial_family(seed)) for seed in range(300)]
        assert all(result is not None for result in results)
        bounds = {result.dual_lower_bound for result in results}
        assert 0.0 in bounds and max(bounds) >= 1e300 and min(bounds - {0.0}) < 1e-300
        assert sum(len(result.trace) > 3 for result in results) >= 100

    def test_stage_families_of_fgc_plans(self):
        compared = drops = 0
        for p, q in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 2), (4, 3)]:
            plan = make_fgc_plan(p, q)
            for seed in range(8):
                g = fgc_instance(seed + 100 * p + 10 * q, p=p, q=q)
                F = solve_fgc(g, p, q - 1)
                for spec in plan.stages:
                    for fam in _stage_families(g, F, plan, spec, stage_cuts(g, F, plan, spec)):
                        result = assert_matches_list_reference(fam)
                        F = F | result.edges
                        compared += bool(fam.members)
                        drops += any(step == "drop" for step, _eid in result.trace)
        assert compared >= 50
        assert drops >= 1

    def test_fallback_base_on_mixed_requirements(self):
        # Flex-sndp instances with (p_i, 0) pairs of mixed p_i, with the
        # exact search budget at 0 so that flex_base runs its level plans
        # on the pairs' cut classes.  The base must be the one that scoping
        # each level from the requirements gives, and the class loop's
        # reference, and (p_i, 0)-feasible.  Seeds 0-35 at n = 5-7 have a
        # cut at every level; the three at n = 4-6 each have a level with
        # none.
        cases = [(seed, 5, 7) for seed in range(36)] + [(seed, 4, 6) for seed in (617, 1462, 2020)]
        mixed = empty = 0
        for seed, low, high in cases:
            rng = Random(seed)
            n = rng.randint(low, high)
            pairs = []
            while len({p for *_st, p, _q in pairs}) < 2:
                s, t = rng.sample(range(n), 2)
                pairs.append([s, t, rng.randint(1, 3), 0])
            top = max(p for *_st, p, _q in pairs)
            inst = generate(
                "random-multigraph",
                n=n,
                m=rng.randint(2 * n, 3 * n),
                seed=seed,
                params={"problem": "flex-sndp", "p": top, "q": 0, "skeleton": "mixed", "pairs": pairs},
            )
            g, reqs = inst.to_graph(), inst.problem.flex
            with pytest.MonkeyPatch.context() as mp, trace.recording() as counts:
                mp.setenv("FAULTNET_EXACT_BUDGET", "0")
                base = flex_base(g, reqs)
            assert counts["flexalg.ecsndp_bases"] == 1 and counts["flexalg.exact_bases"] == 0
            assert base == per_requirement_ecsndp_base(g, reqs)
            assert base == ecsndp_base(g, cut_classes(g, inst.problem))
            assert is_flex_feasible(g, reqs, base)[0]
            mixed += len({r.p for r in reqs}) > 1
            empty += max(r.p for r in reqs) - counts["cover.covers"]
        assert mixed == len(cases)
        assert empty == 3

    def test_fallback_base_matches_the_class_loop(self):
        # The criterion-2 fallback instances at (p, 0), with the exact
        # search budget at 0: the level plans give the base of the class
        # loop they replaced, one level and one cover per p.
        for p, q in FALLBACK_CONFIGS:
            for idx in range(10):
                n, m, skeleton = _ratio_shape("fgc", p, q, idx)
                g = _fgc_inst(idx * 7919 + p * 131 + q * 17, p, q, n, m, skeleton).to_graph()
                problem = Problem("flex", flex=fgc_requirements(g.n, p, 0))
                with pytest.MonkeyPatch.context() as mp, trace.recording() as counts:
                    mp.setenv("FAULTNET_EXACT_BUDGET", "0")
                    base = flex_base(g, problem.flex)
                assert counts["flexalg.ecsndp_bases"] == 1 and counts["cover.covers"] == p
                assert base == ecsndp_base(g, cut_classes(g, problem)), (p, q, idx)

    def test_every_fallback_base_level(self):
        # The criterion-2 fallback instances, with the exact search budget
        # at 0 so that solve_fgc runs the fallback base.  Its levels and
        # the augmentation stages both cover through the name in flexalg;
        # the base levels carry the "ecsndp level k" label.
        levels = []

        def checked(fam):
            levels.append(fam.label)
            return assert_matches_list_reference(fam)

        for p, q in FALLBACK_CONFIGS:
            for idx in range(10):
                n, m, skeleton = _ratio_shape("fgc", p, q, idx)
                g = _fgc_inst(idx * 7919 + p * 131 + q * 17, p, q, n, m, skeleton).to_graph()
                with pytest.MonkeyPatch.context() as mp:
                    mp.setenv("FAULTNET_EXACT_BUDGET", "0")
                    mp.setattr(flexalg, "primal_dual_cover", checked)
                    solve_fgc(g, p, q)
        base_levels = [label for label in levels if label.startswith("ecsndp level")]
        assert len(base_levels) == sum(p for p, _q in FALLBACK_CONFIGS) * 10
        assert all(label.startswith("spanning(") for label in levels if label not in base_levels)

    def test_a_level_with_no_cut_calls_no_cover(self, monkeypatch):
        # Classes on the cuts B = {0}, C = {0, 1} and D = {0, 2} of a 4-vertex
        # graph: B at p = 3, C and D at p = 2.  Level 1 buys edge 0, (0, 3),
        # which crosses all three.  Level 2 buys edge 1, (0, 2), for B and C,
        # then edge 2, (0, 1), for D, so B has three chosen edges and level
        # 3, the cuts of B's class with exactly two, has none.  No pair
        # gives these classes, so flex_base reads them in place of the
        # requirement's.
        g = FaultGraph(4, [(0, 3, 1.0, "safe"), (0, 2, 5.0, "safe"), (0, 1, 5.0, "safe")])
        width = layout_of(g).width

        def guards(*sides):
            return sum(1 << (cut_index(4, mask) + 1) * width - 1 for mask in sides)

        classes = {(2, 0): guards(0b011, 0b101), (3, 0): guards(0b001)}
        families = []

        def recorded(fam):
            families.append(fam)
            return primal_dual_cover(fam)

        monkeypatch.setenv("FAULTNET_EXACT_BUDGET", "0")
        monkeypatch.setattr(flexalg, "cut_classes", lambda _g, _problem: classes)
        monkeypatch.setattr(flexalg, "primal_dual_cover", recorded)
        with trace.recording() as counts:
            base = flex_base(g, [FlexRequirement(0, 3, 3, 0)])
        assert base == {0, 1, 2} == ecsndp_base(g, classes)
        assert [fam.label for fam in families] == ["ecsndp level 1", "ecsndp level 2"]
        assert counts["cover.covers"] == 2 and counts["cuts.boundaries"] == 1
