import itertools
from dataclasses import replace
from random import Random

import pytest

from faultnet.cover import exact_cover
from faultnet.errors import (
    BaseNotFeasible,
    EnumerationTooLarge,
    PriorLevelNotSatisfied,
)
from faultnet.exact import exact_solve
from faultnet.graph import FaultGraph, boundary
from faultnet.instances import appendix_a_instance, figure_1_instance, generate
from faultnet.oracles import (
    BulkScenario,
    FlexRequirement,
    Problem,
    RelativeRequirement,
    RsndpWitness,
    expand_rsndp_to_bulk,
    fgc_requirements,
    is_bulk_feasible,
    is_flex_feasible,
    is_rsndp_feasible,
    uniform_pq,
    violated_cuts_flex_aug,
    violating_edge_sets_bulk,
)
from oracle_utils import (
    boundary_counts,
    brute_connected,
    brute_flex_feasible,
    brute_rsndp_feasible,
    contains,
    expand_flex_to_bulk,
    random_graph,
    unsafe_ids,
)


def random_subset(rng: Random, ids, keep=0.7):
    return frozenset(eid for eid in ids if rng.random() < keep)


def relative_case(seed):
    """(G, requirements, H) of one random relative case: n = 2-7, both
    random generator kinds, one to three requirements with r = 1-4.  Every
    third case cuts one vertex off G, so G separates its pairs, and every
    fifth sets the first requirement's r above m."""
    rng = Random(seed)
    n = rng.randint(2, 7)
    kind = ("random-multigraph", "random-geometric")[seed % 2]
    params = {"problem": "rsndp", "pairs": 1, "r": 2}
    specs = generate(kind, n=n, m=rng.randint(n, 2 * n), seed=seed, params=params).edge_specs
    if seed % 3 == 0:
        lone = rng.randrange(n)
        specs = [spec for spec in specs if lone not in spec[:2]]
    g = FaultGraph(n, specs)
    reqs = [RelativeRequirement(*rng.sample(range(n), 2), rng.randint(1, 4)) for _ in range(rng.randint(1, 3))]
    if seed % 5 == 0:
        reqs[0] = RelativeRequirement(reqs[0].s, reqs[0].t, g.m + rng.randint(1, 5))
    return g, reqs, random_subset(rng, range(g.m))


class TestFlexFeasible:
    def test_disjoint_safe_paths(self):
        # p disjoint all-safe paths: unsafe failures never bite.
        p = 3
        g = FaultGraph(
            5,
            [(0, 1 + i, 1.0, "safe") for i in range(p)]
            + [(1 + i, 4, 1.0, "safe") for i in range(p)],
        )
        ok, _ = is_flex_feasible(g, [FlexRequirement(0, 4, p, 5)], g.all_edge_ids())
        assert ok

    def test_appendix_a_single_safe_edge(self):
        # One safe edge plus all unsafe edges is infeasible for (1, k):
        # fewer than (k+1)/2 safe edges cannot work.
        k = 2
        inst = appendix_a_instance(k)
        g = inst.to_graph()
        H = frozenset(unsafe_ids(g)) | {2}  # block 0's safe edge only
        ok, witness = is_flex_feasible(g, inst.problem.flex, H)
        assert not ok
        assert witness is not None and contains(witness.cut, 0)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_double_brute_force(self, seed):
        rng = Random(seed)
        g = random_graph(seed + 100, 7, 12)
        H = random_subset(rng, range(g.m))
        reqs = [FlexRequirement(0, 6, rng.randint(1, 2), rng.randint(0, 2))]
        ok, _ = is_flex_feasible(g, reqs, H)
        assert ok == brute_flex_feasible(g, reqs, H)


class TestBulkFeasible:
    def test_empty_failure_reduces_to_connectivity(self):
        g = random_graph(4, 6, 10)
        sc = BulkScenario(frozenset(), ((0, 5), (1, 2)))
        ok, _ = is_bulk_feasible(g, [sc], g.all_edge_ids())
        assert ok

    def test_missing_backup_path(self):
        # path 0-1-2 with a detour 0-3-2; failing the 0-1 edge needs the detour
        g = FaultGraph(
            4,
            [(0, 1, 1, "safe"), (1, 2, 1, "safe"), (0, 3, 1, "safe"), (3, 2, 1, "safe")],
        )
        sc = BulkScenario(frozenset({0}), ((0, 2),))
        ok, witness = is_bulk_feasible(g, [sc], frozenset({0, 1}))
        assert not ok and witness.pair == (0, 2)

    def test_width_zero_spanning_tree(self):
        g = random_graph(5, 6, 12)
        tree = set()
        seen = {0}
        # greedy spanning tree from edge list
        changed = True
        while changed and len(seen) < g.n:
            changed = False
            for e in g.edges:
                if (e.u in seen) != (e.v in seen):
                    tree.add(e.id)
                    seen.update({e.u, e.v})
                    changed = True
        scenarios = [BulkScenario(frozenset(), ((u, v),)) for u in range(2) for v in range(3, 5)]
        ok, _ = is_bulk_feasible(g, scenarios, frozenset(tree))
        assert ok


class TestRsndpFeasible:
    def test_h_equals_g_always_feasible(self):
        g = random_graph(6, 6, 10)
        reqs = [RelativeRequirement(0, 5, 3)]
        ok, _ = is_rsndp_feasible(g, reqs, g.all_edge_ids())
        assert ok

    def test_r1_plain_connectivity(self):
        g = FaultGraph(3, [(0, 1, 1, "safe"), (1, 2, 1, "safe")])
        ok, _ = is_rsndp_feasible(g, [RelativeRequirement(0, 2, 1)], frozenset({0}))
        assert not ok
        ok, _ = is_rsndp_feasible(g, [RelativeRequirement(0, 2, 1)], frozenset({0, 1}))
        assert ok

    @pytest.mark.parametrize("seed", range(60))
    def test_matches_definition(self, seed):
        g, reqs, H = relative_case(seed)
        ok, witness = is_rsndp_feasible(g, reqs, H)
        assert ok == brute_rsndp_feasible(g, reqs, H)
        if not ok:
            # The witness is a failure set of the definition.
            req, F = witness.requirement, witness.fail
            assert req in reqs and len(F) < req.r
            assert not brute_connected(g, H - F, req.s, req.t)
            assert brute_connected(g, g.all_edge_ids() - F, req.s, req.t)

    def test_cases_are_mixed(self):
        # The cases above hold both verdicts, pairs that G separates, and
        # requirements that no failure set of G can reach.
        cases = [relative_case(seed) for seed in range(60)]
        verdicts = {is_rsndp_feasible(g, reqs, H)[0] for g, reqs, H in cases}
        assert verdicts == {True, False}
        assert any(
            not brute_connected(g, g.all_edge_ids(), r.s, r.t) for g, reqs, _H in cases for r in reqs
        )
        assert any(r.r > g.m for g, reqs, _H in cases for r in reqs)

    def test_witness_is_smallest_then_first(self):
        # Two parallel 0-1 edges (0, 1) and two parallel 1-2 edges (2, 3).
        # The witness has the fewest edges, then the smallest edge list,
        # then the first requirement in input order.
        g = FaultGraph(3, [(0, 1, 1, "safe"), (0, 1, 1, "safe"), (1, 2, 1, "safe"), (1, 2, 1, "safe")])
        a, b, c = RelativeRequirement(1, 2, 2), RelativeRequirement(0, 1, 2), RelativeRequirement(0, 2, 2)
        # H = {0, 2}: {2} cuts pair 1-2 and {0} pair 0-1; {0} and {2} both cut 0-2.
        assert is_rsndp_feasible(g, [a, b], {0, 2})[1] == RsndpWitness(b, frozenset({0}))
        assert is_rsndp_feasible(g, [c, b], {0, 2})[1] == RsndpWitness(c, frozenset({0}))
        assert is_rsndp_feasible(g, [b, c], {0, 2})[1] == RsndpWitness(b, frozenset({0}))
        # H = {2}: {2} cuts pair 1-2, and H itself leaves 0 apart from 1.
        assert is_rsndp_feasible(g, [a, b], {2})[1] == RsndpWitness(b, frozenset())
        # Three parallel 0-1 edges (1-3) and three 1-2 edges (0, 4, 5); H =
        # {1, 2, 5}.  Both {1, 2} and {5} cut pair 0-2, and the smaller wins.
        ends = [(1, 2), (0, 1), (0, 1), (0, 1), (1, 2), (1, 2)]
        g = FaultGraph(3, [(u, v, 1, "safe") for u, v in ends])
        req = RelativeRequirement(0, 2, 3)
        assert is_rsndp_feasible(g, [req], {1, 2, 5})[1] == RsndpWitness(req, frozenset({5}))

    def test_enumeration_budget(self, monkeypatch):
        # The check lists no failure sets, only the 2^6 cuts: at r = 3 the
        # 1 + 12 + 66 = 79 failure sets exceed a budget of 64, and the
        # check still answers.  Only a budget below 2^6 refuses it.
        g = random_graph(1, 6, 12)
        reqs = [RelativeRequirement(0, 5, 3)]
        monkeypatch.setenv("FAULTNET_ENUM_BUDGET", "64")
        assert is_rsndp_feasible(g, reqs, g.all_edge_ids()) == (True, None)
        monkeypatch.setenv("FAULTNET_ENUM_BUDGET", "63")
        with pytest.raises(EnumerationTooLarge, match="2\\^6 cuts exceed the enumeration budget"):
            is_rsndp_feasible(random_graph(1, 6, 12), reqs, g.all_edge_ids())


class TestViolatedCutsFlexAug:
    def test_already_feasible_gives_empty_family(self):
        g = random_graph(7, 6, 14, safe_prob=1.0)  # all safe
        reqs = [FlexRequirement(0, 5, 2, 1)]
        fam = violated_cuts_flex_aug(g, reqs, g.all_edge_ids())
        assert fam.members == ()

    def test_figure_1_memberships(self):
        inst = figure_1_instance()
        g = inst.to_graph()
        fam = violated_cuts_flex_aug(g, fgc_requirements(4, 3, 2), g.all_edge_ids())
        A, B = 0b0011, 0b0110
        assert fam.contains(A) and fam.contains(B)
        assert not fam.contains(A | B) and not fam.contains(B & ~A)

    @pytest.mark.parametrize("seed", range(6))
    def test_enumerator_equals_definitional_filter(self, seed):
        g = random_graph(seed + 300, 7, 14)
        reqs = [FlexRequirement(0, 6, 2, 1)]
        F1_sol, _ = exact_solve(g, Problem("flex", flex=(FlexRequirement(0, 6, 2, 0),)))
        try:
            fam = violated_cuts_flex_aug(g, reqs, F1_sol)
        except BaseNotFeasible:
            pytest.skip("base infeasible")
        expected = []
        for mask in range(1, (1 << g.n) - 1):
            if not ((mask >> 0) & 1) or ((mask >> 6) & 1):
                continue  # canonical orientation: s side
            safe, total = boundary_counts(g, F1_sol, mask)
            if total == 2 and safe < 2:
                expected.append(mask)
        assert sorted(fam.members) == sorted(expected)

    def test_base_not_feasible(self):
        g = FaultGraph(3, [(0, 1, 1, "unsafe"), (1, 2, 1, "unsafe")])
        with pytest.raises(BaseNotFeasible):
            violated_cuts_flex_aug(g, [FlexRequirement(0, 2, 2, 1)], g.all_edge_ids())

    def test_empty_family_iff_feasible(self):
        for seed in range(5):
            g = random_graph(seed + 350, 6, 12)
            req = FlexRequirement(0, 5, 1, 1)
            base, _ = exact_solve(g, Problem("flex", flex=(FlexRequirement(0, 5, 1, 0),)))
            fam = violated_cuts_flex_aug(g, [req], base)
            ok, _ = is_flex_feasible(g, [req], base)
            assert (fam.members == ()) == ok

    def test_cover_restores_feasibility(self):
        # Covering every violated cut with one new edge lifts the level.
        for seed in range(5):
            g = random_graph(seed + 400, 6, 12)
            req = FlexRequirement(0, 5, 2, 1)
            okg, _ = is_flex_feasible(g, [req], g.all_edge_ids())
            if not okg:
                continue
            base, _ = exact_solve(g, Problem("flex", flex=(FlexRequirement(0, 5, 2, 0),)))
            fam = violated_cuts_flex_aug(g, [req], base)
            if not fam.members:
                continue
            rows = [boundary(g, fam.ground, m) for m in fam.members]
            cover, _cost = exact_cover(rows, {eid: g.cost_of(eid) for eid in fam.ground})
            ok, _ = is_flex_feasible(g, [req], base | cover)
            assert ok


class TestViolatingEdgeSetsBulk:
    def test_tree_edge_failure(self):
        g = FaultGraph(3, [(0, 1, 1, "safe"), (1, 2, 1, "safe"), (0, 2, 1, "safe")])
        sc = BulkScenario(frozenset({0}), ((0, 1),))
        H = frozenset({0, 1})
        out = violating_edge_sets_bulk(g, [sc], H, 1)
        assert out == [(frozenset({0}), (0, 1))]

    def test_satisfied_gives_empty(self):
        g = FaultGraph(3, [(0, 1, 1, "safe"), (1, 2, 1, "safe"), (0, 2, 1, "safe")])
        sc = BulkScenario(frozenset({0}), ((0, 1),))
        out = violating_edge_sets_bulk(g, [sc], g.all_edge_ids(), 1)
        assert out == []

    def test_prior_level_not_satisfied(self):
        g = FaultGraph(3, [(0, 1, 1, "safe"), (1, 2, 1, "safe"), (0, 2, 1, "safe")])
        sc = BulkScenario(frozenset({0}), ((0, 1),))
        with pytest.raises(PriorLevelNotSatisfied):
            violating_edge_sets_bulk(g, [sc], frozenset({1}), 1)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_definitional_enumeration_and_minimality(self, seed):
        rng = Random(seed)
        g = random_graph(seed + 500, 6, 10)
        fail = frozenset(rng.sample(range(g.m), 3))
        sc = BulkScenario(fail, ((0, 5),))
        ok, _ = is_bulk_feasible(g, [sc], g.all_edge_ids())
        if not ok:
            pytest.skip("scenario unsatisfiable")
        # H: everything except one random non-failed edge
        level = 2
        try:
            out = violating_edge_sets_bulk(g, [sc], g.all_edge_ids(), level)
        except PriorLevelNotSatisfied:
            pytest.skip("prior level violated")
        expected = set()
        from faultnet.graph import same_component

        for combo in itertools.combinations(sorted(fail), level):
            F = frozenset(combo)
            if not same_component(g, g.all_edge_ids() - F, 0, 5):
                expected.add((F, (0, 5)))
        assert set(out) == expected
        # minimality: strict subsets never disconnect
        for F, (u, v) in out:
            for sub_size in range(len(F)):
                for sub in itertools.combinations(sorted(F), sub_size):
                    assert same_component(g, g.all_edge_ids() - frozenset(sub), u, v)


class TestExpansions:
    def test_flex_10_trivial(self):
        g = FaultGraph(2, [(0, 1, 1, "safe")])
        scen = expand_flex_to_bulk(g, [FlexRequirement(0, 1, 1, 0)])
        assert scen == (BulkScenario(frozenset(), ((0, 1),)),)

    def test_flex_11_one_unsafe_edge(self):
        g = FaultGraph(2, [(0, 1, 1, "unsafe"), (0, 1, 1, "safe")])
        scen = expand_flex_to_bulk(g, [FlexRequirement(0, 1, 1, 1)])
        fails = sorted(sorted(sc.fail) for sc in scen)
        assert fails == [[], [0]]

    @pytest.mark.parametrize("seed", range(12))
    def test_flex_equiv_bulk_expansion(self, seed):
        rng = Random(seed)
        g = random_graph(seed + 600, 6, 9)
        p, q = rng.choice([(1, 1), (2, 1), (1, 2), (2, 2)])
        reqs = [FlexRequirement(0, 5, p, q)]
        scen = expand_flex_to_bulk(g, reqs)
        for _trial in range(6):
            H = random_subset(rng, range(g.m), keep=0.75)
            okf, _ = is_flex_feasible(g, reqs, H)
            okb, _ = is_bulk_feasible(g, scen, H)
            assert okf == okb

    def test_rsndp_identity_at_r1(self):
        g = random_graph(9, 5, 8)
        scen = expand_rsndp_to_bulk(g, [RelativeRequirement(0, 4, 1)])
        assert scen == (BulkScenario(frozenset(), ((0, 4),)),)

    def test_bridge_failure_unconstrained(self):
        # two triangles joined by a bridge: failing the bridge separates the
        # pair in the whole graph too, so no scenario mentions them.
        g = FaultGraph(
            6,
            [
                (0, 1, 1, "safe"), (1, 2, 1, "safe"), (2, 0, 1, "safe"),
                (3, 4, 1, "safe"), (4, 5, 1, "safe"), (5, 3, 1, "safe"),
                (2, 3, 1, "safe"),
            ],
        )
        scen = expand_rsndp_to_bulk(g, [RelativeRequirement(0, 5, 2)])
        for sc in scen:
            if 6 in sc.fail:
                assert (0, 5) not in sc.pairs

    @pytest.mark.parametrize("seed", range(8))
    def test_rsndp_equiv_bulk_expansion(self, seed):
        rng = Random(seed)
        g = random_graph(seed + 700, 6, 9)
        reqs = [RelativeRequirement(0, 5, rng.randint(1, 3))]
        scen = expand_rsndp_to_bulk(g, reqs)
        for _trial in range(6):
            H = random_subset(rng, range(g.m), keep=0.7)
            okr, _ = is_rsndp_feasible(g, reqs, H)
            okb, _ = is_bulk_feasible(g, scen, H) if scen else (True, None)
            assert okr == okb


class TestWidthBudget:
    def test_expansion_budget_guard(self, monkeypatch):
        monkeypatch.setenv("FAULTNET_ENUM_BUDGET", "10")
        g = random_graph(3, 6, 12)
        with pytest.raises(EnumerationTooLarge):
            expand_flex_to_bulk(g, [FlexRequirement(0, 5, 2, 2)])
        with pytest.raises(EnumerationTooLarge):
            expand_rsndp_to_bulk(g, [RelativeRequirement(0, 5, 3)])


class TestUniformPq:
    def test_shared_pair_or_none(self):
        a, b = FlexRequirement(0, 1, 2, 1), FlexRequirement(1, 2, 2, 1)
        c = FlexRequirement(0, 2, 1, 1)
        assert uniform_pq([a, b]) == (2, 1)
        assert uniform_pq([a, c]) is None and uniform_pq([]) is None
        assert Problem("flex", flex=(a, b, FlexRequirement(0, 2, 2, 1))).is_fgc(3)
        assert not Problem("flex", flex=(a, b, c)).is_fgc(3)


def fgc_by_sets(problem: Problem, n: int) -> bool:
    """``Problem.is_fgc`` by its definition: a flex problem whose pairs
    share one (p, q) and, as unordered pairs, are every pair of the n
    vertices and nothing else."""
    if problem.kind != "flex" or uniform_pq(problem.flex) is None:
        return False
    pairs = {(min(r.s, r.t), max(r.s, r.t)) for r in problem.flex}
    return pairs == set(itertools.combinations(range(n), 2))


class TestIsFgc:
    def test_matches_the_set_definition(self):
        # Shuffled, reversed (s > t) and duplicated pairs, one pair missing
        # or one out of range, and mixed (p, q), against the set definition
        # at every n from 2 to 8 (and at the neighbouring n, which every
        # one of these lists fails).
        rng = Random(49)
        seen = {True: 0, False: 0}
        for n in range(2, 9):
            every = list(itertools.combinations(range(n), 2))
            for trial in range(40):
                p, q = rng.randint(1, 3), rng.randint(0, 2)
                pairs = list(every)
                rng.shuffle(pairs)
                pairs = [(t, s) if rng.random() < 0.5 else (s, t) for s, t in pairs]
                pairs += rng.sample(pairs, rng.randint(0, min(3, len(pairs))))
                shape = trial % 5
                if shape == 1:
                    gone = rng.choice(every)
                    pairs = [pair for pair in pairs if {*pair} != {*gone}]
                elif shape == 2:
                    pairs.append((rng.randrange(n), n))
                reqs = [FlexRequirement(s, t, p, q) for s, t in pairs]
                if shape == 3 and reqs:
                    k = rng.randrange(len(reqs))
                    reqs[k] = replace(reqs[k], q=q + 1)
                if not reqs:
                    continue
                problem = Problem("flex", flex=tuple(reqs))
                for size in (n - 1, n, n + 1):
                    want = fgc_by_sets(problem, size)
                    assert problem.is_fgc(size) == want
                    seen[want] += 1
        assert seen[True] >= 100 and seen[False] >= 400

    def test_other_kinds_are_not_fgc(self):
        bulk = Problem("bulk", scenarios=(BulkScenario(frozenset({0}), ((0, 1),)),))
        relative = Problem("rsndp", relative=(RelativeRequirement(0, 1, 2),))
        assert not bulk.is_fgc(2) and not relative.is_fgc(2)
        assert Problem("flex", flex=fgc_requirements(2, 1, 0)).is_fgc(2)


class TestFgcRequirements:
    def test_one_shared_tuple_per_shape(self):
        reqs = fgc_requirements(5, 2, 1)
        assert reqs is fgc_requirements(5, 2, 1)
        assert reqs == tuple(
            FlexRequirement(u, v, 2, 1) for u in range(5) for v in range(u + 1, 5)
        )
        assert fgc_requirements(5, 2, 0) is not reqs
        assert fgc_requirements(5, 2, 0) == tuple(replace(r, q=0) for r in reqs)

    def test_the_cache_is_bounded(self):
        maxsize = fgc_requirements.cache_parameters()["maxsize"]
        assert type(maxsize) is int and maxsize > 0
