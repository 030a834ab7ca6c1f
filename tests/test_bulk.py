import itertools
import math
import re
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from random import Random

import pytest

from faultnet import trace
from faultnet.bulk import (
    TREES,
    HittingInstance,
    _best_of_trees,
    _tree_seed,
    _violations_of_level,
    augment_bulk,
    build_hitting_instance,
    greedy_hitting_set,
    sample_tree,
    solve_bulk_sndp,
    solve_flex_sndp,
    solve_rsndp,
)
from faultnet.cuts import Boundary
from faultnet.errors import (
    Disconnected,
    FaultnetError,
    InfeasibleAugmentation,
    PriorLevelNotSatisfied,
    Unhittable,
)
from faultnet.exact import exact_solve
from faultnet.flexalg import solve_flex_st
from faultnet.graph import FaultGraph, connected_components, same_component
from faultnet.instances import appendix_a_instance, generate
from faultnet.oracles import (
    BulkScenario,
    FlexRequirement,
    Problem,
    RelativeRequirement,
    _check_prior_levels,
    _flex_violations,
    expand_rsndp_to_bulk,
    is_bulk_feasible,
    is_flex_feasible,
    is_rsndp_feasible,
    violating_edge_sets_bulk,
)
from oracle_utils import (
    brute_set_cover,
    expand_flex_to_bulk,
    expansion_solve_rsndp,
    fraction_greedy_hitting_set,
    kruskal_mst_cost,
    plain_best_of_trees,
    random_graph,
    tree_edges,
    tree_stretch,
    union_find_check_prior_levels,
    union_find_expand_rsndp,
    union_find_hitting_instance,
    union_find_level_violations,
)


def bulk_instance(seed, n=7, m=14, width=2, scenarios=4):
    return generate(
        "random-multigraph",
        n=n,
        m=m,
        seed=seed,
        params={"problem": "bulk", "width": width, "scenarios": scenarios},
    )


class TestSampleTree:
    def test_tree_input_reproduced_with_unit_stretch(self):
        g = FaultGraph(4, [(0, 1, 1, "safe"), (1, 2, 2, "safe"), (2, 3, 1, "safe")])
        tree = sample_tree(g, seed=5)
        assert tree_edges(tree) == {0, 1, 2}
        assert tree_stretch(g, tree) == (1.0, 1.0)

    def test_cycle_drops_one_edge(self):
        n = 6
        g = FaultGraph(n, [(i, (i + 1) % n, 1.0, "safe") for i in range(n)])
        tree = sample_tree(g, seed=9)
        assert len(tree_edges(tree)) == n - 1
        dropped = next(iter(g.all_edge_ids() - tree_edges(tree)))
        e = g.edges[dropped]
        # The dropped edge's endpoints go all the way around: stretch n-1.
        assert len(tree.path(e.u, e.v)) == n - 1
        assert abs(tree_stretch(g, tree)[0] - (n - 1)) < 1e-9

    def test_deterministic_per_seed(self):
        g = random_graph(7, 8, 16)
        t1 = sample_tree(g, seed=42)
        t2 = sample_tree(g, seed=42)
        assert tree_edges(t1) == tree_edges(t2) and t1.root == t2.root
        t3 = sample_tree(g, seed=43)
        # different seed may give a different tree; both must span
        assert len(tree_edges(t3)) == g.n - 1

    def test_stretch_statistics_reported(self):
        g = random_graph(11, 12, 26)
        stretches = [tree_stretch(g, sample_tree(g, seed=s))[1] for s in range(8)]
        assert all(s >= 1.0 - 1e-12 for s in stretches)

    def test_disconnected_rejected(self):
        g = FaultGraph(4, [(0, 1, 1, "safe"), (2, 3, 1, "safe")])
        with pytest.raises(Disconnected):
            sample_tree(g, seed=0)

    def test_path_endpoints(self):
        g = random_graph(3, 7, 14)
        tree = sample_tree(g, seed=1)
        for u in range(g.n):
            for v in range(u + 1, g.n):
                path = tree.path(u, v)
                comps = connected_components(g, frozenset(path))
                assert any(u in c and v in c for c in comps)

    def test_zero_cost_edges_keep_parent_depths(self):
        g = FaultGraph(3, [(0, 1, 0.0, "safe"), (1, 2, 0.0, "safe")])
        tree = sample_tree(g, seed=5)
        assert tree.depth[tree.root] == 0
        for v in range(g.n):
            if v != tree.root:
                assert tree.depth[v] == tree.depth[tree.parent_vertex[v]] + 1
        assert tree.path(0, 2) == (0, 1)

    @pytest.mark.parametrize("seed", range(6))
    def test_zero_cost_path_graph(self, seed):
        # On a path graph every tree path is the segment between its ends.
        # The depth check comes first: with wrong depths path() can loop.
        n = 5
        g = FaultGraph(n, [(i, i + 1, 0.0, "safe") for i in range(n - 1)])
        tree = sample_tree(g, seed=seed)
        for v in range(n):
            if v != tree.root:
                assert tree.depth[v] == tree.depth[tree.parent_vertex[v]] + 1
        for u in range(n):
            for v in range(u + 1, n):
                assert sorted(tree.path(u, v)) == list(range(u, v))


class TestGreedyHittingSet:
    def test_prefers_cheaper_single_hitter(self):
        inst = HittingInstance(
            set_keys=(("s0",),),
            elements=(0, 1),
            costs={0: 3.0, 1: 5.0},
            hits={0: frozenset({0}), 1: frozenset({0})},
        )
        assert greedy_hitting_set(inst) == [0]

    def test_disjoint_sets_need_private_elements(self):
        inst = HittingInstance(
            set_keys=(("a",), ("b",)),
            elements=(0, 1),
            costs={0: 1.0, 1: 1.0},
            hits={0: frozenset({0}), 1: frozenset({1})},
        )
        assert sorted(greedy_hitting_set(inst)) == [0, 1]

    def test_unhittable_reports_witness(self):
        inst = HittingInstance(
            set_keys=(("a",), ("b",)),
            elements=(0,),
            costs={0: 1.0},
            hits={0: frozenset({0})},
        )
        with pytest.raises(Unhittable) as err:
            greedy_hitting_set(inst)
        assert err.value.witness == ("b",)

    @pytest.mark.parametrize("seed", range(8))
    def test_within_log_factor_of_exact(self, seed):
        rng = Random(seed)
        n_sets = rng.randint(3, 12)
        n_elems = rng.randint(3, 9)
        hits = {}
        for e in range(n_elems):
            hits[e] = frozenset(
                s for s in range(n_sets) if rng.random() < 0.4
            )
        # ensure hittable
        for s in range(n_sets):
            if not any(s in hits[e] for e in range(n_elems)):
                lucky = rng.randrange(n_elems)
                hits[lucky] = hits[lucky] | {s}
        costs = {e: round(rng.uniform(0.5, 4.0), 3) for e in range(n_elems)}
        inst = HittingInstance(
            set_keys=tuple((f"s{i}",) for i in range(n_sets)),
            elements=tuple(range(n_elems)),
            costs=costs,
            hits=hits,
        )
        picks = greedy_hitting_set(inst)
        got = sum(costs[e] for e in picks)
        rows = [
            frozenset(e for e in range(n_elems) if s in hits[e])
            for s in range(n_sets)
        ]
        best_cost, _ = brute_set_cover(rows, costs)
        assert got <= (1 + math.log(n_sets)) * best_cost + 1e-9

    @staticmethod
    def two_elements(newly, costs):
        """Element i hits newly[i] sets of its own."""
        hits, start = {}, 0
        for eid, k in enumerate(newly):
            hits[eid] = frozenset(range(start, start + k))
            start += k
        return HittingInstance(
            set_keys=tuple((f"s{i}",) for i in range(start)),
            elements=tuple(range(len(newly))),
            costs=dict(enumerate(costs)),
            hits=hits,
        )

    @pytest.mark.parametrize(
        "newly, costs, picks",
        [
            # 1 * 0.5 == 5 * 0.1 in floats, but 5 * Fraction(0.1) is larger:
            # element 1 has the better ratio and a float test would tie.
            ((1, 5), (0.1, 0.5), [1, 0]),
            ((1, 9), (0.1, 0.9), [1, 0]),
            # 5 * 0.14 == 7 * 0.1 in floats, and 7 * Fraction(0.1) is larger.
            ((5, 7), (0.1, 0.14), [0, 1]),
            # 3 * 0.1 and 1 * 0.3 differ in floats too.
            ((1, 3), (0.1, 0.3), [1, 0]),
            ((3, 1), (0.3, 0.1), [0, 1]),
            # Exact ties go to the smallest element.
            ((2, 4), (1, 2), [0, 1]),
            ((4, 2), (Fraction(2, 3), Fraction(1, 3)), [0, 1]),
            ((1, 3), (Fraction(1, 3), Fraction(1, 1)), [0, 1]),
            ((3, 1), (3, Fraction(1, 3)), [1, 0]),
        ],
    )
    def test_near_ties_compare_exactly(self, newly, costs, picks):
        inst = self.two_elements(newly, costs)
        assert greedy_hitting_set(inst) == picks
        assert fraction_greedy_hitting_set(inst) == picks

    @pytest.mark.parametrize("seed", range(40))
    def test_picks_match_the_fraction_loop(self, seed):
        rng = Random(seed)
        n_sets = rng.randint(1, 14)
        n_elems = rng.randint(1, 9)
        # Few distinct costs and hit counts, so near-ties are common.
        pool = [0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1.4, 3, Fraction(1, 3), Fraction(2, 3)]
        hits = {
            e: frozenset(s for s in range(n_sets) if rng.random() < 0.5)
            for e in range(n_elems)
        }
        inst = HittingInstance(
            set_keys=tuple((f"s{i}",) for i in range(n_sets)),
            elements=tuple(rng.sample(range(n_elems), n_elems)),
            costs={e: rng.choice(pool) for e in range(n_elems)},
            hits=hits,
        )
        try:
            expected = fraction_greedy_hitting_set(inst)
        except Unhittable as err:
            with pytest.raises(Unhittable) as got:
                greedy_hitting_set(inst)
            assert got.value.witness == err.witness
        else:
            assert greedy_hitting_set(inst) == expected


class TestAugmentBulk:
    def test_no_violations_adds_tree_paths_only(self):
        g = random_graph(21, 6, 12, safe_prob=1.0)
        scenarios = (BulkScenario(frozenset(), ((0, 5),)),)
        out = augment_bulk(g, scenarios, frozenset(), 0, seed=3)
        # level 0 with an empty prior: exactly H_P of the winning tree
        assert out
        assert same_component(g, out, 0, 5)

    def test_single_scenario_level_one(self):
        inst = bulk_instance(5, width=1)
        g = inst.to_graph()
        scen = inst.problem.scenarios
        H0 = augment_bulk(g, scen, frozenset(), 0, seed=1)
        H1 = augment_bulk(g, scen, H0, 1, seed=1)
        assert violating_edge_sets_bulk(g, scen, H1, 1) == []
        _opt, opt_cost = exact_solve(g, inst.problem)
        assert g.total_cost(H1) >= opt_cost - 1e-9

    def test_prior_levels_checked_once_on_h_prev(self, monkeypatch):
        import faultnet.bulk as bulk_mod

        inst = bulk_instance(5, width=1)
        g = inst.to_graph()
        scen = inst.problem.scenarios
        H0 = augment_bulk(g, scen, frozenset(), 0, seed=1)
        checked = []
        original = bulk_mod._check_prior_levels

        def record(g, scenarios, H, level, *prior):
            checked.append(H)
            original(g, scenarios, H, level, *prior)

        monkeypatch.setattr(bulk_mod, "_check_prior_levels", record)
        H1 = augment_bulk(g, scen, H0, 1, seed=1)
        assert checked == [H0]
        assert violating_edge_sets_bulk(g, scen, H1, 1) == []

    def test_augment_bulk_makes_no_union_find_call(self, monkeypatch):
        # The precondition and the level oracle both run on the cut kernel.
        import faultnet.oracles as oracles_mod

        def refuse(*_args):
            raise AssertionError("union-find call")

        inst = bulk_instance(5, width=2)
        g = inst.to_graph()
        scen = inst.problem.scenarios
        H = frozenset()
        monkeypatch.setattr(oracles_mod, "component_labels", refuse)
        for level in range(3):
            H = augment_bulk(g, scen, H, level, seed=1)
        with pytest.raises(PriorLevelNotSatisfied):
            augment_bulk(g, scen, frozenset(), 2, seed=1)
        monkeypatch.undo()
        assert is_bulk_feasible(g, scen, H) == (True, None)

    def test_h_prev_missing_a_lower_level_raises(self):
        # The empty set fails level 0 (no failure at all), even though every
        # tree's paths would connect the pairs.
        inst = bulk_instance(5, width=1)
        g = inst.to_graph()
        with pytest.raises(PriorLevelNotSatisfied):
            augment_bulk(g, inst.problem.scenarios, frozenset(), 1, seed=1)

    def test_fundamental_cycles_reconnect(self):
        # Every greedy pick's cycle must join the two sides of a set it hits.
        found = False
        for seed in range(10):
            inst = bulk_instance(seed + 40, width=2)
            g = inst.to_graph()
            scen = inst.problem.scenarios
            H = augment_bulk(g, scen, frozenset(), 0, seed=seed)
            try:
                viol = violating_edge_sets_bulk(g, scen, H, 1)
            except Exception:
                continue
            if not viol:
                continue
            tree = sample_tree(g, seed=_tree_seed(seed, 1, 0))
            H_P = set(H)
            for sc in scen:
                for u, v in sc.pairs:
                    H_P.update(tree.path(u, v))
            H_work = frozenset(H_P)
            viol = violating_edge_sets_bulk(g, scen, H_work, 1)
            if not viol:
                continue
            inst_h = build_hitting_instance(g, H_work, tree, viol, Boundary(g, H_work))
            picks = greedy_hitting_set(inst_h)
            for eid in picks:
                e = g.edges[eid]
                cycle = frozenset({eid}) | frozenset(tree.path(e.u, e.v))
                for si in inst_h.hits[eid]:
                    F, (u, v) = viol[si]
                    assert same_component(g, (H_work | cycle) - F, u, v)
                    found = True
        assert found


class TestBestOfTreesUnhittable:
    """augment_bulk skips a tree whose hitting instance is unhittable."""

    def level_one(self):
        # Every tree of level 1 leaves violating sets on this instance.
        inst = bulk_instance(14, width=1)
        g = inst.to_graph()
        scen = inst.problem.scenarios
        return g, scen, augment_bulk(g, scen, frozenset(), 0, seed=1)

    def test_first_unhittable_tree_is_skipped(self, monkeypatch):
        import faultnet.bulk as bulk_mod

        calls = []

        def first_call_fails(inst):
            calls.append(inst)
            if len(calls) == 1:
                raise Unhittable("forced", witness=inst.set_keys[0])
            return greedy_hitting_set(inst)

        g, scen, H0 = self.level_one()
        monkeypatch.setattr(bulk_mod, "greedy_hitting_set", first_call_fails)
        H1 = augment_bulk(g, scen, H0, 1, seed=1)
        assert len(calls) > 1
        assert violating_edge_sets_bulk(g, scen, H1, 1) == []

    def test_every_tree_unhittable_raises(self, monkeypatch):
        import faultnet.bulk as bulk_mod

        def never_hits(inst):
            raise Unhittable("forced", witness=inst.set_keys[0])

        g, scen, H0 = self.level_one()
        monkeypatch.setattr(bulk_mod, "greedy_hitting_set", never_hits)
        with pytest.raises(InfeasibleAugmentation) as info:
            augment_bulk(g, scen, H0, 1, seed=1)
        assert isinstance(info.value.__cause__, Unhittable)


class TestSolveBulk:
    @pytest.mark.parametrize("case, builds", [("parallel", 7), ("generated", 4)])
    def test_each_level_oracle_is_built_once(self, case, builds):
        # Each level builds one oracle and the precondition builds none, so
        # a width-w run builds w + 1.
        if case == "parallel":
            # Three vertices, 5 parallel safe edges per side; one scenario
            # fails 3 on each side for pair 0-2.
            g = FaultGraph(3, [(i // 5, i // 5 + 1, 1.0 + i % 3, "safe") for i in range(10)])
            scenarios = (BulkScenario(frozenset({0, 1, 2, 5, 6, 7}), ((0, 2),)),)
        else:
            inst = bulk_instance(1, width=3)
            g, scenarios = inst.to_graph(), inst.problem.scenarios
            assert sorted(len(sc.fail) for sc in scenarios) == [1, 1, 2, 3]
        with trace.recording() as counts:
            H = solve_bulk_sndp(g, scenarios, seed=1)
        assert counts["oracles.level_builds"] == builds
        assert is_bulk_feasible(g, scenarios, H) == (True, None)

    def test_width_zero_is_steiner_forest_via_tree_paths(self):
        g = random_graph(31, 7, 13)
        scenarios = (BulkScenario(frozenset(), ((0, 6), (1, 2))),)
        sol = solve_bulk_sndp(g, scenarios, seed=2)
        ok, _ = is_bulk_feasible(g, scenarios, sol)
        assert ok

    @pytest.mark.parametrize("seed", range(5))
    def test_width_two_feasible_with_ratio(self, seed, monkeypatch):
        import faultnet.bulk as bulk_mod

        inst = bulk_instance(seed + 50, width=2)
        g = inst.to_graph()
        levels = []
        original = bulk_mod.augment_bulk

        def record(g, scenarios, H_prev, level, seed=0, **kwargs):
            levels.append(level)
            return original(g, scenarios, H_prev, level, seed=seed, **kwargs)

        monkeypatch.setattr(bulk_mod, "augment_bulk", record)
        sol = solve_bulk_sndp(g, inst.problem.scenarios, seed=seed)
        ok, _ = is_bulk_feasible(g, inst.problem.scenarios, sol)
        assert ok
        assert levels and all(level == i for i, level in enumerate(levels))
        _opt, opt_cost = exact_solve(g, inst.problem)
        assert g.total_cost(sol) >= opt_cost - 1e-9

    def test_flex_11_via_expansion_comparable_to_direct(self):
        inst = generate(
            "random-multigraph",
            n=6,
            m=13,
            seed=8,
            params={"problem": "flex-st", "p": 1, "q": 1, "skeleton": "mixed"},
        )
        g = inst.to_graph()
        req = inst.problem.flex[0]
        scen = expand_flex_to_bulk(g, [req])
        sol_bulk = solve_bulk_sndp(g, scen, seed=4)
        sol_direct = solve_flex_st(g, req.s, req.t, 1, 1)
        ok, _ = is_flex_feasible(g, [req], sol_bulk)
        assert ok
        _opt, opt_cost = exact_solve(g, inst.problem)
        # same quality class: both within the direct guarantee
        from faultnet.flexalg import flex_st_guarantee

        bound = flex_st_guarantee(1, 1) * opt_cost + 1e-9
        assert g.total_cost(sol_direct) <= bound

    def test_hittability_is_tree_independent(self):
        # If one tree's instance is hittable, every tree's is.
        for seed in range(6):
            inst = bulk_instance(seed + 70, width=2)
            g = inst.to_graph()
            scen = inst.problem.scenarios
            H = augment_bulk(g, scen, frozenset(), 0, seed=seed)
            hittable = []
            for t in range(3):
                tree = sample_tree(g, seed=_tree_seed(seed, 1, t))
                H_P = set(H)
                for sc in scen:
                    for u, v in sc.pairs:
                        H_P.update(tree.path(u, v))
                H_work = frozenset(H_P)
                viol = violating_edge_sets_bulk(g, scen, H_work, 1)
                if not viol:
                    hittable.append(True)
                    continue
                inst_h = build_hitting_instance(g, H_work, tree, viol, Boundary(g, H_work))
                try:
                    greedy_hitting_set(inst_h)
                    hittable.append(True)
                except Unhittable:
                    hittable.append(False)
            assert len(set(hittable)) == 1


def reference_flex_violating_sets(g, H, reqs, round_index):
    """Every (F, pair) with F a subset of H of p + round - 1 edges, at most
    p - 1 of them safe, whose removal separates the pair."""
    out = set()
    for r in reqs:
        if r.q < round_index:
            continue
        for combo in itertools.combinations(sorted(H), r.p + round_index - 1):
            F = frozenset(combo)
            if len(F & g.safe_ids) > r.p - 1:
                continue
            if not same_component(g, H - F, r.s, r.t):
                out.add((F, (r.s, r.t)))
    return sorted(out, key=lambda fp: (sorted(fp[0]), fp[1]))


class TestFlexSndpDriver:
    def flex_sndp_unlucky_tree_instance(self):
        # One sampled tree of this instance (solved with seed 479) leaves an
        # unhittable violating set; the other trees succeed.
        return generate(
            "random-multigraph",
            n=7,
            m=14,
            seed=4796086,
            params={
                "problem": "flex-sndp",
                "p": 1,
                "q": 2,
                "skeleton": "mixed",
                "pairs": [[0, 6, 1, 2], [1, 4, 2, 1]],
            },
        )

    def test_unhittable_tree_is_skipped(self):
        inst = self.flex_sndp_unlucky_tree_instance()
        g = inst.to_graph()
        sol = solve_flex_sndp(g, inst.problem.flex, seed=479)
        ok, _ = is_flex_feasible(g, inst.problem.flex, sol)
        assert ok

    def test_each_round_keeps_its_own_oracle(self, monkeypatch):
        # Replayed after the loop, each round's oracle still answers for its
        # own round, not for the round the loop ended at.
        import faultnet.bulk as bulk_mod

        level_step = bulk_mod._best_of_trees
        steps = []

        def recorded(g, H_prev, pairs, violating, level, seed):
            steps.append((H_prev, violating, level))
            return level_step(g, H_prev, pairs, violating, level, seed)

        monkeypatch.setattr(bulk_mod, "_best_of_trees", recorded)
        inst = self.flex_sndp_unlucky_tree_instance()
        g, reqs = inst.to_graph(), inst.problem.flex
        solve_flex_sndp(g, reqs, seed=479)
        assert [level for _H, _violating, level in steps] == [1, 2]
        answers = [
            _flex_violations(g, reqs, level)(H_prev, Boundary(g, H_prev))
            for H_prev, _v, level in steps
        ]
        H_first = steps[0][0]
        assert answers[0]
        assert answers[0] != _flex_violations(g, reqs, 2)(H_first, Boundary(g, H_first))
        for (H_prev, violating, _level), want in zip(steps, answers):
            assert violating(H_prev, Boundary(g, H_prev)) == want

    def test_every_tree_unhittable_raises(self, monkeypatch):
        import faultnet.bulk as bulk_mod

        def never_hits(inst):
            raise Unhittable("forced", witness=inst.set_keys[0])

        monkeypatch.setattr(bulk_mod, "greedy_hitting_set", never_hits)
        inst = self.flex_sndp_unlucky_tree_instance()
        with pytest.raises(InfeasibleAugmentation) as info:
            solve_flex_sndp(inst.to_graph(), inst.problem.flex, seed=479)
        assert isinstance(info.value.__cause__, Unhittable)

    def test_all_pairs_10_is_connector(self):
        g = random_graph(41, 6, 12)
        reqs = tuple(FlexRequirement(u, u + 1, 1, 0) for u in range(5))
        sol = solve_flex_sndp(g, reqs, seed=0)
        ok, _ = is_flex_feasible(g, reqs, sol)
        assert ok
        # base is exact: a (1,0) all-consecutive-pairs problem is spanning
        assert abs(g.total_cost(sol) - kruskal_mst_cost(g)) < 1e-9

    @pytest.mark.parametrize("seed", range(4))
    def test_mixed_requirements(self, seed):
        inst = generate(
            "random-multigraph",
            n=7,
            m=16,
            seed=seed + 90,
            params={
                "problem": "flex-sndp",
                "p": 2,
                "q": 2,
                "skeleton": "mixed",
                "pairs": [(0, 4, 2, 1), (1, 5, 1, 2)],
            },
        )
        g = inst.to_graph()
        sol = solve_flex_sndp(g, inst.problem.flex, seed=seed)
        for req in inst.problem.flex:
            ok, _ = is_flex_feasible(g, [req], sol)
            assert ok

    @pytest.mark.parametrize(
        "n, m, seed, p, q, pairs",
        [
            (7, 14, 4796086, 1, 2, [[0, 6, 1, 2], [1, 4, 2, 1]]),
            (7, 16, 91, 2, 2, [(0, 4, 2, 1), (1, 5, 1, 2)]),
            (5, 17, 7, 2, 3, [(0, 4, 2, 2), (1, 3, 1, 3)]),
            (5, 18, 8, 3, 2, [(0, 4, 3, 2), (1, 2, 2, 1)]),
        ],
    )
    def test_violating_sets_match_subset_enumeration(self, n, m, seed, p, q, pairs):
        # H is feasible at the prior level: the exact optimum there, plus
        # up to two other edges.
        inst = generate(
            "random-multigraph",
            n=n,
            m=m,
            seed=seed,
            params={"problem": "flex-sndp", "p": p, "q": q, "skeleton": "mixed", "pairs": pairs},
        )
        g = inst.to_graph()
        reqs = inst.problem.flex
        rng = Random(seed)
        for round_index in range(1, max(r.q for r in reqs) + 1):
            prior = tuple(
                FlexRequirement(r.s, r.t, r.p, min(r.q, round_index - 1)) for r in reqs
            )
            H_prior, _cost = exact_solve(g, Problem("flex", flex=prior))
            rest = sorted(g.all_edge_ids() - H_prior)
            for extra in range(3):
                H = H_prior | frozenset(rng.sample(rest, min(extra, len(rest))))
                got = _flex_violations(g, reqs, round_index)(H, Boundary(g, H))
                assert got == reference_flex_violating_sets(g, H, reqs, round_index)

    def test_appendix_a_needs_half_the_safe_edges(self):
        k = 3
        inst = appendix_a_instance(k)
        g = inst.to_graph()
        sol = solve_flex_sndp(g, inst.problem.flex, seed=1)
        ok, _ = is_flex_feasible(g, inst.problem.flex, sol)
        assert ok
        assert len(sol & g.safe_ids) >= (k + 2) // 2


class TestRsndpDriver:
    def test_r1_pairs_steiner_forest(self):
        g = random_graph(51, 6, 12)
        reqs = (RelativeRequirement(0, 5, 1), RelativeRequirement(1, 3, 1))
        sol = solve_rsndp(g, reqs, seed=0)
        ok, _ = is_rsndp_feasible(g, reqs, sol)
        assert ok

    def test_bridge_creates_no_constraint(self):
        g = FaultGraph(
            6,
            [
                (0, 1, 1, "safe"), (1, 2, 1, "safe"), (2, 0, 1, "safe"),
                (3, 4, 1, "safe"), (4, 5, 1, "safe"), (5, 3, 1, "safe"),
                (2, 3, 5, "safe"),
            ],
        )
        reqs = (RelativeRequirement(0, 5, 2),)
        sol = solve_rsndp(g, reqs, seed=0)
        ok, _ = is_rsndp_feasible(g, reqs, sol)
        assert ok
        # the bridge's failure scenario must not force a second bridge copy
        # (there is none to buy), so the solve simply succeeds.

    def test_pairs_the_graph_never_connects_need_no_edges(self):
        # Two triangles: G itself leaves every pair across them cut, under
        # every failure set, so no scenario survives the expansion.
        g = FaultGraph(
            6,
            [
                (0, 1, 1, "safe"), (1, 2, 1, "safe"), (2, 0, 1, "safe"),
                (3, 4, 1, "safe"), (4, 5, 1, "safe"), (5, 3, 1, "safe"),
            ],
        )
        reqs = (RelativeRequirement(0, 5, 1), RelativeRequirement(1, 4, 2))
        assert solve_rsndp(g, reqs, seed=0) == frozenset()

    def test_unhittable_tree_is_skipped(self):
        # With seed 14, one tree of level 2 leaves a failure set that no
        # single fundamental cycle reconnects; the other trees succeed.
        inst = generate(
            "random-multigraph",
            n=7,
            m=13,
            seed=1014,
            params={"problem": "rsndp", "r": 3, "pairs": 2},
        )
        g = inst.to_graph()
        sol = solve_rsndp(g, inst.problem.relative, seed=14)
        ok, _ = is_rsndp_feasible(g, inst.problem.relative, sol)
        assert ok

    @pytest.mark.parametrize("n", range(2, 8))
    def test_graph_satisfies_its_expansion(self, n):
        # The exact search takes the whole graph as its first feasible
        # pool: G must satisfy every scenario of the expansion by
        # construction, disconnected G included.
        rng = Random(7 * n)
        seen = {"disconnected": 0, "scenarios": 0}
        for _trial in range(25):
            m = rng.randint(0, 2 * n)
            specs = []
            for _ in range(m):
                u, v = rng.sample(range(n), 2)
                specs.append((u, v, rng.randint(1, 5), rng.choice(("safe", "unsafe"))))
            g = FaultGraph(n, specs)
            reqs = []
            for _ in range(rng.randint(1, 3)):
                s, t = rng.sample(range(n), 2)
                reqs.append(RelativeRequirement(s, t, rng.randint(1, 3)))
            scenarios = expand_rsndp_to_bulk(g, reqs)
            assert is_bulk_feasible(g, scenarios, g.all_edge_ids()) == (True, None)
            seen["disconnected"] += len(connected_components(g, g.all_edge_ids())) > 1
            seen["scenarios"] += len(scenarios)
        assert min(seen.values()) > 0, seen

    @pytest.mark.parametrize("seed", range(3))
    def test_r3_random_instances(self, seed):
        inst = generate(
            "random-multigraph",
            n=7,
            m=13,
            seed=seed + 60,
            params={"problem": "rsndp", "r": 3, "pairs": 2},
        )
        g = inst.to_graph()
        sol = solve_rsndp(g, inst.problem.relative, seed=seed)
        ok, _ = is_rsndp_feasible(g, inst.problem.relative, sol)
        assert ok
        _opt, opt_cost = exact_solve(g, inst.problem)
        assert g.total_cost(sol) >= opt_cost - 1e-9

    @pytest.mark.parametrize("budget", (None, "60"))
    def test_matches_the_expansion_driver(self, budget, monkeypatch):
        # The workload's rsndp shape and random heterogeneous instances:
        # the same edge set as the expansion-driven reference, or the same
        # error class and message.  Under a small enumeration budget the
        # reference refuses to list the failure sets, but the driver lists
        # none: it answers as the reference does with no budget, unless
        # the budget refuses its cut sweep.
        if budget is None:
            monkeypatch.delenv("FAULTNET_ENUM_BUDGET", raising=False)
        else:
            monkeypatch.setenv("FAULTNET_ENUM_BUDGET", budget)
        cases = []
        for seed in range(40):
            inst = best_of_trees_instance("rsndp", seed)
            cases.append((inst.to_graph(), inst.problem.relative, seed))
        rng = Random(31)
        cases += [random_relative_case(rng, rng.randint(2, 7)) + (seed,) for seed in range(300)]
        seen = Counter()
        for g, reqs, seed in cases:
            got = solve_outcome(solve_rsndp, g, reqs, seed)
            want = solve_outcome(expansion_solve_rsndp, g, reqs, seed)
            if "failure sets exceed" in str(want[1]):
                seen["listing refused"] += 1
                if (1 << g.n) > int(budget):
                    want = ("EnumerationTooLarge", f"2^{g.n} cuts exceed the enumeration budget")
                else:
                    monkeypatch.delenv("FAULTNET_ENUM_BUDGET")
                    want = solve_outcome(expansion_solve_rsndp, g, reqs, seed)
                    monkeypatch.setenv("FAULTNET_ENUM_BUDGET", budget)
                    seen["answered past the listing"] += 1
            assert got == want, (reqs, seed)
            seen[got[0]] += 1
            seen["disconnected"] += len(connected_components(g, g.all_edge_ids())) > 1
            seen["repeated"] += len({(r.s, r.t) for r in reqs}) < len(reqs)
        assert seen["ok"] >= (250 if budget is None else 100), seen
        assert seen["Disconnected"] and seen["disconnected"] and seen["repeated"], seen
        assert bool(seen["EnumerationTooLarge"]) == (budget is not None), seen
        assert bool(seen["answered past the listing"]) == (budget is not None), seen

    def test_solves_without_the_expansion_or_the_bulk_level(self, monkeypatch):
        # The relative driver lists no scenario and runs neither the bulk
        # level nor its oracle or precondition.
        import faultnet.bulk as bulk_mod

        def refuse(*_args, **_kwargs):
            raise AssertionError("bulk path on the relative driver")

        cases = []
        for seed in range(20):
            inst = best_of_trees_instance("rsndp", seed)
            g, reqs = inst.to_graph(), inst.problem.relative
            cases.append((g, reqs, seed, solve_outcome(expansion_solve_rsndp, g, reqs, seed)))
        for name in ("expand_rsndp_to_bulk", "augment_bulk", "_violations_of_level", "_check_prior_levels"):
            monkeypatch.setattr(bulk_mod, name, refuse, raising=False)
        for g, reqs, seed, want in cases:
            assert solve_outcome(solve_rsndp, g, reqs, seed) == want
        assert sum(want[0] == "ok" for *_case, want in cases) >= 15


def random_relative_case(rng, n):
    """(g, reqs) on n vertices: 0 to 2n + 3 random edges, so G may be
    disconnected, and 1-4 requirements with r = 1-4, a pair sometimes
    repeated."""
    specs = []
    for _ in range(rng.randint(0, 2 * n + 3)):
        u, v = rng.sample(range(n), 2)
        specs.append((u, v, rng.randint(1, 5), rng.choice(("safe", "unsafe"))))
    reqs = []
    for _ in range(rng.randint(1, 4)):
        s, t = (reqs[0].s, reqs[0].t) if reqs and rng.random() < 0.3 else rng.sample(range(n), 2)
        reqs.append(RelativeRequirement(s, t, rng.randint(1, 4)))
    return FaultGraph(n, specs), tuple(reqs)


def solve_outcome(solve, g, reqs, seed):
    """("ok", edge set) of a solve, or its error's (class name, message)."""
    try:
        return "ok", solve(g, reqs, seed)
    except FaultnetError as exc:
        return type(exc).__name__, str(exc)


def meets_prior_levels(g, scenarios, H, level):
    """Does H survive every sub-failure of size < level, by union-find?"""
    try:
        union_find_check_prior_levels(g, scenarios, H, level)
    except PriorLevelNotSatisfied:
        return False
    return True


def kernel_instance(kind, n, seed):
    """A seeded bulk, rsndp or flex-sndp instance on n vertices: bulk
    widths cycle through 1-3 and r through 2-3."""
    if kind == "bulk":
        params = {"problem": "bulk", "width": 1 + seed % 3, "scenarios": 4}
    elif kind == "rsndp":
        params = {"problem": "rsndp", "r": 2 + seed % 2, "pairs": 2}
    else:
        pairs = [(0, n - 1, 1, 2), (1, n - 2, 2, 1)]
        params = {"problem": "flex-sndp", "p": 2, "q": 2, "skeleton": "mixed", "pairs": pairs}
    return generate("random-multigraph", n=n, m=2 * n + 1, seed=seed, params=params)


def kernel_case(kind, n, seed):
    """(g, scenarios, flex requirements) of ``kernel_instance``; rsndp and
    flex-sndp go through their bulk expansions."""
    inst = kernel_instance(kind, n, seed)
    g = inst.to_graph()
    problem = inst.problem
    if kind == "bulk":
        return g, problem.scenarios, ()
    if kind == "rsndp":
        return g, expand_rsndp_to_bulk(g, problem.relative), ()
    return g, expand_flex_to_bulk(g, problem.flex), problem.flex


def best_of_trees_instance(kind, seed):
    """A seeded instance like those of the benchmark's bulk-relative cells."""
    m = 13 + seed % 4
    if kind == "bulk":
        params = {"problem": "bulk", "width": 2, "scenarios": 4}
    elif kind == "rsndp":
        params = {"problem": "rsndp", "pairs": 2, "r": 2}
    else:
        # Two mixed skeleton cycles on 7 vertices take 14 edges.
        m = 14 + seed % 3
        params = {
            "problem": "flex-sndp",
            "p": 1,
            "q": 2,
            "skeleton": "mixed",
            "pairs": [[0, 6, 1, 2], [1, 4, 2, 1]],
        }
    return generate("random-multigraph", n=7, m=m, seed=seed, params=params)


def solve_kind(kind, inst, seed):
    g = inst.to_graph()
    if kind == "bulk":
        return solve_bulk_sndp(g, inst.problem.scenarios, seed=seed)
    if kind == "rsndp":
        return solve_rsndp(g, inst.problem.relative, seed=seed)
    return solve_flex_sndp(g, inst.problem.flex, seed=seed)


def scaled_instance(inst, factor):
    """``inst`` with every edge cost multiplied by ``factor``."""
    return replace(inst, edge_specs=tuple((u, v, c * factor, s) for u, v, c, s in inst.edge_specs))


class TestBestOfTreesShortcuts:
    """``_best_of_trees`` passes over repeated trees, skips trees that
    cannot win, stops once no tree can, and evaluates each edge set once,
    and still returns what the plain loop returns."""

    @staticmethod
    def checked(monkeypatch):
        """Patch ``_best_of_trees`` to run the plain loop next to it and
        compare result or InfeasibleAugmentation text; returns the list of
        compared calls, as ("ok" | "raised"), and a Counter of the hitting
        instances each loop built.  A result must also iterate in the
        same order and cost the same bits, since later levels and the
        bench read both."""
        import faultnet.bulk as bulk_mod

        fast = bulk_mod._best_of_trees
        compared = []
        built = Counter()

        def both(*args):
            outs = []
            for name, loop in (("plain", plain_best_of_trees), ("fast", fast)):
                with trace.recording() as counts:
                    try:
                        outs.append(loop(*args))
                    except InfeasibleAugmentation as exc:
                        outs.append(exc)
                built[name] += counts["bulk.hitting_instances"]
            want, got = outs
            if isinstance(want, InfeasibleAugmentation):
                assert isinstance(got, InfeasibleAugmentation)
                assert str(got) == str(want)
                assert str(got.__cause__) == str(want.__cause__)
                compared.append("raised")
                raise want
            assert got == want
            assert list(got) == list(want)
            g = args[0]
            assert g.total_cost(got).hex() == g.total_cost(want).hex()
            compared.append("ok")
            return got

        monkeypatch.setattr(bulk_mod, "_best_of_trees", both)
        return compared, built

    @pytest.mark.parametrize("kind", ("bulk", "rsndp", "flex-sndp"))
    def test_matches_the_plain_loop(self, kind, monkeypatch):
        self.matches_the_plain_loop(kind, 1.0, monkeypatch)

    @pytest.mark.parametrize("kind", ("bulk", "rsndp", "flex-sndp"))
    def test_matches_the_plain_loop_with_costs_scaled_by_1e9(self, kind, monkeypatch):
        # The costs are then near 1e9-1e10, whose ulp is far above the
        # 1e-12 tie margin, so a candidate replaces the kept one only when
        # its float cost is strictly lower.
        self.matches_the_plain_loop(kind, 1e9, monkeypatch)

    def matches_the_plain_loop(self, kind, scale, monkeypatch):
        compared, built = self.checked(monkeypatch)
        solved = 0
        for seed in range(100):
            inst = scaled_instance(best_of_trees_instance(kind, seed), scale)
            try:
                solve_kind(kind, inst, seed)
            except FaultnetError:
                continue
            solved += 1
        assert solved >= 75
        assert compared.count("ok") >= solved
        assert built["fast"] < built["plain"]  # trees were skipped

    def test_matches_the_plain_loop_past_an_unhittable_tree(self, monkeypatch):
        # One tree of this instance leaves an unhittable set (see
        # TestFlexSndpDriver); the others succeed.
        compared, _built = self.checked(monkeypatch)
        inst = TestFlexSndpDriver().flex_sndp_unlucky_tree_instance()
        solve_flex_sndp(inst.to_graph(), inst.problem.flex, seed=479)
        assert compared and set(compared) == {"ok"}

    @pytest.mark.parametrize("kind", ("bulk", "rsndp"))
    def test_every_tree_unhittable_matches(self, kind, monkeypatch):
        # With no set hittable, a level whose every tree leaves violating
        # sets raises.  On these sparse instances some levels do.
        import faultnet.bulk as bulk_mod

        def never_hits(inst):
            # The cycle costs name the tree, so the level's message names
            # the last tree whose instance was built.
            raise Unhittable(f"forced, cycles {sorted(inst.costs.items())}", witness=inst.set_keys[0])

        monkeypatch.setattr(bulk_mod, "greedy_hitting_set", never_hits)
        compared, _built = self.checked(monkeypatch)
        params = {
            "bulk": {"problem": "bulk", "width": 2, "scenarios": 4},
            "rsndp": {"problem": "rsndp", "pairs": 2, "r": 2},
        }[kind]
        raised = 0
        for seed in range(40):
            inst = generate("random-multigraph", n=6, m=10, seed=seed, params=params)
            try:
                solve_kind(kind, inst, seed)
            except InfeasibleAugmentation:
                raised += 1
            except FaultnetError:
                pass
        assert raised >= 3
        assert compared.count("raised") == raised

    def test_every_tree_unhittable_matches_flex(self, monkeypatch):
        import faultnet.bulk as bulk_mod

        def never_hits(inst):
            # The cycle costs name the tree, so the level's message names
            # the last tree whose instance was built.
            raise Unhittable(f"forced, cycles {sorted(inst.costs.items())}", witness=inst.set_keys[0])

        monkeypatch.setattr(bulk_mod, "greedy_hitting_set", never_hits)
        compared, _built = self.checked(monkeypatch)
        inst = TestFlexSndpDriver().flex_sndp_unlucky_tree_instance()
        with pytest.raises(InfeasibleAugmentation):
            solve_flex_sndp(inst.to_graph(), inst.problem.flex, seed=479)
        assert compared == ["raised"]

    def test_skip_fires_on_dear_tree_paths(self):
        # Pair (0, 2) has two parallel 0.1 edges, so a tree through one of
        # them is fixed by the other for 0.2.  A tree rooted at 1 or 3 joins
        # 0 and 2 through 3 instead, paths of cost 2: it cannot win.
        g = FaultGraph(
            4,
            [(0, 2, 0.1, "safe"), (0, 2, 0.1, "safe"), (3, 0, 1.0, "safe"),
             (3, 2, 1.0, "safe"), (1, 3, 1.0, "safe")],
        )
        scenarios = [BulkScenario(frozenset({0}), ((0, 2),)), BulkScenario(frozenset({1}), ((0, 2),))]
        violations = _violations_of_level(g, scenarios, 1)
        skipped = 0
        for seed in range(4):
            want = plain_best_of_trees(g, frozenset(), [(0, 2)], violations, 1, seed)
            with trace.recording() as counts:
                got = _best_of_trees(g, frozenset(), [(0, 2)], violations, 1, seed)
            assert got == want == frozenset({0, 1})
            assert counts["bulk.trees"] == TREES
            assert counts["bulk.hitting_instances"] < TREES
            # A dear tree whose edge set an earlier tree had is passed over
            # as a repeat before the cost test, so some seeds skip none.
            skipped += counts["bulk.trees_skipped"]
        assert skipped > 0

    def test_a_tree_graph_is_evaluated_once_per_level(self):
        # A graph that is itself a tree has one spanning tree, so every
        # later tree of a level repeats the first one's edge set.
        g = FaultGraph(5, [(0, 1, 1.0, "safe"), (1, 2, 2.0, "unsafe"), (1, 3, 1.5, "safe"),
                           (3, 4, 0.5, "unsafe")])
        scenarios = [BulkScenario(frozenset(), ((0, 4), (2, 3)))]
        violations = _violations_of_level(g, scenarios, 0)
        for seed in range(4):
            want = plain_best_of_trees(g, frozenset(), [(0, 4), (2, 3)], violations, 0, seed)
            with trace.recording() as counts:
                got = _best_of_trees(g, frozenset(), [(0, 4), (2, 3)], violations, 0, seed)
            assert list(got) == list(want) == [0, 1, 2, 3]
            assert counts["bulk.trees"] == TREES
            assert counts["bulk.trees_repeated"] == TREES - 1
            assert counts["bulk.trees_skipped"] == 0

    def test_stops_once_no_tree_can_win(self):
        # Every candidate costs >= 0 and only one below best - 1e-12
        # replaces the kept one, so a kept cost of 0 ends the level after
        # its first tree.  First a level that H_prev already closes.
        for seed in range(4):
            inst = best_of_trees_instance("bulk", seed)
            g, scenarios = inst.to_graph(), inst.problem.scenarios
            pairs = sorted({pr for sc in scenarios for pr in sc.pairs})
            whole = g.all_edge_ids()
            violations = _violations_of_level(g, scenarios, 1)
            want = plain_best_of_trees(g, whole, pairs, violations, 1, seed)
            with trace.recording() as counts:
                got = _best_of_trees(g, whole, pairs, violations, 1, seed)
            assert got == want == whole
            assert counts["bulk.trees"] == 1 < TREES

    def test_stops_on_a_zero_cost_candidate_past_h_prev(self):
        # The zero-cost path 0-1-2-3 spans the graph, so every tree is made
        # of it, and every candidate adds its edges to H_prev at cost 0.
        g = FaultGraph(
            4,
            [(0, 1, 0.0, "safe"), (1, 2, 0.0, "safe"), (2, 3, 0.0, "safe"),
             (0, 2, 1.0, "safe"), (3, 0, 2.0, "unsafe"), (1, 3, 1.0, "safe")],
        )
        scenarios = [BulkScenario(frozenset(), ((0, 2), (1, 3)))]
        violations = _violations_of_level(g, scenarios, 0)
        for seed in range(4):
            want = plain_best_of_trees(g, frozenset(), [(0, 2), (1, 3)], violations, 0, seed)
            with trace.recording() as counts:
                got = _best_of_trees(g, frozenset(), [(0, 2), (1, 3)], violations, 0, seed)
            assert got == want == frozenset({0, 1, 2})
            assert g.total_cost(got) == 0.0
            assert counts["bulk.trees"] == 1 < TREES

    def test_one_boundary_per_distinct_edge_set(self):
        # Level 1 of a pinned bulk instance: every tree leaves violating
        # sets, and each H used to be counted once per tree for its
        # violations and again for its hitting instance.
        inst = bulk_instance(14, width=1)
        g = inst.to_graph()
        scenarios = inst.problem.scenarios
        pairs = sorted({pr for sc in scenarios for pr in sc.pairs})
        H0 = augment_bulk(g, scenarios, frozenset(), 0, seed=2)
        level_one = _violations_of_level(g, scenarios, 1)
        evaluated = []

        def violating(H, *counts):
            evaluated.append(H)
            return level_one(H, *counts)

        with trace.recording() as counts:
            H1 = _best_of_trees(g, H0, pairs, violating, 1, 2)
        assert level_one(H1, Boundary(g, H1)) == []
        assert any(level_one(H, Boundary(g, H)) for H in evaluated)
        assert counts["cuts.boundaries"] <= len(set(evaluated))
        assert len(set(evaluated)) == len(evaluated)


class TestClosingCheck:
    """Every level closes on its own oracle, so a hitting set that misses a
    set is refused at its level, before any check of record."""

    @pytest.mark.parametrize("kind", ("bulk", "rsndp", "flex-sndp"))
    def test_a_broken_cover_is_refused_at_its_level(self, kind, monkeypatch):
        import faultnet.bulk as bulk_mod

        def drop_last_pick(inst):
            return greedy_hitting_set(inst)[:-1]

        monkeypatch.setattr(bulk_mod, "greedy_hitting_set", drop_last_pick)
        # The kept candidate's leftover, read from the loop's memo, must
        # match the plain loop's fresh evaluation.
        compared, _built = TestBestOfTreesShortcuts.checked(monkeypatch)
        refused = 0
        for seed in range(30):
            inst = best_of_trees_instance(kind, seed)
            try:
                # A level whose other picks cover what the dropped one hit
                # still passes, and the solver's final feasibility check then
                # tests the answer.
                solve_kind(kind, inst, seed)
            except InfeasibleAugmentation as exc:
                assert re.fullmatch(r"level \d+: cover left \d+ violating sets", str(exc))
                refused += 1
        assert refused >= 15
        assert compared.count("raised") == refused


class TestKernelMatchesUnionFind:
    """The bulk driver's cut-kernel answers against the union-find ones."""

    @staticmethod
    def work_sets(g, scenarios, rng):
        """Edge sets to test in: none, all, random subsets, and failure sets
        themselves, in which every separating cut of a pair is dead."""
        ids = sorted(g.all_edge_ids())
        sets = [frozenset(), frozenset(ids)]
        sets += [frozenset(rng.sample(ids, round(share * g.m))) for share in (0.3, 0.5, 0.7)]
        failures = sorted({sc.fail for sc in scenarios if sc.fail}, key=sorted)
        sets += rng.sample(failures, min(2, len(failures)))
        return sets

    @pytest.mark.parametrize("kind", ("bulk", "rsndp", "flex-sndp"))
    def test_violations_and_hit_sets_match(self, kind):
        # The level oracle answers only for an H that meets the precondition,
        # so it is compared there; the hitting instances are compared on the
        # reference's lists for every work set, sets outside H included.
        seen = {"oracle": 0, "outside H": 0, "meets cycle": 0, "all dead": 0, "hits": 0}
        for n in range(5, 9):
            for seed in (n, n + 11):
                g, scenarios, flex = kernel_case(kind, n, seed)
                rng = Random(seed)
                width = max(len(sc.fail) for sc in scenarios)
                for H in self.work_sets(g, scenarios, rng):
                    tree = sample_tree(g, seed=rng.randrange(1 << 30))
                    counts = Boundary(g, H)
                    lists = []
                    for level in range(width + 1):
                        viol = union_find_level_violations(g, scenarios, H, level)
                        if meets_prior_levels(g, scenarios, H, level):
                            assert _violations_of_level(g, scenarios, level)(H, counts) == viol
                            seen["oracle"] += len(viol)
                        lists.append(viol)
                    for round_index in range(1, max((r.q for r in flex), default=0) + 1):
                        lists.append(_flex_violations(g, flex, round_index)(H, counts))
                    for viol in lists:
                        got = build_hitting_instance(g, H, tree, viol, counts)
                        assert got == union_find_hitting_instance(g, H, tree, viol)
                        for F, _pair in viol:
                            seen["outside H"] += not F <= H
                            seen["all dead"] += H <= F
                        for eid in got.elements:
                            e = g.edges[eid]
                            cycle = frozenset({eid}) | frozenset(tree.path(e.u, e.v))
                            seen["meets cycle"] += sum(
                                not F.isdisjoint(cycle) for F, _pair in viol
                            )
                            seen["hits"] += len(got.hits[eid])
        assert min(seen.values()) > 0, seen

    @pytest.mark.parametrize("kind", ("bulk", "rsndp"))
    def test_drivers_ask_the_oracle_only_under_the_precondition(self, kind, monkeypatch):
        # The level oracle's answer is right only for an H that survives
        # every smaller sub-failure; every H the drivers ask about does.
        # The relative oracle's precondition is that of the expansion.
        import faultnet.bulk as bulk_mod

        build = bulk_mod._violations_of_level
        build_relative = bulk_mod._relative_violations
        asked = []
        broken = []

        def checking(oracle, g, scenarios, level):
            def answer(H, counts):
                asked.append(level)
                if not meets_prior_levels(g, scenarios, H, level):
                    broken.append((sorted(H), level))
                return oracle(H, counts)

            return answer

        def checked(g, scenarios, level):
            return checking(build(g, scenarios, level), g, scenarios, level)

        def checked_relative(g, reqs, level, whole):
            oracle = build_relative(g, reqs, level, whole)
            return checking(oracle, g, expand_rsndp_to_bulk(g, reqs), level)

        monkeypatch.setattr(bulk_mod, "_violations_of_level", checked)
        monkeypatch.setattr(bulk_mod, "_relative_violations", checked_relative)
        for n in range(5, 9):
            for seed in (n, n + 11):
                solve_kind(kind, kernel_instance(kind, n, seed), seed)
        assert broken == []
        assert set(asked) >= {0, 1, 2}

    def test_relative_oracle_matches_the_expansion(self, monkeypatch):
        # On every work set that meets the expansion's precondition, at
        # every level and one past the last, the relative oracle answers
        # as the level oracle on the expansion does; and solve_rsndp runs
        # one level per failure-set size that the expansion lists.
        import faultnet.bulk as bulk_mod

        build = bulk_mod._relative_violations
        levels = []

        def recorded(g, reqs, level, whole):
            levels.append(level)
            return build(g, reqs, level, whole)

        monkeypatch.setattr(bulk_mod, "_relative_violations", recorded)
        cases = []
        for n in range(5, 9):
            for seed in (n, n + 11):
                inst = kernel_instance("rsndp", n, seed)
                cases.append((inst.to_graph(), inst.problem.relative, seed))
        rng = Random(47)
        cases += [random_relative_case(rng, rng.randint(2, 7)) + (seed,) for seed in range(60)]
        seen = Counter()
        for g, reqs, seed in cases:
            scenarios = expand_rsndp_to_bulk(g, reqs)
            whole = Boundary(g, g.all_edge_ids())
            width = max((len(sc.fail) for sc in scenarios), default=-1)
            for H in self.work_sets(g, scenarios, Random(seed)):
                for level in range(width + 2):
                    if meets_prior_levels(g, scenarios, H, level):
                        want = _violations_of_level(g, scenarios, level)(H, Boundary(g, H))
                        got = build(g, reqs, level, whole)(H, Boundary(g, H))
                        assert got == want, (reqs, sorted(H), level)
                        seen["violations"] += len(want)
                        seen["met"] += 1
                    else:
                        seen["not met"] += 1
            levels.clear()
            try:
                solve_rsndp(g, reqs, seed=seed)
            except FaultnetError:
                continue
            assert levels == list(range(width + 1))
            seen[f"{width + 1} levels"] += 1
        assert seen["violations"] and seen["not met"], seen
        assert all(seen[f"{k} levels"] for k in range(5)), seen

    @pytest.mark.parametrize("kind", ("bulk", "rsndp"))
    def test_prior_level_check_matches(self, kind):
        # The kernel makes one packed cut test per scenario, the reference
        # lists every sub-failure below the level; they raise on the same
        # (H, level).
        outcomes = []
        for n in range(5, 9):
            for seed in (n, n + 11):
                g, scenarios, _flex = kernel_case(kind, n, seed)
                width = max(len(sc.fail) for sc in scenarios)
                for H in self.work_sets(g, scenarios, Random(seed)):
                    for level in range(width + 2):
                        raised = []
                        for check in (_check_prior_levels, union_find_check_prior_levels):
                            try:
                                check(g, scenarios, H, level)
                                raised.append(False)
                            except PriorLevelNotSatisfied:
                                raised.append(True)
                        assert raised[0] == raised[1], (kind, n, seed, sorted(H), level)
                        outcomes.append(raised[0])
        assert outcomes.count(True) >= 50 and outcomes.count(False) >= 50

    @pytest.mark.parametrize("n", range(5, 9))
    @pytest.mark.parametrize("r", (2, 3))
    def test_rsndp_expansion_matches(self, n, r):
        for seed in range(3):
            inst = generate(
                "random-multigraph",
                n=n,
                m=2 * n,
                seed=100 * r + 10 * n + seed,
                params={"problem": "rsndp", "r": r, "pairs": 3},
            )
            g = inst.to_graph()
            reqs = inst.problem.relative
            assert expand_rsndp_to_bulk(g, reqs) == union_find_expand_rsndp(g, reqs)

    def test_rsndp_expansion_drops_pairs_that_g_minus_f_cuts(self):
        # A triangle: G - F separates 0 from 2 only when F holds the chord
        # (edge 2) and one edge of the path 0-1-2.
        g = FaultGraph(3, [(0, 1, 1, "safe"), (1, 2, 1, "safe"), (0, 2, 1, "safe")])
        reqs = (RelativeRequirement(0, 2, 3), RelativeRequirement(0, 1, 2))
        got = expand_rsndp_to_bulk(g, reqs)
        assert got == union_find_expand_rsndp(g, reqs)
        kept = {sc.fail: sc.pairs for sc in got}
        assert kept[frozenset()] == ((0, 1), (0, 2))
        assert kept[frozenset({0})] == ((0, 1), (0, 2))
        assert frozenset({1, 2}) not in kept  # 0-2 cut; (0, 1) has r = 2
        assert kept[frozenset({0, 1})] == ((0, 2),)


class TestCostTelescoping:
    def test_level_stats_sum_to_total(self, monkeypatch):
        import faultnet.bulk as bulk_mod

        inst = generate(
            "random-multigraph",
            n=7,
            m=13,
            seed=17,
            params={"problem": "bulk", "width": 2, "scenarios": 4},
        )
        g = inst.to_graph()
        added = []
        original = bulk_mod.augment_bulk

        def record(g, scenarios, H_prev, level, seed=0, **kwargs):
            H = original(g, scenarios, H_prev, level, seed=seed, **kwargs)
            added.append(g.total_cost(H - frozenset(H_prev)))
            return H

        monkeypatch.setattr(bulk_mod, "augment_bulk", record)
        sol = solve_bulk_sndp(g, inst.problem.scenarios, seed=3)
        assert added
        assert abs(sum(added) - g.total_cost(sol)) < 1e-9
