"""Acceptance criteria, one test per numbered criterion.

Each test prints a single PASS line with its headline numbers once its
assertions hold; tolerances are pinned here and nowhere else.  Criterion 2
is the long one (1200 algorithm-vs-exact cells) and owns a 10-minute
budget; everything else is seconds.
"""

import math
import time
from random import Random

import pytest

from faultnet import trace
from faultnet.bench import bench, solutions_json
from faultnet.bulk import (
    _tree_seed,
    build_hitting_instance,
    greedy_hitting_set,
    sample_tree,
    solve_bulk_sndp,
)
from faultnet.cover import (
    check_uncrossable,
    exact_cover,
    primal_dual_cover,
    ring_cover_exact,
    uncross_pair_ok,
)
from faultnet.exact import exact_solve
from faultnet.flexalg import (
    _ring_families,
    _stage_families,
    make_fgc_plan,
    make_flex_st_plan,
    solve_fgc,
    solve_flex_st_22,
)
from faultnet.flow import min_cost_flow
from faultnet.graph import boundary
from faultnet.instances import (
    appendix_a_instance,
    figure_1_instance,
    figure_3_instance,
    figure_4_instance,
    generate,
)
from faultnet.gap import gap_experiment, paper_fractional_vector
from faultnet.lp import separate_flex
from faultnet.oracles import (
    FlexRequirement,
    Problem,
    RelativeRequirement,
    expand_rsndp_to_bulk,
    fgc_requirements,
    is_bulk_feasible,
    is_flex_feasible,
    is_rsndp_feasible,
    violated_cuts_flex_aug,
)
from oracle_utils import (
    _minimal_violated,
    expand_flex_to_bulk,
    random_graph,
    separate_flex_definitional,
    union_find_violating_edge_sets_bulk,
)

A_MASK = 0b0011
B_MASK = 0b0110


def _fgc_inst(seed, p, q, n, m, skeleton, safe_prob=0.45):
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


def test_criterion_1_integrality_gap():
    start = time.perf_counter()
    for k in (2, 4, 15):
        inst = appendix_a_instance(k)
        g = inst.to_graph()
        x = paper_fractional_vector(g, k)
        cost = sum(x[e.id] * e.cost for e in g.edges)
        assert abs(cost - 3 * (k + 1)) <= 1e-6
        assert separate_flex(g, inst.problem.flex, x) is None
    for k, expected in ((2, 7.5), (4, None)):
        inst = appendix_a_instance(k)
        _sol, opt = exact_solve(inst.to_graph(), inst.problem)
        if expected is not None:
            assert abs(opt - expected) <= 1e-6
    rep15 = gap_experiment(15)
    assert rep15.small_safe_candidates_rejected
    assert rep15.safe_edges_required == 8
    integral_lb = rep15.safe_edges_required * 16
    assert integral_lb == 128 and integral_lb > 48
    assert rep15.gap_ratio_lower_bound >= 8 / 3 - 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        f"\ncriterion 1: PASS integrality gap (k=2 opt 7.5; k=15 integral >= 128 "
        f"> 48, gap >= 8/3) in {elapsed:.1f}s"
    )


# 200 instances per parameter set, n <= 8, m <= 18, mixed skeletons where
# the edge budget allows.
RATIO_CONFIGS = [
    ("fgc", 2, 2, 8.0),
    ("fgc", 2, 3, 8.0),
    ("fgc", 3, 2, 10.0),
    ("fgc", 3, 3, 16.0),
    ("fgc", 4, 4, 28.0),
    ("st", 2, 2, 5.0),
]


def _ratio_shape(kind, p, q, idx):
    """(n, m, skeleton) rotation keeping m <= 18 and the skeleton legal."""
    mixed_cycles = max((p + 1) // 2, (p + q + 1) // 2)
    safe_cycles = (p + 1) // 2
    shapes = []
    for n in (5, 6, 7, 8):
        if mixed_cycles * n + 2 <= 18:
            shapes.append((n, min(18, mixed_cycles * n + 4), "mixed"))
        if safe_cycles * n + 4 <= 18:
            shapes.append((n, min(18, safe_cycles * n + 6), "safe"))
    return shapes[idx % len(shapes)]


@pytest.mark.parametrize("kind,p,q,ceiling", RATIO_CONFIGS)
def test_criterion_2_ratio_ceilings(kind, p, q, ceiling):
    start = time.perf_counter()
    count = 200
    worst = 0.0
    infeasible = 0
    for idx in range(count):
        n, m, skeleton = _ratio_shape(kind, p, q, idx)
        seed = idx * 7919 + p * 131 + q * 17
        problem_kind = "fgc" if kind == "fgc" else "flex-st"
        inst = generate(
            "random-multigraph",
            n=n,
            m=m,
            seed=seed,
            params={
                "problem": problem_kind,
                "p": p,
                "q": q,
                "skeleton": skeleton,
                "safe_prob": 0.45,
            },
        )
        g = inst.to_graph()
        if kind == "fgc":
            sol = solve_fgc(g, p, q)
            ok, _ = is_flex_feasible(g, fgc_requirements(g.n, p, q), sol)
        else:
            sol = solve_flex_st_22(g, 0, g.n - 1)
            ok, _ = is_flex_feasible(g, inst.problem.flex, sol)
        if not ok:
            infeasible += 1
            continue
        _opt_sol, opt = exact_solve(g, inst.problem)
        ratio = g.total_cost(sol) / opt
        worst = max(worst, ratio)
        assert ratio <= ceiling + 1e-9, (kind, p, q, seed, ratio)
    elapsed = time.perf_counter() - start
    assert infeasible == 0
    assert elapsed < 600.0
    label = f"({p},{q})-" + ("FGC" if kind == "fgc" else "Flex-ST")
    print(
        f"\ncriterion 2: PASS {label} on {count} instances, worst ratio "
        f"{worst:.3f} <= {ceiling}, zero infeasible, {elapsed:.1f}s"
    )


# Above the exact-search budget solve_fgc builds its (p, 0) base with the
# levelwise primal-dual cover.ecsndp_base.  A zero budget, set around
# solve_fgc only, forces that path on the first criterion-2 instances of
# each (p, q), whose optimum the exact search still reaches.  The base has
# no factor-2 guarantee, so no ceiling is asserted.
FALLBACK_CONFIGS = [(2, 2), (2, 3), (3, 2), (3, 3)]


def test_criterion_2_fallback_base_is_feasible_and_never_beats_the_optimum():
    start = time.perf_counter()
    worst = 0.0
    count = 0
    for p, q in FALLBACK_CONFIGS:
        for idx in range(10):
            n, m, skeleton = _ratio_shape("fgc", p, q, idx)
            inst = _fgc_inst(idx * 7919 + p * 131 + q * 17, p, q, n, m, skeleton)
            g = inst.to_graph()
            with pytest.MonkeyPatch.context() as mp, trace.recording() as counts:
                mp.setenv("FAULTNET_EXACT_BUDGET", "0")
                sol = solve_fgc(g, p, q)
            assert counts["flexalg.ecsndp_bases"] == 1 and counts["flexalg.exact_bases"] == 0
            ok, _ = is_flex_feasible(g, fgc_requirements(g.n, p, q), sol)
            assert ok, (p, q, idx)
            _opt_sol, opt = exact_solve(g, inst.problem, budget=30)
            cost = g.total_cost(sol)
            assert opt <= cost + 1e-9, (p, q, idx, opt, cost)
            worst = max(worst, cost / opt)
            count += 1
    elapsed = time.perf_counter() - start
    print(
        f"\ncriterion 2 fallback: PASS ecsndp_base on {count} instances, all "
        f"feasible, worst ratio {worst:.3f}, {elapsed:.1f}s"
    )


def test_criterion_3_uncrossability_suite():
    start = time.perf_counter()
    configs = [
        (2, 1), (2, 2), (2, 3), (2, 4),
        (3, 2), (3, 3), (4, 2), (4, 3), (4, 4),
    ]
    families_checked = 0
    instances_used = 0
    idx = 0
    while instances_used < 100:
        p, q = configs[idx % len(configs)]
        idx += 1
        mixed_cycles = max((p + 1) // 2, (p + q + 1) // 2)
        n = 6
        skeleton = "mixed" if mixed_cycles * n + 2 <= 24 else "safe"
        cycles = mixed_cycles if skeleton == "mixed" else (p + 1) // 2
        m = min(24, cycles * n + 5)
        inst = _fgc_inst(idx * 37, p, q, n, m, skeleton, safe_prob=0.35)
        g = inst.to_graph()
        try:
            base, _ = exact_solve(
                g, Problem("flex", flex=fgc_requirements(n, p, q - 1)), budget=24
            )
        except Exception:
            continue
        instances_used += 1
        if p == 2:
            fam = violated_cuts_flex_aug(g, fgc_requirements(n, p, q), base)
            ok, pair = check_uncrossable(fam)
            assert ok, (p, q, idx, pair)
            families_checked += 1
        else:
            plan = make_fgc_plan(p, q)
            F = frozenset(base)
            for spec in plan.stages:
                for fam in _stage_families(g, F, plan, spec):
                    ok, pair = check_uncrossable(fam)
                    assert ok, (p, q, spec, pair)
                    families_checked += 1
                    F = F | primal_dual_cover(fam).edges

    # The three reconstructions must fail with the named pair.
    for maker, p, q in (
        (figure_1_instance, 3, 2),
        (figure_3_instance, 3, 4),
        (figure_4_instance, 4, 5),
    ):
        g = maker().to_graph()
        fam = violated_cuts_flex_aug(g, fgc_requirements(4, p, q), g.all_edge_ids())
        ok, pair = check_uncrossable(fam)
        assert not ok
        assert not uncross_pair_ok(fam.contains, A_MASK, B_MASK)

    # Ring verification of constructed path subfamilies (the exact cover
    # raises NotRingFamily if closure or unique-minimality ever fails).
    # The capacitated 4-flow seed under caps 2 safe / 1 unsafe is a valid
    # (2, 2)-round working set, and its violated cuts all sit at stage 1.
    rings = 0
    for seed in range(40):
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
        seed_set = min_cost_flow(g, caps, 0, g.n - 1, 4).support()
        plan = make_flex_st_plan(2, 2, 0, g.n - 1)
        fams = _ring_families(g, seed_set, plan, 1)
        for fam in fams:
            ring_cover_exact(fam)
            rings += 1
        if rings >= 12:
            break
    assert rings >= 5
    elapsed = time.perf_counter() - start
    print(
        f"\ncriterion 3: PASS uncrossability ({families_checked} families over "
        f"100 instances, 3 figure counterexamples, {rings} ring families) in "
        f"{elapsed:.1f}s"
    )


def test_criterion_4_oracle_equivalences():
    start = time.perf_counter()
    rng = Random(20260810)
    flex_samples = 0
    while flex_samples < 250:
        g = random_graph(rng.randrange(1 << 30), rng.randint(5, 7), rng.randint(8, 11))
        p, q = rng.choice([(1, 1), (2, 1), (1, 2), (2, 2), (2, 3), (3, 2), (1, 4)])
        reqs = [FlexRequirement(0, g.n - 1, p, q)]
        scen = expand_flex_to_bulk(g, reqs)
        H = frozenset(eid for eid in range(g.m) if rng.random() < 0.75)
        okf, _ = is_flex_feasible(g, reqs, H)
        okb, _ = is_bulk_feasible(g, scen, H)
        assert okf == okb
        flex_samples += 1
    rsndp_samples = 0
    while rsndp_samples < 250:
        g = random_graph(rng.randrange(1 << 30), rng.randint(5, 7), rng.randint(8, 11))
        reqs = [
            RelativeRequirement(0, g.n - 1, rng.randint(1, 3)),
            RelativeRequirement(1, 2, rng.randint(1, 2)),
        ]
        scen = expand_rsndp_to_bulk(g, reqs)
        H = frozenset(eid for eid in range(g.m) if rng.random() < 0.7)
        okr, _ = is_rsndp_feasible(g, reqs, H)
        okb, _ = is_bulk_feasible(g, scen, H) if scen else (True, None)
        assert okr == okb
        rsndp_samples += 1
    sep_samples = 0
    while sep_samples < 200:
        g = random_graph(rng.randrange(1 << 30), rng.randint(5, 7), rng.randint(8, 10))
        p, q = rng.choice([(1, 1), (2, 1), (1, 2), (2, 2)])
        reqs = [FlexRequirement(0, g.n - 1, p, q)]
        x = [round(rng.random(), 3) for _ in range(g.m)]
        assert (separate_flex(g, reqs, x) is None) == separate_flex_definitional(
            g, reqs, x
        )
        sep_samples += 1
    elapsed = time.perf_counter() - start
    print(
        f"\ncriterion 4: PASS oracle equivalences (250 flex + 250 relative "
        f"expansion samples, 200 separation samples) in {elapsed:.1f}s"
    )


def test_criterion_5_bulk_pipeline():
    start = time.perf_counter()
    worst_ratio = 0.0
    ratios = 0
    for idx in range(100):
        inst = generate(
            "random-multigraph",
            n=7,
            m=13,
            seed=idx * 101 + 7,
            params={"problem": "bulk", "width": 2, "scenarios": 4},
        )
        g = inst.to_graph()
        scen = inst.problem.scenarios
        sol = solve_bulk_sndp(g, scen, seed=idx)
        ok, _ = is_bulk_feasible(g, scen, sol)
        assert ok
        # per-level violated-set emptiness on the final solution
        width = max((len(sc.fail) for sc in scen), default=0)
        for level in range(width + 1):
            assert union_find_violating_edge_sets_bulk(g, scen, sol, level) == []
        _opt_sol, opt = exact_solve(g, inst.problem)
        worst_ratio = max(worst_ratio, g.total_cost(sol) / opt)
        ratios += 1
        # greedy hitting set within (1 + ln(alpha)) of the exact cover, on
        # the instance the first tree of level 1 produces
        tree = sample_tree(g, seed=_tree_seed(idx, 1, 0))
        H_P = set()
        for sc in scen:
            for u, v in sc.pairs:
                H_P.update(tree.path(u, v))
        H_work = frozenset(H_P)
        try:
            viol = union_find_violating_edge_sets_bulk(g, scen, H_work, 1)
        except Exception:
            viol = []
        if viol:
            hit_inst = build_hitting_instance(g, H_work, tree, viol)
            picks = greedy_hitting_set(hit_inst)
            got = sum(hit_inst.costs[e] for e in picks)
            rows = [
                frozenset(e for e in hit_inst.elements if si in hit_inst.hits[e])
                for si in range(len(hit_inst.set_keys))
            ]
            _best, best_cost = exact_cover(rows, hit_inst.costs)
            alpha = len(hit_inst.set_keys)
            assert got <= (1 + math.log(alpha)) * best_cost + 1e-9
    elapsed = time.perf_counter() - start
    print(
        f"\ncriterion 5: PASS bulk pipeline on {ratios} width<=2 instances, "
        f"always feasible, empirical max ratio {worst_ratio:.3f} (no fixed "
        f"ceiling claimed) in {elapsed:.1f}s"
    )


def test_criterion_6_primal_dual_certificates():
    start = time.perf_counter()
    covers = 0
    for seed in range(60):
        p, q = [(2, 1), (2, 2), (3, 2), (2, 3)][seed % 4]
        mixed_cycles = max((p + 1) // 2, (p + q + 1) // 2)
        inst = _fgc_inst(
            seed * 211, p, q, 6, min(24, mixed_cycles * 6 + 5), "mixed", safe_prob=0.3
        )
        g = inst.to_graph()
        try:
            base, _ = exact_solve(
                g, Problem("flex", flex=fgc_requirements(6, p, q - 1)), budget=24
            )
        except Exception:
            continue
        plan = make_fgc_plan(p, q)
        F = frozenset(base)
        for spec in plan.stages:
            for fam in _stage_families(g, F, plan, spec):
                if not fam.members:
                    continue
                ok, _pair = check_uncrossable(fam)
                assert ok
                result = primal_dual_cover(fam)
                rows = [
                    boundary(g, fam.ground, mk) for mk in fam.members
                ]
                _best, opt = exact_cover(
                    rows, {eid: g.cost_of(eid) for eid in fam.ground}
                )
                cost = g.total_cost(result.edges)
                assert cost <= 2 * result.dual_lower_bound + 1e-9
                assert result.dual_lower_bound <= opt + 1e-9
                assert _minimal_violated(fam, result.edges) == []
                for eid in result.edges:
                    assert _minimal_violated(fam, result.edges - {eid}) != []
                covers += 1
                F = F | result.edges
        if covers >= 25:
            break
    assert covers >= 10
    elapsed = time.perf_counter() - start
    print(
        f"\ncriterion 6: PASS primal-dual certificates on {covers} uncrossable "
        f"covers (cost <= 2*dual <= 2*OPT, reverse-delete minimal) in "
        f"{elapsed:.1f}s"
    )


def test_criterion_7_determinism():
    start = time.perf_counter()
    suite = {
        "instances": [
            {
                "id": "fgc22",
                "kind": "random-multigraph",
                "n": 6,
                "m": 14,
                "seed": 5,
                "params": {"problem": "fgc", "p": 2, "q": 2, "skeleton": "mixed"},
            },
            {
                "id": "st22",
                "kind": "random-multigraph",
                "n": 6,
                "m": 16,
                "seed": 6,
                "params": {"problem": "flex-st", "p": 2, "q": 2, "skeleton": "mixed"},
            },
            {
                "id": "bulk2",
                "kind": "random-multigraph",
                "n": 7,
                "m": 13,
                "seed": 7,
                "params": {"problem": "bulk", "width": 2, "scenarios": 3},
            },
        ],
        "algorithms": ["fgc", "flex-st-22", "bulk", "exact"],
        "seeds": [0, 1],
        "exact": True,
    }
    rec1, csv1, _ = bench(suite, with_timing=False)
    rec2, csv2, _ = bench(suite, with_timing=False)
    assert csv1.encode() == csv2.encode()
    assert solutions_json(rec1).encode() == solutions_json(rec2).encode()
    elapsed = time.perf_counter() - start
    print(
        f"\ncriterion 7: PASS determinism (byte-identical CSV and solutions "
        f"across two runs, {len(rec1)} cells) in {elapsed:.1f}s"
    )
