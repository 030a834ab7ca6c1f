"""Metamorphic checks of the exact search: relabelling changes no answer.

The package leans on labels: the cut kernel anchors vertex n - 1 and
orders cuts by mask, and the exact search decides edges by cost, then id,
and lets a cheaper parallel edge stand in for a dearer one by the edge ids
and the cost order.  A bug there can pass every test that uses one fixed
labelling.  So each instance here is relabelled: a random vertex
permutation, a random edge-id permutation and some endpoints flipped, with
the problem's pairs and failure sets mapped along, and the result sent
through ``serialize`` and ``parse``.  Then the exact optimum's cost must
agree within 1e-9 relative, and ``check_problem_feasible`` must give the
same verdict on each edge set and on its image.

The instances are parallel-heavy, of all five problem shapes: FGC,
flex-st, flex-sndp, bulk and relative.  Work counters are never compared:
they depend on the labelling.

The relative driver's answer must pass both relative checks under both
labellings: ``is_rsndp_feasible``, which reads cuts named by their side
without the anchor vertex n - 1, and ``brute_rsndp_feasible``, which lists
failure sets and knows no anchor.

The answers of the spanning solver ``solve_fgc``, whose (p, 0) base is the
exact search with its degree table, and of the single-pair solvers
``solve_flex_st``, on its staged ring-cover path (q >= 1), and
``solve_flex_st_22`` must be feasible under both labellings and cost at most
the guarantee the bench reports times the exact optimum.  No benchmark
workload runs ``solve_flex_st``, so this is its guard against a kernel or
driver rewrite.  The bulk and flexible scenario drivers claim no constant
guarantee: their answers must be feasible under both labellings.

The cutting-plane LPs, flex (a uniform (p, q)) and bulk, must reach the
same objective under both labellings, within 1e-9 relative, on n = 7
instances shaped like those of the ``lp-cutting-plane`` benchmark, and on
the Appendix A gap instances for k = 1..6.  The optimal x need not be
unique, so only the objective is compared.

The paper's three figure counterexamples must stay counterexamples under
relabelling: the violated cuts of lifting each one stay not uncrossable,
the image of the named pair still fails the uncrossing disjunction, the
exact search still finds the instance infeasible, and
``check_problem_feasible`` gives the same verdicts.
"""

import math
from random import Random

import pytest

from faultnet.bench import guarantee_for
from faultnet.bulk import solve_bulk_sndp, solve_flex_sndp, solve_rsndp
from faultnet.errors import InfeasibleInstance
from faultnet.exact import exact_solve
from faultnet.flexalg import solve_fgc, solve_flex_st, solve_flex_st_22
from faultnet.instances import (
    InstanceFile,
    appendix_a_instance,
    figure_1_instance,
    figure_3_instance,
    figure_4_instance,
    generate,
    parse,
    serialize,
)
from faultnet.lp import solve_problem_lp
from faultnet.oracles import (
    BulkScenario,
    FlexRequirement,
    Problem,
    RelativeRequirement,
    check_problem_feasible,
    fgc_requirements,
    is_rsndp_feasible,
    violated_cuts_flex_aug,
)
from oracle_utils import brute_rsndp_feasible, check_uncrossable, uncross_pair_ok

SHAPES = {
    "fgc": lambda rng, n: {"problem": "fgc", "p": rng.randint(1, 3), "q": rng.randint(0, 2)},
    "flex-st": lambda rng, n: {
        "problem": "flex-st", "p": rng.randint(1, 3), "q": rng.randint(0, 2), "skeleton": "mixed"
    },
    "flex-sndp": lambda rng, n: {
        "problem": "flex-sndp",
        "p": 2,
        "q": 1,
        "skeleton": "mixed",
        "pairs": [[0, n - 1, rng.randint(1, 2), rng.randint(0, 1)], [1, n - 2, 1, rng.randint(1, 2)]],
    },
    "bulk": lambda rng, n: {"problem": "bulk", "width": 2, "scenarios": rng.randint(2, 5)},
    "rsndp": lambda rng, n: {"problem": "rsndp", "pairs": 2, "r": rng.randint(2, 3)},
}
CASES_PER_SHAPE = 50
# The approximation algorithms, each with the shape of its instances and a
# call on a graph and the first requirement.
ALGORITHMS = {
    "fgc": (SHAPES["fgc"], lambda g, r: solve_fgc(g, r.p, r.q)),
    "flex-st": (
        lambda rng, n: {
            "problem": "flex-st", "p": rng.randint(1, 3), "q": rng.randint(1, 2), "skeleton": "mixed"
        },
        lambda g, r: solve_flex_st(g, r.s, r.t, r.p, r.q),
    ),
    "flex-st-22": (
        lambda rng, n: {"problem": "flex-st", "p": 2, "q": 2, "skeleton": "mixed"},
        lambda g, r: solve_flex_st_22(g, r.s, r.t),
    ),
}
# The scenario drivers, each with the shape of its instances and a call on
# a graph, the problem and a seed.
DRIVERS = {
    "bulk": (SHAPES["bulk"], lambda g, prob, seed: solve_bulk_sndp(g, prob.scenarios, seed=seed)),
    "flex-sndp": (
        SHAPES["flex-sndp"], lambda g, prob, seed: solve_flex_sndp(g, prob.flex, seed=seed)
    ),
}


def _parallel_heavy(rng, make_params):
    """A generated instance at n = 4-6, of the parameters that
    ``make_params(rng, n)`` draws, with extra parallel edges appended, some
    at the cost of the edge they repeat.  Extra edges keep the whole graph
    feasible, and a failure set names only old ids."""
    n = rng.randint(4, 6)
    params = make_params(rng, n)
    inst = generate("random-multigraph", n=n, m=3 * n, seed=rng.randrange(10**6), params=params)
    specs = list(inst.edge_specs)
    for _ in range(rng.randint(2, 5)):
        u, v, cost, _label = rng.choice(specs)
        if rng.random() < 0.6:
            cost = 0.0 if rng.random() < 0.2 else round(rng.uniform(0.1, 2.0), 3)
        specs.append((u, v, cost, rng.choice(("safe", "unsafe"))))
    return InstanceFile(n=n, edge_specs=tuple(specs), problem=inst.problem)


def _relabel(rng, inst):
    """(the relabelled instance through serialize and parse, the edge-id
    map sigma)."""
    image, sigma, _pi = _relabel_with_vertices(rng, inst)
    return image, sigma


def _relabel_with_vertices(rng, inst):
    """``_relabel``'s instance and sigma, and the vertex map pi."""
    n, m = inst.n, len(inst.edge_specs)
    pi = list(range(n))
    rng.shuffle(pi)
    sigma = list(range(m))
    rng.shuffle(sigma)
    specs = [None] * m
    for eid, (u, v, cost, label) in enumerate(inst.edge_specs):
        if rng.random() < 0.5:
            u, v = v, u
        specs[sigma[eid]] = (pi[u], pi[v], cost, label)
    prob = inst.problem
    if prob.kind == "flex":
        mapped = Problem("flex", flex=tuple(
            FlexRequirement(pi[r.s], pi[r.t], r.p, r.q) for r in prob.flex
        ))
    elif prob.kind == "bulk":
        mapped = Problem("bulk", scenarios=tuple(
            BulkScenario(frozenset(sigma[e] for e in sc.fail), tuple((pi[u], pi[v]) for u, v in sc.pairs))
            for sc in prob.scenarios
        ))
    else:
        mapped = Problem("rsndp", relative=tuple(
            RelativeRequirement(pi[r.s], pi[r.t], r.r) for r in prob.relative
        ))
    text = serialize(InstanceFile(n=n, edge_specs=tuple(specs), problem=mapped))
    return parse(text), sigma, pi


@pytest.mark.parametrize("shape", SHAPES)
def test_exact_search_is_invariant_under_relabelling(shape):
    rng = Random(f"metamorphic-{shape}")
    verdicts = set()
    for _ in range(CASES_PER_SHAPE):
        inst = _parallel_heavy(rng, SHAPES[shape])
        image, sigma = _relabel(rng, inst)
        g, h = inst.to_graph(), image.to_graph()
        sol, cost = exact_solve(g, inst.problem)
        image_sol, image_cost = exact_solve(h, image.problem)
        assert math.isclose(cost, image_cost, rel_tol=1e-9)
        preimage = {new: old for old, new in enumerate(sigma)}
        # Both optima, each mapped across, the whole graph and random sets.
        edge_sets = [sol, frozenset(preimage[e] for e in image_sol), g.all_edge_ids()]
        edge_sets += [
            frozenset(e for e in range(g.m) if rng.random() < keep)
            for keep in (0.3, 0.5, 0.7, 0.9)
        ]
        for H in edge_sets:
            verdict = check_problem_feasible(g, inst.problem, H)[0]
            mapped = frozenset(sigma[e] for e in H)
            assert check_problem_feasible(h, image.problem, mapped)[0] == verdict
            verdicts.add(verdict)
        assert check_problem_feasible(g, inst.problem, sol)[0]
    # Both verdicts occur, so the comparison is not vacuous.
    assert verdicts == {True, False}


def test_relative_driver_answers_pass_both_checks_under_relabelling():
    rng = Random("metamorphic-rsndp-driver")
    for _ in range(CASES_PER_SHAPE):
        inst = _parallel_heavy(rng, SHAPES["rsndp"])
        image, _sigma = _relabel(rng, inst)
        for case in (inst, image):
            g, reqs = case.to_graph(), case.problem.relative
            H = solve_rsndp(g, reqs, seed=rng.randrange(100))
            assert is_rsndp_feasible(g, reqs, H) == (True, None)
            assert brute_rsndp_feasible(g, reqs, H)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_approximation_answers_hold_their_guarantee_under_relabelling(algorithm):
    make_params, solve = ALGORITHMS[algorithm]
    rng = Random(f"metamorphic-{algorithm}")
    above_opt = 0
    for _ in range(CASES_PER_SHAPE):
        inst = _parallel_heavy(rng, make_params)
        image, _sigma = _relabel(rng, inst)
        for case in (inst, image):
            g, prob = case.to_graph(), case.problem
            H = solve(g, prob.flex[0])
            assert check_problem_feasible(g, prob, H)[0]
            _opt_sol, opt = exact_solve(g, prob)
            cost = g.total_cost(H)
            assert cost <= guarantee_for(case, algorithm) * opt + 1e-9
            above_opt += cost > opt + 1e-9
    # Some answers cost more than the optimum, so the bound is not met by
    # optimal answers alone.
    assert above_opt >= 10


@pytest.mark.parametrize("driver", DRIVERS)
def test_scenario_driver_answers_are_feasible_under_relabelling(driver):
    make_params, solve = DRIVERS[driver]
    rng = Random(f"metamorphic-{driver}-driver")
    for _ in range(CASES_PER_SHAPE):
        inst = _parallel_heavy(rng, make_params)
        image, _sigma = _relabel(rng, inst)
        seed = rng.randrange(100)
        for case in (inst, image):
            g, prob = case.to_graph(), case.problem
            assert check_problem_feasible(g, prob, solve(g, prob, seed))[0]


# n = 7 instances with an LP relaxation, drawn as the lp-cutting-plane
# workload draws its generated cells.
LP_SHAPES = {
    "flex": lambda rng: (14 + rng.randint(0, 2), {
        "problem": "fgc", "p": 2, "q": rng.randint(1, 2),
        "skeleton": rng.choice(("mixed", "safe")), "safe_prob": 0.45,
    }),
    "bulk": lambda rng: (14, {"problem": "bulk", "width": 2, "scenarios": 4}),
}


@pytest.mark.parametrize("kind", LP_SHAPES)
def test_lp_objective_is_invariant_under_relabelling(kind):
    rng = Random(f"metamorphic-lp-{kind}")
    positive = 0
    for _ in range(CASES_PER_SHAPE):
        m, params = LP_SHAPES[kind](rng)
        inst = generate("random-multigraph", n=7, m=m, seed=rng.randrange(10**6), params=params)
        image, _sigma = _relabel(rng, inst)
        objectives = []
        for case in (inst, image):
            sol, _model = solve_problem_lp(case.to_graph(), case.problem)
            assert sol.separation_clean
            objectives.append(sol.objective)
        assert math.isclose(*objectives, rel_tol=1e-9)
        positive += objectives[0] > 0
    assert positive == CASES_PER_SHAPE


@pytest.mark.parametrize("k", range(1, 7))
def test_appendix_a_lp_objective_is_invariant_under_relabelling(k):
    inst = appendix_a_instance(k)
    image, _sigma = _relabel(Random(f"metamorphic-lp-appendix-a-{k}"), inst)
    objectives = []
    for case in (inst, image):
        sol, _model = solve_problem_lp(case.to_graph(), case.problem)
        assert sol.separation_clean
        objectives.append(sol.objective)
    assert objectives[0] > 0
    assert math.isclose(*objectives, rel_tol=1e-9)


# The paper's three counterexample graphs, each with the (p, q) it lifts to.
FIGURES = {
    "figure-1": (figure_1_instance, 3, 2),
    "figure-3": (figure_3_instance, 3, 4),
    "figure-4": (figure_4_instance, 4, 5),
}
RELABELLINGS_PER_FIGURE = 6


@pytest.mark.parametrize("figure", FIGURES)
def test_figure_counterexamples_survive_relabelling(figure):
    # Each figure graph is (p, q-1)-feasible, but the cuts violated when
    # lifting it to (p, q) are not uncrossable: the named pair A = {x1, x2},
    # B = {x2, x3} fails the uncrossing disjunction.  That must hold of
    # every relabelled image, with the pair mapped along.
    make, p, q = FIGURES[figure]
    inst = make()
    rng = Random(f"metamorphic-{figure}")
    x1, x2, x3 = 0, 1, 2
    verdicts = set()
    for _ in range(RELABELLINGS_PER_FIGURE):
        image, sigma, pi = _relabel_with_vertices(rng, inst)
        g, h = inst.to_graph(), image.to_graph()
        fam = violated_cuts_flex_aug(h, image.problem.flex, h.all_edge_ids())
        assert not check_uncrossable(fam)[0]
        a, b = (1 << pi[x1]) | (1 << pi[x2]), (1 << pi[x2]) | (1 << pi[x3])
        assert fam.contains(a) and fam.contains(b)
        assert not uncross_pair_ok(fam.contains, a, b)
        with pytest.raises(InfeasibleInstance):
            exact_solve(h, image.problem)
        # The verdicts at (p, q) and at the prior level (p, q - 1), on the
        # whole graph and on random edge sets.
        edge_sets = [g.all_edge_ids()] + [
            frozenset(e for e in range(g.m) if rng.random() < keep) for keep in (0.5, 0.8, 0.95)
        ]
        for level in (q, q - 1):
            prob = Problem("flex", flex=fgc_requirements(g.n, p, level))
            image_prob = Problem("flex", flex=tuple(
                FlexRequirement(pi[r.s], pi[r.t], r.p, r.q) for r in prob.flex
            ))
            for H in edge_sets:
                verdict = check_problem_feasible(g, prob, H)[0]
                mapped = frozenset(sigma[e] for e in H)
                assert check_problem_feasible(h, image_prob, mapped)[0] == verdict
                verdicts.add((level, verdict))
    assert {(q, False), (q - 1, True), (q - 1, False)} <= verdicts
