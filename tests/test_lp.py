import itertools
from random import Random

import numpy as np
import pytest

from faultnet.exact import exact_solve
from faultnet.graph import FaultGraph, st_cut_masks
from faultnet.instances import appendix_a_instance, generate
from faultnet.gap import gap_experiment, paper_fractional_vector
from faultnet.lp import (
    LinearProgramModel,
    check_augmentation_lp_validity,
    cutting_plane_bulk,
    cutting_plane_flex,
    separate_bulk,
    separate_flex,
    separate_flex_definitional,
    solve_lp,
)
from faultnet.oracles import BulkScenario, FlexRequirement, Problem, fgc_requirements
from faultnet import lp, simplex
from faultnet.simplex import DualReoptimizer, SimplexStatus, solve_dense_lp
from oracle_utils import (
    highs_lp,
    loop_separate_bulk,
    loop_sum,
    loop_separate_flex,
    random_graph,
    random_lp,
)

# scipy.optimize.linprog status codes: 0 optimal, 2 infeasible, 3 unbounded.
HIGHS_STATUS = {
    0: SimplexStatus.OPTIMAL,
    2: SimplexStatus.INFEASIBLE,
    3: SimplexStatus.UNBOUNDED,
}


class TestSimplex:
    def test_lower_bounded_variable(self):
        status, x, obj = solve_dense_lp([1.0], [([(0, 1.0)], 0.5)], 1.0)
        assert status is SimplexStatus.OPTIMAL
        assert abs(x[0] - 0.5) < 1e-9 and abs(obj - 0.5) < 1e-9

    def test_parallel_edges_pick_cheaper(self):
        status, x, obj = solve_dense_lp(
            [1.0, 2.0], [([(0, 1.0), (1, 1.0)], 1.0)], 1.0
        )
        assert status is SimplexStatus.OPTIMAL and abs(obj - 1.0) < 1e-9

    def test_infeasible(self):
        status, _x, _obj = solve_dense_lp([1.0], [([(0, 1.0)], 2.0)], 1.0)
        assert status is SimplexStatus.INFEASIBLE

    def test_multiple_rows(self):
        # min x0 + x1 with x0 + x1 >= 1, x0 >= 0.25
        status, x, obj = solve_dense_lp(
            [1.0, 1.0],
            [([(0, 1.0), (1, 1.0)], 1.0), ([(0, 1.0)], 0.25)],
            1.0,
        )
        assert status is SimplexStatus.OPTIMAL and abs(obj - 1.0) < 1e-9

    def test_degenerate_rows_terminate(self):
        rows = [([(0, 1.0), (1, 1.0)], 1.0)] * 6 + [([(1, 1.0)], 0.5)]
        status, _x, obj = solve_dense_lp([2.0, 1.0], rows, 1.0)
        assert status is SimplexStatus.OPTIMAL and abs(obj - 1.0) < 1e-9

    @pytest.mark.parametrize("seed", range(50))
    def test_agrees_with_highs(self, seed):
        pytest.importorskip("scipy")
        objective, rows, upper_bounds = random_lp(seed)
        status, _x, value = solve_dense_lp(objective, rows, upper_bounds)
        code, fun = highs_lp(objective, rows, upper_bounds)
        assert status is HIGHS_STATUS[code]
        if status is SimplexStatus.OPTIMAL:
            assert abs(value - fun) < 1e-7


def _row_sequence(seed: int):
    """Seeded costs >= 0 and a sequence of >= rows for ``DualReoptimizer``.

    Coefficients are mostly positive, like cut rows, with some negative ones
    and right-hand sides of either sign; repeated and zero-cost columns make
    degenerate pivots, and some sequences turn infeasible.
    """
    rng = Random(seed)
    n = rng.randint(2, 8)
    costs = [0.0 if rng.random() < 0.2 else round(rng.uniform(0.1, 2.0), 3) for _ in range(n)]
    rows = []
    for _ in range(rng.randint(1, 14)):
        if rows and rng.random() < 0.15:
            rows.append(rng.choice(rows))
            continue
        cols = rng.sample(range(n), rng.randint(1, n))
        terms = [(j, rng.choice((1.0, 1.0, 2.0, 3.0, round(rng.uniform(-1.0, 2.0), 3)))) for j in cols]
        rows.append((terms, round(rng.uniform(-0.5, 1.5), 3)))
    return costs, rows


class TestDualReoptimizer:
    def _check_sequence(self, seed):
        costs, rows = _row_sequence(seed)
        warm = DualReoptimizer(costs)
        for i, (terms, rhs) in enumerate(rows):
            status = warm.add_row(terms, rhs)
            cold_status, _x, cold = solve_dense_lp(costs, rows[: i + 1], 1.0)
            assert status is cold_status
            if status is not SimplexStatus.OPTIMAL:
                return
            assert abs(warm.objective - cold) <= 1e-9
            x = warm.x()
            assert all(0.0 <= v <= 1.0 for v in x)
            assert abs(sum(c * v for c, v in zip(costs, x)) - cold) <= 1e-9
            for row_terms, row_rhs in rows[: i + 1]:
                assert sum(coeff * x[j] for j, coeff in row_terms) >= row_rhs - 1e-9

    @pytest.mark.parametrize("seed", range(60))
    def test_matches_cold_solve_after_every_row(self, seed):
        self._check_sequence(seed)

    @pytest.mark.parametrize("seed", range(60))
    def test_matches_cold_solve_under_blands_rule(self, seed, monkeypatch):
        monkeypatch.setattr(simplex, "DEGENERATE_LIMIT", 1)
        self._check_sequence(seed)

    def test_starts_at_zero(self):
        warm = DualReoptimizer([1.0, 0.0, 2.5])
        assert warm.x() == [0.0, 0.0, 0.0] and warm.objective == 0.0

    def test_row_beyond_the_box_is_infeasible(self):
        m = 4
        warm = DualReoptimizer([1.0] * m)
        assert warm.add_row([(0, 1.0), (1, 1.0)], 1.0) is SimplexStatus.OPTIMAL
        terms = [(j, 1.0) for j in range(m)]
        assert warm.add_row(terms, float(m + 1)) is SimplexStatus.INFEASIBLE

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            DualReoptimizer([1.0, -0.5])


class TestSolveLp:
    def test_empty_model_is_all_zero(self):
        g = random_graph(1, 5, 8)
        sol = solve_lp(LinearProgramModel(g))
        assert sol.objective == 0.0

    def test_appendix_a_k4_objective_at_most_fifteen(self):
        inst = appendix_a_instance(4)
        g = inst.to_graph()
        sol, _model = cutting_plane_flex(g, inst.problem.flex)
        assert sol.separation_clean
        assert sol.objective <= 3 * (4 + 1) + 1e-6

    def test_lp_never_exceeds_integral_opt(self):
        for seed in (2, 6):
            inst = generate(
                "random-multigraph",
                n=6,
                m=13,
                seed=seed,
                params={"problem": "flex-st", "p": 2, "q": 1, "skeleton": "mixed"},
            )
            g = inst.to_graph()
            sol, _model = cutting_plane_flex(g, inst.problem.flex)
            _opt_sol, opt = exact_solve(g, inst.problem)
            assert sol.objective <= opt + 1e-6


class TestSeparateFlex:
    def test_all_ones_on_feasible_graph(self):
        inst = generate(
            "random-multigraph",
            n=6,
            m=13,
            seed=4,
            params={"problem": "flex-st", "p": 2, "q": 1, "skeleton": "mixed"},
        )
        g = inst.to_graph()
        assert separate_flex(g, inst.problem.flex, [1.0] * g.m) is None

    def test_appendix_a_vector_is_clean(self):
        for k in (1, 2, 4):
            inst = appendix_a_instance(k)
            g = inst.to_graph()
            x = paper_fractional_vector(g, k)
            assert separate_flex(g, inst.problem.flex, x) is None

    def test_zero_vector_yields_capacitated_row(self):
        inst = appendix_a_instance(2)
        g = inst.to_graph()
        row = separate_flex(g, inst.problem.flex, [0.0] * g.m)
        assert row is not None and row.key[0] == "cap"

    def test_ties_break_in_separating_order(self):
        # At x = 0 every separating cut violates its capacitated row by
        # p(p+q); the first cut of the sweep wins, here the s side {1} (mask
        # 2), not the smaller canonical mask 1.
        g = FaultGraph(4, [(0, 1, 1.0, "safe"), (1, 2, 1.0, "unsafe"), (2, 3, 1.0, "safe")])
        row = separate_flex(g, [FlexRequirement(1, 0, 1, 1)], [0.0] * g.m)
        assert row.key == ("cap", 2)

    @pytest.mark.parametrize("seed", range(8))
    def test_agrees_with_definitional_checker(self, seed):
        rng = Random(seed)
        g = random_graph(seed + 500, 6, 10)
        reqs = [FlexRequirement(0, 5, rng.randint(1, 2), rng.randint(0, 2))]
        x = [round(rng.random(), 3) for _ in range(g.m)]
        fast = separate_flex(g, reqs, x) is None
        slow = separate_flex_definitional(g, reqs, x)
        assert fast == slow

    @pytest.mark.parametrize("seed", range(6))
    def test_prefix_rule_exact_per_cut(self, seed):
        # A cut is violated for some B iff for the top-q prefix by x value.
        rng = Random(seed)
        g = random_graph(seed + 600, 6, 10)
        p, q = 2, 2
        x = [round(rng.random(), 3) for _ in range(g.m)]
        for mask in st_cut_masks(g.n, 0, 5):
            boundary = [e for e in g.edges if ((mask >> e.u) ^ (mask >> e.v)) & 1]
            unsafe = sorted(
                (e for e in boundary if not e.safe),
                key=lambda e: (-x[e.id], e.id),
            )
            prefix = {e.id for e in unsafe[:q]}
            prefix_value = sum(x[e.id] for e in boundary if e.id not in prefix)
            violated_some_b = False
            unsafe_ids = [e.id for e in boundary if not e.safe]
            for size in range(q + 1):
                for B in itertools.combinations(unsafe_ids, size):
                    if sum(x[e.id] for e in boundary if e.id not in B) < p - 1e-9:
                        violated_some_b = True
            assert violated_some_b == (prefix_value < p - 1e-9)


class TestSeparateBulk:
    def test_feasible_vector_clean(self):
        g = random_graph(9, 6, 12)
        scen = (BulkScenario(frozenset(), ((0, 5),)),)
        assert separate_bulk(g, scen, [1.0] * g.m) is None

    def test_zero_vector_violates(self):
        g = random_graph(9, 6, 12)
        scen = (BulkScenario(frozenset(), ((0, 5),)),)
        row = separate_bulk(g, scen, [0.0] * g.m)
        assert row is not None and row.rhs == 1.0

    @pytest.mark.parametrize("seed", range(5))
    def test_agrees_with_brute_force(self, seed):
        rng = Random(seed)
        g = random_graph(seed + 700, 7, 12)
        fail = frozenset(rng.sample(range(g.m), 2))
        scen = (BulkScenario(fail, ((0, 6),)),)
        x = [round(rng.random(), 3) for _ in range(g.m)]
        fast = separate_bulk(g, scen, x) is None
        slow = True
        for mask in st_cut_masks(g.n, 0, 6):
            value = sum(
                x[e.id]
                for e in g.edges
                if e.id not in fail and ((mask >> e.u) ^ (mask >> e.v)) & 1
            )
            if value < 1.0 - 1e-9:
                slow = False
        assert fast == slow

    def test_cutting_plane_bulk_converges(self):
        inst = generate(
            "random-multigraph",
            n=6,
            m=12,
            seed=3,
            params={"problem": "bulk", "width": 1, "scenarios": 3},
        )
        g = inst.to_graph()
        sol, _model = cutting_plane_bulk(g, inst.problem.scenarios)
        assert sol.separation_clean
        _opt_sol, opt = exact_solve(g, inst.problem)
        assert sol.objective <= opt + 1e-6


# Separator inputs: uniform draws; values from THIRDS, whose sums make float
# near-ties; the same leaning to 1, so that capacitated rows hold and flex
# rows decide; all zero and all one.
THIRDS = (0.0, 1 / 3, 1 / 2, 2 / 3, 1.0)


def _x_vectors(rng: Random, m: int) -> list:
    return [
        [rng.random() for _ in range(m)],
        [rng.choice(THIRDS) for _ in range(m)],
        [rng.choice(THIRDS[2:] + (1.0, 1.0)) for _ in range(m)],
        [0.0] * m,
        [1.0] * m,
    ]


def _flex_case(seed: int):
    """n = 5..8, q = 0..3 and one pair, two or three pairs, or all pairs."""
    rng = Random(seed)
    n, q, shape = 5 + seed % 4, seed // 4 % 4, seed // 16 % 3
    p = rng.randint(1, 3)
    g = random_graph(seed + 900, n, rng.randint(2 * n, 3 * n), rng.choice((0.3, 0.5, 0.7)))
    if shape == 2:
        reqs = fgc_requirements(n, p, q)
    else:
        count = 1 + shape * rng.randint(1, 2)
        reqs = [FlexRequirement(*rng.sample(range(n), 2), p, q) for _ in range(count)]
    return g, reqs, _x_vectors(rng, g.m)


def _bulk_case(seed: int):
    """n = 5..8, two to four scenarios of up to three failed edges and two
    or three pairs each."""
    rng = Random(seed)
    n = 5 + seed % 4
    g = random_graph(seed + 950, n, rng.randint(2 * n, 3 * n))
    scenarios = [
        BulkScenario(
            frozenset(rng.sample(range(g.m), rng.randint(0, 3))),
            tuple(tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(2, 3))),
        )
        for _ in range(rng.randint(2, 4))
    ]
    return g, scenarios, _x_vectors(rng, g.m)


CUTTING_PLANE_CASES = {
    "appendix-a-k5": lambda: appendix_a_instance(5),
    "fgc-22": lambda: generate(
        "random-multigraph", n=7, m=15, seed=3,
        params={"problem": "fgc", "p": 2, "q": 2, "skeleton": "mixed", "safe_prob": 0.45},
    ),
    "bulk": lambda: generate(
        "random-multigraph", n=7, m=14, seed=5,
        params={"problem": "bulk", "width": 2, "scenarios": 4},
    ),
}


class TestSeparatorsMatchLoop:
    """The vectorised separators return the reference loop's row, bit for bit."""

    @pytest.mark.parametrize("seed", range(48))
    def test_flex_rows_identical(self, seed):
        g, reqs, xs = _flex_case(seed)
        for x in xs:
            assert repr(separate_flex(g, reqs, x)) == repr(loop_separate_flex(g, reqs, x))

    @pytest.mark.parametrize("seed", range(24))
    def test_bulk_rows_identical(self, seed):
        g, scenarios, xs = _bulk_case(seed)
        for x in xs:
            assert repr(separate_bulk(g, scenarios, x)) == repr(loop_separate_bulk(g, scenarios, x))

    def test_cases_reach_every_outcome(self):
        flex, bulk = set(), set()
        for seed in range(48):
            g, reqs, xs = _flex_case(seed)
            flex |= {row and row.key[0] for row in (loop_separate_flex(g, reqs, x) for x in xs)}
        for seed in range(24):
            g, scenarios, xs = _bulk_case(seed)
            bulk |= {row and row.key[0] for row in (loop_separate_bulk(g, scenarios, x) for x in xs)}
        assert flex == {"cap", "flex", None} and bulk == {"bulk", None}

    @pytest.mark.parametrize("name", CUTTING_PLANE_CASES)
    def test_every_cutting_plane_round(self, name):
        # The simplex's x at every round of a real run, near-ties included.
        inst = CUTTING_PLANE_CASES[name]()
        g = inst.to_graph()
        if inst.problem.kind == "flex":
            args = (g, inst.problem.flex)
            fast, loop = lp._flex_separator(*args), loop_separate_flex
        else:
            args = (g, inst.problem.scenarios)
            fast, loop = lp._bulk_separator(*args), loop_separate_bulk
        rounds = []

        def checked(x):
            row = fast(x)
            assert repr(row) == repr(loop(*args, x))
            rounds.append(row)
            return row

        sol, _model = lp._cutting_plane(g, checked)
        assert sol.separation_clean and len(rounds) == sol.rounds > 1


class TestVectorKernels:
    """The separators' vector steps keep a loop's float arithmetic."""

    @pytest.mark.parametrize("m", [0, 1, 7, 8, 9, 17, 40])
    def test_id_order_sums(self, m):
        rng = Random(m)
        values = lambda: rng.choice((0.0, 1 / 3, rng.random(), 1e-3 * rng.random()))
        rows = [[values() for _ in range(m)] for _ in range(30)]
        sums = lp._id_order_sums(np.array(rows, dtype=float).reshape(30, m))
        assert [repr(v) for v in sums.tolist()] == [repr(loop_sum(row)) for row in rows]

    @pytest.mark.parametrize("q", [0, 1, 2, 3, 9, 12])
    def test_top_sums(self, q):
        rng = Random(q)
        values = lambda: rng.choice((-np.inf, 1 / 3, 2 / 3, rng.random()))
        rows = [[values() for _ in range(11)] for _ in range(30)]
        sums = lp._top_sums(np.array(rows), q)
        expected = [loop_sum(sorted((v for v in row if v > -np.inf), reverse=True)[:q]) for row in rows]
        assert [repr(v) for v in sums.tolist()] == [repr(v) for v in expected]

    def test_scan_keeps_the_earlier_near_tie(self):
        # Index 1 beats index 0 by more than 1e-15; index 2 beats index 1 by
        # less, so the loop keeps 1 where argmax would pick 2.
        viol = np.array([1.0, 1.0 + 1.4e-15, 1.0 + 1.9e-15])
        assert viol[1] > viol[0] + 1e-15 and viol[2] <= viol[1] + 1e-15
        assert lp._scan(viol) == 1 and int(viol.argmax()) == 2

    def test_scan_margin_is_strict(self):
        # 1.0 + 1.1e-15 rounds to 1.0 + 1e-15 itself, so it does not beat 1.0.
        assert lp._scan(np.array([1.0, 1.0 + 1.1e-15, 1.0 + 1.9e-15])) == 2
        assert lp._scan(np.array([1.0, 1.0 + 1.1e-15])) == 0

    def test_scan_tolerance(self):
        assert lp._scan(np.array([lp.ROW_TOL, 0.0, -1.0])) is None
        assert lp._scan(np.array([], dtype=float)) is None
        assert lp._scan(np.array([0.0, 2 * lp.ROW_TOL, 2 * lp.ROW_TOL])) == 1

    @pytest.mark.parametrize("seed", range(20))
    def test_scan_matches_loop(self, seed):
        rng = Random(seed)
        base = rng.choice((1.0, 0.25, 3.0))
        viol = [base + rng.randint(-2, 12) * 2.0 ** -52 * base for _ in range(rng.randint(1, 40))]
        best = None
        for i, v in enumerate(viol):
            if v > lp.ROW_TOL and (best is None or v > viol[best] + 1e-15):
                best = i
        assert lp._scan(np.array(viol)) == best


class TestAugmentationValidity:
    def test_vacuous_when_no_violated_cuts(self):
        inst = generate(
            "random-multigraph",
            n=6,
            m=13,
            seed=5,
            params={"problem": "flex-st", "p": 1, "q": 1, "skeleton": "safe"},
        )
        g = inst.to_graph()
        reqs = inst.problem.flex
        base, _ = exact_solve(g, Problem("flex", flex=tuple(reqs)))
        x = [1.0] * g.m
        ok, witness = check_augmentation_lp_validity(g, reqs, x, base)
        assert ok and witness is None

    def test_lp_solution_covers_violated_cuts(self):
        found = False
        for seed in range(12):
            inst = generate(
                "random-multigraph",
                n=6,
                m=14,
                seed=seed + 40,
                params={
                    "problem": "flex-st",
                    "p": 2,
                    "q": 2,
                    "skeleton": "mixed",
                    "safe_prob": 0.35,
                },
            )
            g = inst.to_graph()
            req = inst.problem.flex[0]
            base, _ = exact_solve(
                g, Problem("flex", flex=(FlexRequirement(req.s, req.t, 2, 1),))
            )
            from faultnet.oracles import violated_cuts_flex_aug

            fam = violated_cuts_flex_aug(g, [req], base)
            if not fam.members:
                continue
            found = True
            sol, _model = cutting_plane_flex(g, [req])
            ok, _w = check_augmentation_lp_validity(g, [req], sol.x, base)
            assert ok
        assert found

    def test_corrupted_vector_caught(self):
        for seed in range(12):
            inst = generate(
                "random-multigraph",
                n=6,
                m=14,
                seed=seed + 40,
                params={
                    "problem": "flex-st",
                    "p": 2,
                    "q": 2,
                    "skeleton": "mixed",
                    "safe_prob": 0.35,
                },
            )
            g = inst.to_graph()
            req = inst.problem.flex[0]
            base, _ = exact_solve(
                g, Problem("flex", flex=(FlexRequirement(req.s, req.t, 2, 1),))
            )
            from faultnet.oracles import violated_cuts_flex_aug

            fam = violated_cuts_flex_aug(g, [req], base)
            if not fam.members:
                continue
            # Zero everything outside F1: violated cuts lose their coverage.
            x = [1.0 if eid in base else 0.0 for eid in range(g.m)]
            ok, witness = check_augmentation_lp_validity(g, [req], x, base)
            assert not ok and witness is not None
            return
        pytest.skip("no instance with violated cuts")


class TestGapExperiment:
    def test_k2_quantities(self):
        rep = gap_experiment(2)
        assert abs(rep.fractional_cost - 9.0) < 1e-9
        assert rep.separation_clean
        assert abs(rep.integral_opt - 7.5) < 1e-9
        assert rep.small_safe_candidates_rejected

    def test_k9_reports_lp_and_integral_optimum(self):
        # m = 3(k+1) = 30 is the exact budget; the LP is solved warm.
        rep = gap_experiment(9)
        assert rep.lp_objective is not None
        assert rep.lp_objective <= rep.integral_opt
        assert rep.separation_clean
        assert rep.integral_opt == 55.0

    def test_k1_smallest_case(self):
        rep = gap_experiment(1)
        assert abs(rep.fractional_cost - 6.0) < 1e-9
        assert rep.separation_clean
