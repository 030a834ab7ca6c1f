import ast
import itertools
import math
import tracemalloc
from pathlib import Path
from random import Random

import numpy as np
import pytest

from faultnet.exact import exact_solve
from faultnet.graph import FaultGraph, st_cut_masks
from faultnet.instances import appendix_a_instance, generate
from faultnet.gap import gap_experiment, paper_fractional_vector
from faultnet.errors import LpInfeasible, UnsupportedParameters
from faultnet.lp import (
    LinearProgramModel,
    LpRow,
    cutting_plane_bulk,
    cutting_plane_flex,
    separate_bulk,
    separate_flex,
)
from faultnet.oracles import BulkScenario, FlexRequirement, Problem, fgc_requirements
from faultnet import lp, simplex
from faultnet.simplex import DualReoptimizer, SimplexStatus, solve_dense_lp
from oracle_utils import (
    assert_solve_matches_reference,
    check_augmentation_lp_validity,
    highs_lp,
    loop_separate_bulk,
    loop_sum,
    loop_separate_flex,
    numpy_basic_x,
    random_graph,
    random_lp,
    row_at_a_time_pivot,
    separate_flex_definitional,
    separating_masks_reference,
    solve_lp,
    two_phase_lp,
)

# scipy.optimize.linprog status codes: 0 optimal, 2 infeasible, 3 unbounded.
HIGHS_STATUS = {
    0: SimplexStatus.OPTIMAL,
    2: SimplexStatus.INFEASIBLE,
    3: SimplexStatus.UNBOUNDED,
}


class TestSimplex:
    """The two-phase reference simplex of ``oracle_utils``."""

    def test_lower_bounded_variable(self):
        status, x, obj = two_phase_lp([1.0], [([(0, 1.0)], 0.5)], 1.0)
        assert status is SimplexStatus.OPTIMAL
        assert abs(x[0] - 0.5) < 1e-9 and abs(obj - 0.5) < 1e-9

    def test_parallel_edges_pick_cheaper(self):
        status, x, obj = two_phase_lp(
            [1.0, 2.0], [([(0, 1.0), (1, 1.0)], 1.0)], 1.0
        )
        assert status is SimplexStatus.OPTIMAL and abs(obj - 1.0) < 1e-9

    def test_infeasible(self):
        status, _x, _obj = two_phase_lp([1.0], [([(0, 1.0)], 2.0)], 1.0)
        assert status is SimplexStatus.INFEASIBLE

    def test_multiple_rows(self):
        # min x0 + x1 with x0 + x1 >= 1, x0 >= 0.25
        status, x, obj = two_phase_lp(
            [1.0, 1.0],
            [([(0, 1.0), (1, 1.0)], 1.0), ([(0, 1.0)], 0.25)],
            1.0,
        )
        assert status is SimplexStatus.OPTIMAL and abs(obj - 1.0) < 1e-9

    def test_degenerate_rows_terminate(self):
        rows = [([(0, 1.0), (1, 1.0)], 1.0)] * 6 + [([(1, 1.0)], 0.5)]
        status, _x, obj = two_phase_lp([2.0, 1.0], rows, 1.0)
        assert status is SimplexStatus.OPTIMAL and abs(obj - 1.0) < 1e-9

    @pytest.mark.parametrize("seed", range(50))
    def test_agrees_with_highs(self, seed):
        pytest.importorskip("scipy")
        objective, rows, upper_bounds = random_lp(seed)
        status, _x, value = two_phase_lp(objective, rows, upper_bounds)
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
        # The package's cold solve: all rows added at once.
        assert_solve_matches_reference(costs, rows)
        warm = DualReoptimizer(costs)
        for i, (terms, rhs) in enumerate(rows):
            status = warm.add_row(terms, rhs)
            cold_status, _x, cold = two_phase_lp(costs, rows[: i + 1], 1.0)
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
        with pytest.raises(ValueError):
            solve_dense_lp([1.0, -0.5], [([(0, 1.0)], 0.5)])


def _signed_zero_tableau(rng, m: int, width: int) -> np.ndarray:
    """Random entries with some set to +0.0 and some to -0.0; the last row,
    like a reduced-cost row, holds a -0.0."""
    tab = rng.uniform(-2.0, 2.0, (m, width))
    draw = rng.random((m, width))
    tab[draw < 0.25] = 0.0
    tab[draw > 0.85] = -0.0
    tab[-1, rng.integers(width)] = -0.0
    return tab


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


class TestPivotBits:
    """The pivot and ``x()`` against their bitwise references in
    ``oracle_utils``: ``tobytes`` and ``float.hex`` tell -0.0 from 0.0."""

    def test_pivot_matches_row_at_a_time_elimination(self):
        rng = np.random.default_rng(5)
        seen = {"negative pivot": 0, "zero factor": 0, "-0.0 entry": 0}
        for _ in range(300):
            m, width = int(rng.integers(2, 9)), int(rng.integers(3, 12))
            tab = _signed_zero_tableau(rng, m, width)
            ref, basis, ref_basis = tab.copy(), list(range(m)), list(range(m))
            for _ in range(int(rng.integers(1, 6))):
                row = int(rng.integers(m))
                cols = (np.abs(tab[row]) > 1e-3).nonzero()[0]
                if not cols.size:
                    break
                col = int(rng.choice(cols))
                seen["negative pivot"] += tab[row, col] < 0.0
                seen["zero factor"] += int((tab[:, col] == 0.0).sum())
                simplex._pivot(tab, basis, row, col)
                row_at_a_time_pivot(ref, ref_basis, row, col)
                assert tab.tobytes() == ref.tobytes() and basis == ref_basis
            seen["-0.0 entry"] += int(np.signbit(tab[tab == 0.0]).sum())
        assert all(seen.values()), seen

    def test_x_matches_numpy_form_after_random_pivots(self):
        # Basic rhs values inside both clamp bands, on their edges and -0.0.
        bands = [-5e-10, -1e-9, -0.0, 0.0, 0.25, 1.0, 1.0 + 5e-10, 1.0 + 1e-9, 1.5, -0.5]
        clamped = set()
        for seed in range(40):
            rng = np.random.default_rng(seed)
            costs, rows = _row_sequence(seed)
            costs[int(rng.integers(len(costs)))] = -0.0
            warm = DualReoptimizer(costs)
            warm.add_rows(rows)
            assert _hex(warm.x()) == _hex(numpy_basic_x(warm))
            m = len(warm.basis)
            ref, ref_basis = warm.tab.copy(), list(warm.basis)
            for _ in range(int(rng.integers(1, 8))):
                row = int(rng.integers(m))
                cols = (np.abs(warm.tab[row, : warm.n]) > 1e-3).nonzero()[0]
                if cols.size:
                    col = int(rng.choice(cols))
                    simplex._pivot(warm.tab, warm.basis, row, col)
                    row_at_a_time_pivot(ref, ref_basis, row, col)
                    assert warm.tab.tobytes() == ref.tobytes() and warm.basis == ref_basis
            structural = [i for i in range(m) if warm.basis[i] < warm.n]
            for k, i in enumerate(structural):
                warm.tab[i, -1] = bands[(seed + k) % len(bands)]
            x = warm.x()
            assert _hex(x) == _hex(numpy_basic_x(warm))
            clamped.update(warm.tab[i, -1] for i in structural if x[warm.basis[i]] != warm.tab[i, -1])
        assert clamped == {-5e-10, 1.0 + 5e-10}


BLAS_CALLS = {"dot", "matmul", "inner", "einsum", "vdot", "tensordot"}
# Sums whose order of additions is not a left-to-right loop's: numpy's
# pairwise ``np.sum`` and ``a.sum()``, and Python >= 3.12's compensated
# ``sum``.
SUM_CALLS = {"sum"}


def _blas_products(source: str, calls=BLAS_CALLS) -> set[str]:
    """Dotted name of the function or method around each BLAS product in
    the source: ``@``, ``@=``, or a call of a name or attribute in
    ``calls`` (``np.dot``, ``a.dot(``, ``np.matmul``, ``np.inner``,
    ``np.einsum``, ...; with ``SUM_CALLS`` also ``np.sum``, ``a.sum(`` and
    ``sum(``); "" for one outside any."""
    found = set()
    scope = []

    class Visitor(ast.NodeVisitor):
        def enter(self, node):
            scope.append(node.name)
            self.generic_visit(node)
            scope.pop()

        visit_FunctionDef = visit_ClassDef = enter

        def visit_BinOp(self, node):
            if isinstance(node.op, ast.MatMult):
                found.add(".".join(scope))
            self.generic_visit(node)

        visit_AugAssign = visit_BinOp

        def visit_Call(self, node):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in calls:
                found.add(".".join(scope))
            self.generic_visit(node)

    Visitor().visit(ast.parse(source))
    return found


def test_blas_pattern_finds_every_form():
    def method(form):
        return f"class C:\n    def f(a, b):\n        {form}\n"

    forms = ["a @ b", "a @= b", "np.dot(a, b)", "a.dot(b)", "np.matmul(a, b)",
             "np.inner(a, b)", "np.einsum('i,i', a, b)"]
    for form in forms:
        assert _blas_products(method(form)) == {"C.f"}
    sums = ["np.sum(a)", "a.sum()", "a[1:].sum(axis=1)", "sum(a)", "numpy.sum(a, axis=0)"]
    for form in forms + sums:
        assert _blas_products(method(form), BLAS_CALLS | SUM_CALLS) == {"C.f"}
    for form in sums:
        assert _blas_products(method(form)) == set()
    for form in ["np.add.reduce(a, axis=1)", "total += col", "a.summary()", "np.cumsum(a)"]:
        assert _blas_products(method(form), BLAS_CALLS | SUM_CALLS) == set()
    assert _blas_products("def f(a, b):\n    return a * b  # a @ b\n") == set()


def test_blas_products_stay_in_add_rows():
    """OpenBLAS results depend on operand layout (ROADMAP item 5), so the
    simplex makes its one BLAS product, the elimination of the basic
    columns from new rows, in ``add_rows`` alone, on ``tab[:m]``."""
    source = Path(simplex.__file__).read_text(encoding="utf-8")
    assert _blas_products(source) == {"DualReoptimizer.add_rows"}


def test_lp_pricing_makes_no_product_or_reordered_sum():
    """The separators promise sums in edge-id order, so ``lp.py`` adds
    through ``np.add.reduce`` and loops alone: no BLAS product, whose
    results also depend on operand layout, and no ``sum``."""
    source = Path(lp.__file__).read_text(encoding="utf-8")
    assert _blas_products(source, BLAS_CALLS | SUM_CALLS) == set()


class TestSolveLp:
    def test_empty_model_is_all_zero(self):
        g = random_graph(1, 5, 8)
        sol = solve_lp(LinearProgramModel(g))
        assert sol.objective == 0.0

    def test_row_above_the_variable_bound_is_infeasible(self):
        # x0 lies in [0, 1], so the one row x0 >= 2 has no solution.
        model = LinearProgramModel(random_graph(1, 5, 8))
        model.add_row(LpRow(key=("above-bound",), terms=((0, 1.0),), rhs=2.0))
        with pytest.raises(LpInfeasible, match="INFEASIBLE"):
            solve_lp(model)

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

    def test_mixed_requirements_are_rejected(self):
        g = appendix_a_instance(1).to_graph()
        reqs = [FlexRequirement(0, 1, 1, 1), FlexRequirement(0, 2, 2, 1)]
        with pytest.raises(UnsupportedParameters, match="^the LP relaxation needs a uniform"):
            separate_flex(g, reqs, [1.0] * g.m)

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


# Values that ``DualReoptimizer.x`` passes on unchanged: -0.0, and the
# edges of its two clamp bands, which it leaves unclamped.
EDGE_VALUES = (-0.0, -1e-9, 1.0 + 1e-9)


def _reuse_order(xs: list, rng: Random) -> list:
    """The case's vectors, then copies with -0.0 and clamp-band values
    mixed in, then the case's vectors again in reverse."""
    edged = [[rng.choice(EDGE_VALUES) if rng.random() < 0.3 else v for v in x] for x in xs]
    return xs + edged + xs[::-1]


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

    @pytest.mark.parametrize("seed", range(48))
    def test_one_flex_separator_through_every_x(self, seed):
        # One closure prices every x of the case in turn, so state left in
        # its reused buffers by an earlier round would show.
        g, reqs, xs = _flex_case(seed)
        separate = lp._flex_separator(g, reqs)
        for x in _reuse_order(xs, Random(seed)):
            assert repr(separate(x)) == repr(loop_separate_flex(g, reqs, x))

    @pytest.mark.parametrize("seed", range(24))
    def test_one_bulk_separator_through_every_x(self, seed):
        g, scenarios, xs = _bulk_case(seed)
        separate = lp._bulk_separator(g, scenarios)
        for x in _reuse_order(xs, Random(seed)):
            assert repr(separate(x)) == repr(loop_separate_bulk(g, scenarios, x))

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


def _masks_twice(n: int, reqs) -> list[int]:
    """The separating cut list asked for twice, from a cold cache, with a
    write into the first answer tried in between: it must refuse, and the
    second answer must equal the first."""
    g = FaultGraph(n, [])
    lp._flex_cut_list.cache_clear()
    first = lp._separating_cuts(g, reqs)
    kept = first.masks.tolist()
    for arr in first:
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0
    second = lp._separating_cuts(g, reqs)
    assert second.masks.tolist() == kept
    assert np.array_equal(second.side, (second.masks >> np.arange(n)[:, None]) & 1)
    return kept


class TestSeparatingMasks:
    """The cut list keeps the reference's first-appearance order."""

    @pytest.mark.parametrize("n", range(2, 11))
    def test_all_pairs(self, n):
        reqs = fgc_requirements(n, 1, 0)
        masks = _masks_twice(n, reqs)
        assert masks == separating_masks_reference(n, reqs)
        assert sorted(masks) == list(range(1, 1 << (n - 1)))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_single_pairs(self, n):
        for s, t in itertools.permutations(range(n), 2):
            reqs = [FlexRequirement(s, t, 1, 0)]
            assert _masks_twice(n, reqs) == separating_masks_reference(n, reqs)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_pair_lists(self, seed):
        rng = Random(seed)
        n = rng.randint(2, 8)
        pairs = list(itertools.permutations(range(n), 2))
        # Repeats and both orientations of a pair included.
        reqs = [FlexRequirement(*rng.choice(pairs), 1, 0) for _ in range(rng.randint(1, 12))]
        assert _masks_twice(n, reqs) == separating_masks_reference(n, reqs)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_st_lists(self, n):
        for s, t in itertools.permutations(range(n), 2):
            cuts = lp._st_cut_list(n, s, t)
            assert cuts.masks.tolist() == st_cut_masks(n, s, t)
            assert np.array_equal(cuts.side, (cuts.masks >> np.arange(n)[:, None]) & 1)
            assert not cuts.masks.flags.writeable and not cuts.side.flags.writeable

    def test_all_pairs_at_n_16_lists_in_one_pass(self):
        # Well below the 15.7 MB that the s-t masks of all 120 pairs take
        # together (120 * 16,384 masks of 8 bytes).
        reqs = fgc_requirements(16, 1, 0)
        g = FaultGraph(16, [])
        lp._flex_cut_list.cache_clear()
        tracemalloc.start()
        try:
            masks = lp._separating_cuts(g, reqs).masks.tolist()
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(masks) == (1 << 15) - 1
        assert peak < 4 * 2**20

    def test_flex_round_at_n_16_allocates_no_cuts_by_edges_array(self):
        # One full round (capacitated and flex passes) of an n = 16, m = 48
        # FGC (2, 1) run: its buffers are the run's, so the round's own
        # allocations stay far below one cuts x edges float array
        # (32,767 * 48 * 8 bytes, 12.6 MB).
        inst = generate(
            "random-multigraph", n=16, m=48, seed=1,
            params={"problem": "fgc", "p": 2, "q": 1, "skeleton": "mixed"},
        )
        g = inst.to_graph()
        separate = lp._flex_separator(g, inst.problem.flex)
        x = [1.0] * g.m
        tracemalloc.start()
        try:
            row = separate(x)
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert row is None
        assert peak < ((1 << 15) - 1) * g.m * 8 / 4


class TestVectorKernels:
    """The separators' vector steps keep a loop's float arithmetic."""

    @pytest.mark.parametrize("m", [0, 1, 7, 8, 9, 17, 40, 41])
    def test_id_order_sums(self, m):
        rng = Random(m)
        values = lambda: rng.choice((0.0, 1 / 3, rng.random(), 1e-3 * rng.random()))
        rows = [[values() for _ in range(m)] for _ in range(30)]
        # Rows whose sum depends on the order of the additions: left to
        # right, 1.0 absorbs each 2**-53 (at m = 41, 1.0 where math.fsum
        # gives 1.0000000000000044 and np.sum 1.000000000000004).
        tiny = 2.0**-53
        ordered = []
        if m >= 3:
            ordered = [
                [1.0] + [tiny] * (m - 1),
                [tiny] * (m - 1) + [1.0],
                [1.0, 1.0] + [tiny] * (m - 2),
                [tiny if i % 3 else 1.0 for i in range(m)],
            ]
            assert all(math.fsum(row) != loop_sum(row) for row in ordered[::2])
        rows = ordered + rows
        expected = [repr(loop_sum(row)) for row in rows]
        for layout in ("C", "F"):
            sums = lp._id_order_sums(np.array(rows, dtype=float, order=layout).reshape(len(rows), m))
            assert [repr(v) for v in sums.tolist()] == expected
        # One row is one contiguous run, and two rows are the fewest that
        # np.add.reduce can add column by column.
        for few in (rows[:1], rows[:2]):
            sums = lp._id_order_sums(np.array(few, dtype=float).reshape(len(few), m))
            assert [repr(v) for v in sums.tolist()] == expected[: len(few)]

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
