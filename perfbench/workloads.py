"""The four benchmark workloads: seeded cell lists, cell execution, checks.

A workload turns ``(seed, count)`` into a fixed list of cells.  Each cell
holds serialized instance text, so the program under test receives only
generated instances.  Algorithm cells go through ``faultnet.bench.run_cell``
(parse, solve, oracle verify, exact baseline where m <= 30), the path
``faultnet bench`` takes.  LP cells parse their text and call the
cutting-plane drivers directly.

Every executed cell yields an ``Outcome`` carrying its timings (CPU time
rescaled by the host's speed, see cpuclock.py), a signature of its answer (edges and costs, or the rounded LP objective) and
the reason it failed, if it did.  A cell fails when it raised.  It is also
wrong when it returned an infeasible output, exceeded its guarantee, ended
with separation not clean, gave an LP objective that scipy does not
reproduce from its final rows, or answered differently on a repeat.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field, replace
from random import Random

from cpuclock import cpu_clock, reference_slice, slowdown

# Calls go through the module attributes, so a Tracer's wrappers see them.
from faultnet import bench, instances, lp
from faultnet.exact import exact_budget

RATIO_TOL = 1e-9
LP_OBJ_TOL = 1e-6


@dataclass(frozen=True)
class Cell:
    """One unit of closed-loop work: an algorithm or an LP on one instance."""

    cell_id: str
    kind: str  # "alg" or "lp"
    algorithm: str  # faultnet algorithm name, or the LP family
    text: str
    m: int
    alg_seed: int = 0
    want_exact: bool = False
    guarantee: float | None = None


@dataclass
class Outcome:
    cell_ms: float
    solve_ms: float | None
    signature: tuple
    ratio: float | None = None
    error: str = ""  # why the cell failed; empty when it passed
    wrong: bool = False  # the failure is a wrong answer, not a raised error
    lp_rows: list = field(default_factory=list, repr=False)
    slowdown: float = 1.0  # the timings are CPU times divided by this

    def rescale(self, factor: float) -> None:
        self.slowdown = factor
        self.cell_ms /= factor
        if self.solve_ms is not None:
            self.solve_ms /= factor

    def mark_wrong(self, reason: str) -> None:
        self.error = reason
        self.wrong = True


def _instance_seed(seed: int, index: int, kind_code: int) -> int:
    return (seed * 1_000_003 + index * 7919 + kind_code * 131) & 0x7FFFFFFF


def _ratio_shapes(p: int, q: int):
    """The criterion-2 (n, m, skeleton) rotation: n 5..8, m <= 18."""
    mixed_cycles = max((p + 1) // 2, (p + q + 1) // 2)
    safe_cycles = (p + 1) // 2
    shapes = []
    for n in (5, 6, 7, 8):
        if mixed_cycles * n + 2 <= 18:
            shapes.append((n, min(18, mixed_cycles * n + 4), "mixed"))
        if safe_cycles * n + 4 <= 18:
            shapes.append((n, min(18, safe_cycles * n + 6), "safe"))
    return shapes


def _alg_cell(cell_id, algorithm, seed, n, m, params, alg_seed=0) -> Cell:
    inst = instances.generate("random-multigraph", n=n, m=m, seed=seed, params=params)
    return Cell(
        cell_id=cell_id,
        kind="alg",
        algorithm=algorithm,
        text=instances.serialize(inst),
        m=m,
        alg_seed=alg_seed,
        want_exact=m <= exact_budget(),
        guarantee=bench.guarantee_for(inst, algorithm),
    )


def _lp_cell(cell_id, family, inst) -> Cell:
    return Cell(cell_id=cell_id, kind="lp", algorithm=family, text=instances.serialize(inst), m=len(inst.edge_specs))


# -- workload builders ------------------------------------------------------------
# Each builder maps (seed, index) to one cell; kinds rotate round-robin so any
# prefix of the list is a balanced mix.

def _ratio_sweep(seed: int, i: int) -> Cell:
    kinds = (("fgc", 2, 2), ("fgc", 3, 2), ("fgc", 3, 3), ("flex-st-22", 2, 2))
    code = i % len(kinds)
    algorithm, p, q = kinds[code]
    shapes = _ratio_shapes(p, q)
    n, m, skeleton = shapes[(i // len(kinds)) % len(shapes)]
    problem = "fgc" if algorithm == "fgc" else "flex-st"
    params = {"problem": problem, "p": p, "q": q, "skeleton": skeleton, "safe_prob": 0.45}
    return _alg_cell(
        f"{algorithm}-{p}{q}-{i}", algorithm, _instance_seed(seed, i, code), n, m, params
    )


def _fgc_fallback(seed: int, i: int) -> Cell:
    kinds = ((2, 2), (3, 2), (3, 3))
    code = i % len(kinds)
    p, q = kinds[code]
    j = i // len(kinds)
    n = (9, 10)[j % 2]
    m = 32 + (j * 3) % 7
    skeleton = ("mixed", "safe")[(j // 2) % 2]
    params = {"problem": "fgc", "p": p, "q": q, "skeleton": skeleton, "safe_prob": 0.45}
    return _alg_cell(f"fgc-{p}{q}-{i}", "fgc", _instance_seed(seed, i, 10 + code), n, m, params)


FLEX_SNDP_PAIRS = [[0, 6, 1, 2], [1, 4, 2, 1]]


def _bulk_relative(seed: int, i: int) -> Cell:
    code = i % 3
    j = i // 3
    inst_seed = _instance_seed(seed, i, 20 + code)
    if code == 0:
        params = {"problem": "bulk", "width": 2, "scenarios": 4}
        return _alg_cell(f"bulk-{i}", "bulk", inst_seed, 7, 13 + j % 4, params, alg_seed=i)
    if code == 1:
        params = {"problem": "rsndp", "pairs": 2, "r": 2}
        return _alg_cell(f"rsndp-{i}", "rsndp", inst_seed, 7, 13 + j % 4, params, alg_seed=i)
    # Two mixed skeleton cycles (14 edges) certify the (1, 2) pair.
    params = {"problem": "flex-sndp", "p": 1, "q": 2, "skeleton": "mixed", "pairs": FLEX_SNDP_PAIRS}
    return _alg_cell(f"flex-sndp-{i}", "flex-sndp", inst_seed, 7, 14 + j % 3, params, alg_seed=i)


LP_GAP_PERIOD = 200  # one appendix-a LP opens every block of this many cells
LP_GAP_KS = (4, 5, 6)


def _lp_cutting_plane(seed: int, i: int) -> Cell:
    block, pos = divmod(i, LP_GAP_PERIOD)
    if pos == 0:
        k = LP_GAP_KS[block % len(LP_GAP_KS)]
        return _lp_cell(f"lp-gap-k{k}-{i}", "flex", instances.appendix_a_instance(k))
    code = pos % 3
    j = pos // 3
    inst_seed = _instance_seed(seed, i, 30 + code)
    if code == 2:
        params = {"problem": "bulk", "width": 2, "scenarios": 4}
        inst = instances.generate("random-multigraph", n=7, m=14, seed=inst_seed, params=params)
        return _lp_cell(f"lp-bulk-{i}", "bulk", inst)
    q = 1 + code
    params = {"problem": "fgc", "p": 2, "q": q, "skeleton": ("mixed", "safe")[j % 2], "safe_prob": 0.45}
    inst = instances.generate("random-multigraph", n=7, m=14 + j % 3, seed=inst_seed, params=params)
    return _lp_cell(f"lp-fgc-2{q}-{i}", "flex", inst)


def _relabeled(cell: Cell, seed: int, index: int) -> Cell:
    """An isomorphic copy of an all-pairs FGC cell: vertices permuted and
    edges shuffled, so repeated base instances never repeat as input."""
    inst = instances.parse(cell.text)
    if not inst.problem.is_fgc(inst.n):
        raise ValueError("only all-pairs FGC instances are invariant under relabeling")
    rng = Random(_instance_seed(seed, index, 40))
    perm = list(range(inst.n))
    rng.shuffle(perm)
    specs = [(perm[u], perm[v], cost, safety) for u, v, cost, safety in inst.edge_specs]
    rng.shuffle(specs)
    text = instances.serialize(replace(inst, edge_specs=tuple(specs)))
    return replace(cell, cell_id=f"{cell.cell_id}-v{index}", text=text)


@dataclass(frozen=True)
class Workload:
    name: str
    build: object  # (seed, index) -> Cell
    cells_per_s: float  # nominal rate on a 2-core x86 host at the seed commit
    distinct: int | None  # generated base instances, relabeled per cell; None = all generated

    def cell_count(self, seconds: float) -> int:
        """Fixed work sized so one run measures about ``seconds`` at the
        nominal rate; the same (seed, seconds) always gives the same cells."""
        return max(1, math.ceil(seconds * self.cells_per_s))

    def make_cells(self, seed: int, count: int) -> list[Cell]:
        if self.distinct is None:
            return [self.build(seed, i) for i in range(count)]
        base = [self.build(seed, i) for i in range(min(count, self.distinct))]
        return [_relabeled(base[i % len(base)], seed, i) for i in range(count)]


# Why each workload exists is in README.md; in short: ratio-sweep is the
# exact-dominated criterion-2 mix, fgc-fallback the m > 30 primal-dual path
# with no exact search, bulk-relative the tree/hitting-set pipeline, and
# lp-cutting-plane the only simplex and separation load.  fgc-fallback
# generates thirty instances, because each costs about 50 ms to certify, and
# relabels them per cell, so that no input repeats within a run.  It runs by
# hand only: BENCHMARK.json leaves it out, so that the three workloads it
# gates get longer runs within the gate's time limit (see README.md).
WORKLOADS = {
    w.name: w
    for w in (
        Workload("ratio-sweep", _ratio_sweep, cells_per_s=10.5, distinct=None),
        Workload("fgc-fallback", _fgc_fallback, cells_per_s=15.0, distinct=30),
        Workload("bulk-relative", _bulk_relative, cells_per_s=26.0, distinct=None),
        Workload("lp-cutting-plane", _lp_cutting_plane, cells_per_s=25.0, distinct=None),
    )
}


# -- running and checking cells ----------------------------------------------------

def _fmt(x) -> str | None:
    return None if x is None else format(x, ".9g")


def run_one(cell: Cell) -> Outcome:
    """Execute one cell and apply its in-loop checks; never raises.

    A cell that raised has failed; one that returned an infeasible output,
    exceeded its guarantee or left separation unclean is also wrong.
    """
    if cell.kind == "alg":
        # run_cell times the algorithm call with the wall clock; wrapping the
        # call it makes gives the same span on the CPU clock.
        run_algorithm = bench.run_algorithm
        solve_s = []

        def timed_run_algorithm(*args, **kwargs):
            solve_start = cpu_clock()
            try:
                return run_algorithm(*args, **kwargs)
            finally:
                solve_s.append(cpu_clock() - solve_start)

        start = cpu_clock()
        bench.run_algorithm = timed_run_algorithm
        try:
            rec = bench.run_cell(cell.text, cell.cell_id, cell.algorithm, cell.alg_seed, cell.want_exact)
        except Exception as exc:  # run_cell records only FaultnetError itself
            rec = bench.RunRecord(cell.cell_id, cell.algorithm, cell.alg_seed, error=f"{type(exc).__name__}: {exc}")
        finally:
            bench.run_algorithm = run_algorithm
        cell_ms = (cpu_clock() - start) * 1000.0
        solve_ms = solve_s[0] * 1000.0 if rec.wall_ms is not None else None
        if rec.error:
            return Outcome(cell_ms, solve_ms, (cell.cell_id, rec.error), error=rec.error)
        sig = (cell.cell_id, list(rec.edges), _fmt(rec.cost), _fmt(rec.exact_opt))
        out = Outcome(cell_ms=cell_ms, solve_ms=solve_ms, signature=sig, ratio=rec.ratio)
        if rec.feasible is not True:
            out.mark_wrong("infeasible output")
        elif cell.want_exact and rec.ratio is None:
            out.error = "exact baseline did not run"
        elif None not in (rec.ratio, cell.guarantee) and rec.ratio > cell.guarantee + RATIO_TOL:
            out.mark_wrong(f"ratio {rec.ratio!r} exceeds guarantee {cell.guarantee}")
        return out
    start = cpu_clock()
    try:
        inst = instances.parse(cell.text)
        g = inst.to_graph()
        solve_start = cpu_clock()
        if cell.algorithm == "flex":
            sol, model = lp.cutting_plane_flex(g, inst.problem.flex)
        else:
            sol, model = lp.cutting_plane_bulk(g, inst.problem.scenarios)
        end = cpu_clock()
    except Exception as exc:  # a raising cell is a failed cell, not a crash
        error = f"{type(exc).__name__}: {exc}"
        return Outcome((cpu_clock() - start) * 1000.0, None, (cell.cell_id, error), error=error)
    out = Outcome(
        cell_ms=(end - start) * 1000.0,
        solve_ms=(end - solve_start) * 1000.0,
        signature=(cell.cell_id, format(round(sol.objective, 6), ".6f")),
        lp_rows=[[e.cost for e in g.edges], model.rows, sol.objective],
    )
    if not sol.separation_clean:
        out.mark_wrong("separation not clean")
    return out


def check_lp_with_scipy(outcome: Outcome) -> str:
    """Re-solve the final LP rows with HiGHS; '' when the objectives agree."""
    import numpy as np
    from scipy.optimize import linprog

    costs, rows, objective = outcome.lp_rows
    c = np.array(costs, dtype=float)
    a_ub = b_ub = None
    if rows:
        a_ub = np.zeros((len(rows), len(c)))
        for i, row in enumerate(rows):
            for var, coeff in row.terms:
                a_ub[i, var] -= coeff
        b_ub = np.array([-row.rhs for row in rows])
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=(0.0, 1.0), method="highs")
    if res.status != 0:
        return f"scipy linprog status {res.status}: {res.message}"
    if abs(res.fun - objective) > LP_OBJ_TOL:
        return f"LP objective {objective!r} != scipy {res.fun!r}"
    return ""


def run_cells(cells: list[Cell]) -> tuple[list[Outcome], float]:
    """Closed loop, one client: each cell starts when the previous ends.

    A reference slice runs before the first cell and after every cell, and
    each cell's timings are rescaled by the slowdown of the slices on either
    side of it (see cpuclock.py).  Returns the outcomes and the wall seconds
    of the loop, slices included.
    """
    wall_start = time.perf_counter()
    before = reference_slice()
    outcomes = []
    for cell in cells:
        out = run_one(cell)
        after = reference_slice()
        out.rescale(slowdown(before, after))
        outcomes.append(out)
        before = after
    return outcomes, time.perf_counter() - wall_start


def verify(cells: list[Cell], outcomes: list[Outcome], first: dict) -> None:
    """Post-loop checks, once per distinct cell: scipy re-solve of LP rows,
    and every repeat of a cell must return the answer (or the error) of its
    first run.  ``first`` maps cell id to the first signature seen.
    """
    for cell, out in zip(cells, outcomes):
        seen = first.get(cell.cell_id)
        if seen is None:
            first[cell.cell_id] = out.signature
            if cell.kind == "lp" and not out.error:
                reason = check_lp_with_scipy(out)
                if reason:
                    out.mark_wrong(reason)
        elif seen != out.signature:
            out.mark_wrong(f"answer changed between runs of {cell.cell_id}")
        out.lp_rows = []


def digest(first: dict) -> str:
    """sha256 over every distinct cell's answer, in cell-id order."""
    payload = json.dumps(sorted(first.values(), key=lambda s: s[0]), separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()
