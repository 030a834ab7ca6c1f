"""LP relaxations, separation oracles, cutting-plane driver, gap experiment.

The flexible-connectivity relaxation has two row families over x_e in [0,1]:

* flex cut rows: for a separating cut S and unsafe B with |B| <= q,
  sum of x over delta(S) - B  >=  p;
* capacitated rows: (p+q) * safe part + p * unsafe part of delta(S) >= p(p+q).

The bulk relaxation has one family: for each scenario (F_j, K_j) and cut S
separating one of its pairs, x(delta(S) - F_j) >= 1.

Rows are generated lazily: the driver alternates the in-repo simplex with
the separation oracles until no violated row remains.  Separation works by
exhaustive sweep over canonical cuts (the polynomial-time enumeration device
the desk scale replaces) with the exact prefix rule for choosing B: a cut is
violated for some B iff it is violated for the q unsafe boundary edges of
largest fractional value.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import LpInfeasible
from .graph import FaultGraph, VertexCut, st_cut_masks
from .instances import appendix_a_instance
from .oracles import BulkScenario, FlexRequirement, Problem
from .simplex import SimplexStatus, solve_dense_lp

ROW_TOL = 1e-7


@dataclass(frozen=True)
class LpRow:
    """One >= constraint with a provenance key for deduplication."""

    key: tuple
    terms: tuple[tuple[int, float], ...]
    rhs: float

    def value(self, x: Sequence[float]) -> float:
        return sum(coeff * x[var] for var, coeff in self.terms)

    def violation(self, x: Sequence[float]) -> float:
        return self.rhs - self.value(x)


class LinearProgramModel:
    """Edge variables in [0, 1] with lazily accumulated cut rows."""

    def __init__(self, g: FaultGraph):
        self.g = g
        self.rows: list[LpRow] = []
        self._keys: set[tuple] = set()

    def add_row(self, row: LpRow) -> bool:
        if row.key in self._keys:
            return False
        self._keys.add(row.key)
        self.rows.append(row)
        return True

    def dump(self) -> str:
        """Plain-text model: objective line then one constraint per line
        (sense, rhs, sparse var:coeff terms)."""
        lines = [
            "min " + " ".join(f"{e.id}:{e.cost!r}" for e in self.g.edges)
        ]
        for row in self.rows:
            terms = " ".join(f"{var}:{coeff!r}" for var, coeff in row.terms)
            lines.append(f">= {row.rhs!r} {terms}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class FractionalSolution:
    """Simplex output plus the last separation pass's verdict."""

    x: tuple[float, ...]
    objective: float
    rounds: int
    separation_clean: bool


def solve_lp(model: LinearProgramModel) -> FractionalSolution:
    """Optimize the model's current working rows (no separation)."""
    g = model.g
    obj = [e.cost for e in g.edges]
    rows = [(list(r.terms), r.rhs) for r in model.rows]
    status, x, objective = solve_dense_lp(obj, rows, upper_bounds=1.0)
    if status is not SimplexStatus.OPTIMAL:
        raise LpInfeasible(f"simplex returned {status}")
    return FractionalSolution(tuple(x), objective, rounds=0, separation_clean=False)


# -- separation: flexible connectivity ----------------------------------------

def _uniform_pq(reqs: Sequence[FlexRequirement]) -> tuple[int, int]:
    pqs = {(r.p, r.q) for r in reqs}
    if len(pqs) != 1:
        raise ValueError("the LP relaxation needs a uniform (p, q)")
    return next(iter(pqs))


# The separators sweep the same masks every round, so the mask tuples are
# cached.  An entry holds up to 2^(n-1) masks, so each cache is bounded.
@lru_cache(maxsize=64)
def _st_cuts(n: int, s: int, t: int) -> tuple[int, ...]:
    """``st_cut_masks(n, s, t)`` as a tuple."""
    return tuple(st_cut_masks(n, s, t))


@lru_cache(maxsize=64)
def _canonical_separating(n: int, pairs: tuple[tuple[int, int], ...]) -> tuple[int, ...]:
    # Reads st_cut_masks, not _st_cuts: an all-pairs requirement would fill
    # the per-pair cache with masks that only this one entry needs.
    full = (1 << n) - 1
    return tuple(
        dict.fromkeys(
            min(mask, full ^ mask) for s, t in pairs for mask in st_cut_masks(n, s, t)
        )
    )


def _separating_masks(g: FaultGraph, reqs: Sequence[FlexRequirement]) -> tuple[int, ...]:
    """Canonical cuts separating at least one requirement pair, each once,
    in order of first appearance over the requirements in
    ``st_cut_masks`` order.  Separation ties break on this order."""
    return _canonical_separating(g.n, tuple((r.s, r.t) for r in reqs))


def separate_flex(
    g: FaultGraph,
    reqs: Sequence[FlexRequirement],
    x: Sequence[float],
    tol: float = ROW_TOL,
) -> LpRow | None:
    """Most violated row, or None when x is feasible for the full relaxation.

    Capacitated rows are checked first across all separating cuts; if all
    hold, flex cut rows are checked with B chosen by the prefix rule (the
    q unsafe boundary edges with the largest x values).  Ties break to the
    first cut in ``_separating_masks`` order, which is not always the
    smallest mask.
    """
    p, q = _uniform_pq(reqs)
    best_cap = None
    best_flex = None
    for mask in _separating_masks(g, reqs):
        safe_sum = 0.0
        unsafe = []
        boundary_sum = 0.0
        for e in g.edges:
            if ((mask >> e.u) ^ (mask >> e.v)) & 1:
                boundary_sum += x[e.id]
                if e.safe:
                    safe_sum += x[e.id]
                else:
                    unsafe.append((x[e.id], e.id))
        cap_value = (p + q) * safe_sum + p * (boundary_sum - safe_sum)
        cap_viol = p * (p + q) - cap_value
        if cap_viol > tol and (best_cap is None or cap_viol > best_cap[0] + 1e-15):
            best_cap = (cap_viol, mask)
        # Prefix rule: remove the q unsafe edges with the largest x.
        unsafe.sort(key=lambda t: (-t[0], t[1]))
        B = tuple(sorted(eid for _val, eid in unsafe[:q]))
        reduced = boundary_sum - sum(val for val, _eid in unsafe[:q])
        flex_viol = p - reduced
        if flex_viol > tol and (best_flex is None or flex_viol > best_flex[0] + 1e-15):
            best_flex = (flex_viol, mask, B)
    if best_cap is not None:
        _viol, mask = best_cap
        terms = []
        for e in g.edges:
            if ((mask >> e.u) ^ (mask >> e.v)) & 1:
                terms.append((e.id, float(p + q) if e.safe else float(p)))
        return LpRow(key=("cap", mask), terms=tuple(terms), rhs=float(p * (p + q)))
    if best_flex is not None:
        _viol, mask, B = best_flex
        terms = []
        for e in g.edges:
            if ((mask >> e.u) ^ (mask >> e.v)) & 1 and e.id not in B:
                terms.append((e.id, 1.0))
        return LpRow(key=("flex", mask, B), terms=tuple(terms), rhs=float(p))
    return None


def separate_flex_definitional(
    g: FaultGraph,
    reqs: Sequence[FlexRequirement],
    x: Sequence[float],
    tol: float = ROW_TOL,
) -> bool:
    """Slow reference check: all cuts x all B subsets, no prefix shortcut.
    True iff no violated constraint exists."""
    p, q = _uniform_pq(reqs)
    unsafe_ids = sorted(g.unsafe_ids)
    for mask in _separating_masks(g, reqs):
        boundary = [
            e.id for e in g.edges if ((mask >> e.u) ^ (mask >> e.v)) & 1
        ]
        safe_sum = sum(x[eid] for eid in boundary if g.edges[eid].safe)
        unsafe_sum = sum(x[eid] for eid in boundary if not g.edges[eid].safe)
        if (p + q) * safe_sum + p * unsafe_sum < p * (p + q) - tol:
            return False
        for size in range(q + 1):
            for B in itertools.combinations(unsafe_ids, size):
                value = sum(x[eid] for eid in boundary if eid not in B)
                if value < p - tol:
                    return False
    return True


def cutting_plane_flex(
    g: FaultGraph, reqs: Sequence[FlexRequirement], max_rounds: int = 10_000
) -> tuple[FractionalSolution, LinearProgramModel]:
    model = LinearProgramModel(g)
    sol = solve_lp(model)
    for round_index in range(1, max_rounds + 1):
        row = separate_flex(g, reqs, sol.x)
        if row is None:
            return (
                FractionalSolution(sol.x, sol.objective, round_index, True),
                model,
            )
        if not model.add_row(row):
            raise LpInfeasible(f"separation repeated row {row.key}; numeric trouble")
        sol = solve_lp(model)
    raise LpInfeasible("cutting plane failed to converge")


# -- separation: bulk ------------------------------------------------------------

def separate_bulk(
    g: FaultGraph,
    scenarios: Sequence[BulkScenario],
    x: Sequence[float],
    tol: float = ROW_TOL,
) -> LpRow | None:
    """Most violated scenario-cut row (x(delta(S) - F_j) >= 1), or None."""
    best = None
    for j, sc in enumerate(scenarios):
        alive = [e for e in g.edges if e.id not in sc.fail]
        for u, v in sc.pairs:
            for mask in _st_cuts(g.n, u, v):
                value = sum(
                    x[e.id]
                    for e in alive
                    if ((mask >> e.u) ^ (mask >> e.v)) & 1
                )
                viol = 1.0 - value
                if viol > tol and (best is None or viol > best[0] + 1e-15):
                    best = (viol, j, mask)
    if best is None:
        return None
    _viol, j, mask = best
    sc = scenarios[j]
    terms = tuple(
        (e.id, 1.0)
        for e in g.edges
        if e.id not in sc.fail and ((mask >> e.u) ^ (mask >> e.v)) & 1
    )
    return LpRow(key=("bulk", j, mask), terms=terms, rhs=1.0)


def cutting_plane_bulk(
    g: FaultGraph, scenarios: Sequence[BulkScenario], max_rounds: int = 10_000
) -> tuple[FractionalSolution, LinearProgramModel]:
    model = LinearProgramModel(g)
    sol = solve_lp(model)
    for round_index in range(1, max_rounds + 1):
        row = separate_bulk(g, scenarios, sol.x)
        if row is None:
            return (
                FractionalSolution(sol.x, sol.objective, round_index, True),
                model,
            )
        if not model.add_row(row):
            raise LpInfeasible(f"separation repeated row {row.key}; numeric trouble")
        sol = solve_lp(model)
    raise LpInfeasible("cutting plane failed to converge")


def solve_problem_lp(
    g: FaultGraph, problem: Problem
) -> tuple[FractionalSolution, LinearProgramModel]:
    if problem.kind == "flex":
        return cutting_plane_flex(g, problem.flex)
    if problem.kind == "bulk":
        return cutting_plane_bulk(g, problem.scenarios)
    raise ValueError("no LP relaxation wired for this problem kind")


# -- augmentation validity (fractional cover of violated cuts) --------------------

def check_augmentation_lp_validity(
    g: FaultGraph,
    reqs: Sequence[FlexRequirement],
    x: Sequence[float],
    F1: Iterable[int],
    tol: float = ROW_TOL,
) -> tuple[bool, VertexCut | None]:
    """Every violated cut of F1 must carry >= 1 unit of x outside F1."""
    from .oracles import violated_cuts_flex_aug

    F1 = frozenset(F1)
    family = violated_cuts_flex_aug(g, reqs, F1)
    for mask in family.members:
        residual = sum(
            x[e.id]
            for e in g.edges
            if e.id not in F1 and ((mask >> e.u) ^ (mask >> e.v)) & 1
        )
        if residual < 1.0 - tol:
            return False, VertexCut(g.n, mask)
    return True, None


# -- the integrality gap experiment ------------------------------------------------

@dataclass(frozen=True)
class GapReport:
    k: int
    fractional_cost: float
    separation_clean: bool
    lp_objective: float | None
    integral_opt: float | None
    safe_edges_required: int
    small_safe_candidates_rejected: bool
    candidates_checked: int
    gap_ratio_lower_bound: float | None


def paper_fractional_vector(g: FaultGraph, k: int) -> list[float]:
    """x = 1 on unsafe edges, 2/(k+1) on safe edges."""
    return [1.0 if not e.safe else 2.0 / (k + 1) for e in g.edges]


def gap_experiment(k: int, lp_limit: int = 6, exact_limit: int = 6) -> GapReport:
    """Integrality-gap study on the (1, k) single-pair construction.

    Certifies that the closed-form fractional vector separates clean at
    cost exactly 3(k+1); rejects every safe-edge subset smaller than
    ceil((k+1)/2) via the constructed violated cut (with all unsafe edges
    present, the most forgiving completion); and for small k also reports
    the LP optimum and the exact integral optimum.
    """
    inst = appendix_a_instance(k)
    g = inst.to_graph()
    req = inst.problem.flex[0]
    x = paper_fractional_vector(g, k)
    frac_cost = sum(x[e.id] * e.cost for e in g.edges)
    clean = separate_flex(g, [req], x) is None

    # Claim-level rejection: any solution with too few safe edges admits an
    # explicit violated cut, independent of which unsafe edges it keeps.
    need = (k + 2) // 2  # ceil((k+1)/2)
    safe_ids = [3 * i + 2 for i in range(k + 1)]
    all_unsafe = [eid for eid in range(g.m) if eid not in set(safe_ids)]
    rejected_all = True
    checked = 0
    for size in range(need):
        for combo in itertools.combinations(range(k + 1), size):
            checked += 1
            keep_safe = {safe_ids[i] for i in combo}
            H = frozenset(all_unsafe) | keep_safe
            outside = [i for i in range(k + 1) if i not in combo]
            mask = 1  # s = vertex 0
            for i in outside:
                mask |= 1 << (2 + i)
            bnd_safe = 0
            bnd_total = 0
            for eid in H:
                e = g.edges[eid]
                if ((mask >> e.u) ^ (mask >> e.v)) & 1:
                    bnd_total += 1
                    if e.safe:
                        bnd_safe += 1
            # Violated for (1, k): no safe edge and fewer than k+1 in total.
            if not (bnd_safe == 0 and bnd_total < k + 1):
                rejected_all = False
    gap_lb = None
    if rejected_all:
        integral_lb = need * (k + 1)
        gap_lb = integral_lb / frac_cost

    lp_obj = None
    if k <= lp_limit:
        sol, _model = cutting_plane_flex(g, [req])
        lp_obj = sol.objective
    integral_opt = None
    if k <= exact_limit:
        from .exact import exact_solve

        _sol, integral_opt = exact_solve(g, inst.problem, budget=3 * (k + 1))
    return GapReport(
        k=k,
        fractional_cost=frac_cost,
        separation_clean=clean,
        lp_objective=lp_obj,
        integral_opt=integral_opt,
        safe_edges_required=need,
        small_safe_candidates_rejected=rejected_all,
        candidates_checked=checked,
        gap_ratio_lower_bound=gap_lb,
    )
