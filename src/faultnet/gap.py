"""The (1, k) integrality-gap experiment on the appendix-a construction."""

from __future__ import annotations

from dataclasses import dataclass

from .exact import exact_solve
from .graph import FaultGraph, boundary, failure_sets
from .instances import appendix_a_instance
from .lp import cutting_plane_flex, separate_flex

# The LP optimum and the exact integral optimum are reported up to this k;
# at k = 9, m = 3(k+1) = 30 is the exact budget.
SOLVE_LIMIT = 9


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


def gap_experiment(k: int) -> GapReport:
    """Integrality-gap study on the (1, k) single-pair construction.

    Certifies that the closed-form fractional vector separates clean at
    cost exactly 3(k+1); rejects every safe-edge subset smaller than
    ceil((k+1)/2) via the constructed violated cut (with all unsafe edges
    present, the most forgiving completion); and for k <= SOLVE_LIMIT also
    reports the LP optimum and the exact integral optimum.
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
    for combo in failure_sets(k + 1, need - 1):
        checked += 1
        keep_safe = {safe_ids[i] for i in combo}
        H = frozenset(all_unsafe) | keep_safe
        outside = [i for i in range(k + 1) if i not in combo]
        mask = 1  # s = vertex 0
        for i in outside:
            mask |= 1 << (2 + i)
        crossing = boundary(g, H, mask)
        # Violated for (1, k): no safe edge and fewer than k+1 in total.
        if crossing & g.safe_ids or len(crossing) >= k + 1:
            rejected_all = False
    gap_lb = None
    if rejected_all:
        integral_lb = need * (k + 1)
        gap_lb = integral_lb / frac_cost

    lp_obj = None
    integral_opt = None
    if k <= SOLVE_LIMIT:
        sol, _model = cutting_plane_flex(g, [req])
        lp_obj = sol.objective
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
