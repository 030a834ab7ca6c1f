"""LP relaxations, separation oracles and the cutting-plane driver.

The flexible-connectivity relaxation has two row families over x_e in [0,1]:

* flex cut rows: for a separating cut S and unsafe B with |B| <= q,
  sum of x over delta(S) - B  >=  p;
* capacitated rows: (p+q) * safe part + p * unsafe part of delta(S) >= p(p+q).

The bulk relaxation has one family: for each scenario (F_j, K_j) and cut S
separating one of its pairs, x(delta(S) - F_j) >= 1.

Rows are generated lazily: the driver alternates the in-repo simplex with
a separator until no violated row remains, re-optimising each round by dual
simplex from the last optimal basis.  Separation works by exhaustive
sweep over canonical cuts (the polynomial-time enumeration device the desk
scale replaces) with the exact prefix rule for choosing B: a cut is violated
for some B iff it is violated for the q unsafe boundary edges of largest
fractional value.  The graph and the cut list stay fixed for a whole run, so
each run reads every cut's boundary once, through ``graph.boundary``, into a
table that the separator then sweeps every round.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .errors import LpInfeasible
from .graph import FaultGraph, VertexCut, boundary, st_cut_masks
from .oracles import BulkScenario, FlexRequirement, Problem, violated_cuts_flex_aug
from .simplex import DualReoptimizer, SimplexStatus, solve_dense_lp

ROW_TOL = 1e-7
MAX_ROUNDS = 10_000


@dataclass(frozen=True)
class LpRow:
    """One >= constraint with a provenance key for deduplication."""

    key: tuple
    terms: tuple[tuple[int, float], ...]
    rhs: float


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


Separator = Callable[[Sequence[float]], LpRow | None]


def _crossing(g: FaultGraph, F: Iterable[int], mask: int) -> tuple[int, ...]:
    """Edges of F crossing ``mask``, in id order."""
    return tuple(sorted(boundary(g, F, mask)))


def _cutting_plane(
    g: FaultGraph, separate: Separator
) -> tuple[FractionalSolution, LinearProgramModel]:
    """Alternate dual simplex re-optimisation with ``separate`` until it
    finds no row; each round warm-starts from the last optimal basis."""
    model = LinearProgramModel(g)
    warm = DualReoptimizer([e.cost for e in g.edges])
    for round_index in range(1, MAX_ROUNDS + 1):
        x = tuple(warm.x())
        row = separate(x)
        if row is None:
            return FractionalSolution(x, warm.objective, round_index, True), model
        if not model.add_row(row):
            raise LpInfeasible(f"separation repeated row {row.key}; numeric trouble")
        status = warm.add_row(row.terms, row.rhs)
        if status is not SimplexStatus.OPTIMAL:
            raise LpInfeasible(f"simplex returned {status}")
    raise LpInfeasible("cutting plane failed to converge")


# -- separation: flexible connectivity ----------------------------------------

def _uniform_pq(reqs: Sequence[FlexRequirement]) -> tuple[int, int]:
    pqs = {(r.p, r.q) for r in reqs}
    if len(pqs) != 1:
        raise ValueError("the LP relaxation needs a uniform (p, q)")
    return next(iter(pqs))


def _separating_masks(g: FaultGraph, reqs: Sequence[FlexRequirement]) -> list[int]:
    """Canonical cuts separating at least one requirement pair, each once,
    in order of first appearance over the requirements in
    ``st_cut_masks`` order.  Separation ties break on this order."""
    full = (1 << g.n) - 1
    return list(
        dict.fromkeys(
            min(mask, full ^ mask) for r in reqs for mask in st_cut_masks(g.n, r.s, r.t)
        )
    )


def _flex_table(
    g: FaultGraph, reqs: Sequence[FlexRequirement]
) -> list[tuple[int, tuple[int, ...]]]:
    """(mask, crossing edge ids) for every cut of ``_separating_masks``."""
    return [(mask, _crossing(g, range(g.m), mask)) for mask in _separating_masks(g, reqs)]


def _flex_separator(g: FaultGraph, reqs: Sequence[FlexRequirement]) -> Separator:
    p, q = _uniform_pq(reqs)
    safe = [e.safe for e in g.edges]
    table = _flex_table(g, reqs)

    def separate(x: Sequence[float]) -> LpRow | None:
        best_cap = None
        best_flex = None
        for mask, ids in table:
            safe_sum = 0.0
            unsafe = []
            boundary_sum = 0.0
            for eid in ids:
                value = x[eid]
                boundary_sum += value
                if safe[eid]:
                    safe_sum += value
                else:
                    unsafe.append((value, eid))
            cap_value = (p + q) * safe_sum + p * (boundary_sum - safe_sum)
            cap_viol = p * (p + q) - cap_value
            if cap_viol > ROW_TOL and (best_cap is None or cap_viol > best_cap[0] + 1e-15):
                best_cap = (cap_viol, mask, ids)
            # Prefix rule: remove the q unsafe edges with the largest x.
            unsafe.sort(key=lambda t: (-t[0], t[1]))
            reduced = boundary_sum - sum(val for val, _eid in unsafe[:q])
            flex_viol = p - reduced
            if flex_viol > ROW_TOL and (best_flex is None or flex_viol > best_flex[0] + 1e-15):
                B = tuple(sorted(eid for _val, eid in unsafe[:q]))
                best_flex = (flex_viol, mask, ids, B)
        if best_cap is not None:
            _viol, mask, ids = best_cap
            terms = tuple((eid, float(p + q) if safe[eid] else float(p)) for eid in ids)
            return LpRow(key=("cap", mask), terms=terms, rhs=float(p * (p + q)))
        if best_flex is not None:
            _viol, mask, ids, B = best_flex
            terms = tuple((eid, 1.0) for eid in ids if eid not in B)
            return LpRow(key=("flex", mask, B), terms=terms, rhs=float(p))
        return None

    return separate


def separate_flex(
    g: FaultGraph, reqs: Sequence[FlexRequirement], x: Sequence[float]
) -> LpRow | None:
    """Most violated row, or None when x is feasible for the full relaxation.

    Capacitated rows are checked first across all separating cuts; if all
    hold, flex cut rows are checked with B chosen by the prefix rule (the
    q unsafe boundary edges with the largest x values).  Ties break to the
    first cut in ``_separating_masks`` order, which is not always the
    smallest mask.
    """
    return _flex_separator(g, reqs)(x)


def separate_flex_definitional(
    g: FaultGraph, reqs: Sequence[FlexRequirement], x: Sequence[float]
) -> bool:
    """Slow reference check: all cuts x all B subsets, no prefix shortcut.
    True iff no violated constraint exists."""
    p, q = _uniform_pq(reqs)
    unsafe_ids = sorted(g.unsafe_ids)
    for _mask, ids in _flex_table(g, reqs):
        safe_sum = sum(x[eid] for eid in ids if g.edges[eid].safe)
        unsafe_sum = sum(x[eid] for eid in ids if not g.edges[eid].safe)
        if (p + q) * safe_sum + p * unsafe_sum < p * (p + q) - ROW_TOL:
            return False
        for size in range(q + 1):
            for B in itertools.combinations(unsafe_ids, size):
                value = sum(x[eid] for eid in ids if eid not in B)
                if value < p - ROW_TOL:
                    return False
    return True


def cutting_plane_flex(
    g: FaultGraph, reqs: Sequence[FlexRequirement]
) -> tuple[FractionalSolution, LinearProgramModel]:
    return _cutting_plane(g, _flex_separator(g, reqs))


# -- separation: bulk ------------------------------------------------------------

def _bulk_separator(g: FaultGraph, scenarios: Sequence[BulkScenario]) -> Separator:
    # (scenario index, mask, crossing ids outside the failure set) per
    # scenario, pair and s-t cut, in sweep order.
    table = []
    for j, sc in enumerate(scenarios):
        alive = [eid for eid in range(g.m) if eid not in sc.fail]
        for u, v in sc.pairs:
            table += [(j, mask, _crossing(g, alive, mask)) for mask in st_cut_masks(g.n, u, v)]

    def separate(x: Sequence[float]) -> LpRow | None:
        best = None
        for j, mask, ids in table:
            viol = 1.0 - sum(x[eid] for eid in ids)
            if viol > ROW_TOL and (best is None or viol > best[0] + 1e-15):
                best = (viol, j, mask, ids)
        if best is None:
            return None
        _viol, j, mask, ids = best
        return LpRow(key=("bulk", j, mask), terms=tuple((eid, 1.0) for eid in ids), rhs=1.0)

    return separate


def separate_bulk(
    g: FaultGraph, scenarios: Sequence[BulkScenario], x: Sequence[float]
) -> LpRow | None:
    """Most violated scenario-cut row (x(delta(S) - F_j) >= 1), or None."""
    return _bulk_separator(g, scenarios)(x)


def cutting_plane_bulk(
    g: FaultGraph, scenarios: Sequence[BulkScenario]
) -> tuple[FractionalSolution, LinearProgramModel]:
    return _cutting_plane(g, _bulk_separator(g, scenarios))


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
) -> tuple[bool, VertexCut | None]:
    """Every violated cut of F1 must carry >= 1 unit of x outside F1."""
    F1 = frozenset(F1)
    outside = [eid for eid in range(g.m) if eid not in F1]
    for mask in violated_cuts_flex_aug(g, reqs, F1).members:
        if sum(x[eid] for eid in _crossing(g, outside, mask)) < 1.0 - ROW_TOL:
            return False, VertexCut(g.n, mask)
    return True, None
