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
each run builds one bool crossing matrix (cuts x edges) once, and every round
prices all cuts with a few vector operations on it.  Those operations keep the
arithmetic of a loop over each cut's crossing edges: sums run left to right in
edge-id order (``np.add.accumulate``, never ``@`` or ``np.sum``, which may
reorder them), and the most violated cut is chosen by the loop's scan, where a
later cut wins only by more than 1e-15.  So every round picks the same row,
bit for bit, as a plain loop would.  The definitional checks below stay on
``graph.boundary`` as independent references.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

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
    masks = np.concatenate([np.array(st_cut_masks(g.n, r.s, r.t), dtype=np.int64) for r in reqs])
    canonical = np.minimum(masks, full ^ masks)
    _values, first = np.unique(canonical, return_index=True)
    return canonical[np.sort(first)].tolist()


def _crossing_matrix(g: FaultGraph, masks: Sequence[int]) -> np.ndarray:
    """Bool (cuts x edges) matrix: row i marks the edges crossing masks[i]."""
    side = (np.array(masks, dtype=np.int64)[:, None] >> np.arange(g.n)) & 1
    u = [e.u for e in g.edges]
    v = [e.v for e in g.edges]
    return side[:, u] != side[:, v]


def _id_order_sums(weights: np.ndarray) -> np.ndarray:
    """Row sums added left to right, as a loop over edge ids adds them.

    ``@`` and ``np.sum`` may reorder the additions and change the last bits."""
    if weights.shape[1] == 0:
        return np.zeros(weights.shape[0])
    return np.add.accumulate(weights, axis=1)[:, -1]


def _top_sums(values: np.ndarray, q: int) -> np.ndarray:
    """Per row, the sum of its q largest entries (-inf marks no entry),
    added largest first, as a loop over the row sorted by value adds them."""
    top = np.sort(values, axis=1)[:, ::-1][:, :q]
    total = np.zeros(len(values))
    for col in np.where(np.isneginf(top), 0.0, top).T:
        total = total + col
    return total


def _scan(viol: np.ndarray) -> int | None:
    """Index that ``if v > ROW_TOL and v > best + 1e-15: best = v`` keeps.

    That is the first violated entry, then each later entry that beats the
    kept one by more than 1e-15; ``argmax`` could pick a later near-tie."""
    hits = (viol > ROW_TOL).nonzero()[0]
    if hits.size == 0:
        return None
    best = int(hits[0])
    while True:
        later = (viol[best + 1 :] > viol[best] + 1e-15).nonzero()[0]
        if later.size == 0:
            return best
        best += 1 + int(later[0])


def _flex_separator(g: FaultGraph, reqs: Sequence[FlexRequirement]) -> Separator:
    p, q = _uniform_pq(reqs)
    safe = [e.safe for e in g.edges]
    masks = _separating_masks(g, reqs)
    crossing = _crossing_matrix(g, masks)
    safe_crossing = crossing & np.array(safe, dtype=bool)
    unsafe_cols = np.array([eid for eid in range(g.m) if not safe[eid]], dtype=np.intp)
    unsafe_crossing = crossing[:, unsafe_cols]

    def separate(x: Sequence[float]) -> LpRow | None:
        xs = np.asarray(x, dtype=float)
        boundary_sum = _id_order_sums(np.where(crossing, xs, 0.0))
        safe_sum = _id_order_sums(np.where(safe_crossing, xs, 0.0))
        cap_value = (p + q) * safe_sum + p * (boundary_sum - safe_sum)
        best = _scan(p * (p + q) - cap_value)
        if best is not None:
            ids = crossing[best].nonzero()[0].tolist()
            terms = tuple((eid, float(p + q) if safe[eid] else float(p)) for eid in ids)
            return LpRow(key=("cap", masks[best]), terms=terms, rhs=float(p * (p + q)))
        # Prefix rule: remove the q unsafe edges with the largest x.
        removed = _top_sums(np.where(unsafe_crossing, xs[unsafe_cols], -np.inf), q)
        best = _scan(p - (boundary_sum - removed))
        if best is None:
            return None
        ids = crossing[best].nonzero()[0].tolist()
        unsafe = sorted((-x[eid], eid) for eid in ids if not safe[eid])
        B = tuple(sorted(eid for _neg, eid in unsafe[:q]))
        terms = tuple((eid, 1.0) for eid in ids if eid not in B)
        return LpRow(key=("flex", masks[best], B), terms=terms, rhs=float(p))

    return separate


def separate_flex(
    g: FaultGraph, reqs: Sequence[FlexRequirement], x: Sequence[float]
) -> LpRow | None:
    """Most violated row, or None when x is feasible for the full relaxation.

    Capacitated rows are checked first across all separating cuts; if all
    hold, flex cut rows are checked with B chosen by the prefix rule (the
    q unsafe boundary edges with the largest x values, ties to the lower
    id).  Every cut is priced at once from the run's crossing matrix: the
    boundary and safe sums add x in edge-id order, and the top-q sum adds
    each cut's q largest unsafe values, largest first, padded with 0.0.
    The winner is the first violated cut in ``_separating_masks`` order,
    replaced only by a later cut whose violation is larger by more than
    1e-15, so near-ties go to the earlier cut, which is not always the
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
    for mask in _separating_masks(g, reqs):
        ids = _crossing(g, range(g.m), mask)
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
    # One row per scenario, pair and s-t cut, in sweep order; a row marks
    # the crossing edges outside the scenario's failure set.
    keys = [
        (j, mask)
        for j, sc in enumerate(scenarios)
        for u, v in sc.pairs
        for mask in st_cut_masks(g.n, u, v)
    ]
    alive = np.array([[eid not in sc.fail for eid in range(g.m)] for sc in scenarios], dtype=bool)
    crossing = _crossing_matrix(g, [mask for _j, mask in keys])
    crossing &= alive.reshape(len(scenarios), g.m)[[j for j, _mask in keys]]

    def separate(x: Sequence[float]) -> LpRow | None:
        best = _scan(1.0 - _id_order_sums(np.where(crossing, np.asarray(x, dtype=float), 0.0)))
        if best is None:
            return None
        ids = crossing[best].nonzero()[0].tolist()
        return LpRow(key=("bulk", *keys[best]), terms=tuple((eid, 1.0) for eid in ids), rhs=1.0)

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
