"""LP relaxations, separation oracles and the cutting-plane driver.

The flexible-connectivity relaxation has two row families over x_e in [0,1]:

* flex cut rows: for a separating cut S and unsafe B with |B| <= q,
  sum of x over delta(S) - B  >=  p;
* capacitated rows: (p+q) * safe part + p * unsafe part of delta(S) >= p(p+q).

The bulk relaxation has one family: for each scenario (F_j, K_j) and cut S
separating one of its pairs, x(delta(S) - F_j) >= 1.

Both relaxations are solved by the package's one simplex method, the dual
simplex of ``faultnet.simplex``: the cutting-plane driver adds a model's
rows to it lazily, alternating it with a separator until no violated row
remains and re-optimising each round from the last optimal basis.  Separation works by exhaustive
sweep over canonical cuts (the polynomial-time enumeration device the desk
scale replaces) with the exact prefix rule for choosing B: a cut is violated
for some B iff it is violated for the q unsafe boundary edges of largest
fractional value.  The graph and the cut list stay fixed for a whole run.
A cut list depends only on n and the requirement pairs, so it comes from a
bounded cache with read-only entries: the flex list keyed by n and all the
pairs, and the bulk rows assembled from s-t lists keyed by n and one pair.
Each run builds one column-major bool crossing matrix (cuts x edges) and
allocates its pricing buffers once, and every round prices all cuts with a
few vector operations in those buffers, allocating nothing of cuts x edges
or cuts x unsafe size.  Those operations keep the arithmetic of a loop over
each cut's crossing edges: sums run left to right in edge-id order
(``np.add.reduce`` over the rows of a column-major array, which adds whole
columns in turn; never ``@`` or ``np.sum``, which may reorder the additions),
and the most violated cut is chosen by the loop's scan, where a later cut
wins only by more than 1e-15.  So every round picks the same row, bit for
bit, as a plain loop would.  The tests keep slow definitional checks of both
row families, over every cut and every failure set B, in
``tests/oracle_utils.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import trace
from .errors import LpInfeasible, UnsupportedParameters
from .graph import FaultGraph, guard_sweep, st_cut_masks
from .oracles import BulkScenario, FlexRequirement, Problem, uniform_pq
from .simplex import DualReoptimizer, SimplexStatus

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


Separator = Callable[[Sequence[float]], LpRow | None]


def _cutting_plane(
    g: FaultGraph, separate: Separator
) -> tuple[FractionalSolution, LinearProgramModel]:
    """Alternate dual simplex re-optimisation with ``separate`` until it
    finds no row; each round warm-starts from the last optimal basis.
    Reports its rounds, rows and pivots once, on return."""
    model = LinearProgramModel(g)
    warm = DualReoptimizer([e.cost for e in g.edges])
    for round_index in range(1, MAX_ROUNDS + 1):
        x = tuple(warm.x())
        row = separate(x)
        if row is None:
            trace.count("lp.rounds", round_index)
            trace.count("lp.rows", len(model.rows))
            trace.count("simplex.pivots", warm.pivots)
            return FractionalSolution(x, warm.objective, round_index, True), model
        if not model.add_row(row):
            raise LpInfeasible(f"separation repeated row {row.key}; numeric trouble")
        status = warm.add_row(row.terms, row.rhs)
        if status is not SimplexStatus.OPTIMAL:
            raise LpInfeasible(f"simplex returned {status}")
    raise LpInfeasible("cutting plane failed to converge")


# -- cut lists -------------------------------------------------------------------

class _CutList(NamedTuple):
    """Cuts in a fixed order, read-only: ``masks[i]`` is cut i's vertex
    mask and ``side[v, i]`` says whether vertex v lies in it."""

    masks: np.ndarray
    side: np.ndarray


def _cut_list(n: int, masks: np.ndarray) -> _CutList:
    """``masks`` with its side table, both made read-only."""
    side = np.empty((n, len(masks)), dtype=bool)
    for v in range(n):
        side[v] = (masks >> v) & 1
    masks.flags.writeable = side.flags.writeable = False
    return _CutList(masks, side)


# Bounded: at n = 20, the largest n the default enumeration budget admits,
# each cut takes 8 bytes of mask and 20 of side.  A flex entry then holds
# 2^19 - 1 cuts in 15 MB, 120 MB for all 8; an s-t entry holds 2^18 cuts in
# 7.3 MB, 235 MB for all 32.
@lru_cache(maxsize=8)
def _flex_cut_list(n: int, pairs: tuple[tuple[int, int], ...]) -> _CutList:
    """Canonical cuts separating at least one of the pairs, each once, in
    order of first appearance over the pairs in ``st_cut_masks`` order.

    One pass over the pairs, marking each listed cut in a bool array, that
    stops once every cut is listed."""
    full = (1 << n) - 1
    cut_count = (1 << (n - 1)) - 1
    listed = np.zeros(cut_count + 1, dtype=bool)  # by canonical mask
    chunks = [np.zeros(0, dtype=np.int64)]
    found = 0
    for s, t in pairs:
        masks = np.array(st_cut_masks(n, s, t), dtype=np.int64)
        canonical = np.minimum(masks, full ^ masks)
        fresh = canonical[~listed[canonical]]
        listed[fresh] = True
        chunks.append(fresh)
        found += fresh.size
        if found == cut_count:
            break
    return _cut_list(n, np.concatenate(chunks))


@lru_cache(maxsize=32)
def _st_cut_list(n: int, s: int, t: int) -> _CutList:
    """The cuts of ``st_cut_masks(n, s, t)``, in its order."""
    return _cut_list(n, np.array(st_cut_masks(n, s, t), dtype=np.int64))


def _separating_cuts(g: FaultGraph, reqs: Sequence[FlexRequirement]) -> _CutList:
    """Canonical cuts separating at least one requirement pair, each once,
    in order of first appearance over the requirements in
    ``st_cut_masks`` order: the cached, read-only list of n and the pairs.
    Separation ties break on this order."""
    guard_sweep(g.n)
    return _flex_cut_list(g.n, tuple((r.s, r.t) for r in reqs))


# -- separation: flexible connectivity ----------------------------------------

def _crossing_matrix(g: FaultGraph, side: np.ndarray) -> np.ndarray:
    """Bool (cuts x edges) matrix: row i marks the edges crossing cut i,
    whose sides are column i of ``side``.

    It is column-major, like the pricing buffer that ``np.copyto`` fills
    through it and ``_id_order_sums`` adds up."""
    u = side.take([e.u for e in g.edges], axis=0)
    return np.not_equal(u, side.take([e.v for e in g.edges], axis=0), out=u).T


def _id_order_sums(weights: np.ndarray) -> np.ndarray:
    """Row sums added left to right, as a loop over edge ids adds them.

    ``np.add.reduce`` along the rows of a column-major array adds one whole
    column at a time, in column order.  ``@`` and ``np.sum`` may reorder
    the additions and change the last bits, and so does the reduction of a
    single row, which is one contiguous run that numpy adds pairwise."""
    if weights.shape[1] == 0:
        return np.zeros(weights.shape[0])
    if weights.shape[0] == 1:
        return np.add.accumulate(weights, axis=1)[:, -1]
    return np.add.reduce(np.asfortranarray(weights), axis=1)


def _top_sums(values: np.ndarray, q: int) -> np.ndarray:
    """Per row, the sum of its q largest entries (-inf marks no entry),
    added largest first, as a loop over the row sorted by value adds them.
    Sorts ``values`` in place along its rows."""
    values.sort(axis=1)
    total = np.zeros(len(values))
    for k in range(1, min(q, values.shape[1]) + 1):
        col = values[:, -k]
        total += np.where(col == -np.inf, 0.0, col)
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


def _lp_pq(reqs: Sequence[FlexRequirement]) -> tuple[int, int]:
    """The uniform (p, q) the flex relaxation needs, else UnsupportedParameters."""
    pq = uniform_pq(reqs)
    if pq is None:
        raise UnsupportedParameters("the LP relaxation needs a uniform (p, q)")
    return pq


def _flex_separator(g: FaultGraph, reqs: Sequence[FlexRequirement]) -> Separator:
    p, q = _lp_pq(reqs)
    safe = [e.safe for e in g.edges]
    cuts = _separating_cuts(g, reqs)
    masks = cuts.masks
    crossing = _crossing_matrix(g, cuts.side)
    unsafe_cols = np.array([eid for eid in range(g.m) if not safe[eid]], dtype=np.intp)
    # Pricing buffers for the whole run.  Entries off the crossing mask stay
    # 0.0 in ``priced``, which is column-major as ``_id_order_sums`` needs.
    # ``unsafe_priced`` gets min(x_e, +inf) = x_e where unsafe edge e crosses
    # the cut and min(x_e, -inf) = -inf where it does not, as np.where would
    # give for any x but NaN, in one vectorised pass (a masked copy is
    # several times slower); its rows are then sorted in place.
    unsafe_bound = np.full((len(masks), len(unsafe_cols)), -np.inf, dtype=np.float32)
    np.copyto(unsafe_bound, np.inf, where=crossing[:, unsafe_cols])
    priced = np.zeros(crossing.shape, order="F")
    unsafe_priced = np.empty(unsafe_bound.shape)

    def separate(x: Sequence[float]) -> LpRow | None:
        xs = np.asarray(x, dtype=float)
        np.copyto(priced, xs, where=crossing)
        boundary_sum = _id_order_sums(priced)
        priced[:, unsafe_cols] = 0.0  # the next round's copy refills them
        safe_sum = _id_order_sums(priced)
        cap_value = (p + q) * safe_sum + p * (boundary_sum - safe_sum)
        best = _scan(p * (p + q) - cap_value)
        if best is not None:
            ids = crossing[best].nonzero()[0].tolist()
            terms = tuple((eid, float(p + q) if safe[eid] else float(p)) for eid in ids)
            return LpRow(key=("cap", int(masks[best])), terms=terms, rhs=float(p * (p + q)))
        # Prefix rule: remove the q unsafe edges with the largest x.
        np.minimum(xs[unsafe_cols], unsafe_bound, out=unsafe_priced)
        removed = _top_sums(unsafe_priced, q)
        best = _scan(p - (boundary_sum - removed))
        if best is None:
            return None
        ids = crossing[best].nonzero()[0].tolist()
        unsafe = sorted((-x[eid], eid) for eid in ids if not safe[eid])
        B = tuple(sorted(eid for _neg, eid in unsafe[:q]))
        terms = tuple((eid, 1.0) for eid in ids if eid not in B)
        return LpRow(key=("flex", int(masks[best]), B), terms=terms, rhs=float(p))

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
    The winner is the first violated cut in ``_separating_cuts`` order,
    replaced only by a later cut whose violation is larger by more than
    1e-15, so near-ties go to the earlier cut, which is not always the
    smallest mask.
    """
    return _flex_separator(g, reqs)(x)


def cutting_plane_flex(
    g: FaultGraph, reqs: Sequence[FlexRequirement]
) -> tuple[FractionalSolution, LinearProgramModel]:
    return _cutting_plane(g, _flex_separator(g, reqs))


# -- separation: bulk ------------------------------------------------------------

def _bulk_separator(g: FaultGraph, scenarios: Sequence[BulkScenario]) -> Separator:
    # One row per scenario, pair and s-t cut, in sweep order; a row marks
    # the crossing edges outside the scenario's failure set.
    guard_sweep(g.n)
    groups = [(j, _st_cut_list(g.n, u, v)) for j, sc in enumerate(scenarios) for u, v in sc.pairs]
    if not groups:  # no scenario, so no row
        return lambda x: None
    masks = np.concatenate([cuts.masks for _j, cuts in groups])
    row_scenario = np.repeat([j for j, _cuts in groups], [len(cuts.masks) for _j, cuts in groups])
    alive = np.ones((len(scenarios), g.m), dtype=bool)
    for j, sc in enumerate(scenarios):
        alive[j, [eid for eid in sc.fail if 0 <= eid < g.m]] = False
    crossing = _crossing_matrix(g, np.concatenate([cuts.side for _j, cuts in groups], axis=1))
    crossing &= alive[row_scenario]
    priced = np.zeros(crossing.shape, order="F")  # 0.0 off the crossing mask

    def separate(x: Sequence[float]) -> LpRow | None:
        np.copyto(priced, np.asarray(x, dtype=float), where=crossing)
        best = _scan(1.0 - _id_order_sums(priced))
        if best is None:
            return None
        ids = crossing[best].nonzero()[0].tolist()
        key = ("bulk", int(row_scenario[best]), int(masks[best]))
        return LpRow(key=key, terms=tuple((eid, 1.0) for eid in ids), rhs=1.0)

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


def require_lp_relaxation(problem: Problem) -> None:
    """Raise UnsupportedParameters unless the problem has an LP relaxation
    here: flex with a uniform (p, q), or bulk.  It reads only the
    requirements, so callers can refuse before any graph-wide work."""
    if problem.kind == "flex":
        _lp_pq(problem.flex)
    elif problem.kind != "bulk":
        raise UnsupportedParameters("no LP relaxation wired for this problem kind")


def solve_problem_lp(
    g: FaultGraph, problem: Problem
) -> tuple[FractionalSolution, LinearProgramModel]:
    require_lp_relaxation(problem)
    if problem.kind == "flex":
        return cutting_plane_flex(g, problem.flex)
    return cutting_plane_bulk(g, problem.scenarios)
