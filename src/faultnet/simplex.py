"""Dense dual simplex for small cutting-plane models.

Every LP in the package minimises c.x over the unit box 0 <= x <= 1 with
costs c >= 0 and >= rows: the cutting-plane rounds of ``faultnet.lp``, the
fixed-row ``solve_lp`` and the covering LP of ``ring_cover_exact``.  One
method serves all three.  ``DualReoptimizer`` starts from the bound rows
x_j + s_j = 1 with the bound slacks basic, which is optimal for c >= 0, so
no phase 1 runs.  ``add_rows`` appends >= rows, each with its own surplus
basic, and restores primal feasibility by dual simplex (Lemke 1954;
Chvátal, *Linear Programming*, 1983, ch. 10).  The cutting plane adds one
row per round and keeps the last optimal tableau; ``solve_dense_lp`` adds
all its rows at once to a fresh one.

Sized for desk-scale models (tens of variables, a few hundred rows).
Pivot rule: most negative right-hand side, lowest row first, falling back
to Bland's rule after 1000 degenerate pivots; pivot tolerance 1e-9.  Fully
deterministic.  A pivot is one rank-1 update of the rows with a nonzero
entry in the pivot column; it computes the same products and differences,
rounded the same way, as eliminating those rows one at a time, so answers
do not depend on it.
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import LpUnbounded

PIVOT_TOL = 1e-9
DEGENERATE_LIMIT = 1000
MAX_ITERATIONS = 200_000


class SimplexStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


def _pivot(tab, basis, row, col):
    """Rank-1 update of the rows with a nonzero pivot-column entry."""
    tab[row, :] /= tab[row, col]
    factors = tab[:, col]
    nz = factors != 0.0
    nz[row] = False
    tab[nz] -= factors[nz, None] * tab[row]
    basis[row] = col


def solve_dense_lp(objective, rows) -> tuple[SimplexStatus, list[float], float]:
    """Minimize objective over 0 <= x <= 1 subject to sparse >=-rows.

    objective: per-variable costs, all >= 0 (else ``ValueError``).
    rows: list of (terms, rhs) with terms = [(var index, coeff), ...].

    Returns (status, x, objective value); an infeasible LP reports its
    status with x all zero and objective 0.0.
    """
    lp = DualReoptimizer(objective)
    status = lp.add_rows(rows)
    if status is not SimplexStatus.OPTIMAL:
        return status, [0.0] * lp.n, 0.0
    return status, lp.x(), lp.objective


class DualReoptimizer:
    """min c.x over 0 <= x <= 1, re-optimised as >=-rows arrive.

    The tableau starts as the bound rows x_j + s_j = 1 with the bound slacks
    basic.  With c >= 0 that basis is optimal, so phase 1 never runs.
    ``add_rows`` appends >= rows, each with its own surplus basic,
    eliminates the basic columns from them, and restores primal feasibility
    by dual simplex pivots; the basis stays dual feasible throughout.  It
    serves all three callers: the cutting plane adds one row per round, and
    ``solve_dense_lp`` adds all rows of ``solve_lp`` or of the covering LP
    at once.
    """

    def __init__(self, objective):
        c = np.asarray(objective, dtype=float)
        if (c < 0).any():
            raise ValueError("the dual simplex needs non-negative costs")
        n = c.size
        self.n = n
        # Columns: x (n) | bound slacks (n) | one surplus per added row | rhs.
        self.tab = np.hstack([np.eye(n), np.eye(n), np.ones((n, 1))])
        self.basis = list(range(n, 2 * n))
        self.z = np.concatenate([c, np.zeros(n)])
        self.objective = 0.0

    def add_row(self, terms, rhs) -> SimplexStatus:
        """Add  sum coeff * x_var >= rhs  and re-optimise in place."""
        return self.add_rows([(terms, rhs)])

    def add_rows(self, rows) -> SimplexStatus:
        """Add every (terms, rhs) row, then re-optimise once."""
        m, width = self.tab.shape
        k = len(rows)
        tab = np.zeros((m + k, width + k))
        tab[:m, : width - 1] = self.tab[:, :-1]
        tab[:m, -1] = self.tab[:, -1]
        for i, (terms, rhs) in enumerate(rows):
            # -a.x + surplus = -rhs, with the surplus basic in the new row.
            row = tab[m + i]
            for j, coeff in terms:
                row[j] -= coeff
            row[width - 1 + i] = 1.0
            row[-1] = -rhs
            row -= row[self.basis] @ tab[:m]
        self.tab = tab
        self.basis.extend(range(width - 1, width - 1 + k))
        self.z = np.concatenate([self.z, np.zeros(k)])
        return self._dual_simplex()

    def x(self) -> list[float]:
        """Values of the structural variables, with float dust clamped into the box."""
        basis = np.asarray(self.basis, dtype=np.intp)
        structural = basis < self.n
        x = np.zeros(self.n)
        x[basis[structural]] = self.tab[structural, -1]
        x[(x < 0.0) & (x > -1e-9)] = 0.0
        x[(x > 1.0) & (x < 1.0 + 1e-9)] = 1.0
        return x.tolist()

    def _dual_simplex(self) -> SimplexStatus:
        """Dual simplex pivots until the RHS is non-negative.

        Leaving row: the most negative RHS, lowest row first; after
        DEGENERATE_LIMIT degenerate pivots, Bland's rule (the infeasible row
        whose basic variable has the lowest index).  Entering column: the
        min-ratio column, lowest index first.
        """
        tab, basis = self.tab, self.basis
        degenerate = 0
        bland = False
        for _ in range(MAX_ITERATIONS):
            rhs = tab[:, -1]
            if bland:
                rows_out = (rhs < -PIVOT_TOL).nonzero()[0]
                if not rows_out.size:
                    return SimplexStatus.OPTIMAL
                row = int(min(rows_out, key=basis.__getitem__))
            else:
                row = int(rhs.argmin())
                if rhs[row] >= -PIVOT_TOL:
                    return SimplexStatus.OPTIMAL
            line = tab[row, :-1]
            cols_in = (line < -PIVOT_TOL).nonzero()[0]
            if not cols_in.size:
                return SimplexStatus.INFEASIBLE
            ratios = self.z[cols_in] / -line[cols_in]
            enter = int(cols_in[int(ratios.argmin())])
            delta = self.z[enter]
            _pivot(tab, basis, row, enter)
            self.z = self.z - delta * tab[row, :-1]
            gain = float(delta * tab[row, -1])
            self.objective += gain
            if gain <= PIVOT_TOL:
                degenerate += 1
                if degenerate >= DEGENERATE_LIMIT:
                    bland = True
            else:
                degenerate = 0
        raise LpUnbounded("simplex iteration limit hit")
