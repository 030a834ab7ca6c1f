"""Dense dual simplex for small cutting-plane models.

Every LP in the package minimises c.x over the unit box 0 <= x <= 1 with
costs c >= 0 and >= rows: the cutting-plane rounds of ``faultnet.lp`` and
the covering LP of ``ring_cover_exact``.  One method serves both.
``DualReoptimizer`` starts from the bound rows x_j + s_j = 1 with the bound
slacks basic, which is optimal for c >= 0, so no phase 1 runs.  ``add_rows`` appends >= rows, each with its own surplus
basic, and restores primal feasibility by dual simplex (Lemke 1954;
Chvátal, *Linear Programming*, 1983, ch. 10).  The cutting plane adds one
row per round and keeps the last optimal tableau; ``solve_dense_lp`` adds
all the covering LP's rows at once to a fresh one.

Sized for desk-scale models (tens of variables, a few hundred rows).
Pivot rule: most negative right-hand side, lowest row first, falling back
to Bland's rule after 1000 degenerate pivots; pivot tolerance 1e-9.  Fully
deterministic.  The reduced costs are the tableau's last row, the z row,
so a pivot updates them with the constraint rows.  A pivot is one masked
rank-1 update of the rows with a nonzero entry in the pivot column; it
computes the same products and differences, rounded the same way, as
eliminating those rows one at a time, so answers do not depend on it.  The
rows with a zero entry are not written, so their signed zeros stay: a row
divided by a negative pivot holds -0.0 entries, and its rhs reaches ``x``.
"""

from __future__ import annotations

import enum

import numpy as np

from . import trace
from .errors import LpUnbounded

PIVOT_TOL = 1e-9
DEGENERATE_LIMIT = 1000
MAX_ITERATIONS = 200_000


class SimplexStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


def _pivot(tab, basis, row, col):
    """Divide the pivot row by its pivot entry, then subtract factor * pivot
    row from every other row whose pivot-column entry (its factor) is
    nonzero, the z row included, in one masked rank-1 update.

    A row with a zero factor is not written.  Subtracting 0 * pivot row
    from it would turn its -0.0 entries into +0.0 wherever the pivot row is
    negative, and a -0.0 in the rhs column reaches ``x``."""
    tab[row, :] /= tab[row, col]
    factors = tab[:, col]
    nz = factors != 0.0
    nz[row] = False
    np.subtract(tab, np.multiply.outer(factors, tab[row]), out=tab, where=nz[:, None])
    basis[row] = col


def solve_dense_lp(objective, rows) -> tuple[SimplexStatus, list[float], float]:
    """Minimize objective over 0 <= x <= 1 subject to sparse >=-rows.

    objective: per-variable costs, all >= 0 (else ``ValueError``).
    rows: list of (terms, rhs) with terms = [(var index, coeff), ...].

    Returns (status, x, objective value); an infeasible LP reports its
    status with x all zero and objective 0.0.  Reports its pivots as
    ``simplex.pivots``.
    """
    lp = DualReoptimizer(objective)
    status = lp.add_rows(rows)
    trace.count("simplex.pivots", lp.pivots)
    if status is not SimplexStatus.OPTIMAL:
        return status, [0.0] * lp.n, 0.0
    return status, lp.x(), lp.objective


class DualReoptimizer:
    """min c.x over 0 <= x <= 1, re-optimised as >=-rows arrive.

    The tableau starts as the bound rows x_j + s_j = 1 with the bound slacks
    basic, above the z row: the reduced costs, c under x and 0.0 under the
    slacks and the rhs.  With c >= 0 that basis is optimal, so phase 1
    never runs.  ``add_rows`` appends >= rows, each with its own surplus
    basic, eliminates the basic columns from them, and restores primal
    feasibility by dual simplex pivots; the basis stays dual feasible
    throughout.  It serves both callers: the cutting plane adds one row per
    round, and ``solve_dense_lp`` adds all rows of the covering LP at once.  ``pivots`` counts the pivots made so far,
    for the callers to report once per run.

    A pivot updates the z row as it updates any other row, so a pivot whose
    entering reduced cost is zero leaves the z row untouched, where a
    separate z - 0 * pivot row could flip the sign of a zero in it.  Only
    that sign differs, and it never reaches the rhs, ``x``, the ratio test
    or ``objective``.  The z row is never a pivot row, so no other row
    reads it.  The ratio test divides its entries by positive ones and
    compares the quotients, and +0.0 and -0.0 compare equal.  A zero
    entering cost adds a zero gain to ``objective``, a running sum from
    +0.0 that a zero of either sign leaves as it is.  And a later pivot
    that does update the z row makes z_j - p, which is -p for any nonzero
    product p, whatever the sign of a zero z_j.  The z row's rhs entry
    carries minus the objective and is never read.
    """

    def __init__(self, objective):
        c = np.asarray(objective, dtype=float)
        if (c < 0).any():
            raise ValueError("the dual simplex needs non-negative costs")
        n = c.size
        self.n = n
        # Columns: x (n) | bound slacks (n) | one surplus per added row | rhs.
        # Rows: one per basic variable, then the z row.
        self.tab = tab = np.zeros((n + 1, 2 * n + 1))
        bounds = tab[:n].reshape(-1)  # row j starts at j * (2n + 1)
        bounds[:: 2 * n + 2] = 1.0  # x_j
        bounds[n :: 2 * n + 2] = 1.0  # s_j
        tab[:n, -1] = 1.0
        tab[-1, :n] = c
        self.basis = list(range(n, 2 * n))
        self.objective = 0.0
        self.pivots = 0

    def add_row(self, terms, rhs) -> SimplexStatus:
        """Add  sum coeff * x_var >= rhs  and re-optimise in place."""
        return self.add_rows([(terms, rhs)])

    def add_rows(self, rows) -> SimplexStatus:
        """Add every (terms, rhs) row, then re-optimise once.

        The constraint rows are copied to the top of the new tableau and the
        z row to its bottom, so ``tab[:m]``, which the elimination product
        reads, has the shape, strides and start it would have without the z
        row: OpenBLAS results depend on that layout."""
        old = self.tab
        m = len(self.basis)
        width = old.shape[1]
        k = len(rows)
        tab = np.zeros((m + k + 1, width + k))
        tab[:m, : width - 1] = old[:m, :-1]
        tab[:m, -1] = old[:m, -1]
        tab[-1, : width - 1] = old[-1, :-1]
        tab[-1, -1] = old[-1, -1]
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
        return self._dual_simplex()

    def x(self) -> list[float]:
        """Values of the structural variables, with float dust clamped into
        the box: (-1e-9, 0) goes to 0.0, (1, 1 + 1e-9) to 1.0, and -0.0 is
        kept."""
        x = [0.0] * self.n
        for col, value in zip(self.basis, self.tab[:-1, -1].tolist()):
            if col < self.n:
                if -1e-9 < value < 0.0:
                    value = 0.0
                elif 1.0 < value < 1.0 + 1e-9:
                    value = 1.0
                x[col] = value
        return x

    def _dual_simplex(self) -> SimplexStatus:
        """Dual simplex pivots until the RHS is non-negative.

        Leaving row: the most negative RHS, lowest row first; after
        DEGENERATE_LIMIT degenerate pivots, Bland's rule (the infeasible row
        whose basic variable has the lowest index).  Entering column: the
        min-ratio column, lowest index first.
        """
        tab, basis = self.tab, self.basis
        rhs = tab[:-1, -1]
        z = tab[-1, :-1]
        degenerate = 0
        bland = False
        for pivots in range(MAX_ITERATIONS):
            if bland:
                rows_out = (rhs < -PIVOT_TOL).nonzero()[0]
                if not rows_out.size:
                    break
                row = int(min(rows_out, key=basis.__getitem__))
            else:
                row = int(rhs.argmin())
                if rhs[row] >= -PIVOT_TOL:
                    break
            line = tab[row, :-1]
            cols_in = (line < -PIVOT_TOL).nonzero()[0]
            if not cols_in.size:
                self.pivots += pivots
                return SimplexStatus.INFEASIBLE
            ratios = z[cols_in] / -line[cols_in]
            enter = int(cols_in[int(ratios.argmin())])
            delta = z[enter]
            _pivot(tab, basis, row, enter)
            gain = float(delta * tab[row, -1])
            self.objective += gain
            if gain <= PIVOT_TOL:
                degenerate += 1
                if degenerate >= DEGENERATE_LIMIT:
                    bland = True
            else:
                degenerate = 0
        else:
            raise LpUnbounded("simplex iteration limit hit")
        self.pivots += pivots
        return SimplexStatus.OPTIMAL
