"""Dense simplex for small cutting-plane models: a cold two-phase solver
and a warm dual re-optimiser.

``solve_dense_lp`` solves  min c.x  subject to  A x >= b,  0 <= x <= ub  in
tableau form from scratch.  It is the reference: ``solve_lp`` and
``ring_cover_exact`` call it.  Sized for desk-scale models (tens of
variables, a few hundred rows).  Pivot rule: Dantzig with lowest-index
ties, falling back to Bland's rule after 1000 degenerate pivots; pivot
tolerance 1e-9.  Fully deterministic.

The tableau is allocated once, artificial columns included.  A pivot is one
rank-1 update of the rows with a nonzero entry in the pivot column; it
computes the same products and differences, rounded the same way, as
eliminating those rows one at a time, so answers do not depend on it.

``DualReoptimizer`` serves the cutting-plane loop, whose LP only ever
gains >= rows over the box 0 <= x <= 1 with costs >= 0.  It keeps the last
optimal tableau and basis, appends each new row with its own surplus basic,
and re-optimises by dual simplex (Lemke 1954; Chvátal, *Linear
Programming*, 1983, ch. 10), so no round repeats phase 1 or the earlier
rows.
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


def _basic_x(tab, basis, ubs) -> list[float]:
    """Values of the structural variables, with float dust clamped into the box."""
    x = [0.0] * len(ubs)
    for i, bc in enumerate(basis):
        if bc < len(ubs):
            x[bc] = float(tab[i, -1])
    for j, ub in enumerate(ubs):
        if x[j] < 0 and x[j] > -1e-9:
            x[j] = 0.0
        if ub is not None and x[j] > ub and x[j] < ub + 1e-9:
            x[j] = ub
    return x


def solve_dense_lp(
    objective,
    rows,
    upper_bounds=1.0,
) -> tuple[SimplexStatus, list[float], float]:
    """Minimize objective subject to sparse >=-rows and box constraints.

    objective: per-variable costs.
    rows: list of (terms, rhs) with terms = [(var index, coeff), ...].
    upper_bounds: scalar or per-variable upper bound (None entry = free up).

    Returns (status, x, objective value); raises nothing, reports status.
    """
    n = len(objective)
    if isinstance(upper_bounds, (int, float)) or upper_bounds is None:
        ubs = [upper_bounds] * n
    else:
        ubs = list(upper_bounds)
    bounded = [j for j in range(n) if ubs[j] is not None]

    m_ge = len(rows)
    m_ub = len(bounded)
    m = m_ge + m_ub

    # Columns: x (n) | surplus/slack for >= rows (m_ge) | ub slacks (m_ub)
    # | artificials | rhs.  Row i owns column n + i: a surplus (-1) for a
    # >= row, a slack (+1) for a bound row.  Rows with b < 0 are negated, so
    # the own column reads +1, and starts the basis, exactly where a row is
    # a flipped >= row or an unflipped bound row; every other row starts on
    # an artificial column, placed after the real columns in row order.
    total = n + m_ge + m_ub
    b = np.zeros(m)
    for i, (_terms, rhs) in enumerate(rows):
        b[i] = rhs
    for k, j in enumerate(bounded):
        b[m_ge + k] = ubs[j]
    flip = b < 0
    art_rows = np.flatnonzero((np.arange(m) < m_ge) != flip)
    tab = np.zeros((m, total + len(art_rows) + 1))
    for i, (terms, _rhs) in enumerate(rows):
        for j, coeff in terms:
            tab[i, j] += coeff
        tab[i, n + i] = -1.0  # surplus
    for k, j in enumerate(bounded):
        i = m_ge + k
        tab[i, j] = 1.0
        tab[i, n + i] = 1.0  # slack
    tab[flip, :total] *= -1.0
    b[flip] *= -1.0
    tab[:, -1] = b
    basis = list(range(n, total))
    for k, i in enumerate(art_rows):
        tab[i, total + k] = 1.0
        basis[i] = total + k

    def run_phase(tab, basis, c_full):
        """Optimize c_full over the current tableau in place."""
        # Reduced costs row kept separately.
        z = c_full.copy()
        obj = 0.0
        for i, bc in enumerate(basis):
            if c_full[bc] != 0.0:
                z -= c_full[bc] * tab[i, :-1]
                obj += c_full[bc] * tab[i, -1]
        degenerate = 0
        bland = False
        for _ in range(MAX_ITERATIONS):
            if bland:
                negative = (z < -PIVOT_TOL).nonzero()[0]
                enter = int(negative[0]) if negative.size else None
            else:
                j_min = int(z.argmin())
                enter = j_min if z[j_min] < -PIVOT_TOL else None
            if enter is None:
                return obj, z
            # Ratio test; argmin takes the first minimum, i.e. the lowest row.
            col = tab[:, enter]
            rows_in = (col > PIVOT_TOL).nonzero()[0]
            if not rows_in.size:
                raise LpUnbounded("unbounded direction in simplex")
            ratios = tab[rows_in, -1] / col[rows_in]
            k = int(ratios.argmin())
            theta, row = ratios[k], int(rows_in[k])
            delta = z[enter]
            _pivot(tab, basis, row, enter)
            z = z - delta * tab[row, :-1]
            new_obj = obj + theta * delta
            if abs(new_obj - obj) <= PIVOT_TOL:
                degenerate += 1
                if degenerate >= DEGENERATE_LIMIT:
                    bland = True
            else:
                degenerate = 0
            obj = new_obj
        raise LpUnbounded("simplex iteration limit hit")

    # Phase 1: drive artificials to zero.
    if art_rows.size:
        c1 = np.zeros(tab.shape[1] - 1)
        c1[total:] = 1.0
        obj1, _ = run_phase(tab, basis, c1)
        if obj1 > 1e-7:
            return SimplexStatus.INFEASIBLE, [0.0] * n, 0.0
        # Pivot remaining artificials out of the basis where possible.
        for i in range(m):
            if basis[i] >= total:
                real = np.flatnonzero(np.abs(tab[i, :total]) > PIVOT_TOL)
                if real.size:
                    _pivot(tab, basis, i, int(real[0]))
                # Else a redundant row; leave the zero-valued artificial basic.
        # Freeze artificial columns at zero.
        tab[:, total:-1] = 0.0

    # Phase 2.
    c2 = np.zeros(tab.shape[1] - 1)
    c2[:n] = objective
    try:
        obj2, _ = run_phase(tab, basis, c2)
    except LpUnbounded:
        return SimplexStatus.UNBOUNDED, [0.0] * n, float("-inf")

    return SimplexStatus.OPTIMAL, _basic_x(tab, basis, ubs), float(obj2)


class DualReoptimizer:
    """min c.x over 0 <= x <= 1, re-optimised as >=-rows arrive one by one.

    The tableau starts as the bound rows x_j + s_j = 1 with the bound slacks
    basic.  With c >= 0 that basis is optimal, so phase 1 never runs.
    ``add_row`` appends a >= row with its own surplus basic, eliminates the
    basic columns from it, and restores primal feasibility by dual simplex
    pivots; the basis stays dual feasible throughout.
    """

    def __init__(self, objective):
        c = np.asarray(objective, dtype=float)
        if (c < 0).any():
            raise ValueError("the warm start needs non-negative costs")
        n = c.size
        self.n = n
        # Columns: x (n) | bound slacks (n) | one surplus per added row | rhs.
        self.tab = np.hstack([np.eye(n), np.eye(n), np.ones((n, 1))])
        self.basis = list(range(n, 2 * n))
        self.z = np.concatenate([c, np.zeros(n)])
        self.objective = 0.0

    def add_row(self, terms, rhs) -> SimplexStatus:
        """Add  sum coeff * x_var >= rhs  and re-optimise in place."""
        m, width = self.tab.shape
        tab = np.zeros((m + 1, width + 1))
        tab[:m, : width - 1] = self.tab[:, :-1]
        tab[:m, -1] = self.tab[:, -1]
        # -a.x + surplus = -rhs, with the surplus basic in the new row.
        row = tab[m]
        for j, coeff in terms:
            row[j] -= coeff
        row[width - 1] = 1.0
        row[-1] = -rhs
        row -= row[self.basis] @ tab[:m]
        self.tab = tab
        self.basis.append(width - 1)
        self.z = np.append(self.z, 0.0)
        return self._dual_simplex()

    def x(self) -> list[float]:
        return _basic_x(self.tab, self.basis, [1.0] * self.n)

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
