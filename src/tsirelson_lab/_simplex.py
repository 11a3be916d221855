"""Exact rational simplex for small dense linear programs, with row generation.

A :class:`Tableau` is the optimal simplex tableau of

    max c.x  subject to  A x <= b, x >= 0

with all data Fractions.  ``maximize`` builds it with b >= 0, so the
origin is feasible and no phase 1 is needed, and solves it with the primal
simplex.  ``Tableau.add_row`` then appends one more constraint a.x <= beta
without starting again: the row gets its own slack column and is reduced
against the current basis (each basic variable's row is subtracted), which
leaves the reduced costs untouched, so the tableau stays dual feasible and
is primal infeasible at most in the new row.  The dual simplex restores
feasibility: the row with the most negative right-hand side leaves, and
the column with the least ratio of reduced cost to that row's negative
entry enters.  This is the textbook row-generation step of a cutting-plane
loop (Chvátal, *Linear Programming*, 1983, ch. 10).

Both loops share one pivot routine.  Each makes at most ``PIVOT_BUDGET``
pivots per row and column by its largest-change rule (Dantzig pricing in
the primal, most negative right-hand side in the dual), ties going to the
lowest index, and then falls back to Bland's rule (lowest basic or column
index), which cannot cycle.  All arithmetic is exact, so the optimum is
returned as exact rationals.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)

# largest-change pivots allowed per (rows + variables + 1) in one loop
# before Bland's rule takes over
PIVOT_BUDGET = 50


class Tableau:
    """An optimal simplex tableau that accepts further constraint rows.

    Column j < n is the variable x_j and column n + i the slack of
    constraint i.  Row i with ``rhs[i]`` expresses the basic variable
    ``basis[i]`` in the nonbasic ones, ``cost`` holds the reduced costs
    (all >= 0 at an optimum) and ``value`` the objective at the basic
    solution.  Between public calls the tableau is optimal.
    """

    def __init__(
        self,
        objective: list[Fraction],
        rows: list[list[Fraction]],
        rhs: list[Fraction],
    ):
        n = len(objective)
        m = len(rows)
        if any(len(row) != n for row in rows) or len(rhs) != m:
            raise ValueError("inconsistent LP dimensions")
        if any(b < 0 for b in rhs):
            raise ValueError("rhs must be nonnegative (origin must be feasible)")
        self.n = n
        self.rows = [list(row) + [ZERO] * m for row in rows]
        for i, row in enumerate(self.rows):
            row[n + i] = ONE
        self.rhs = [Fraction(b) for b in rhs]
        self.cost = [-Fraction(c) for c in objective] + [ZERO] * m
        self.basis = [n + i for i in range(m)]
        self.value = ZERO
        self._primal()

    @property
    def solution(self) -> tuple[Fraction, ...]:
        """The optimal x, exact."""
        x = [ZERO] * self.n
        for i, j in enumerate(self.basis):
            if j < self.n:
                x[j] = self.rhs[i]
        return tuple(x)

    def add_row(self, row: list[Fraction], rhs: Fraction) -> None:
        """Add the constraint row . x <= rhs and re-optimize.

        Raises ``ArithmeticError`` if the constraint makes the program
        infeasible (possible only for rhs < 0); the tableau is then no
        longer usable.
        """
        if len(row) != self.n:
            raise ValueError("inconsistent LP dimensions")
        for other in self.rows:
            other.append(ZERO)
        self.cost.append(ZERO)
        new = list(row) + [ZERO] * (len(self.cost) - self.n - 1) + [ONE]
        b = Fraction(rhs)
        # basic columns are unit vectors, so each factor is the new row's
        # original coefficient, and basic slacks have none
        for i, j in enumerate(self.basis):
            factor = new[j]
            if factor:
                for k, v in enumerate(self.rows[i]):
                    if v:
                        new[k] -= factor * v
                b -= factor * self.rhs[i]
        self.rows.append(new)
        self.rhs.append(b)
        self.basis.append(len(self.cost) - 1)
        self._dual()

    def _budget(self) -> int:
        return PIVOT_BUDGET * (len(self.rows) + self.n + 1)

    def _primal(self) -> None:
        pivots = 0
        budget = self._budget()
        while True:
            entering = -1
            if pivots < budget:
                most_negative = ZERO
                for j, c in enumerate(self.cost):
                    if c < most_negative:
                        most_negative = c
                        entering = j
            else:  # Bland: first improving column
                for j, c in enumerate(self.cost):
                    if c < 0:
                        entering = j
                        break
            if entering < 0:
                return

            leaving = -1
            best_ratio = None
            for i, row in enumerate(self.rows):
                coeff = row[entering]
                if coeff > 0:
                    ratio = self.rhs[i] / coeff
                    if (
                        best_ratio is None
                        or ratio < best_ratio
                        or (ratio == best_ratio and self.basis[i] < self.basis[leaving])
                    ):
                        best_ratio = ratio
                        leaving = i
            if leaving < 0:
                raise ArithmeticError("unbounded linear program")
            self._pivot(leaving, entering)
            pivots += 1

    def _dual(self) -> None:
        pivots = 0
        budget = self._budget()
        while True:
            leaving = -1
            if pivots < budget:
                most_negative = ZERO
                for i, b in enumerate(self.rhs):
                    if b < most_negative:
                        most_negative = b
                        leaving = i
            else:  # Bland: the infeasible row with the lowest basic variable
                for i, b in enumerate(self.rhs):
                    if b < 0 and (leaving < 0 or self.basis[i] < self.basis[leaving]):
                        leaving = i
            if leaving < 0:
                return

            entering = -1
            best_ratio = None
            for j, coeff in enumerate(self.rows[leaving]):
                if coeff < 0:
                    ratio = self.cost[j] / -coeff
                    if best_ratio is None or ratio < best_ratio:
                        best_ratio = ratio
                        entering = j
            if entering < 0:
                raise ArithmeticError("infeasible linear program")
            self._pivot(leaving, entering)
            pivots += 1

    def _pivot(self, leaving: int, entering: int) -> None:
        pivot_row = self.rows[leaving]
        nonzero = [j for j, v in enumerate(pivot_row) if v]
        pivot = pivot_row[entering]
        if pivot != 1:
            for j in nonzero:
                pivot_row[j] /= pivot
            self.rhs[leaving] /= pivot
        b = self.rhs[leaving]
        for i, row in enumerate(self.rows):
            factor = row[entering]
            if factor and i != leaving:
                for j in nonzero:
                    row[j] -= factor * pivot_row[j]
                self.rhs[i] -= factor * b
        factor = self.cost[entering]
        if factor:
            for j in nonzero:
                self.cost[j] -= factor * pivot_row[j]
            self.value -= factor * b
        self.basis[leaving] = entering


def maximize(
    objective: list[Fraction],
    rows: list[list[Fraction]],
    rhs: list[Fraction],
) -> Tableau:
    """Maximize objective . x over {x >= 0 : rows x <= rhs} exactly.

    Requires rhs >= 0. Raises if the program is unbounded (callers are
    expected to include box constraints that prevent this).  The returned
    optimal tableau carries ``value`` and ``solution`` and takes further
    constraints with ``add_row``.
    """
    return Tableau(objective, rows, rhs)
