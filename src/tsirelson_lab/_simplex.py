"""Exact simplex for small linear programs, with row generation.

A :class:`Tableau` is the optimal simplex tableau of

    max c.x  subject to  A x <= b, x >= 0

with integer data.  ``maximize`` builds it with b >= 0, so the origin is
feasible and no phase 1 is needed, and solves it with the primal simplex.
``Tableau.add_row`` then appends one more constraint a.x <= beta without
starting again: the row gets its own basic slack and is reduced against
the current basis, which leaves the reduced costs untouched, so the
tableau stays dual feasible and is primal infeasible at most in the new
row.  The dual simplex restores feasibility: the row with the most
negative right-hand side leaves, and the column with the least ratio of
reduced cost to that row's negative entry enters.  This is the textbook
row-generation step of a cutting-plane loop (Chvátal, *Linear
Programming*, 1983, ch. 10).

``Tableau.set_objective`` changes the objective instead.  The rows and the
basis do not depend on it, so the basis stays primal feasible; with c_B
the new costs of the basic variables, the stored reduced costs become
sum_i c_B[i] * row_i - d * c and the objective sum_i c_B[i] * rhs_i, both
integers, and the primal simplex re-optimizes from there.  The first
solve is this step on the basis of all slacks.

Condensed layout.  Variable j < n is x_j and variable n + i the slack of
constraint i.  Only the n nonbasic columns are stored (Tucker's condensed
tableau, Chvátal's dictionaries in ch. 2, lrs in Avis 2000): column k is
variable ``nonbasic[k]``, and a basic variable's unit column is implicit.
A cutting plane adds a basic slack per cut, so a pivot costs O(rows * n)
entries, not O(rows * (n + rows)).

Integer arithmetic.  The data are ints (rational data are scaled first
by ``seqvec.scaled_integers``; anything else raises ``TypeError``, as a
``Fraction`` would floor-divide silently below).  The tableau kept in
memory is d times the true tableau (right-hand sides, reduced costs and
objective included), where d > 0 is the determinant of the current basis
matrix B.  Every stored entry is then an entry of adj(B) times integer
data, so an integer.  A pivot on stored entry p leaves the pivot row as it
is and replaces every other entry a by

    (p * a - f * r) // d,

with f the entry of a's row in the pivot column and r the entry of the
pivot row in a's column; then d becomes p.  The new entry is the
determinant of the new basis times a true tableau entry, an integer, so
the division is exact (Edmonds, *J. Res. NBS* 71B, 1967; Bareiss,
*Math. Comp.* 22, 1968).  A dual simplex pivot is negative; the pivot row
is negated first (s = -1, else s = 1), which keeps d positive.  The
leaving variable takes the entering column: the same update on its
implicit column s * d * e_leaving gives -f * s in every other row and in
the reduced costs, and s * d in the pivot row.  Appending a row
multiplies it by d and subtracts the basic rows, with no division.
Ratios are compared by cross-multiplication, and values leave as
``Fraction`` only through ``value``, ``solution`` and ``cost``.

The primal and the dual simplex are one loop with two pivot choices.
Each makes at most ``PIVOT_BUDGET`` pivots per row and column by its
largest-change rule (Dantzig pricing in the primal, most negative
right-hand side in the dual, ties to the lowest row), and then falls back
to Bland's rule, which cannot cycle.  Every other tie goes to the lowest
variable id, never to a column position, which changes with each pivot.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional

# largest-change pivots allowed per (rows + variables + 1) in one loop
# before Bland's rule takes over
PIVOT_BUDGET = 50


class Tableau:
    """An optimal simplex tableau that accepts further constraint rows.

    Row i of ``rows`` with ``rhs[i]`` expresses the basic variable
    ``basis[i]`` in the nonbasic ones: entry k, like ``reduced[k]``, is
    for variable ``nonbasic[k]``; basic columns are not stored.
    ``objective`` is the objective at the basic solution.  All are times
    the basis determinant ``denominator`` (see the module docstring).
    Between public calls the tableau is optimal.
    """

    def __init__(self, objective: list[int], rows: list[list[int]], rhs: list[int]):
        n = len(objective)
        if any(len(row) != n for row in rows) or len(rhs) != len(rows):
            raise ValueError("inconsistent LP dimensions")
        if any(b < 0 for b in rhs):
            raise ValueError("rhs must be nonnegative (origin must be feasible)")
        self.n = n
        self.reduced = [0] * n
        self.objective = 0
        self.denominator = 1
        self.rows: list[list[int]] = []
        self.rhs: list[int] = []
        self.basis: list[int] = []
        self.nonbasic = list(range(n))
        for row, b in zip(rows, rhs):
            self._append(row, b)
        self._price(objective)
        self._optimize(self._primal_choice)

    @property
    def value(self) -> Fraction:
        """The optimal objective value, exact."""
        return Fraction(self.objective, self.denominator)

    def numerators(self) -> list[int]:
        """The optimal x as integers over ``denominator``."""
        x = [0] * self.n
        for i, j in enumerate(self.basis):
            if j < self.n:
                x[j] = self.rhs[i]
        return x

    @property
    def solution(self) -> tuple[Fraction, ...]:
        """The optimal x, exact."""
        return tuple(Fraction(v, self.denominator) for v in self.numerators())

    @property
    def cost(self) -> list[Fraction]:
        """The reduced costs by variable id; a slack's is its row's dual price."""
        reduced = dict(zip(self.nonbasic, self.reduced))
        return [Fraction(reduced.get(j, 0), self.denominator) for j in range(self.n + len(self.rows))]

    def add_row(self, row: list[int], rhs: int) -> None:
        """Add the constraint row . x <= rhs and re-optimize.

        Raises ``ArithmeticError`` if the constraint makes the program
        infeasible (possible only for rhs < 0); the tableau is then no
        longer usable.
        """
        if len(row) != self.n:
            raise ValueError("inconsistent LP dimensions")
        self._append(row, rhs)
        self._optimize(self._dual_choice)

    def set_objective(self, objective: list[int]) -> None:
        """Replace the objective with ``objective`` . x and re-optimize.

        The constraints are unchanged, so the current basis stays primal
        feasible; only the reduced costs and the objective value are
        rebuilt from it before the primal simplex runs.
        """
        self._price(objective)
        self._optimize(self._primal_choice)

    def _price(self, objective: list[int]) -> None:
        """Make ``objective`` the objective: its reduced costs and value at the current basis."""
        if len(objective) != self.n:
            raise ValueError("inconsistent LP dimensions")
        if any(type(c) is not int for c in objective):
            raise TypeError(f"objective {objective!r} is not all ints")
        d = self.denominator
        reduced = [-d * objective[j] if j < self.n else 0 for j in self.nonbasic]
        value = 0
        for i, j in enumerate(self.basis):
            if j < self.n and objective[j]:
                reduced = [r + objective[j] * v for r, v in zip(reduced, self.rows[i])]
                value += objective[j] * self.rhs[i]
        self.reduced = reduced
        self.objective = value

    def _append(self, a: list[int], b: int) -> None:
        """Append a constraint with a basic slack, reduced against the basis."""
        if any(type(v) is not int for v in (*a, b)):
            raise TypeError(f"row {a!r} <= {b!r} is not all ints")
        d = self.denominator
        # slacks have no coefficient in a; subtracting a's coefficient times
        # each basic row clears the basic columns, d times unit vectors
        new = [d * a[j] if j < self.n else 0 for j in self.nonbasic]
        b *= d
        for i, j in enumerate(self.basis):
            if j < self.n and a[j]:
                new = [w - a[j] * v for w, v in zip(new, self.rows[i])]
                b -= a[j] * self.rhs[i]
        self.basis.append(self.n + len(self.rows))
        self.rows.append(new)
        self.rhs.append(b)

    def _optimize(self, choose: Callable[[bool], Optional[tuple[int, int]]]) -> None:
        """Pivot on ``choose(largest_change)`` until it returns None.

        ``largest_change`` is true for the first ``PIVOT_BUDGET`` pivots
        per row and column, and false (Bland's rule) after them.
        """
        budget = PIVOT_BUDGET * (len(self.rows) + self.n + 1)
        pivots = 0
        while (choice := choose(pivots < budget)) is not None:
            self._pivot(*choice)
            pivots += 1

    def _primal_choice(self, largest_change: bool) -> Optional[tuple[int, int]]:
        """(leaving, entering) of a primal pivot, or None at an optimum."""
        rows, rhs, basis = self.rows, self.rhs, self.basis
        # (reduced cost, variable id, column) of each improving column
        improving = [(c, j, k) for k, (c, j) in enumerate(zip(self.reduced, self.nonbasic)) if c < 0]
        if not improving:
            return None
        # Dantzig: the most negative reduced cost; Bland: the lowest id
        entering = min(improving, key=None if largest_change else lambda t: t[1])[2]
        leaving = -1
        for i, row in enumerate(rows):
            coeff = row[entering]
            # rhs[i] / coeff against the least ratio so far
            if coeff > 0 and (leaving < 0 or (rhs[i] * rows[leaving][entering], basis[i])
                              < (rhs[leaving] * coeff, basis[leaving])):
                leaving = i
        if leaving < 0:
            raise ArithmeticError("unbounded linear program")
        return leaving, entering

    def _dual_choice(self, largest_change: bool) -> Optional[tuple[int, int]]:
        """(leaving, entering) of a dual pivot, or None once primal feasible."""
        rhs, basis, reduced = self.rhs, self.basis, self.reduced
        if largest_change:  # the first most negative basic value
            least = min(rhs, default=0)
            leaving = rhs.index(least) if least < 0 else -1
        else:  # Bland: the infeasible row with the lowest basic variable
            leaving = min(((basis[i], i) for i, b in enumerate(rhs) if b < 0), default=(0, -1))[1]
        if leaving < 0:
            return None
        entering = -1
        row, nonbasic = self.rows[leaving], self.nonbasic
        for j, coeff in enumerate(row):
            # reduced[j] / -coeff against the least ratio so far
            if coeff < 0 and (entering < 0 or (reduced[j] * row[entering], nonbasic[entering])
                              > (reduced[entering] * coeff, nonbasic[j])):
                entering = j
        if entering < 0:
            raise ArithmeticError("infeasible linear program")
        return leaving, entering

    def _pivot(self, leaving: int, entering: int) -> None:
        rows, rhs = self.rows, self.rhs
        pivot_row = rows[leaving]
        p = pivot_row[entering]
        s = 1
        if p < 0:
            pivot_row[:] = [-v for v in pivot_row]
            rhs[leaving] = -rhs[leaving]
            p, s = -p, -1
        d = self.denominator
        b = rhs[leaving]
        # the leaving variable takes the entering column (module docstring)
        for i, row in enumerate(rows):
            if i == leaving:
                continue
            f = row[entering]
            if f:
                rows[i] = [(p * v - f * r) // d for v, r in zip(row, pivot_row)]
                rows[i][entering] = -f * s
                rhs[i] = (p * rhs[i] - f * b) // d
            elif p != d:
                rows[i] = [p * v // d for v in row]
                rhs[i] = p * rhs[i] // d
        f = self.reduced[entering]
        self.reduced[:] = [(p * v - f * r) // d for v, r in zip(self.reduced, pivot_row)]
        self.reduced[entering] = -f * s
        pivot_row[entering] = s * d
        self.objective = (p * self.objective - f * b) // d
        self.denominator = p
        self.basis[leaving], self.nonbasic[entering] = self.nonbasic[entering], self.basis[leaving]


def maximize(objective: list[int], rows: list[list[int]], rhs: list[int]) -> Tableau:
    """Maximize objective . x over {x >= 0 : rows x <= rhs} exactly.

    Requires int data and rhs >= 0.  Raises if the program is unbounded
    (callers are expected to include box constraints that prevent this).
    The returned optimal tableau carries ``value``, ``solution`` and
    ``cost``, takes further constraints with ``add_row`` and new
    objectives with ``set_objective``.
    """
    return Tableau(objective, rows, rhs)
