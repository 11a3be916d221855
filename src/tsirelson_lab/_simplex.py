"""Exact simplex for small dense linear programs, with row generation.

A :class:`Tableau` is the optimal simplex tableau of

    max c.x  subject to  A x <= b, x >= 0

with integer data.  ``maximize`` builds it with b >= 0, so the origin is
feasible and no phase 1 is needed, and solves it with the primal simplex.
``Tableau.add_row`` then appends one more constraint a.x <= beta without
starting again: the row gets its own slack column and is reduced against
the current basis (each basic variable's row is subtracted), which leaves
the reduced costs untouched, so the tableau stays dual feasible and is
primal infeasible at most in the new row.  The dual simplex restores
feasibility: the row with the most negative right-hand side leaves, and
the column with the least ratio of reduced cost to that row's negative
entry enters.  This is the textbook row-generation step of a cutting-plane
loop (Chvátal, *Linear Programming*, 1983, ch. 10).

Integer arithmetic.  The data are ints (rational data are scaled first
by ``seqvec.scaled_integers``; anything else raises ``TypeError``, as a
``Fraction`` would floor-divide silently below), and a row may stand for
itself over a positive denominator.  The tableau kept in memory is d
times the true tableau (right-hand sides, reduced costs and objective
included), where d > 0 is the determinant of the current basis matrix B.
Every stored entry is then an entry of adj(B) times integer data, so an
integer.  A pivot on stored entry p leaves the pivot row as it is and
replaces every other entry a by

    (p * a - f * r) // d,

with f the entry of a's row in the pivot column and r the entry of the
pivot row in a's column; then d becomes p.  The new entry is the
determinant of the new basis times a true tableau entry, an integer, so
the division is exact (Edmonds, *J. Res. NBS* 71B, 1967; Bareiss,
*Math. Comp.* 22, 1968).  A dual simplex pivot is negative; the pivot row
is negated first, which keeps d positive.  Appending a row multiplies it
by d and subtracts the basic rows, which needs no division at all.
Ratios are compared by cross-multiplication, and values leave as
``Fraction`` only through ``value``, ``solution`` and ``cost``.

Both loops share one pivot routine.  Each makes at most ``PIVOT_BUDGET``
pivots per row and column by its largest-change rule (Dantzig pricing in
the primal, most negative right-hand side in the dual), ties going to the
lowest index, and then falls back to Bland's rule (lowest basic or column
index), which cannot cycle.  The largest-change rules compare reduced
costs and right-hand sides in the units of the rows as given, so a row
over a denominator takes the pivots of the divided row.
"""

from __future__ import annotations

from fractions import Fraction

# largest-change pivots allowed per (rows + variables + 1) in one loop
# before Bland's rule takes over
PIVOT_BUDGET = 50


class Tableau:
    """An optimal simplex tableau that accepts further constraint rows.

    Column j < n is the variable x_j and column n + i the slack of
    constraint i.  Row i of ``rows`` with ``rhs[i]`` expresses the basic
    variable ``basis[i]`` in the nonbasic ones, ``reduced`` holds the
    reduced costs and ``objective`` the objective at the basic solution,
    all multiplied by the basis determinant ``denominator`` (see the
    module docstring).  ``units[j]`` is the factor by which column j's
    variable exceeds the one it stands for: 1 for x_j, its row's
    denominator for a slack.  Between public calls the tableau is optimal.
    """

    def __init__(
        self,
        objective: list[int],
        rows: list[list[int]],
        rhs: list[int],
        denominators: list[int] | None = None,
    ):
        n = len(objective)
        if any(len(row) != n for row in rows) or len(rhs) != len(rows):
            raise ValueError("inconsistent LP dimensions")
        if any(b < 0 for b in rhs):
            raise ValueError("rhs must be nonnegative (origin must be feasible)")
        if any(type(c) is not int for c in objective):
            raise TypeError(f"objective {objective!r} is not all ints")
        self.n = n
        self.reduced = [-c for c in objective]
        self.objective = 0
        self.denominator = 1
        self.units = [1] * n
        self.rows: list[list[int]] = []
        self.rhs: list[int] = []
        self.basis: list[int] = []
        for i, (row, b) in enumerate(zip(rows, rhs)):
            self._append(row, b, denominators[i] if denominators else 1)
        self._primal()

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
        """The reduced costs of the program as given; a slack's is its row's dual price."""
        return [Fraction(c * u, self.denominator) for c, u in zip(self.reduced, self.units)]

    def add_row(self, row: list[int], rhs: int, denominator: int = 1) -> None:
        """Add the constraint (row / denominator) . x <= rhs / denominator and re-optimize.

        Raises ``ArithmeticError`` if the constraint makes the program
        infeasible (possible only for rhs < 0); the tableau is then no
        longer usable.
        """
        if len(row) != self.n:
            raise ValueError("inconsistent LP dimensions")
        self._append(row, rhs, denominator)
        self._dual()

    def _append(self, a: list[int], b: int, denominator: int) -> None:
        """Append a constraint with a basic slack, reduced against the basis."""
        if any(type(v) is not int for v in (*a, b, denominator)):
            raise TypeError(f"row {a!r} <= {b!r} over {denominator!r} is not all ints")
        d = self.denominator
        width = len(self.reduced)
        new = [d * v for v in a] + [0] * (width - self.n) + [d]
        b *= d
        # the stored basic columns are d times unit vectors, so subtracting
        # a's coefficient times each basic row clears them; basic slacks
        # have no coefficient in a
        for i, j in enumerate(self.basis):
            if j < self.n:
                factor = a[j]
                if factor:
                    for k, v in enumerate(self.rows[i]):
                        if v:
                            new[k] -= factor * v
                    b -= factor * self.rhs[i]
        for other in self.rows:
            other.append(0)
        self.rows.append(new)
        self.rhs.append(b)
        self.reduced.append(0)
        self.units.append(denominator)
        self.basis.append(width)

    def _budget(self) -> int:
        return PIVOT_BUDGET * (len(self.rows) + self.n + 1)

    def _primal(self) -> None:
        rows, rhs, basis, reduced, units = self.rows, self.rhs, self.basis, self.reduced, self.units
        pivots = 0
        budget = self._budget()
        while True:
            entering = -1
            if pivots < budget:  # Dantzig: most negative reduced cost as given
                most_negative = 0
                for j, c in enumerate(reduced):
                    if c < 0 and c * units[j] < most_negative:
                        most_negative = c * units[j]
                        entering = j
            else:  # Bland: first improving column
                for j, c in enumerate(reduced):
                    if c < 0:
                        entering = j
                        break
            if entering < 0:
                return

            leaving = -1
            for i, row in enumerate(rows):
                coeff = row[entering]
                if coeff > 0:
                    if leaving < 0:
                        leaving = i
                        continue
                    # rhs[i] / coeff against rhs[leaving] / row[leaving][entering]
                    here = rhs[i] * rows[leaving][entering]
                    best = rhs[leaving] * coeff
                    if here < best or (here == best and basis[i] < basis[leaving]):
                        leaving = i
            if leaving < 0:
                raise ArithmeticError("unbounded linear program")
            self._pivot(leaving, entering)
            pivots += 1

    def _dual(self) -> None:
        rhs, basis, reduced, units = self.rhs, self.basis, self.reduced, self.units
        pivots = 0
        budget = self._budget()
        while True:
            leaving = -1
            if pivots < budget:  # most negative basic value as given
                for i, b in enumerate(rhs):
                    if b < 0 and (
                        leaving < 0 or b * units[basis[leaving]] < rhs[leaving] * units[basis[i]]
                    ):
                        leaving = i
            else:  # Bland: the infeasible row with the lowest basic variable
                for i, b in enumerate(rhs):
                    if b < 0 and (leaving < 0 or basis[i] < basis[leaving]):
                        leaving = i
            if leaving < 0:
                return

            entering = -1
            row = self.rows[leaving]
            for j, coeff in enumerate(row):
                # reduced[j] / -coeff against the best ratio so far
                if coeff < 0 and (
                    entering < 0 or reduced[j] * row[entering] > reduced[entering] * coeff
                ):
                    entering = j
            if entering < 0:
                raise ArithmeticError("infeasible linear program")
            self._pivot(leaving, entering)
            pivots += 1

    def _pivot(self, leaving: int, entering: int) -> None:
        rows, rhs = self.rows, self.rhs
        pivot_row = rows[leaving]
        p = pivot_row[entering]
        if p < 0:
            pivot_row[:] = [-v for v in pivot_row]
            rhs[leaving] = -rhs[leaving]
            p = -p
        d = self.denominator
        b = rhs[leaving]
        for i, row in enumerate(rows):
            if i == leaving:
                continue
            f = row[entering]
            if f:
                rows[i] = [(p * v - f * r) // d for v, r in zip(row, pivot_row)]
                rhs[i] = (p * rhs[i] - f * b) // d
            elif p != d:
                rows[i] = [p * v // d for v in row]
                rhs[i] = p * rhs[i] // d
        f = self.reduced[entering]
        self.reduced[:] = [(p * v - f * r) // d for v, r in zip(self.reduced, pivot_row)]
        self.objective = (p * self.objective - f * b) // d
        self.denominator = p
        self.basis[leaving] = entering


def maximize(
    objective: list[int],
    rows: list[list[int]],
    rhs: list[int],
    denominators: list[int] | None = None,
) -> Tableau:
    """Maximize objective . x over {x >= 0 : rows x <= rhs} exactly.

    Requires int data and rhs >= 0.  Row i and rhs[i] may stand for
    themselves divided by a positive ``denominators[i]``; the constraint
    is the same, and its slack is priced as that of the divided row.
    Raises if the program is unbounded (callers are expected to include box
    constraints that prevent this).  The returned optimal tableau carries
    ``value`` and ``solution`` and takes further constraints with
    ``add_row``.
    """
    return Tableau(objective, rows, rhs, denominators)
