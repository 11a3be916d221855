import random
from fractions import Fraction as F

import pytest

from tsirelson_lab import _simplex, dualnorm
from tsirelson_lab._simplex import maximize
from tsirelson_lab.seqvec import FinVec, scaled_integers

# dyadic coefficients, as in flattened tree functionals, plus a few negatives
COEFFS = [F(0), F(0), F(1), F(1, 2), F(1, 4), F(3, 4), F(1, 8), F(-1, 2)]


def random_lp(rng):
    """A bounded LP with rhs 1: box rows first, then random dyadic rows.

    Some rows repeat an earlier row, are a multiple of one (the same
    half-space or a tighter one) or are zero, so pivots are degenerate.
    """
    n = rng.randint(1, 6)
    objective, _ = scaled_integers([rng.choice([F(1), F(2), F(1, 2), F(3), F(0)]) for _ in range(n)])
    rows = [[F(int(i == j)) for i in range(n)] for j in range(n)]
    for _ in range(rng.randint(0, 14)):
        kind = rng.random()
        if kind < 0.15 and len(rows) > n:
            rows.append(list(rng.choice(rows[n:])))
        elif kind < 0.25 and len(rows) > n:
            factor = rng.choice([F(2), F(1, 2)])
            rows.append([factor * v for v in rng.choice(rows[n:])])
        elif kind < 0.3:
            rows.append([F(0)] * n)
        else:
            rows.append([rng.choice(COEFFS) for _ in range(n)])
    return objective, rows


def integer_program(rows, rhs):
    """(rows, rhs) as ints: each row scaled with its rhs by ``scaled_integers``."""
    scaled = [scaled_integers([*row, b])[0] for row, b in zip(rows, rhs)]
    return [ints[:-1] for ints in scaled], [ints[-1] for ints in scaled]


def assert_optimal(tableau, objective, rows, rhs):
    """Primal feasibility plus an LP-duality certificate of optimality.

    The reduced costs of the slack columns are the dual prices y; the
    tableau is optimal iff y >= 0, y.A >= c and y.b equals the value.
    """
    n = len(objective)
    x = tableau.solution
    assert all(v >= 0 for v in x)
    for row, b in zip(rows, rhs):
        assert sum(a * v for a, v in zip(row, x)) <= b
    assert sum(c * v for c, v in zip(objective, x)) == tableau.value
    assert all(c >= 0 for c in tableau.cost)
    prices = tableau.cost[n:]
    assert len(prices) == len(rows)
    for j in range(n):
        assert sum(p * row[j] for p, row in zip(prices, rows)) >= objective[j]
    assert sum(p * b for p, b in zip(prices, rhs)) == tableau.value


def warm_and_cold(rng):
    objective, rows = random_lp(rng)
    rows, rhs = integer_program(rows, [F(1)] * len(rows))
    cold = maximize(objective, rows, rhs)
    first = rng.randint(len(objective), len(rows))
    warm = maximize(objective, rows[:first], rhs[:first])
    for row, b in zip(rows[first:], rhs[first:]):
        warm.add_row(row, b)
    return objective, rows, rhs, cold, warm


def test_add_row_matches_cold_solve():
    rng = random.Random(5)
    for _ in range(300):
        objective, rows, rhs, cold, warm = warm_and_cold(rng)
        assert warm.value == cold.value
        assert_same_tableau(cold, ReferenceTableau(objective, rows, rhs))
        assert_optimal(cold, objective, rows, rhs)
        assert_optimal(warm, objective, rows, rhs)


def test_bland_fallback_gives_the_same_optima(monkeypatch):
    rng = random.Random(6)
    expected = [warm_and_cold(rng)[3].value for _ in range(150)]
    monkeypatch.setattr(_simplex, "PIVOT_BUDGET", 0)
    rng = random.Random(6)
    for value in expected:
        objective, rows, rhs, cold, warm = warm_and_cold(rng)
        assert cold.value == warm.value == value
        assert_optimal(warm, objective, rows, rhs)


def test_objective_change_gives_the_cold_solve():
    # set_objective re-optimizes from the old basis; the value must be a
    # cold solve's, and the tableau the Fraction reference's after the
    # same step
    rng = random.Random(23)
    for _ in range(200):
        objective, rows, rhs, cold, warm = warm_and_cold(rng)
        reference = ReferenceTableau(objective, rows, rhs)
        for _ in range(2):
            objective = [rng.choice((0, 1, 2, 3, 5, 8)) for _ in objective]
            for tableau in (cold, warm):
                tableau.set_objective(objective)
                assert tableau.value == maximize(objective, rows, rhs).value
                assert_optimal(tableau, objective, rows, rhs)
            reference.set_objective(objective)
            assert_same_tableau(cold, reference)
    for _ in range(100):
        objective, rows, rhs, cold = general_lp(rng)
        tableau = maximize(objective, rows[:cold], rhs[:cold])
        reference = ReferenceTableau(objective, rows[:cold], rhs[:cold])
        for row, b in zip(rows[cold:], rhs[cold:]):
            tableau.add_row(row, b)
            reference.add_row(row, b)
        objective = scaled_integers([rational(rng, 4) for _ in objective])[0]
        if all(c <= 0 for c in objective) or rng.random() < 0.5:
            objective = [abs(c) for c in objective]
        tableau.set_objective(objective)
        reference.set_objective(objective)
        assert_same_tableau(tableau, reference)
        assert_optimal(tableau, objective, rows, rhs)


def test_objective_change_checks_its_data():
    tableau = maximize([1, 1], [[1, 0], [0, 1]], [1, 1])
    with pytest.raises(ValueError, match="dimensions"):
        tableau.set_objective([1])
    with pytest.raises(TypeError, match="int"):
        tableau.set_objective([1, F(1, 2)])
    tableau.set_objective([2, -1])
    assert tableau.value == 2 and tableau.solution == (1, 0)


def test_known_optimum():
    # max x + y subject to x <= 1, y <= 1, 2x + 2y <= 3
    tableau = maximize([1, 1], [[1, 0], [0, 1]], [1, 1])
    assert tableau.value == 2 and tableau.solution == (1, 1)
    tableau.add_row([2, 2], 3)
    assert tableau.value == F(3, 2)
    # a constraint the optimum already satisfies changes nothing
    tableau.add_row([1, 0], 1)
    assert tableau.value == F(3, 2)


def test_empty_program():
    tableau = maximize([], [], [])
    assert tableau.value == 0 and tableau.solution == ()


def test_inconsistent_dimensions():
    with pytest.raises(ValueError, match="dimensions"):
        maximize([1, 1], [[1]], [1])
    with pytest.raises(ValueError, match="dimensions"):
        maximize([1], [[1]], [1, 1])
    tableau = maximize([1], [[1]], [1])
    with pytest.raises(ValueError, match="dimensions"):
        tableau.add_row([1, 1], 1)


def test_non_integer_data_rejected():
    # a Fraction would floor-divide silently in the fraction-free pivot
    with pytest.raises(TypeError, match="int"):
        maximize([1, 1], [[F(1, 2), 1]], [1])
    with pytest.raises(TypeError, match="int"):
        maximize([F(1, 2)], [[1]], [1])
    with pytest.raises(TypeError, match="int"):
        maximize([1], [[1]], [F(1)])
    with pytest.raises(TypeError, match="int"):
        maximize([1], [[1.0]], [1])
    tableau = maximize([1], [[1]], [1])
    with pytest.raises(TypeError, match="int"):
        tableau.add_row([F(1, 2)], 1)
    with pytest.raises(TypeError, match="int"):
        tableau.add_row([1], F(1))


def test_negative_rhs_rejected():
    with pytest.raises(ValueError, match="nonnegative"):
        maximize([1], [[1]], [-1])


def test_unbounded():
    with pytest.raises(ArithmeticError, match="unbounded"):
        maximize([1, 1], [[1, 0]], [1])


def test_infeasible_row():
    tableau = maximize([1], [[1]], [1])
    with pytest.raises(ArithmeticError, match="infeasible"):
        tableau.add_row([1], -1)


def test_negative_rhs_row_is_allowed_when_feasible():
    # -2x <= -1 moves the feasible set off the origin
    tableau = maximize([-1, 1], [[1, 0], [0, 1]], [1, 1])
    assert tableau.value == 1
    tableau.add_row([-2, 0], -1)
    assert tableau.value == F(1, 2) and tableau.solution == (F(1, 2), 1)


class ReferenceTableau:
    """The textbook tableau over Fractions, with the pivot rules of ``_simplex``.

    Rows are kept as given (slacks with coefficient 1), every pivot divides
    the pivot row by the pivot, and ratios are Fractions.  The integer
    tableau must reach the same basis, so the same value, solution and
    reduced costs.
    """

    def __init__(self, objective, rows, rhs):
        n, m = len(objective), len(rows)
        self.n = n
        self.rows = [[F(v) for v in row] + [F(int(i == k)) for k in range(m)] for i, row in enumerate(rows)]
        self.rhs = [F(b) for b in rhs]
        self.cost = [-F(c) for c in objective] + [F(0)] * m
        self.basis = [n + i for i in range(m)]
        self.value = F(0)
        self._loop(self._primal_choice)

    @property
    def solution(self):
        x = [F(0)] * self.n
        for i, j in enumerate(self.basis):
            if j < self.n:
                x[j] = self.rhs[i]
        return tuple(x)

    def add_row(self, row, rhs):
        self._append(row, rhs)
        self._loop(self._dual_choice)

    def set_objective(self, objective):
        # reduced costs c_B . rows - c and value c_B . rhs of the current basis
        self.cost = [-F(c) for c in objective] + [F(0)] * (len(self.cost) - self.n)
        self.value = F(0)
        for i, j in enumerate(self.basis):
            if j < self.n and objective[j]:
                self.cost = [v + objective[j] * w for v, w in zip(self.cost, self.rows[i])]
                self.value += objective[j] * self.rhs[i]
        self._loop(self._primal_choice)

    def _append(self, row, rhs):
        for other in self.rows:
            other.append(F(0))
        self.cost.append(F(0))
        new = [F(v) for v in row] + [F(0)] * (len(self.cost) - self.n - 1) + [F(1)]
        b = F(rhs)
        for i, j in enumerate(self.basis):
            factor = new[j]
            if factor:
                new = [v - factor * w for v, w in zip(new, self.rows[i])]
                b -= factor * self.rhs[i]
        self.rows.append(new)
        self.rhs.append(b)
        self.basis.append(len(self.cost) - 1)

    def _loop(self, choose):
        budget = _simplex.PIVOT_BUDGET * (len(self.rows) + self.n + 1)
        pivots = 0
        while (choice := choose(pivots < budget)) is not None:
            self._pivot(*choice)
            pivots += 1

    def _primal_choice(self, dantzig):
        negative = [j for j, c in enumerate(self.cost) if c < 0]
        if not negative:
            return None
        entering = min(negative, key=lambda j: self.cost[j]) if dantzig else negative[0]
        candidates = [i for i, row in enumerate(self.rows) if row[entering] > 0]
        if not candidates:
            raise ArithmeticError("unbounded linear program")
        leaving = min(candidates, key=lambda i: (self.rhs[i] / self.rows[i][entering], self.basis[i]))
        return leaving, entering

    def _dual_choice(self, dantzig):
        negative = [i for i, b in enumerate(self.rhs) if b < 0]
        if not negative:
            return None
        leaving = min(negative, key=lambda i: self.rhs[i] if dantzig else self.basis[i])
        row = self.rows[leaving]
        candidates = [j for j, v in enumerate(row) if v < 0]
        if not candidates:
            raise ArithmeticError("infeasible linear program")
        return leaving, min(candidates, key=lambda j: self.cost[j] / -row[j])

    def _pivot(self, leaving, entering):
        pivot = self.rows[leaving][entering]
        self.rows[leaving] = pivot_row = [v / pivot for v in self.rows[leaving]]
        self.rhs[leaving] = b = self.rhs[leaving] / pivot
        for i, row in enumerate(self.rows):
            factor = row[entering]
            if factor and i != leaving:
                self.rows[i] = [v - factor * w for v, w in zip(row, pivot_row)]
                self.rhs[i] -= factor * b
        factor = self.cost[entering]
        self.cost = [v - factor * w for v, w in zip(self.cost, pivot_row)]
        self.value -= factor * b
        self.basis[leaving] = entering


def rational(rng, top):
    """A rational with a non-dyadic denominator; a quarter of them are huge."""
    if rng.random() < 0.25:
        top = 2**64
    return F(rng.randint(-top, top), rng.choice((1, 3, 5, 7, 9)))


def general_lp(rng):
    """A bounded integer LP with rhs other than 1, feasible at a known point x0.

    The rows are drawn rational and scaled with their rhs to integers.
    Box rows x_j <= u_j come first.  The other rows go through x0 or lie
    beyond it; the first ``cold`` of them have rhs >= 0 (the origin is
    feasible), the rest may have rhs < 0 and are for ``add_row``.  Some
    rows repeat, scale or zero an earlier one, so pivots are degenerate.
    """
    n = rng.randint(1, 5)
    objective, _ = scaled_integers([abs(rational(rng, 4)) for _ in range(n)])
    bounds = [abs(rational(rng, 6)) + F(1, 3) for _ in range(n)]
    x0 = [u * F(rng.randint(0, 3), 3) for u in bounds]
    rows = [[F(int(i == j)) for i in range(n)] for j in range(n)]
    rhs = list(bounds)
    cold = rng.randint(0, 6)
    for k in range(rng.randint(0, 12)):
        kind = rng.random()
        if kind < 0.15 and len(rows) > n:
            row = list(rng.choice(rows[n:]))
        elif kind < 0.25 and len(rows) > n:
            factor = rng.choice([F(3), F(1, 5), F(2**64, 7)])
            row = [factor * v for v in rng.choice(rows[n:])]
        elif kind < 0.3:
            row = [F(0)] * n
        else:
            row = [rational(rng, 5) if rng.random() < 0.7 else F(0) for _ in range(n)]
        b = sum((a * v for a, v in zip(row, x0)), F(0)) + rng.choice([F(0), abs(rational(rng, 3))])
        if k < cold:
            b = max(b, F(0))
        rows.append(row)
        rhs.append(b)
    return objective, *integer_program(rows, rhs), n + cold


def assert_same_tableau(tableau, reference):
    assert tableau.basis == reference.basis
    assert tableau.value == reference.value
    assert tableau.solution == reference.solution
    assert tableau.cost == reference.cost
    # the stored tableau keeps the nonbasic columns only, and each entry is
    # the determinant d > 0 times the Fraction entry of its column's variable
    d = tableau.denominator
    assert type(d) is int and d > 0
    assert sorted(tableau.basis + tableau.nonbasic) == list(range(len(reference.cost)))
    for row, expected in zip(tableau.rows, reference.rows, strict=True):
        assert all(type(v) is int for v in row)
        assert row == [d * expected[j] for j in tableau.nonbasic]


def check_against_reference(rng):
    objective, rows, rhs, cold = general_lp(rng)
    tableau = maximize(objective, rows[:cold], rhs[:cold])
    reference = ReferenceTableau(objective, rows[:cold], rhs[:cold])
    assert_same_tableau(tableau, reference)
    for row, b in zip(rows[cold:], rhs[cold:]):
        tableau.add_row(row, b)
        reference.add_row(row, b)
        assert_same_tableau(tableau, reference)
    assert_optimal(tableau, objective, rows, rhs)
    return sum(b < 0 for b in rhs[cold:])


def test_integer_tableau_matches_fraction_reference():
    rng = random.Random(8)
    negative_rows = sum(check_against_reference(rng) for _ in range(250))
    assert negative_rows >= 50


def test_integer_tableau_matches_fraction_reference_under_bland(monkeypatch):
    monkeypatch.setattr(_simplex, "PIVOT_BUDGET", 0)
    rng = random.Random(9)
    for _ in range(120):
        check_against_reference(rng)


@pytest.mark.parametrize("budget", [_simplex.PIVOT_BUDGET, 0])
def test_dual_loop_with_several_infeasible_rows_matches_reference(budget, monkeypatch):
    # add_row leaves one infeasible row; appending several before the dual
    # loop runs makes its leaving-row choice (and ties in it) matter
    monkeypatch.setattr(_simplex, "PIVOT_BUDGET", budget)
    rng = random.Random(18)
    several = 0
    for _ in range(200):
        objective, rows, rhs, cold = general_lp(rng)
        tableau = maximize(objective, rows[:cold], rhs[:cold])
        reference = ReferenceTableau(objective, rows[:cold], rhs[:cold])
        for row, b in zip(rows[cold:], rhs[cold:]):
            tableau._append(row, b)
            reference._append(row, b)
        several += sum(b < 0 for b in reference.rhs) > 1
        reference._loop(reference._dual_choice)
        tableau._optimize(tableau._dual_choice)
        assert_same_tableau(tableau, reference)
    assert several >= 40


def test_any_pivot_matches_fraction_reference():
    # pivots off the simplex path too, on entries of either sign: the
    # stored tableau stays a positive multiple of the Fraction one
    rng = random.Random(15)
    signs = set()
    for _ in range(150):
        objective, rows, rhs, cold = general_lp(rng)
        tableau = maximize(objective, rows[:cold], rhs[:cold])
        reference = ReferenceTableau(objective, rows[:cold], rhs[:cold])
        for _ in range(4):
            choices = [
                (i, j)
                for i, row in enumerate(reference.rows)
                for j, v in enumerate(row)
                if v and j not in reference.basis
            ]
            if not choices:
                break
            i, j = rng.choice(choices)
            signs.add(reference.rows[i][j] > 0)
            tableau._pivot(i, tableau.nonbasic.index(j))
            reference._pivot(i, j)
            assert_same_tableau(tableau, reference)
    assert signs == {False, True}


def test_primal_pivots_outside_the_loop_match_fraction_reference():
    # a wrong reduced cost on the leaving variable's new column makes the
    # primal loop cycle instead of fail, so these pivots run one at a time,
    # from the basis of all slacks with the objective priced but not solved
    rng = random.Random(31)
    pivots = 0
    for _ in range(100):
        objective, rows, rhs, cold = general_lp(rng)
        zero = [0] * len(objective)
        tableau = maximize(zero, rows[:cold], rhs[:cold])
        reference = ReferenceTableau(zero, rows[:cold], rhs[:cold])
        tableau._price(objective)
        reference.cost[: len(objective)] = [-F(c) for c in objective]
        for _ in range(3):
            choice = tableau._primal_choice(True)
            if choice is None:
                break
            leaving, entering = choice
            reference._pivot(leaving, tableau.nonbasic[entering])
            tableau._pivot(leaving, entering)
            assert_same_tableau(tableau, reference)
            pivots += 1
    assert pivots >= 150


def test_tstar_programs_give_the_fraction_functionals(fresh_stores, monkeypatch):
    # both T* programs pass each functional f, cuts included, as the
    # integer row of f's integers <= f's denominator: every tableau must be
    # the Fraction reference's on the same rows, also after the objective
    # changes on a pooled tail program
    calls = {"maximize": 0, "add_row": 0, "set_objective": 0}

    def check_functional(row, b):
        assert scaled_integers([F(v, b) for v in row]) == (row, b)

    def checked_maximize(objective, rows, rhs):
        calls["maximize"] += 1
        for row, b in zip(rows, rhs):
            check_functional(row, b)
        tableau = maximize(objective, rows, rhs)
        tableau.reference = ReferenceTableau(objective, rows, rhs)
        assert_same_tableau(tableau, tableau.reference)
        return tableau

    def checked_add_row(tableau, row, rhs):
        calls["add_row"] += 1
        check_functional(row, rhs)
        add_row(tableau, row, rhs)
        tableau.reference.add_row(row, rhs)
        assert_same_tableau(tableau, tableau.reference)

    def checked_set_objective(tableau, objective):
        calls["set_objective"] += 1
        set_objective(tableau, objective)
        tableau.reference.set_objective(objective)
        assert_same_tableau(tableau, tableau.reference)

    add_row = _simplex.Tableau.add_row
    set_objective = _simplex.Tableau.set_objective
    monkeypatch.setattr(_simplex, "maximize", checked_maximize)
    monkeypatch.setattr(_simplex.Tableau, "add_row", checked_add_row)
    monkeypatch.setattr(_simplex.Tableau, "set_objective", checked_set_objective)
    rng = random.Random(21)
    for _ in range(20):
        lo = rng.randint(1, 4)
        hi = lo + rng.randint(1, 4)  # the Fraction reference is slow on longer hulls
        y = FinVec.from_pairs((i, rng.choice(COEFFS[2:])) for i in range(lo, hi + 1))
        # a program of its own, built by maximize with the reference beside it
        dualnorm._program_pool.clear()
        assert dualnorm.dual_norm_exact_small(y) == dualnorm.dual_norm(y)
    # support {1, ..., 5} peels to the pooled tail {2, ..., 5} ({1, ..., 4} to
    # the closed form of {2, 3, 4}), so most of these re-solve one program
    for _ in range(12):
        y = FinVec.from_pairs((i, rng.choice(COEFFS[2:])) for i in range(1, rng.randint(4, 5) + 1))
        assert dualnorm.dual_norm_exact_small(y) == dualnorm.dual_norm(y)
    assert calls["maximize"] >= 30 and calls["add_row"] >= 15 and calls["set_objective"] >= 8
