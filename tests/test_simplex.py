import random
from fractions import Fraction as F

import pytest

from tsirelson_lab import _simplex
from tsirelson_lab._simplex import maximize

# dyadic coefficients, as in flattened tree functionals, plus a few negatives
COEFFS = [F(0), F(0), F(1), F(1, 2), F(1, 4), F(3, 4), F(1, 8), F(-1, 2)]


def random_lp(rng):
    """A bounded LP with rhs 1: box rows first, then random dyadic rows.

    Some rows repeat an earlier row, are a multiple of one (the same
    half-space or a tighter one) or are zero, so pivots are degenerate.
    """
    n = rng.randint(1, 6)
    objective = [rng.choice([F(1), F(2), F(1, 2), F(3), F(0)]) for _ in range(n)]
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
    rhs = [F(1)] * len(rows)
    cold = maximize(objective, rows, rhs)
    first = rng.randint(len(objective), len(rows))
    warm = maximize(objective, rows[:first], rhs[:first])
    for row in rows[first:]:
        warm.add_row(row, F(1))
    return objective, rows, rhs, cold, warm


def test_add_row_matches_cold_solve():
    rng = random.Random(5)
    for _ in range(300):
        objective, rows, rhs, cold, warm = warm_and_cold(rng)
        assert warm.value == cold.value
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


def test_known_optimum():
    # max x + y subject to x <= 1, y <= 1, x + y <= 3/2
    tableau = maximize([F(1), F(1)], [[F(1), F(0)], [F(0), F(1)]], [F(1), F(1)])
    assert tableau.value == 2 and tableau.solution == (1, 1)
    tableau.add_row([F(1), F(1)], F(3, 2))
    assert tableau.value == F(3, 2)
    # a constraint the optimum already satisfies changes nothing
    tableau.add_row([F(1), F(0)], F(1))
    assert tableau.value == F(3, 2)


def test_empty_program():
    tableau = maximize([], [], [])
    assert tableau.value == 0 and tableau.solution == ()


def test_inconsistent_dimensions():
    with pytest.raises(ValueError, match="dimensions"):
        maximize([F(1), F(1)], [[F(1)]], [F(1)])
    with pytest.raises(ValueError, match="dimensions"):
        maximize([F(1)], [[F(1)]], [F(1), F(1)])
    tableau = maximize([F(1)], [[F(1)]], [F(1)])
    with pytest.raises(ValueError, match="dimensions"):
        tableau.add_row([F(1), F(1)], F(1))


def test_negative_rhs_rejected():
    with pytest.raises(ValueError, match="nonnegative"):
        maximize([F(1)], [[F(1)]], [F(-1)])


def test_unbounded():
    with pytest.raises(ArithmeticError, match="unbounded"):
        maximize([F(1), F(1)], [[F(1), F(0)]], [F(1)])


def test_infeasible_row():
    tableau = maximize([F(1)], [[F(1)]], [F(1)])
    with pytest.raises(ArithmeticError, match="infeasible"):
        tableau.add_row([F(1)], F(-1))


def test_negative_rhs_row_is_allowed_when_feasible():
    # -x <= -1/2 moves the feasible set off the origin
    tableau = maximize([F(-1), F(1)], [[F(1), F(0)], [F(0), F(1)]], [F(1), F(1)])
    assert tableau.value == 1
    tableau.add_row([F(-1), F(0)], F(-1, 2))
    assert tableau.value == F(1, 2) and tableau.solution == (F(1, 2), 1)
