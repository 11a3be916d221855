"""The dual Tsirelson norm as the support function of the primal unit ball.

For a finitely supported functional y, the dual norm is

    ||y||* = sup { <y, x> : ||x||_T <= 1 }.

Every flattened evaluation tree is a functional of dual norm at most 1, and
for each x some tree attains ||x||_T, so the primal ball is exactly the
polar of the tree functionals.  ``dual_norm`` therefore runs a cutting
plane loop: maximize <y, x> over a working set of tree constraints
f(x) <= 1, test the optimizer with the exact primal norm, and when it
escapes the ball, cut it off with a maximizing tree functional.  One pass
of the T dynamic program per round gives the maximizer f as an integer
row (``norming_functional``), and f(x) = ||x|| is the test.  The linear
program starts at the origin under the box rows x_i <= 1; each cut is
appended to the optimal tableau and the dual simplex re-optimizes from
there (``_simplex.Tableau.add_row``).  The loop runs on integers: |y| is
scaled once (``seqvec.scaled_integers``), each functional f with integers
a over denominator D enters the program as the row a.x <= D, which is
f(x) <= 1, the optimizer goes to the program as the tableau's integer
numerators over its denominator (the norming functional of a vector is
that of any positive multiple), and the value becomes a ``Fraction``
once, when it returns.
Tree functionals over a fixed support hull form a finite set and every
added cut is new, so the loop terminates with an exactly converged value.

Both the objective direction and the constraints can be folded into the
nonnegative orthant: the norm is 1-unconditional, so the supremum for |y|
is attained at some x >= 0, and on x >= 0 only the all-positive-leaf
versions of the tree functionals bind.

Schreier regime.  If a support has s <= min supp points, every family of
singletons from it is admissible, and every admissible family sums to at
most the l1 norm, so ||x||_T = max(||x||_inf, (1/2)||x||_1) there
(Casazza and Shura, *Tsirelson's Space*, LNM 1363, 1989, ch. I).  That
unit ball is {||x||_inf <= 1, ||x||_1 <= 2}, so ||y||* is the sum of the
two largest |y_i| (just |y_i| when s = 1).  ``dual_norm_magnitudes``
returns this closed form for regime vectors without touching the cache or
the linear program.  Each dyadic block [2^j, 2^(j+1)) is in the regime,
so by the triangle inequality the blocks' closed forms add up to an upper
bound on ||y||* for every y (``DualTsirelsonEngine.upper_bound``).

One point past the regime.  Let the support be s_1 < ... < s_m with
m = s_1 + 1 >= 3, as in every closed window [n, 2n] with n >= 2.  A family
whose first part holds s_1 has at most s_1 = m - 1 parts; a family that
starts later sees only s_2, ..., s_m, m - 1 points of index >= m, so it
may take each of them as a part.  Every run of at most m - 1 support
points has no more points than its first index, so it is in the Schreier
regime, and a run E of two or more points has
||E x||_T = max(max_E |x_i|, (1/2) sum_E |x_i|) <= sum_E |x_i| - min_E |x_i|
(a merged pair counts as its maximum).  A family of at most m - 1 parts
over m points misses a point or merges two, and a family from s_2 on
misses s_1, so its sum is at most ||x||_1 - min_i |x_i|.  Dropping the
point of least |x_i| attains it: the other m - 1 points as singletons,
from s_1 (m - 1 parts) or from s_2.  A single-part family gives
(1/2)||x||_T, as always.  Hence

    ||x||_T = max(||x||_inf, (||x||_1 - min_i |x_i|) / 2)

and the unit ball is {|x_i| <= 1, sum_{j != l} |x_j| <= 2 for every l}.
Let w = |y| sorted decreasing, W_k = w_1 + ... + w_k and W = W_m.  The
ball is symmetric, so by the rearrangement inequality some maximizer x
is sorted like w, and on sorted x >= 0 the constraints are x_1 <= 1 and
x_1 + ... + x_(m-1) <= 2.  With u_k = x_k - x_(k+1) >= 0 (x_(m+1) = 0)
the objective is sum_k u_k W_k, under sum_k u_k <= 1 and
sum_k min(k, m - 1) u_k <= 2.  A linear program with two constraints has
an optimal vertex with at most two nonzero u_k.  With one, u_k is
min(1, 2 / min(k, m - 1)), worth w_1, w_1 + w_2 (k = 2), 2 W_k / k
(3 <= k < m) or 2W / (m - 1) (k = m).  Two need both constraints tight,
which only u_1 and one u_k with k >= 3 allow: u_k = 1 / (c - 1) with
c = min(k, m - 1), worth w_1 + (W_k - w_1) / (k - 1) for k < m and
w_1 + (W - w_1) / (m - 2) for k = m.  Averages of a decreasing sequence
do not grow, so W_k / k <= W_2 / 2 and (W_k - w_1) / (k - 1) <= w_2, and
every vertex with k < m is worth at most w_1 + w_2.  So

    ||y||* = max(w_1 + w_2, (W + (m - 3) w_1) / (m - 2), 2W / (m - 1)),

the values at e_1 + e_2, at (1, 1/(m - 2), ..., 1/(m - 2)) and at the
constant 2/(m - 1), in the order of w.  ``dual_norm_magnitudes`` computes
it on ints after the cache lookup and stores it like a cutting-plane
value, so a warm call costs one lookup.

The first coordinate peels off.  An admissible family E_1 < ... < E_n
has n <= min E_1, so a part holding index 1 is the only part of its
family, and that family contributes (1/2)||E_1 x||_T <= (1/2)||x||_T,
which attains ||x||_T only at x = 0.  Every other family misses index 1
and sees only x' = x restricted to {2, 3, ...}, so the implicit equation
of T gives ||x||_T = max(|x_1|, ||x'||_T).  The unit ball is then the
product [-1, 1] x (unit ball on {2, 3, ...}), and its support function
adds: ||y||* = |y_1| + ||y'||*.  ``dual_norm_magnitudes`` applies this
to every support holding index 1 and at least one more index.  Supports
{1, 2} and {1, 2, 3} become closed forms, since their tails are in the
Schreier regime, and so does {1, 2, 3, 4}, whose tail is one point past
it.  Every other tail is looked up in lowest terms (its magnitudes and
scale divided by their gcd), so the tails of different heads share one
cache entry.

One program per support.  ``_program_pool`` keeps, per process, one
cutting-plane program for each support that reaches the LP: its tableau
and the set of cuts it has seen.  Every James leaf has the support
{1, ..., k}, so its tail {2, ..., k} is solved again and again with new
objectives over the same ball.  A program starts from the box rows and
the cut of the functional norming its first objective (a warm start).
Each solve replaces the tableau's objective
(``_simplex.Tableau.set_objective``) and continues the cut loop from
that basis; the cuts already in the tableau are valid for every
objective.  This is the cut pool of branch and cut (Padberg
and Rinaldi, *SIAM Review* 33, 1991).  A pooled tableau keeps every cut
it was given, so it grows with the number of distinct cuts on its
support (the default suite at seed 7 leaves 53 programs of at most 32
rows).  The pool and the value caches (finished values, and per-window
functional sets) are ``seqvec.BoundedMemo`` stores: the pool holds at
most 128 programs, ``_dual_cache`` 16 384 values and
``_functional_cache`` 1 024 windows, and a full store drops its oldest
entry, so memory stays bounded in a long-lived process.  Values never
depend on what a store holds: each is the exact support-function value,
and only the work to reach it changes, so serial runs and worker
processes give the same values.  The pool is not thread-safe: concurrent
calls on one support would pivot one tableau at the same time.
``support_function_norm`` runs the same loop on state local to the call;
it is the stateless reference.

All of this runs on ints, behind one entry point:
``dual_norm_magnitudes(support, magnitudes, scale)`` takes |y| as positive
ints times one scale, and answers every support, the empty one (y = 0)
included.  ``dual_norm`` scales a vector once and calls it; James leaves
(``T_STAR.eval_magnitudes``) and the window and partition checks of
``certify`` call it with their own ints.  Cache keys are in lowest terms,
so every caller of one vector shares one entry.  ``T_STAR`` is the one
T* engine of the package: James searches are memoized on their base
engine object, so every T_J* search over T* shares one memo namespace.

Threshold decisions.  With a ``limit``, ``dual_norm_magnitudes`` decides
"||y||* > limit" on its own path: the closed forms decide at once, the
peel subtracts |y_1| from the limit, and the pooled cutting-plane loop
stops at the first restricted LP value at most the limit, an upper bound
since every row is a valid cut.  Above the limit the loop runs on to the
exact value.  As in ``jamesify``, a sample decided not to exceed its
caller's running worst cannot change a value or witness.  A bound at most
the limit is cached under the value's key with the limit appended, a fact
about y and the limit that does not depend on what a store holds.

``dual_norm_exact_small`` cross-validates the loop on small hulls by
enumerating the complete (dominance-pruned) set of tree functionals up
front and solving a single exact linear program over it.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from . import _simplex
from .seqvec import (
    BoundedMemo,
    FinVec,
    IndexInterval,
    NormBounds,
    NormValue,
    integer_entries,
    lp_norm,
    scaled_integers,
)
from .tsirelson import (
    admissible_partitions,
    norming_functional,
    tsirelson_norm,
)


def pairing(y: FinVec, x: FinVec) -> Fraction:
    """Duality bracket <y, x> = sum_i y_i x_i, exact."""
    total = Fraction(0)
    for i, c in y.entries:
        total += c * x.coeff(i)
    return total


class NormEngine(ABC):
    """A norm evaluator with declared structural flags.

    ``is_1_unconditional`` promises the value depends only on coefficient
    absolute values; it is property-tested, not assumed.
    ``is_compaction_monotone`` promises that moving the support of a vector
    to smaller indices, keeping the order of its coefficients, never
    decreases its norm.  The l_q norms ignore positions, and T* has it; T
    lacks it: ||e_3 + e_4 + e_5||_T = 3/2 but ||e_1 + e_2 + e_3||_T = 1.
    """

    name: str = "norm"
    is_1_unconditional: bool = False
    is_compaction_monotone: bool = False

    @abstractmethod
    def eval(self, x: FinVec) -> NormValue:
        raise NotImplementedError

    def eval_exact(self, x: FinVec) -> Fraction:
        value = self.eval(x)
        if isinstance(value, NormBounds):
            return value.value
        return value

    def upper_bound(self, magnitudes: Sequence[int]) -> int:
        """A cheap upper bound on ||x||, given |x_1|, ..., |x_k| as ints.

        ``magnitudes[j]`` is |x_(j+1)| times one positive scale, and the
        bound comes back times the same scale.  This default is the l1
        norm, valid for 1-unconditional norms with normalized unit vectors
        by the triangle inequality; engines with a sharper bound override
        it.
        """
        return sum(magnitudes)

    def eval_magnitudes(self, magnitudes: Sequence[int], scale: int) -> NormValue:
        """||x|| for |x_1|, ..., |x_k| given as ints, as in ``upper_bound``.

        ``magnitudes[j]`` is |x_(j+1)| times the positive ``scale``; the
        value comes back exact, not times the scale.  This default builds
        the vector and calls ``eval``, which is right for 1-unconditional
        norms.
        """
        return self.eval(
            FinVec(tuple((j + 1, Fraction(m, scale)) for j, m in enumerate(magnitudes) if m))
        )

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


class LpEngine(NormEngine):
    """Reference l_q engine; exact for q in {1, inf}."""

    is_1_unconditional = True
    is_compaction_monotone = True

    def __init__(self, q: Union[int, Fraction, float]):
        self.q = q
        self.name = "linf" if q == float("inf") else f"l{q}"

    def eval(self, x: FinVec) -> NormValue:
        return lp_norm(x, self.q)


class TsirelsonEngine(NormEngine):
    name = "T"
    is_1_unconditional = True

    def eval(self, x: FinVec) -> Fraction:
        return tsirelson_norm(x)


class DualTsirelsonEngine(NormEngine):
    name = "Tstar"
    is_1_unconditional = True
    is_compaction_monotone = True

    def eval(self, x: FinVec) -> Fraction:
        return dual_norm(x)

    def eval_magnitudes(self, magnitudes: Sequence[int], scale: int) -> Fraction:
        """``dual_norm_magnitudes`` at the positions whose magnitude is nonzero."""
        support = tuple(j + 1 for j, m in enumerate(magnitudes) if m)
        return dual_norm_magnitudes(support, [m for m in magnitudes if m], scale)

    def upper_bound(self, magnitudes: Sequence[int]) -> int:
        """Sum over the dyadic blocks [2^j, 2^(j+1)) of their closed-form T* norms."""
        total = 0
        width = 1  # block j holds positions width..2*width-1
        while width <= len(magnitudes):
            total += _two_largest(magnitudes[width - 1 : 2 * width - 1])
            width *= 2
        return total


# the package's one T* engine, so T_J* searches over T* share one James memo namespace
T_STAR = DualTsirelsonEngine()


def support_function_norm(
    y: FinVec,
    oracle: Callable[[list[int], list[int]], tuple[list[int], int]],
) -> Fraction:
    """Generic cutting-plane evaluation of sup{<y, x> : ||x|| <= 1}.

    ``oracle(indices, values)`` is the separation oracle of a
    1-unconditional exact norm with normalized unit vectors.  Given a
    nonnegative vector as positive integer ``values`` at increasing
    ``indices``, it returns a functional f with f(x) = ||x|| and dual norm
    at most 1, as integer coefficients aligned with ``indices`` over one
    positive denominator; so x is in the unit ball iff f(x) <= 1.  The loop
    works in the nonnegative orthant with LP variables only on support(y):
    1-unconditionality makes the norm solid, so zeroing coordinates
    outside the objective's support keeps the optimizer feasible without
    changing its value.  Each functional enters the LP as its integer
    coefficients with its denominator as the right-hand side.  The LP is
    solved from the origin; each round passes the optimizer to the oracle
    as integers over the tableau's denominator, adds the new cut to the
    optimal tableau and re-optimizes with the dual simplex.  The loop
    stops once the working-set optimizer lies inside the ball, making the
    restricted LP value the exact support-function value.  Nothing
    outlives the call.
    """
    support, values, scale = integer_entries(y)
    w = [abs(v) for v in values]
    return _cutting_plane(list(support), oracle, w)(w) / scale


def _cutting_plane(
    support: list[int],
    oracle: Callable[[list[int], list[int]], tuple[list[int], int]],
    first: list[int],
) -> Callable[[list[int]], Fraction]:
    """The cutting-plane loop on one support, as ``solve(w)``.

    ``solve(w)`` returns the maximum of w . x over the unit ball, for
    positive int magnitudes ``w`` aligned with ``support``.  The tableau is
    built once, under a zero objective, so it is optimal at the origin: its
    rows are the box rows x_k <= 1 and the cut of the functional norming
    ``first`` (a warm start for the first objective).  Each call makes w
    the objective (``Tableau.set_objective``) and runs the loop from the
    current basis with the cuts found so far, so ``solve(first)`` pivots as
    a primal simplex from the origin.  Every cut is a constraint of the
    unit ball whatever the objective, so each value is exact.
    ``solve(w, limit)`` also stops at the first restricted LP value at
    most ``limit``, an upper bound.
    """
    width = len(support)
    all_columns = list(range(width))
    seen: set[tuple[int, ...]] = set()

    def cut(columns: list[int], coefficients: list[int], denominator: int) -> Optional[list[int]]:
        """The constraint row of a functional on the support, or None if already used."""
        row = [0] * width
        for k, c in zip(columns, coefficients):
            row[k] = c
        key = (denominator, *row)
        if key in seen:
            return None
        seen.add(key)
        return row

    # f(x) <= 1 goes in as f's integers . x <= f's denominator
    rows = [cut([k], [1], 1) for k in all_columns]
    rhs = [1] * width
    # warm start: the functional norming the direction of the first objective
    coefficients, denominator = oracle(support, first)
    row = cut(all_columns, coefficients, denominator)
    if row is not None:
        rows.append(row)
        rhs.append(denominator)
    tableau = _simplex.maximize([0] * width, rows, rhs)

    def solve(w: list[int], limit: Optional[Fraction] = None) -> Fraction:
        tableau.set_objective(w)
        while True:
            if limit is not None and tableau.value <= limit:
                return tableau.value
            x = tableau.numerators()
            columns = [k for k in all_columns if x[k]]
            values = [x[k] for k in columns]
            coefficients, denominator = oracle([support[k] for k in columns], values)
            if sum(c * v for c, v in zip(coefficients, values)) <= denominator * tableau.denominator:
                return tableau.value
            row = cut(columns, coefficients, denominator)
            if row is None:
                raise AssertionError("cutting plane stalled on a repeated constraint")
            tableau.add_row(row, denominator)

    return solve


def _two_largest(values):
    """The sum of the two largest of some nonnegative values (0 if none)."""
    first = second = 0
    for v in values:
        if v > first:
            first, second = v, first
        elif v > second:
            second = v
    return first + second


def _one_past_schreier(magnitudes: Sequence[int], scale: int) -> Fraction:
    """||y||* on m = min supp + 1 >= 3 points, by the closed form of the module docstring."""
    m = len(magnitudes)
    total = sum(magnitudes)
    # the three candidates over the common denominator (m - 1)(m - 2)
    best = max(
        _two_largest(magnitudes) * (m - 1) * (m - 2),
        (total + (m - 3) * max(magnitudes)) * (m - 1),
        2 * total * (m - 2),
    )
    return Fraction(best, (m - 1) * (m - 2) * scale)


# (scale, support, magnitudes) in lowest terms -> ||y||*
_dual_cache = BoundedMemo(16384)
# support -> the cutting-plane loop of that support, with its last tableau
_program_pool = BoundedMemo(128)


def dual_norm(y: FinVec) -> Fraction:
    """The dual norm ||y||*, exact: ``dual_norm_magnitudes`` of |y| scaled to ints."""
    support, values, scale = integer_entries(y)
    return dual_norm_magnitudes(support, [abs(v) for v in values], scale)


def dual_norm_magnitudes(
    support: tuple[int, ...], magnitudes: Sequence[int], scale: int, limit: Optional[Fraction] = None
) -> Fraction:
    """The dual norm of the y with |y_i| = magnitudes[k] / scale at i = support[k].

    ``support`` is a tuple of increasing indices and every magnitude is a
    positive int.  In the Schreier regime (support size <= min support,
    and the empty support, with value 0) the value is the closed form of
    the module docstring.  A support holding index 1 and more is peeled:
    ||y||* = |y_1| + ||y restricted to {2, 3, ...}||* (module docstring).
    A support one point past the regime takes the second closed form of
    the module docstring.
    Any other support goes to its pooled cutting-plane program, whose loop
    only stops once the working-set optimizer lies in the primal ball, at
    which point the restricted LP value is the support function value
    itself.  Closed forms past the regime and LP values are cached by the
    magnitudes of y, which is all the norm depends on, in lowest terms
    (magnitudes and scale over their gcd): y and 2y never share a key,
    while y, its sign flips, and every scaling of its ints with their scale
    always do.

    With a ``limit``, the loop also stops at the first restricted LP value
    at most the limit, and that upper bound comes back instead of ||y||*
    (cached under the key with the limit appended): a result above the
    limit is exact, and one at most the limit says only that ||y||* is
    too.
    """
    first = support[0] if support else 0
    if len(magnitudes) <= first:
        return Fraction(_two_largest(magnitudes), scale)
    if first == 1:
        head = Fraction(magnitudes[0], scale)
        tail_limit = None if limit is None else limit - head
        return head + dual_norm_magnitudes(support[1:], magnitudes[1:], scale, tail_limit)
    common = math.gcd(scale, *magnitudes)
    if common > 1:
        scale //= common
        magnitudes = [m // common for m in magnitudes]
    key = (scale, support, tuple(magnitudes))
    value = _dual_cache.get(key)
    if value is None and limit is not None:
        value = _dual_cache.get(key + (limit,))
    if value is None:
        if len(support) == first + 1:
            value = _dual_cache[key] = _one_past_schreier(magnitudes, scale)
        else:
            w = list(magnitudes)
            solve = _program_pool.get(support)
            if solve is None:
                solve = _program_pool[support] = _cutting_plane(list(support), norming_functional, w)
            value = solve(w, None if limit is None else limit * scale) / scale
            _dual_cache[key if limit is None or value > limit else key + (limit,)] = value
    return value


# an alias, not a wrapper: both names are one function object
dual_norm_value = dual_norm


MAX_EXACT_HULL = 8


def dual_norm_exact_small(y: FinVec) -> Fraction:
    """Exhaustive-oracle dual norm for support hulls of length <= 8.

    Enumerates every tree functional on the hull once (pruned to the
    coordinatewise-maximal ones, which is lossless for constraints over
    x >= 0) and solves the support-function LP with the full constraint
    set, with no separation loop involved.
    """
    if y.is_zero:
        return Fraction(0)
    hull = y.hull()
    if len(hull) > MAX_EXACT_HULL:
        raise ValueError(
            f"support hull {hull} has length {len(hull)}; "
            f"the exhaustive oracle is limited to {MAX_EXACT_HULL}"
        )
    support, values, scale = integer_entries(y)
    w = [abs(v) for v in values]
    position = {index: k for k, index in enumerate(support)}

    rows = []
    rhs = []
    seen = set()
    for f in tree_functionals(hull):
        row = [Fraction(0)] * len(support)
        for i, c in f:
            if i in position:
                row[position[i]] = c
        row, denominator = scaled_integers(row)
        key = (denominator, *row)
        if key not in seen and any(row):
            seen.add(key)
            rows.append(row)
            rhs.append(denominator)
    return _simplex.maximize(w, rows, rhs).value / scale


# (lo, hi) of a window -> its pruned tree functionals; a hull-8 oracle call
# reads at most 36 windows
_functional_cache = BoundedMemo(1024)


def tree_functionals(window: IndexInterval) -> tuple[tuple[tuple[int, Fraction], ...], ...]:
    """All-positive flattened tree functionals on a window, dominance-pruned.

    Returned as tuples of (index, coefficient) pairs.  A functional
    coordinatewise below another is dropped: over x >= 0 its constraint is
    implied, and pruning child sets before combining is lossless because
    combination is coordinatewise monotone.
    """
    key = (window.lo, window.hi)
    cached = _functional_cache.get(key)
    if cached is not None:
        return cached

    candidates: set[tuple[tuple[int, Fraction], ...]] = set()
    for i in window.indices():
        candidates.add(((i, Fraction(1)),))
    max_parts = (window.hi + 1) // 2
    for k in range(2, max_parts + 1):
        for partition in admissible_partitions(window, k):
            child_sets = [tree_functionals(part) for part in partition.parts]
            stack: list[tuple[int, dict[int, Fraction]]] = [(0, {})]
            while stack:
                depth, acc = stack.pop()
                if depth == len(child_sets):
                    entries = tuple(
                        (i, c / 2) for i, c in sorted(acc.items())
                    )
                    candidates.add(entries)
                    continue
                for f in child_sets[depth]:
                    merged = dict(acc)
                    for i, c in f:
                        merged[i] = c
                    stack.append((depth + 1, merged))

    pruned = _prune_dominated(candidates, window)
    _functional_cache[key] = pruned
    return pruned


def _prune_dominated(
    candidates: set[tuple[tuple[int, Fraction], ...]], window: IndexInterval
) -> tuple:
    offset = window.lo
    width = len(window)
    dense = []
    for entries in candidates:
        row = [Fraction(0)] * width
        for i, c in entries:
            row[i - offset] = c
        dense.append((entries, row))
    # larger total first: a dominating row always has at least the same sum
    dense.sort(key=lambda item: (sum(item[1]), item[1]), reverse=True)
    kept: list[tuple] = []
    kept_rows: list[list[Fraction]] = []
    for entries, row in dense:
        dominated = False
        for other in kept_rows:
            if all(a <= b for a, b in zip(row, other)):
                dominated = True
                break
        if not dominated:
            kept.append(entries)
            kept_rows.append(row)
    return tuple(kept)
