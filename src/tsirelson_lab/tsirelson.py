"""Exact evaluation of the Tsirelson norm and its maximizing functionals.

The norm computed here is the unique fixed point of the implicit equation

    ||x|| = max( max_i |x_i| ,
                 (1/2) * max { sum_j ||E_j x||  :  (E_1, ..., E_k) admissible } )

where a family of index sets E_1 < E_2 < ... < E_k (each set entirely below
the next) is *admissible* when k <= min E_1.  The recursion is well founded
on finitely supported vectors because every part of an admissible family
with k >= 2 is a proper subset of the current support.

Three reductions make the computation exact and polynomial in the support
size for the part counts that arise:

* Interval parts suffice.  The norm is 1-unconditional, hence monotone
  under coordinate restriction, so replacing an arbitrary part E_j by its
  enclosing interval never decreases ||E_j x|| while min E_1 (and thus
  admissibility) is unchanged.  The supremum over interval families
  therefore equals the supremum over arbitrary admissible families.
* Families may partition the support from their first point on.  Index
  the support points by positions 0..n-1.  Within positions a..b, drop
  the parts that hold no support point and shrink each other part to the
  run of support points it holds; no value changes and min E_1 only
  grows.  Say the first part now starts at position a.  Stretching the
  parts to cover a..b never lowers the sum (monotonicity under
  restriction), and splitting a part never lowers it either (triangle
  inequality), so parts can be split until there are
  K = min(index of position a, b - a + 1) of them.  Neither step changes
  min E_1, so the family stays admissible.  Families that start later are
  exactly the families of a+1..b, hence

      ||a..b|| = max( ||a+1..b|| , |x_a| , (1/2) split(a, b, K) )

  where split(s, b, k) is the best total of ||run|| over partitions of
  positions s..b into exactly k consecutive runs:

      split(s, b, 1) = ||s..b||
      split(s, b, k) = max_q ||s..q|| + split(q+1, b, k-1).

  The family term counts only when K >= 2; a single-part family gives
  (1/2)||a..b||, which never exceeds the norm.
* Singleton runs have a closed form.  A partition of s..b into exactly
  b - s + 1 runs puts one point in each run, and there is only one such
  partition, so split(s, b, b - s + 1) = |x_s| + ... + |x_b|, a difference
  of prefix sums, with its first run ending at s.  This answers every
  Schreier block (K = b - a + 1, the budget covers every point) in O(1),
  so a support with at most min supp points costs O(n).

The memo is indexed by position, and it has one kind of table.  The
split column (b, k) is a list over its starts s holding the total and
how it is reached: for k >= 2 the end of the first run.  Since
split(s, b, 1) = ||s..b||, the column (b, 1) holds the ``solve`` values,
and there ``how`` is the leaf position or the family's first position.
It is filled from b downwards by a loop (so the recursion depth does not
grow with the support size).  The split loop sums a row of
``solve(s, q)`` values with the column (b, k - 1) over the run ends q in
one pass, so it reads the cached entries without a call per candidate;
a cache miss fills only the states the top-down recursion reaches, each
once.

The program runs on integers.  The magnitudes are read as ints once
(``seqvec.integer_entries``), and each is shifted left by the support
size n, so the family term's 1/2 is an exact ``>> 1``: a tree over m
support points has depth at most m - 1 (each part of a family is a proper
sub-run), so a value reached at depth t, within any subproblem, carries
the factor 2^(n - t) with t < n, and every sum that gets halved is even.
All values share the one positive factor, so comparisons, argmaxes and
ties are those of the exact rationals; the value leaves as
``Fraction(v, scale << n)``.

One solve serves both the norm and its maximizer.  Each entry point reads
its vector once, as signed ints over the least scale, and the
module-level cache (a ``seqvec.BoundedMemo`` of 4 096 entries; full, it
drops its oldest) is keyed by the scale, the support and the ints'
absolute values (1-unconditionality makes the signs irrelevant).  It holds
``(value, shape)``: the shape is the unsigned argmax tree by support
positions, a leaf its position and a node one (lo, hi, child) per part,
so at most 2n - 1 nodes over n points and none of the program's tables.
``tsirelson_maximizer`` takes the leaf signs from the same signed ints,
so x and -x share one entry and each tree carries its own vector's signs;
its flattened functional f attains f(x) = ||x|| and lies in the dual ball.
``norming_functional`` reads the leaf depths of the same shape for a
nonnegative integer vector and returns f as an integer row (a leaf at
depth t gets 2^(D - t) over 2^D) without building a tree; it is the
separation oracle of the T* cutting plane, whose inputs are LP iterates,
so it is not cached.

Evaluation is pure and values never depend on what the cache holds, so
worker processes give the same values as one process.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import add
from typing import Iterator, Sequence, Union

from .seqvec import BoundedMemo, FinVec, IndexInterval, integer_entries

HALF = Fraction(1, 2)


@dataclass(frozen=True)
class IntervalPartition:
    """An admissible family E_1 < ... < E_k of index intervals (k <= min E_1)."""

    parts: tuple[IndexInterval, ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise ValueError("partition needs at least one part")
        for prev, nxt in zip(self.parts, self.parts[1:]):
            if prev.hi >= nxt.lo:
                raise ValueError(f"parts {prev} and {nxt} are not strictly ordered")
        if len(self.parts) > self.parts[0].lo:
            raise ValueError(
                f"inadmissible family: {len(self.parts)} parts but first part "
                f"starts at {self.parts[0].lo}"
            )

    @property
    def k(self) -> int:
        return len(self.parts)

    def to_json_obj(self) -> list[list[int]]:
        return [[p.lo, p.hi] for p in self.parts]


@dataclass(frozen=True)
class TreeLeaf:
    """Signed coordinate functional +-e_i*."""

    index: int
    sign: int

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise ValueError("leaf sign must be +1 or -1")

    def flatten(self) -> FinVec:
        return FinVec.basis(self.index, self.sign)

    def to_json_obj(self) -> dict:
        return {"type": "leaf", "index": self.index, "sign": self.sign}


@dataclass(frozen=True)
class TreeNode:
    """Weight-1/2 node over an admissible partition, one child per part."""

    partition: IntervalPartition
    children: tuple["EvaluationTree", ...]

    def __post_init__(self) -> None:
        if len(self.children) != self.partition.k:
            raise ValueError("one child per part required")
        # a valid child's support is its leaf set, from its first leaf to its last
        for part, child in zip(self.partition.parts, self.children):
            lo = hi = child
            while isinstance(lo, TreeNode):
                lo = lo.children[0]
            while isinstance(hi, TreeNode):
                hi = hi.children[-1]
            if lo.index < part.lo or hi.index > part.hi:
                raise ValueError(f"child support [{lo.index},{hi.index}] escapes its part {part}")

    def flatten(self) -> FinVec:
        total = FinVec.zero()
        for child in self.children:
            total = total + child.flatten()
        return total.scale(HALF)

    def to_json_obj(self) -> dict:
        return {
            "type": "node",
            "parts": self.partition.to_json_obj(),
            "children": [c.to_json_obj() for c in self.children],
        }


EvaluationTree = Union[TreeLeaf, TreeNode]
Shape = Union[int, tuple]  # a leaf position, or one (lo, hi, shape) per part


def _json_int(value, field: str) -> int:
    if type(value) is not int:  # no bool, float or string
        raise ValueError(f"tree {field} {value!r} is not a JSON integer")
    return value


def evaluation_tree_from_json(obj: dict) -> EvaluationTree:
    """The tree of ``to_json_obj`` output; ``ValueError`` on anything else."""
    kind = obj.get("type") if isinstance(obj, dict) else None
    if kind == "leaf":
        return TreeLeaf(_json_int(obj.get("index"), "index"), _json_int(obj.get("sign"), "sign"))
    if kind == "node" and isinstance(obj.get("parts"), list) and isinstance(obj.get("children"), list):
        parts = []
        for part in obj["parts"]:
            if not (isinstance(part, list) and len(part) == 2):
                raise ValueError(f"tree part {part!r} is not a [lo, hi] pair")
            parts.append(IndexInterval(*(_json_int(v, "part endpoint") for v in part)))
        children = tuple(evaluation_tree_from_json(c) for c in obj["children"])
        return TreeNode(IntervalPartition(tuple(parts)), children)
    raise ValueError(f"not an evaluation tree: {obj!r}")


def admissible_partitions(
    window: IndexInterval, k: int
) -> Iterator[IntervalPartition]:
    """Stream every admissible k-part interval family inside ``window``.

    Parts are nonempty subintervals E_1 < ... < E_k of the window with
    min E_1 >= k; they need not cover the window.  Deterministic
    lexicographic order (by part endpoints, left to right).
    """
    if k < 2:
        raise ValueError("admissible enumeration is defined for k >= 2")

    def place(start: int, remaining: int, acc: list[IndexInterval]):
        if remaining == 0:
            yield IntervalPartition(tuple(acc))
            return
        # leave room for the remaining parts after this one
        for lo in range(start, window.hi - remaining + 2):
            for hi in range(lo, window.hi - remaining + 2):
                acc.append(IndexInterval(lo, hi))
                yield from place(hi + 1, remaining - 1, acc)
                acc.pop()

    first_start = max(window.lo, k)
    if first_start > window.hi:
        return
    yield from place(first_start, k, [])


class _SplitColumn:
    """The split column (b, k): its totals and how each is reached, over starts s.

    Starts run over ``lo..b - k + 1``, stored from offset 0.  A column
    (b, k) with k >= 2 is reached only from a family of at least k parts,
    whose first point has index >= k, so ``lo`` is the first position with
    index >= k; ``how`` holds the end of the first run.  The column (b, 1)
    holds ``solve(s, b)`` from ``lo`` = 0 (every index is >= 1), and
    ``how`` holds how it is reached: a leaf position, or ``~pos`` for a
    family from ``pos``.  The last start takes k singleton runs and is
    filled on creation; ``low..b - k + 1`` is filled, and a start below
    ``low`` may be filled on its own.
    """

    __slots__ = ("lo", "low", "totals", "how")

    def __init__(self, lo: int, last: int, total: int):
        self.lo = lo
        self.low = last
        self.totals: list = [None] * (last - lo) + [total]
        self.how: list = [None] * (last - lo) + [last]


class _NormProgram:
    """Dynamic program over partitions of support runs for one vector.

    The vector is given by its support ``indices`` and the integer
    magnitudes ``values`` there (the coefficients times a common scale).
    Positions index the support points.  ``solve(a, b)`` is the norm of
    the restriction to positions a..b and ``split(s, b, k)`` the best
    total norm over partitions of positions s..b into exactly k
    consecutive runs.  Since split(s, b, 1) = solve(s, b), both live in
    one kind of table: ``columns[b][k]`` is the split column (b, k), and
    ``solve`` fills the column (b, 1).  On ties leaves beat families and
    the lowest position wins; in ``split`` the earliest run end wins.
    Values are integers: each magnitude is shifted left by the support
    size, so every halving is an exact ``>> 1`` (see the module docstring).

    Every state is filled once and never asked for again.  ``solve`` fills
    the column (b, 1) once per position, going down.  ``split(s, b, k)``
    is reached either from ``solve(s, b)`` with k = index(s), or from the
    fill loop of a (b, k + 1) state whose start lies below s, so s has
    index > k.  Indices increase with position, so these two kinds of
    start never meet, and each is asked for once.  The column (b, 1) is
    filled down to s + 1 before any split(s, b, k) runs, since the chain
    of calls began in ``solve`` at a position at most s.
    """

    __slots__ = ("indices", "values", "prefix", "rows", "columns")

    def __init__(self, indices: list[int], values: list[int]):
        n = len(indices)
        self.indices = indices
        self.values = [v << n for v in values]
        self.prefix = list(accumulate(self.values, initial=0))
        self.rows = [[v] for v in self.values]  # rows[s][j] = solve(s, s + j)
        self.columns: list = [None] * n  # columns[b][k] = split column (b, k)

    def solve(self, a: int, b: int) -> int:
        """Fills the column (b, 1) from its lowest filled start down to a."""
        # columns[b] is made with its column (b, 1): split(., b, .) runs only under solve(., b)
        columns = self.columns[b]
        column = self.column(b, 1) if columns is None else columns[1]
        totals = column.totals
        if a >= column.low:
            return totals[a]
        how = column.how
        magnitudes, indices, prefix = self.values, self.indices, self.prefix
        for p in range(column.low - 1, a - 1, -1):
            value, reach = magnitudes[p], p
            if totals[p + 1] > value:
                value, reach = totals[p + 1], how[p + 1]
            k = indices[p]
            if k > b - p:  # the budget covers every point: singleton runs
                family = (prefix[b + 1] - prefix[p]) >> 1
            elif k >= 2:
                family = self.split(p, b, k) >> 1
            else:  # index 1 admits no family of two parts
                family = -1
            if family > value or (family == value and reach < 0):
                value, reach = family, ~p
            totals[p] = value
            how[p] = reach
            column.low = p
        return totals[a]

    def column(self, b: int, k: int) -> _SplitColumn:
        columns = self.columns[b]
        if columns is None:
            columns = self.columns[b] = [None] * (b + 2)
        column = columns[k]
        if column is None:
            last = b - k + 1
            total = self.prefix[b + 1] - self.prefix[last]
            column = columns[k] = _SplitColumn(bisect_left(self.indices, k), last, total)
        return column

    def split(self, s: int, b: int, k: int) -> int:
        """Needs 2 <= k <= b - s: k singleton runs are answered by prefix sums."""
        columns = self.columns[b]  # made by solve(., b), which this call runs under
        column = columns[k] or self.column(b, k)
        last = b - k + 1  # the first run ends at s..last
        row = self.rows[s]
        while len(row) <= last - s:
            row.append(self.solve(s, s + len(row)))
        inner = columns[k - 1] or self.column(b, k - 1)
        # for k = 2 the column (b, 1) is filled down to s + 1 and the loop is
        # empty; it must never call split with k = 1
        for r in range(inner.low - 1, s, -1):
            self.split(r, b, k - 1)
        if inner.low > s + 1:
            inner.low = s + 1
        rest = inner.totals[s + 1 - inner.lo:]
        # row and rest align on the first run end q = s..last; map stops at rest's end
        sums = list(map(add, row, rest))
        total = max(sums)
        i = s - column.lo
        column.totals[i] = total
        column.how[i] = s + sums.index(total)
        return total

    def shape(self, a: int, b: int) -> Shape:
        """The argmax tree of ``solve(a, b)`` by positions (see ``_evaluate``)."""
        if a == b:
            return a
        how = self.columns[b][1].how[a]
        if how >= 0:
            return how
        pos = ~how
        runs = []
        for k in range(min(self.indices[pos], b - pos + 1), 1, -1):
            if k == b - pos + 1:
                q = pos
            else:
                column = self.columns[b][k]
                q = column.how[pos - column.lo]
            runs.append((pos, q, self.shape(pos, q)))
            pos = q + 1
        runs.append((pos, b, self.shape(pos, b)))
        return tuple(runs)


def _argmax(indices: list[int], values: list[int]) -> tuple[int, Shape]:
    """The program's value (shifted left by the support size) and its shape."""
    program = _NormProgram(indices, values)
    last = len(indices) - 1
    return program.solve(0, last), program.shape(0, last)


# (scale, support, magnitudes) -> (||x||, argmax shape)
_norm_cache = BoundedMemo(4096)


def _evaluate(support: tuple[int, ...], values: list[int], scale: int) -> tuple[Fraction, Shape]:
    """(||x||, shape) of a nonzero x = ``integer_entries(x)``, one solve per magnitude vector.

    The shape is the unsigned argmax tree by support positions: a leaf is
    its position, a node a tuple of (lo, hi, child) per part.  It has at
    most 2n - 1 nodes and holds none of the program's tables.
    """
    magnitudes = tuple(map(abs, values))
    key = (scale, support, magnitudes)
    entry = _norm_cache.get(key)
    if entry is None:
        value, shape = _argmax(list(support), list(magnitudes))
        entry = _norm_cache[key] = (Fraction(value, scale << len(magnitudes)), shape)
    return entry


def tsirelson_norm(x: FinVec) -> Fraction:
    """Exact Tsirelson norm of a finitely supported vector."""
    if x.is_zero:
        return Fraction(0)
    return _evaluate(*integer_entries(x))[0]


def _leaf_depths(shape: Shape, depth: int, out: list[tuple[int, int]]) -> None:
    if isinstance(shape, int):
        out.append((shape, depth))
        return
    for _, _, child in shape:
        _leaf_depths(child, depth + 1, out)


def norming_functional(indices: list[int], values: list[int]) -> tuple[list[int], int]:
    """The flattened maximizer of a nonnegative vector, as an integer row.

    The vector has the positive integer ``values`` at the increasing
    ``indices``.  Returns (coefficients, denominator): the functional of
    ``tsirelson_maximizer`` is coefficients[p] / denominator at indices[p].
    A leaf at depth t gets 2^(D - t) over 2^D, D the deepest leaf's depth,
    so the row is in lowest terms.  No tree is built and nothing is cached.
    """
    leaves: list[tuple[int, int]] = []
    _leaf_depths(_argmax(indices, values)[1], 0, leaves)
    deepest = max(depth for _, depth in leaves)
    coefficients = [0] * len(indices)
    for pos, depth in leaves:
        coefficients[pos] = 1 << (deepest - depth)
    return coefficients, 1 << deepest


def _tree(shape: Shape, indices: Sequence[int], values: list[int]) -> EvaluationTree:
    if isinstance(shape, int):
        return TreeLeaf(indices[shape], 1 if values[shape] > 0 else -1)
    parts = tuple(IndexInterval(indices[lo], indices[hi]) for lo, hi, _ in shape)
    children = tuple(_tree(child, indices, values) for _, _, child in shape)
    return TreeNode(IntervalPartition(parts), children)


def tsirelson_maximizer(x: FinVec) -> EvaluationTree:
    """An evaluation tree whose flattened functional f has f(x) = ||x||.

    Ties are broken by the deterministic argmax order of the dynamic
    program, so equal inputs always yield the same tree.  The leaf signs
    are those of x's ints, so x and -x share one cache entry.
    """
    if x.is_zero:
        raise ValueError("the zero vector has no maximizing functional")
    support, values, scale = integer_entries(x)
    return _tree(_evaluate(support, values, scale)[1], support, values)
