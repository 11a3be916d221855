"""Exact evaluation of the Tsirelson norm and its maximizing functionals.

The norm computed here is the unique fixed point of the implicit equation

    ||x|| = max( max_i |x_i| ,
                 (1/2) * max { sum_j ||E_j x||  :  (E_1, ..., E_k) admissible } )

where a family of index sets E_1 < E_2 < ... < E_k (each set entirely below
the next) is *admissible* when k <= min E_1.  The recursion is well founded
on finitely supported vectors because every part of an admissible family
with k >= 2 is a proper subset of the current support.

Two reductions make the computation exact and polynomial in the support
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

The program runs on integers.  The magnitudes are scaled to integers once
(``seqvec.scaled_integers``), and each is shifted left by the support
size n, so the family term's 1/2 is an exact ``>> 1``: a tree over m
support points has depth at most m - 1 (each part of a family is a proper
sub-run), so a value reached at depth t, within any subproblem, carries
the factor 2^(n - t) with t < n, and every sum that gets halved is even.
All values share the one positive factor, so comparisons, argmaxes and
ties are those of the exact rationals; the value leaves as
``Fraction(v, scale << n)``.

``tsirelson_maximizer`` replays the dynamic program's argmax choices into
an :class:`EvaluationTree` whose flattened functional f attains
f(x) = ||x|| and lies in the dual unit ball.  ``norming_functional``
walks the same choices for a nonnegative integer vector and returns f as
an integer row (a leaf at depth t gets 2^(D - t) over 2^D) without
building a tree; it is the separation oracle of the T* cutting plane.

Evaluation is pure; the module-level value cache is write-once (keyed on
the scaled magnitudes and their scale, as 1-unconditionality allows) and
invisible to callers, so parallel evaluation of distinct vectors is safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Union

from .seqvec import FinVec, IndexInterval, scaled_integers

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


class _NormProgram:
    """Dynamic program over partitions of support runs for one vector.

    The vector is given by its support ``indices`` and the integer
    magnitudes ``values`` there (the coefficients times a common scale).
    Positions index the support points.  ``solve(a, b)`` is (norm of the
    restriction to positions a..b, ``leaf``, ``pos``): the value is reached
    by the coordinate at position ``pos`` when ``leaf``, else by a family
    whose first part starts at ``pos`` and whose parts partition pos..b.
    ``split(s, b, k)`` is (best total norm over partitions of positions
    s..b into exactly k consecutive runs, position where the first run
    ends).  On ties leaves beat families and the lowest position wins; in
    ``split`` the earliest run end wins.  Values are integers: each
    magnitude is shifted left by the support size, so every halving is an
    exact ``>> 1`` (see the module docstring).
    """

    def __init__(self, indices: list[int], values: list[int]):
        self.indices = indices
        self.size = len(indices)
        self.values = [v << self.size for v in values]
        self._solve_memo: dict[tuple[int, int], tuple[int, bool, int]] = {}
        self._split_memo: dict[tuple[int, int, int], tuple[int, int]] = {}

    def parts_budget(self, a: int, b: int) -> int:
        """Part count of the families starting at position a inside a..b."""
        return min(self.indices[a], b - a + 1)

    def solve(self, a: int, b: int) -> tuple[int, bool, int]:
        key = (a, b)
        cached = self._solve_memo.get(key)
        if cached is not None:
            return cached
        entry = (self.values[a], True, a)
        if a < b:
            rest = self.solve(a + 1, b)
            if rest[0] > entry[0]:
                entry = rest
            k = self.parts_budget(a, b)
            if k >= 2:
                family = self.split(a, b, k)[0] >> 1
                if family > entry[0] or (family == entry[0] and not entry[1]):
                    entry = (family, False, a)
        self._solve_memo[key] = entry
        return entry

    def split(self, s: int, b: int, k: int) -> tuple[int, int]:
        if k == 1:
            return self.solve(s, b)[0], b
        key = (s, b, k)
        cached = self._split_memo.get(key)
        if cached is not None:
            return cached
        best = None
        for q in range(s, b - k + 2):
            total = self.solve(s, q)[0] + self.split(q + 1, b, k - 1)[0]
            if best is None or total > best[0]:
                best = (total, q)
        self._split_memo[key] = best
        return best

    def runs(self, pos: int, b: int) -> list[tuple[int, int]]:
        """The runs of the best family that starts at position pos inside pos..b."""
        runs = []
        for k in range(self.parts_budget(pos, b), 0, -1):
            q = self.split(pos, b, k)[1]
            runs.append((pos, q))
            pos = q + 1
        return runs

    def build_tree(self, a: int, b: int, signs: list[int]) -> EvaluationTree:
        _, leaf, pos = self.solve(a, b)
        if leaf:
            return TreeLeaf(self.indices[pos], signs[pos])
        runs = self.runs(pos, b)
        parts = tuple(
            IndexInterval(self.indices[lo], self.indices[hi]) for lo, hi in runs
        )
        children = tuple(self.build_tree(lo, hi, signs) for lo, hi in runs)
        return TreeNode(IntervalPartition(parts), children)

    def leaf_depths(self, a: int, b: int, depth: int, out: list[tuple[int, int]]) -> None:
        """Append (position, depth) for each leaf of ``build_tree(a, b)``."""
        _, leaf, pos = self.solve(a, b)
        if leaf:
            out.append((pos, depth))
            return
        for lo, hi in self.runs(pos, b):
            self.leaf_depths(lo, hi, depth + 1, out)


_norm_cache: dict[tuple, Fraction] = {}


def tsirelson_norm(x: FinVec) -> Fraction:
    """Exact Tsirelson norm of a finitely supported vector."""
    if x.is_zero:
        return Fraction(0)
    magnitudes, scale = scaled_integers([abs(c) for _, c in x.entries])
    key = (scale, x.support(), tuple(magnitudes))
    cached = _norm_cache.get(key)
    if cached is not None:
        return cached
    program = _NormProgram(list(x.support()), magnitudes)
    value = Fraction(program.solve(0, program.size - 1)[0], scale << program.size)
    _norm_cache[key] = value
    return value


def norming_functional(indices: list[int], values: list[int]) -> tuple[list[int], int]:
    """The flattened maximizer of a nonnegative vector, as an integer row.

    The vector has the positive integer ``values`` at the increasing
    ``indices``.  Returns (coefficients, denominator): the functional of
    ``tsirelson_maximizer`` is coefficients[p] / denominator at indices[p].
    A leaf at depth t gets 2^(D - t) over 2^D, D the deepest leaf's depth,
    so the row is in lowest terms.  No tree is built.
    """
    program = _NormProgram(indices, values)
    leaves: list[tuple[int, int]] = []
    program.leaf_depths(0, program.size - 1, 0, leaves)
    deepest = max(depth for _, depth in leaves)
    coefficients = [0] * program.size
    for pos, depth in leaves:
        coefficients[pos] = 1 << (deepest - depth)
    return coefficients, 1 << deepest


def tsirelson_maximizer(x: FinVec) -> EvaluationTree:
    """An evaluation tree whose flattened functional f has f(x) = ||x||.

    Ties are broken by the deterministic argmax order of the dynamic
    program, so equal inputs always yield the same tree.
    """
    if x.is_zero:
        raise ValueError("the zero vector has no maximizing functional")
    magnitudes, _ = scaled_integers([abs(c) for _, c in x.entries])
    program = _NormProgram(list(x.support()), magnitudes)
    signs = [1 if c > 0 else -1 for _, c in x.entries]
    return program.build_tree(0, program.size - 1, signs)
