"""The James transform of a 1-unconditional base norm, and the bidual model.

For a finitely supported a and a 1-unconditional base norm ||.||_B, the
transformed norm is

    ||a||_J = sup ||sum_j (a_{p(2j-1)} - a_{p(2j)}) t_j||_B

over all strictly increasing index selections p_1 < ... < p_{2k}.  With the
dual Tsirelson engine as base this is the Tsirelson*-James norm.

Selection domain lemma.  Let m = max support(a).  The supremum is attained
by selections drawn from the *canonical index set* C(a): the first two
indices of every maximal constant run of the padded sequence
(a_1, ..., a_m, 0), where the final zero run contributes only m+1.  The
lemma covers the bases that declare ``is_compaction_monotone``: the l_q
norms and the dual Tsirelson norm.
Sketch: a selection's value depends only on the values a_{p_i}; pairs whose
two indices land in one constant run contribute a zero difference, and
dropping a zero slot compacts later slots leftward, which never decreases
the norm of such a base.  The primal T norm is not one: for
a = e_5 + e_7 + e_9 the selection (1, ..., 10) gives e_3 + e_4 + e_5, of
T norm 3/2, but no canonical selection gives more than 1.  After dropping,
at most two selection indices meet any run - one closing a pair, one opening
the next - so both can be moved to the run's first two indices, and at
most one index exceeds m (a final closer, movable to m+1).  Individual
differences change sign at worst, which 1-unconditionality ignores.  In
particular the number of pairs never needs to exceed |C(a)| / 2.

Scale lemma.  The search of ``james_norm`` reads a only through the ints
v_1, ..., v_n of its values at C(a) (in units of 1/scale); a's indices
only label the witness.  Multiply every v_k by one nonzero c.  Then every
difference is multiplied by c, and every |d|, l1 sum, suffix weight and
leaf upper bound (positively homogeneous) by |c|; so is every exact leaf
value, since the base is a norm, and so the incumbent.  Each comparison
of the search (the |d| order of the extensions, both prunes, the
upper-bound skip and the strict > on the incumbent) therefore comes out
as before: the search visits the same nodes, evaluates the same leaves,
and returns |c| times the value with the same canonical positions.  An
enclosure (``NormBounds`` of an l_q norm) has an absolute width that does
not scale, so the lemma needs every evaluated leaf to be exact.  Hence
``james_norm`` memoizes a search on its *pattern*, v over gcd(v) with the
sign that makes its first nonzero int positive, and on the base engine
object; a hit rescales the stored value and maps the stored positions
through the call's own C(a).  The package's T* engine is the one object
``dualnorm.T_STAR`` (the default base of ``JamesEngine``, and the base of
``certify`` and the CLI), so every T_J* search over it shares one memo
namespace; a ``DualTsirelsonEngine()`` built by a caller is another
object and keeps memo entries of its own.  The integer entry
``james_norm_ints`` takes a vector as its indices, int values and any
scale (the lemma again), and ``james_norm`` is
``seqvec.integer_entries`` plus a call to it.

Threshold lemma.  ``james_exceeds_ints`` decides "value > θ" by the same
search with its incumbent started at θ instead of 0, returning at the
first leaf above θ: every prune still compares a bound with an incumbent
at most the supremum, so such a leaf is reached exactly when the
supremum exceeds θ.  A caller keeping the first strictly worst sample
asks with θ its running worst: a sample decided not to exceed θ cannot
become the first strictly worst, so the value and witness never change,
and one above θ gets the exact search.  A decision is memoized under the
pattern and θ over the pattern's unit (by the scale lemma), a fact about
the pattern that does not depend on what the memo holds; a search that
was only decided is never stored as a value.

The bidual of the James space is modeled by eventually constant coefficient
sequences; its norm is the supremum of the (nondecreasing) partial-sum
norms, which stabilizes as soon as the constant tail owns two coordinates,
i.e. at n = stabilization_index + 2: beyond that point the partial sums
share the same canonical index sets and hence the same selection values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .dualnorm import T_STAR, NormEngine
from .seqvec import (
    BoundedMemo,
    EventuallyConstantSeq,
    FinVec,
    NormBounds,
    NormValue,
    integer_entries,
    lower_of,
    upper_of,
)


@dataclass(frozen=True)
class PairSelection:
    """Strictly increasing indices p_1 < ... < p_{2k} (k >= 1)."""

    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.indices) == 0 or len(self.indices) % 2 != 0:
            raise ValueError("a selection consists of k >= 1 index pairs")
        last = 0
        for p in self.indices:
            if type(p) is not int or p <= last:
                raise ValueError("selection indices must be strictly increasing")
            last = p

    @property
    def k(self) -> int:
        return len(self.indices) // 2

    def pairs(self) -> list[tuple[int, int]]:
        it = iter(self.indices)
        return list(zip(it, it))

    def to_json_obj(self) -> list[int]:
        return list(self.indices)


def difference_vector(a: FinVec, selection: PairSelection) -> FinVec:
    """The vector whose j-th coordinate is a_{p(2j-1)} - a_{p(2j)}."""
    return FinVec.from_pairs(
        (j + 1, a.coeff(q) - a.coeff(r))
        for j, (q, r) in enumerate(selection.pairs())
    )


def canonical_selection_indices(a) -> list[tuple[int, Fraction]]:
    """The canonical index set C(a) of the selection domain lemma, with a's values.

    ``a`` is a FinVec or its entries: (index, nonzero value) pairs in
    increasing index order, the values Fractions or ints in one unit.
    Returns (index, a_index) in increasing index order.  The runs of the
    padded sequence come from one pass over a's entries: an interior gap
    is a zero run, and the padded zero at m+1 is a run of its own, since
    a_m is nonzero.
    """
    chosen: list[tuple[int, Fraction]] = []

    def add_run(first: int, last: int, value: Fraction) -> None:
        chosen.append((first, value))
        if last > first:
            chosen.append((first + 1, value))

    start = end = 0  # the open run of equal entries is start..end (none yet)
    value = 0
    for i, c in a.entries if isinstance(a, FinVec) else a:
        if i == end + 1 and c == value:
            end = i
            continue
        if end:
            add_run(start, end, value)
        if i > end + 1:
            add_run(end + 1, i - 1, 0)
        start = end = i
        value = c
    if end:
        add_run(start, end, value)
        add_run(end + 1, end + 1, 0)
    return chosen


# (base engine, pattern) -> (T_J* of the pattern's ints, canonical positions
# of a maximizing selection)
_james_memo = BoundedMemo(4096)


def _check_base(base: NormEngine) -> None:
    """Raise ``ValueError`` unless the selection domain lemma holds for ``base``."""
    if not (base.is_1_unconditional and base.is_compaction_monotone):
        raise ValueError(
            f"james transform requires a 1-unconditional, compaction-monotone base, got {base.name}"
        )


def james_norm(
    a: FinVec,
    base: NormEngine,
    with_witness: bool = False,
):
    """Supremum of base norms of difference vectors over all selections.

    Branch and bound over canonical selections: partial selections extend
    pair by pair (zero differences skipped, which by the selection domain
    lemma loses nothing), leaves are evaluated with the base engine, and a
    branch is cut when the l1 value of its prefix plus an l1 bound on the
    best possible completion cannot beat the incumbent.  A leaf is skipped
    when ``base.upper_bound`` of its magnitudes is at most the incumbent:
    it could not be strictly better, so neither the value nor the witness
    changes.  The pair extensions of a node depend only on its first free
    canonical position, so each position's sorted extension list is built
    once per call and shared by every path that reaches it.

    Each search state is visited once.  The subtree under a node depends
    only on its state: its first free canonical position and the |d| of
    its pairs so far.  From the last canonical position on no pair fits,
    so those positions are one state, and a leaf with the |d| of an
    earlier leaf is that leaf's twin.  A state popped again is skipped.
    Its earlier twin was popped first, so that twin's whole subtree was
    searched before, against an incumbent no larger than today's; the
    twin's leaves have the same values, and a leaf replaces the incumbent
    only when strictly better, so neither the value nor the witness
    changes.  An extension is
    not pushed when its l1 bound already fails against the incumbent: the
    incumbent only grows, so it would be pruned when popped.

    The search runs on ints: a's values at its canonical indices (all its
    values) are scaled once, so differences, l1 sums, bounds and memo keys
    are integers in units of 1/scale, and both prunes compare
    ``bound * best.denominator <= best.numerator * scale``.  Scaling by a
    positive integer keeps every ordering and tie, so the search visits
    the same nodes as one on Fractions.  A leaf goes to the base as these
    ints too (``base.eval_magnitudes(|d|, scale)``); the base's value is
    exact.

    Searches are memoized across calls on their pattern and the base
    engine object, by the scale lemma of the module docstring: a hit
    returns the stored value times gcd(v) / scale and the stored canonical
    positions mapped through this call's C(a).  Only searches whose leaves
    were all exact are stored, and threshold decisions
    (``james_exceeds_ints``) go under keys of their own.  The memo is a
    ``seqvec.BoundedMemo`` of 4 096 entries: full, it drops its oldest,
    and the value and witness never depend on what it holds.

    Returns an exact Fraction for exact bases (NormBounds otherwise); with
    ``with_witness`` also returns a maximizing :class:`PairSelection`
    (None for the zero vector).  A base that is not 1-unconditional and
    compaction-monotone raises ``ValueError``: the search would not be the
    supremum.
    """
    return james_norm_ints(*integer_entries(a), base, with_witness)


def james_norm_ints(
    indices: Sequence[int], values: Sequence[int], scale: int, base: NormEngine,
    with_witness: bool = False,
):
    """``james_norm`` of the vector with entries values[k] / scale at indices[k].

    ``indices`` increase, every int value is nonzero, and ``scale`` is any
    positive int: by the scale lemma the search and the memo entry do not
    depend on it, so callers that hold a vector as ints skip the FinVec.
    """
    _check_base(base)
    if not values:
        return (Fraction(0), None) if with_witness else Fraction(0)
    chosen, canonical, key, unit_value = _pattern(indices, values, scale, base)
    entry = _james_memo.get(key)
    if entry is not None:
        pattern_value, positions = entry
        result: NormValue = pattern_value * unit_value
    else:
        result, positions, exact = _search(canonical, scale, base)
        if exact:
            _james_memo[key] = (result / unit_value, positions)
    if not with_witness:
        return result
    return result, PairSelection(tuple(chosen[p] for p in positions)) if positions else None


def james_exceeds_ints(
    indices: Sequence[int], values: Sequence[int], scale: int, base: NormEngine, threshold: Fraction
) -> bool:
    """Whether ``james_norm_ints(indices, values, scale, base)`` exceeds ``threshold``.

    By the threshold lemma of the module docstring; a memoized value of the
    pattern decides without a search.  With a base whose leaves are not
    exact, True still means that the value exceeds the threshold, but
    False is not stored.
    """
    _check_base(base)
    if not values:
        return threshold < 0
    _, canonical, key, unit_value = _pattern(indices, values, scale, base)
    entry = _james_memo.get(key)
    if entry is not None:
        return entry[0] * unit_value > threshold
    key += (threshold / unit_value,)
    above = _james_memo.get(key)
    if above is None:
        _, positions, exact = _search(canonical, scale, base, threshold)
        above = positions is not None
        if exact:
            _james_memo[key] = above
    return above


def _pattern(indices: Sequence[int], values: Sequence[int], scale: int, base: NormEngine):
    """C(a), a's ints at C(a), the memo key of their pattern, and its unit.

    a's values at C(a) are sign * unit * pattern, the unit a Fraction over ``scale``.
    """
    chosen, canonical = zip(*canonical_selection_indices(zip(indices, values)))
    unit = math.gcd(*canonical)
    sign = 1 if next(v for v in canonical if v) > 0 else -1
    return chosen, canonical, (base, tuple(sign * v // unit for v in canonical)), Fraction(unit, scale)


def _search(
    values: Sequence[int], scale: int, base: NormEngine, threshold: Optional[Fraction] = None
) -> tuple[NormValue, Optional[tuple[int, ...]], bool]:
    """The branch and bound of ``james_norm`` on C(a)'s values as ints over ``scale``.

    Returns the value, the canonical positions of a maximizing selection
    (None if no leaf was evaluated), and whether every evaluated leaf was
    exact.  With a ``threshold`` the incumbent starts there, and the search
    returns at the first leaf above it (positions None if there is none).
    """
    count = len(values)
    suffix_abs = [0] * (count + 1)
    for k in range(count - 1, -1, -1):
        suffix_abs[k] = suffix_abs[k + 1] + abs(values[k])

    extension_table: dict[int, list[tuple[int, int, int]]] = {}

    def extensions(start: int) -> list[tuple[int, int, int]]:
        """(|d|, qi, ri) for every nonzero pair from ``start`` on, |d| ascending."""
        table = extension_table.get(start)
        if table is None:
            table = []
            for qi in range(start, count - 1):
                for ri in range(qi + 1, count):
                    d = values[qi] - values[ri]
                    if d != 0:
                        table.append((abs(d), qi, ri))
            table.sort()
            extension_table[start] = table
        return table

    seen: set[tuple[int, tuple[int, ...]]] = set()
    best_lower = best_upper = Fraction(0) if threshold is None else threshold
    best_positions: Optional[tuple[int, ...]] = None
    exact = True
    # the incumbent as a ratio in the search's units: x <= best_lower
    # iff x * denominator <= numerator
    numerator, denominator = best_lower.numerator * scale, best_lower.denominator

    # a node is (first free canonical position, |d| so far, canonical
    # positions of its selection, l1)
    stack: list[tuple[int, tuple[int, ...], tuple[int, ...], int]] = [(0, (), (), 0)]
    while stack:
        start, diffs, used, l1 = stack.pop()
        # bound: every future pair contributes at most its endpoints' weights
        if diffs and (l1 + suffix_abs[start]) * denominator <= numerator:
            continue
        # no pair fits from the last position on, so every start there is one state
        state = (min(start, count - 1), diffs)
        if state in seen:
            continue
        seen.add(state)
        table = extensions(start)
        if table:
            # appending a nonzero pair never decreases a 1-unconditional
            # norm, so only unextendable selections need evaluating;
            # explore large differences first to tighten the incumbent
            for size, qi, ri in table:
                total = l1 + size
                if (total + suffix_abs[ri + 1]) * denominator > numerator:
                    stack.append((ri + 1, diffs + (size,), used + (qi, ri), total))
        elif diffs:
            if base.upper_bound(diffs) * denominator <= numerator:
                continue
            value = base.eval_magnitudes(diffs, scale)
            exact = exact and not isinstance(value, NormBounds)
            lo, hi = lower_of(value), upper_of(value)
            if hi > best_upper:
                best_upper = hi
            if lo > best_lower:
                best_lower = lo
                best_positions = used
                numerator, denominator = lo.numerator * scale, lo.denominator
                if threshold is not None:
                    break

    result: NormValue
    if best_lower == best_upper:
        result = best_lower
    else:
        result = NormBounds(best_lower, best_upper)
    return result, best_positions, exact


class JamesEngine(NormEngine):
    """James transform of a base engine as a NormEngine.

    The base must be 1-unconditional and compaction-monotone, as in
    ``james_norm``.  The transformed basis is monotone but not
    unconditional.
    """

    is_1_unconditional = False

    def __init__(self, base: NormEngine = T_STAR):
        self.base = base
        _check_base(self.base)
        self.name = f"J[{self.base.name}]"

    def eval(self, x: FinVec) -> NormValue:
        return james_norm(x, self.base)


def alpha_limit(x: EventuallyConstantSeq) -> Fraction:
    """The limit of the coefficient sequence (its constant tail value)."""
    return x.tail_value


VERIFICATION_SWEEP = 3


def bidual_norm(x: EventuallyConstantSeq, base: NormEngine = T_STAR) -> NormValue:
    """Norm of a bidual element: the supremum of partial-sum James norms.

    Partial-sum norms are nondecreasing (monotone basis) and become
    constant once the tail owns two coordinates, so the supremum is the
    value at n = stabilization_index + 2; the next ``VERIFICATION_SWEEP``
    partial sums are evaluated and checked for constancy as a guard.
    Those partial sums have the target's pattern (head, then a tail run of
    two or more), so with an exact base they are memo hits of the target's
    search: the guard then checks that the patterns agree, and it fires
    when a wrong stabilization index makes them differ.
    """
    engine = JamesEngine(base)
    target = x.stabilization_index + 2
    value = engine.eval(x.partial_sum(target))
    for n in range(target + 1, target + 1 + VERIFICATION_SWEEP):
        probe = engine.eval(x.partial_sum(n))
        if upper_of(probe) != upper_of(value) or lower_of(probe) != lower_of(value):
            raise AssertionError(
                f"partial-sum norms failed to stabilize at n={target}: "
                f"{value} vs {probe} at n={n}"
            )
    return value


def u_map(x: EventuallyConstantSeq) -> EventuallyConstantSeq:
    """The bidual-to-space isomorphism candidate.

    Sends a sequence with limit L to (-L, x_1 - L, x_2 - L, ...), which has
    a zero tail and therefore describes an element of the James space
    itself.  Linear, and injective because L and then every x_j can be
    read back from the image.
    """
    limit = alpha_limit(x)
    shifted = [-limit] + [
        x.coeff(j) - limit for j in range(1, x.stabilization_index + 1)
    ]
    return EventuallyConstantSeq.from_values(shifted, 0)
