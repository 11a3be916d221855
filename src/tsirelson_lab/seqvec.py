"""Exact sparse sequence vectors and index intervals.

Everything downstream operates on :class:`FinVec`: a finitely supported
vector with exact rational coefficients, indexed by positive integers
(1-based).  The norm machinery works on a vector as its support and
signed ints over one scale (``integer_entries``, ``scaled_integers``).
``restrict`` (the projection onto an index interval) and ``shift_support``
(an order-preserving relabeling of the support) serve users of the public
API; no module of the package calls them.
:class:`EventuallyConstantSeq` models the bidual elements that stabilize to
a constant value.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Union

Rational = Union[int, Fraction, str]


def _frac(value: Rational) -> Fraction:
    if type(value) is Fraction:  # immutable, so it can be shared as is
        return value
    if isinstance(value, float):
        raise TypeError(f"floats are not exact; got {value!r}")
    return Fraction(value)


def scaled_integers(values: Sequence[Union[int, Fraction]]) -> tuple[list[int], int]:
    """Ints or Fractions as ints in one unit: (ints, scale), ints[k] = values[k] * scale.

    ``scale`` is the lcm of the denominators, the least that works.  Each
    value is read once, through ``as_integer_ratio()``.
    """
    ratios = [v.as_integer_ratio() for v in values]
    scale = math.lcm(*[d for _, d in ratios])
    return [n * (scale // d) for n, d in ratios], scale


class BoundedMemo(dict):
    """A dict of at most ``size`` keys: a new key drops the oldest-inserted keys.

    Every module-level store of the package is one of these, so memory
    stays bounded in a long-lived process.  Values never depend on what a
    store holds, only the work to reach them.  Insert through ``store[k] =
    v`` (chained assignment is fine); ``setdefault`` and ``update`` bypass
    the cap.  ``size`` is at least 1, and lowering it shrinks the store at
    its next new key.  A store lives in one process and is not thread-safe.
    """

    __slots__ = ("size",)

    def __init__(self, size: int) -> None:
        super().__init__()
        self.size = size

    def __setitem__(self, key, value) -> None:
        while len(self) >= self.size and key not in self:
            del self[next(iter(self))]
        dict.__setitem__(self, key, value)


@dataclass(frozen=True)
class IndexInterval:
    """Nonempty integer interval [lo, hi] of positive indices."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if type(self.lo) is not int or type(self.hi) is not int:  # no bool
            raise TypeError("interval endpoints must be integers")
        if self.lo < 1:
            raise ValueError(f"interval must start at a positive index, got {self.lo}")
        if self.hi < self.lo:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    def __contains__(self, index: int) -> bool:
        return self.lo <= index <= self.hi

    def __len__(self) -> int:
        return self.hi - self.lo + 1

    def indices(self) -> range:
        return range(self.lo, self.hi + 1)

    def __str__(self) -> str:
        return f"[{self.lo},{self.hi}]"


@dataclass(frozen=True)
class FinVec:
    """Finitely supported vector with exact rational coefficients.

    ``entries`` is a tuple of (index, coefficient) pairs with strictly
    increasing positive indices and no zero coefficients; the empty tuple
    is the zero vector.  Instances are immutable and hashable.
    """

    entries: tuple[tuple[int, Fraction], ...] = ()

    def __post_init__(self) -> None:
        last = 0
        for index, coeff in self.entries:
            if type(index) is not int or index < 1:  # no bool
                raise ValueError(f"indices must be positive integers, got {index!r}")
            if index <= last:
                raise ValueError("indices must be strictly increasing")
            if not isinstance(coeff, Fraction):
                raise TypeError(f"coefficient at {index} is not a Fraction")
            if coeff == 0:
                raise ValueError(f"zero coefficient stored at index {index}")
            last = index

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[int, Rational]]) -> FinVec:
        """Build a vector from (index, coeff) pairs, summing duplicates."""
        acc: dict[int, Fraction] = {}
        for index, coeff in pairs:
            c = _frac(coeff)
            if index in acc:
                acc[index] += c
            else:
                acc[index] = c
        return FinVec(tuple((i, c) for i, c in sorted(acc.items()) if c != 0))

    @staticmethod
    def from_ints(support: Sequence[int], values: Sequence[int], scale: int) -> FinVec:
        """The vector with values[k] / scale at support[k] (increasing, nonzero)."""
        return FinVec(tuple((i, Fraction(v, scale)) for i, v in zip(support, values)))

    @staticmethod
    def basis(index: int, coeff: Rational = 1) -> FinVec:
        return FinVec.from_pairs([(index, coeff)])

    @staticmethod
    def zero() -> FinVec:
        return FinVec()

    # -- structure ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.entries)

    def hull(self) -> IndexInterval | None:
        """Smallest interval containing the support; None for zero."""
        if not self.entries:
            return None
        return IndexInterval(self.entries[0][0], self.entries[-1][0])

    def coeff(self, index: int) -> Fraction:
        for i, c in self.entries:
            if i == index:
                return c
            if i > index:
                break
        return Fraction(0)

    def __iter__(self) -> Iterator[tuple[int, Fraction]]:
        return iter(self.entries)

    # -- linear algebra ------------------------------------------------------

    def __add__(self, other: FinVec) -> FinVec:
        return FinVec.from_pairs(list(self.entries) + list(other.entries))

    def __sub__(self, other: FinVec) -> FinVec:
        return self + (-other)

    def __neg__(self) -> FinVec:
        return FinVec(tuple((i, -c) for i, c in self.entries))

    def scale(self, factor: Rational) -> FinVec:
        f = _frac(factor)
        if f == 0:
            return FinVec()
        return FinVec(tuple((i, c * f) for i, c in self.entries))

    def __mul__(self, factor: Rational) -> FinVec:
        return self.scale(factor)

    __rmul__ = __mul__

    # -- serialization -------------------------------------------------------

    def to_json_obj(self) -> dict:
        return {"entries": [[i, str(c)] for i, c in self.entries]}

    @staticmethod
    def from_json_obj(obj: dict) -> FinVec:
        if not isinstance(obj, dict) or "entries" not in obj:
            raise ValueError("vector JSON must be an object with an 'entries' list")
        pairs = []
        for k, entry in enumerate(obj["entries"]):
            try:
                index, coeff = entry
                if type(index) is not int:  # no bool, float or string
                    raise TypeError(f"index {index!r} is not a JSON integer")
                pairs.append((index, Fraction(str(coeff))))
            except (TypeError, ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"bad vector entry #{k}: {entry!r} ({exc})") from exc
        return FinVec.from_pairs(pairs)

    def dumps(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True)

    @staticmethod
    def loads(text: str) -> FinVec:
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"vector is not valid JSON: {exc}") from exc
        if isinstance(obj, list):
            obj = {"entries": obj}
        return FinVec.from_json_obj(obj)

    def __str__(self) -> str:
        if not self.entries:
            return "0"
        return " + ".join(f"{c}*e{i}" for i, c in self.entries)


def integer_entries(x: FinVec) -> tuple[tuple[int, ...], list[int], int]:
    """(support, values, scale) of x: signed ints over the least scale; ((), [], 1) for zero."""
    support, coefficients = tuple(zip(*x.entries)) or ((), ())
    return (support, *scaled_integers(coefficients))


def restrict(x: FinVec, interval: IndexInterval) -> FinVec:
    """Coordinate projection onto an index interval (E x)."""
    return FinVec(tuple((i, c) for i, c in x.entries if i in interval))


def shift_support(x: FinVec, target_start: int) -> FinVec:
    """Relabel the k-th support index to target_start + k - 1.

    Preserves coefficients and their order; the result has contiguous
    support starting at ``target_start``.
    """
    if target_start < 1:
        raise ValueError("target_start must be a positive index")
    return FinVec(
        tuple((target_start + k, c) for k, (_, c) in enumerate(x.entries))
    )


@dataclass(frozen=True)
class NormBounds:
    """Certified enclosure lower <= value <= upper for a norm."""

    lower: Fraction
    upper: Fraction

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise ValueError(f"invalid bounds [{self.lower}, {self.upper}]")

    @property
    def exact(self) -> bool:
        return self.lower == self.upper

    @property
    def value(self) -> Fraction:
        if not self.exact:
            raise ValueError(f"bounds not exact: [{self.lower}, {self.upper}]")
        return self.lower

    @property
    def width(self) -> Fraction:
        return self.upper - self.lower

    def __str__(self) -> str:
        if self.exact:
            return str(self.lower)
        return f"[{self.lower}, {self.upper}]"


NormValue = Union[Fraction, NormBounds]


def lower_of(value: NormValue) -> Fraction:
    return value.lower if isinstance(value, NormBounds) else value


def upper_of(value: NormValue) -> Fraction:
    return value.upper if isinstance(value, NormBounds) else value


DEFAULT_ROOT_TOLERANCE = Fraction(1, 10**12)


def _int_nth_root(n: int, k: int) -> tuple[int, bool]:
    """Floor k-th root of n >= 0, plus whether it is exact."""
    if n < 0 or k < 1:
        raise ValueError("nth root needs n >= 0 and k >= 1")
    if n in (0, 1) or k == 1:
        return n, True
    # integer Newton from 2^ceil(bits / k) > n^(1/k): the iterates fall
    # monotonically to the floor root, and stop falling there
    r = 1 << -(-n.bit_length() // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r, r**k == n
        r = s


def nth_root_bounds(
    value: Fraction, k: int, tolerance: Fraction = DEFAULT_ROOT_TOLERANCE
) -> tuple[Fraction, Fraction]:
    """Rational enclosure of value**(1/k) with width <= tolerance.

    Returns an exact degenerate pair when the root is rational.  Otherwise
    the result is that of bisecting the starting bracket
    lo = r_n / (r_d + 1), hi = (r_n + 1) / r_d, for r_n and r_d >= 1 the
    floor k-th roots of the numerator n and the denominator d, until its
    width is at most the tolerance, keeping the lower half while
    mid**k <= value, in closed form.  The bracket holds the root:
    r_n^k <= n and (r_d + 1)^k > d give lo**k <= value, and
    (r_n + 1)^k > n and r_d^k <= d give hi**k > value.  With W = hi - lo,
    bisection stops after the least t with W <= tolerance * 2^t halvings,
    at lo + W j / 2^t and lo + W (j + 1) / 2^t, where j is the largest j
    with (lo + W j / 2^t)**k <= value; j < 2^t, since hi**k > value.
    Over a common denominator D those grid points are (A + B j) / D for
    ints A and B, so j is (R - A) // B for R the floor k-th root of
    floor(value * D^k).
    """
    if value < 0:
        raise ValueError("root of a negative value")
    num_root, num_exact = _int_nth_root(value.numerator, k)
    den_root, den_exact = _int_nth_root(value.denominator, k)
    if num_exact and den_exact:
        exact = Fraction(num_root, den_root)
        return exact, exact
    lo = Fraction(num_root, den_root + 1)
    hi = Fraction(num_root + 1, den_root)
    width = hi - lo
    halvings = (-(-width // tolerance) - 1).bit_length()  # the least t with 2^t >= width / tolerance
    denominator = math.lcm(lo.denominator, width.denominator)
    start = lo.numerator * (denominator // lo.denominator) << halvings
    step = width.numerator * (denominator // width.denominator)
    denominator <<= halvings
    root, _ = _int_nth_root(value.numerator * denominator**k // value.denominator, k)
    j = (root - start) // step
    return Fraction(start + step * j, denominator), Fraction(start + step * (j + 1), denominator)


def _rational_power_bounds(
    base: Fraction, exponent: Fraction, tolerance: Fraction
) -> tuple[Fraction, Fraction]:
    """Enclosure of base**exponent for base >= 0, exponent > 0 rational."""
    powered = base**exponent.numerator
    return nth_root_bounds(powered, exponent.denominator, tolerance)


def lp_norm(x: FinVec, q: Union[int, Fraction, float]) -> NormValue:
    """The l_q norm of x for q >= 1 (q = math.inf for the sup norm).

    Exact rational for q in {1, inf} and whenever the q-th root happens to
    be rational; otherwise a :class:`NormBounds` enclosure of width at most
    ``DEFAULT_ROOT_TOLERANCE``.
    """
    if isinstance(q, float):
        if math.isinf(q) and q > 0:
            if x.is_zero:
                return Fraction(0)
            return max(abs(c) for _, c in x.entries)
        raise ValueError(f"q must be a rational >= 1 or infinity, got {q!r}")
    q = Fraction(q)
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    if x.is_zero:
        return Fraction(0)
    if q == 1:
        return sum((abs(c) for _, c in x.entries), Fraction(0))
    inner_tol = DEFAULT_ROOT_TOLERANCE / (4 * len(x.entries))
    lo_sum = Fraction(0)
    hi_sum = Fraction(0)
    for _, c in x.entries:
        lo, hi = _rational_power_bounds(abs(c), q, inner_tol)
        lo_sum += lo
        hi_sum += hi
    inv = 1 / q
    lo_root = _rational_power_bounds(lo_sum, inv, DEFAULT_ROOT_TOLERANCE / 4)[0]
    hi_root = _rational_power_bounds(hi_sum, inv, DEFAULT_ROOT_TOLERANCE / 4)[1]
    if lo_root == hi_root:
        return lo_root
    return NormBounds(lo_root, hi_root)


@dataclass(frozen=True)
class EventuallyConstantSeq:
    """A sequence with arbitrary head and a constant tail value.

    Coefficient at index j is ``head[j-1]`` for j <= stabilization index s
    (zeros allowed in the head) and ``tail_value`` for every j > s.  These
    model the coefficient sequences of bidual elements.  Construction
    canonicalizes: trailing head entries equal to the tail are dropped, so
    equality of instances is equality of the sequences they describe.
    """

    head: tuple[Fraction, ...] = ()
    tail_value: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        for c in self.head:
            if not isinstance(c, Fraction):
                raise TypeError("head coefficients must be Fractions")
        if not isinstance(self.tail_value, Fraction):
            raise TypeError("tail value must be a Fraction")
        trimmed = self.head
        while trimmed and trimmed[-1] == self.tail_value:
            trimmed = trimmed[:-1]
        if trimmed is not self.head:
            object.__setattr__(self, "head", trimmed)

    @staticmethod
    def from_values(
        head: Sequence[Rational], tail_value: Rational = 0
    ) -> EventuallyConstantSeq:
        return EventuallyConstantSeq(
            tuple(_frac(c) for c in head), _frac(tail_value)
        )

    @staticmethod
    def from_finvec(x: FinVec) -> EventuallyConstantSeq:
        """Embed a finitely supported vector (tail value 0)."""
        if x.is_zero:
            return EventuallyConstantSeq()
        top = x.entries[-1][0]
        return EventuallyConstantSeq.from_values(
            [x.coeff(i) for i in range(1, top + 1)], 0
        )

    @staticmethod
    def constant(value: Rational) -> EventuallyConstantSeq:
        return EventuallyConstantSeq.from_values([], value)

    @property
    def stabilization_index(self) -> int:
        return len(self.head)

    def coeff(self, index: int) -> Fraction:
        if index < 1:
            raise ValueError("indices are 1-based")
        if index <= len(self.head):
            return self.head[index - 1]
        return self.tail_value

    def partial_sum(self, n: int) -> FinVec:
        """The vector agreeing with the sequence on [1, n], zero beyond."""
        return FinVec.from_pairs((i, self.coeff(i)) for i in range(1, n + 1))

    def add(self, other: EventuallyConstantSeq) -> EventuallyConstantSeq:
        n = max(len(self.head), len(other.head))
        return EventuallyConstantSeq.from_values(
            [self.coeff(i) + other.coeff(i) for i in range(1, n + 1)],
            self.tail_value + other.tail_value,
        )

    def scale(self, factor: Rational) -> EventuallyConstantSeq:
        f = _frac(factor)
        return EventuallyConstantSeq.from_values(
            [c * f for c in self.head], self.tail_value * f
        )

    def to_json_obj(self) -> dict:
        return {
            "head": [str(c) for c in self.head],
            "tail_value": str(self.tail_value),
        }

    @staticmethod
    def from_json_obj(obj: dict) -> EventuallyConstantSeq:
        if not isinstance(obj, dict) or "tail_value" not in obj:
            raise ValueError("sequence JSON must be an object with 'tail_value'")
        try:
            if not isinstance(head := obj.get("head", []), list):
                raise TypeError(f"head {head!r} is not a list")
            head = [Fraction(str(c)) for c in head]
            tail = Fraction(str(obj["tail_value"]))
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad sequence JSON: {exc}") from exc
        return EventuallyConstantSeq.from_values(head, tail)
