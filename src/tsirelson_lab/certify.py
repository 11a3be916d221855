"""Exact certificates for the quantitative norm inequalities.

Every check computes both sides of one inequality in exact arithmetic,
packages the inputs and the extremal witness into a :class:`Certificate`,
and reports pass/fail by exact comparison.  ``run_suite`` executes a named
collection of checks deterministically (and optionally in parallel) and
aggregates them into a :class:`CertificateReport` whose serialized form is
byte-identical across runs for fixed seeds.
"""

from __future__ import annotations

import json
import math
import random
from bisect import bisect_right
from concurrent.futures import ProcessPoolExecutor
from contextlib import suppress
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .blockseq import POOL_INTS, POOL_SCALE, BlockSequence, random_block_ints
from .dualnorm import T_STAR, dual_norm, dual_norm_magnitudes
from .jamesify import PairSelection, difference_vector, james_exceeds_ints, james_norm, james_norm_ints
from .seqvec import (
    FinVec,
    NormBounds,
    integer_entries,
    lp_norm,
    lower_of,
    scaled_integers,
    upper_of,
)

# the window sizes n that check_window_bound is calibrated for, and the
# least q a lower q-estimate takes
WINDOW_NS = (2, 10)
LEAST_Q = 1


@dataclass(frozen=True)
class Certificate:
    """One checked inequality: exact sides, witness, verdict."""

    check_id: str
    params: dict
    lhs: Fraction
    rhs: Fraction
    constant: Fraction
    witness: dict
    passed: bool

    def to_json_obj(self) -> dict:
        return {
            "check": self.check_id,
            "params": self.params,
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
            "constant": str(self.constant),
            "witness": self.witness,
            "pass": self.passed,
        }


# a sample's score and a function that builds its certificate; None for a
# sample decided not to beat the running worst score
Scored = Optional[tuple[Fraction, Callable[[], Certificate]]]


@dataclass(frozen=True)
class QEstimateReport:
    """Empirical lower q-estimate constants over index ranges.

    ``empirical_c`` bounds, from above, any constant c that could witness a
    lower q-estimate on the tested family; per-range values let decay be
    inspected.  Bounds are exact on the norm side and certified intervals
    on the q-sum side.
    """

    q: Fraction
    ranges: tuple[tuple[int, int], ...]
    per_range: tuple[NormBounds, ...]
    empirical_c: NormBounds
    witness: dict

    def to_json_obj(self) -> dict:
        return {
            "q": str(self.q),
            "ranges": [list(r) for r in self.ranges],
            "per_range": [
                {"lower": str(b.lower), "upper": str(b.upper)} for b in self.per_range
            ],
            "empirical_c": {
                "lower": str(self.empirical_c.lower),
                "upper": str(self.empirical_c.upper),
            },
            "witness": self.witness,
        }


def _sample_ints(rng: random.Random, indices: Sequence[int]) -> tuple[list[int], list[int]]:
    """A random vector on ``indices`` as (its support, its values times ``POOL_SCALE``)."""
    chosen = [i for i in indices if rng.random() < 0.75]
    if not chosen:
        chosen = [rng.choice(list(indices))]
    return chosen, [rng.choice(POOL_INTS) for _ in chosen]


def _window_patterns(n: int) -> list[tuple[list[int], list[int]]]:
    """The indicator, the alternating signs and each spike of (n, 2n], as ints at scale 1."""
    window = list(range(n + 1, 2 * n + 1))
    alternating = [(-1) ** k for k in range(n)]
    return [(window, [1] * n), (window, alternating)] + [([i], [1]) for i in window]


def check_window_bound(
    n: int,
    samples: int = 500,
    seed: int = 0,
    constant: Fraction = Fraction(2),
) -> Certificate:
    """Dual norms over the window (n, 2n] stay below constant * sup.

    The window is the half-open one: on it the primal norm dominates half
    the l1 norm (the n singleton sets form an admissible family), which
    dualizes to exactly this bound; the indicator attains it, so the
    constant 2 is sharp.  Including index n breaks the inequality for
    every n - the indicator of [2, 4] already has dual norm 3 - so the
    closed window admits no such constant-2 certificate at all.

    Each vector is scored on ints: with |y| = magnitudes / scale, the
    ratio ||y||* / ||y||_inf is ``dual_norm_magnitudes(...) * scale /
    max(magnitudes)``, and ratios are compared by cross-multiplying.
    Only the worst vector becomes a ``FinVec``.

    No sample can change the certificate.  The indicator of (n, 2n] is
    scored first and attains the sharp ratio 2, no vector exceeds it, and
    only a strictly larger ratio replaces the worst vector.  The samples
    stay because dropping them changes the report's pinned hash.
    """
    least, most = WINDOW_NS
    if not least <= n <= most:
        raise ValueError(f"window bound check is calibrated for {least} <= n <= {most}")
    rng = random.Random(seed)
    window = list(range(n + 1, 2 * n + 1))
    candidates = [(support, values, 1) for support, values in _window_patterns(n)]
    candidates += [(*_sample_ints(rng, window), POOL_SCALE) for _ in range(samples)]
    # the worst ratio so far is worst_numerator / worst_denominator
    worst_numerator, worst_denominator = 0, 1
    worst: Optional[tuple[list[int], list[int], int, Fraction]] = None
    for support, values, scale in candidates:
        magnitudes = [abs(v) for v in values]
        value = dual_norm_magnitudes(tuple(support), magnitudes, scale)
        numerator = value.numerator * scale
        denominator = value.denominator * max(magnitudes)
        if numerator * worst_denominator > worst_numerator * denominator or worst is None:
            worst_numerator, worst_denominator = numerator, denominator
            worst = (support, values, scale, value)
    assert worst is not None
    support, values, scale, value = worst
    y = FinVec.from_ints(support, values, scale)
    worst_ratio = Fraction(worst_numerator, worst_denominator)
    return Certificate(
        check_id=f"window_bound[n={n}]",
        params={"n": n, "window": [n + 1, 2 * n], "samples": samples, "seed": seed},
        lhs=worst_ratio,
        rhs=constant,
        constant=constant,
        witness={
            "vector": y.to_json_obj(),
            "dual_norm": str(value),
            "sup_norm": str(Fraction(max(map(abs, values)), scale)),
        },
        passed=worst_ratio <= constant,
    )


def _partition_bound(
    support: Sequence[int], values: list[int], scale: int, boundaries: list[int],
    worst: Optional[Fraction] = None,
) -> Scored:
    """One partition sample on ints: (||y||* - T* of its block norms, its certificate).

    y is values[k] / scale at support[k]; block j is y on (b_j, b_(j+1)].
    None when the score is decided not to exceed ``worst``.
    """
    cuts = [bisect_right(support, b) for b in boundaries]
    magnitudes = [abs(v) for v in values]
    block_norms = [
        dual_norm_magnitudes(tuple(support[lo:hi]), magnitudes[lo:hi], scale)
        for lo, hi in zip(cuts, cuts[1:])
    ]
    rhs = T_STAR.eval_magnitudes(*scaled_integers(block_norms))
    limit = None if worst is None else worst + rhs
    lhs = dual_norm_magnitudes(tuple(support), magnitudes, scale, limit)
    if limit is not None and lhs <= limit:
        return None

    def certificate() -> Certificate:
        dominating = FinVec.from_pairs((j + 1, norm) for j, norm in enumerate(block_norms))
        return Certificate(
            check_id="partition_bound",
            params={"boundaries": boundaries},
            lhs=lhs,
            rhs=rhs,
            constant=Fraction(1),
            witness={
                "vector": FinVec.from_ints(support, values, scale).to_json_obj(),
                "block_norms": [str(b) for b in block_norms],
                "dominating_vector": dominating.to_json_obj(),
            },
            passed=lhs <= rhs,
        )

    return lhs - rhs, certificate


def check_partition_bound(y: FinVec, boundaries: Sequence[int]) -> Certificate:
    """Blockwise norm coefficients dominate the dual norm (exact)."""
    boundaries = list(boundaries)
    if not boundaries or boundaries[0] != 0 or any(b >= c for b, c in zip(boundaries, boundaries[1:])):
        raise ValueError("boundaries must be increasing and start at 0")
    support = y.support()
    if support and support[-1] > boundaries[-1]:
        raise ValueError("boundaries must cover the support")
    return _partition_bound(*integer_entries(y), boundaries)[1]()


def _normalized_blocks(u: BlockSequence, support: Sequence[int] = ()) -> dict[int, tuple]:
    """Each block of u as j -> ``integer_entries(u_j)``, read once.

    Raises ``ValueError`` unless every block has T_J* norm 1 and the
    coefficient ``support`` lies in 1..len(u).
    """
    blocks = {j: integer_entries(block) for j, block in enumerate(u.blocks, 1)}
    for j, block in blocks.items():
        if james_norm_ints(*block, T_STAR) != 1:
            raise ValueError(f"block {j} is not normalized in J[{T_STAR.name}]")
    if support and (support[0] < 1 or support[-1] > len(blocks)):
        raise ValueError(f"coefficient support {support} exceeds block count {len(blocks)}")
    return blocks


def _combine_ints(
    support: Sequence[int], values: Sequence[int], scale: int, blocks: dict[int, tuple]
) -> tuple[list[int], list[int], int]:
    """sum_j a_j u_j on ints, as (indices, ints, scale) for the James search.

    a_j is values[k] / scale at j = support[k], and u_j is blocks[j] =
    (indices, ints, block scale).  Every block is brought to the lcm of the
    block scales, so the sum is ints over one scale; the blocks' supports
    are ordered and disjoint, so the indices increase.
    """
    common = math.lcm(*(blocks[j][2] for j in support))
    indices, combined = [], []
    for j, c in zip(support, values):
        block_indices, ints, block_scale = blocks[j]
        factor = c * (common // block_scale)
        indices += block_indices
        combined += [factor * v for v in ints]
    return indices, combined, scale * common


def _block_combination(
    support: Sequence[int], values: list[int], scale: int, blocks: dict[int, tuple],
    threshold: Optional[Fraction] = None,
) -> Optional[tuple[Fraction, Callable[[], dict]]]:
    """T_J* of sum_j a_j u_j on ints, and the witness fields that replay it.

    The arguments are those of ``_combine_ints``.  None when T_J* is
    decided to be at most ``threshold``.
    """
    vector = _combine_ints(support, values, scale, blocks)
    if threshold is not None and not james_exceeds_ints(*vector, T_STAR, threshold):
        return None
    value, selection = james_norm_ints(*vector, T_STAR, with_witness=True)

    def witness() -> dict:
        return {
            "coefficients": FinVec.from_ints(support, values, scale).to_json_obj(),
            "combined": FinVec.from_ints(*vector).to_json_obj(),
            "selection": selection.to_json_obj() if selection else None,
        }

    return value, witness


def _block_domination(
    support: Sequence[int], values: list[int], scale: int, blocks: dict[int, tuple], count: int,
    worst: Optional[Fraction] = None,
) -> Scored:
    """One block-domination sample on ints: (lhs - rhs, its certificate).

    The arguments are those of ``_block_combination``, and u has ``count``
    blocks.  The rhs is the T* norm of the neighbor sums |a_j| + |a_(j+1)|.
    None when the score is decided not to exceed ``worst``.
    """
    sums = [0] * (count + 1)  # |a_j| at j - 1, and a_(count + 1) = 0
    for j, c in zip(support, values):
        sums[j - 1] = abs(c)
    magnitudes = [x + y for x, y in zip(sums, sums[1:])]
    rhs = T_STAR.eval_magnitudes(magnitudes, scale)
    threshold = None if worst is None else worst + rhs
    combination = _block_combination(support, values, scale, blocks, threshold)
    if combination is None:
        return None
    lhs, witness = combination

    def certificate() -> Certificate:
        dominating = FinVec.from_pairs((j, Fraction(m, scale)) for j, m in enumerate(magnitudes, 1))
        return Certificate(
            check_id="block_domination",
            params={"blocks": count},
            lhs=lhs,
            rhs=rhs,
            constant=Fraction(1),
            witness={**witness(), "dominating_vector": dominating.to_json_obj()},
            passed=lhs <= rhs,
        )

    return lhs - rhs, certificate


def check_block_domination(u: BlockSequence, a: FinVec) -> Certificate:
    """Combined-vector norm against neighbor-sum coefficients (exact)."""
    blocks = _normalized_blocks(u, a.support())
    return _block_domination(*integer_entries(a), blocks, len(u.blocks))[1]()


def _cor10(
    support: Sequence[int], values: list[int], scale: int, blocks: dict[int, tuple],
    n: int, count: int, constant: Fraction, worst: Optional[Fraction] = None,
) -> Scored:
    """One Cor. 10 sample on ints: (||sum a_j u_j|| / max |a_j|, its certificate).

    The arguments are those of ``_block_combination``; u has ``count``
    blocks and a lives on the window [n, 2n].  None when the score is
    decided not to exceed ``worst``.
    """
    sup = Fraction(max(map(abs, values)), scale)
    threshold = None if worst is None else worst * sup
    combination = _block_combination(support, values, scale, blocks, threshold)
    if combination is None:
        return None
    lhs, witness = combination
    rhs, ratio = constant * sup, lhs / sup

    def certificate() -> Certificate:
        return Certificate(
            check_id=f"cor10[n={n}]",
            params={"n": n, "blocks": count},
            lhs=lhs,
            rhs=rhs,
            constant=constant,
            witness={**witness(), "sup_norm": str(sup), "ratio": str(ratio)},
            passed=lhs <= rhs,
        )

    return ratio, certificate


def check_cor10(u: BlockSequence, n: int, a: FinVec, constant: Fraction = Fraction(4)) -> Certificate:
    """Window combinations of normalized blocks stay below constant * sup."""
    support = a.support()
    if not support:
        raise ValueError("coefficient vector must be nonzero")
    if support[0] < n or support[-1] > 2 * n:
        raise ValueError(f"support {support} escapes the window [{n}, {2 * n}]")
    blocks = _normalized_blocks(u, support)
    return _cor10(*integer_entries(a), blocks, n, len(u.blocks), constant)[1]()


def q_estimate_scan(
    u: BlockSequence,
    q: Fraction,
    ranges: Sequence[tuple[int, int]],
    seed: int = 0,
    samples: int = 3,
) -> QEstimateReport:
    """Empirical lower q-estimate constants for a normalized block sequence.

    For each range, tests the indicator plus seeded sample vectors and
    records the minimum of ||sum a_j u_j|| / (sum |a_j|^q)^(1/q); the norm
    side is exact and the q-sum side a certified interval, so each recorded
    value is a true interval around the achieved ratio.  Each block of u
    is read and checked once, each candidate a is drawn as ints
    (``_sample_ints``), and sum a_j u_j goes to the James search as ints
    (``_combine_ints``), as in the block units.  Only a strictly smaller
    lower ratio replaces the best, so a sample whose T_J* exceeds
    ``best.lower * upper(||a||_q)`` is skipped on a threshold decision.
    """
    q = Fraction(q)
    if q < LEAST_Q:
        raise ValueError(f"q must be >= {LEAST_Q}")
    if not ranges:
        raise ValueError("ranges must be nonempty")
    blocks = _normalized_blocks(u)
    rng = random.Random(seed)
    per_range: list[NormBounds] = []
    witnesses = []
    for n, m in ranges:
        if not 1 <= n <= m <= len(u.blocks):
            raise ValueError(f"range [{n}, {m}] exceeds the block count")
        window = list(range(n, m + 1))
        candidates = [(window, [1] * len(window), 1)]
        candidates += [(*_sample_ints(rng, window), POOL_SCALE) for _ in range(samples)]
        best: Optional[NormBounds] = None
        best_vec: Optional[FinVec] = None
        for support, values, scale in candidates:
            a = FinVec.from_ints(support, values, scale)
            combined = _combine_ints(support, values, scale, blocks)
            denom = lp_norm(a, q)
            threshold = None if best is None else best.lower * upper_of(denom)
            if threshold is not None and james_exceeds_ints(*combined, T_STAR, threshold):
                continue
            norm_value = james_norm_ints(*combined, T_STAR)
            ratio = NormBounds(norm_value / upper_of(denom), norm_value / lower_of(denom))
            if best is None or ratio.lower < best.lower:
                best = ratio
                best_vec = a
        assert best is not None and best_vec is not None
        per_range.append(best)
        witnesses.append(best_vec.to_json_obj())
    overall = min(per_range, key=lambda b: b.lower)
    return QEstimateReport(
        q=q,
        ranges=tuple((n, m) for n, m in ranges),
        per_range=tuple(per_range),
        empirical_c=overall,
        witness={"minimizers": witnesses},
    )


def check_q_decay(
    levels: int = 4,
    q: Fraction = Fraction(2),
    seed: int = 0,
    samples: int = 3,
) -> Certificate:
    """Empirical q-estimate constants decay strictly along dyadic ranges.

    Uses the canonical basis blocks and ranges [2^j, 2^(j+1)], j = 1..levels;
    passes when consecutive constants strictly decrease (safe interval
    comparison) and each stays below the plateau value 2 / (2^j + 1)^(1/q).
    """
    if levels < 1:
        raise ValueError("levels must be >= 1")
    ranges = [(2**j, 2 ** (j + 1)) for j in range(1, levels + 1)]
    u = BlockSequence.canonical_basis(2 ** (levels + 1))
    report = q_estimate_scan(u, q, ranges, seed=seed, samples=samples)
    decreasing = all(
        report.per_range[j + 1].upper < report.per_range[j].lower
        for j in range(len(ranges) - 1)
    )
    below_plateau = True
    plateau_strs = []
    for (n, m), bounds in zip(report.ranges, report.per_range):
        plateau = lp_norm(
            FinVec.from_pairs((i, 1) for i in range(n, m + 1)), q
        )
        plateau_strs.append(str(plateau))
        if bounds.lower > 2 / lower_of(plateau):
            below_plateau = False
    passed = decreasing and below_plateau
    return Certificate(
        check_id="q_decay",
        params={"q": str(q), "levels": levels, "seed": seed, "samples": samples},
        lhs=report.per_range[-1].upper,
        rhs=report.per_range[0].lower,
        constant=Fraction(2),
        witness={
            "report": report.to_json_obj(),
            "plateau_denominators": plateau_strs,
        },
        passed=passed,
    )


def check_shrinking_series(u: BlockSequence, levels: int) -> Certificate:
    """Dyadic coefficient plateaus have summable norms (exact).

    Level n combines u_j, 2^n < j <= 2^(n+1), with coefficient 1/2^n and
    passes when its T_J* norm is at most 4/2^n; the check passes when
    every level does and their sum is at most 4.  Each block of u is read
    and checked once, and each level goes to the James search as ints
    (``_combine_ints``), as in the block units.
    """
    if levels < 0:
        raise ValueError("levels must be >= 0")
    if levels == 0:
        return Certificate(
            check_id="shrinking_series",
            params={"levels": 0},
            lhs=Fraction(0),
            rhs=Fraction(4),
            constant=Fraction(4),
            witness={},
            passed=True,
        )
    if len(u.blocks) < 2 ** (levels + 1):
        raise ValueError(
            f"need {2 ** (levels + 1)} blocks for {levels} levels, got {len(u.blocks)}"
        )
    blocks = _normalized_blocks(u)
    level_norms = []
    level_witness = []
    passed = True
    for n in range(1, levels + 1):
        support, values = range(2**n + 1, 2 ** (n + 1) + 1), [1] * 2**n
        combined = _combine_ints(support, values, 2**n, blocks)
        value, selection = james_norm_ints(*combined, T_STAR, with_witness=True)
        bound = Fraction(4, 2**n)
        if value > bound:
            passed = False
        level_norms.append(value)
        level_witness.append(
            {
                "level": n,
                "norm": str(value),
                "bound": str(bound),
                "coefficients": FinVec.from_ints(support, values, 2**n).to_json_obj(),
                "selection": selection.to_json_obj() if selection else None,
            }
        )
    total = sum(level_norms, Fraction(0))
    if total > 4:
        passed = False
    return Certificate(
        check_id="shrinking_series",
        params={"levels": levels},
        lhs=total,
        rhs=Fraction(4),
        constant=Fraction(4),
        witness={"levels": level_witness},
        passed=passed,
    )


# -- suite running -----------------------------------------------------------


@dataclass(frozen=True)
class CertificateReport:
    certificates: tuple[Certificate, ...]
    seed: int

    @property
    def failures(self) -> int:
        return sum(1 for c in self.certificates if not c.passed)

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def to_json_obj(self) -> dict:
        return {
            "seed": self.seed,
            "total": len(self.certificates),
            "failures": self.failures,
            "pass": self.passed,
            "certificates": [c.to_json_obj() for c in self.certificates],
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True, indent=2) + "\n"

    def csv_rows(self) -> list[tuple[str, str, str]]:
        rows = []
        for c in self.certificates:
            n = str(c.params["n"]) if "n" in c.params else ""
            rows.append((c.check_id, n, str(c.lhs / c.rhs if c.rhs else c.lhs)))
        return rows


def _random_boundaries(rng: random.Random, top: int) -> list[int]:
    cuts = sorted(rng.sample(range(1, top), k=min(rng.randint(1, 3), top - 1)))
    return [0] + cuts + [top]


def _unit_window_bound(
    seed: int, *, samples: int = 500, ns: Sequence[int] = range(2, 11),
    constant: Fraction = Fraction(2),
) -> list[Certificate]:
    return [check_window_bound(n, samples=samples, seed=seed + n, constant=constant) for n in ns]


def _first_worst(samples: int, draw: Callable[[Optional[Fraction]], Scored]) -> Certificate:
    """The certificate of the first of ``samples`` draws (score, certificate) with the top score.

    Each draw gets the running worst score (None for the first) and
    returns its sample only if the score beats it strictly, and None when
    a threshold decision shows that it does not; such a sample cannot
    become the first strictly worst, so the certificate is the same.  Only
    that certificate is built.  A unit's verdict bounds its score, so that
    certificate passes exactly when every sample passes.
    """
    worst = None
    for _ in range(samples):
        worst = draw(None if worst is None else worst[0]) or worst
    assert worst is not None
    return worst[1]()


def _unit_partition_bound(
    seed: int, *, samples: int = 200, max_hull: int = 10
) -> list[Certificate]:
    rng = random.Random(seed)

    def draw(worst: Optional[Fraction]) -> Scored:
        top = rng.randint(2, max_hull)
        support, values = _sample_ints(rng, range(1, top + 1))
        return _partition_bound(support, values, POOL_SCALE, _random_boundaries(rng, top), worst)

    cert = _first_worst(samples, draw)
    return [replace(cert, params={"samples": samples, "seed": seed, "max_hull": max_hull})]


def _block_draw(
    rng: random.Random, count: int, total_support: int, indices: Sequence[int]
) -> tuple[list[int], list[int], int, dict[int, tuple]]:
    """One sample of the block units on ints, as ``_block_combination`` takes it.

    Draws ``count`` raw blocks, then a on ``indices`` as ints over
    ``POOL_SCALE``; u_j is raw block j normalized in T_J*, and a block
    whose coefficient is 0 is never normalized.
    """
    raw, _ = random_block_ints(rng.randrange(2**30), count, max(1, total_support // count))
    support, values = _sample_ints(rng, indices)
    blocks = {}
    for j in support:
        block_indices, ints = raw[j - 1]
        # block j is ints / POOL_SCALE with norm p / q, so u_j is q ints / (POOL_SCALE p)
        norm = james_norm_ints(block_indices, ints, POOL_SCALE, T_STAR)
        blocks[j] = (block_indices, [norm.denominator * v for v in ints], POOL_SCALE * norm.numerator)
    return support, values, POOL_SCALE, blocks


def _unit_block_domination(
    seed: int, *, samples: int = 100, max_blocks: int = 4, total_support: int = 12
) -> list[Certificate]:
    rng = random.Random(seed)

    def draw(worst: Optional[Fraction]) -> Scored:
        count = rng.randint(1, max_blocks)
        sample = _block_draw(rng, count, total_support, range(1, count + 1))
        return _block_domination(*sample, count, worst)

    cert = _first_worst(samples, draw)
    return [replace(cert, params={"samples": samples, "seed": seed})]


def _unit_cor10(
    seed: int, *, samples: int = 100, n: int = 2, constant: Fraction = Fraction(4),
    total_support: int = 12,
) -> list[Certificate]:
    rng = random.Random(seed)

    def draw(worst: Optional[Fraction]) -> Scored:
        sample = _block_draw(rng, 2 * n, total_support, range(n, 2 * n + 1))
        return _cor10(*sample, n, 2 * n, constant, worst)

    cert = _first_worst(samples, draw)
    unit_params = {"samples": samples, "seed": seed, "n": n, "max_ratio": cert.witness["ratio"]}
    return [replace(cert, params=unit_params)]


def _unit_q_decay(
    seed: int, *, levels: int = 4, q: Fraction = Fraction(2), samples: int = 3
) -> list[Certificate]:
    return [check_q_decay(levels=levels, q=q, seed=seed, samples=samples)]


def _unit_shrinking_series(seed: int, *, levels: int = 3) -> list[Certificate]:
    u = BlockSequence.canonical_basis(2 ** (levels + 1))
    return [check_shrinking_series(u, levels)]


CHECK_UNITS = {
    "window_bound": _unit_window_bound,
    "partition_bound": _unit_partition_bound,
    "block_domination": _unit_block_domination,
    "cor10": _unit_cor10,
    "q_decay": _unit_q_decay,
    "shrinking_series": _unit_shrinking_series,
}

# Each unit's suite parameters and defaults, read from its keyword-only arguments
# once, before a tracer may rebind the CHECK_UNITS values to (*args, **kwargs).
UNIT_DEFAULTS = {name: dict(unit.__kwdefaults__) for name, unit in CHECK_UNITS.items()}

DEFAULT_SUITE = [{"name": name} for name in CHECK_UNITS]

QUICK_SUITE = [
    {"name": "window_bound", "samples": 20, "ns": [2, 3, 4]},
    {"name": "partition_bound", "samples": 20, "max_hull": 8},
    {"name": "block_domination", "samples": 10, "total_support": 8},
    {"name": "cor10", "samples": 10, "total_support": 8},
    {"name": "q_decay", "levels": 3, "samples": 2},
    {"name": "shrinking_series", "levels": 2},
]


# (least, most) of the parameters whose range differs from the type's rule
# (integers and ``ns`` entries >= 1, fractions unbounded); None: no bound.
# The sizes are capped where the run still takes seconds at every suite
# seed tried.  When the caps were set, shrinking_series with levels 12 ran
# for more than a minute, partition_bound with max_hull 40 for half a
# minute, and block_domination with total_support 28 and cor10 with
# total_support 36 for more than 25 s at some suite seeds.  q_decay with
# levels 5 ran for minutes until its samples were decided by threshold
# searches; it now takes under 0.3 s.
PARAM_RANGES = {
    ("window_bound", "ns"): WINDOW_NS,
    ("partition_bound", "max_hull"): (2, 24),
    ("block_domination", "total_support"): (1, 24),
    ("cor10", "total_support"): (1, 32),
    ("q_decay", "levels"): (1, 5),
    ("q_decay", "q"): (LEAST_Q, None),
    ("shrinking_series", "levels"): (1, 10),
}


def _suite_value(where: str, name: str, key: str, value):
    """``value`` as unit ``name`` receives it, if its default's type and range admit it."""
    defaults = UNIT_DEFAULTS[name]
    if key not in defaults:
        raise ValueError(f"{where}: unknown parameter {key!r} (expected {', '.join(defaults)})")
    default = defaults[key]
    fallback = (None, None) if isinstance(default, Fraction) else (1, None)
    least, most = PARAM_RANGES.get((name, key), fallback)
    bounds = "" if least is None else f" >= {least}" if most is None else f" within {least}..{most}"

    def within(v) -> bool:
        return (least is None or v >= least) and (most is None or v <= most)

    if isinstance(default, Fraction):
        expected = f'a number{bounds}, as an integer or a fraction string such as "3/2"'
        if type(value) in (int, str):
            with suppress(ValueError, ZeroDivisionError):
                if within(Fraction(value)):
                    return Fraction(value)
    elif isinstance(default, int):
        expected = f"an integer{bounds}"
        if type(value) is int and within(value):
            return value
    else:
        expected = f"a list of integers{bounds}"
        if isinstance(value, (list, tuple)) and all(type(n) is int and within(n) for n in value):
            return value
    raise ValueError(f"{where}: {key!r} must be {expected}, got {value!r}")


def _run_unit(entry: tuple[str, int, dict]) -> list[Certificate]:
    name, seed, params = entry
    return CHECK_UNITS[name](seed, **params)


def run_suite(config: Optional[dict] = None, workers: int = 1) -> CertificateReport:
    """Run a named check collection; deterministic for a fixed config.

    ``config`` holds an integer ``seed`` and a ``checks`` list of parameter
    dictionaries, each naming a check unit; a unit's parameters and their
    defaults are its keyword-only arguments (``UNIT_DEFAULTS``).  Unknown
    keys and values that the default's type or ``PARAM_RANGES`` rejects
    raise ``ValueError`` before any check runs.  Results are ordered by
    check id regardless of execution order, so parallel runs serialize
    identically.
    """
    config = config or {}
    for key in config:
        if key not in ("seed", "checks"):
            raise ValueError(f"suite config: unknown key {key!r} (expected seed, checks)")
    seed = config.get("seed", 0)
    if type(seed) is not int:
        raise ValueError(f"suite config: 'seed' must be an integer, got {seed!r}")
    checks = config.get("checks", DEFAULT_SUITE)
    if not isinstance(checks, (list, tuple)):
        raise ValueError(f"suite config: 'checks' must be a list, got {checks!r}")
    entries = []
    for k, entry in enumerate(checks):
        if not isinstance(entry, dict):
            raise ValueError(f"check entry {k} must be an object, got {entry!r}")
        name = entry.get("name")
        if not isinstance(name, str) or name not in UNIT_DEFAULTS:
            raise ValueError(f"check entry {k}: unknown check name {name!r}")
        params = {
            key: _suite_value(f"check entry {k} ({name})", name, key, value)
            for key, value in entry.items()
            if key != "name"
        }
        entries.append((name, seed * 1009 + 17 * k, params))
    if workers > 1 and len(entries) > 1:
        # a fork-context pool starts all max_workers processes at the first submit
        with ProcessPoolExecutor(max_workers=min(workers, len(entries))) as pool:
            results = list(pool.map(_run_unit, entries))
    else:
        results = [_run_unit(entry) for entry in entries]
    certificates = [cert for batch in results for cert in batch]
    certificates.sort(key=lambda c: c.check_id)
    return CertificateReport(tuple(certificates), seed)


# -- witness replay -----------------------------------------------------------


def replay_certificate(cert: Certificate) -> Fraction:
    """Recompute the recorded lhs from the certificate's witness alone."""
    check = cert.check_id.split("[")[0]
    w = cert.witness
    if check == "window_bound":
        y = FinVec.from_json_obj(w["vector"])
        return dual_norm(y) / Fraction(w["sup_norm"])
    if check == "partition_bound":
        return dual_norm(FinVec.from_json_obj(w["vector"]))
    if check in ("block_domination", "cor10"):
        combined = FinVec.from_json_obj(w["combined"])
        if w.get("selection"):
            selection = PairSelection(tuple(w["selection"]))
            attained = dual_norm(difference_vector(combined, selection))
            if attained != james_norm(combined, T_STAR):
                raise AssertionError("witness selection does not attain the norm")
            return attained
        return james_norm(combined, T_STAR)
    if check == "q_decay":
        # the blocks are the canonical basis, so sum_j a_j u_j is a itself
        report = w["report"]
        a = FinVec.from_json_obj(report["witness"]["minimizers"][-1])
        return james_norm(a, T_STAR) / lower_of(lp_norm(a, Fraction(report["q"])))
    if check == "shrinking_series":
        total = Fraction(0)
        for level in w.get("levels", []):
            total += Fraction(level["norm"])
        return total
    raise ValueError(f"no replay rule for {cert.check_id}")
