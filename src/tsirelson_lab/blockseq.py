"""Block basic sequences: construction, normalization, combination.

A block sequence is a list of vectors with consecutive, disjoint, ordered
supports relative to the canonical basis, together with the window
boundaries that contain them.  ``random_block_sequence`` is the seeded
generator used by the certification suites.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .dualnorm import NormEngine
from .seqvec import FinVec, scaled_integers

SAMPLE_POOL: tuple[Fraction, ...] = tuple(
    Fraction(v) for v in ("1", "-1", "1/2", "-1/2", "2", "-2", "1/3", "-1/3")
)
# SAMPLE_POOL as ints over one scale, in the same order
POOL_INTS, POOL_SCALE = scaled_integers(SAMPLE_POOL)


@dataclass(frozen=True)
class BlockSequence:
    """Vectors u_j with support(u_j) inside (boundaries[j-1], boundaries[j]].

    ``boundaries`` starts at 0 and increases; block supports are strictly
    ordered and disjoint by construction.
    """

    blocks: tuple[FinVec, ...]
    boundaries: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.blocks:
            raise ValueError("a block sequence needs at least one block")
        if len(self.boundaries) != len(self.blocks) + 1 or self.boundaries[0] != 0:
            raise ValueError("boundaries must be (0, k_2, ..., k_{n+1})")
        for prev, nxt in zip(self.boundaries, self.boundaries[1:]):
            if nxt <= prev:
                raise ValueError("boundaries must be strictly increasing")
        for j, block in enumerate(self.blocks):
            hull = block.hull()
            if hull is None:
                raise ValueError(f"block {j + 1} is zero")
            if hull.lo <= self.boundaries[j] or hull.hi > self.boundaries[j + 1]:
                raise ValueError(
                    f"block {j + 1} support {hull} escapes its window "
                    f"({self.boundaries[j]}, {self.boundaries[j + 1]}]"
                )

    def __len__(self) -> int:
        return len(self.blocks)

    @staticmethod
    def canonical_basis(count: int) -> BlockSequence:
        """The basis vectors e_1, ..., e_count as unit-width blocks."""
        return BlockSequence(
            tuple(FinVec.basis(j) for j in range(1, count + 1)),
            tuple(range(count + 1)),
        )

    def to_json_obj(self) -> dict:
        return {
            "blocks": [b.to_json_obj() for b in self.blocks],
            "boundaries": list(self.boundaries),
        }


def normalize(u: BlockSequence, engine: NormEngine) -> BlockSequence:
    """Scale each block to engine norm exactly 1."""
    scaled = []
    for j, block in enumerate(u.blocks):
        value = engine.eval_exact(block)
        if value == 0:
            raise ValueError(f"block {j + 1} has norm zero")
        scaled.append(block.scale(1 / value))
    return BlockSequence(tuple(scaled), u.boundaries)


def random_block_ints(
    seed: int, count: int, max_block_width: int, start: int = 1
) -> tuple[list[tuple[list[int], list[int]]], list[int]]:
    """The draw of ``random_block_sequence`` on ints, from the same stream.

    Returns each block as (its support, its values times ``POOL_SCALE``)
    and the boundaries.
    """
    if count < 1 or max_block_width < 1:
        raise ValueError("count and max_block_width must be positive")
    rng = random.Random(seed)
    blocks = []
    boundaries = [0]
    position = start - 1
    for j in range(count):
        width = rng.randint(1, max_block_width)
        window = list(range(position + 1, position + width + 1))
        chosen = [i for i in window if rng.random() < 0.7]
        if not chosen:
            chosen = [rng.choice(window)]
        # the pool and its ints have one order, so both choices draw alike
        blocks.append((chosen, [rng.choice(POOL_INTS) for _ in chosen]))
        position += width
        boundaries.append(position)
    return blocks, boundaries


def random_block_sequence(
    seed: int,
    count: int,
    max_block_width: int,
    start: int = 1,
) -> BlockSequence:
    """Seed-deterministic block sequence; it is not normalized.

    Blocks occupy consecutive windows of width 1..max_block_width starting
    at ``start`` (window [n+1, 2n] shapes are produced by passing
    start = n+1 with unit widths); each block draws a nonempty support
    subset of its window with coefficients from ``SAMPLE_POOL``.  Pass the
    result to :func:`normalize` for unit blocks, keeping count *
    max_block_width within the engine's tractable support; for the
    engines built on the dual Tsirelson norm, ``certify.PARAM_RANGES``
    caps the suites' ``total_support`` at 24 and 32.
    """
    blocks, boundaries = random_block_ints(seed, count, max_block_width, start)
    vectors = tuple(FinVec.from_ints(support, values, POOL_SCALE) for support, values in blocks)
    return BlockSequence(vectors, tuple(boundaries))


def combine(u: BlockSequence, a: FinVec) -> FinVec:
    """The linear combination sum_j a_j u_j as a single vector."""
    support = a.support()
    if support and (support[0] < 1 or support[-1] > len(u.blocks)):
        raise ValueError(
            f"coefficient support {support} exceeds block count {len(u.blocks)}"
        )
    total = FinVec.zero()
    for j, c in a.entries:
        total = total + u.blocks[j - 1].scale(c)
    return total
