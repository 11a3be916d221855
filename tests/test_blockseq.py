import math
import random
from fractions import Fraction as F

import pytest

from tsirelson_lab.seqvec import FinVec
from tsirelson_lab.blockseq import (
    SAMPLE_POOL,
    BlockSequence,
    combine,
    normalize,
    random_block_sequence,
)
from tsirelson_lab.dualnorm import DualTsirelsonEngine, LpEngine
from tsirelson_lab.jamesify import JamesEngine, james_norm

e = FinVec.basis
TJ_STAR = JamesEngine(DualTsirelsonEngine())


class TestBlockSequence:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            BlockSequence((e(1), e(1)), (0, 1, 2))  # overlapping supports
        with pytest.raises(ValueError):
            BlockSequence((e(3),), (0, 2))  # support escapes window
        with pytest.raises(ValueError):
            BlockSequence((e(1),), (1, 2))  # boundaries must start at 0

    def test_canonical_basis(self):
        u = BlockSequence.canonical_basis(3)
        assert u.blocks == (e(1), e(2), e(3))
        assert u.boundaries == (0, 1, 2, 3)

    def test_disjoint_ordered_supports(self):
        u = random_block_sequence(seed=1, count=4, max_block_width=3)
        for a, b in zip(u.blocks, u.blocks[1:]):
            assert a.hull().hi < b.hull().lo


class TestNormalize:
    def test_unit_block_unchanged(self):
        u = BlockSequence((e(5),), (0, 5))
        assert normalize(u, TJ_STAR).blocks == (e(5),)

    def test_l1_scaling(self):
        u = BlockSequence((2 * e(3),), (0, 3))
        assert normalize(u, LpEngine(1)).blocks == (e(3),)

    def test_james_scaling(self):
        u = BlockSequence((e(1) - e(2), e(4)), (0, 2, 4))
        scaled = normalize(u, TJ_STAR)
        assert scaled.blocks[0] == (e(1) - e(2)).scale(F(1, 2))
        assert scaled.blocks[1] == e(4)

    def test_normalized_blocks_have_unit_norm(self):
        u = normalize(random_block_sequence(seed=3, count=3, max_block_width=3), TJ_STAR)
        for block in u.blocks:
            assert james_norm(block, DualTsirelsonEngine()) == 1

    def test_canonical_basis_normalized_everywhere(self):
        u = BlockSequence.canonical_basis(4)
        for engine in (LpEngine(1), LpEngine(math.inf), TJ_STAR):
            assert normalize(u, engine).blocks == u.blocks


class TestRandomBlockSequence:
    def test_seed_determinism(self):
        a = random_block_sequence(seed=7, count=4, max_block_width=3)
        b = random_block_sequence(seed=7, count=4, max_block_width=3)
        assert a == b

    def test_different_seeds_differ(self):
        a = random_block_sequence(seed=7, count=4, max_block_width=3)
        b = random_block_sequence(seed=8, count=4, max_block_width=3)
        assert a != b

    def test_unit_width_gives_scaled_basis(self):
        u = random_block_sequence(seed=5, count=3, max_block_width=1)
        for j, block in enumerate(u.blocks):
            assert block.support() == (j + 1,)

    def test_window_start(self):
        u = random_block_sequence(seed=5, count=3, max_block_width=2, start=4)
        assert u.blocks[0].hull().lo >= 4

    def test_integer_draw_matches_the_pool_draw(self):
        # the draw on ints, as a loop over SAMPLE_POOL's Fractions
        def reference(seed, count, width, start):
            rng = random.Random(seed)
            blocks, boundaries, position = [], [0], start - 1
            for _ in range(count):
                window = list(range(position + 1, position + rng.randint(1, width) + 1))
                chosen = [i for i in window if rng.random() < 0.7] or [rng.choice(window)]
                blocks.append(FinVec.from_pairs((i, rng.choice(SAMPLE_POOL)) for i in chosen))
                position = window[-1]
                boundaries.append(position)
            return BlockSequence(tuple(blocks), tuple(boundaries))

        for seed in range(30):
            for count, width, start in ((1, 1, 1), (4, 3, 1), (6, 5, 4), (3, 12, 9)):
                assert random_block_sequence(seed, count, width, start) == reference(seed, count, width, start)

    def test_invariants_hold_for_many_seeds(self):
        for seed in range(20):
            u = random_block_sequence(seed=seed, count=4, max_block_width=3)
            BlockSequence(u.blocks, u.boundaries)  # revalidates


class TestCombine:
    def test_single_block(self):
        u = random_block_sequence(seed=2, count=3, max_block_width=2)
        assert combine(u, e(1)) == u.blocks[0]

    def test_unit_width_blocks(self):
        u = BlockSequence((e(3), e(7)), (0, 3, 7))
        assert combine(u, e(1) + e(2)) == e(3) + e(7)

    def test_out_of_range_rejected(self):
        u = BlockSequence.canonical_basis(2)
        with pytest.raises(ValueError):
            combine(u, e(3))

    def test_linear(self):
        rng = random.Random(4)
        u = random_block_sequence(seed=6, count=4, max_block_width=3)
        pool = [F(v) for v in ("1", "-2", "1/2", "0")]
        for _ in range(20):
            a = FinVec.from_pairs(
                (j, rng.choice(pool)) for j in range(1, 5)
            )
            b = FinVec.from_pairs(
                (j, rng.choice(pool)) for j in range(1, 5)
            )
            assert combine(u, a + b) == combine(u, a) + combine(u, b)
            assert combine(u, a.scale(F(3, 2))) == combine(u, a).scale(F(3, 2))

    def test_blockwise_recovery(self):
        u = random_block_sequence(seed=9, count=3, max_block_width=2)
        a = FinVec.from_pairs([(1, 2), (3, "1/2")])
        combined = combine(u, a)
        from tsirelson_lab.seqvec import IndexInterval, restrict

        for j in range(3):
            window = IndexInterval(u.boundaries[j] + 1, u.boundaries[j + 1])
            assert restrict(combined, window) == u.blocks[j].scale(a.coeff(j + 1))
