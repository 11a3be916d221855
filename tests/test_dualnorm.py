import collections
import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsirelson_lab.seqvec import FinVec, IndexInterval, lp_norm, scaled_integers, shift_support
from tsirelson_lab.tsirelson import norming_functional, tsirelson_norm
from tsirelson_lab import _simplex, dualnorm
from tsirelson_lab.dualnorm import (
    MAX_EXACT_HULL,
    DualTsirelsonEngine,
    LpEngine,
    TsirelsonEngine,
    dual_norm,
    dual_norm_exact_small,
    dual_norm_magnitudes,
    dual_norm_value,
    pairing,
    support_function_norm,
    tree_functionals,
)
from tsirelson_lab.certify import check_partition_bound

e = FinVec.basis

POOL = [F(v) for v in ("1", "-1", "1/2", "-1/2", "2", "-2", "1/3", "-1/3")]


def random_vec(rng, lo, hi):
    idx = [i for i in range(lo, hi + 1) if rng.random() < 0.75] or [hi]
    return FinVec.from_pairs((i, rng.choice(POOL)) for i in idx)


def scaled_magnitudes(y):
    """|y_1|, ..., |y_top| as ints in the unit of ``scaled_integers``, and its scale."""
    values, scale = scaled_integers([y.coeff(i) for i in range(1, y.entries[-1][0] + 1)])
    return [abs(v) for v in values], scale


class TestPairing:
    def test_biorthogonality(self):
        assert pairing(e(1), e(1)) == 1
        assert pairing(e(2), e(1)) == 0
        assert pairing(2 * e(1) + e(3), e(1) + e(3)) == 3


class TestDualNormExamples:
    def test_unit_vectors(self):
        for n in (1, 2, 5, 9):
            assert dual_norm(e(n)) == 1

    def test_t2_t3(self):
        assert dual_norm_value(e(2) + e(3)) == 2

    def test_t4_t5_t6(self):
        # paired with (2/3)(e4+e5+e6), which has T-norm 1
        assert dual_norm_value(e(4) + e(5) + e(6)) == 2

    def test_zero(self):
        assert dual_norm(FinVec.zero()) == 0

    def test_converged_bounds_match(self):
        rng = random.Random(3)
        for _ in range(15):
            y = random_vec(rng, 1, 8)
            assert dual_norm(y) == dual_norm_exact_small(y)
        # hulls of length <= 8 starting later, where admissible families
        # have more parts
        for lo in range(2, 7):
            for _ in range(10):
                y = random_vec(rng, lo, lo + 7)
                assert dual_norm(y) == dual_norm_exact_small(y)

    def test_value_alias(self):
        assert dual_norm_value is dual_norm


class TestExactSmallOracle:
    def test_unit(self):
        assert dual_norm_exact_small(e(1)) == 1

    def test_t2_t3(self):
        assert dual_norm_exact_small(e(2) + e(3)) == 2

    def test_hull_cap(self):
        with pytest.raises(ValueError, match="hull"):
            dual_norm_exact_small(e(1) + e(10))

    def test_agreement_with_cutting_plane(self):
        rng = random.Random(13)
        for _ in range(100):
            hi = rng.randint(1, 10)
            y = random_vec(rng, max(1, hi - 5), hi)
            assert dual_norm_value(y) == dual_norm_exact_small(y)


class TestDualNormProperties:
    def test_cache_keys_ignore_signs_and_keep_the_scale(self, fresh_stores):
        for pairs in (
            [(1, F(1, 2)), (2, F(-2, 3)), (3, F(3)), (5, F(1, 6))],
            [(2, F(-1, 2)), (3, F(1, 3)), (4, F(-2)), (6, F(1, 2))],
        ):
            dualnorm._dual_cache.clear()
            y = FinVec.from_pairs(pairs)
            value = dual_norm(y)
            for signs in itertools.product((1, -1), repeat=4):
                flipped = FinVec.from_pairs((i, s * c) for s, (i, c) in zip(signs, y.entries))
                assert dual_norm(flipped) == value
            assert len(dualnorm._dual_cache) == 1
            # 2y has the integer magnitudes of y over half its scale
            assert dual_norm(2 * y) == 2 * value
            assert len(dualnorm._dual_cache) == 2

    def test_duality_bound(self):
        rng = random.Random(17)
        for _ in range(40):
            y = random_vec(rng, 1, 9)
            x = random_vec(rng, 1, 9)
            assert abs(pairing(y, x)) <= dual_norm(y) * tsirelson_norm(x)

    def test_window_bound_sharp_constant(self):
        rng = random.Random(19)
        for n in range(2, 8):
            for _ in range(20):
                y = random_vec(rng, n + 1, 2 * n)
                sup = max(abs(c) for _, c in y.entries)
                assert dual_norm_value(y) <= 2 * sup

    def test_window_bound_sharpness_and_closed_window_failure(self):
        # the indicator of (n, 2n] attains the constant 2 exactly, while
        # already one extra index below makes the bound false
        for n in (2, 3, 5):
            half_open = FinVec.from_pairs((i, 1) for i in range(n + 1, 2 * n + 1))
            assert dual_norm_value(half_open) == 2
        closed_values = {
            2: F(3),
            3: F(8, 3),
            4: F(5, 2),
            5: F(12, 5),
            6: F(7, 3),
            7: F(16, 7),
            8: F(9, 4),
            9: F(20, 9),
            10: F(11, 5),
        }
        for n, expected in closed_values.items():
            assert expected == F(2 * n + 2, n)
            closed = FinVec.from_pairs((i, 1) for i in range(n, 2 * n + 1))
            assert dual_norm_value(closed) == expected
            assert expected > 2

    def test_one_unconditionality(self):
        rng = random.Random(23)
        for _ in range(25):
            y = random_vec(rng, 1, 8)
            flipped = FinVec.from_pairs(
                (i, c if rng.random() < 0.5 else -c) for i, c in y.entries
            )
            assert dual_norm_value(flipped) == dual_norm_value(y)

    def test_left_shift_monotonicity(self):
        rng = random.Random(29)
        for _ in range(25):
            y = random_vec(rng, 2, 10)
            assert dual_norm_value(shift_support(y, 1)) >= dual_norm_value(y)

    def test_order_preserving_left_moves_monotone(self):
        # coordinates moved leftward (any order-preserving relabeling with
        # new index <= old) never lose norm; this generalizes the full
        # shift and is what justifies dropping zero difference slots in
        # the james transform
        rng = random.Random(30)
        for _ in range(25):
            y = random_vec(rng, 1, 10)
            moved = []
            floor = 1
            for i, c in y.entries:
                target = rng.randint(floor, i)
                moved.append((target, c))
                floor = target + 1
            z = FinVec.from_pairs(moved)
            assert dual_norm_value(z) >= dual_norm_value(y)

    def test_partition_domination(self):
        rng = random.Random(31)
        for _ in range(30):
            top = rng.randint(2, 9)
            y = random_vec(rng, 1, top)
            cuts = sorted(rng.sample(range(1, top), k=min(2, top - 1)))
            cert = check_partition_bound(y, [0] + cuts + [top])
            assert cert.passed

    def test_tree_functionals_dual_feasible(self):
        # every enumerated functional lies in the dual unit ball
        for f in tree_functionals(IndexInterval(2, 6)):
            vec = FinVec.from_pairs(f)
            assert dual_norm_value(vec) <= 1


def regime_vec(rng):
    """A seeded vector whose support has at most min supp points."""
    lo = rng.randint(1, 9)
    size = rng.randint(1, min(lo, 7))
    support = [lo] + sorted(rng.sample(range(lo + 1, lo + 10), size - 1))
    return FinVec.from_pairs((i, rng.choice(POOL)) for i in support)


class TestSchreierRegime:
    def test_closed_form_matches_cutting_plane(self):
        rng = random.Random(43)
        exact_small = 0
        for _ in range(150):
            y = regime_vec(rng)
            magnitudes = sorted(abs(c) for _, c in y.entries)
            value = dual_norm(y)
            assert value == sum(magnitudes[-2:])
            assert value == support_function_norm(y, norming_functional)
            if len(y.hull()) <= MAX_EXACT_HULL:
                exact_small += 1
                assert value == dual_norm_exact_small(y)
        assert exact_small >= 50

    def test_regime_skips_cache_and_cutting_plane(self, fresh_stores, monkeypatch):
        def no_lp(support, oracle):
            raise AssertionError(f"cutting plane reached for {support}")

        monkeypatch.setattr(dualnorm, "_cutting_plane", no_lp)
        rng = random.Random(47)
        for _ in range(50):
            dual_norm(regime_vec(rng))
        assert dual_norm(e(7)) == 1
        assert dualnorm._dual_cache == {}

    def test_closed_windows_take_the_cached_closed_form(self, fresh_stores, monkeypatch):
        # [n, 2n] has n + 1 points, one past the regime: a closed form with
        # no LP, stored in the value cache like a cutting-plane value
        def unreachable(*args):
            raise AssertionError(f"reached with {args}")

        monkeypatch.setattr(dualnorm, "_cutting_plane", unreachable)
        windows = {n: FinVec.from_pairs((i, 1) for i in range(n, 2 * n + 1)) for n in range(2, 11)}
        for n, closed in windows.items():
            assert dual_norm(closed) == F(2 * n + 2, n)
        assert len(dualnorm._dual_cache) == 9
        # a James leaf on {1, 2, 3, 4} peels to the closed form of {2, 3, 4},
        # where (1, 1, 1) has T norm max(1, (3 - 1) / 2) = 1
        engine = DualTsirelsonEngine()
        assert engine.eval_magnitudes([5, 3, 1, 2], 1) == 5 + 6
        assert len(dualnorm._dual_cache) == 10 and dualnorm._program_pool == {}
        # warm calls read the cache
        monkeypatch.setattr(dualnorm, "_one_past_schreier", unreachable)
        for n, closed in windows.items():
            assert dual_norm(-closed) == F(2 * n + 2, n)
        assert engine.eval_magnitudes([1, 6, 2, 4], 2) == F(1, 2) + 6

    def test_dyadic_upper_bound(self):
        engine = DualTsirelsonEngine()
        rng = random.Random(53)
        for _ in range(60):
            top = rng.randint(1, 12)
            y = FinVec.from_pairs(
                [(1, rng.choice(POOL))]
                + [(i, rng.choice(POOL)) for i in range(2, top + 1) if rng.random() < 0.75]
            )
            magnitudes, scale = scaled_magnitudes(y)
            bound = engine.upper_bound(magnitudes)
            assert dual_norm(y) * scale <= bound <= lp_norm(y, 1) * scale
        # one dyadic block is in the regime, so the bound is exact there
        for j in range(1, 4):
            block = random_vec(rng, 2**j, 2 ** (j + 1) - 1)
            magnitudes, scale = scaled_magnitudes(block)
            assert engine.upper_bound(magnitudes) == dual_norm(block) * scale
        # positions 1 | 2-3 | 4-7 | 8-11: four blocks, the first a single entry
        four_blocks = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5]
        assert engine.upper_bound(four_blocks) == 3 + (1 + 4) + (9 + 5) + (6 + 5)
        # positions 1 | 2-3 | 4-7 | 8: the last block is a single entry
        single_last = [2, 7, 1, 8, 2, 8, 1, 8]
        assert engine.upper_bound(single_last) == 2 + (7 + 1) + (8 + 8) + 8
        for magnitudes in (four_blocks, single_last):
            y = FinVec.from_pairs((j + 1, F(m, 7)) for j, m in enumerate(magnitudes))
            bound = F(engine.upper_bound(magnitudes), 7)
            assert dual_norm(y) <= bound <= lp_norm(y, 1)

    def test_default_upper_bound_is_l1(self):
        rng = random.Random(59)
        for _ in range(10):
            y = random_vec(rng, 1, 8)
            magnitudes, scale = scaled_magnitudes(y)
            for engine in (LpEngine(1), LpEngine(math.inf), TsirelsonEngine()):
                bound = engine.upper_bound(magnitudes)
                assert bound == lp_norm(y, 1) * scale >= engine.eval_exact(y) * scale


def one_past_vec(rng, max_points=14):
    """A seeded vector on m = min supp + 1 points, 3 <= m <= ``max_points``.

    The support is contiguous or gapped below 3m, with or without index 1
    in front (peeled off, the rest is one past the regime).
    """
    m = rng.randint(3, max_points)
    if rng.random() < 0.5:
        support = list(range(m - 1, 2 * m - 1))
    else:
        support = [m - 1, *sorted(rng.sample(range(m, 3 * m), m - 1))]
    if rng.random() < 0.35:
        support = [1, *support]
    common = F(rng.choice((1, 2, 3, 5)), rng.choice((1, 4, 7)))
    return FinVec.from_pairs((i, common * rng.choice(POOL)) for i in support)


def one_past_points(y):
    """The three candidate maximizers of the closed form, on the support of y.

    In the order of |y| on the points past index 1 (ties to the lower
    index): e_1 + e_2, (1, 1/(m - 2), ...) and the constant 2/(m - 1); index
    1, if present, takes 1 in each.
    """
    head = [i for i, _ in y.entries if i == 1]
    rest = sorted((i for i, _ in y.entries if i != 1), key=lambda i: (-abs(y.coeff(i)), i))
    m = len(rest)
    pair = {rest[0]: F(1), rest[1]: F(1)}
    spike = {i: F(1) if k == 0 else F(1, m - 2) for k, i in enumerate(rest)}
    flat = {i: F(2, m - 1) for i in rest}
    return [FinVec.from_pairs([(i, F(1)) for i in head] + sorted(x.items())) for x in (pair, spike, flat)]


class TestOnePastSchreier:
    def test_closed_form_matches_cutting_plane(self, fresh_stores, monkeypatch):
        rng = random.Random(79)
        vectors = [one_past_vec(rng) for _ in range(1200)]
        support_function = dualnorm.support_function_norm

        def unreachable(*args):
            raise AssertionError(f"reached with {args}")

        monkeypatch.setattr(dualnorm, "_cutting_plane", unreachable)
        values = [dual_norm(y) for y in vectors]
        monkeypatch.undo()
        kinds = collections.Counter()
        for y, value in zip(vectors, values):
            points = [i for i in y.support() if i != 1]
            kinds["head" if y.coeff(1) else "no head"] += 1
            kinds["contiguous" if points[-1] - points[0] == len(points) - 1 else "gapped"] += 1
            assert value == support_function(y, norming_functional)
        assert min(kinds.values()) >= 300

    def test_matches_the_exhaustive_oracle(self, fresh_stores):
        rng = random.Random(83)
        checked = 0
        while checked < 120:
            y = one_past_vec(rng, max_points=8)
            if len(y.hull()) <= MAX_EXACT_HULL:
                checked += 1
                assert dual_norm(y) == dual_norm_exact_small(y)

    def test_primal_certificate(self, fresh_stores):
        # the best of the three candidate points attains the value, and each
        # lies on the unit sphere of T
        rng = random.Random(89)
        for _ in range(300):
            y = one_past_vec(rng)
            magnitudes = FinVec.from_pairs((i, abs(c)) for i, c in y.entries)
            points = one_past_points(y)
            assert all(tsirelson_norm(x) == 1 for x in points)
            assert max(pairing(magnitudes, x) for x in points) == dual_norm(y)

    def test_t_norm_identity(self):
        # ||x||_T = max(||x||_inf, (||x||_1 - min |x_i|) / 2) on m = min supp + 1 points
        rng = random.Random(97)
        for _ in range(1500):
            x = one_past_vec(rng)
            if x.coeff(1):
                x = FinVec(x.entries[1:])
            magnitudes = [abs(c) for _, c in x.entries]
            expected = max(max(magnitudes), (sum(magnitudes) - min(magnitudes)) / 2)
            assert tsirelson_norm(x) == expected


def prefix_vec(rng, top):
    """A seeded vector with support exactly {1, ..., top}."""
    return FinVec.from_pairs((i, rng.choice(POOL)) for i in range(1, top + 1))


@st.composite
def vectors_through_one(draw):
    """Vectors with index 1 and at least one more index in [2, 9] in their support."""
    coefficient = st.builds(
        F, st.integers(min_value=-6, max_value=6).filter(bool), st.integers(min_value=1, max_value=6)
    )
    tail = draw(st.lists(st.integers(min_value=2, max_value=9), min_size=1, max_size=8, unique=True))
    return FinVec.from_pairs((i, draw(coefficient)) for i in [1, *tail])


@pytest.fixture
def program_solves(monkeypatch):
    """(support, objectives solved) of every cutting-plane program built, in order."""
    programs = []
    cutting_plane = dualnorm._cutting_plane

    def spied(support, oracle, first):
        solve, objectives = cutting_plane(support, oracle, first), []
        programs.append((tuple(support), objectives))

        def recorded(w, limit=None):
            objectives.append(tuple(w))
            return solve(w, limit)

        return recorded

    monkeypatch.setattr(dualnorm, "_cutting_plane", spied)
    return programs


class TestPeel:
    def test_matches_the_exhaustive_oracle(self, fresh_stores):
        rng = random.Random(61)
        pooled = 0
        for _ in range(60):
            hi = rng.randint(2, MAX_EXACT_HULL)
            y = random_vec(rng, 2, hi) + F(rng.choice((1, -1)), rng.randint(1, 4)) * e(1)
            assert dual_norm(y) == dual_norm_exact_small(y)
            pooled += y.support() == tuple(range(1, hi + 1)) and hi > 3
        assert pooled >= 5

    @settings(max_examples=40, deadline=None)
    @given(vectors_through_one())
    def test_first_coordinate_adds(self, y):
        head, tail = abs(y.entries[0][1]), FinVec(y.entries[1:])
        # the unpeeled cutting plane on all of y checks the identity itself
        assert dual_norm(y) == head + dual_norm(tail) == support_function_norm(y, norming_functional)

    def test_zero_and_singleton_take_their_own_paths(self, fresh_stores, monkeypatch):
        def unreachable(*args):
            raise AssertionError(f"reached with {args}")

        monkeypatch.setattr(dualnorm, "_cutting_plane", unreachable)
        assert dual_norm(FinVec.zero()) == 0
        assert dual_norm(F(-3, 7) * e(1)) == F(3, 7)
        engine = DualTsirelsonEngine()
        assert engine.eval_magnitudes([3], 6) == F(1, 2)
        assert engine.eval_magnitudes([], 5) == 0
        assert dualnorm._dual_cache == {} and dualnorm._program_pool == {}

    def test_tails_share_their_cache_entry(self, fresh_stores, program_solves):
        # a tail is looked up in lowest terms, whatever the head's denominator;
        # its program solves |y| in lowest terms, once
        tail = FinVec.from_pairs([(2, 1), (3, F(1, 2)), (5, -2), (6, 1)])
        value = dual_norm(tail)
        for head in (F(1), F(1, 2), F(-1, 3), F(7, 4)):
            assert dual_norm(head * e(1) + tail) == abs(head) + value
        assert program_solves == [((2, 3, 5, 6), [(2, 1, 4, 2)])]
        # {2, ..., 5} is two points past the Schreier regime, so it takes the LP
        prefix_tail = FinVec.from_pairs([(2, 3), (3, 1), (4, 2), (5, 1)])
        value = dual_norm(prefix_tail)
        engine = DualTsirelsonEngine()
        assert engine.eval_magnitudes([1, 12, 4, 8, 4], 4) == F(1, 4) + value
        assert engine.eval_magnitudes([5, 3, 1, 2, 1], 1) == 5 + value
        assert program_solves[1:] == [((2, 3, 4, 5), [(3, 1, 2, 1)])]
        assert list(dualnorm._program_pool) == [(2, 3, 5, 6), (2, 3, 4, 5)]

    def test_pooled_prefixes_in_any_order(self, fresh_stores, program_solves):
        rng = random.Random(67)
        vectors = [prefix_vec(rng, rng.randint(4, 10)) for _ in range(40)]

        def values(order, clear_each):
            dualnorm._dual_cache.clear()
            dualnorm._program_pool.clear()
            program_solves.clear()
            found = {}
            for k in order:
                if clear_each:
                    dualnorm._dual_cache.clear()
                    dualnorm._program_pool.clear()
                found[k] = dual_norm(vectors[k])
            return [found[k] for k in range(len(vectors))]

        forward = values(range(len(vectors)), False)
        # one program per tail {2, ..., k}, re-solved for the later vectors
        assert sum(len(objectives) - 1 for _, objectives in program_solves) >= 20
        assert values(reversed(range(len(vectors))), False) == forward
        assert values(range(len(vectors)), True) == forward
        assert program_solves and all(len(objectives) == 1 for _, objectives in program_solves)
        for y, value in zip(vectors, forward):
            assert value == support_function_norm(y, norming_functional)

    def test_values_never_depend_on_the_pool(self, fresh_stores, program_solves):
        # gapped supports that are not prefixes, two or three points past the
        # regime, four vectors on each; evaluated in three orders with the
        # pool kept, cleared before every call, and capped at two programs
        rng = random.Random(101)
        supports = []
        while len(supports) < 6:
            lo = rng.randint(2, 5)
            support = (lo, *sorted(rng.sample(range(lo + 1, lo + 10), lo + rng.randint(1, 2))))
            if support[-1] - lo >= len(support) and support not in supports:
                supports.append(support)
        vectors = [FinVec.from_pairs((i, rng.choice(POOL)) for i in support) for support in supports for _ in range(4)]
        reference = [support_function_norm(y, norming_functional) for y in vectors]
        forward = list(range(len(vectors)))
        # the vectors of one support in a row, or one support after another
        interleaved = [k for j in range(4) for k in forward[j::4]]
        built = {}
        size = dualnorm._program_pool.size
        for mode in ("kept", "cleared", "capped"):
            cap = dualnorm._program_pool.size = 2 if mode == "capped" else size
            for name, order in [("forward", forward), ("reverse", forward[::-1]), ("interleaved", interleaved)]:
                dualnorm._dual_cache.clear()
                dualnorm._program_pool.clear()
                program_solves.clear()
                for k in order:
                    if mode == "cleared":
                        dualnorm._program_pool.clear()
                    assert dual_norm(vectors[k]) == reference[k]
                    assert len(dualnorm._program_pool) <= cap
                built[mode, name] = len(program_solves)
        assert {built["kept", name] for name in ("forward", "reverse", "interleaved")} == {len(supports)}
        assert {built["cleared", name] for name in ("forward", "reverse", "interleaved")} == {len(vectors)}
        # two programs hold a run of one support, but not a round of six
        assert built["capped", "forward"] == built["capped", "reverse"] == len(supports)
        assert built["capped", "interleaved"] == len(vectors)


class TestDualNormMagnitudes:
    def test_any_scale_shares_the_vector_entry(self, fresh_stores, program_solves):
        # (12, 6, 6, 6, 6) at scale 6 is y = (2, 1, 1, 1, 1) on {3, ..., 7}, two
        # points past the Schreier regime, so it takes the LP
        y = FinVec.from_pairs([(3, 2), (4, -1), (5, 1), (6, 1), (7, 1)])
        value = dual_norm(y)
        assert len(dualnorm._dual_cache) == 1
        assert dual_norm_magnitudes((3, 4, 5, 6, 7), [12, 6, 6, 6, 6], 6) == value
        assert dual_norm_magnitudes((3, 4, 5, 6, 7), (4, 2, 2, 2, 2), 2) == value
        assert len(dualnorm._dual_cache) == 1
        assert program_solves == [((3, 4, 5, 6, 7), [(2, 1, 1, 1, 1)])]
        # and the other way round: the int caller fills the entry first, on
        # the same pooled program
        dualnorm._dual_cache.clear()
        assert dual_norm_magnitudes((3, 4, 5, 6, 7), [12, 6, 6, 6, 6], 6) == value
        assert dual_norm(y) == value
        assert len(dualnorm._dual_cache) == 1
        assert program_solves == [((3, 4, 5, 6, 7), [(2, 1, 1, 1, 1)] * 2)]

    def test_the_empty_support_is_zero(self, fresh_stores):
        # y = 0 is in the Schreier regime, with or without a limit, and
        # touches no store
        assert dual_norm_magnitudes((), [], 1) == 0
        assert dual_norm_magnitudes((), [], 7, F(0)) == 0
        assert DualTsirelsonEngine().eval_magnitudes([0, 0], 3) == 0
        assert not any(fresh_stores)

    def test_matches_dual_norm_at_any_scale(self, fresh_stores):
        rng = random.Random(73)
        for _ in range(60):
            y = random_vec(rng, rng.randint(1, 4), rng.randint(4, 9))
            values, scale = scaled_integers([c for _, c in y.entries])
            factor = rng.choice((1, 2, 5, 12))
            magnitudes = [abs(v) * factor for v in values]
            assert dual_norm_magnitudes(y.support(), magnitudes, scale * factor) == dual_norm(y)


def exceeds(support, magnitudes, scale, threshold):
    """The threshold decision: ``dual_norm_magnitudes`` with the limit θ, compared with θ."""
    return dual_norm_magnitudes(support, magnitudes, scale, threshold) > threshold


class TestDualNormExceeds:
    """``dual_norm_magnitudes(..., limit) > limit`` decides ||y||* > limit."""

    @staticmethod
    def thresholds(value):
        return (value - F(1, 97), value, value + F(1, 97))

    def test_closed_forms_decide_at_once(self, fresh_stores, monkeypatch):
        def unreachable(*args):
            raise AssertionError(f"reached with {args}")

        monkeypatch.setattr(dualnorm, "_cutting_plane", unreachable)
        # the Schreier regime, and one point past it
        for support, magnitudes in [((3, 4, 5), [2, 1, 3]), ((3, 4, 5, 6), [2, 1, 3, 1])]:
            value = dual_norm_magnitudes(support, magnitudes, 6)
            for threshold in self.thresholds(value):
                assert exceeds(support, magnitudes, 6, threshold) == (value > threshold)
        assert list(dualnorm._dual_cache) == [(6, (3, 4, 5, 6), (2, 1, 3, 1))]

    def test_the_peel_subtracts_the_head(self, fresh_stores, program_solves):
        # the tail {2, 3, 5, 6} reaches the cutting plane, and a threshold
        # below the head alone still takes the tail to its exact value
        support, magnitudes = (1, 2, 3, 5, 6), [3, 2, 1, 4, 2]
        value = dual_norm_magnitudes(support, magnitudes, 2)
        for threshold in (*self.thresholds(value), F(1)):
            for store in fresh_stores:
                store.clear()
            assert exceeds(support, magnitudes, 2, threshold) == (value > threshold)
        assert {program for program, _ in program_solves} == {(2, 3, 5, 6)}

    def test_the_cutting_plane_stops_at_a_bound(self, fresh_stores, monkeypatch):
        # two points past the regime; with the threshold at the l1 norm the
        # first restricted LP value already decides, before any oracle call
        # of the loop
        calls = []
        monkeypatch.setattr(dualnorm, "norming_functional", lambda *args: calls.append(1) or norming_functional(*args))
        support, magnitudes = (3, 4, 5, 6, 7), [2, 1, 1, 1, 1]
        value = dual_norm_magnitudes(support, magnitudes, 1)
        exact_calls = len(calls)
        for threshold in (*self.thresholds(value), F(6)):
            for store in fresh_stores:
                store.clear()
            del calls[:]
            above = exceeds(support, magnitudes, 1, threshold)
            decided_calls = len(calls)
            assert above == (value > threshold)
            assert list(dualnorm._program_pool) == [support]
            # a value above the threshold is cached as the value, a bound under its own key
            [key] = dualnorm._dual_cache
            assert key == ((1, support, tuple(magnitudes)) if above else (1, support, tuple(magnitudes), threshold))
            assert exceeds(support, magnitudes, 1, threshold) == above
            assert dual_norm_magnitudes(support, magnitudes, 1) == value
        assert decided_calls == 1 < exact_calls  # the warm-start cut alone


class TestSimplexWork:
    @pytest.mark.parametrize("n, value, pivots", [(12, F(13, 6), 133), (16, F(17, 8), 241)])
    def test_closed_window_pivots(self, n, value, pivots, fresh_stores, monkeypatch):
        # the pivot count of a whole cutting plane; a tie broken by column
        # position instead of variable id changes the work, not only the time.
        # dual_norm answers closed windows in closed form, so the cutting
        # plane is driven directly
        pivoted = []
        pivot = _simplex.Tableau._pivot

        def counted(tableau, leaving, entering):
            pivoted.append((leaving, entering))
            pivot(tableau, leaving, entering)

        monkeypatch.setattr(_simplex.Tableau, "_pivot", counted)
        window = FinVec.from_pairs((i, 1) for i in range(n, 2 * n + 1))
        assert support_function_norm(window, norming_functional) == value
        assert len(pivoted) == pivots


class TestEvalMagnitudes:
    @pytest.mark.parametrize("engine", [LpEngine(1), LpEngine(math.inf), DualTsirelsonEngine()])
    def test_matches_eval_of_the_vector(self, engine, fresh_stores):
        rng = random.Random(71)
        shared = 0
        # zero tails, a zero head and interior zeros first
        fixed = [([3, 0, 0, 0], 2), ([0, 0, 0, 0], 5), ([0, 4, 0, 0, 2], 2), ([0, 1, 2, 3, 4], 6)]
        for k in range(80 + len(fixed)):
            scale = rng.choice((1, 2, 6, 12, 35))
            magnitudes = [rng.choice((0, 1, 2, 3, 4, 6, 10, 12)) for _ in range(rng.randint(1, 9))]
            if rng.random() < 0.7:
                magnitudes = [m or 1 for m in magnitudes]
            if k < len(fixed):
                magnitudes, scale = fixed[k]
            shared += math.gcd(scale, *magnitudes) > 1
            x = FinVec.from_pairs((j + 1, F(m, scale)) for j, m in enumerate(magnitudes))
            assert engine.eval_magnitudes(magnitudes, scale) == engine.eval(x)
            assert engine.eval_magnitudes(tuple(magnitudes), scale) == engine.eval(x)
        assert shared >= 10


class TestGenericCuttingPlane:
    def test_l1_oracle_reproduces_linf(self):
        # the same machinery pointed at the l1 ball gives the sup norm
        def l1_oracle(indices, values):
            return [1] * len(indices), 1

        rng = random.Random(37)
        for _ in range(50):
            y = random_vec(rng, 1, 10)
            got = support_function_norm(y, l1_oracle)
            assert got == lp_norm(y, math.inf)


class TestEngines:
    def test_flags_and_names(self):
        for engine in (LpEngine(1), LpEngine(math.inf), TsirelsonEngine(), DualTsirelsonEngine()):
            assert engine.is_1_unconditional

    def test_compaction_flag_honest(self, fresh_stores):
        # moving a support to smaller indices, coefficients in order, never
        # lowers a norm that declares it; T declares nothing, and lowers
        rng = random.Random(103)
        flagged = [LpEngine(1), LpEngine(math.inf), DualTsirelsonEngine()]
        assert all(engine.is_compaction_monotone for engine in [LpEngine(2), *flagged])
        assert not TsirelsonEngine().is_compaction_monotone
        compactions = 0
        while compactions < 40:
            k = rng.randint(2, 6)
            support = sorted(rng.sample(range(1, 14), k))
            left = sorted(rng.sample(range(1, support[-1] + 1), k))
            if left == support or any(i > j for i, j in zip(left, support)):
                continue
            compactions += 1
            coefficients = [rng.choice(POOL) for _ in range(k)]
            y = FinVec.from_pairs(zip(support, coefficients))
            compacted = FinVec.from_pairs(zip(left, coefficients))
            for engine in flagged:
                assert engine.eval_exact(compacted) >= engine.eval_exact(y)
        assert tsirelson_norm(e(3) + e(4) + e(5)) == F(3, 2)
        assert tsirelson_norm(e(1) + e(2) + e(3)) == 1

    def test_eval_exact(self):
        assert DualTsirelsonEngine().eval_exact(e(2) + e(3)) == 2
        assert LpEngine(1).eval_exact(e(1) - e(2)) == 2

    def test_monotone_basis_flag_honest(self):
        rng = random.Random(41)
        engine = DualTsirelsonEngine()
        for _ in range(15):
            y = random_vec(rng, 1, 8)
            top = y.entries[-1][0]
            prefix = FinVec.from_pairs(
                (i, c) for i, c in y.entries if i < top
            )
            assert engine.eval_exact(prefix) <= engine.eval_exact(y)
