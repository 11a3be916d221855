import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsirelson_lab.seqvec import (
    EventuallyConstantSeq,
    FinVec,
    IndexInterval,
    NormBounds,
    _int_nth_root,
    integer_entries,
    lp_norm,
    nth_root_bounds,
    restrict,
    scaled_integers,
    shift_support,
)
from tsirelson_lab.tsirelson import evaluation_tree_from_json, tsirelson_maximizer

e = FinVec.basis


def vec(*pairs):
    return FinVec.from_pairs(pairs)


# -- hypothesis strategies ----------------------------------------------------

rationals = st.builds(
    F, st.integers(min_value=-8, max_value=8), st.integers(min_value=1, max_value=6)
)


@st.composite
def finvecs(draw, max_index=12):
    indices = draw(
        st.lists(
            st.integers(min_value=1, max_value=max_index), unique=True, max_size=6
        )
    )
    return FinVec.from_pairs((i, draw(rationals)) for i in indices)


class TestFinVec:
    def test_zero_and_support(self):
        assert FinVec.zero().is_zero
        assert vec((3, 1), (1, 2)).support() == (1, 3)

    def test_strictly_increasing_enforced(self):
        with pytest.raises(ValueError):
            FinVec(((2, F(1)), (2, F(1))))

    def test_no_stored_zeros(self):
        with pytest.raises(ValueError):
            FinVec(((1, F(0)),))
        assert vec((1, 1), (1, -1)).is_zero  # from_pairs cancels

    def test_coeff_lookup(self):
        x = vec((2, "1/2"), (5, -3))
        assert x.coeff(2) == F(1, 2)
        assert x.coeff(3) == 0

    def test_arithmetic(self):
        assert e(1) + e(2) - e(1) == e(2)
        assert (e(1) + e(2)).scale(F(1, 2)) == vec((1, "1/2"), (2, "1/2"))
        assert -(e(1) - e(2)) == e(2) - e(1)
        assert 2 * e(3) == vec((3, 2))

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            FinVec.from_pairs([(1, 0.5)])
        with pytest.raises(TypeError):
            FinVec.from_pairs([(1, F(1, 2)), (1, 0.5)])

    def test_from_pairs_sums_repeats_of_any_input_type(self):
        x = FinVec.from_pairs([(3, F(1, 3)), (1, 2), (3, "1/6"), (2, F(1)), (3, 1), (2, -1)])
        assert x.entries == ((1, F(2)), (3, F(3, 2)))
        assert all(type(c) is F for _, c in x.entries)

    def test_json_roundtrip(self):
        x = vec((4, "1"), (5, "-2/3"))
        assert FinVec.loads(x.dumps()) == x
        assert FinVec.loads('[[4,"1"],[5,"-2/3"]]') == x

    def test_json_bad_entry_is_named(self):
        with pytest.raises(ValueError, match="entry #1"):
            FinVec.loads('[[1,"1"],[2,"x/y"]]')

    def test_a_boolean_index_is_rejected(self):
        # True equals 1, but a vector holding it printed as 1*eTrue and
        # dumped as [true, "1"], which loads refuses; every vector that can
        # be built must survive dumps and loads
        for pairs in ([(True, 1)], [(2, 1), (False, 1)]):
            with pytest.raises(ValueError, match="positive integers"):
                FinVec.from_pairs(pairs)
        with pytest.raises(ValueError, match="positive integers"):
            FinVec(((True, F(1)),))
        x = vec((1, 1), (2, "-1/2"))
        assert FinVec.loads(x.dumps()) == x
        tree = tsirelson_maximizer(x)
        assert evaluation_tree_from_json(tree.to_json_obj()) == tree

    @pytest.mark.parametrize("index", ["2.9", "2.0", "true", "false", '"3"', "null"])
    def test_json_index_must_be_an_integer(self, index):
        # int() would truncate 2.9 to 2 and read true as 1
        with pytest.raises(ValueError, match=r"entry #1: .*not a JSON integer"):
            FinVec.loads(f'[[1,"1"],[{index},"1"]]')


class TestRestrictShift:
    def test_restrict_examples(self):
        assert restrict(e(1) + e(2) + e(3), IndexInterval(2, 3)) == e(2) + e(3)
        assert restrict(e(1) + e(2), IndexInterval(5, 9)).is_zero
        assert restrict(e(4) + 2 * e(5) + 3 * e(6), IndexInterval(5, 5)) == 2 * e(5)

    def test_restrict_idempotent(self):
        x = vec((1, 1), (3, "1/2"), (7, -2))
        E = IndexInterval(2, 6)
        assert restrict(restrict(x, E), E) == restrict(x, E)

    def test_shift_examples(self):
        assert shift_support(e(4) + e(6), 1) == e(1) + e(2)
        assert shift_support(FinVec.basis(2, 3), 7) == FinVec.basis(7, 3)
        x = vec((4, 1), (6, -1))
        assert shift_support(x, 4) == vec((4, 1), (5, -1))


class TestLpNorm:
    def test_exact_examples(self):
        assert lp_norm(e(1) + e(2), 1) == 2
        assert lp_norm(FinVec.basis(5, 3), math.inf) == 3
        assert lp_norm(e(1) + e(2) + e(3) + e(4), 2) == 2

    def test_zero_vector(self):
        assert lp_norm(FinVec.zero(), 1) == 0
        assert lp_norm(FinVec.zero(), math.inf) == 0

    def test_q_below_one_rejected(self):
        with pytest.raises(ValueError):
            lp_norm(e(1), F(1, 2))

    def test_interval_result_tightness(self):
        value = lp_norm(e(1) + e(2) + e(3), 2)  # sqrt(3), irrational
        assert isinstance(value, NormBounds)
        assert value.width <= F(1, 10**12)
        assert value.lower**2 <= 3 <= value.upper**2

    def test_non_integer_exponent(self):
        value = lp_norm(e(1) + e(2), F(3, 2))
        target = 2 ** F(2, 3)
        assert isinstance(value, NormBounds)
        assert value.lower**3 <= 4 <= value.upper**3

    @settings(max_examples=40, deadline=None)
    @given(finvecs(), finvecs(), rationals)
    def test_norm_axioms_l1(self, x, y, scalar):
        assert lp_norm(x + y, 1) <= lp_norm(x, 1) + lp_norm(y, 1)
        assert lp_norm(x.scale(scalar), 1) == abs(scalar) * lp_norm(x, 1)
        assert (lp_norm(x, 1) == 0) == x.is_zero

    @settings(max_examples=40, deadline=None)
    @given(finvecs(), finvecs())
    def test_norm_axioms_linf(self, x, y):
        assert lp_norm(x + y, math.inf) <= lp_norm(x, math.inf) + lp_norm(y, math.inf)


def bisected_root_bounds(value, k, tolerance=F(1, 10**12)):
    """The bisection loop that ``nth_root_bounds`` replaces with its closed form."""
    num_root, num_exact = _int_nth_root(value.numerator, k)
    den_root, den_exact = _int_nth_root(value.denominator, k)
    if num_exact and den_exact:
        exact = F(num_root, den_root)
        return exact, exact
    lo = F(num_root, den_root + 1)
    hi = F(num_root + 1, max(den_root, 1))
    if lo**k > value:
        lo = F(0)
    if hi**k < value:
        hi = max(F(1), value)
    while hi - lo > tolerance:
        mid = (lo + hi) / 2
        if mid**k <= value:
            lo = mid
        else:
            hi = mid
    return lo, hi


class TestRootBounds:
    def test_exact_roots_detected(self):
        assert nth_root_bounds(F(4), 2) == (2, 2)
        assert nth_root_bounds(F(27, 8), 3) == (F(3, 2), F(3, 2))
        for k in (1, 2, 3, 12):  # 0 and its denominator 1 are exact roots
            roots = nth_root_bounds(F(0), k)
            assert roots == (0, 0) and all(type(v) is F for v in roots)

    def test_inexact_roots_enclose(self):
        lo, hi = nth_root_bounds(F(2), 2)
        assert lo < hi and lo**2 < 2 < hi**2
        assert hi - lo <= F(1, 10**12)

    def test_closed_form_matches_bisection(self):
        rng = random.Random(19)
        tolerances = [F(1, 10**12), F(1, 10**3), F(1, 2**20), F(3, 7), F(1), F(10**6)]
        checked = 0
        for _ in range(400):
            k = rng.choice([2, 2, 3, 4, 5, 7, 12])
            value = F(rng.randint(1, 10**rng.randint(1, 30)), rng.randint(1, 10**rng.randint(1, 30)))
            tolerance = rng.choice(tolerances)
            expected = bisected_root_bounds(value, k, tolerance)
            got = nth_root_bounds(value, k, tolerance)
            assert got == expected and all(type(v) is F for v in got)
            checked += expected[0] != expected[1]
        assert checked >= 300
        # widths that end exactly on the tolerance, values beyond float range,
        # and the lp_norm sums of a long vector
        for value, k, tolerance in [
            # the starting bracket of 2 and of 5/3 is [1/2, 2], of width 3/2
            (F(2), 2, F(3, 2)),
            (F(2), 2, F(3, 8)),
            (F(5, 3), 3, F(3, 16)),
            (F(10**400 + 1), 2, F(1, 10**12)),
            (F(1, 10**400 + 1), 3, F(1, 10**12)),
            (F(7), 2000, F(1, 10**12)),
        ]:
            assert nth_root_bounds(value, k, tolerance) == bisected_root_bounds(value, k, tolerance)

    def test_integer_root_beyond_float_range(self):
        # a float guess n ** (1 / k) overflows past about 1.8e308
        assert _int_nth_root(10**400, 2) == (10**200, True)
        assert _int_nth_root(10**400 - 1, 2) == (10**200 - 1, False)
        assert _int_nth_root(3**2000, 2000) == (3, True)

    def test_integer_root_is_the_floor_root(self):
        rng = random.Random(17)
        for _ in range(3000):
            k = rng.choice([1, 2, 3, 5, 7, 64, 2000])
            n = rng.choice([rng.randint(0, 10**6), rng.getrandbits(rng.randint(1, 4000)), rng.randint(1, 99) ** k])
            n += rng.choice([-1, 0, 1]) if n else 0
            r, exact = _int_nth_root(n, k)
            assert r**k <= n < (r + 1) ** k
            assert exact == (r**k == n)


class TestEventuallyConstantSeq:
    def test_canonical_trimming(self):
        x = EventuallyConstantSeq.from_values([1, 1, 1], 1)
        assert x.stabilization_index == 0
        assert x.coeff(17) == 1

    def test_equality_is_semantic(self):
        direct = EventuallyConstantSeq((F(2), F(1)), F(1))
        assert direct == EventuallyConstantSeq.from_values([2], 1)
        assert direct.stabilization_index == 1

    def test_partial_sum(self):
        x = EventuallyConstantSeq.from_values([2], 1)
        assert x.partial_sum(3) == vec((1, 2), (2, 1), (3, 1))

    def test_embedding(self):
        x = EventuallyConstantSeq.from_finvec(e(2) + e(4))
        assert x.tail_value == 0
        assert x.coeff(2) == 1 and x.coeff(3) == 0 and x.coeff(5) == 0

    def test_linear_ops(self):
        x = EventuallyConstantSeq.from_values([1], 2)
        y = EventuallyConstantSeq.from_values([0, 1], -2)
        z = x.add(y)
        assert z.tail_value == 0
        assert z.coeff(1) == 1 and z.coeff(2) == 3 and z.coeff(3) == 0
        assert x.scale(F(1, 2)).tail_value == 1

    def test_json_roundtrip(self):
        x = EventuallyConstantSeq.from_values([1, "1/3"], "-2")
        assert EventuallyConstantSeq.from_json_obj(x.to_json_obj()) == x

    @pytest.mark.parametrize("head", ["12", {"1": "1"}, 12])
    def test_json_head_must_be_a_list(self, head):
        # iterating the string "12" would read the head (1, 2)
        with pytest.raises(ValueError, match="not a list"):
            EventuallyConstantSeq.from_json_obj({"head": head, "tail_value": "0"})


class TestIntegerEntries:
    def test_zero_vector(self):
        assert integer_entries(FinVec.zero()) == ((), [], 1)

    def test_int_coefficients_have_scale_one(self):
        assert integer_entries(vec((1, 3), (4, -2), (7, 1))) == ((1, 4, 7), [3, -2, 1], 1)

    def test_fraction_coefficients_keep_their_signs(self):
        x = vec((2, F(-1, 2)), (3, F(1, 3)), (5, 2), (9, F(-5, 4)))
        assert integer_entries(x) == ((2, 3, 5, 9), [-6, 4, 24, -15], 12)

    @given(finvecs())
    @settings(max_examples=100, deadline=None)
    def test_scale_is_the_lcm_of_the_denominators(self, x):
        support, values, scale = integer_entries(x)
        assert scale == math.lcm(*(c.denominator for _, c in x.entries))
        assert all(type(v) is int for v in values)
        assert FinVec.from_ints(support, values, scale) == x


class TestScaledIntegers:
    @pytest.mark.parametrize(
        "values, least",
        [
            ([F(-3, 4), F(5, 6), 2, F(0), F(-7, 9)], 36),
            ([F(-1, 2), F(-1, 2)], 2),
            ([F(3), -4, 0], 1),
            ([F(2**70 + 1, 3**20), F(-1, 5**9)], 3**20 * 5**9),
            ([], 1),
        ],
    )
    def test_negative_and_mixed_denominators(self, values, least):
        ints, scale = scaled_integers(values)
        assert scale == least
        assert all(type(v) is int for v in ints)
        assert [F(v, scale) for v in ints] == values

    @given(st.lists(rationals, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_is_the_least_scale(self, values):
        ints, scale = scaled_integers(values)
        assert [F(v, scale) for v in ints] == values
        assert all(any((v * k).denominator != 1 for v in values) for k in range(1, scale))


class TestRestrictContractivity:
    def test_contractive_for_every_unconditional_engine(self):
        import random

        from tsirelson_lab.dualnorm import (
            DualTsirelsonEngine,
            LpEngine,
            TsirelsonEngine,
        )
        from tsirelson_lab.seqvec import lower_of, upper_of

        engines = [
            LpEngine(1),
            LpEngine(F(2)),
            LpEngine(math.inf),
            TsirelsonEngine(),
            DualTsirelsonEngine(),
        ]
        rng = random.Random(99)
        pool = [F(v) for v in ("1", "-1", "1/2", "-2", "1/3")]
        for _ in range(15):
            idx = [i for i in range(1, 9) if rng.random() < 0.7] or [3]
            x = FinVec.from_pairs((i, rng.choice(pool)) for i in idx)
            lo = rng.randint(1, 8)
            E = IndexInterval(lo, rng.randint(lo, 8))
            for engine in engines:
                assert engine.is_1_unconditional
                restricted = engine.eval(restrict(x, E))
                full = engine.eval(x)
                # interval-safe comparison; exact engines compare exactly
                assert lower_of(restricted) <= upper_of(full)
                if not isinstance(restricted, NormBounds) and not isinstance(
                    full, NormBounds
                ):
                    assert restricted <= full


class TestIndexInterval:
    def test_validation(self):
        with pytest.raises(ValueError):
            IndexInterval(3, 2)
        with pytest.raises(ValueError):
            IndexInterval(0, 2)
        for lo, hi in [(True, 2), (1, True), (2.0, 3)]:
            with pytest.raises(TypeError, match="must be integers"):
                IndexInterval(lo, hi)

    def test_contains_len(self):
        E = IndexInterval(2, 5)
        assert 2 in E and 5 in E and 6 not in E
        assert len(E) == 4
