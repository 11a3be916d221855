import itertools
import math
import random
from fractions import Fraction as F

import pytest

from tsirelson_lab import certify, cli, dualnorm, jamesify
from tsirelson_lab.seqvec import EventuallyConstantSeq, FinVec, IndexInterval, NormBounds, scaled_integers
from tsirelson_lab.dualnorm import (
    DualTsirelsonEngine,
    LpEngine,
    NormEngine,
    TsirelsonEngine,
    dual_norm,
    dual_norm_exact_small,
    tree_functionals,
)
from tsirelson_lab.tsirelson import tsirelson_norm
from tsirelson_lab.jamesify import (
    JamesEngine,
    PairSelection,
    alpha_limit,
    bidual_norm,
    canonical_selection_indices,
    difference_vector,
    james_exceeds_ints,
    james_norm,
    james_norm_ints,
    u_map,
)

e = FinVec.basis
T_STAR = DualTsirelsonEngine()

POOL = [F(v) for v in ("1", "-1", "1/2", "-1/2", "2", "-2", "1/3", "-1/3")]


def w(n):
    return FinVec.from_pairs((i, 1) for i in range(1, n + 1))


def random_vec(rng, lo, hi):
    idx = [i for i in range(lo, hi + 1) if rng.random() < 0.7] or [hi]
    return FinVec.from_pairs((i, rng.choice(POOL)) for i in idx)


class CountingEngine(NormEngine):
    """A base engine that counts its evaluations and its upper bounds."""

    is_1_unconditional = True
    is_compaction_monotone = True

    def __init__(self, base):
        self.base, self.name, self.calls, self.bounds = base, base.name, 0, 0

    def eval(self, x):
        self.calls += 1
        return self.base.eval(x)

    def upper_bound(self, magnitudes):
        self.bounds += 1
        return self.base.upper_bound(magnitudes)


@pytest.fixture
def empty_memo(fresh_stores):
    """A fresh, empty James memo for one test."""
    return jamesify._james_memo


def james_brute(a, engine, extra=2):
    """Independent exhaustive maximization over selections in [1, m+extra]."""
    if a.is_zero:
        return F(0)
    top = a.entries[-1][0]
    best = F(0)
    domain = range(1, top + extra + 1)
    for size in range(2, len(domain) + 1, 2):
        for combo in itertools.combinations(domain, size):
            value = engine.eval(difference_vector(a, PairSelection(combo)))
            if value > best:
                best = value
    return best


class TestPairSelection:
    def test_validation(self):
        with pytest.raises(ValueError):
            PairSelection((1,))
        with pytest.raises(ValueError):
            PairSelection((2, 2))
        with pytest.raises(ValueError):
            PairSelection((True, 2))  # True == 1, but it is no integer index
        assert PairSelection((1, 3, 4, 9)).k == 2

    def test_pairs(self):
        assert PairSelection((1, 2, 5, 7)).pairs() == [(1, 2), (5, 7)]


class TestDifferenceVector:
    def test_examples(self):
        assert difference_vector(w(3), PairSelection((3, 4))) == e(1)
        assert difference_vector(e(1) - e(2), PairSelection((1, 2))) == 2 * e(1)
        assert difference_vector(w(3), PairSelection((1, 2, 3, 4))) == e(2)

    def test_outside_support_reads_zero(self):
        assert difference_vector(e(2), PairSelection((5, 9))).is_zero


def canonical_by_definition(a):
    """C(a) with a's values, from the padded sequence (a_1, ..., a_m, 0) itself."""
    if a.is_zero:
        return []
    top = a.entries[-1][0]
    values = [a.coeff(i) for i in range(1, top + 2)]  # padded with a zero
    chosen = []
    run_start = 0
    for k in range(1, len(values) + 1):
        if k == len(values) or values[k] != values[run_start]:
            chosen.append(run_start + 1)
            if k - run_start >= 2:
                chosen.append(run_start + 2)
            run_start = k
    return [(i, values[i - 1]) for i in chosen]


class TestCanonicalIndices:
    def test_runs_get_two_representatives(self):
        # a = (1, 0, 0, 1, 1): zero run {2,3} and one run {4,5} both matter
        a = e(1) + e(4) + e(5)
        assert canonical_selection_indices(a) == [(1, 1), (2, 0), (3, 0), (4, 1), (5, 1), (6, 0)]

    def test_w_pattern_collapses(self):
        assert canonical_selection_indices(w(20)) == [(1, 1), (2, 1), (21, 0)]

    def test_zero(self):
        assert canonical_selection_indices(FinVec.zero()) == []

    def test_one_pass_matches_the_definition(self):
        rng = random.Random(37)
        shapes = {"gap": 0, "run": 0, "last run": 0}
        for _ in range(300):
            top = rng.randint(1, 14)
            coefficients = [rng.choice((F(0), F(0), F(1), F(-1), F(1, 2))) for _ in range(top)]
            coefficients[-1] = coefficients[-1] or F(2)
            if rng.random() < 0.3 and top > 1:
                coefficients[-2] = coefficients[-1]  # a run up to the padded zero
            a = FinVec.from_pairs((i + 1, c) for i, c in enumerate(coefficients) if c)
            assert canonical_selection_indices(a) == canonical_by_definition(a)
            shapes["gap"] += F(0) in coefficients
            shapes["run"] += any(x == y != 0 for x, y in zip(coefficients, coefficients[1:]))
            shapes["last run"] += top > 1 and coefficients[-2] == coefficients[-1]
        assert min(shapes.values()) >= 50

    def test_far_indices_cost_their_entries_only(self):
        # the padded sequence of this vector has 4 000 006 terms
        a = e(4_000_000) + 2 * e(4_000_005)
        assert canonical_selection_indices(a) == [
            (1, 0), (2, 0), (4_000_000, 1), (4_000_001, 0), (4_000_002, 0), (4_000_005, 2), (4_000_006, 0)
        ]
        assert james_norm(a, T_STAR) == 3


class TestJamesNormExamples:
    def test_unit_vectors(self):
        for j in range(1, 11):
            assert james_norm(e(j), T_STAR) == 1

    def test_w_n_is_one(self):
        for n in range(1, 21):
            assert james_norm(w(n), T_STAR) == 1

    def test_difference_pair(self):
        assert james_norm(e(1) - e(2), T_STAR) == 2

    def test_zero(self):
        assert james_norm(FinVec.zero(), T_STAR) == 0

    def test_interior_gap_regression(self):
        # selection (1,2,3,5) extracts both coefficients; a canonical set
        # restricted to support + {max+1} would miss it and report 1
        assert james_norm(e(2) + e(5), T_STAR) == 2

    def test_split_run_regression(self):
        # (1,2),(3,4),(5,6) needs two indices from the zero run {2,3}
        a = e(1) + e(4) + e(5)
        value = james_norm(a, T_STAR)
        assert value == james_brute(a, T_STAR)

    def test_non_unconditional_base_rejected(self):
        with pytest.raises(ValueError):
            james_norm(e(1), JamesEngine(T_STAR))

    def test_base_that_compaction_lowers_rejected(self):
        # T is 1-unconditional, but moving a support left can lower its norm,
        # so canonical selections miss the supremum: they give 1, while the
        # selection (1, ..., 10) gives e3 + e4 + e5, of T norm 3/2
        t = TsirelsonEngine()
        a = e(5) + e(7) + e(9)
        selection = PairSelection(tuple(range(1, 11)))
        assert difference_vector(a, selection) == e(3) + e(4) + e(5)
        assert james_brute(a, t, extra=3) == t.eval(e(3) + e(4) + e(5)) == F(3, 2)
        with pytest.raises(ValueError, match="compaction-monotone"):
            james_norm(a, t)
        with pytest.raises(ValueError, match="compaction-monotone"):
            JamesEngine(t)

    def test_witness_attains(self):
        rng = random.Random(3)
        for _ in range(20):
            a = random_vec(rng, 1, 7)
            if a.is_zero:
                continue
            value, selection = james_norm(a, T_STAR, with_witness=True)
            assert T_STAR.eval(difference_vector(a, selection)) == value


class TestJamesNormAgainstBruteForce:
    def test_l1_linf_small_sign_vectors(self):
        l1, linf = LpEngine(1), LpEngine(math.inf)
        for entries in itertools.product([-1, 0, 1], repeat=4):
            a = FinVec.from_pairs(
                (i + 1, c) for i, c in enumerate(entries) if c
            )
            for engine in (l1, linf):
                assert james_norm(a, engine) == james_brute(a, engine)

    def test_tstar_small_sign_vectors_with_witness(self):
        # T* leaves may be skipped by the dyadic bound; value and witness
        # must still match an exhaustive search
        for entries in itertools.product([-1, 0, 1], repeat=5):
            a = FinVec.from_pairs((i + 1, c) for i, c in enumerate(entries) if c)
            value, selection = james_norm(a, T_STAR, with_witness=True)
            assert value == james_brute(a, T_STAR)
            if a.is_zero:
                assert selection is None
            else:
                assert T_STAR.eval(difference_vector(a, selection)) == value

    def test_tstar_random_vectors(self):
        rng = random.Random(5)
        for _ in range(25):
            a = random_vec(rng, 1, 6)
            assert james_norm(a, T_STAR) == james_brute(a, T_STAR)

    @pytest.mark.parametrize("engine", [T_STAR, LpEngine(1), LpEngine(math.inf)], ids=["Tstar", "l1", "linf"])
    def test_repeated_values_with_witness(self, engine):
        # few distinct values give many equal differences, so distinct
        # selections reach the same search state and only the first is kept
        rng = random.Random(41)
        for _ in range(15):
            a = FinVec.from_pairs((i, rng.choice((1, -1, 2))) for i in range(1, 7) if rng.random() < 0.8)
            value, selection = james_norm(a, engine, with_witness=True)
            assert value == james_brute(a, engine)
            if not a.is_zero:
                assert engine.eval(difference_vector(a, selection)) == value


class TestSearchWork:
    def test_states_are_visited_once(self):
        # a 20..40 sample: twin states (leaves with one |d| are one state)
        # and push-time prunes keep the search to 1 218 leaf bounds (25 353
        # when every twin was searched); the leaves evaluated are 150
        a = FinVec.from_pairs(
            (i, F(c))
            for i, c in [[20, "1"], [23, "1/3"], [24, "-1/2"], [25, "1/3"], [26, "1"], [28, "-1/2"],
                         [29, "-1/3"], [31, "-1/3"], [33, "-1/2"], [34, "-2"], [35, "-1/2"], [36, "-1/2"],
                         [39, "-1/3"], [40, "2"]]
        )
        counted = CountingEngine(T_STAR)
        value, selection = james_norm(a, counted, with_witness=True)
        assert value == F(15, 2)
        assert selection == PairSelection((20, 24, 26, 28, 32, 34, 36, 40))
        assert counted.calls == 150
        assert counted.bounds <= 1218


class TestIntegerSearch:
    # denominators with no common factor, so the search's lcm scale is large
    MIXED = [F(v) for v in ("2/7", "-5/11", "3/13", "1/3", "-1", "4/7")]
    ENGINES = [DualTsirelsonEngine(), LpEngine(1), LpEngine(math.inf)]

    def mixed_vec(self, rng, top):
        idx = [i for i in range(1, top + 1) if rng.random() < 0.75] or [top]
        return FinVec.from_pairs((i, rng.choice(self.MIXED)) for i in idx)

    def test_mixed_denominators_match_brute_force_with_witness(self):
        rng = random.Random(29)
        for _ in range(12):
            a = self.mixed_vec(rng, 5)
            for engine in self.ENGINES:
                value, selection = james_norm(a, engine, with_witness=True)
                assert value == james_brute(a, engine)
                assert engine.eval(difference_vector(a, selection)) == value

    def test_scaling_keeps_value_selection_and_work(self, empty_memo):
        # the prunes compare in the search's integer units, so a scaled
        # vector must be pruned exactly as the unscaled one; the memo is
        # emptied first, so each scaled call is a search of its own
        rng = random.Random(31)
        for _ in range(8):
            a = self.mixed_vec(rng, 6)
            for engine in self.ENGINES:
                counted = CountingEngine(engine)
                value, selection = james_norm(a, counted, with_witness=True)
                evaluations = counted.calls
                for c in (F(1, 6), F(7, 3), F(1, 1001)):
                    counted.calls = 0
                    empty_memo.clear()
                    scaled, scaled_selection = james_norm(a.scale(c), counted, with_witness=True)
                    assert scaled == c * value
                    assert scaled_selection == selection
                    assert counted.calls == evaluations


class TestJamesMemo:
    ENGINES = [DualTsirelsonEngine(), LpEngine(1), LpEngine(math.inf)]

    @staticmethod
    def copies(a):
        """Vectors with a's pattern: shifted, negated and scaled copies."""
        shifted = FinVec.from_pairs((i + 5, c) for i, c in a.entries)
        return [shifted, a.scale(-1)] + [a.scale(c) for c in (F(1, 6), F(7, 3), F(1, 1001))]

    @staticmethod
    def late_vec(rng):
        """A seeded vector from index 3 on, so that a shift keeps its pattern."""
        idx = [i for i in range(3, 10) if rng.random() < 0.7] or [9]
        return FinVec.from_pairs((i, rng.choice(POOL)) for i in idx)

    def test_hits_match_cold_searches(self, empty_memo):
        rng = random.Random(43)
        for _ in range(10):
            a = self.late_vec(rng)
            for engine in self.ENGINES:
                for copy in self.copies(a):
                    empty_memo.clear()
                    james_norm(a, engine)
                    hit = james_norm(copy, engine, with_witness=True)
                    assert len(empty_memo) == 1  # the copy had a's pattern
                    empty_memo.clear()
                    assert hit == james_norm(copy, engine, with_witness=True)
                    value, selection = hit
                    assert engine.eval(difference_vector(copy, selection)) == value

    def test_a_hit_makes_no_base_evaluation(self, empty_memo):
        rng = random.Random(47)
        for _ in range(5):
            a = self.late_vec(rng)
            counted = CountingEngine(T_STAR)
            james_norm(a, counted)
            assert counted.calls > 0
            for copy in self.copies(a):
                counted.calls = counted.bounds = 0
                james_norm(copy, counted, with_witness=True)
                assert (counted.calls, counted.bounds) == (0, 0)

    @staticmethod
    def values_through_every_store(a):
        """T_J* of a with its witness, twice (a memo hit), T*, T and the exhaustive T*."""
        first = james_norm(a, T_STAR, with_witness=True)
        return (first, james_norm(a, T_STAR, with_witness=True),
                dual_norm(a), tsirelson_norm(a), dual_norm_exact_small(a))

    def test_memo_stays_within_its_cap(self, fresh_stores):
        # every module-level store, not only the James memo, at 4 entries:
        # each value must be the one reached with room to spare
        rng = random.Random(53)
        vectors = [random_vec(rng, 1, 6) for _ in range(30)]
        expected = [self.values_through_every_store(a) for a in vectors]
        for store in fresh_stores:
            store.clear()
            store.size = 4
        largest = [0] * len(fresh_stores)
        for a, values in zip(vectors, expected):
            assert self.values_through_every_store(a) == values
            assert values[0][0] == james_brute(a, T_STAR)
            assert all(len(store) <= 4 for store in fresh_stores)
            largest = [max(n, len(store)) for n, store in zip(largest, fresh_stores)]
        assert largest == [4] * len(fresh_stores)

    def test_oldest_entry_goes_first(self, fresh_stores):
        def indicator(lo, hi):
            return FinVec.from_pairs((i, 1) for i in range(lo, hi + 1))

        # per store, in the order of ``fresh_stores``: a call on j = 1, 2, 3
        # that adds one new key to it
        calls = [
            lambda j: dual_norm(indicator(j + 1, 2 * j + 2)),  # closed windows [n, 2n]
            lambda j: dual_norm(indicator(j + 1, 2 * j + 3)),  # [n, 2n + 1]: a program each
            lambda j: tree_functionals(IndexInterval(j, j)),
            lambda j: tsirelson_norm(e(j)),
            lambda j: james_norm(e(j), T_STAR),  # patterns (1, 0), (0, 1, 0), (0, 0, 1, 0)
        ]
        for store, call in zip(fresh_stores, calls):
            kept = []
            for size in (3, 2):
                for other in fresh_stores:
                    other.clear()
                store.size = size
                for j in (1, 2, 3):
                    call(j)
                kept.append(list(store))
            assert len(kept[0]) == 3 and kept[1] == kept[0][1:]
        assert [pattern for _, pattern in jamesify._james_memo] == [(0, 1, 0), (0, 0, 1, 0)]

    def test_integer_entry_matches_the_finvec_call(self, empty_memo, monkeypatch):
        # the ints and the scale both times 3: the value and the selection
        # are james_norm's, the call after the FinVec one is a memo hit, and
        # a cold search through the entry is the FinVec call's search
        searches = []
        search = jamesify._search
        monkeypatch.setattr(jamesify, "_search", lambda *args: searches.append(args) or search(*args))
        rng = random.Random(59)
        for _ in range(12):
            a = random_vec(rng, 1, 8)
            values, scale = scaled_integers([c for _, c in a.entries])
            tripled = (a.support(), [3 * v for v in values], 3 * scale, T_STAR)
            expected = james_norm(a, T_STAR, with_witness=True)
            made = len(searches)
            assert james_norm_ints(*tripled, with_witness=True) == expected
            assert james_norm_ints(*tripled) == expected[0]
            assert len(searches) == made
            empty_memo.clear()
            assert james_norm_ints(*tripled, with_witness=True) == expected
            assert len(searches) == made + 1
        assert james_norm_ints((), [], 1, T_STAR, with_witness=True) == (0, None)

    def test_every_route_to_t_star_shares_one_search(self, empty_memo, monkeypatch):
        # certify, the default James base and the CLI all use the one T*
        # engine dualnorm.T_STAR, so the memo holds one entry per pattern
        # over T*, and one vector costs one search however it is reached
        searches = []
        search = jamesify._search
        monkeypatch.setattr(jamesify, "_search", lambda *args: searches.append(args) or search(*args))
        x = EventuallyConstantSeq.from_values([F(1, 2), -1, 2, 0], 1)
        a = x.partial_sum(x.stabilization_index + 2)
        value = james_norm(a, certify.T_STAR)
        assert JamesEngine().eval(a) == value
        assert bidual_norm(x) == value
        assert cli.make_engine("TJstar").eval(a) == value
        assert cli.make_engine("TJ[Tstar]").eval(a) == value
        assert len(searches) == 1 and len(empty_memo) == 1
        assert JamesEngine().base is certify.T_STAR is cli.make_engine("Tstar") is dualnorm.T_STAR

    def test_enclosures_are_not_stored(self, empty_memo):
        # l2 leaves such as (1, 1) have irrational norms, and an enclosure's
        # absolute width does not scale with the vector
        value = james_norm(e(1) + e(3), LpEngine(2))
        assert isinstance(value, NormBounds)
        assert not empty_memo


class TestThresholdDecision:
    """``james_exceeds_ints`` decides james_norm_ints(...) > θ, memoized apart from the values."""

    @pytest.fixture
    def searches(self, monkeypatch):
        made = []
        search = jamesify._search
        monkeypatch.setattr(jamesify, "_search", lambda *args: made.append(args) or search(*args))
        return made

    def test_matches_the_value(self, empty_memo, searches):
        # θ at the value and just either side of it; the sign-flipped and
        # the scaled copy share the pattern of a, so their decisions hit
        # a's decision entry, which holds no value
        rng = random.Random(67)
        for _ in range(16):
            a = random_vec(rng, 1, 8)
            indices = a.support()
            values, scale = scaled_integers([c for _, c in a.entries])
            value = james_norm_ints(indices, values, scale, T_STAR)
            for threshold in (value - F(1, 97), value, value + F(1, 97)):
                empty_memo.clear()
                made = len(searches)
                above = james_exceeds_ints(indices, values, scale, T_STAR, threshold)
                assert above == (value > threshold)
                flipped = [-v for v in values]
                assert james_exceeds_ints(indices, flipped, scale, T_STAR, threshold) == above
                scaled = [3 * v for v in values]
                assert james_exceeds_ints(indices, scaled, 2 * scale, T_STAR, threshold * 3 / 2) == above
                assert len(searches) == made + 1
                [key] = empty_memo
                assert len(key) == 3 and empty_memo[key] is above
                # a decision is not a value: the exact call searches again
                assert james_norm_ints(indices, scaled, 2 * scale, T_STAR) == value * 3 / 2
                assert len(searches) == made + 2

    def test_a_stored_value_decides_without_a_search(self, empty_memo, searches):
        a = FinVec.from_pairs([(2, 1), (3, F(-1, 2)), (5, 2), (6, F(1, 3))])
        values, scale = scaled_integers([c for _, c in a.entries])
        value = james_norm(a, T_STAR)
        made = len(searches)
        for threshold in (value - 1, value, value + 1):
            assert james_exceeds_ints(a.support(), values, scale, T_STAR, threshold) == (value > threshold)
        assert len(searches) == made and len(empty_memo) == 1

    def test_empty_vector(self, empty_memo):
        assert james_exceeds_ints((), [], 1, T_STAR, F(-1))
        assert not james_exceeds_ints((), [], 1, T_STAR, F(0))


class TestJamesNormAxioms:
    @pytest.mark.parametrize(
        "engine", [LpEngine(1), LpEngine(math.inf), DualTsirelsonEngine()]
    )
    def test_triangle_homogeneity_definiteness(self, engine):
        rng = random.Random(7)
        for _ in range(12):
            x = random_vec(rng, 1, 6)
            y = random_vec(rng, 1, 6)
            jx, jy = james_norm(x, engine), james_norm(y, engine)
            assert james_norm(x + y, engine) <= jx + jy
            assert james_norm(x.scale(F(-2, 3)), engine) == F(2, 3) * jx
            assert (jx == 0) == x.is_zero

    def test_monotone_basis(self):
        rng = random.Random(9)
        engine = JamesEngine(T_STAR)
        for _ in range(15):
            coeffs = [rng.choice(POOL + [F(0)]) for _ in range(6)]
            norms = []
            for n in range(1, 7):
                prefix = FinVec.from_pairs(
                    (i + 1, c) for i, c in enumerate(coeffs[:n])
                )
                norms.append(engine.eval(prefix))
            assert all(a <= b for a, b in zip(norms, norms[1:]))


class TestBidualModel:
    def test_alpha_limit(self):
        assert alpha_limit(EventuallyConstantSeq.constant(1)) == 1
        assert alpha_limit(EventuallyConstantSeq.from_finvec(e(3))) == 0
        assert alpha_limit(EventuallyConstantSeq.constant(5)) == 5

    def test_x0_has_norm_one(self):
        assert bidual_norm(EventuallyConstantSeq.constant(1)) == 1

    def test_embedding_matches_james_norm(self):
        rng = random.Random(11)
        for _ in range(10):
            a = random_vec(rng, 1, 5)
            emb = EventuallyConstantSeq.from_finvec(a)
            assert bidual_norm(emb) == james_norm(a, T_STAR)

    def test_spike_embedding(self):
        assert bidual_norm(EventuallyConstantSeq.from_values([1], 0)) == 1

    def test_zero_sequence(self):
        # every partial sum is the zero vector, whose T_J* norm is 0
        for x in (EventuallyConstantSeq.constant(0), EventuallyConstantSeq.from_values([0, 0], 0)):
            value = bidual_norm(x)
            assert value == 0 and type(value) is F

    def test_stabilizes_past_one_extra_term(self):
        # partial sums are (-1, 1) -> 2 but (-1, 1, 1) -> 3; the supremum
        # is only reached once the tail owns two coordinates
        x = EventuallyConstantSeq.from_values([-1], 1)
        assert bidual_norm(x) == 3
        engine = JamesEngine(T_STAR)
        assert engine.eval(x.partial_sum(2)) == 2
        assert engine.eval(x.partial_sum(3)) == 3

    def test_sweep_reads_the_memo(self, empty_memo):
        # the swept partial sums share the target's pattern, so only the
        # target's search evaluates the base
        x = EventuallyConstantSeq.from_values([F(1, 2), 0, -1], 2)
        counted = CountingEngine(T_STAR)
        assert bidual_norm(x, counted) == james_norm(x.partial_sum(5), T_STAR)
        assert [engine for engine, _ in empty_memo].count(counted) == 1
        cold = CountingEngine(T_STAR)
        james_norm(x.partial_sum(5), cold)
        assert counted.calls == cold.calls

    def test_default_base_calls_share_the_memo(self, empty_memo):
        x = EventuallyConstantSeq.from_values([1, 0, -2], 3)
        assert bidual_norm(x) == bidual_norm(x.scale(-1))
        assert len(empty_memo) == 1

    def test_guard_fires_with_the_memo(self, empty_memo, monkeypatch):
        # one index too low, the target (-1, 1) and the sweep's (-1, 1, 1)
        # have different patterns and norms 2 and 3
        x = EventuallyConstantSeq.from_values([-1], 1)
        assert bidual_norm(x) == 3  # fills the memo with the true patterns
        monkeypatch.setattr(
            EventuallyConstantSeq, "stabilization_index", property(lambda self: len(self.head) - 1)
        )
        with pytest.raises(AssertionError, match="failed to stabilize"):
            bidual_norm(x)

    def test_partial_sums_nondecreasing(self):
        rng = random.Random(13)
        engine = JamesEngine(T_STAR)
        for _ in range(10):
            head = [rng.choice(POOL + [F(0)]) for _ in range(rng.randint(0, 3))]
            x = EventuallyConstantSeq.from_values(head, rng.choice(POOL))
            norms = [engine.eval(x.partial_sum(n)) for n in range(1, 7)]
            assert all(a <= b for a, b in zip(norms, norms[1:]))


class TestUMap:
    def test_x0_maps_to_minus_e1(self):
        image = u_map(EventuallyConstantSeq.constant(1))
        assert image == EventuallyConstantSeq.from_values([-1], 0)

    def test_embedding_shifts_right(self):
        a = e(1) + 2 * e(3)
        image = u_map(EventuallyConstantSeq.from_finvec(a))
        assert image == EventuallyConstantSeq.from_values([0, 1, 0, 2], 0)

    def test_linearity(self):
        rng = random.Random(17)
        for _ in range(30):
            x = EventuallyConstantSeq.from_values(
                [rng.choice(POOL + [F(0)]) for _ in range(rng.randint(0, 3))],
                rng.choice(POOL + [F(0)]),
            )
            y = EventuallyConstantSeq.from_values(
                [rng.choice(POOL + [F(0)]) for _ in range(rng.randint(0, 3))],
                rng.choice(POOL + [F(0)]),
            )
            c = rng.choice(POOL)
            assert u_map(x.add(y)) == u_map(x).add(u_map(y))
            assert u_map(x.scale(c)) == u_map(x).scale(c)

    def test_injectivity(self):
        rng = random.Random(19)
        seen = {}
        for _ in range(100):
            x = EventuallyConstantSeq.from_values(
                [rng.choice(POOL + [F(0)]) for _ in range(rng.randint(0, 3))],
                rng.choice(POOL + [F(0)]),
            )
            image = u_map(x)
            key = (image.head, image.tail_value)
            if key in seen:
                assert seen[key] == x
            seen[key] = x

    def test_distortion_finite_and_positive(self):
        # bookkeeping only: no isomorphism constant is gated, the recorded
        # extremes just have to be finite and positive
        rng = random.Random(23)
        ratios = []
        for _ in range(200):
            x = EventuallyConstantSeq.from_values(
                [rng.choice(POOL + [F(0)]) for _ in range(rng.randint(0, 2))],
                rng.choice(POOL),
            )
            num = bidual_norm(u_map(x))
            den = bidual_norm(x)
            assert den > 0
            ratios.append(num / den)
        assert min(ratios) > 0
        assert max(ratios) < math.inf
