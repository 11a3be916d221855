import hashlib
import itertools
import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsirelson_lab import tsirelson
from tsirelson_lab.seqvec import FinVec, IndexInterval, restrict, scaled_integers
from tsirelson_lab.tsirelson import (
    IntervalPartition,
    TreeLeaf,
    TreeNode,
    admissible_partitions,
    evaluation_tree_from_json,
    norming_functional,
    tsirelson_maximizer,
    tsirelson_norm,
)
from tsirelson_lab.dualnorm import pairing

e = FinVec.basis

POOL = [F(v) for v in ("1", "-1", "1/2", "-1/2", "2", "-2", "1/3", "-1/3")]


def random_vec(rng, lo, hi):
    idx = [i for i in range(lo, hi + 1) if rng.random() < 0.75] or [hi]
    return FinVec.from_pairs((i, rng.choice(POOL)) for i in idx)


def fixed_point_rhs(x):
    """Independent re-evaluation of the implicit equation's right side."""
    hull = x.hull()
    best = max(abs(c) for _, c in x.entries)
    for k in range(2, (hull.hi + 1) // 2 + 1):
        for partition in admissible_partitions(hull, k):
            total = sum(
                (tsirelson_norm(restrict(x, part)) for part in partition.parts),
                F(0),
            )
            best = max(best, F(1, 2) * total)
    return best


def definition_norm(x):
    """||x||_T straight from the definition, by recursion over support subsets.

    Parts are arbitrary nonempty index sets E_1 < ... < E_k with
    2 <= k <= min E_1; no interval, run or covering reduction is used.
    Subsets are bitmasks over the support positions.
    """
    indices = [i for i, _ in x.entries]
    values = [abs(c) for _, c in x.entries]
    norms = {}
    tails = {}

    def above(mask, part):
        return mask & ~((1 << part.bit_length()) - 1)

    def subsets(mask):
        sub = mask
        while sub:
            yield sub
            sub = (sub - 1) & mask

    def tail(avail, budget):
        # best sum over 1..budget further parts drawn from ``avail``
        key = (avail, budget)
        if key not in tails:
            best = F(0)
            for part in subsets(avail):
                total = norm(part)
                rest = above(avail, part)
                if budget > 1 and rest:
                    total += tail(rest, budget - 1)
                best = max(best, total)
            tails[key] = best
        return tails[key]

    def norm(mask):
        if mask not in norms:
            best = max(values[p] for p in range(len(values)) if mask >> p & 1)
            for first in subsets(mask):
                budget = indices[(first & -first).bit_length() - 1]
                rest = above(mask, first)
                if budget >= 2 and rest:
                    best = max(best, F(1, 2) * (norm(first) + tail(rest, budget - 1)))
            norms[mask] = best
        return norms[mask]

    if x.is_zero:
        return F(0)
    return norm((1 << len(indices)) - 1)


def assert_matches_definition(x):
    expected = definition_norm(x)
    assert tsirelson_norm(x) == expected
    assert pairing(tsirelson_maximizer(x).flatten(), x) == expected


class TestDefinitionOracle:
    def test_oracle_examples(self):
        assert definition_norm(e(1) + e(2)) == 1
        assert definition_norm(e(4) + e(5) + e(6)) == F(3, 2)
        assert definition_norm(FinVec.zero()) == 0

    def test_small_budgets(self):
        rng = random.Random(12)
        for _ in range(200):
            lo = rng.randint(1, 3)
            later = [i for i in range(lo + 1, lo + 12) if rng.random() < 0.6]
            support = [lo] + later[: rng.randint(0, 7)]
            assert_matches_definition(
                FinVec.from_pairs((i, rng.choice(POOL)) for i in support)
            )

    def test_schreier_regime_closed_form(self):
        # at most min supp points the norm is max(||x||_inf, ||x||_1 / 2); the DP must agree
        rng = random.Random(14)
        for _ in range(150):
            lo = rng.randint(1, 9)
            size = rng.randint(1, min(lo, 7))
            support = [lo] + sorted(rng.sample(range(lo + 1, lo + 10), size - 1))
            x = FinVec.from_pairs((i, rng.choice(POOL)) for i in support)
            magnitudes = [abs(c) for _, c in x.entries]
            expected = definition_norm(x)
            assert expected == max(max(magnitudes), F(1, 2) * sum(magnitudes))
            assert tsirelson_norm(x) == expected
            assert pairing(tsirelson_maximizer(x).flatten(), x) == expected

    @settings(max_examples=60, deadline=None)
    @given(
        st.dictionaries(
            st.integers(min_value=1, max_value=12),
            st.sampled_from(POOL),
            min_size=1,
            max_size=7,
        )
    )
    def test_generated_vectors(self, coeffs):
        assert_matches_definition(FinVec.from_pairs(coeffs.items()))


class TestNormExamples:
    def test_single_basis_vector(self):
        assert tsirelson_norm(e(1)) == 1
        assert tsirelson_norm(e(7)) == 1

    def test_e1_plus_e2(self):
        # only family inside [1,2] with min >= 2 is the singleton {2}
        assert tsirelson_norm(e(1) + e(2)) == 1

    def test_late_window_triple(self):
        # singletons {4},{5},{6} are admissible (k=3 <= 4), giving 3/2
        assert tsirelson_norm(e(4) + e(5) + e(6)) == F(3, 2)

    def test_zero_vector(self):
        assert tsirelson_norm(FinVec.zero()) == 0

    def test_scaling_with_rationals(self):
        x = FinVec.from_pairs([(4, "2/3"), (5, "2/3"), (6, "2/3")])
        assert tsirelson_norm(x) == 1


class TestNormProperties:
    def test_cache_keys_ignore_signs_and_keep_the_scale(self, fresh_stores):
        # (pairs, key): the key is (scale, support, magnitudes), the least
        # scale and unsigned ints
        cases = [
            ([(2, F(1, 2)), (3, F(-2, 3)), (4, F(3)), (7, F(1, 6))], (6, (2, 3, 4, 7), (3, 4, 18, 1))),
            ([(3, F(-1, 2)), (4, F(1, 3)), (6, F(-2)), (8, F(1, 2))], (6, (3, 4, 6, 8), (3, 2, 12, 3))),
        ]
        for pairs, key in cases:
            tsirelson._norm_cache.clear()
            x = FinVec.from_pairs(pairs)
            value = tsirelson_norm(x)
            for signs in itertools.product((1, -1), repeat=4):
                flipped = FinVec.from_pairs((i, s * c) for s, (i, c) in zip(signs, x.entries))
                assert tsirelson_norm(flipped) == value
            assert list(tsirelson._norm_cache) == [key]
            # 2x has the integer magnitudes of x over half its scale
            assert tsirelson_norm(2 * x) == 2 * value
            assert len(tsirelson._norm_cache) == 2

    def test_fixed_point_on_random_vectors(self):
        rng = random.Random(5)
        for _ in range(60):
            hi = rng.randint(2, 10)
            x = random_vec(rng, max(1, hi - 7), hi)
            assert tsirelson_norm(x) == fixed_point_rhs(x)

    def test_one_unconditionality(self):
        rng = random.Random(6)
        for _ in range(40):
            x = random_vec(rng, 1, 9)
            flipped = FinVec.from_pairs(
                (i, c if rng.random() < 0.5 else -c) for i, c in x.entries
            )
            assert tsirelson_norm(flipped) == tsirelson_norm(x)

    def test_sandwich(self):
        rng = random.Random(7)
        for _ in range(40):
            x = random_vec(rng, 1, 10)
            value = tsirelson_norm(x)
            assert max(abs(c) for _, c in x.entries) <= value
            assert value <= sum(abs(c) for _, c in x.entries)

    def test_late_window_l1_lower_bound(self):
        rng = random.Random(8)
        for n in range(2, 7):
            x = random_vec(rng, n + 1, 2 * n)
            half_l1 = F(1, 2) * sum(abs(c) for _, c in x.entries)
            assert tsirelson_norm(x) >= half_l1

    def test_restriction_contractive(self):
        rng = random.Random(9)
        for _ in range(30):
            x = random_vec(rng, 1, 10)
            lo = rng.randint(1, 10)
            hi = rng.randint(lo, 10)
            y = restrict(x, IndexInterval(lo, hi))
            assert tsirelson_norm(y) <= tsirelson_norm(x)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=9),
                st.sampled_from(POOL),
            ),
            min_size=1,
            max_size=5,
        ),
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=9),
                st.sampled_from(POOL),
            ),
            min_size=1,
            max_size=5,
        ),
    )
    def test_triangle_and_homogeneity(self, px, py):
        x, y = FinVec.from_pairs(px), FinVec.from_pairs(py)
        assert tsirelson_norm(x + y) <= tsirelson_norm(x) + tsirelson_norm(y)
        assert tsirelson_norm(x.scale(F(-3, 2))) == F(3, 2) * tsirelson_norm(x)


class TestMaximizer:
    def test_leaf_for_single_vector(self):
        tree = tsirelson_maximizer(e(1))
        assert isinstance(tree, TreeLeaf)
        assert tree.flatten() == e(1)

    def test_late_window_tree(self):
        x = e(4) + e(5) + e(6)
        tree = tsirelson_maximizer(x)
        f = tree.flatten()
        assert f == FinVec.from_pairs([(4, "1/2"), (5, "1/2"), (6, "1/2")])
        assert pairing(f, x) == F(3, 2)

    def test_sign_handling(self, fresh_stores):
        for pairs in (
            [(1, 1), (2, -1)],
            [(2, F(-1, 2)), (3, F(1, 3)), (4, F(2)), (5, F(-1, 3)), (7, F(-2)), (9, F(1, 2))],
            [(4, F(-1, 3)), (5, F(-1, 2)), (6, F(-2)), (7, F(-1, 2))],
        ):
            tsirelson._norm_cache.clear()
            x = FinVec.from_pairs(pairs)
            # -x fills the entry, so x's tree is built from a cache hit
            tsirelson_maximizer(-x)
            tree = tsirelson_maximizer(x)
            assert len(tsirelson._norm_cache) == 1
            leaves = list(tree_leaves(tree))
            assert leaves and all(leaf.sign * x.coeff(leaf.index) > 0 for leaf in leaves)
            assert pairing(tree.flatten(), x) == tsirelson_norm(x)

    def test_agreement_on_random_vectors(self):
        rng = random.Random(11)
        for _ in range(50):
            x = random_vec(rng, 1, 10)
            f = tsirelson_maximizer(x).flatten()
            assert pairing(f, x) == tsirelson_norm(x)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            tsirelson_maximizer(FinVec.zero())

    def test_deterministic(self):
        x = e(3) + e(5) + e(7)
        assert tsirelson_maximizer(x) == tsirelson_maximizer(x)

    def test_json_roundtrip(self):
        tree = tsirelson_maximizer(e(4) + e(5) + e(6))
        assert evaluation_tree_from_json(tree.to_json_obj()) == tree

    @pytest.mark.parametrize(
        "obj, field",
        [
            ({"type": "leaf", "index": 2.9, "sign": 1}, "index"),
            ({"type": "leaf", "index": True, "sign": 1}, "index"),
            ({"type": "leaf", "index": "2", "sign": 1}, "index"),
            ({"type": "leaf", "index": 2}, "sign"),
            ({"type": "leaf", "index": 2, "sign": True}, "sign"),
            ({"type": "leaf", "index": 2, "sign": 1.0}, "sign"),
            ({"type": "node", "parts": [[2, 2.5]], "children": [{"type": "leaf", "index": 2, "sign": 1}]}, "endpoint"),
            ({"type": "node", "parts": [[True, 2]], "children": [{"type": "leaf", "index": 2, "sign": 1}]}, "endpoint"),
            ({"type": "node", "parts": [2], "children": [{"type": "leaf", "index": 2, "sign": 1}]}, "part"),
            ({"type": "node", "parts": [[2, 2]], "children": "leaf"}, "evaluation tree"),
            ([{"type": "leaf", "index": 2, "sign": 1}], "evaluation tree"),
            ("leaf", "evaluation tree"),
            (None, "evaluation tree"),
        ],
    )
    def test_json_rejects_non_integer_fields(self, obj, field):
        # int() used to read 2.9 as 2 and true as 1, and a list raised AttributeError
        with pytest.raises(ValueError, match=field):
            evaluation_tree_from_json(obj)

    @pytest.mark.parametrize("lo", [1, 12])
    def test_attains_norm_at_support_30(self, lo):
        rng = random.Random(lo)
        x = FinVec.from_pairs((i, rng.choice(POOL)) for i in range(lo, lo + 30))
        assert pairing(tsirelson_maximizer(x).flatten(), x) == tsirelson_norm(x)

    def test_nested_partitions_admissible(self):
        # TreeNode construction validates nesting; this exercises a deep tree
        x = FinVec.from_pairs((i, 1) for i in range(3, 12))
        tree = tsirelson_maximizer(x)
        assert pairing(tree.flatten(), x) == tsirelson_norm(x)

    @pytest.mark.parametrize("size", [40, 51, 60])
    @pytest.mark.parametrize("late", [False, True])
    def test_integer_program_is_exact_on_long_supports(self, size, late):
        # denominators 1/3/5/7 and values shifted by up to 60 bits; the
        # pairing is summed in Fractions, apart from the program's scaling
        rng = random.Random(size + late)
        pool = [F(n, d) for n in (1, 2, 4, 11) for d in (1, 3, 5, 7)]
        start = rng.randint(size, 2 * size) if late else 1
        indices = sorted(rng.sample(range(start, start + 2 * size), size)) if late else range(1, size + 1)
        x = FinVec.from_pairs((i, rng.choice(pool) * rng.choice((1, -1))) for i in indices)
        tree = tsirelson_maximizer(x)
        assert tsirelson_norm(x) == pairing(tree.flatten(), x)

    def test_norming_functional_is_the_flattened_maximizer(self):
        rng = random.Random(13)
        for lo, hi in [(1, 12)] * 30 + [(5, 30)] * 5:
            x = random_vec(rng, lo, hi)
            scale = 6  # POOL denominators are 1, 2 and 3
            indices = [i for i, _ in x.entries]
            values = [int(abs(c) * scale) for _, c in x.entries]
            coefficients, denominator = norming_functional(indices, values)
            flat = tsirelson_maximizer(x).flatten()
            assert [F(c, denominator) for c in coefficients] == [abs(flat.coeff(i)) for i in indices]
            assert denominator == 1 or any(c == 1 for c in coefficients)


def tree_sha256(tree):
    return hashlib.sha256(json.dumps(tree.to_json_obj(), sort_keys=True).encode()).hexdigest()


def primal_long_inputs(seed):
    """The inputs of the benchmark's primal_long workload: two per support size."""
    rng = random.Random(seed)
    inputs = []
    for size in (40, 32, 26, 20):
        dense = range(1, size + 1)
        start = rng.randint(size, 2 * size)
        gapped = sorted(rng.sample(range(start, start + 2 * size), size))
        for indices in (dense, gapped):
            inputs.append(FinVec.from_pairs((i, rng.choice(POOL)) for i in indices))
    return inputs


class TestTieRules:
    """Trees pinned from the dict-memo program, so a new memo keeps every tie."""

    PRIMAL_LONG_SEED_7 = [
        ("73/6", "465b707152065f9e774d62d000ad64defa9ff4ebe35091a945ab1a765b709307"),
        ("107/6", "6a5131f8d37e8e0b16806cae3bf4b3e19930687a14e5536f8e3e9c0583b1da55"),
        ("73/8", "4599cf1faf0198dd1ff9be0ca5f031f0144d7f4c240fed8fd94af83fc626748d"),
        ("209/12", "e4bc379dd06ab1824ce28b30bdf1c51ca8b551aef5dbfc8f7606cec7f97d9f67"),
        ("5", "8dd77b96d42ed29ed2297f8da489dacff48e6a3059043d6262ab76227feeb7ba"),
        ("133/12", "c0977f79d90470ff9c345c78b4170c3132873ed891ea2a7a683b5eb668893cca"),
        ("13/3", "7031340fcb71d7a89a9b0ed2979eb5aa231195679fbfae8445f07aef7d89942e"),
        ("8", "a45a71d33ffbb1e46bc98565aae2e8d70e99872ed8dc87c258d23a355ed5fed9"),
    ]

    def test_primal_long_trees(self):
        pinned = [(str(tsirelson_norm(x)), tree_sha256(tsirelson_maximizer(x)))
                  for x in primal_long_inputs(7)]
        assert pinned == self.PRIMAL_LONG_SEED_7

    def test_indicator_tree(self):
        x = FinVec.from_pairs((i, 1) for i in range(1, 31))
        assert tsirelson_norm(x) == F(15, 2)
        assert tree_sha256(tsirelson_maximizer(x)) == (
            "5ed564f3098da94f8a1e88a43c1122d06c8e25d541db291026272128f1cd1d31"
        )

    def test_repeated_magnitudes_tree(self):
        # magnitudes 1/2, 1, 3/2 repeat with alternating signs: many equal totals
        x = FinVec.from_pairs((i, F((-1) ** i * (1 + i % 3), 2)) for i in range(2, 26))
        assert tsirelson_norm(x) == F(13, 2)
        assert tree_sha256(tsirelson_maximizer(x)) == (
            "9df968bbe5ca57c0233a9fd75a33c6a81e45e723ff4f854209ec0cba420f355c"
        )

    def test_small_trees_with_equal_magnitudes(self):
        # magnitudes 1 and 2 only: leaves tie with leaves, families and rests
        rng = random.Random(31)
        trees = []
        for _ in range(300):
            lo = rng.randint(1, 6)
            indices = sorted(rng.sample(range(lo, lo + 12), rng.randint(1, 10)))
            x = FinVec.from_pairs((i, rng.choice((1, -1, 2, -2))) for i in indices)
            trees.append(json.dumps(tsirelson_maximizer(x).to_json_obj(), sort_keys=True))
        assert hashlib.sha256("\n".join(trees).encode()).hexdigest() == (
            "647dbe7753f7e7ba701054f765ead4818cfb1f6e5dbc08dfd01b4d9b1b12e3aa"
        )

    @pytest.mark.parametrize(
        "values, row",
        [
            ([2, 6, 1, 2, 1, 3, 3, 3, 3, 2, 1, 3],
             ([0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1], 2)),
            ([1, 1, 1, 2, 2, 2, 2, 6, 2, 6, 1, 6, 2, 3, 3, 6, 2, 6],
             ([0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 0, 1, 1, 1, 1, 1, 0, 1], 2)),
            ([2, 6, 6, 2, 2, 6, 3, 6, 1, 6, 1, 3, 2, 6, 2, 2, 3, 6, 6, 3, 3, 2, 2, 2],
             ([0, 0, 0, 0, 0, 2, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 1, 1, 1, 1, 1], 4)),
        ],
    )
    def test_norming_functional_rows(self, values, row):
        assert norming_functional(list(range(2, 2 + len(values))), values) == row


def shape_nodes(shape):
    if isinstance(shape, int):
        return 1
    return 1 + sum(shape_nodes(child) for _, _, child in shape)


def tree_leaves(tree):
    if isinstance(tree, TreeLeaf):
        yield tree
    else:
        for child in tree.children:
            yield from tree_leaves(child)


class TestSharedEntry:
    """The norm and the maximizer of one vector come from one cached solve."""

    @pytest.fixture
    def solves(self, fresh_stores, monkeypatch):
        count = []

        class Counted(tsirelson._NormProgram):
            __slots__ = ()

            def __init__(self, indices, values):
                count.append(len(indices))
                super().__init__(indices, values)

        monkeypatch.setattr(tsirelson, "_NormProgram", Counted)
        return count

    def test_maximizer_then_norm_solves_once(self, solves):
        x = FinVec.from_pairs((i, POOL[i % len(POOL)]) for i in range(1, 21))
        tree = tsirelson_maximizer(x)
        value = tsirelson_norm(x)
        assert len(solves) == 1
        assert tsirelson_maximizer(x) == tree
        assert len(solves) == 1
        assert pairing(tree.flatten(), x) == value

    def test_negation_shares_the_entry_with_its_own_signs(self, solves):
        x = FinVec.from_pairs([(3, F(1, 2)), (4, F(-2)), (5, F(1)), (6, F(-1, 3)), (9, F(2))])
        tree, negated = tsirelson_maximizer(x), tsirelson_maximizer(-x)
        assert len(solves) == 1 and len(tsirelson._norm_cache) == 1
        assert negated.flatten() == -tree.flatten()
        assert pairing(tree.flatten(), x) == pairing(negated.flatten(), -x) == tsirelson_norm(x)

    def test_second_pass_makes_no_solve(self, solves):
        rng = random.Random(23)
        vectors = [random_vec(rng, lo, lo + 14) for lo in (1, 3, 9, 16)]
        first = [(tsirelson_norm(x), tsirelson_maximizer(x)) for x in vectors]
        assert len(solves) == len(vectors)
        assert [(tsirelson_norm(x), tsirelson_maximizer(x)) for x in vectors] == first
        assert len(solves) == len(vectors)

    def test_entry_holds_value_and_small_shape(self, solves):
        rng = random.Random(21)
        for _ in range(30):
            x = random_vec(rng, 1, 16)
            tsirelson_maximizer(x)
        assert len(solves) == len(tsirelson._norm_cache)
        for key, entry in tsirelson._norm_cache.items():
            value, shape = entry
            assert isinstance(value, F) and len(entry) == 2
            assert shape_nodes(shape) <= 2 * len(key[1]) - 1


class TestLongSupports:
    def test_schreier_indicator(self):
        # 1501 points from index 5000: every family may take singleton runs,
        # and the program used to recurse once per point
        x = FinVec.from_pairs((i, 1) for i in range(5000, 6501))
        value = tsirelson_norm(x)
        assert value == F(1501, 2)
        assert pairing(tsirelson_maximizer(x).flatten(), x) == value


class TestSplitPoint:
    def test_first_run_end_is_not_monotone_in_the_start(self):
        # Knuth-Yao would need the best first-run end of split(s, b, k) to
        # grow with s.  On indices 2..10, at b = position 8 and k = 3, start
        # 3 has its unique best end at 5 and start 4 at 4.
        indices = list(range(2, 11))
        magnitudes = [5, 2, 6, 4, 5, 6, 12, 1, 4]

        def run(lo, hi):
            return definition_norm(FinVec.from_pairs((indices[p], F(magnitudes[p])) for p in range(lo, hi + 1)))

        for start, end in ((3, 5), (4, 4)):
            totals = {
                q: run(start, q) + max(run(q + 1, r) + run(r + 1, 8) for r in range(q + 1, 8))
                for q in range(start, 7)
            }
            best = max(totals.values())
            assert [q for q, total in totals.items() if total == best] == [end]
        # the program reaches both states and keeps those ends
        program = tsirelson._NormProgram(indices, magnitudes)
        program.solve(0, 8)
        column = program.columns[8][3]
        assert [column.how[s - column.lo] for s in (3, 4)] == [5, 4]


class TestProgramWork:
    """Each state the top-down recursion reaches is filled once, and no other."""

    @staticmethod
    def filled_states(x):
        """Filled (solve, split) entries of x's program after its solve and shape."""
        calls = []

        class Counted(tsirelson._NormProgram):
            __slots__ = ()

            def split(self, s, b, k):
                calls.append((s, b, k))
                return super().split(s, b, k)

        magnitudes, _ = scaled_integers([abs(c) for _, c in x.entries])
        program = Counted(list(x.support()), magnitudes)
        last = len(magnitudes) - 1
        program.solve(0, last)
        program.shape(0, last)
        solve = split = split_columns = 0
        for columns in program.columns:
            for k, column in enumerate(columns or ()):
                if column is None:
                    continue
                filled = sum(total is not None for total in column.totals)
                if k == 1:
                    solve += filled
                else:
                    split += filled
                    split_columns += 1
        # every split call fills a new entry; the rest are the columns' first ones
        assert len(calls) == len(set(calls)) == split - split_columns
        return solve, split

    def test_long_primal_supports(self):
        # the seed-7 inputs of the benchmark's primal_long workload
        rng = random.Random(7)
        inputs = []
        for size in (40, 32, 26, 20):
            start = rng.randint(size, 2 * size)
            gapped = sorted(rng.sample(range(start, start + 2 * size), size))
            for indices in (range(1, size + 1), gapped):
                inputs.append(FinVec.from_pairs((i, rng.choice(POOL)) for i in indices))
        counts = [self.filled_states(x) for x in inputs]
        assert [sum(c) for c in zip(*counts)] == [1909, 8912]

    def test_indicator_of_1_to_100(self):
        x = FinVec.from_pairs((i, 1) for i in range(1, 101))
        assert self.filled_states(x) == (4950, 79674)


def node(parts, children):
    return TreeNode(IntervalPartition(tuple(IndexInterval(lo, hi) for lo, hi in parts)), children)


def flattened_hull_admits(parts, children):
    """The reference rule: each child's flattened support lies in its part."""
    return all(
        lo <= child.flatten().hull().lo and child.flatten().hull().hi <= hi
        for (lo, hi), child in zip(parts, children)
    )


class TestEvaluationTree:
    @pytest.mark.parametrize("sign", [0, 2, -2])
    def test_leaf_sign_checked(self, sign):
        with pytest.raises(ValueError, match="sign"):
            TreeLeaf(3, sign)

    @pytest.mark.parametrize("count", [1, 3])
    def test_one_child_per_part(self, count):
        children = tuple(TreeLeaf(i, 1) for i in range(2, 2 + count))
        with pytest.raises(ValueError, match="one child per part"):
            node([(2, 2), (3, 3)], children)

    def test_child_escaping_its_part_rejected(self):
        deep = node([(2, 6), (7, 9)], (TreeLeaf(6, -1), TreeLeaf(8, 1)))
        inner = node([(2, 3), (6, 9)], (TreeLeaf(3, 1), deep))
        assert node([(2, 8), (9, 9)], (inner, TreeLeaf(9, 1))).flatten().hull() == IndexInterval(3, 9)
        with pytest.raises(ValueError, match=r"child support \[3,8\] escapes its part \[2,7\]"):
            node([(2, 7), (9, 9)], (inner, TreeLeaf(9, 1)))
        with pytest.raises(ValueError, match=r"child support \[3,8\] escapes its part \[4,8\]"):
            node([(2, 3), (4, 8)], (TreeLeaf(2, 1), inner))

    def test_agrees_with_flattened_hull_rule(self):
        rng = random.Random(5)
        outcomes = set()
        for _ in range(300):
            children, parts, lo = [], [], rng.randint(2, 4)
            for _ in range(2):
                x = random_vec(rng, lo + rng.randint(0, 2), lo + rng.randint(2, 8))
                tree = tsirelson_maximizer(x)
                hull = tree.flatten().hull()
                part_lo = max(lo, hull.lo + rng.randint(-1, 1))
                part = (part_lo, max(part_lo, hull.hi + rng.randint(-1, 1)))
                children.append(tree)
                parts.append(part)
                lo = max(part[1], hull.hi) + 1
            try:
                node(parts, tuple(children))
                accepted = True
            except ValueError as exc:
                assert "escapes its part" in str(exc)
                accepted = False
            assert accepted == flattened_hull_admits(parts, children)
            outcomes.add(accepted)
        assert outcomes == {True, False}


def brute_force_partition_count(lo, hi, k):
    """Count admissible k-interval families by raw subset enumeration."""
    count = 0
    intervals = [
        (a, b) for a in range(lo, hi + 1) for b in range(a, hi + 1)
    ]
    for combo in itertools.combinations(intervals, k):
        ordered = all(
            combo[j][1] < combo[j + 1][0] for j in range(k - 1)
        )
        if ordered and combo[0][0] >= k:
            count += 1
    return count


class TestAdmissiblePartitions:
    def test_window_2_3_k2(self):
        parts = list(admissible_partitions(IndexInterval(2, 3), 2))
        assert len(parts) == 1
        assert parts[0].parts == (IndexInterval(2, 2), IndexInterval(3, 3))

    def test_impossible_window(self):
        assert list(admissible_partitions(IndexInterval(1, 3), 4)) == []

    def test_count_matches_brute_force(self):
        for lo, hi, k in [(3, 6, 3), (2, 7, 2), (4, 9, 4), (1, 6, 3)]:
            enumerated = len(list(admissible_partitions(IndexInterval(lo, hi), k)))
            assert enumerated == brute_force_partition_count(lo, hi, k)

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError):
            list(admissible_partitions(IndexInterval(1, 5), 1))

    def test_deterministic_order(self):
        first = list(admissible_partitions(IndexInterval(3, 7), 3))
        second = list(admissible_partitions(IndexInterval(3, 7), 3))
        assert first == second

    def test_inadmissible_partition_rejected(self):
        with pytest.raises(ValueError):
            IntervalPartition((IndexInterval(1, 1), IndexInterval(2, 2)))
