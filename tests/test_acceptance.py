"""Acceptance suite: every criterion at its stated size, exact arithmetic.

Each test prints one PASS/FAIL line (visible with -s or in captured output)
and asserts the criterion itself; random inputs are seeded so the suite is
reproducible run to run.
"""

import itertools
import math
import random
import time
from fractions import Fraction as F

from tsirelson_lab.seqvec import EventuallyConstantSeq, FinVec
from tsirelson_lab.tsirelson import admissible_partitions, tsirelson_norm
from tsirelson_lab.dualnorm import (
    DualTsirelsonEngine,
    LpEngine,
    dual_norm_exact_small,
    dual_norm_value,
)
from tsirelson_lab.jamesify import (
    JamesEngine,
    PairSelection,
    bidual_norm,
    difference_vector,
    james_norm,
    u_map,
)
from tsirelson_lab.blockseq import POOL_SCALE, BlockSequence, normalize, random_block_sequence
from tsirelson_lab.certify import (
    _sample_ints,
    check_block_domination,
    check_cor10,
    check_partition_bound,
    check_shrinking_series,
    q_estimate_scan,
)
from tsirelson_lab.seqvec import lp_norm, restrict

T_STAR = DualTsirelsonEngine()

POOL = [F(v) for v in ("1", "-1", "1/2", "-1/2", "2", "-2", "1/3", "-1/3")]


def report(criterion, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"{status} criterion {criterion}: {detail}")
    assert passed, f"criterion {criterion} failed: {detail}"


def random_normalized_blocks(rng, count, total_support):
    """``count`` seeded blocks of width at most total_support // count, normalized in T_J*."""
    width = max(1, total_support // count)
    raw = random_block_sequence(seed=rng.randrange(2**30), count=count, max_block_width=width)
    return normalize(raw, JamesEngine(T_STAR))


def random_vec(rng, lo, hi):
    idx = [i for i in range(lo, hi + 1) if rng.random() < 0.75] or [hi]
    return FinVec.from_pairs((i, rng.choice(POOL)) for i in idx)


def test_criterion_1_w_n_norm_one():
    start = time.time()
    values = {}
    for n in range(1, 21):
        w_n = FinVec.from_pairs((i, 1) for i in range(1, n + 1))
        values[n] = james_norm(w_n, T_STAR)
    elapsed = time.time() - start
    ok = all(v == 1 for v in values.values()) and elapsed < 10
    report(1, ok, f"||w_n|| = 1 for n <= 20 in {elapsed:.2f}s (< 10s)")


def test_criterion_2_window_bound():
    # windows are the half-open (n, 2n]: the closed [n, 2n] version is
    # disproved below, so the inequality is only attainable on this range
    start = time.time()
    violations = 0
    checked = 0
    for n in range(2, 11):
        rng = random.Random(1000 + n)
        for _ in range(500):
            y = random_vec(rng, n + 1, 2 * n)
            sup = max(abs(c) for _, c in y.entries)
            if dual_norm_value(y) > 2 * sup:
                violations += 1
            checked += 1
    elapsed = time.time() - start
    ok = violations == 0 and checked == 4500 and elapsed < 120
    report(
        2,
        ok,
        f"{checked} vectors on (n, 2n] windows, {violations} violations, "
        f"{elapsed:.1f}s (< 120s)",
    )


def test_criterion_2_closed_window_refuted():
    # exact counterexamples: with index n included, no constant-2 bound
    # exists for any n in {2..10}; the indicator always exceeds 2
    worst = []
    for n in range(2, 11):
        indicator = FinVec.from_pairs((i, 1) for i in range(n, 2 * n + 1))
        value = dual_norm_value(indicator)
        worst.append(value)
        assert value > 2, f"expected a violation at n={n}, got {value}"
    assert worst[0] == 3  # witness x = (1,1,1) on [2,4] has T-norm exactly 1
    print(
        "INFO criterion 2 companion: closed-window variant refuted exactly "
        f"(indicator dual norms {[str(v) for v in worst[:3]]}... all > 2)"
    )


def test_criterion_3_partition_bound():
    rng = random.Random(2024)
    failures = 0
    for _ in range(200):
        top = rng.randint(2, 10)
        y = random_vec(rng, 1, top)
        cuts = sorted(rng.sample(range(1, top), k=min(rng.randint(1, 3), top - 1)))
        cert = check_partition_bound(y, [0] + cuts + [top])
        if not cert.passed:
            failures += 1
    report(3, failures == 0, f"200 (vector, partition) pairs, {failures} failures")


def test_criterion_4_block_domination():
    rng = random.Random(4040)
    failures = 0
    for _ in range(100):
        count = rng.randint(1, 4)
        u = random_normalized_blocks(rng, count, 12)
        a = FinVec.from_ints(*_sample_ints(rng, range(1, count + 1)), POOL_SCALE)
        cert = check_block_domination(u, a)
        if not cert.passed:
            failures += 1
    report(4, failures == 0, f"100 normalized block suites, {failures} failures")


def test_criterion_4_canonical_basis_refuted():
    # an exact counterexample on the canonical basis, whose blocks all have
    # T_J* norm 1: the selection (5, 8, 10, 11) gives lhs 3, while the
    # neighbor sums are the indicator of {4, 5, 7, 8, 9, 10}, of T* norm 8/3
    a = FinVec.from_pairs([(5, -1), (8, 1), (10, 1)])
    cert = check_block_domination(BlockSequence.canonical_basis(10), a)
    assert (cert.lhs, cert.rhs, cert.passed) == (3, F(8, 3), False)
    assert cert.witness["selection"] == [5, 8, 10, 11]
    assert FinVec.from_json_obj(cert.witness["dominating_vector"]).support() == (4, 5, 7, 8, 9, 10)
    print("INFO criterion 4 companion: -e_5 + e_8 + e_10 on the canonical basis gives lhs 3 > rhs 8/3")


def test_criterion_5_cor10_window():
    rng = random.Random(5050)
    failures = 0
    max_ratio = F(0)
    n = 2
    for _ in range(100):
        u = random_normalized_blocks(rng, 2 * n, 12)
        a = FinVec.from_ints(*_sample_ints(rng, range(n, 2 * n + 1)), POOL_SCALE)
        cert = check_cor10(u, n, a)
        if not cert.passed:
            failures += 1
        max_ratio = max(max_ratio, F(cert.witness["ratio"]))
    ok = failures == 0 and max_ratio <= 4
    report(5, ok, f"100 window suites, max ratio {max_ratio} (<= 4), {failures} failures")


def test_criterion_5_canonical_basis_refuted():
    # exact counterexamples on the canonical basis: alternating signs on
    # [n, 2n] give the ratio n + 1, so the constant 4 holds (tightly) up to
    # n = 3 and fails from n = 4 on
    for n in range(1, 6):
        a = FinVec.from_pairs((j, (-1) ** j) for j in range(n, 2 * n + 1))
        cert = check_cor10(BlockSequence.canonical_basis(2 * n), n, a)
        assert (cert.lhs, cert.rhs, cert.passed) == (n + 1, 4, n <= 3)
    print("INFO criterion 5 companion: alternating a on [4, 8] over the canonical basis gives lhs 5 > rhs 4")


def test_criterion_6_q_decay():
    ranges = [(2**j, 2 ** (j + 1)) for j in range(1, 5)]
    u = BlockSequence.canonical_basis(32)
    scan = q_estimate_scan(u, F(2), ranges, seed=66, samples=3)
    strictly_decreasing = all(
        scan.per_range[j + 1].upper < scan.per_range[j].lower
        for j in range(len(ranges) - 1)
    )
    below_plateau = True
    for (n, m), bounds in zip(ranges, scan.per_range):
        plateau = lp_norm(FinVec.from_pairs((i, 1) for i in range(n, m + 1)), F(2))
        plateau_lower = plateau.lower if hasattr(plateau, "lower") else plateau
        if bounds.lower > 2 / plateau_lower:
            below_plateau = False
    ok = strictly_decreasing and below_plateau
    decay = ", ".join(f"{float(b.upper):.4f}" for b in scan.per_range)
    report(6, ok, f"empirical_c strictly decreasing [{decay}] and below plateau bound")


def test_criterion_7_shrinking_series():
    u = BlockSequence.canonical_basis(16)
    cert = check_shrinking_series(u, 3)
    levels_ok = all(
        F(level["norm"]) <= F(level["bound"]) for level in cert.witness["levels"]
    )
    report(7, cert.passed and levels_ok, "plateau norms <= 4/2^n for n <= 3, exactly")


def test_criterion_8_oracle_equivalence():
    rng = random.Random(808)
    mismatches = 0
    for _ in range(100):
        hi = rng.randint(1, 12)
        lo = max(1, hi - 5)
        y = random_vec(rng, lo, hi)
        if dual_norm_value(y) != dual_norm_exact_small(y):
            mismatches += 1

    def fixed_point_rhs(x):
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

    fixed_point_failures = 0
    for _ in range(200):
        hi = rng.randint(2, 12)
        x = random_vec(rng, max(1, hi - 11), hi)
        if tsirelson_norm(x) != fixed_point_rhs(x):
            fixed_point_failures += 1
    ok = mismatches == 0 and fixed_point_failures == 0
    report(
        8,
        ok,
        f"dual oracle mismatches {mismatches}/100, fixed-point failures {fixed_point_failures}/200",
    )


def test_criterion_9_engine_sanity():
    def james_brute(a, engine):
        if a.is_zero:
            return F(0)
        top = a.entries[-1][0]
        best = F(0)
        domain = range(1, top + 3)
        for size in range(2, len(domain) + 1, 2):
            for combo in itertools.combinations(domain, size):
                value = engine.eval(difference_vector(a, PairSelection(combo)))
                if value > best:
                    best = value
        return best

    engines = [LpEngine(1), LpEngine(math.inf)]
    mismatches = 0
    checked = 0
    for entries in itertools.product([-1, 0, 1], repeat=6):
        a = FinVec.from_pairs((i + 1, c) for i, c in enumerate(entries) if c)
        for engine in engines:
            if james_norm(a, engine) != james_brute(a, engine):
                mismatches += 1
            checked += 1
    report(9, mismatches == 0, f"{checked} brute-force comparisons, {mismatches} mismatches")


def test_criterion_10_bidual_model():
    x0 = EventuallyConstantSeq.constant(1)
    norm_ok = bidual_norm(x0) == 1
    image_ok = u_map(x0) == EventuallyConstantSeq.from_values([-1], 0)

    rng = random.Random(1010)
    pool = POOL + [F(0)]
    linear_ok = True
    injective_ok = True
    seen = {}
    for _ in range(200):
        x = EventuallyConstantSeq.from_values(
            [rng.choice(pool) for _ in range(rng.randint(0, 3))], rng.choice(pool)
        )
        y = EventuallyConstantSeq.from_values(
            [rng.choice(pool) for _ in range(rng.randint(0, 3))], rng.choice(pool)
        )
        c = rng.choice(POOL)
        if u_map(x.add(y)) != u_map(x).add(u_map(y)):
            linear_ok = False
        if u_map(x.scale(c)) != u_map(x).scale(c):
            linear_ok = False
        image = u_map(x)
        key = (image.head, image.tail_value)
        if key in seen and seen[key] != x:
            injective_ok = False
        seen[key] = x

    engine = JamesEngine(T_STAR)
    monotone_ok = True
    for _ in range(15):
        x = EventuallyConstantSeq.from_values(
            [rng.choice(pool) for _ in range(rng.randint(0, 3))], rng.choice(pool)
        )
        norms = [engine.eval(x.partial_sum(n)) for n in range(1, 7)]
        if not all(a <= b for a, b in zip(norms, norms[1:])):
            monotone_ok = False

    ok = norm_ok and image_ok and linear_ok and injective_ok and monotone_ok
    report(
        10,
        ok,
        f"||x0**||={'1' if norm_ok else '!'} U(x0**)={'-e1' if image_ok else '!'} "
        f"linear={linear_ok} injective={injective_ok} monotone={monotone_ok}",
    )
