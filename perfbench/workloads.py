"""The benchmark's three workloads: seeded inputs, timed passes, correctness gates.

Each workload object builds its inputs from the seed in ``__init__`` (part
of set-up), evaluates them in ``run`` (timed, cold on the first call and
warm on later calls in the same process) or ``run_parallel`` (timed, on a
fresh pool of worker processes), and judges outputs in ``check``, which
always runs outside the timed region.  ``check`` returns
``(attempted, failed)`` counts: one per certificate or evaluation.

Inputs are chosen so that the cost of a run does not depend on the seed,
only the values do; the benchmark compares medians across seeds, and a
cost that swings with the seed would hide a real regression.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import multiprocessing
import os
import random
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

from tsirelson_lab import cli, dualnorm, seqvec, tsirelson
from tsirelson_lab.seqvec import FinVec

# coefficient magnitudes 1, 1/2, 2, 1/3 with both signs: denominators 1/2/3
POOL = tuple(Fraction(v) for v in ("1", "-1", "1/2", "-1/2", "2", "-2", "1/3", "-1/3"))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class SuiteDefault:
    """``certify --suite default --seed 7`` through the CLI entry point.

    The suite seed stays 7 whatever the benchmark seed is.  The suite's
    cost depends strongly on its seed (the q_decay unit alone takes
    0.6-8.7 s over suite seeds 7-12), far beyond any regression bound, and
    seed 7 is the one whose report hash is the project's behaviour gate.
    """

    name = "suite_default"
    SUITE_SEED = 7
    REPORT_SHA256 = "d48ff30fdf9c665d1a556b2390f43160a98460ac1b78823773a3113677a1092a"

    def __init__(self, seed: int):
        self.argv = ["certify", "--suite", "default", "--seed", str(self.SUITE_SEED)]

    def run(self) -> str:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(self.argv)
        if code != 0:
            raise RuntimeError(f"certify exited with code {code}")
        return buffer.getvalue()

    def run_parallel(self, workers: int) -> str:
        os.environ["TSIRELSON_LAB_THREADS"] = str(workers)
        return self.run()

    def check(self, report: str) -> tuple[int, int]:
        certificates = json.loads(report)["certificates"]
        failed = sum(1 for c in certificates if not c["pass"])
        if _sha256(report) != self.REPORT_SHA256:
            failed = len(certificates)
        return len(certificates), failed

    def digest(self, report: str) -> str:
        return _sha256(report)


def _dual_item(y: FinVec) -> Fraction:
    return dualnorm.dual_norm_value(y)


def _primal_item(x: FinVec):
    return tsirelson.tsirelson_norm(x), tsirelson.tsirelson_maximizer(x)


def _map_parallel(function, inputs, workers: int) -> list:
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
        return list(pool.map(function, inputs))


class DualWide:
    """T* on wide supports: few large cutting-plane LPs, no cache reuse.

    The closed-window indicators on [n, 2n], n = 9 down to 2, carry almost
    all of the cost.  The seed picks a sign pattern and a common scale from
    the pool for each; T* is 1-unconditional and homogeneous, so these
    change neither the exact value |c| (2n+2)/n nor the LPs solved.  Six
    seeded pool vectors with hulls of length 8 and supports of 7 follow;
    their hulls are small enough for the exhaustive oracle to cross-check
    them.
    """

    name = "dual_wide"
    WINDOWS = tuple(range(9, 1, -1))  # largest first, so the pool balances
    RANDOM_VECTORS = 6
    HULL = 8

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.inputs: list[FinVec] = []
        self.expected: list[Fraction | None] = []
        for n in self.WINDOWS:
            scale = abs(rng.choice(POOL))
            self.inputs.append(
                FinVec.from_pairs(
                    (i, scale * rng.choice((1, -1))) for i in range(n, 2 * n + 1)
                )
            )
            self.expected.append(scale * Fraction(2 * n + 2, n))
        for _ in range(self.RANDOM_VECTORS):
            start = rng.randint(5, 9)
            end = start + self.HULL - 1
            # both ends present, so the hull has length HULL; one interior
            # point left out, so the support size does not depend on the seed
            chosen = [start, *rng.sample(range(start + 1, end), self.HULL - 3), end]
            self.inputs.append(FinVec.from_pairs((i, rng.choice(POOL)) for i in chosen))
            self.expected.append(None)

    def run(self) -> list[Fraction]:
        return [_dual_item(y) for y in self.inputs]

    def run_parallel(self, workers: int) -> list[Fraction]:
        return _map_parallel(_dual_item, self.inputs, workers)

    def check(self, values: list[Fraction]) -> tuple[int, int]:
        failed = 0
        for y, value, expected in zip(self.inputs, values, self.expected, strict=True):
            ok = seqvec.lp_norm(y, float("inf")) <= value <= seqvec.lp_norm(y, 1)
            if expected is not None:
                ok = ok and value == expected
            if len(y.hull()) <= dualnorm.MAX_EXACT_HULL:
                ok = ok and value == dualnorm.dual_norm_exact_small(y)
            failed += not ok
        return len(self.inputs), failed

    def digest(self, values: list[Fraction]) -> str:
        return _sha256("\n".join(str(v) for v in values))


class PrimalLong:
    """T and its maximizing tree on long supports: the T DP only, no LP.

    Two vectors of each support size 40, 32, 26, 20 with seeded pool
    coefficients: one dense from index 1, one gapped and starting at or
    after index ``size``.  The DP's part budget at a support point is
    min(index - 1, points to its right), so a late start always gets the
    full budget and the cost does not depend on where the gaps fall.
    """

    name = "primal_long"
    SIZES = (40, 32, 26, 20)  # largest first, so the pool balances

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.inputs: list[FinVec] = []
        for size in self.SIZES:
            dense = range(1, size + 1)
            start = rng.randint(size, 2 * size)
            gapped = sorted(rng.sample(range(start, start + 2 * size), size))
            for indices in (dense, gapped):
                self.inputs.append(FinVec.from_pairs((i, rng.choice(POOL)) for i in indices))

    def run(self) -> list:
        return [_primal_item(x) for x in self.inputs]

    def run_parallel(self, workers: int) -> list:
        return _map_parallel(_primal_item, self.inputs, workers)

    def check(self, outputs: list) -> tuple[int, int]:
        failed = 0
        for x, (value, tree) in zip(self.inputs, outputs, strict=True):
            ok = dualnorm.pairing(tree.flatten(), x) == value
            ok = ok and seqvec.lp_norm(x, float("inf")) <= value <= seqvec.lp_norm(x, 1)
            failed += not ok
        return len(self.inputs), failed

    def digest(self, outputs: list) -> str:
        return _sha256(
            "\n".join(
                f"{value} {json.dumps(tree.to_json_obj(), sort_keys=True)}"
                for value, tree in outputs
            )
        )


WORKLOADS = {w.name: w for w in (SuiteDefault, DualWide, PrimalLong)}
