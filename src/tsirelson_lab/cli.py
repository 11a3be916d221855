"""Command-line front end: norm evaluation, certification, decay sweeps.

Vectors are given as inline JSON (``[[index, "num/den"], ...]`` or the
``{"entries": [...]}`` object form), as a path to a JSON file, or as one of
the built-in pattern aliases:

    wN               partial sum of the first N basis vectors
    indicator:n:m    all-ones vector on [n, m]
    spike:k          the basis vector e_k
    alt:n:m          alternating +-1 vector on [n, m]

Output is exact-rational text; values that are only certified to an
interval print as ``[lower, upper]``.  Exit codes: 0 success (and all
certificates passing), 1 for a failing certificate, 2 for usage errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

from .certify import (
    DEFAULT_SUITE,
    QUICK_SUITE,
    _suite_value,
    check_q_decay,
    check_window_bound,
    run_suite,
)
from .dualnorm import T_STAR, LpEngine, NormEngine, TsirelsonEngine
from .jamesify import JamesEngine, bidual_norm
from .seqvec import EventuallyConstantSeq, FinVec

USAGE_ERROR = 2


# the base engines by name, built once: "Tstar" is the package's one T* engine
_BASE_ENGINES: dict[str, NormEngine] = {
    "l1": LpEngine(1),
    "l2": LpEngine(2),
    "linf": LpEngine(float("inf")),
    "T": TsirelsonEngine(),
    "Tstar": T_STAR,
}


def make_engine(space: str) -> NormEngine:
    if space in _BASE_ENGINES:
        return _BASE_ENGINES[space]
    if space == "TJstar":
        return JamesEngine(T_STAR)
    match = re.fullmatch(r"TJ\[(\w+)\]", space)
    if match and match.group(1) in _BASE_ENGINES:
        return JamesEngine(_BASE_ENGINES[match.group(1)])
    raise ValueError(f"unknown space {space!r}")


def parse_vector(text: str) -> FinVec:
    """Inline JSON, file path, or pattern alias -> FinVec."""
    alias = text.strip()
    match = re.fullmatch(r"w(\d+)", alias)
    if match:
        n = int(match.group(1))
        return FinVec.from_pairs((i, 1) for i in range(1, n + 1))
    match = re.fullmatch(r"(indicator|alt):(\d+):(\d+)", alias)
    if match:
        pattern, n, m = match.group(1), int(match.group(2)), int(match.group(3))
        if n > m:
            raise ValueError(f"{alias!r} is an empty range (expected {pattern}:n:m with n <= m)")
        sign = -1 if pattern == "alt" else 1
        return FinVec.from_pairs((i, sign**k) for k, i in enumerate(range(n, m + 1)))
    match = re.fullmatch(r"spike:(\d+)", alias)
    if match:
        return FinVec.basis(int(match.group(1)))
    if os.path.exists(alias) and not alias.lstrip().startswith(("[", "{")):
        with open(alias, "r", encoding="utf-8") as handle:
            return FinVec.loads(handle.read())
    return FinVec.loads(text)


def parse_sequence(text: str) -> EventuallyConstantSeq:
    alias = text.strip()
    if alias == "x0":
        return EventuallyConstantSeq.constant(1)
    if os.path.exists(alias) and not alias.lstrip().startswith(("[", "{")):
        with open(alias, "r", encoding="utf-8") as handle:
            text = handle.read()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"sequence is not valid JSON: {exc}") from exc
    return EventuallyConstantSeq.from_json_obj(obj)


@contextmanager
def _output(path: Optional[str]) -> Iterator[Callable[[str], object]]:
    """A function that writes the finished output to ``path``, or to stdout.

    The file is opened for appending before any work is done, so a path
    that cannot be written fails at once, and it is emptied only by the
    write: a run that fails leaves an existing file as it was.
    """
    if not path:
        yield sys.stdout.write
        return
    with open(path, "a", encoding="utf-8") as handle:

        def replace(text: str) -> None:
            handle.truncate(0)
            handle.write(text)

        yield replace


def _suite_config(name: str, seed: int) -> dict:
    if name == "default":
        return {"seed": seed, "checks": DEFAULT_SUITE}
    if name == "quick":
        return {"seed": seed, "checks": QUICK_SUITE}
    if os.path.exists(name):
        with open(name, "r", encoding="utf-8") as handle:
            try:
                config = json.load(handle)
            except json.JSONDecodeError as exc:
                raise ValueError(f"suite config {name!r} is not valid JSON: {exc}")
        if not isinstance(config, dict):
            raise ValueError(f"suite config {name!r} must be a JSON object")
        config.setdefault("seed", seed)
        return config
    raise ValueError(
        f"unknown suite {name!r} (expected 'default', 'quick', or a config file)"
    )


def _workers_from_env() -> int:
    """Worker count from TSIRELSON_LAB_THREADS, capped at the CPU count."""
    raw = os.environ.get("TSIRELSON_LAB_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"TSIRELSON_LAB_THREADS must be an integer >= 1, got {raw!r}")
    return min(workers, os.cpu_count() or 1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsirelson-lab",
        description="Exact Tsirelson-type norms and inequality certificates.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    norm = commands.add_parser("norm", help="evaluate a norm")
    norm.add_argument("--space", default="T",
                      help="T, Tstar, TJstar, l1, l2, linf, or TJ[base]")
    norm.add_argument("--vec", required=True, help="vector JSON, file, or alias")

    dual = commands.add_parser("dual-norm", help="evaluate the dual Tsirelson norm")
    dual.add_argument("--vec", required=True)

    james = commands.add_parser("james-norm", help="evaluate the James-transformed norm")
    james.add_argument("--vec", required=True)
    james.add_argument("--base", default="Tstar", help="Tstar, l1, l2, or linf")

    bidual = commands.add_parser("bidual-norm", help="norm of an eventually constant sequence")
    bidual.add_argument("--seq", required=True,
                        help='sequence JSON {"head": [...], "tail_value": "..."}, file, or alias x0')
    bidual.add_argument("--base", default="Tstar")

    certify = commands.add_parser("certify", help="run a certification suite")
    certify.add_argument("--suite", default="default",
                         help="default, quick, or a JSON config file")
    certify.add_argument("--seed", type=int, default=0)
    certify.add_argument("--output", default=None, help="report file path")
    certify.add_argument("--format", default="json", choices=["json", "csv"])

    sweep = commands.add_parser("sweep", help="ratio decay curves as CSV")
    sweep.add_argument("--check", default="window", choices=["window", "qdecay"])
    sweep.add_argument("--ns", default="2:6", help="window sizes lo:hi (--check window only)")
    sweep.add_argument("--samples", type=int, default=50,
                       help="sampled vectors per window (--check window only)")
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--output", default=None)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "norm":
            engine = make_engine(args.space)
            print(engine.eval(parse_vector(args.vec)))
            return 0
        if args.command == "dual-norm":
            print(T_STAR.eval(parse_vector(args.vec)))
            return 0
        if args.command == "james-norm":
            engine = JamesEngine(make_engine(args.base))
            print(engine.eval(parse_vector(args.vec)))
            return 0
        if args.command == "bidual-norm":
            value = bidual_norm(parse_sequence(args.seq), make_engine(args.base))
            print(value)
            return 0
        if args.command == "certify":
            config = _suite_config(args.suite, args.seed)
            workers = _workers_from_env()
            with _output(args.output) as write:
                report = run_suite(config, workers=workers)
                if args.format == "json":
                    write(report.dumps())
                else:
                    buffer = io.StringIO()
                    writer = csv.writer(buffer)
                    writer.writerow(["check", "n", "ratio"])
                    writer.writerows(report.csv_rows())
                    write(buffer.getvalue())
            return 0 if report.passed else 1
        if args.command == "sweep":
            if args.check == "window":
                lo, _, hi = args.ns.partition(":")
                ns = range(int(lo), int(hi or lo) + 1)
                if not ns:
                    raise ValueError(f"--ns {args.ns!r} is an empty range (expected lo:hi with lo <= hi)")
                # the rules of a window_bound suite entry
                _suite_value("sweep", "window_bound", "ns", list(ns))
                _suite_value("sweep", "window_bound", "samples", args.samples)
            buffer = io.StringIO()
            writer = csv.writer(buffer)
            writer.writerow(["check", "n", "ratio"])
            with _output(args.output) as write:
                if args.check == "window":
                    for n in ns:
                        cert = check_window_bound(n, samples=args.samples, seed=args.seed + n)
                        writer.writerow([cert.check_id, n, str(cert.lhs)])
                else:
                    cert = check_q_decay(seed=args.seed)
                    report = cert.witness["report"]
                    for (n, _m), bounds in zip(report["ranges"], report["per_range"]):
                        writer.writerow(["q_decay", n, bounds["upper"]])
                write(buffer.getvalue())
            return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    parser.error("no command given")
    return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
