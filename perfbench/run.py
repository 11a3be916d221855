"""Benchmark of tsirelson-lab: exact T, T* and certificate-suite workloads.

    python3 perfbench/run.py --workload suite_default --seed 7 --seconds 40 --trace 0

Run it from the root of a checkout; it imports the package from ``src/``
and needs nothing installed.  Every sample is taken in a fresh interpreter
(perfbench/worker.py), so module caches start empty and never leak between
workloads or repetitions.

With ``--trace 0`` it repeats, until ``--seconds`` are used up, one cold
pass (followed by warm passes in the same process) and one parallel pass,
each in its own process, and reports the end-to-end metrics as medians.
With ``--trace 1`` it alternates untraced and traced cold passes and
reports per-layer metrics from the traced ones.  Outputs are checked
outside the timed regions; the last line of standard output is the JSON
result, and a record with the run context and every sample goes to
``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "tsirelson_lab")
OUT = os.path.join(ROOT, ".perfbench-out")
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("suite_default", "dual_wide", "primal_long")
SETUP_PROBES = 5  # set-up-only processes per run, besides those of the passes
WARM_BUDGET_S = 0.5  # time spent on warm passes after each cold pass
MIN_TRACED = 2  # traced passes per run, so their counts can be compared
HARD_LIMIT_S = 170.0  # a run must end well within 180 s
# the module caches each end-to-end metric sees; per-layer metrics are all cold
CACHE_STATE = {
    "wall_s": "cold",
    "warm_s": "warm",
    "wall_parallel_s": "cold",
    "setup_s": "empty",
    "peak_rss_mb": "cold, then warm",
}


class WorkerError(RuntimeError):
    pass


def unit_of(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


def spawn(mode: str, workload: str, seed: int, deadline: float, workers: int = 1,
          warm_budget: float = 0.0, spans_path: str = "") -> dict:
    """Run one worker process to completion and return its JSON result."""
    env = dict(os.environ)
    env.pop("TSIRELSON_LAB_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    t0 = time.perf_counter()
    argv = [sys.executable, WORKER, mode, workload, str(seed), repr(t0), str(workers),
            str(warm_budget), spans_path]
    # own session, so a timeout can stop the worker's pool processes too
    proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerError(f"{mode} pass of {workload} ran past the time limit")
    if proc.returncode != 0:
        raise WorkerError(f"{mode} pass of {workload} exited with {proc.returncode}:\n{err}")
    return json.loads(out.strip().splitlines()[-1])


class Tally:
    """Attempted and failed output checks, plus cross-process agreement."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digest = None
        self.caches = None

    def add(self, result: dict, compare_caches: bool = True) -> None:
        failed = result["failed"]
        if self.digest is None:
            self.digest = result["digest"]
        elif result["digest"] != self.digest:
            failed = result["attempted"]  # outputs differ from the first pass
        if compare_caches:
            if self.caches is None:
                self.caches = result["caches"]
            elif result["caches"] != self.caches:
                failed = max(failed, 1)
        self.attempted += result["attempted"]
        self.failed += failed


def measure_end_to_end(args, workers: int, deadline: float, tally: Tally) -> tuple[dict, dict]:
    samples: dict[str, list[float]] = {k: [] for k in
                                       ("wall_s", "warm_s", "wall_parallel_s", "setup_s", "peak_rss_mb")}
    spawn("setup", args.workload, args.seed, deadline)  # compiles bytecode; not a sample
    for _ in range(SETUP_PROBES):
        samples["setup_s"].append(spawn("setup", args.workload, args.seed, deadline)["setup_s"])
    end = time.monotonic() + args.seconds
    while True:
        started = time.monotonic()
        cold = spawn("cold", args.workload, args.seed, deadline, warm_budget=WARM_BUDGET_S)
        parallel = spawn("parallel", args.workload, args.seed, deadline, workers=workers)
        tally.add(cold)
        # pool workers fill their own caches, not the parent's
        tally.add(parallel, compare_caches=False)
        samples["wall_s"].append(cold["wall_s"])
        samples["warm_s"].append(cold["warm_s"])
        samples["peak_rss_mb"].append(cold["peak_rss_mb"])
        samples["wall_parallel_s"].append(parallel["wall_s"])
        samples["setup_s"] += [cold["setup_s"], parallel["setup_s"]]
        if time.monotonic() + (time.monotonic() - started) > end:
            break
    return {k: statistics.median(v) for k, v in samples.items()}, samples


def measure_layers(args, deadline: float, tally: Tally) -> tuple[dict, dict]:
    untraced: list[float] = []
    traced: list[dict] = []
    end = time.monotonic() + args.seconds
    while True:
        started = time.monotonic()
        cold = spawn("cold", args.workload, args.seed, deadline)
        spans = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}-{len(traced)}.json")
        trace = spawn("traced", args.workload, args.seed, deadline, spans_path=spans)
        tally.add(cold)
        tally.add(trace)
        untraced.append(cold["wall_s"])
        traced.append(trace)
        if len(traced) >= MIN_TRACED and time.monotonic() + (time.monotonic() - started) > end:
            break
    layers = [t["layers"] for t in traced]
    metrics = {}
    counts_repeat = True
    for name in layers[0]:
        values = [layer[name] for layer in layers]
        if unit_of(name) == "count":
            metrics[name] = values[0]
            counts_repeat = counts_repeat and len(set(values)) == 1
        else:
            metrics[name] = statistics.median(values)
    # one more check: operation counts repeat exactly between traced passes
    tally.attempted += 1
    tally.failed += not counts_repeat
    metrics["trace_overhead_s"] = statistics.median([t["wall_s"] for t in traced]) - statistics.median(untraced)
    metrics["dualnorm.cache_entries"] = tally.caches["dualnorm"]
    metrics["dualnorm.functional_cache_entries"] = tally.caches["tree_functionals"]
    metrics["tsirelson.cache_entries"] = tally.caches["tsirelson"]
    samples = {"untraced_wall_s": untraced, "traced_layers": layers}
    return metrics, samples


def source_commit() -> str:
    """The commit of a git checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as handle:
            return handle.read().strip()
    except OSError:
        return "unknown (not a git checkout)"


def source_sha256() -> str:
    digest = hashlib.sha256()
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print(f"error: no tsirelson_lab sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    workers = min(2, os.cpu_count() or 1)
    deadline = time.monotonic() + HARD_LIMIT_S
    tally = Tally()
    try:
        if args.trace:
            metrics, samples = measure_layers(args, deadline, tally)
        else:
            metrics, samples = measure_end_to_end(args, workers, deadline, tally)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cache_state": CACHE_STATE if not args.trace else "cold",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu": platform.processor() or platform.machine(),
        "nproc": os.cpu_count(),
        "workers": workers,
        "commit": source_commit(),
        "source_sha256": source_sha256(),
    }
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    record = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w", encoding="utf-8") as handle:
        json.dump({"context": context, "samples": samples, "result": result}, handle, indent=1)

    print("context " + json.dumps(context))
    for name, value in metrics.items():
        line = f"{name:40s} {value:.6g} {unit_of(name)} [{CACHE_STATE.get(name, 'cold')}]"
        if name in samples:
            values = samples[name]
            line += f"  (median of n={len(values)}, min {min(values):.6g}, max {max(values):.6g})"
        print(line)
    print(f"failed_ratio {tally.failed / tally.attempted:.6g} ({tally.failed} of {tally.attempted})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
