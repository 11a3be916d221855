"""One measured process of the benchmark; run.py starts a fresh one per sample.

    python3 perfbench/worker.py MODE WORKLOAD SEED T0 WORKERS WARM_BUDGET SPANS_PATH

T0 is the parent's ``time.perf_counter()`` taken just before it started
this process; on Linux that clock is system-wide, so the set-up time
(interpreter start, imports, input generation) is measured from it.
MODE is one of

    setup     set up and stop
    cold      time one pass with empty caches, then warm passes
    parallel  time one pass spread over WORKERS processes
    traced    time one pass with spans around every layer entry point

The last line of standard output is one JSON object for run.py.
"""

import json
import resource
import sys
import time

from tsirelson_lab import dualnorm, tsirelson
from workloads import WORKLOADS

MAX_WARM_PASSES = 1000


def main(argv: list[str]) -> dict:
    mode, workload_name, seed, t0, workers, warm_budget, spans_path = argv
    workload = WORKLOADS[workload_name](int(seed))
    result = {"setup_s": time.perf_counter() - float(t0)}
    if mode == "setup":
        return result

    tracer = None
    if mode == "traced":
        from tracer import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    if mode == "parallel":
        outputs = workload.run_parallel(int(workers))
    else:
        outputs = workload.run()
    wall_s = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    result["wall_s"] = wall_s
    result["caches"] = {
        "dualnorm": len(dualnorm._dual_cache),
        "tree_functionals": len(dualnorm._functional_cache),
        "tsirelson": len(tsirelson._norm_cache),
    }

    digest = workload.digest(outputs)
    warm = []
    mismatches = 0
    while mode == "cold" and sum(warm) < float(warm_budget) and len(warm) < MAX_WARM_PASSES:
        start = time.perf_counter()
        repeated = workload.run()
        warm.append(time.perf_counter() - start)
        mismatches += workload.digest(repeated) != digest
    if warm:
        result["warm_s"] = sorted(warm)[len(warm) // 2]
    usage_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["peak_rss_mb"] = (usage_self + usage_children) / 1024  # ru_maxrss is in KiB

    attempted, failed = workload.check(outputs)
    # a warm pass is checked against the cold outputs it must reproduce
    result["attempted"] = attempted * (1 + len(warm))
    result["failed"] = failed + attempted * mismatches
    result["digest"] = digest
    if tracer is not None:
        result["layers"] = layer_metrics(tracer.spans, wall_s)
        tracer.dump(spans_path)
    return result


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
