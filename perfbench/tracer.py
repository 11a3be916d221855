"""Spans around the public entry points of tsirelson_lab, from outside the package.

``Tracer.install`` rebinds each traced function in every package module
that holds it, including the names consumers imported by value (for
example ``dualnorm.tsirelson_norm`` and ``certify.james_norm``) and the
entries of ``certify.CHECK_UNITS``.  Calls are only wrapped, never
changed, so a traced run must reproduce the untraced outputs exactly.
Spans (name, start, end, parent, note) stay in memory until the run ends.
"""

from __future__ import annotations

import json
import statistics
import sys
from time import perf_counter

from tsirelson_lab import _simplex, blockseq, certify, cli, dualnorm, jamesify, seqvec, tsirelson

LAYERS = ("cli", "certify", "dualnorm", "simplex", "tsirelson", "jamesify", "blockseq", "seqvec")


def _rows_cols(args, result):
    objective, rows = args[0], args[1]
    return len(rows), len(objective)


def _support_size(args, result):
    return len(args[0].entries)


def _result_size(args, result):
    return len(result)


# (module, function name, span name, note taken from (args, result))
ENTRY_POINTS = (
    (cli, "main", "cli.main", None),
    (certify, "run_suite", "certify.run_suite", None),
    (dualnorm, "dual_norm", "dualnorm.dual_norm", None),
    (dualnorm, "support_function_norm", "dualnorm.support_function_norm", None),
    (_simplex, "maximize", "simplex.maximize", _rows_cols),
    (tsirelson, "tsirelson_norm", "tsirelson.norm", _support_size),
    (tsirelson, "tsirelson_maximizer", "tsirelson.maximizer", _support_size),
    (jamesify, "james_norm", "jamesify.james_norm", None),
    (jamesify, "canonical_selection_indices", "jamesify.canonical_selection_indices", _result_size),
    (blockseq, "normalize", "blockseq.normalize", None),
    (seqvec, "lp_norm", "seqvec.lp_norm", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, note]
        self._open: list[int] = []
        self._undo: list[tuple[dict, object, object]] = []

    def wrap(self, name: str, function, note=None):
        spans, open_ = self.spans, self._open

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1, None]
            open_.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                open_.pop()
            if note is not None:
                span[4] = note(args, result)
            return result

        return traced

    def _rebind(self, namespace: dict, key, wrapper) -> None:
        self._undo.append((namespace, key, namespace[key]))
        namespace[key] = wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "tsirelson_lab"]
        for module, attr, name, note in ENTRY_POINTS:
            original = getattr(module, attr)
            wrapper = self.wrap(name, original, note)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._rebind(vars(holder), key, wrapper)
        for unit, function in list(certify.CHECK_UNITS.items()):
            self._rebind(certify.CHECK_UNITS, unit, self.wrap(f"certify.unit.{unit}", function))

    def uninstall(self) -> None:
        while self._undo:
            namespace, key, original = self._undo.pop()
            namespace[key] = original

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "note"], "spans": self.spans}, handle)


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(spans: list[list], wall_s: float) -> dict[str, float]:
    """Per-layer counts and times from one traced run's spans.

    A span's self time is its duration minus its direct children's
    durations; calls are synchronous, so children never overlap.
    """
    duration = [end - start for _, start, end, _, _ in spans]
    child_time = [0.0] * len(spans)
    children: list[list[int]] = [[] for _ in spans]
    for k, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += duration[k]
            children[parent].append(k)
    by_name: dict[str, list[int]] = {}
    for k, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(k)

    def total(name: str) -> float:
        return sum(duration[k] for k in by_name.get(name, ()))

    def count(name: str) -> int:
        return len(by_name.get(name, ()))

    def self_time(name: str) -> float:
        return sum(duration[k] - child_time[k] for k in by_name.get(name, ()))

    m: dict[str, float] = {}

    solves = by_name.get("simplex.maximize", [])
    rows = [spans[k][4][0] for k in solves]
    m["simplex.maximize.calls"] = len(solves)
    m["simplex.maximize.s"] = total("simplex.maximize")
    m["simplex.solve_p50_s"] = _quantile([duration[k] for k in solves], 0.5)
    m["simplex.solve_p99_s"] = _quantile([duration[k] for k in solves], 0.99)
    m["simplex.rows_mean"] = statistics.fmean(rows) if rows else 0.0
    m["simplex.rows_max"] = max(rows, default=0)
    m["simplex.cells"] = sum(r * (r + c) for r, c in (spans[k][4] for k in solves))

    evals = by_name.get("dualnorm.dual_norm", [])
    rounds = [
        sum(1 for c in children[k] if spans[c][0] == "simplex.maximize")
        for k in by_name.get("dualnorm.support_function_norm", [])
    ]
    m["dualnorm.dual_norm.calls"] = len(evals)
    m["dualnorm.misses"] = len(rounds)
    m["dualnorm.cache_hit_ratio"] = (len(evals) - len(rounds)) / len(evals) if evals else 0.0
    m["dualnorm.cutting_plane.rounds"] = sum(rounds)
    m["dualnorm.cutting_plane.rounds_max"] = max(rounds, default=0)
    m["dualnorm.cutting_plane.self_s"] = self_time("dualnorm.support_function_norm")
    m["dualnorm.eval_p50_s"] = _quantile([duration[k] for k in evals], 0.5)
    m["dualnorm.eval_p99_s"] = _quantile([duration[k] for k in evals], 0.99)

    dp_calls = by_name.get("tsirelson.norm", []) + by_name.get("tsirelson.maximizer", [])
    supports = [spans[k][4] for k in dp_calls]
    m["tsirelson.norm.calls"] = count("tsirelson.norm")
    m["tsirelson.norm.s"] = total("tsirelson.norm")
    m["tsirelson.maximizer.calls"] = count("tsirelson.maximizer")
    m["tsirelson.maximizer.s"] = total("tsirelson.maximizer")
    m["tsirelson.support_mean"] = statistics.fmean(supports) if supports else 0.0
    m["tsirelson.support_max"] = max(supports, default=0)

    m["jamesify.james_norm.calls"] = count("jamesify.james_norm")
    m["jamesify.james_norm.s"] = total("jamesify.james_norm")
    m["jamesify.base_evals"] = sum(
        1
        for k in by_name.get("jamesify.james_norm", [])
        for c in children[k]
        if not spans[c][0].startswith("jamesify.")
    )
    m["jamesify.canonical_size_max"] = max(
        (spans[k][4] for k in by_name.get("jamesify.canonical_selection_indices", [])), default=0
    )

    m["certify.run_suite_s"] = total("certify.run_suite")
    for unit in certify.CHECK_UNITS:
        m[f"certify.unit.{unit}_s"] = total(f"certify.unit.{unit}")
    m["blockseq.normalize.s"] = total("blockseq.normalize")
    m["seqvec.lp_norm.s"] = total("seqvec.lp_norm")

    layer_self = dict.fromkeys(LAYERS, 0.0)
    for k, span in enumerate(spans):
        layer_self[span[0].split(".")[0]] += duration[k] - child_time[k]
    for layer, value in layer_self.items():
        m[f"{layer}.self_s"] = value
    top_level = sum(duration[k] for k, span in enumerate(spans) if span[3] < 0)
    m["trace.wall_s"] = wall_s
    m["trace.covered_share"] = top_level / wall_s if wall_s > 0 else 0.0
    m["trace.spans"] = len(spans)
    return m
