"""Spans around the engine's public functions, recorded from outside.

``Tracer.install`` replaces each traced function in every ``dynkin`` module
namespace that holds it, so calls made through module globals (the way the
engine calls itself) are seen; ``uninstall`` puts the originals back.  Spans
stay in memory until ``dump``.  Hot inner functions get a call counter
instead of a span, to keep the tracing overhead small.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from contextlib import contextmanager


def _nodes(value) -> int:
    nodes = getattr(value, "nodes", None)
    return len(nodes) if isinstance(nodes, list) else 0


def _tree_arg(args, result) -> dict:
    return {"nodes": next((_nodes(a) for a in args if _nodes(a)), 0)}


def _tree_result(args, result) -> dict:
    return {"nodes": _nodes(result[0])}


def _split_growth(args, result) -> dict:
    before, after = args[0], result[0]
    return {
        "nodes": _nodes(before),
        "split_nodes_added": _nodes(after) - _nodes(before),
        "horizon_added": after.horizon - before.horizon,
    }


def _construct(args, result) -> dict:
    return {"nodes": _nodes(args[0]), "mirrored": int(result.case_trace[0].label.startswith("M"))}


# (home module, function, span name, span attributes)
SPANS = (
    ("toolkit", "generate", "toolkit.generate", _tree_result),
    ("toolkit", "load", "toolkit.load", _tree_result),
    ("toolkit", "instance_to_doc", "toolkit.to_doc", _tree_arg),
    ("toolkit", "profile_to_doc", "toolkit.to_doc", _tree_arg),
    ("core", "split_frames", "core.split_frames", _split_growth),
    ("core", "split_frame", "core.split_frames", _split_growth),
    ("core", "evaluate_profile", "core.evaluate_profile", _tree_arg),
    ("core", "require_valid", "core.require_valid", _tree_arg),
    ("zerosum", "solve_value_process", "zerosum.solve_value_process", _tree_arg),
    ("zerosum", "hitting_time", "zerosum.hitting_time", _tree_arg),
    ("equilibrium", "construct", "equilibrium.construct", _construct),
    ("equilibrium", "construct_pure", "equilibrium.construct", _construct),
    ("equilibrium", "classify", "equilibrium.classify", _tree_arg),
    ("verify", "deviation_gap", "verify.deviation_gap", _tree_arg),
    ("verify", "best_response", "verify.best_response", _tree_arg),
    ("verify", "check_invariants", "verify.check_invariants", _tree_arg),
    ("verify", "brute_force_value", "verify.brute_force_value", _tree_arg),
    ("verify", "brute_force_payoff", "verify.brute_force_payoff", _tree_arg),
    ("verify", "brute_force_best_response", "verify.brute_force_best_response", _tree_arg),
)


def _is_mixed(result) -> bool:
    _, row_mix, col_mix = result
    return max(row_mix) != 1.0 or max(col_mix) != 1.0


# (home module, function, counter name, predicate for a second counter)
COUNTERS = (
    ("zerosum", "stage_matrices", "zerosum.stage_matrices.calls", None),
    ("zerosum", "solve_matrix_game", "zerosum.solve_matrix_game.calls", ("zerosum.mixed_stage_solves", _is_mixed)),
)

MODULES = ("dynkin", "dynkin.core", "dynkin.zerosum", "dynkin.equilibrium", "dynkin.verify", "dynkin.toolkit", "dynkin.cli")

SPLIT = "core.split_frames"


class Tracer:
    """Span and counter store for one benchmark run (single thread)."""

    def __init__(self) -> None:
        self.spans: list = []  # [name, start, end, parent index or -1, attrs]
        self.counts: Counter = Counter()
        self._stack: list = []
        self._saved: list = []

    @contextmanager
    def span(self, name: str, **attrs):
        index = len(self.spans)
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, attrs]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = time.perf_counter()
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _span_wrapper(self, fn, name, attrs_of):
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            record[4] = attrs_of(args, result)
            return result

        return traced

    def _count_wrapper(self, fn, name, extra):
        counts = self.counts

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[name] += 1
            if extra is not None and extra[1](result):
                counts[extra[0]] += 1
            return result

        return counted

    def install(self) -> None:
        modules = [sys.modules[m] for m in MODULES if m in sys.modules]
        wrappers = [
            (home, fn, self._span_wrapper(getattr(sys.modules["dynkin." + home], fn), name, attrs))
            for home, fn, name, attrs in SPANS
        ] + [
            (home, fn, self._count_wrapper(getattr(sys.modules["dynkin." + home], fn), name, extra))
            for home, fn, name, extra in COUNTERS
        ]
        for home, fn, wrapper in wrappers:
            original = getattr(sys.modules["dynkin." + home], fn)
            for module in modules:
                if getattr(module, fn, None) is original:
                    self._saved.append((module, fn, original))
                    setattr(module, fn, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            module, fn, original = self._saved.pop()
            setattr(module, fn, original)

    def mark(self) -> tuple:
        return len(self.spans), Counter(self.counts)

    def summary(self, since: tuple) -> dict:
        """Self time (ms) and counts of the spans and counters since ``mark``."""
        first, counts_before = since
        spans = self.spans[first:]
        child_time = [0.0] * len(spans)
        for rec in spans:
            if rec[3] >= first:
                child_time[rec[3] - first] += rec[2] - rec[1]
        out: Counter = Counter()
        for k, rec in enumerate(spans):
            name, start, end, parent, attrs = rec
            out[name + ".self_ms"] += (end - start - child_time[k]) * 1e3
            out[name + ".calls"] += 1
            out[name + ".nodes"] += attrs.get("nodes", 0)
            nested_split = parent >= first and spans[parent - first][0] == SPLIT
            if name == SPLIT and not nested_split:
                out["core.split_nodes_added"] += attrs.get("split_nodes_added", 0)
                out["core.horizon_added"] += attrs.get("horizon_added", 0)
            out["equilibrium.mirrored_constructs"] += attrs.get("mirrored", 0)
        for name, value in self.counts.items():
            out[name] += value - counts_before.get(name, 0)
        return dict(out)

    def dump(self, path) -> None:
        doc = {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, **attrs} for n, s, e, p, attrs in self.spans
            ],
            "counts": dict(self.counts),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
