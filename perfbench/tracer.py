"""Span tracing installed from outside the package.

Every hook rebinds a name where its callers look it up: a module-level
function is replaced in *every* loaded ``teammem`` module that holds the
original object (``harness`` imports its helpers by value), and a method is
replaced on its class. Nothing under ``src/`` is edited.

A span records its name, start, end and parent. Spans stay in memory and are
written out once, at the end of a run. A layer's self time is its duration
minus the time its child spans cover; since calls nest on one thread, child
intervals never overlap, so that is the sum of child durations.

A hook whose target no longer exists is reported as absent and the run still
finishes, so the benchmark survives refactors it is not allowed to follow.
``cosine`` is deliberately never wrapped: it runs millions of times and the
wrapper would swamp what it measures.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

# (span name, module, function) for module-level functions.
FUNCTION_HOOKS = (
    ("retrieval.retrieve", "teammem.retrieval", "retrieve"),
    ("retrieval.retrieve_from_pools", "teammem.retrieval", "retrieve_from_pools"),
    ("retrieval.score_pool", "teammem.retrieval", "score_pool"),
    ("lifecycle.post_task_update", "teammem.lifecycle", "post_task_update"),
    ("lifecycle.maybe_consolidate", "teammem.lifecycle", "maybe_consolidate"),
    ("lifecycle.consolidate", "teammem.lifecycle", "consolidate"),
    ("lifecycle.cluster_by_lessons", "teammem.lifecycle", "cluster_by_lessons"),
    ("lifecycle.lesson_vector", "teammem.lifecycle", "lesson_vector"),
    ("lifecycle._prune_dominated", "teammem.lifecycle", "_prune_dominated"),
    ("metrics.append_runlog_entry", "teammem.metrics", "append_runlog_entry"),
    ("store.open_store", "teammem.store", "open_store"),
    ("store._dump_json", "teammem.store", "_dump_json"),
)

# (span name, module, class, method) for methods wrapped on their class.
METHOD_HOOKS = (
    ("embedding.embed", "teammem.embedding", "HashEmbedder", "embed"),
    ("lifecycle.generalize", "teammem.lifecycle", "StubGenerator", "generalize"),
    ("store.flush", "teammem.store", "MemoryStore", "flush"),
    ("harness.step", "teammem.harness", "SimRunner", "step"),
)


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return kwargs[name] if name in kwargs else args[index]


@dataclass
class Tracer:
    """In-memory span recorder plus the counters taken at hook boundaries."""

    enabled: bool = False
    names: list[str] = field(default_factory=list)
    spans: list[tuple[int, int, int, int]] = field(default_factory=list)
    calls: dict[str, int] = field(default_factory=dict)
    total_ns: dict[str, int] = field(default_factory=dict)
    self_ns: dict[str, int] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)
    embedded_texts: set[str] = field(default_factory=set)
    absent: list[str] = field(default_factory=list)
    count_errors: set[str] = field(default_factory=set)
    _stack: list[list[int]] = field(default_factory=list)
    _restore: list[tuple[Any, str, Any]] = field(default_factory=list)

    # -- recording -----------------------------------------------------------

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _call(self, name: str, index: int, fn: Callable, args: tuple, kwargs: dict,
              count: Callable | None) -> Any:
        parent = self._stack[-1][0] if self._stack else -1
        frame = [len(self.spans), 0]  # this span's index, time covered by its children
        start = time.perf_counter_ns()
        self.spans.append((index, start, 0, parent))
        self._stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            duration = end - start
            self.spans[frame[0]] = (index, start, end, parent)
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total_ns[name] = self.total_ns.get(name, 0) + duration
            self.self_ns[name] = self.self_ns.get(name, 0) + duration - frame[1]
            if self._stack:
                self._stack[-1][1] += duration
        if count is not None:
            try:
                count(self, args, kwargs, result)
            except Exception:  # a refactored signature must not stop the run
                self.count_errors.add(name)
        return result

    def _wrap(self, name: str, fn: Callable) -> Callable:
        index = len(self.names)
        self.names.append(name)
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            return self._call(name, index, fn, args, kwargs, count)

        return traced

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Install every hook; targets that no longer exist are recorded as absent."""
        for name, module_name, attr in FUNCTION_HOOKS:
            original = getattr(_module(module_name), attr, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for module in _package_modules():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, value))
                        setattr(module, key, wrapper)
        for name, module_name, class_name, attr in METHOD_HOOKS:
            cls = getattr(_module(module_name), class_name, None)
            original = vars(cls).get(attr) if isinstance(cls, type) else None
            if not callable(original):
                self.absent.append(name)
                continue
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    # -- reading ---------------------------------------------------------------

    def ms(self, name: str) -> float:
        return self.total_ns.get(name, 0) / 1e6

    def self_ms(self, name: str) -> float:
        return self.self_ns.get(name, 0) / 1e6

    def self_ms_within(self, root: str) -> dict[str, float]:
        """Self time by span name, counting only spans inside a ``root`` span (root included)."""
        roots = {i for i, name in enumerate(self.names) if name == root}
        child_ns = [0] * len(self.spans)
        inside = [False] * len(self.spans)
        for i, (name, start, end, parent) in enumerate(self.spans):
            inside[i] = name in roots or (parent >= 0 and inside[parent])
            if parent >= 0:
                child_ns[parent] += end - start
        within: dict[str, float] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            if inside[i]:
                key = self.names[name]
                within[key] = within.get(key, 0.0) + (end - start - child_ns[i]) / 1e6
        return within

    def write_spans(self, path: Path) -> None:
        """One JSON array per span: name, start_ns, end_ns, parent span index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"names": self.names}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span, separators=(",", ":")) + "\n")


def _module(name: str):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def _package_modules() -> list:
    return [
        module
        for key, module in sorted(sys.modules.items())
        if module is not None and (key == "teammem" or key.startswith("teammem."))
    ]


# Counters read from call arguments and results at the hook boundary.


def _count_cluster(t: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    n = len(_arg(args, kwargs, 0, "episodes"))
    t.add("cluster_pairs", n * (n - 1) // 2)


def _count_embed(t: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    t.embedded_texts.add(_arg(args, kwargs, 1, "text"))


def _count_score_pool(t: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    t.add("items_scored", len(_arg(args, kwargs, 1, "pool")))


def _count_retrieve(t: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    t.add("procedural_results", int(result.kind_used == "procedural"))


def _count_prune(t: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    t.add("pruned", len(result))


def _count_dump(t: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    t.add("bytes_written", os.path.getsize(_arg(args, kwargs, 0, "path")))


COUNTERS: dict[str, Callable] = {
    "lifecycle.cluster_by_lessons": _count_cluster,
    "embedding.embed": _count_embed,
    "retrieval.score_pool": _count_score_pool,
    "retrieval.retrieve": _count_retrieve,
    "lifecycle._prune_dominated": _count_prune,
    "store._dump_json": _count_dump,
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(t: Tracer, live_procedures: int, final_store_bytes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics by name, as (value, unit). Absent layers read 0."""
    calls = lambda name: t.calls.get(name, 0)  # noqa: E731
    return {
        "lifecycle.cluster_by_lessons.calls": (calls("lifecycle.cluster_by_lessons"), "count"),
        "lifecycle.cluster_by_lessons.ms": (t.ms("lifecycle.cluster_by_lessons"), "ms"),
        "lifecycle.cluster_by_lessons.pairs": (t.counts.get("cluster_pairs", 0), "count"),
        "lifecycle.lesson_vector.calls": (calls("lifecycle.lesson_vector"), "count"),
        "lifecycle.consolidate.calls": (calls("lifecycle.consolidate"), "count"),
        "lifecycle.consolidate.self_ms": (t.self_ms("lifecycle.consolidate"), "ms"),
        "lifecycle.maybe_consolidate.calls": (calls("lifecycle.maybe_consolidate"), "count"),
        "lifecycle.generalize.calls": (calls("lifecycle.generalize"), "count"),
        "lifecycle.procedures_kept_ratio": (
            _ratio(live_procedures, calls("lifecycle.generalize")), "ratio"),
        "lifecycle._prune_dominated.ms": (t.ms("lifecycle._prune_dominated"), "ms"),
        "lifecycle._prune_dominated.removed": (t.counts.get("pruned", 0), "count"),
        "lifecycle.post_task_update.calls": (calls("lifecycle.post_task_update"), "count"),
        "lifecycle.post_task_update.self_ms": (t.self_ms("lifecycle.post_task_update"), "ms"),
        "embedding.embed.calls": (calls("embedding.embed"), "count"),
        "embedding.embed.ms": (t.ms("embedding.embed"), "ms"),
        "embedding.embed.distinct_ratio": (
            _ratio(len(t.embedded_texts), calls("embedding.embed")), "ratio"),
        "retrieval.retrieve.calls": (calls("retrieval.retrieve"), "count"),
        "retrieval.retrieve.self_ms": (t.self_ms("retrieval.retrieve"), "ms"),
        "retrieval.retrieve_from_pools.self_ms": (t.self_ms("retrieval.retrieve_from_pools"), "ms"),
        "retrieval.score_pool.calls": (calls("retrieval.score_pool"), "count"),
        "retrieval.score_pool.ms": (t.ms("retrieval.score_pool"), "ms"),
        "retrieval.items_scored_per_result": (
            _ratio(t.counts.get("items_scored", 0), calls("retrieval.retrieve")), "items"),
        "retrieval.procedural_share": (
            _ratio(t.counts.get("procedural_results", 0), calls("retrieval.retrieve")), "ratio"),
        "store.flush.calls": (calls("store.flush"), "count"),
        "store.flush.ms": (t.ms("store.flush"), "ms"),
        "store.files_written": (calls("store._dump_json"), "count"),
        "store.bytes_written": (t.counts.get("bytes_written", 0), "B"),
        "store.write_amplification": (
            _ratio(t.counts.get("bytes_written", 0), final_store_bytes), "ratio"),
        "store.open_store.ms": (t.ms("store.open_store"), "ms"),
        "metrics.append_runlog_entry.calls": (calls("metrics.append_runlog_entry"), "count"),
        "metrics.append_runlog_entry.ms": (t.ms("metrics.append_runlog_entry"), "ms"),
        "harness.step.ms": (t.ms("harness.step"), "ms"),
        "harness.step.self_ms": (t.self_ms("harness.step"), "ms"),
        "trace.hooks_absent": (len(t.absent), "count"),
    }
