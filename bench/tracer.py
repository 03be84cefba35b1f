"""Timing wrappers for the traced benchmark run.

The wrappers are installed from the benchmark's own files around calls into
the engine's public functions and methods; nothing inside ``ca_engine`` is
edited. Several engine modules bind helpers at import time (``from .util
import append_line``, ``from .flow.runner import execute``), so a function is
replaced in every ``ca_engine`` module namespace that holds it, and a method
on its class. A wrapper passes arguments, return values and exceptions
through unchanged.

Each wrapped call records a span: name, start, end, parent and the id of the
cycle or flow run it belongs to. The parent is the enclosing wrapped call on
the same thread; a call on an executor pool thread with no enclosing wrapped
call takes the running ``flow.runner.execute`` span as parent. Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    trace_id: int

    def to_dict(self, index: int) -> dict:
        return {
            "id": index,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "trace_id": self.trace_id,
        }


class Tracer:
    """Collects spans and counters while installed; inert otherwise."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        # (trace id, artifact id) -> size of every blob ``get`` returned
        self.get_sizes: dict[tuple[int, str], int] = {}
        self.trace_id = 0
        self.enabled = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._execute_span: int | None = None
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int | None:
        if not self.enabled:
            return None
        stack = self._stack()
        parent = stack[-1] if stack else self._execute_span
        with self._lock:
            index = len(self.spans)
            self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.trace_id))
        stack.append(index)
        if name == "flow.runner.execute":
            self._execute_span = index
        return index

    def end(self, index: int | None) -> None:
        if index is None:
            return
        self.spans[index].end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()
        if index == self._execute_span:
            self._execute_span = None

    def count(self, name: str, amount: float = 1) -> None:
        if self.enabled:
            with self._lock:
                self.counters[name] = self.counters.get(name, 0) + amount

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    # -- installation ------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(index)
            if after is not None and tracer.enabled:
                after(args, kwargs, result)
            return result

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap_function(self, original, name: str, after=None) -> None:
        """Replace ``original`` in every ``ca_engine`` module that binds it."""
        wrapper = self._wrap(name, original, after)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("ca_engine"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def wrap_method(self, cls, attr: str, name: str, after=None) -> None:
        self._set(cls, attr, self._wrap(name, getattr(cls, attr), after))

    def wrap_write_lock(self, repository_cls) -> None:
        """Span covers the wait: from the call until the lock is held."""
        original = repository_cls.write_lock
        tracer = self

        @functools.wraps(original)
        @contextmanager
        def write_lock(repo, *args, **kwargs):
            with ExitStack() as held:
                index = tracer.begin("repo.write_lock")
                try:
                    held.enter_context(original(repo, *args, **kwargs))
                finally:
                    tracer.end(index)
                yield

        self._set(repository_cls, "write_lock", write_lock)

    def install(self, executor_classes=()) -> None:
        import ca_engine.cli  # noqa: F401  (binds the names patched below)
        from ca_engine import feedback, lineage, pipeline, store, tuples, util
        from ca_engine.flow import executors, graph, runner
        from ca_engine.repo import Repository

        self.wrap_write_lock(Repository)

        def put_after(args, kwargs, result):
            data = args[2] if len(args) > 2 else kwargs["data"]
            self.count("store.put.bytes", len(data))

        def get_after(args, kwargs, result):
            self.count("store.get.bytes", len(result))
            with self._lock:
                self.get_sizes[(self.trace_id, str(args[1]))] = len(result)

        def edges_after(args, kwargs, result):
            self.count("lineage.edges_added", result)

        self.wrap_method(store.ArtifactStore, "__init__", "store.open")
        self.wrap_method(store.ArtifactStore, "put", "store.put", put_after)
        self.wrap_method(store.ArtifactStore, "get", "store.get", get_after)
        self.wrap_method(store.ArtifactStore, "find_by_hash", "store.find_by_hash")
        for method in ("mint_run_id", "record", "attach_feedback", "load", "list"):
            self.wrap_method(tuples.RunStore, method, f"tuples.{method}")
        self.wrap_function(graph.parse_manifest, "flow.graph.parse_manifest")
        self.wrap_function(graph.validate, "flow.graph.validate")
        self.wrap_function(runner.execute, "flow.runner.execute")
        for cls in (executors.ProcessExecutor, *executor_classes):
            self.wrap_method(cls, "run", "flow.executors.run")
        for fn in (feedback.collect, feedback.load_bundle, feedback.evaluate_gate):
            self.wrap_function(fn, f"feedback.{fn.__name__}")
        self.wrap_method(lineage.LineageLog, "__init__", "lineage.open")
        self.wrap_method(lineage.LineageLog, "record_edges", "lineage.record_edges", edges_after)
        self.wrap_method(lineage.LineageLog, "provenance_of", "lineage.provenance_of")
        self.wrap_method(lineage.LineageLog, "runs_using", "lineage.runs_using")
        self.wrap_function(lineage.replay_check, "lineage.replay_check")
        for method in ("ingest_event", "run_validation", "gate_report", "approve", "run_release", "run_direct"):
            self.wrap_method(pipeline.Pipeline, method, f"pipeline.{method}")
        self.wrap_function(util.append_line, "util.append_line")
        self.wrap_function(util.atomic_write_bytes, "util.atomic_write")
        # util calls ``os.fsync`` through the os module; every fsync in this
        # process comes from there.
        self._set(os, "fsync", self._wrap("util.fsync", os.fsync))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)


# -- analysis --------------------------------------------------------------


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    clipped = sorted((max(s, lo), min(e, hi)) for s, e in intervals if e > lo and s < hi)
    total = 0.0
    cur_start = cur_end = None
    for s, e in clipped:
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def children_of(spans: list[Span]) -> dict[int, list[int]]:
    children: dict[int, list[int]] = {}
    for index, span in enumerate(spans):
        if span.parent is not None:
            children.setdefault(span.parent, []).append(index)
    return children


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = children_of(spans)
    out = []
    for index, span in enumerate(spans):
        kids = [(spans[k].start, spans[k].end) for k in children.get(index, ())]
        out.append(span.end - span.start - union_length(kids, span.start, span.end))
    return out


def execute_breakdown(spans: list[Span]) -> list[dict]:
    """Per ``flow.runner.execute`` span: wall, executor-busy union, task count."""
    children = children_of(spans)
    out = []
    for index, span in enumerate(spans):
        if span.name != "flow.runner.execute":
            continue
        runs = [spans[k] for k in children.get(index, ()) if spans[k].name == "flow.executors.run"]
        wall = span.end - span.start
        busy_union = union_length([(r.start, r.end) for r in runs], span.start, span.end)
        out.append(
            {
                "wall": wall,
                "engine_only": wall - busy_union,
                "tasks": len(runs),
                "executor_busy": sum(r.end - r.start for r in runs),
            }
        )
    return out
