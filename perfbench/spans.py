"""Span and counter recording around the library's public entry points.

A :class:`Tracer` replaces a fixed set of public functions and methods with
wrappers that record one :class:`Span` per call — name, layer, start, end,
parent span, request id, rows in and rows out — while
:attr:`Tracer.recording` is set.  Spans stay in memory; :func:`layer_table`
turns them into per-layer self times once the run ends.  A span's self time
is its duration minus the time its child spans cover, so the self times of
every span of a request add up to the request's root span.

Calls made inside forked worker processes record no spans (their memory is
the worker's); the counters they add go to :class:`SharedCounters`, an
anonymous shared mapping the fork inherits, so the parent reads them.

Functions bound into other modules by ``from ... import`` are wrapped in
every ``repro`` module that holds them, because a call looks the name up in
the calling module, not in the defining one.
"""

from __future__ import annotations

import functools
import gc
import mmap
import multiprocessing
import os
import sys
from time import perf_counter

import numpy as np

__all__ = ["Span", "SharedCounters", "Tracer", "GcWatch", "instrument", "layer_table"]

#: Counters the wrappers add to (all may be bumped inside forked workers).
COUNTERS = (
    "window.member_pairs",
    "window.frame_slots",
    "operators.join_candidate_pairs",
    "parallel.tasks",
    "incremental.applies",
    "incremental.patched",
)


class Span:
    """One recorded call: ``[start, end)`` on ``perf_counter``, in seconds."""

    __slots__ = ("sid", "parent", "request", "name", "layer", "start", "end",
                 "rows_in", "rows_out")

    def __init__(self, sid, parent, request, name, layer, rows_in=None):
        self.sid = sid
        self.parent = parent
        self.request = request
        self.name = name
        self.layer = layer
        self.start = 0.0
        self.end = 0.0
        self.rows_in = rows_in
        self.rows_out = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SharedCounters:
    """Named integer counters in an anonymous shared mapping.

    The mapping is created before any worker forks, so a forked worker
    writes the same memory the parent reads; a fork-context lock keeps
    concurrent increments from two workers whole.
    """

    def __init__(self, names):
        self.names = tuple(names)
        self._index = {name: i for i, name in enumerate(self.names)}
        self._buffer = mmap.mmap(-1, 8 * max(1, len(self.names)))
        self._values = np.frombuffer(self._buffer, dtype=np.int64)
        self._lock = multiprocessing.get_context("fork").Lock()

    def add(self, name: str, amount: int) -> None:
        with self._lock:
            self._values[self._index[name]] += int(amount)

    def snapshot(self) -> dict:
        with self._lock:
            return {name: int(self._values[i]) for name, i in self._index.items()}

    def close(self) -> None:
        del self._values
        self._buffer.close()


class GcWatch:
    """Collection counts and pause time through ``gc.callbacks``.

    Installed for the whole run (traced or not); while a tracer records, each
    collection also becomes a ``gc`` span under the span it interrupted.
    """

    def __init__(self, tracer: "Tracer | None" = None):
        self.tracer = tracer
        self.collections = [0, 0, 0]
        self.pause_s = 0.0
        self._started = 0.0
        self._pid = os.getpid()

    def __enter__(self) -> "GcWatch":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._callback)

    def reset(self) -> None:
        self.collections = [0, 0, 0]
        self.pause_s = 0.0

    def _callback(self, phase: str, info: dict) -> None:
        if os.getpid() != self._pid:
            return
        if phase == "start":
            self._started = perf_counter()
            return
        ended = perf_counter()
        self.collections[info["generation"]] += 1
        self.pause_s += ended - self._started
        if self.tracer is not None:
            self.tracer.closed_span("gc.collect", "gc", self._started, ended)


class Tracer:
    """In-memory span recorder that wraps the library's entry points.

    Wrappers are registered once (:func:`instrument`) and installed only
    around traced requests, so untraced requests run the library as is.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.recording = False
        self.request = None
        self.counters = SharedCounters(COUNTERS)
        self._stack: list[Span] = []
        self._next_sid = 0
        self._pid = os.getpid()
        self._patches: list[tuple[object, str, object, object]] = []

    # -- spans ---------------------------------------------------------------

    def live(self) -> bool:
        """Whether calls in this process record spans right now."""
        return self.recording and os.getpid() == self._pid

    def open(self, name: str, layer: str, rows_in=None) -> Span:
        parent = self._stack[-1].sid if self._stack else None
        span = Span(self._next_sid, parent, self.request, name, layer, rows_in)
        self._next_sid += 1
        self._stack.append(span)
        span.start = perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()
        self.spans.append(span)

    def closed_span(self, name: str, layer: str, start: float, end: float) -> None:
        """Record an already finished interval under the open span, if any."""
        if not self.live() or not self._stack:
            return
        span = Span(self._next_sid, self._stack[-1].sid, self.request, name, layer)
        self._next_sid += 1
        span.start, span.end = start, end
        self.spans.append(span)

    # -- patching ------------------------------------------------------------

    def wrap(self, fn, name: str, layer: str, *, rows_in=None, after=None, count=None):
        """A wrapper recording a span per call while :meth:`live`.

        ``rows_in(args)`` and ``after(span, args, result)`` run outside the
        span's interval; ``count(args, result)`` runs in workers too.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            if not tracer.live():
                result = fn(*args, **kwargs)
                if count is not None:
                    count(args, result)
                return result
            span = tracer.open(name, layer, rows_in(args) if rows_in else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if after is not None:
                after(span, args, result)
            if count is not None:
                count(args, result)
            return result

        return wrapper

    def wrap_method(self, cls, attr: str, name: str, layer: str, **hooks) -> None:
        """Register a wrapper for ``cls.attr``; :meth:`install` puts it in place."""
        original = cls.__dict__[attr]
        if isinstance(original, staticmethod):
            replacement = staticmethod(self.wrap(original.__func__, name, layer, **hooks))
        else:
            replacement = self.wrap(original, name, layer, **hooks)
        self._patches.append((cls, attr, original, replacement))

    def wrap_function(self, fn, name: str, layer: str, *, via=None, **hooks) -> None:
        """Register a wrapper for ``fn`` in every loaded ``repro`` module binding it.

        ``via`` (default ``fn``) is what the wrapper calls.
        """
        wrapper = self.wrap(via or fn, name, layer, **hooks)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, fn, wrapper))

    def install(self) -> None:
        for owner, attr, _original, replacement in self._patches:
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original, _replacement in reversed(self._patches):
            setattr(owner, attr, original)

    def close_counters(self) -> None:
        self.counters.close()


def _first_arg_rows(args) -> int:
    return len(args[0])


def _set_rows_out(span: Span, _args, result) -> None:
    span.rows_out = len(result)


#: ColumnarPlan stage methods -> (layer, span name).
PLAN_STAGES = {
    "select": ("operators", "operators.select"),
    "project": ("operators", "operators.project"),
    "extend": ("operators", "operators.extend"),
    "rename": ("operators", "operators.rename"),
    "distinct": ("operators", "operators.distinct"),
    "union": ("operators", "operators.union"),
    "cross": ("operators", "operators.cross"),
    "join": ("operators", "operators.join"),
    "groupby_aggregate": ("operators", "operators.groupby"),
    "sort": ("sort", "sort.sort"),
    "topk": ("sort", "sort.topk"),
    "window": ("window", "window.stage"),
    "narrow": ("relation", "relation.narrow"),
    "to_rows": ("relation", "relation.to_rows"),
}


def instrument(tracer: Tracer) -> None:
    """Register the benchmark's wrappers on the library's public entry points.

    Call once, after the library is imported; the wrappers then go in and
    out with :meth:`Tracer.install` / :meth:`Tracer.uninstall`.
    """
    # Import every module that binds a wrapped function by name, so the
    # registration below finds each binding.
    import repro.sql
    from repro.columnar import kernels, operators, parallel, window  # noqa: F401
    from repro.columnar.factorised import FactorisedAURelation
    from repro.columnar.incremental import IncrementalView
    from repro.columnar.plan import ColumnarPlan
    from repro.columnar.relation import ColumnarAURelation
    from repro.serving import QueryServer
    from repro.sql.compiler import CompiledQuery

    counters = tracer.counters

    def count_frame_slots(args, _result):
        lower, upper = args[1].frame
        counters.add("window.frame_slots", len(args[0]) * (upper - lower + 1))

    for method, (layer, name) in PLAN_STAGES.items():
        tracer.wrap_method(
            ColumnarPlan, method, name, layer, rows_in=_first_arg_rows, after=_set_rows_out,
            count=count_frame_slots if method == "window" else None,
        )
    tracer.wrap_method(
        ColumnarAURelation, "from_relation", "relation.ingest", "relation",
        rows_in=_first_arg_rows, after=_set_rows_out,
    )
    tracer.wrap_method(
        FactorisedAURelation, "expand", "factorised.expand", "factorised",
        rows_in=_first_arg_rows, after=_set_rows_out,
    )
    tracer.wrap_function(repro.sql.compile_sql, "sql.compile", "sql")
    tracer.wrap_method(CompiledQuery, "run", "sql.run", "sql", after=_set_rows_out)

    def count_apply(args, _result):
        counters.add("incremental.applies", 1)
        if args[0].last_apply == "patched":
            counters.add("incremental.patched", 1)

    tracer.wrap_method(
        IncrementalView, "__init__", "incremental.build", "incremental",
        rows_in=lambda args: len(args[1]),
    )
    tracer.wrap_method(
        IncrementalView, "apply_delta", "incremental.apply", "incremental",
        count=count_apply,
    )
    tracer.wrap_method(
        IncrementalView, "to_rows", "incremental.to_rows", "incremental",
        after=_set_rows_out,
    )
    tracer.wrap_method(QueryServer, "query", "serving.query", "serving", after=_set_rows_out)
    tracer.wrap_method(QueryServer, "apply_delta", "serving.delta", "serving")

    original_map = parallel.parallel_map

    @functools.wraps(original_map)
    def counted_map(fn, tasks, *, workers):
        tasks = list(tasks)  # callers may pass any iterable
        counters.add("parallel.tasks", len(tasks))
        return original_map(fn, tasks, workers=workers)

    tracer.wrap_function(original_map, "parallel.map", "parallel", via=counted_map)

    tracer.wrap_method(
        kernels.FrameMemberIndex, "pair_counts", "window.pair_counts", "window",
        rows_in=lambda args: len(args[1]),
        count=lambda _a, result: counters.add("window.member_pairs", int(result.sum())),
    )
    tracer.wrap_function(
        operators.candidate_key_pairs, "operators.candidates", "operators",
        count=lambda _a, result: counters.add(
            "operators.join_candidate_pairs", 0 if result is None else len(result[0])
        ),
    )


def layer_table(spans: list[Span]) -> tuple[dict, dict]:
    """``(self_seconds_by_layer, by_name)`` over a span list.

    ``by_name[name]`` holds ``calls``, ``self_s``, ``rows_in`` and
    ``rows_out`` totals.
    """
    children: dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            children[span.parent] = children.get(span.parent, 0.0) + span.seconds
    by_layer: dict[str, float] = {}
    by_name: dict[str, dict] = {}
    for span in spans:
        own = span.seconds - children.get(span.sid, 0.0)
        by_layer[span.layer] = by_layer.get(span.layer, 0.0) + own
        entry = by_name.setdefault(
            span.name, {"calls": 0, "self_s": 0.0, "rows_in": 0, "rows_out": 0}
        )
        entry["calls"] += 1
        entry["self_s"] += own
        entry["rows_in"] += span.rows_in or 0
        entry["rows_out"] += span.rows_out or 0
    return by_layer, by_name
