"""Timing shims for the traced run, installed from outside the program.

:func:`install` wraps the public entry points of each layer — parsing,
minimization, the graph analyses, ``Engine.plan``, ``PreparedPlan``
execution and streaming, ``Result.to_dict``, admission and the response
serializer — with spans recorded by one :class:`Tracer`.  Source lookups are
timed by :class:`TimedBackend`, handed to the engine as its ``backend=``
factory, and cache-store traffic by :func:`timed_store`, which wraps a store
instance before it is given to ``Engine(cache=...)``.  Nothing under ``src/``
is modified.

Spans (name, start, end, parent) are kept in memory; :meth:`Tracer.summary`
derives per-layer totals and self times (span minus the part of it its
children cover) when the run ends, and :meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import contextvars
import functools
import json
import threading
from time import perf_counter
from typing import Callable, Dict, List, Optional

_current: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar(
    "perfbench_span", default=None
)


class Tracer:
    """In-memory spans and counters of one traced engine host."""

    def __init__(self) -> None:
        self.spans: List[list] = []  # [name, start, end, parent]
        self.counts: Dict[str, float] = {}
        self.planned: List[object] = []  # queries handed to Engine.plan
        self.kernel: Dict[str, float] = {}
        self._lock = threading.Lock()

    def reset(self, keep: tuple = ("sources.store_open_s", "sources.store_opens")) -> None:
        """Forget everything recorded so far (warm-up), except ``keep`` counts."""
        with self._lock:
            self.spans = []
            self.counts = {name: self.counts[name] for name in keep if name in self.counts}
            self.planned = []
            self.kernel = {}

    def open(self, name: str) -> tuple:
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, perf_counter(), None, _current.get()])
        return index, _current.set(index)

    def close(self, token: tuple) -> None:
        index, reset = token
        self.spans[index][2] = perf_counter()
        _current.reset(reset)

    def add(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0.0) + amount

    def peak(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] = max(self.counts.get(name, 0.0), value)

    def absorb_profile(self, profile) -> None:
        """Fold one run's public ``KernelProfile`` into the totals."""
        if profile is None:
            return
        with self._lock:
            for field in (
                "offer_seconds",
                "dispatch_seconds",
                "absorb_seconds",
                "answer_check_seconds",
                "offer_passes",
                "dispatch_steps",
                "completion_batches",
                "incremental_checks",
                "full_checks",
            ):
                self.kernel[field] = self.kernel.get(field, 0.0) + getattr(profile, field)

    def wrap(self, name: str, function: Callable) -> Callable:
        @functools.wraps(function)
        def traced(*args, **kwargs):
            token = self.open(name)
            try:
                return function(*args, **kwargs)
            finally:
                self.close(token)

        return traced

    # -- results -----------------------------------------------------------
    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: total seconds, self seconds and span count."""
        children: Dict[int, List[int]] = {}
        for index, span in enumerate(self.spans):
            if span[3] is not None:
                children.setdefault(span[3], []).append(index)
        totals: Dict[str, Dict[str, float]] = {}
        for index, (name, start, end, _) in enumerate(self.spans):
            if end is None:
                continue
            covered = 0.0
            cursor = start
            for child in sorted(
                (self.spans[c] for c in children.get(index, ()) if self.spans[c][2] is not None),
                key=lambda span: span[1],
            ):
                lo, hi = max(child[1], cursor), min(child[2], end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            entry = totals.setdefault(name, {"total": 0.0, "self": 0.0, "count": 0})
            entry["total"] += end - start
            entry["self"] += (end - start) - covered
            entry["count"] += 1
        return totals

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counts": self.counts}, handle)


def install(tracer: Tracer) -> None:
    """Wrap every layer's public entry points with ``tracer``'s spans."""
    import repro.engine.engine as engine_module
    import repro.plan.minimal as minimal
    import repro.serve.protocol as protocol
    from repro.engine.prepared import PreparedPlan
    from repro.engine.result import Result
    from repro.serve.admission import AdmissionController

    engine_module.parse_query = tracer.wrap("query.parse", engine_module.parse_query)
    minimal.minimize_query = tracer.wrap("query.minimize", minimal.minimize_query)
    minimal.analyze_queryability = tracer.wrap(
        "graph.queryability", minimal.analyze_queryability
    )
    minimal.analyze_relevance = tracer.wrap("graph.relevance", minimal.analyze_relevance)
    minimal.compute_ordering = tracer.wrap("graph.ordering", minimal.compute_ordering)
    protocol.dump_json = tracer.wrap("serve.json", protocol.dump_json)
    AdmissionController.admit = tracer.wrap("serve.admit", AdmissionController.admit)
    Result.to_dict = tracer.wrap("engine.to_dict", Result.to_dict)

    plan = engine_module.Engine.plan

    @functools.wraps(plan)
    def traced_plan(self, query):
        tracer.planned.append(query)
        token = tracer.open("plan.prepare")
        try:
            return plan(self, query)
        finally:
            tracer.close(token)

    engine_module.Engine.plan = traced_plan

    execute = PreparedPlan.execute

    @functools.wraps(execute)
    def traced_execute(self, *args, **kwargs):
        token = tracer.open("engine.execute")
        try:
            result = execute(self, *args, **kwargs)
        finally:
            tracer.close(token)
        tracer.absorb_profile(result.kernel_profile)
        return result

    PreparedPlan.execute = traced_execute

    aexecute = PreparedPlan.aexecute

    @functools.wraps(aexecute)
    async def traced_aexecute(self, *args, **kwargs):
        token = tracer.open("engine.execute")
        try:
            result = await aexecute(self, *args, **kwargs)
        finally:
            tracer.close(token)
        tracer.absorb_profile(result.kernel_profile)
        return result

    PreparedPlan.aexecute = traced_aexecute

    stream = PreparedPlan.stream

    @functools.wraps(stream)
    def traced_stream(self, *args, **kwargs):
        inner = stream(self, *args, **kwargs)

        def iterate():
            # Only time spent inside the engine's iterator counts; the
            # consumer's work between answers does not.
            busy = 0.0
            try:
                while True:
                    started = perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        busy += perf_counter() - started
                    yield item
            finally:
                inner.close()
                tracer.add("engine.stream_s", busy)
                if self.last_stream_result is not None:
                    tracer.absorb_profile(self.last_stream_result.kernel_profile)

        return iterate()

    PreparedPlan.stream = traced_stream

    astream = PreparedPlan.astream

    @functools.wraps(astream)
    def traced_astream(self, *args, **kwargs):
        inner = astream(self, *args, **kwargs)

        async def iterate():
            busy = 0.0
            try:
                while True:
                    started = perf_counter()
                    try:
                        item = await inner.__anext__()
                    except StopAsyncIteration:
                        return
                    finally:
                        busy += perf_counter() - started
                    yield item
            finally:
                await inner.aclose()
                tracer.add("engine.stream_s", busy)
                if self.last_stream_result is not None:
                    tracer.absorb_profile(self.last_stream_result.kernel_profile)

        return iterate()

    PreparedPlan.astream = traced_astream


def timed_backend_factory(tracer: Tracer, kind: str = "memory") -> Callable:
    """A ``backend=`` factory timing every lookup of the backend ``kind`` builds."""
    from repro.sources.backend import SourceBackend, build_backend

    class TimedBackend(SourceBackend):
        """Times a sync backend's lookups and tracks lookups in flight."""

        def __init__(self, inner: SourceBackend) -> None:
            self.inner = inner
            self.schema = inner.schema
            self.kind = inner.kind
            self._lock = threading.Lock()
            self._in_flight = 0

        def _enter(self) -> float:
            with self._lock:
                self._in_flight += 1
                tracer.peak("sources.in_flight_peak", self._in_flight)
            return perf_counter()

        def _leave(self, started: float, lookups: int) -> None:
            elapsed = perf_counter() - started
            with self._lock:
                self._in_flight -= 1
            tracer.add("sources.lookups", lookups)
            tracer.add("sources.lookup_s", elapsed)

        def lookup(self, binding):
            started = self._enter()
            try:
                return self.inner.lookup(binding)
            finally:
                self._leave(started, 1)

        def lookup_many(self, bindings):
            started = self._enter()
            try:
                return self.inner.lookup_many(bindings)
            finally:
                self._leave(started, len(bindings))

        def close(self) -> None:
            self.inner.close()

    class TimedAsyncBackend(TimedBackend):
        """The same, keeping the inner backend's native coroutine reads."""

        async def alookup(self, binding):
            started = self._enter()
            try:
                return await self.inner.alookup(binding)
            finally:
                self._leave(started, 1)

        async def alookup_many(self, bindings):
            started = self._enter()
            try:
                return await self.inner.alookup_many(bindings)
            finally:
                self._leave(started, len(bindings))

    def factory(instance):
        inner = build_backend(instance, kind)
        if hasattr(inner, "alookup"):
            return TimedAsyncBackend(inner)
        return TimedBackend(inner)

    return factory


def timed_store(tracer: Tracer, store):
    """Wrap ``store`` so every binding-tier read and write is timed."""
    records = store.records

    class TimedRecords:
        def __init__(self, inner) -> None:
            self.inner = inner

        def _timed(self, kind: str, method: Callable, *args):
            started = perf_counter()
            try:
                return method(*args)
            finally:
                tracer.add(f"sources.store_{kind}s", 1)
                tracer.add(f"sources.store_{kind}_s", perf_counter() - started)

        def get(self, binding, touch=True):
            return self._timed("read", self.inner.get, binding, touch)

        def contains(self, binding):
            return self._timed("read", self.inner.contains, binding)

        def claim(self, binding):
            return self._timed("read", self.inner.claim, binding)

        def put(self, binding, rows):
            return self._timed("write", self.inner.put, binding, rows)

        def release(self, binding):
            return self._timed("write", self.inner.release, binding)

        def bindings(self):
            return self.inner.bindings()

        def __len__(self) -> int:
            return len(self.inner)

    store.records = lambda relation: TimedRecords(records(relation))
    return store
