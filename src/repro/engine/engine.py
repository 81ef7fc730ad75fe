"""The :class:`Engine` façade: one public entry point for the whole pipeline.

The engine hides the seed's seven subpackages behind four calls::

    engine = Engine(schema, instance)
    prepared = engine.plan("q(N) <- r1(A, N, Y1), r2('volare', Y2, A)")
    result = prepared.execute(strategy="fast_fail")
    explanation = prepared.explain()

Behind the scenes it wires parsing → validation → minimization → constant
elimination → d-graph → greatest fixpoint → ordering → ⊂-minimal plan, and
executes plans through the pluggable strategy registry.  The engine also
owns a *session*: a shared access log and shared per-relation meta-caches,
so that no access is ever repeated across the queries of one session (the
paper's "never repeat an access" invariant, lifted from one plan to the
whole workload).
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import AsyncIterator, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.engine.explain import Explanation
from repro.engine.prepared import PreparedPlan
from repro.engine.result import Result
from repro.engine.strategy import ExecuteOptions, StrategyLike
from repro.exceptions import EngineError, ReproError
from repro.model.instance import DatabaseInstance
from repro.model.schema import Schema
from repro.optimizer.stats import StatisticsCollector
from repro.plan.minimal import MinimalPlanGenerator
from repro.query.conjunctive import ConjunctiveQuery
from repro.query.parser import parse_query
from repro.runtime.kernel import StreamedAnswer
from repro.runtime.profile import KernelProfile
from repro.sources.backend import BackendLike
from repro.sources.cache import CacheDatabase, MetaCache
from repro.sources.log import AccessLog
from repro.sources.store import CacheConfig, CacheStore, MemoryCacheStore, build_store
from repro.sources.wrapper import SourceRegistry

CacheLike = Union[None, str, CacheConfig, CacheStore]


class EngineSession:
    """Cross-query state shared by every execution of one engine.

    The session is safe to share between concurrently running queries: its
    own mutation is lock-protected, the shared meta-cache mapping is
    created under the same lock, and the meta-caches themselves serialize
    their claims internally (see
    :meth:`~repro.sources.cache.MetaCache.claim`), so two concurrent
    queries never perform the same access twice — the paper's "never
    repeat an access" invariant, lifted from one plan to the whole
    concurrent workload.

    Attributes:
        meta: the shared per-relation meta-caches.  Every execution created
            through :meth:`new_cache_db` reads and feeds these, so an access
            tuple already used by *any* earlier query of the session is
            answered locally instead of hitting the source again.
        log: cumulative access log over all executions of the session.
        executions: number of executions absorbed so far.
        statistics: per-relation runtime statistics mined from the absorbed
            logs — the cost-based optimizer's input.  They accumulate
            across queries, so later queries are planned with what earlier
            ones learned.
        store: the :class:`~repro.sources.store.CacheStore` backing the
            meta-caches' records and the query-result tier.  The default is
            an unbounded in-memory store (the historical behaviour); a
            persistent store makes the session warm-start from prior
            processes, and TTL/LRU knobs bound its growth.
        kernel_profile: cumulative per-phase kernel profile over every
            execution absorbed so far (see
            :class:`~repro.runtime.profile.KernelProfile`); surfaced as
            ``stats()["kernel"]``.
    """

    def __init__(self, store: Optional[CacheStore] = None) -> None:
        self._lock = threading.RLock()
        self.store: CacheStore = store if store is not None else MemoryCacheStore()
        self.meta: Dict[str, MetaCache] = {}
        self.log = AccessLog()
        self.executions = 0
        self.statistics = StatisticsCollector()
        self.kernel_profile = KernelProfile()
        if self.store.persistent:
            self.statistics.preload_store_hits(self.store.persisted_hit_counters())

    def new_cache_db(self) -> CacheDatabase:
        """A fresh cache database whose meta-caches are the session's."""
        with self._lock:
            return CacheDatabase(
                shared_meta=self.meta, meta_lock=self._lock, store=self.store
            )

    def absorb(
        self,
        log: AccessLog,
        registry: Optional[SourceRegistry] = None,
        retry_stats: Optional[object] = None,
        default_latency: float = 0.0,
        kernel_profile: Optional[KernelProfile] = None,
    ) -> None:
        """Fold one execution's access log into the session log.

        When a ``registry`` is given, the log is also folded into the
        session's per-relation statistics, priced with the wrappers'
        latencies (``default_latency`` for wrappers that declare none)
        and stretched by the run's ``retry_stats``.  A ``kernel_profile``
        is merged into the session's cumulative kernel profile.
        """
        with self._lock:
            self.log.extend(log)
            self.executions += 1
            if kernel_profile is not None:
                self.kernel_profile.merge(kernel_profile)
        self.statistics.observe_log(
            log,
            registry=registry,
            default_latency=default_latency,
            retry_stats=retry_stats,
        )
        with self._lock:
            self.statistics.sync_meta_hits(self.meta)

    @property
    def known_accesses(self) -> int:
        """Distinct accesses the session can answer without a source round-trip."""
        with self._lock:
            return sum(len(meta) for meta in self.meta.values())

    @property
    def meta_hits(self) -> int:
        """Accesses answered by the session meta-caches instead of a source."""
        with self._lock:
            return sum(meta.hits for meta in self.meta.values())

    def reset(self) -> None:
        """Forget everything the session learned — including the store.

        Clearing the store too keeps the session coherent: fresh meta-caches
        over retained records would silently warm-start.  For a persistent
        store this *erases the shared access domain on disk*; restart the
        engine instead to keep it.
        """
        with self._lock:
            self.meta.clear()
            self.log = AccessLog()
            self.executions = 0
            self.statistics.reset()
            self.kernel_profile = KernelProfile()
            self.store.clear()

    def stats(self) -> Dict[str, object]:
        with self._lock:
            accesses = self.log.total_accesses
            hits = sum(meta.hits for meta in self.meta.values())
            served = accesses + hits
            return {
                "executions": self.executions,
                "total_accesses": accesses,
                "known_accesses": sum(len(meta) for meta in self.meta.values()),
                "meta_hits": hits,
                "hit_rate": (hits / served) if served else 0.0,
                "relations": self.statistics.per_relation_summary(),
                "cache_store": self.store.stats(),
                "kernel": self.kernel_profile.to_dict(),
            }


@dataclass
class WorkloadReport:
    """Aggregate outcome of one multi-query workload run.

    Attributes:
        results: one :class:`~repro.engine.result.Result` per input query,
            in input order.
        wall_seconds: wall-clock duration of the whole run.
        qps: queries completed per wall-clock second.
        total_accesses: source accesses performed across all queries.
        meta_hits: accesses answered by the session meta-caches during the
            run (both offer-time hits and claims served by a concurrent
            query's access).
        hit_rate: ``meta_hits / (meta_hits + total_accesses)``.
        peak_in_flight: largest number of queries that were genuinely
            executing at the same moment.
        max_parallel: the concurrency bound the run was asked for.
        relation_stats: the session's per-relation statistics after the run
            (rows per access, fanout by binding arity, empty rate, average
            latency, meta hits) — the observables the cost-based optimizer
            plans with.
        cache_stats: cache-tier accounting of the run — store kind and
            persistence, binding-tier hit rate, result-tier hits and hit
            rate, evictions during the run, and entry gauges after it.
    """

    results: List[Result]
    wall_seconds: float
    qps: float
    total_accesses: int
    meta_hits: int
    hit_rate: float
    peak_in_flight: int
    max_parallel: int
    relation_stats: Dict[str, Dict[str, object]] = field(default_factory=dict)
    cache_stats: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "queries": len(self.results),
            "wall_seconds": round(self.wall_seconds, 6),
            "qps": round(self.qps, 3),
            "total_accesses": self.total_accesses,
            "meta_hits": self.meta_hits,
            "hit_rate": round(self.hit_rate, 4),
            "peak_in_flight": self.peak_in_flight,
            "max_parallel": self.max_parallel,
            "relations": self.relation_stats,
            "cache": self.cache_stats,
        }


class Engine:
    """The public query engine over a schema with access limitations.

    Args:
        schema: the database schema (with access patterns).  May be ``None``
            when ``source`` is given, in which case the source's schema is
            used.
        source: where accesses are answered from — either a
            :class:`~repro.model.instance.DatabaseInstance` (a registry of
            zero-latency wrappers is built over it) or a ready-made
            :class:`~repro.sources.wrapper.SourceRegistry` (e.g. with
            per-relation latencies).
        latency: default per-access simulated latency when building wrappers
            from a database instance.
        backend: how wrappers built from a database instance answer their
            accesses — a kind name (``memory``, ``sqlite``, ``callable``)
            or a ``RelationInstance -> SourceBackend`` factory (see
            :mod:`repro.sources.backend`).  Ignored when ``source`` is
            already a :class:`~repro.sources.wrapper.SourceRegistry`.
        minimize: run Chandra–Merlin minimization on queries before planning.
        join_first_heuristic: tie-break source orderings by join count.
        options: default :class:`~repro.engine.strategy.ExecuteOptions` for
            executions started from this engine.
        cache: the cache-store tier — ``None`` (default in-memory store,
            historical behaviour), a spec string (``"memory"`` or
            ``"sqlite:PATH"``), a :class:`~repro.sources.store.CacheConfig`
            (TTL, entry bounds, result cache), or a ready
            :class:`~repro.sources.store.CacheStore` instance.  A
            persistent store warm-starts the session from prior processes
            and is fingerprint-checked against this engine's sources.
    """

    def __init__(
        self,
        schema: Optional[Schema],
        source: Union[DatabaseInstance, SourceRegistry],
        *,
        latency: float = 0.0,
        backend: BackendLike = "memory",
        minimize: bool = True,
        join_first_heuristic: bool = True,
        options: Optional[ExecuteOptions] = None,
        cache: CacheLike = None,
    ) -> None:
        if isinstance(source, SourceRegistry):
            self.registry = source
        elif isinstance(source, DatabaseInstance):
            self.registry = SourceRegistry(source, latency=latency, backend=backend)
        else:
            raise EngineError(
                f"source must be a DatabaseInstance or a SourceRegistry, got {type(source).__name__}"
            )
        self.schema: Schema = schema if schema is not None else self.registry.schema
        if self.schema != self.registry.schema:
            raise EngineError("the engine's schema differs from the source registry's schema")
        self.default_options = options if options is not None else ExecuteOptions()
        self._generator = MinimalPlanGenerator(
            self.schema, minimize=minimize, join_first_heuristic=join_first_heuristic
        )
        self.cache_config, store = CacheConfig.coerce(cache)
        if store is None:
            store = build_store(self.cache_config)
        # A persistent store must have been built over these same sources:
        # serving rows recorded for a different schema would be silent
        # corruption, so the store is bound to a schema fingerprint.
        store.check_fingerprint(self.registry.fingerprint())
        self.session = EngineSession(store=store)

    # -- construction shorthands ---------------------------------------------
    @classmethod
    def over(cls, instance: DatabaseInstance, **kwargs: object) -> "Engine":
        """Build an engine straight over a database instance."""
        return cls(instance.schema, instance, **kwargs)  # type: ignore[arg-type]

    # -- parsing and planning ------------------------------------------------
    def parse(self, text: str) -> ConjunctiveQuery:
        """Parse a textual conjunctive query (``q(X) <- r(X, Y), s(Y)``)."""
        try:
            return parse_query(text)
        except ReproError as error:
            raise error.with_context(query=text)

    def _coerce(self, query: Union[str, ConjunctiveQuery]) -> ConjunctiveQuery:
        if isinstance(query, ConjunctiveQuery):
            return query
        if isinstance(query, str):
            return self.parse(query)
        raise EngineError(f"cannot interpret {type(query).__name__} as a query", query=query)

    def plan(self, query: Union[str, ConjunctiveQuery]) -> PreparedPlan:
        """Parse (if needed), validate and plan a query.

        Raises:
            ParseError: the text could not be parsed.
            QueryError: the query is inconsistent with the schema.
            UnanswerableQueryError: the query mentions a non-queryable
                relation (Section II); no plan produces its certain answers.
            Each carries the offending query as ``error.query``.
        """
        parsed = self._coerce(query)
        try:
            plan = self._generator.generate(parsed)
        except ReproError as error:
            raise error.with_context(query=parsed)
        return PreparedPlan(engine=self, query=parsed, plan=plan)

    # -- one-call conveniences -----------------------------------------------
    def execute(
        self,
        query: Union[str, ConjunctiveQuery],
        strategy: StrategyLike = "fast_fail",
        options: Optional[ExecuteOptions] = None,
        **overrides: object,
    ) -> Result:
        """Plan and execute in one call: ``engine.execute(q, strategy="naive")``."""
        return self.plan(query).execute(strategy=strategy, options=options, **overrides)

    def stream(
        self,
        query: Union[str, ConjunctiveQuery],
        strategy: StrategyLike = "distillation",
        options: Optional[ExecuteOptions] = None,
        **overrides: object,
    ) -> Iterator[StreamedAnswer]:
        """Plan and stream incremental answers in one call."""
        return self.plan(query).stream(strategy=strategy, options=options, **overrides)

    async def aexecute(
        self,
        query: Union[str, ConjunctiveQuery],
        strategy: StrategyLike = "fast_fail",
        options: Optional[ExecuteOptions] = None,
        **overrides: object,
    ) -> Result:
        """Plan and execute on the caller's event loop.

        Pass ``concurrency="async"`` (per call or in the engine's default
        options) to overlap the query's source accesses as asyncio tasks;
        other modes are stepped inline by the kernel's async driver.
        """
        return await self.plan(query).aexecute(
            strategy=strategy, options=options, **overrides
        )

    def astream(
        self,
        query: Union[str, ConjunctiveQuery],
        strategy: StrategyLike = "distillation",
        options: Optional[ExecuteOptions] = None,
        **overrides: object,
    ) -> AsyncIterator[StreamedAnswer]:
        """Plan and stream incremental answers as an async generator."""
        return self.plan(query).astream(strategy=strategy, options=options, **overrides)

    def explain(self, query: Union[str, ConjunctiveQuery]) -> Explanation:
        """Plan and explain in one call."""
        return self.plan(query).explain()

    # -- concurrent workloads --------------------------------------------------
    def execute_many(
        self,
        queries: Sequence[Union[str, ConjunctiveQuery]],
        strategy: StrategyLike = "fast_fail",
        max_parallel: int = 4,
        options: Optional[ExecuteOptions] = None,
        **overrides: object,
    ) -> List[Result]:
        """Execute independent queries concurrently over the shared session.

        The queries run on a thread pool of ``max_parallel`` workers; all
        of them read and feed the session's meta-caches, so an access
        needed by several queries is performed exactly once — a query that
        would repeat an in-flight access waits for it and reads the rows
        for free.  Answers and the session's total access count are
        therefore deterministic regardless of thread interleaving.

        Returns one result per query, in input order.
        """
        return self.run_workload(
            queries,
            strategy=strategy,
            max_parallel=max_parallel,
            options=options,
            **overrides,
        ).results

    def run_workload(
        self,
        queries: Sequence[Union[str, ConjunctiveQuery]],
        strategy: StrategyLike = "fast_fail",
        max_parallel: int = 4,
        options: Optional[ExecuteOptions] = None,
        **overrides: object,
    ) -> WorkloadReport:
        """Like :meth:`execute_many`, with throughput accounting.

        Besides the per-query results, reports wall time, queries per
        second, the session meta-cache hit rate over the run, and the peak
        number of queries that were executing simultaneously.
        """
        effective = options if options is not None else self.default_options
        if overrides.get("concurrency", effective.concurrency) == "async":
            # The whole workload on one private event loop: queries overlap
            # as coroutines instead of threads (await arun_workload() to
            # run it on an existing loop).
            return asyncio.run(
                self.arun_workload(
                    queries,
                    strategy=strategy,
                    max_parallel=max_parallel,
                    options=options,
                    **overrides,
                )
            )
        prepared = [self.plan(query) for query in queries]
        gauge_lock = threading.Lock()
        in_flight = 0
        peak = 0

        def run_one(plan: PreparedPlan) -> Result:
            nonlocal in_flight, peak
            with gauge_lock:
                in_flight += 1
                peak = max(peak, in_flight)
            try:
                return plan.execute(strategy=strategy, options=options, **overrides)
            finally:
                with gauge_lock:
                    in_flight -= 1

        before = self._workload_before()
        started = time.perf_counter()
        if max_parallel <= 1 or len(prepared) <= 1:
            results = [run_one(plan) for plan in prepared]
        else:
            with ThreadPoolExecutor(max_workers=max_parallel) as pool:
                results = list(pool.map(run_one, prepared))
        wall = time.perf_counter() - started
        return self._workload_report(results, wall, before, peak, max_parallel)

    async def aexecute_many(
        self,
        queries: Sequence[Union[str, ConjunctiveQuery]],
        strategy: StrategyLike = "fast_fail",
        max_parallel: int = 4,
        options: Optional[ExecuteOptions] = None,
        **overrides: object,
    ) -> List[Result]:
        """:meth:`execute_many` on the caller's event loop.

        The queries overlap as coroutines under an ``asyncio.Semaphore``
        of ``max_parallel`` — all on one loop, all sharing the session's
        meta-caches, so the never-repeat-an-access invariant holds across
        the raced queries exactly as in the threaded path.
        """
        report = await self.arun_workload(
            queries,
            strategy=strategy,
            max_parallel=max_parallel,
            options=options,
            **overrides,
        )
        return report.results

    async def arun_workload(
        self,
        queries: Sequence[Union[str, ConjunctiveQuery]],
        strategy: StrategyLike = "fast_fail",
        max_parallel: int = 4,
        options: Optional[ExecuteOptions] = None,
        **overrides: object,
    ) -> WorkloadReport:
        """:meth:`run_workload` on the caller's event loop (see
        :meth:`aexecute_many` for the concurrency model)."""
        prepared = [self.plan(query) for query in queries]
        semaphore = asyncio.Semaphore(max(1, max_parallel))
        in_flight = 0
        peak = 0

        async def run_one(plan: PreparedPlan) -> Result:
            nonlocal in_flight, peak
            async with semaphore:
                in_flight += 1
                peak = max(peak, in_flight)
                try:
                    return await plan.aexecute(
                        strategy=strategy, options=options, **overrides
                    )
                finally:
                    in_flight -= 1

        before = self._workload_before()
        started = time.perf_counter()
        results = list(await asyncio.gather(*(run_one(plan) for plan in prepared)))
        wall = time.perf_counter() - started
        return self._workload_report(results, wall, before, peak, max_parallel)

    def _workload_before(self) -> Tuple[int, int, Dict[str, object]]:
        return (
            self.session.log.total_accesses,
            self.session.meta_hits,
            self.session.store.stats(),
        )

    def _workload_report(
        self,
        results: List[Result],
        wall: float,
        before: Tuple[int, int, Dict[str, object]],
        peak: int,
        max_parallel: int,
    ) -> WorkloadReport:
        accesses_before, hits_before, store_before = before
        store = self.session.store
        accesses = self.session.log.total_accesses - accesses_before
        hits = self.session.meta_hits - hits_before
        served = accesses + hits
        store_after = store.stats()
        result_hits = sum(1 for result in results if result.result_cache_hit)
        cache_stats: Dict[str, object] = {
            "store": store_after["kind"],
            "persistent": store_after["persistent"],
            "binding_hits": hits,
            "binding_hit_rate": round((hits / served) if served else 0.0, 4),
            "binding_entries": store_after["binding_entries"],
            "evictions": int(store_after["evictions"]) - int(store_before["evictions"]),
            "result_cache": store.result_cache,
            "result_hits": result_hits,
            "result_hit_rate": round(result_hits / len(results), 4) if results else 0.0,
            "result_entries": store_after["result_entries"],
        }
        return WorkloadReport(
            results=results,
            wall_seconds=wall,
            qps=(len(results) / wall) if wall > 0 else float("inf"),
            total_accesses=accesses,
            meta_hits=hits,
            hit_rate=(hits / served) if served else 0.0,
            peak_in_flight=peak,
            max_parallel=max_parallel,
            relation_stats=self.session.statistics.per_relation_summary(),
            cache_stats=cache_stats,
        )

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        """Close every source backend and the cache store.

        Idempotent, and safe after a backend error mid-query: double close
        and close-after-failure are no-ops, so ``with Engine(...)`` tears
        down cleanly no matter how the last execution ended.
        """
        if getattr(self, "_closed", False):
            return
        self._closed = True
        self.registry.close()
        self.session.store.close()

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        # Backends are torn down on every exit path, including errors.
        self.close()

    # -- session management --------------------------------------------------
    def reset_session(self) -> None:
        """Forget all shared meta-caches and the cumulative access log."""
        self.session.reset()

    def session_stats(self) -> Dict[str, object]:
        """Counters of the current session (executions, accesses, meta hits)."""
        return self.session.stats()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Engine({len(self.schema)} relations, "
            f"{self.session.executions} executions this session)"
        )
