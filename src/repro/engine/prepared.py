"""A prepared plan: the engine-side handle on one planned query."""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, AsyncIterator, Iterator, Optional

from repro.datalog.program import DatalogProgram
from repro.engine.explain import Explanation, build_explanation
from repro.engine.result import Result, Termination
from repro.engine.strategy import (
    ExecuteOptions,
    StrategyLike,
    async_unsupported,
    resolve_strategy,
    streaming_unsupported,
)
from repro.exceptions import ReproError
from repro.plan.plan import QueryPlan
from repro.query.conjunctive import ConjunctiveQuery
from repro.query.minimize import canonical_form
from repro.runtime.kernel import StreamedAnswer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.engine import Engine


@dataclass
class PreparedPlan:
    """A query that has been parsed, validated and planned by an engine.

    The prepared plan can be executed any number of times, with any
    registered strategy; repeated executions within one engine session share
    the session's meta-caches, so a prepared plan re-executed with a
    plan-based strategy costs no further source accesses.
    """

    engine: "Engine"
    query: ConjunctiveQuery
    plan: QueryPlan
    # The three ``last_*`` attributes are written only by the runner's
    # shaper (:mod:`repro.engine.runner`), when a built-in strategy's run
    # produces an outcome.
    #: The cost-based optimizer's report of the most recent execution
    #: (None before any run, and after runs with the structural order).
    last_optimizer_report: Optional[object] = None
    #: The runtime kernel's per-phase profile of the most recent execution
    #: (None before any run; see :class:`repro.runtime.profile.KernelProfile`).
    last_kernel_profile: Optional[object] = None
    #: The normalized :class:`~repro.engine.result.Result` of the most recent
    #: *streaming* execution, shaped after the stream is exhausted (None
    #: before any stream, and when the consumer abandoned the stream before
    #: the kernel produced an outcome).  Servers streaming answers over a
    #: wire read it to append an honest completeness trailer.
    last_stream_result: Optional[Result] = None
    #: Lazily computed canonical key for the query-result cache tier.
    _result_key: Optional[str] = None

    # -- execution -----------------------------------------------------------
    def _options(self, options: Optional[ExecuteOptions], overrides: dict) -> ExecuteOptions:
        base = options if options is not None else self.engine.default_options
        return base.override(**overrides) if overrides else base

    def result_key(self) -> str:
        """The canonical-form key of this query in the result-cache tier.

        Alpha-equivalent queries (same core up to variable renaming and
        body reordering) share one key, so a repeat of a previously
        completed query is answered without executing the plan.
        """
        if self._result_key is None:
            self._result_key = canonical_form(self.query)
        return self._result_key

    def _cached_result(
        self, strategy_name: str, answers: frozenset, elapsed: float = 0.0
    ) -> Result:
        """Shape a result-tier hit as a regular, complete :class:`Result`.

        Zero accesses and an empty per-source breakdown: nothing executed.
        Only *complete* results are ever recorded in the tier, so serving
        them as ``COMPLETED`` preserves the honest-completeness contract.
        """
        return Result(
            strategy=strategy_name,
            answers=answers,
            termination=Termination.COMPLETED,
            total_accesses=0,
            per_source=(),
            elapsed_seconds=elapsed,
            simulated_latency=0.0,
            result_cache_hit=True,
        )

    def execute(
        self,
        strategy: StrategyLike = "fast_fail",
        options: Optional[ExecuteOptions] = None,
        **overrides: object,
    ) -> Result:
        """Execute the plan with the given strategy and return a :class:`Result`.

        Args:
            strategy: a registered strategy name (``naive``, ``fast_fail``,
                ``distillation``, ...) or an
                :class:`~repro.engine.strategy.ExecutionStrategy` instance.
            options: a full :class:`~repro.engine.strategy.ExecuteOptions`;
                defaults to the engine's options.
            **overrides: individual option fields to override, e.g.
                ``max_accesses=100``.
        """
        resolved = resolve_strategy(strategy)
        opts = self._options(options, overrides)
        if opts.concurrency == "async":
            # Sync entry over the async runtime: run the whole execution on
            # one private event loop (await aexecute() from async code).
            return asyncio.run(self.aexecute(strategy=resolved, options=opts))
        store = self.engine.session.store
        use_result_cache = store.result_cache and self.plan.answerable
        try:
            if use_result_cache:
                started = time.perf_counter()
                cached = store.lookup_result(self.result_key())
                if cached is not None:
                    return self._cached_result(
                        resolved.name, cached, time.perf_counter() - started
                    )
            result = resolved.run(self, opts)
            if use_result_cache and result.complete:
                # Only complete answers are cacheable: a budget-cut or
                # failure-degraded lower bound must never be served as the
                # answer to a later, healthy run.
                store.record_result(self.result_key(), result.answers)
            return result
        except ReproError as error:
            raise error.with_context(query=self.query, plan=self.plan)

    async def aexecute(
        self,
        strategy: StrategyLike = "fast_fail",
        options: Optional[ExecuteOptions] = None,
        **overrides: object,
    ) -> Result:
        """:meth:`execute` on the caller's event loop.

        With ``concurrency="async"`` the strategy's accesses run as asyncio
        tasks; ``"simulated"`` runs are stepped inline by the kernel's async
        driver, so every strategy/mode combination is awaitable.
        Shares the result-cache tier with the sync path.
        """
        resolved = resolve_strategy(strategy)
        opts = self._options(options, overrides)
        store = self.engine.session.store
        use_result_cache = store.result_cache and self.plan.answerable
        try:
            if not resolved.supports_async:
                raise async_unsupported(resolved.name)
            if use_result_cache:
                started = time.perf_counter()
                cached = store.lookup_result(self.result_key())
                if cached is not None:
                    return self._cached_result(
                        resolved.name, cached, time.perf_counter() - started
                    )
            result = await resolved.arun(self, opts)
            if use_result_cache and result.complete:
                store.record_result(self.result_key(), result.answers)
            return result
        except ReproError as error:
            raise error.with_context(query=self.query, plan=self.plan)

    def stream(
        self,
        strategy: StrategyLike = "distillation",
        options: Optional[ExecuteOptions] = None,
        **overrides: object,
    ) -> Iterator[StreamedAnswer]:
        """Yield answers incrementally from a streaming strategy.

        Defaults to the distillation scheduler, whose simulated parallel
        wrappers produce answers as soon as they are derivable (Section V).
        Strategy-resolution errors (unknown name, strategy without streaming
        support) are raised here, at the call site, not at first iteration.
        """
        try:
            resolved = resolve_strategy(strategy)
            if not resolved.supports_streaming:
                raise streaming_unsupported(resolved.name)
            opts = self._options(options, overrides)
        except ReproError as error:
            raise error.with_context(query=self.query, plan=self.plan)
        return self._stream(resolved, opts)

    def _stream(self, resolved, opts: ExecuteOptions) -> Iterator[StreamedAnswer]:
        try:
            yield from resolved.stream(self, opts)
        except ReproError as error:
            raise error.with_context(query=self.query, plan=self.plan)

    def astream(
        self,
        strategy: StrategyLike = "distillation",
        options: Optional[ExecuteOptions] = None,
        **overrides: object,
    ) -> AsyncIterator[StreamedAnswer]:
        """:meth:`stream` as an async generator on the caller's event loop.

        Resolution errors are raised here, at the call site, not at first
        ``anext``.
        """
        try:
            resolved = resolve_strategy(strategy)
            if not resolved.supports_streaming:
                raise streaming_unsupported(resolved.name)
            if not resolved.supports_async:
                raise async_unsupported(resolved.name)
            opts = self._options(options, overrides)
        except ReproError as error:
            raise error.with_context(query=self.query, plan=self.plan)
        return self._astream(resolved, opts)

    async def _astream(
        self, resolved, opts: ExecuteOptions
    ) -> AsyncIterator[StreamedAnswer]:
        try:
            async for answer in resolved.astream(self, opts):
                yield answer
        except ReproError as error:
            raise error.with_context(query=self.query, plan=self.plan)

    # -- inspection ----------------------------------------------------------
    def explain(self) -> Explanation:
        """Structured account of the planning pipeline for this query."""
        return build_explanation(self)

    def to_datalog(self) -> DatalogProgram:
        """The plan as the Datalog program of Section IV."""
        return self.plan.to_datalog()

    @property
    def answerable(self) -> bool:
        return self.plan.answerable

    def __str__(self) -> str:
        return f"PreparedPlan({self.query})"
