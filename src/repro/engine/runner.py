"""The built-in strategies: naive, fast-failing, distillation — one runner.

The paper's three evaluation methods compute one least fixpoint under
access limitations and differ only in *what* is dispatched *when*.  Here
that difference is data: each built-in strategy is a
:class:`KernelStrategy` record naming a scheduling-policy factory
(:mod:`repro.runtime.policy`) and its capabilities, and one runner drives
every record on the shared :class:`~repro.runtime.kernel.FixpointKernel`:

* it builds the run's access log, the optional cost-based optimizer, the
  policy and the kernel;
* it drives the kernel sync or async, streaming or not (a sync stream over
  ``concurrency="async"`` is bridged onto a private event loop);
* it absorbs the run's log into the engine session in a ``finally``, so the
  session stays consistent with whatever really hit the sources, even when
  the run aborts or the consumer abandons a stream;
* it shapes the kernel's :class:`~repro.runtime.kernel.KernelOutcome` into
  the shared :class:`~repro.engine.result.Result` with one shaper.

The plan-based strategies share the session's meta-caches, so a session
never repeats an access across queries; the naive baseline deliberately
does not (it reproduces the paper's Figure 1 exactly).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from time import perf_counter
from typing import (
    TYPE_CHECKING,
    AsyncIterator,
    Callable,
    Iterator,
    List,
    Optional,
    Tuple,
)

from repro.engine.result import Result, SourceBreakdown, Termination
from repro.engine.strategy import ExecuteOptions, ExecutionStrategy, register_strategy
from repro.exceptions import ExecutionError, StrategyError
from repro.optimizer import AccessOptimizer
from repro.runtime.kernel import FixpointKernel, KernelOutcome, StreamedAnswer
from repro.runtime.policy import (
    EagerAllRelations,
    OrderedFastFail,
    SchedulingPolicy,
    SimulatedParallel,
)
from repro.sources.cache import CacheDatabase
from repro.sources.log import AccessLog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.prepared import PreparedPlan
    from repro.sources.wrapper import SourceRegistry

#: Builds the scheduling policy of one run.
PolicyFactory = Callable[
    ["PreparedPlan", ExecuteOptions, Optional[AccessOptimizer]], SchedulingPolicy
]


@dataclass
class _Run:
    """The wiring of one execution."""

    prepared: "PreparedPlan"
    options: ExecuteOptions
    log: AccessLog
    optimizer: Optional[AccessOptimizer]
    kernel: FixpointKernel
    started: float


class KernelStrategy(ExecutionStrategy):
    """A strategy that is one scheduling policy run on the fixpoint kernel.

    Attributes:
        name: the registry key.
        make_policy: builds the run's scheduling policy from the prepared
            plan, the options and the optional cost-based optimizer.
        supports_streaming: the strategy yields answers incrementally; its
            kernel then checks for new answers every
            ``options.answer_check_interval`` completed accesses (the other
            strategies evaluate the query once, at the end).
        parallel_clock: the run's clock is the makespan of parallel
            wrappers, as in Section V: ``Result.simulated_latency`` is the
            kernel's total time, ``time_to_first_answer`` is reported, and
            wrappers that declare no latency are charged
            ``options.default_latency`` in ``per_source`` and in the session
            statistics.  Otherwise accesses run back to back,
            ``simulated_latency`` is the sum of the per-source latencies,
            and undeclared latencies cost nothing.
    """

    supports_async = True

    def __init__(
        self,
        name: str,
        make_policy: PolicyFactory,
        *,
        supports_streaming: bool = False,
        parallel_clock: bool = False,
    ) -> None:
        self.name = name
        self.make_policy = make_policy
        self.supports_streaming = supports_streaming
        self.parallel_clock = parallel_clock

    # -- the four entry points ------------------------------------------------
    def run(self, prepared: "PreparedPlan", options: ExecuteOptions) -> Result:
        run = self._start(prepared, options)
        try:
            for _ in self._sync_answers(run):
                pass
        finally:
            result = self._finish(run, streamed=False)
        return result

    async def arun(self, prepared: "PreparedPlan", options: ExecuteOptions) -> Result:
        run = self._start(prepared, options)
        try:
            await run.kernel.arun()
        finally:
            result = self._finish(run, streamed=False)
        return result

    def stream(
        self, prepared: "PreparedPlan", options: ExecuteOptions
    ) -> Iterator[StreamedAnswer]:
        run = self._start(prepared, options)
        prepared.last_stream_result = None
        try:
            yield from self._sync_answers(run)
        finally:
            self._finish(run, streamed=True)

    async def astream(
        self, prepared: "PreparedPlan", options: ExecuteOptions
    ) -> AsyncIterator[StreamedAnswer]:
        run = self._start(prepared, options)
        prepared.last_stream_result = None
        try:
            async for answer in run.kernel.astream():
                yield answer
        finally:
            self._finish(run, streamed=True)

    # -- the runner -----------------------------------------------------------
    def _start(self, prepared: "PreparedPlan", options: ExecuteOptions) -> _Run:
        engine = prepared.engine
        optimizer = _optimizer_for(prepared, options)
        log = AccessLog()
        started = perf_counter()
        kernel = FixpointKernel(
            self.make_policy(prepared, options, optimizer),
            engine.registry,
            log,
            max_accesses=options.max_accesses,
            answer_check_interval=(
                max(1, options.answer_check_interval) if self.supports_streaming else None
            ),
            resilience=options.resilience(),
        )
        return _Run(prepared, options, log, optimizer, kernel, started)

    def _sync_answers(self, run: _Run) -> Iterator[StreamedAnswer]:
        if run.options.concurrency == "async":
            return _bridge(run.kernel.astream())
        return run.kernel.stream()

    def _charged_latency(self, options: ExecuteOptions) -> float:
        return options.default_latency if self.parallel_clock else 0.0

    def _finish(self, run: _Run, streamed: bool) -> Optional[Result]:
        """Absorb the run's log into the session; shape the outcome, if any.

        The kernel leaves no outcome when the run raised (e.g. a sequential
        strategy over its access budget) or the consumer abandoned the
        stream: the accesses made so far are still absorbed.
        """
        outcome = run.kernel.last_outcome
        engine = run.prepared.engine
        engine.session.absorb(
            run.log,
            registry=engine.registry,
            retry_stats=outcome.retry_stats if outcome is not None else None,
            default_latency=self._charged_latency(run.options),
            kernel_profile=outcome.profile if outcome is not None else None,
        )
        if outcome is None:
            return None
        return self._shape(run, outcome, streamed)

    def _shape(self, run: _Run, outcome: KernelOutcome, streamed: bool) -> Result:
        """The one shaper: a kernel outcome as the shared :class:`Result`.

        Also the only writer of the prepared plan's ``last_*`` attributes.
        """
        prepared, log = run.prepared, run.log
        per_source, latency_sum = _breakdown(
            log, prepared.engine.registry, self._charged_latency(run.options)
        )
        report = run.optimizer.report(log) if run.optimizer is not None else None
        result = Result(
            strategy=self.name,
            answers=outcome.answers,
            termination=_termination(outcome),
            total_accesses=log.total_accesses,
            per_source=per_source,
            elapsed_seconds=perf_counter() - run.started,
            simulated_latency=outcome.total_time if self.parallel_clock else latency_sum,
            time_to_first_answer=outcome.first_answer_time if self.parallel_clock else None,
            failed_at_position=outcome.failed_at_position,
            failed_relations=outcome.failed_relations,
            retry_stats=outcome.retry_stats,
            access_log=log,
            raw=outcome,
            optimizer_report=report,
            kernel_profile=outcome.profile,
        )
        prepared.last_optimizer_report = report
        prepared.last_kernel_profile = outcome.profile
        if streamed:
            prepared.last_stream_result = result
        return result


# ------------------------------------------------------------------------------
def _bridge(answers: AsyncIterator[StreamedAnswer]) -> Iterator[StreamedAnswer]:
    """Drive an async answer stream from sync code on a private event loop."""
    try:
        asyncio.get_running_loop()
    except RuntimeError:
        pass
    else:
        raise ExecutionError(
            "stream()/execute() cannot run inside a running event loop "
            "with concurrency='async'; await astream()/aexecute() instead"
        )
    loop = asyncio.new_event_loop()
    try:
        while True:
            try:
                answer = loop.run_until_complete(answers.__anext__())
            except StopAsyncIteration:
                break
            yield answer
    finally:
        try:
            # An abandoned stream still cancels its in-flight accesses.
            loop.run_until_complete(answers.aclose())
            loop.run_until_complete(loop.shutdown_asyncgens())
        finally:
            loop.close()


def _optimizer_for(
    prepared: "PreparedPlan", options: ExecuteOptions
) -> Optional[AccessOptimizer]:
    """Build the cost-based optimizer selected by ``options.optimizer``.

    ``"structural"`` returns None — the strategies then follow the paper's
    d-graph order exactly, byte-identical to the pre-optimizer engine.
    """
    if options.optimizer == "structural":
        return None
    if options.optimizer != "cost":
        raise StrategyError(
            f"unknown optimizer {options.optimizer!r}; use 'structural' or 'cost'",
            plan=prepared.plan,
        )
    engine = prepared.engine
    return AccessOptimizer(
        prepared.plan,
        statistics=engine.session.statistics,
        registry=engine.registry,
        default_latency=options.default_latency,
    )


def _termination(outcome: KernelOutcome) -> Termination:
    """Why the run stopped.

    A source failure outranks everything: whatever else the run concluded
    (fast-fail, budget, completion), a permanently failed access means the
    answers may be a lower bound and the result must say so.
    """
    if outcome.failed_relations:
        return Termination.SOURCE_FAILURE
    if outcome.budget_exhausted:
        return Termination.BUDGET_EXHAUSTED
    if outcome.failed_at_position is not None:
        return Termination.FAST_FAILED
    return Termination.COMPLETED


def _breakdown(
    log: AccessLog, registry: "SourceRegistry", default_latency: float
) -> Tuple[Tuple[SourceBreakdown, ...], float]:
    """Per-relation breakdown of a log, plus the back-to-back latency sum.

    ``default_latency`` is charged for wrappers that declare none — the same
    substitution the run's dispatcher applied.
    """
    entries: List[SourceBreakdown] = []
    total_latency = 0.0
    # The log's per-relation summary iterates in first-access order, which
    # under concurrent dispatch varies run to run; the breakdown is sorted
    # so identical executions always serialize to identical payloads.
    for relation, (accesses, rows) in sorted(log.per_relation_summary().items()):
        simulated = accesses * registry.latency_of(relation, default_latency)
        total_latency += simulated
        entries.append(
            SourceBreakdown(
                relation=relation,
                accesses=accesses,
                distinct_rows=rows,
                simulated_latency=simulated,
            )
        )
    return tuple(entries), total_latency


def _session_cache_db(prepared: "PreparedPlan", options: ExecuteOptions) -> CacheDatabase:
    if options.share_session_cache:
        return prepared.engine.session.new_cache_db()
    return CacheDatabase()


# -- the built-in strategies ----------------------------------------------------
def _naive_policy(prepared, options, optimizer) -> SchedulingPolicy:
    return EagerAllRelations(
        prepared.engine.schema,
        prepared.query,
        optimizer=optimizer,
        concurrency=options.concurrency,
        max_in_flight=options.max_in_flight,
    )


def _fast_fail_policy(prepared, options, optimizer) -> SchedulingPolicy:
    return OrderedFastFail(
        prepared.plan,
        _session_cache_db(prepared, options),
        fast_fail=options.fast_fail,
        use_meta_cache=options.use_meta_cache,
        optimizer=optimizer,
        concurrency=options.concurrency,
        max_in_flight=options.max_in_flight,
    )


def _distillation_policy(prepared, options, optimizer) -> SchedulingPolicy:
    return SimulatedParallel(
        prepared.plan,
        _session_cache_db(prepared, options),
        default_latency=options.default_latency,
        queue_capacity=options.queue_capacity,
        respect_ordering=options.respect_ordering,
        optimizer=optimizer,
        concurrency=options.concurrency,
        max_in_flight=options.max_in_flight,
    )


# The all-relations extraction baseline of Figure 1.
register_strategy(KernelStrategy("naive", _naive_policy))
# The fast-failing, ⊂-minimal execution of Section IV.
register_strategy(KernelStrategy("fast_fail", _fast_fail_policy))
# The parallel, incremental-answer scheduler of Section V.
register_strategy(
    KernelStrategy(
        "distillation",
        _distillation_policy,
        supports_streaming=True,
        parallel_clock=True,
    )
)
