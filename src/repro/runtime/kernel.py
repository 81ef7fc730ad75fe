"""The fixpoint runtime kernel shared by every execution strategy.

All three evaluation methods of the paper compute the least fixpoint of the
same process: *offer* every access tuple newly enabled by the values in the
caches, *dispatch* the offered accesses to the sources, *absorb* the
retrieved rows back into the caches (enabling further accesses), and stop
when nothing new can be offered.  :class:`FixpointKernel` is that loop,
written once.  Two collaborators parameterize it:

* a :class:`~repro.runtime.policy.SchedulingPolicy` decides *what* is
  offered (which relations/caches, in which phase, gated how) and how rows
  are absorbed;
* a :class:`~repro.runtime.dispatch.Dispatcher` decides *when* accesses run
  and on which clock (back-to-back simulated, discrete-event simulated
  parallel, or asyncio tasks on the wall clock).

The kernel itself owns the pieces every mode shares: the offer-pass
fixpoint iteration, access-budget accounting (:class:`AccessBudget`), the
monotone completion clock (an execution can never absorb a completion
timestamped before one it already absorbed), and incremental answer
tracking/streaming (:class:`AnswerTracker`, Section V's result
pagination).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from time import perf_counter

from repro.exceptions import ExecutionError
from repro.runtime.profile import KernelProfile
from repro.sources.resilience import ResilienceConfig, ResilienceContext, RetryStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.policy import SchedulingPolicy
    from repro.sources.log import AccessLog
    from repro.sources.wrapper import SourceRegistry

Row = Tuple[object, ...]


@dataclass(frozen=True, slots=True)
class AccessRequest:
    """One unit of dispatchable work: access ``relation`` with ``binding``.

    ``target`` names the structure the rows are destined for — a cache
    predicate for the plan-driven policies, the relation itself for the
    naive policy.  The kernel treats it as opaque; only the policy's
    ``absorb`` interprets it.
    """

    target: str
    relation: str
    binding: Tuple[object, ...]


@dataclass(frozen=True, slots=True)
class Completion:
    """One finished access, stamped with the dispatcher's authoritative clock.

    ``counted`` is False when the rows were served without touching the
    source (the session meta-cache answered the binding, possibly after
    waiting out another session's in-flight access): such completions still
    feed the caches but are not logged, charged to the budget, or timed.

    ``failed`` marks an access that permanently failed (retries exhausted,
    source down, or breaker open): its rows are empty, it is never counted,
    its budget grant has been refunded, and the kernel reports the run as
    incomplete.
    """

    request: AccessRequest
    rows: FrozenSet[Row]
    finish_time: float
    counted: bool = True
    failed: bool = False


@dataclass(frozen=True, slots=True)
class StreamedAnswer:
    """One incremental answer produced by a streaming execution.

    Attributes:
        row: the answer tuple.
        simulated_time: the execution's clock at which the tuple became
            derivable (at the granularity of the answer-check interval).
    """

    row: Row
    simulated_time: float


class AnswerTracker:
    """Incremental answer bookkeeping shared by every kernel run.

    Evaluates the policy's query on demand, remembers every answer's first
    derivation time, and reports which rows are new — the rows to stream.
    ``now`` is whatever clock the run's dispatcher is authoritative for
    (the event-heap clock in simulation, the wall clock under async
    dispatch, the cumulative latency sum in sequential runs).

    Intermediate checks use the policy's *incremental* evaluator when it
    offers one (:meth:`~repro.runtime.policy.PlanPolicy.evaluate_delta`):
    the semi-naive pass touches only the cache rows added since the last
    check, which is what keeps frequent streaming checks from dominating
    the run.  The final check always performs one full evaluation, so the
    reported answer set never depends on the incremental path.
    """

    def __init__(
        self,
        evaluate: Callable[[], FrozenSet[Row]],
        evaluate_delta: Optional[Callable[[], Set[Row]]] = None,
    ) -> None:
        self._evaluate = evaluate
        self._evaluate_delta = evaluate_delta
        self.answers: Set[Row] = set()
        self.answer_times: Dict[Row, float] = {}
        self.first_answer_time: Optional[float] = None
        self.incremental_checks = 0
        self.full_checks = 0

    def check(self, now: float) -> List[StreamedAnswer]:
        """Intermediate check: new derivable rows since the last one, timestamped."""
        if self._evaluate_delta is not None:
            self.incremental_checks += 1
            return self._register(self._evaluate_delta(), now)
        return self.final(now)

    def final(self, now: float) -> List[StreamedAnswer]:
        """Full evaluation of the query; return the newly derived rows."""
        self.full_checks += 1
        return self._register(self._evaluate(), now)

    def _register(self, current: Iterable[Row], now: float) -> List[StreamedAnswer]:
        fresh: List[StreamedAnswer] = []
        answer_times = self.answer_times
        for row in current:
            if row not in answer_times:
                answer_times[row] = now
                fresh.append(StreamedAnswer(row=row, simulated_time=now))
        self.answers.update(current)
        if self.first_answer_time is None and self.answers:
            self.first_answer_time = now
        return fresh


class AccessBudget:
    """Kernel-owned accounting of the ``max_accesses`` bound.

    Every source access must be granted before it runs (the simulated
    dispatchers ask for one access at a time; the async dispatcher reserves
    one grant per task at launch).  The budget flags ``denied`` only when a
    request could not be granted *at all* — a partially filled request is
    not a denial until the remainder is asked for again — which is exactly
    when an execution has work left it may not perform.

    The monotone counters ``total_granted`` and ``refunded`` support the
    refund invariant the resilience layer is audited against: every grant
    is either consumed by a counted (logged) access or refunded — a
    gate-served task, or an access that permanently failed — so
    ``total_granted - refunded`` always equals the number of accesses
    recorded against the sources.

    The budget deliberately has no memory of *which* bindings were granted:
    when a bounded cache store evicts a binding record, a later execution
    that re-performs the access asks for (and consumes) a fresh grant, so a
    re-performed access is priced as a genuine new access — eviction trades
    accesses for space, it never corrupts the accounting.
    """

    def __init__(self, limit: Optional[int]) -> None:
        self.limit = limit
        #: Net outstanding grants (refunds subtract); drives the limit math.
        self.granted = 0
        self.denied = False
        #: Monotone counters for the refund invariant.
        self.total_granted = 0
        self.refunded = 0

    def grant(self, want: int = 1) -> int:
        """Reserve up to ``want`` accesses; returns how many were granted."""
        if want <= 0:
            return 0
        if self.limit is None:
            self.total_granted += want
            return want
        allowance = min(want, self.limit - self.granted)
        if allowance <= 0:
            self.denied = True
            return 0
        self.granted += allowance
        self.total_granted += allowance
        return allowance

    def refund(self, count: int = 1) -> None:
        """Return unused grants (an access served locally after reservation,
        or one that failed and must not count against the bound)."""
        self.refunded += count
        if self.limit is not None:
            self.granted = max(0, self.granted - count)


@dataclass
class KernelOutcome:
    """Aggregate outcome of one kernel run; ``Result.raw`` of every
    kernel-backed strategy.

    Attributes:
        answers: the answers derived (all of them, or the ones derived so
            far when the budget stopped the run).
        answer_times: clock time at which each answer first derived.
        first_answer_time: clock time of the first answer (None when empty).
        total_time: the dispatcher's clock when the run finished (simulated
            makespan, or wall-clock duration under async dispatch).
        sequential_time: what the run would have cost with every access
            back to back (sum of per-access latencies / read durations).
        budget_exhausted: True when ``max_accesses`` stopped the dispatch
            loop before the fixpoint was reached.
        failed_at_position: the ordering position at which the early
            non-emptiness test proved the answer empty (fast-failing
            policy only; None otherwise).
        failed_relations: relations with at least one permanently failed
            access this run (sorted); non-empty means the fixpoint may not
            have been reached and ``answers`` is a lower bound.
        retry_stats: the run's resilience accounting (attempts, retries,
            failures, breaker trips, refunds, backoff).
        replans: adaptive re-planning events the policy's access optimizer
            performed mid-run (0 without a cost-based optimizer).
        gate_served: dispatched accesses that the claim gate resolved from
            the cache store (another execution — or, with a persistent
            store, another process — had already performed them) instead of
            a source read.  Offer-pass hits are counted separately, by the
            meta-caches.
        peak_in_flight: high-water mark of concurrently in-flight accesses
            (0 for dispatchers that do not track it).
    """

    answers: FrozenSet[Row]
    answer_times: Dict[Row, float] = field(default_factory=dict)
    first_answer_time: Optional[float] = None
    total_time: float = 0.0
    sequential_time: float = 0.0
    budget_exhausted: bool = False
    failed_at_position: Optional[int] = None
    failed_relations: Tuple[str, ...] = ()
    retry_stats: RetryStats = field(default_factory=RetryStats)
    replans: int = 0
    gate_served: int = 0
    peak_in_flight: int = 0
    #: Per-phase timings/counters of the run (see :mod:`repro.runtime.profile`).
    profile: Optional[KernelProfile] = None

    @property
    def source_failure(self) -> bool:
        """True when any access permanently failed during the run."""
        return bool(self.failed_relations)

    @property
    def parallel_speedup(self) -> float:
        """Ratio between sequential and parallel execution times.

        With degenerate zero-latency sources the makespan can be zero even
        though sequential work was done: the true ratio is then infinite,
        not ``1.0``.  Only a run with no work at all reports ``1.0``.
        """
        if self.total_time <= 0:
            return float("inf") if self.sequential_time > 0 else 1.0
        return self.sequential_time / self.total_time


class FixpointKernel:
    """The one event-driven fixpoint loop behind all execution strategies.

    The kernel iterates phases (most policies have one; the fast-failing
    policy has one per ordering position).  Within a phase it alternates
    offer passes — the policy enumerates newly enabled accesses, serving
    session meta-cache hits locally — with dispatcher steps, absorbing each
    completion through the policy so new values immediately enable further
    offers.  A phase ends when the policy has nothing left to offer and the
    dispatcher is drained; the run ends when the policy declines to start
    another phase, or the access budget runs dry.
    """

    def __init__(
        self,
        policy: "SchedulingPolicy",
        registry: "SourceRegistry",
        log: "AccessLog",
        max_accesses: Optional[int] = None,
        answer_check_interval: Optional[int] = None,
        resilience: Optional[ResilienceConfig] = None,
    ) -> None:
        """Wire a kernel run.

        Args:
            policy: the scheduling policy (owns the run's cache state).
            registry: the source wrappers accesses are dispatched to.
            log: the access log counted accesses are recorded in.
            max_accesses: optional bound on the number of source accesses.
            answer_check_interval: completed accesses between incremental
                answer checks; ``None`` disables intermediate checks (the
                query is still evaluated once at the end), which is what
                the non-streaming strategies use.
            resilience: retry/timeout/breaker configuration.  A context is
                created even when ``None`` so that source faults always
                resolve to failure-flagged partial results instead of
                killing the run.
        """
        self.policy = policy
        self.registry = registry
        self.log = log
        self.budget = AccessBudget(max_accesses)
        self.answer_check_interval = answer_check_interval
        self.dispatcher = policy.make_dispatcher(registry, log, self.budget)
        policy.bind_dispatcher(self.dispatcher)
        self.resilience = ResilienceContext(resilience)
        self.resilience.bind_clock(self.dispatcher.now, real_sleep=self.dispatcher.wall_clock)
        self.dispatcher.resilience = self.resilience
        # Intermediate answer checks go through the policy's incremental
        # evaluator when it has one; the final check is always full.
        self.tracker = AnswerTracker(
            policy.evaluate, getattr(policy, "evaluate_delta", None)
        )
        #: Per-phase timings/counters of this run (always on; see
        #: :mod:`repro.runtime.profile`).
        self.profile = KernelProfile()
        #: The kernel's monotone clock: the latest completion absorbed.
        self.clock = 0.0
        #: The outcome of the most recent run (async generators cannot
        #: return a value, so :meth:`astream` parks it here).
        self.last_outcome: Optional[KernelOutcome] = None

    # ------------------------------------------------------------------------------
    def run(self) -> KernelOutcome:
        """Run to completion, discarding the incremental answer stream."""
        generator = self.stream()
        while True:
            try:
                next(generator)
            except StopIteration as stop:
                return stop.value

    def stream(self) -> Iterator[StreamedAnswer]:
        """Run the fixpoint loop, yielding answers as they become derivable.

        Returns (as the generator's ``StopIteration`` value) the
        :class:`KernelOutcome` of the run.  This is the *sync driver* over
        :meth:`_machine`: dispatcher steps block the calling thread.
        """
        machine = self._machine()
        reply: Optional[List[Completion]] = None
        try:
            while True:
                try:
                    kind, payload = machine.send(reply)
                except StopIteration as stop:
                    outcome = stop.value
                    break
                if kind == "step":
                    started = perf_counter()
                    reply = self.dispatcher.step()
                    self.profile.dispatch_seconds += perf_counter() - started
                    self.profile.dispatch_steps += 1
                else:
                    yield payload
                    reply = None
        finally:
            self.dispatcher.close()
        self.last_outcome = outcome
        return outcome

    async def arun(self) -> KernelOutcome:
        """Async :meth:`run`: drain :meth:`astream`, return the outcome."""
        async for _ in self.astream():
            pass
        assert self.last_outcome is not None
        return self.last_outcome

    async def astream(self):
        """The *async driver* over :meth:`_machine`.

        Identical fixpoint logic to :meth:`stream` — both drivers send
        step results into the same generator, so the two execution modes
        cannot diverge semantically.  A dispatcher exposing ``astep`` is
        awaited (the async dispatcher's tasks run between awaits); any
        other dispatcher is stepped synchronously, so the simulated
        dispatchers are reachable from the async engine API too.  The outcome lands in
        :attr:`last_outcome` (async generators cannot return values).
        """
        machine = self._machine()
        reply: Optional[List[Completion]] = None
        astep = getattr(self.dispatcher, "astep", None)
        try:
            while True:
                try:
                    kind, payload = machine.send(reply)
                except StopIteration as stop:
                    self.last_outcome = stop.value
                    break
                if kind == "step":
                    started = perf_counter()
                    reply = await astep() if astep is not None else self.dispatcher.step()
                    self.profile.dispatch_seconds += perf_counter() - started
                    self.profile.dispatch_steps += 1
                else:
                    yield payload
                    reply = None
        finally:
            aclose = getattr(self.dispatcher, "aclose", None)
            if aclose is not None:
                await aclose()
            self.dispatcher.close()

    # ------------------------------------------------------------------------------
    def _machine(self):
        """The driver-agnostic fixpoint state machine.

        A plain generator that yields ``("step", None)`` when it needs the
        driver to advance the dispatcher (the driver must ``send`` the
        step's completion batch back in) and ``("answer", streamed)`` for
        each incremental answer; the :class:`KernelOutcome` is the
        generator's return value.  Keeping offer/absorb/budget/phase logic
        in one generator is what guarantees the sync and async drivers
        execute byte-identical fixpoint semantics.
        """
        completed_since_check = 0
        budget_exhausted = False
        gate_served = 0
        profile = self.profile

        more_phases = self.policy.begin()
        while more_phases and not budget_exhausted:
            while True:
                started = perf_counter()
                self._offer_fixpoint()
                profile.offer_seconds += perf_counter() - started
                started = perf_counter()
                self.dispatcher.refill(self.clock)
                has_work = self.dispatcher.has_work()
                profile.dispatch_seconds += perf_counter() - started
                if not has_work:
                    break
                batch = yield ("step", None)
                if batch is None:
                    # The dispatcher has work it may not perform: the access
                    # budget ran dry.  Sequential strategies raise; the
                    # distillation strategies stop and keep what they have.
                    if self.policy.budget_action == "raise":
                        raise ExecutionError(self.policy.budget_message())
                    budget_exhausted = True
                    break
                if not batch:
                    continue
                started = perf_counter()
                batch_had_rows = False
                for completion in batch:
                    self._absorb(completion)
                    completed_since_check += 1
                    if not completion.counted and not completion.failed:
                        gate_served += 1
                    if completion.rows:
                        batch_had_rows = True
                profile.absorb_seconds += perf_counter() - started
                profile.completions += len(batch)
                profile.completion_batches += 1
                if len(batch) > profile.max_batch:
                    profile.max_batch = len(batch)
                if (
                    self.answer_check_interval is not None
                    and batch_had_rows
                    and completed_since_check >= self.answer_check_interval
                ):
                    completed_since_check = 0
                    started = perf_counter()
                    streamed_batch = self.tracker.check(self.clock)
                    profile.answer_check_seconds += perf_counter() - started
                    for streamed in streamed_batch:
                        profile.answers_streamed += 1
                        yield ("answer", streamed)
            if not budget_exhausted:
                more_phases = self.policy.advance()

        total_time = self.dispatcher.total_time()
        started = perf_counter()
        streamed_batch = self.tracker.final(total_time)
        profile.answer_check_seconds += perf_counter() - started
        for streamed in streamed_batch:
            profile.answers_streamed += 1
            yield ("answer", streamed)
        profile.answer_checks = self.tracker.incremental_checks + self.tracker.full_checks
        profile.incremental_checks = self.tracker.incremental_checks
        profile.full_checks = self.tracker.full_checks
        return KernelOutcome(
            answers=frozenset(self.tracker.answers),
            answer_times=self.tracker.answer_times,
            first_answer_time=self.tracker.first_answer_time,
            total_time=total_time,
            sequential_time=self.dispatcher.sequential_time,
            budget_exhausted=budget_exhausted,
            failed_at_position=self.policy.failed_at,
            failed_relations=self.resilience.snapshot_failed_relations(),
            retry_stats=self.resilience.stats,
            replans=getattr(self.policy, "optimizer_replans", 0),
            gate_served=gate_served,
            peak_in_flight=getattr(self.dispatcher, "peak_in_flight", 0),
            profile=profile,
        )

    def _offer_fixpoint(self) -> None:
        """Offer every enabled access, to a fixpoint.

        Rows served from the (possibly session-shared) meta-caches can
        transitively enable further bindings without any source access, so
        one pass is not enough: iterate until nothing new is offered or
        served locally.
        """
        offer = self.policy.offer
        submit = self.dispatcher.submit
        passes = 1
        while offer(submit):
            passes += 1
        self.profile.offer_passes += passes

    def _absorb(self, completion: Completion) -> None:
        """Fold one completion into the policy state, enforcing the clock."""
        if completion.finish_time < self.clock - 1e-12:
            raise AssertionError(
                f"simulated clock would move backwards "
                f"({completion.finish_time:.6f} < {self.clock:.6f}); "
                "the dispatcher violated monotonicity"
            )
        self.clock = max(self.clock, completion.finish_time)
        if completion.failed:
            # A failed access contributes no rows; only the clock advances.
            return
        self.policy.absorb(completion)
