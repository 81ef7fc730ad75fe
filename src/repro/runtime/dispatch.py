"""Pluggable dispatchers: when accesses run, and on which clock.

A dispatcher receives :class:`~repro.runtime.kernel.AccessRequest` work
units from the kernel's offer passes and turns them into
:class:`~repro.runtime.kernel.Completion` events, stamped with the clock it
is authoritative for:

* :class:`SequentialDispatcher` — one access at a time, back to back; the
  clock is the cumulative latency of the accesses made so far (the naive
  and fast-failing strategies);
* :class:`SimulatedParallelDispatcher` — the paper's distillation model as
  a deterministic discrete-event simulation: every wrapper processes its
  FIFO queue sequentially, wrappers run concurrently, and the clock is a
  heap of ``(finish_time, relation)`` completion events;
* :class:`AsyncDispatcher` — the production counterpart: every access
  really runs, as an awaited task on one event loop (bounded by
  ``max_in_flight``), stamped with the wall clock relative to the start of
  the run; HTTP sources are awaited natively, sync backends are adapted
  onto an executor.

Before touching a source, every dispatcher offers the access to the
policy's *gate* — the per-relation session meta-cache.  A recorded binding
is served locally (``Completion.counted=False``); an unrecorded one is
*claimed*, so that two concurrent executions sharing a session never
perform the same access twice: the second claimant waits until the first
fulfils the claim and then reads the rows for free.  All cache mutation
stays with the kernel — access tasks only claim, read backends, and
fulfil.

Every backend read runs through the kernel's
:class:`~repro.sources.resilience.ResilienceContext`, which owns retries,
timeouts and per-relation circuit breakers.  An access that permanently
fails abandons its meta-cache claim (a racing execution can retry instead
of deadlocking on a dead claimant), refunds its budget grant, and resolves
to a ``failed`` completion instead of raising — the run finishes with a
failure-flagged partial result.  Retry backoff is priced through each
dispatcher's authoritative clock: the simulated dispatchers charge
``attempts × latency + backoff``, the async dispatcher really sleeps.
"""

from __future__ import annotations

import abc
import asyncio
import heapq
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    ClassVar,
    Deque,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.exceptions import ExecutionError
from repro.runtime.kernel import AccessBudget, AccessRequest, Completion
from repro.sources.resilience import ResilienceContext
from repro.sources.store import ClaimStatus

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.policy import SchedulingPolicy
    from repro.sources.log import AccessLog
    from repro.sources.wrapper import SourceRegistry, SourceWrapper

Row = Tuple[object, ...]


@dataclass(frozen=True, slots=True)
class AccessOutcome:
    """Resolution of one access request by :meth:`Dispatcher._acquire_rows`.

    ``counted`` is True only for a successful, performed source read (the
    caller must log it and charge its latency).  A gate-served hit has
    ``counted=False, failed=False``; a permanently failed access has
    ``counted=False, failed=True`` with empty rows.  ``attempts`` is how
    many source reads were made (0 when a breaker short-circuited the
    request) and ``backoff`` the retry delay a simulated dispatcher must
    charge to its clock (the async dispatcher already slept it).
    """

    rows: FrozenSet[Row]
    counted: bool
    read_seconds: float
    failed: bool = False
    attempts: int = 1
    backoff: float = 0.0


class Dispatcher(abc.ABC):
    """The execution side of the kernel: turns requests into completions."""

    #: True when the dispatcher's clock is the wall clock — retry backoff
    #: must then really sleep instead of being charged to a simulation.
    wall_clock: ClassVar[bool] = False

    def __init__(self, registry: "SourceRegistry", log: "AccessLog", budget: AccessBudget) -> None:
        self.registry = registry
        self.log = log
        self.budget = budget
        #: The policy whose gate/dedup settings govern this run (bound by
        #: the kernel right after construction).
        self.gate: Optional["SchedulingPolicy"] = None
        #: Failure handling for this run's reads; the kernel replaces this
        #: passthrough default with the configured context and binds its
        #: clock to :meth:`now`.
        self.resilience = ResilienceContext()
        #: Cumulative cost of the performed accesses run back to back.
        self.sequential_time = 0.0

    def now(self) -> float:
        """The dispatcher's current authoritative clock (breaker cool-downs
        and retry pricing run on it)."""
        return 0.0

    # -- kernel interface -----------------------------------------------------
    @abc.abstractmethod
    def submit(self, request: AccessRequest) -> None:
        """Queue one unit of work."""

    def refill(self, now: float) -> None:
        """Move queued work into execution slots (no-op by default)."""

    @abc.abstractmethod
    def has_work(self) -> bool:
        """True while anything is queued or in flight."""

    @abc.abstractmethod
    def step(self) -> Optional[List[Completion]]:
        """Advance until at least one completion (or nothing can run).

        Returns the completions of this step, ``[]`` when there was nothing
        to do, or ``None`` when work remains that the access budget refuses
        to fund — the kernel decides whether that raises or ends the run.
        """

    @abc.abstractmethod
    def total_time(self) -> float:
        """The dispatcher's clock at the end of the run."""

    def relation_active(self, relation: str) -> bool:
        """True while the relation has queued or in-flight work (used by
        ``respect_ordering`` gating)."""
        return False

    def close(self) -> None:
        """Release execution resources (executor threads); idempotent."""

    # -- shared access path ----------------------------------------------------
    def _acquire_rows(
        self,
        request: AccessRequest,
        wrapper: "SourceWrapper",
    ) -> Optional[AccessOutcome]:
        """The claim protocol, implemented once for every dispatcher.

        Claim the binding on the session gate (a recorded or concurrently
        in-flight access is served locally), charge the budget, read the
        backend through the resilience context (retries, timeout, breaker),
        and record the result on the meta-cache — abandoning the claim on
        every failure path, including a permanently failed access, so
        waiters are never stranded on a dead claimant: they re-contend and
        may retry the access themselves.

        The meta-cache resolves the claim against the session's pluggable
        cache store (:mod:`repro.sources.store`): with a persistent store
        the "recorded" check spans prior processes (warm start) and the
        claim gate spans concurrent ones, so every dispatcher honours
        one shared "never repeat an access" domain without knowing which
        store backs it.  A bounded store may have *evicted* a binding, in
        which case the claim is simply owned again and the access re-runs —
        see :class:`~repro.runtime.kernel.AccessBudget` for the accounting.

        Returns the :class:`AccessOutcome`, or ``None`` when the budget
        denied the access.  A failed outcome's grant is refunded here.
        """
        assert self.gate is not None, "dispatcher used before bind_dispatcher"
        meta = self.gate.meta_for(request.relation)
        owns_claim = False
        if meta is not None and self.gate.dedup_accesses:
            served = meta.claim(request.binding)
            if served is not None:
                return AccessOutcome(served, counted=False, read_seconds=0.0)
            owns_claim = True
        if self.budget.grant(1) < 1:
            if owns_claim:
                meta.abandon(request.binding)
            return None
        try:
            performed = self.resilience.perform(
                request.relation,
                request.binding,
                lambda: wrapper.lookup(request.binding),
            )
        except BaseException:
            # Non-operational errors (programming bugs) still propagate —
            # but never with the claim held.
            if owns_claim:
                meta.abandon(request.binding)
            raise
        if performed.failed:
            if owns_claim:
                meta.abandon(request.binding)
            self.budget.refund(1)
            self.resilience.note_refund()
            return AccessOutcome(
                frozenset(),
                counted=False,
                read_seconds=0.0,
                failed=True,
                attempts=performed.attempts,
                backoff=performed.backoff,
            )
        if meta is not None:
            meta.record(request.binding, performed.rows)
        return AccessOutcome(
            performed.rows,
            counted=True,
            read_seconds=performed.read_seconds,
            attempts=performed.attempts,
            backoff=performed.backoff,
        )

    def _recorded_rows(self, request: AccessRequest) -> Optional[FrozenSet[Row]]:
        """Non-claiming gate probe: the rows when the binding is already
        recorded (counted as a hit), else None."""
        if self.gate is None or not self.gate.dedup_accesses:
            return None
        meta = self.gate.meta_for(request.relation)
        if meta is None:
            return None
        return meta.lookup(request.binding)


class SequentialDispatcher(Dispatcher):
    """One access at a time on a cumulative simulated clock.

    Accesses run back to back, so the authoritative clock is the cumulative
    latency of the accesses made so far; every access record is stamped
    with it (per-wrapper clocks would diverge as soon as two relations
    interleave).
    """

    def __init__(
        self, registry: "SourceRegistry", log: "AccessLog", budget: AccessBudget
    ) -> None:
        super().__init__(registry, log, budget)
        self._queue: Deque[AccessRequest] = deque()
        self.clock = 0.0

    def submit(self, request: AccessRequest) -> None:
        self._queue.append(request)

    def has_work(self) -> bool:
        return bool(self._queue)

    def now(self) -> float:
        return self.clock

    def step(self) -> Optional[List[Completion]]:
        """Drain the whole queue back to back.

        One step performs every queued access (the offered bindings of the
        phase's latest delta pass): the kernel then absorbs the batch and
        offers again, so the per-access cost stays one claim + one read,
        not one full offer pass.  On budget denial, the completions made
        so far are returned first; the next step finds the surviving head
        denied again with nothing done and reports the stall.

        Retried accesses cost ``attempts × latency + backoff`` on the
        cumulative clock — every attempt occupied the source, every
        backoff waited in line.  Failed accesses charge the same but are
        never logged; short-circuited ones (open breaker) cost nothing.
        """
        if not self._queue:
            return []
        completions: List[Completion] = []
        while self._queue:
            request = self._queue[0]
            wrapper = self.registry.wrapper(request.relation)
            outcome = self._acquire_rows(request, wrapper)
            if outcome is None:
                return completions if completions else None
            self._queue.popleft()
            if not outcome.counted and not outcome.failed:
                completions.append(
                    Completion(request, outcome.rows, self.clock, counted=False)
                )
                continue
            latency = self.registry.latency_of(request.relation)
            cost = outcome.attempts * latency + outcome.backoff
            self.clock += cost
            self.sequential_time += cost
            if outcome.failed:
                completions.append(
                    Completion(request, frozenset(), self.clock, counted=False, failed=True)
                )
                continue
            wrapper.record_access(
                request.binding, outcome.rows, self.log, simulated_time=self.clock
            )
            completions.append(Completion(request, outcome.rows, self.clock, counted=True))
        return completions

    def total_time(self) -> float:
        return self.clock


@dataclass(slots=True)
class _WrapperState:
    """Scheduling state of one wrapper during the simulation."""

    relation: str
    latency: float
    queue: Deque[AccessRequest] = field(default_factory=deque)
    busy_until: float = 0.0
    #: True while the head of the queue has a completion event in the heap.
    scheduled: bool = False
    #: A resolved access (rows already read, retries already priced) whose
    #: extended finish time is still in the event heap; delivered — and, if
    #: counted, logged — when that event pops, so completions leave the
    #: heap in monotone clock order even when retries stretch an access.
    pending: Optional[Completion] = None
    #: True once the budget denied this wrapper's head: the queue stays (it
    #: is the work the budget refuses to fund) but is never re-scheduled —
    #: grants can only shrink for the rest of the run.
    stalled: bool = False


class SimulatedParallelDispatcher(Dispatcher):
    """The deterministic discrete-event simulation of parallel wrappers.

    Every wrapper processes its FIFO queue sequentially, each access taking
    the wrapper's latency, and wrappers run concurrently on the simulated
    clock.  The earliest-finishing in-flight access is popped from the
    event heap in O(log w); the clock is the finish time of the last
    completed access and the kernel asserts it never decreases (answers can
    never be timestamped before the accesses that derived them).
    """

    def __init__(
        self,
        registry: "SourceRegistry",
        log: "AccessLog",
        budget: AccessBudget,
        relations: Iterable[str],
        default_latency: float = 0.01,
        queue_capacity: int = 64,
    ) -> None:
        super().__init__(registry, log, budget)
        self.queue_capacity = max(1, queue_capacity)
        self._wrappers: Dict[str, _WrapperState] = {}
        for name in relations:
            if name in self._wrappers:
                continue
            latency = registry.latency_of(name, default_latency)
            self._wrappers[name] = _WrapperState(name, latency)
        #: Unbounded per-relation backlog feeding the bounded wrapper queues.
        self._pending: Dict[str, Deque[AccessRequest]] = {
            name: deque() for name in self._wrappers
        }
        #: Completion events of the in-flight accesses: ``(finish, relation)``.
        self._events: List[Tuple[float, str]] = []
        #: Completions resolved without wrapper work (meta-cache hits found
        #: at schedule time), delivered by the next :meth:`step`.
        self._ready: List[Completion] = []
        #: The simulation's current clock (latest event seen), for breakers.
        self._now = 0.0
        #: Wrappers whose state changed since they were last refilled: only
        #: these are touched by :meth:`refill` (submit and event delivery
        #: mark them; a quiescent wrapper is never re-scanned or re-probed).
        self._dirty: Set[str] = set()
        #: Wrappers whose queue head the budget denied (stall memo, so the
        #: drained-heap check does not scan every wrapper per step).
        self._stalled: Set[str] = set()

    def submit(self, request: AccessRequest) -> None:
        self._pending[request.relation].append(request)
        self._dirty.add(request.relation)

    def now(self) -> float:
        return self._now

    def refill(self, now: float) -> None:
        """Move backlog into free queue slots and schedule idle wrappers.

        A queue head whose binding is already recorded on the meta-cache
        (e.g. the same access enabled by two cache occurrences, the first
        of which has completed) is resolved here, *before* a completion
        event is scheduled for it: a served hit costs no wrapper time, so
        it must never occupy a latency slot of the simulation.

        Only wrappers marked dirty (new submissions, or an event delivered
        since their last refill) are processed; iteration stays in wrapper
        registration order so the delivery order of meta-hit completions —
        and everything downstream of it — is reproducible run to run.
        """
        self._now = max(self._now, now)
        if not self._dirty:
            return
        for name, state in self._wrappers.items():
            if name not in self._dirty:
                continue
            self._dirty.discard(name)
            backlog = self._pending[name]
            queue = state.queue
            while True:
                while backlog and len(queue) < self.queue_capacity:
                    queue.append(backlog.popleft())
                if not queue or state.scheduled:
                    break
                rows = self._recorded_rows(queue[0])
                if rows is None:
                    # A stalled wrapper's head stays queued but is never
                    # re-scheduled: the budget that denied it cannot grow.
                    # It stays dirty, though — a concurrent execution may
                    # yet record the head's binding, which the probe above
                    # then serves for free.
                    if state.stalled:
                        self._dirty.add(name)
                    else:
                        start = max(state.busy_until, now)
                        state.scheduled = True
                        heapq.heappush(self._events, (start + state.latency, name))
                    break
                request = queue.popleft()
                self._ready.append(Completion(request, rows, now, counted=False))

    def has_work(self) -> bool:
        return bool(self._ready) or bool(self._events) or any(
            state.queue for state in self._wrappers.values()
        ) or any(self._pending.values())

    def relation_active(self, relation: str) -> bool:
        state = self._wrappers.get(relation)
        return bool(
            (state is not None and (state.queue or state.pending is not None))
            or self._pending.get(relation)
        )

    def step(self) -> Optional[List[Completion]]:
        """Deliver every completion of the next simulated-time tick.

        All events sharing the earliest finish time — necessarily distinct
        wrappers, each with at most one event in flight — are popped and
        resolved as one batch, so the kernel pays one absorb/offer round
        per *tick* instead of one per completion.  Within the tick, events
        resolve in heap order (time, then relation name): the same order
        the one-pop-per-step design produced, so budget denials, refunds
        and breaker state evolve identically.
        """
        if self._ready:
            ready, self._ready = self._ready, []
            return ready
        if not self._events:
            # Nothing in flight.  If a wrapper stalled on the budget, the
            # work the kernel still sees is exactly the work the budget
            # refuses to fund — report the stall (the kernel only calls
            # step() while has_work(), so remaining work is guaranteed).
            if self._stalled:
                return None
            return []
        completions: List[Completion] = []
        events = self._events
        finish = events[0][0]
        self._now = max(self._now, finish)
        while events and events[0][0] == finish:
            _, relation = heapq.heappop(events)
            state = self._wrappers[relation]
            state.scheduled = False
            self._dirty.add(relation)
            wrapper = self.registry.wrapper(relation)
            if state.pending is not None:
                # A retried access resolved earlier; its extended finish
                # event just popped, so deliver (and log) it now — in clock
                # order.
                completion, state.pending = state.pending, None
                if completion.counted:
                    wrapper.record_access(
                        completion.request.binding,
                        completion.rows,
                        self.log,
                        simulated_time=completion.finish_time,
                    )
                completions.append(completion)
                continue
            request = state.queue[0]
            outcome = self._acquire_rows(request, wrapper)
            if outcome is None:
                # The budget denied this wrapper's head.  Other events may
                # still be in the heap — notably retry-stretched pending
                # completions whose accesses were already performed, charged
                # and recorded on the meta-cache; they must be delivered (in
                # clock order), not dropped with the run's answers and
                # budget accounting short.  The denied head stalls (it can
                # never be funded again); the stall is only reported once
                # the heap has drained.
                state.stalled = True
                self._stalled.add(relation)
                continue
            state.queue.popleft()
            if not outcome.counted and not outcome.failed:
                # A concurrent execution recorded the binding between
                # schedule and completion: the rows are served, the
                # wrapper's busy time and the budget stay untouched.
                completions.append(Completion(request, outcome.rows, finish, counted=False))
                continue
            if outcome.attempts == 0:
                # Short-circuited by an open breaker: the wrapper did no
                # work, so its busy time and the sequential cost stay
                # untouched.
                completions.append(
                    Completion(request, frozenset(), finish, counted=False, failed=True)
                )
                continue
            # Retries stretch the access beyond its scheduled one-latency
            # slot: every attempt occupied the wrapper, every backoff waited
            # in line.
            extra = (outcome.attempts - 1) * state.latency + outcome.backoff
            completion_time = finish + extra
            state.busy_until = completion_time
            self.sequential_time += outcome.attempts * state.latency + outcome.backoff
            completion = Completion(
                request,
                outcome.rows if not outcome.failed else frozenset(),
                completion_time,
                counted=not outcome.failed,
                failed=outcome.failed,
            )
            if extra <= 0:
                if completion.counted:
                    # The heap clock is the authoritative one: the record is
                    # stamped with this event's finish time, not
                    # count × latency.
                    wrapper.record_access(
                        request.binding,
                        completion.rows,
                        self.log,
                        simulated_time=completion_time,
                    )
                completions.append(completion)
                continue
            # Deliver via the heap so later events of other wrappers cannot
            # be absorbed after this one with an earlier timestamp (the
            # kernel enforces a monotone clock).
            state.pending = completion
            state.scheduled = True
            heapq.heappush(events, (completion_time, relation))
        if completions:
            return completions
        return [] if events else None

    def total_time(self) -> float:
        return max(
            (state.busy_until for state in self._wrappers.values()), default=0.0
        )


class AsyncDispatcher(Dispatcher):
    """Event-loop dispatch: every access is an awaited task on one loop.

    For sources reached over real I/O (the HTTP backend awaits its socket
    natively; sync backends are adapted onto an executor), the event loop
    keeps up to ``max_in_flight`` individual accesses in flight across all
    relations — thousands of concurrent remote lookups cost coroutines,
    not threads.

    Division of labour: **tasks** only claim bindings on the session gate (non-blockingly — a coroutine must
    never block the loop its fulfiller runs on) and perform pure backend
    reads through :meth:`~repro.sources.resilience.ResilienceContext.
    aperform`; the **coordinator** (the kernel's async driver) counts and
    logs performed accesses on the wall clock and refunds the budget for
    gate-served or failed ones.  The budget is charged one grant per task
    at launch, so ``total_granted - refunded`` equals recorded accesses,
    same as every other dispatcher.

    Only the async kernel driver (:meth:`~repro.runtime.kernel.
    FixpointKernel.astream`) can run this dispatcher; the sync ``step()``
    raises.  ``claim_poll`` is how long a coroutine sleeps between
    non-blocking claim rounds while another claimant is in flight.
    """

    wall_clock: ClassVar[bool] = True

    def __init__(
        self,
        registry: "SourceRegistry",
        log: "AccessLog",
        budget: AccessBudget,
        max_in_flight: int = 64,
        claim_poll: float = 0.002,
    ) -> None:
        super().__init__(registry, log, budget)
        self.max_in_flight = max(1, max_in_flight)
        self.claim_poll = claim_poll
        self._backlog: Deque[AccessRequest] = deque()
        self._backlog_load: Dict[str, int] = {}
        self._tasks: Set["asyncio.Task"] = set()
        self._task_request: Dict["asyncio.Task", AccessRequest] = {}
        self._inflight_load: Dict[str, int] = {}
        #: Executor for backends without a native async read (lazily built;
        #: threads are only spawned if a sync backend is actually adapted).
        self._executor: Optional[ThreadPoolExecutor] = None
        self._started = time.perf_counter()
        #: High-water mark of concurrently in-flight access tasks.
        self.peak_in_flight = 0

    # ------------------------------------------------------------------------------
    def submit(self, request: AccessRequest) -> None:
        self._backlog.append(request)
        self._backlog_load[request.relation] = (
            self._backlog_load.get(request.relation, 0) + 1
        )

    def now(self) -> float:
        return time.perf_counter() - self._started

    def refill(self, now: float) -> None:
        """Launch backlog as tasks up to ``max_in_flight``, within the budget."""
        if not self._backlog or len(self._tasks) >= self.max_in_flight:
            return
        try:
            loop = asyncio.get_running_loop()
        except RuntimeError:
            raise ExecutionError(
                "the async dispatcher must run on an event loop; use the "
                "async execution APIs (aexecute/astream) or a sync "
                "concurrency mode"
            ) from None
        while self._backlog and len(self._tasks) < self.max_in_flight:
            if self.budget.grant(1) < 1:
                break
            request = self._backlog.popleft()
            self._backlog_load[request.relation] -= 1
            wrapper = self.registry.wrapper(request.relation)
            task = loop.create_task(self._perform_one(request, wrapper))
            self._tasks.add(task)
            self._task_request[task] = request
            self._inflight_load[request.relation] = (
                self._inflight_load.get(request.relation, 0) + 1
            )
        self.peak_in_flight = max(self.peak_in_flight, len(self._tasks))

    def has_work(self) -> bool:
        return bool(self._tasks) or bool(self._backlog)

    def relation_active(self, relation: str) -> bool:
        return bool(
            self._backlog_load.get(relation, 0) or self._inflight_load.get(relation, 0)
        )

    def step(self) -> Optional[List[Completion]]:
        raise ExecutionError(
            "the async dispatcher has no synchronous step(); drive the kernel "
            "with astream()/arun()"
        )

    async def astep(self) -> Optional[List[Completion]]:
        """Await at least one task; count, log and refund at the coordinator.

        Called right after a refill, an empty task set with a non-empty
        backlog can only mean the budget refused to fund the remaining
        work.
        """
        if not self._tasks:
            return None if self._backlog else []
        done, _ = await asyncio.wait(self._tasks, return_when=asyncio.FIRST_COMPLETED)
        now = time.perf_counter() - self._started
        completions: List[Completion] = []
        for task in done:
            self._tasks.discard(task)
            request = self._task_request.pop(task)
            self._inflight_load[request.relation] -= 1
            outcome = task.result()  # programming errors propagate
            self.sequential_time += outcome.read_seconds
            if outcome.counted:
                self.registry.wrapper(request.relation).record_access(
                    request.binding, outcome.rows, self.log, simulated_time=now
                )
            else:
                # Served by the gate — or permanently failed — without a
                # recorded access: give the launch-time reservation back.
                self.budget.refund(1)
                if outcome.failed:
                    self.resilience.note_refund()
            completions.append(
                Completion(
                    request, outcome.rows, now, counted=outcome.counted, failed=outcome.failed
                )
            )
        return completions

    def total_time(self) -> float:
        return time.perf_counter() - self._started

    async def aclose(self) -> None:
        """Cancel in-flight tasks and await them out; refund their grants."""
        tasks = list(self._tasks)
        self._tasks.clear()
        self._task_request.clear()
        self._inflight_load.clear()
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
            # Every launched task holds one budget grant until the
            # coordinator consumes its outcome; these never will be.
            self.budget.refund(len(tasks))

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    # ------------------------------------------------------------------------------
    def _sync_executor(self) -> ThreadPoolExecutor:
        if self._executor is None:
            self._executor = ThreadPoolExecutor(min(32, self.max_in_flight))
        return self._executor

    async def _perform_one(self, request: AccessRequest, wrapper: "SourceWrapper"):
        """Task body: the claim protocol of :meth:`Dispatcher._acquire_rows`,
        with non-blocking claims and an awaited resilient read.

        A claim conflict cannot be waited out on the meta-cache's condition
        variable — the fulfilling coroutine may be on this very loop — so
        the task polls :meth:`~repro.sources.cache.MetaCache.try_claim`
        with short sleeps.  Cancellation (``aclose`` mid-run) abandons an
        owned claim like any other failure path, so no waiter is ever
        stranded.
        """
        assert self.gate is not None, "dispatcher used before bind_dispatcher"
        meta = self.gate.meta_for(request.relation)
        owns_claim = False
        if meta is not None and self.gate.dedup_accesses:
            while True:
                status, served = meta.try_claim(request.binding)
                if status is ClaimStatus.SERVED:
                    return AccessOutcome(served, counted=False, read_seconds=0.0)
                if status is ClaimStatus.OWNED:
                    owns_claim = True
                    break
                await asyncio.sleep(self.claim_poll)
        try:
            performed = await self.resilience.aperform(
                request.relation,
                request.binding,
                lambda: wrapper.alookup(request.binding, executor=self._sync_executor()),
            )
        except BaseException:
            # Cancellation and programming errors both land here — never
            # leave with the claim held.
            if owns_claim:
                meta.abandon(request.binding)
            raise
        if performed.failed:
            if owns_claim:
                meta.abandon(request.binding)
            return AccessOutcome(
                frozenset(),
                counted=False,
                read_seconds=0.0,
                failed=True,
                attempts=performed.attempts,
                backoff=performed.backoff,
            )
        if meta is not None:
            meta.record(request.binding, performed.rows)
        return AccessOutcome(
            performed.rows,
            counted=True,
            read_seconds=performed.read_seconds,
            attempts=performed.attempts,
            backoff=performed.backoff,
        )
