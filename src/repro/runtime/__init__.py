"""The shared fixpoint runtime: one kernel, pluggable policies and dispatchers.

The paper's three evaluation methods — naive extraction (Figure 1), the
fast-failing minimal-plan execution (Section IV) and parallel distillation
(Section V) — are one algorithm: iterate cache rules to a least fixpoint
under access limitations.  They differ only in *what* is dispatched *when*.
This package is that one algorithm, factored once:

* :class:`~repro.runtime.kernel.FixpointKernel` — the event-driven fixpoint
  loop.  It owns offer-pass iteration, budget accounting, the monotone
  clock, and incremental answer tracking/streaming.
* :class:`~repro.runtime.policy.SchedulingPolicy` — what to dispatch:
  :class:`~repro.runtime.policy.EagerAllRelations` (naive),
  :class:`~repro.runtime.policy.OrderedFastFail` (fast-failing),
  :class:`~repro.runtime.policy.SimulatedParallel` (distillation).
* :class:`~repro.runtime.dispatch.Dispatcher` — when/how accesses run:
  :class:`~repro.runtime.dispatch.SequentialDispatcher` (one at a time on a
  cumulative simulated clock),
  :class:`~repro.runtime.dispatch.SimulatedParallelDispatcher` (the
  deterministic discrete-event simulation on a completion-event heap) and
  :class:`~repro.runtime.dispatch.AsyncDispatcher` (real concurrent
  accesses as asyncio tasks, for ``concurrency="async"``).

The engine's one runner (:mod:`repro.engine.runner`) picks a policy per
strategy, drives the kernel, and shapes its :class:`KernelOutcome` into the
shared :class:`~repro.engine.result.Result`.
"""

from repro.runtime.dispatch import (
    AccessOutcome,
    AsyncDispatcher,
    Dispatcher,
    SequentialDispatcher,
    SimulatedParallelDispatcher,
)
from repro.runtime.kernel import (
    AccessBudget,
    AccessRequest,
    AnswerTracker,
    Completion,
    FixpointKernel,
    KernelOutcome,
    StreamedAnswer,
)
from repro.runtime.policy import (
    EagerAllRelations,
    OrderedFastFail,
    SchedulingPolicy,
    SimulatedParallel,
)

__all__ = [
    "AccessBudget",
    "AccessOutcome",
    "AccessRequest",
    "AnswerTracker",
    "AsyncDispatcher",
    "Completion",
    "Dispatcher",
    "EagerAllRelations",
    "FixpointKernel",
    "KernelOutcome",
    "OrderedFastFail",
    "SchedulingPolicy",
    "SequentialDispatcher",
    "SimulatedParallel",
    "SimulatedParallelDispatcher",
    "StreamedAnswer",
]
