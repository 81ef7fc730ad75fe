"""The shared result type returned by every execution strategy.

Every built-in strategy runs on the one fixpoint kernel, and the engine's
runner (:mod:`repro.engine.runner`) shapes the kernel's
:class:`~repro.runtime.kernel.KernelOutcome` into one :class:`Result`, so
callers — and the cross-strategy equivalence tests — can compare
executions without caring which strategy produced them.  The outcome
itself stays available as ``raw``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.sources.log import AccessLog
from repro.sources.resilience import RetryStats

Row = Tuple[object, ...]


class Termination(enum.Enum):
    """Why an execution stopped."""

    #: The strategy ran to completion and the answers are final.
    COMPLETED = "completed"
    #: The fast-failing test proved the answer empty before all accesses.
    FAST_FAILED = "fast_failed"
    #: The access budget (``max_accesses``) stopped the execution early;
    #: the answers derived up to that point are reported, but more may exist.
    BUDGET_EXHAUSTED = "budget_exhausted"
    #: At least one source access permanently failed (retries exhausted,
    #: source down, or circuit breaker open); the answers derived from the
    #: surviving accesses are reported, but more may exist.
    SOURCE_FAILURE = "source_failure"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class SourceBreakdown:
    """Per-source accounting of one execution."""

    relation: str
    accesses: int
    distinct_rows: int
    simulated_latency: float


@dataclass(frozen=True)
class Result:
    """Outcome of executing a prepared plan with any strategy.

    Attributes:
        strategy: registry name of the strategy that produced the result.
        answers: the obtainable answers to the query.
        termination: why the execution stopped.
        total_accesses: number of accesses made against the sources (reads
            served by the session meta-cache are free and not counted).
        per_source: per-relation breakdown ``(accesses, rows, latency)``.
        elapsed_seconds: wall-clock duration of the execution.
        simulated_latency: simulated time charged for the accesses.  For the
            distillation strategy this is the parallel makespan; for the
            sequential strategies it is the back-to-back sum.
        time_to_first_answer: simulated time of the first answer, when the
            strategy streams (None otherwise).
        failed_at_position: ordering position at which the fast-failing test
            cut the execution, if it did.
        failed_relations: relations with at least one permanently failed
            access during the execution (sorted).
        retry_stats: resilience accounting of the execution (attempts,
            retries, failures, breaker trips, refunds, backoff).
        access_log: the ordered record of this execution's accesses.
        raw: the run's :class:`~repro.runtime.kernel.KernelOutcome`, for
            callers that need the full detail (answer times, the kernel's
            total and sequential time, ``parallel_speedup``); None for
            result-cache hits and for custom strategies that set none.
        optimizer_report: the cost-based optimizer's account of the run
            (chosen order, estimated vs. actual cardinalities, re-planning
            events); None when the structural order was used.
        result_cache_hit: True when the answers were served whole from the
            engine's query-result cache tier (no plan executed, zero
            accesses); see :mod:`repro.sources.store`.
        kernel_profile: per-phase timings/counters of the runtime kernel
            that produced the result (offer / dispatch / absorb /
            answer-check); None for result-cache hits, which execute no
            kernel.  See :class:`repro.runtime.profile.KernelProfile`.
    """

    strategy: str
    answers: FrozenSet[Row]
    termination: Termination
    total_accesses: int
    per_source: Tuple[SourceBreakdown, ...]
    elapsed_seconds: float
    simulated_latency: float
    time_to_first_answer: Optional[float] = None
    failed_at_position: Optional[int] = None
    failed_relations: Tuple[str, ...] = ()
    retry_stats: RetryStats = field(default_factory=RetryStats)
    access_log: AccessLog = field(default_factory=AccessLog, repr=False)
    raw: object = field(default=None, repr=False)
    optimizer_report: object = field(default=None, repr=False)
    result_cache_hit: bool = False
    kernel_profile: object = field(default=None, repr=False)

    # -- inspection ----------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        return not self.answers

    @property
    def budget_exhausted(self) -> bool:
        """True when the access budget cut the run; ``answers`` is then a lower bound."""
        return self.termination is Termination.BUDGET_EXHAUSTED

    @property
    def complete(self) -> bool:
        """The honest-completeness contract: True iff the execution reached
        its fixpoint (or proved the answer empty) with every needed access
        served — no budget cut, no source failure.  When True, ``answers``
        equals what a fault-free run computes; when False, ``answers`` is a
        lower bound and ``failed_relations`` / ``budget_exhausted`` say why.
        """
        return self.termination in (Termination.COMPLETED, Termination.FAST_FAILED)

    @property
    def source_failure(self) -> bool:
        """True when at least one source access permanently failed."""
        return bool(self.failed_relations)

    def accesses_of(self, relation: str) -> int:
        for breakdown in self.per_source:
            if breakdown.relation == relation:
                return breakdown.accesses
        return 0

    def rows_of(self, relation: str) -> int:
        for breakdown in self.per_source:
            if breakdown.relation == relation:
                return breakdown.distinct_rows
        return 0

    def accessed_relations(self) -> List[str]:
        return [breakdown.relation for breakdown in self.per_source]

    # -- rendering -----------------------------------------------------------
    def to_dict(
        self, include_profile: bool = False, include_timings: bool = True
    ) -> Dict[str, object]:
        """JSON-serializable view (used by the CLI, the server and benchmarks).

        ``include_profile=True`` adds the kernel's per-phase profile under
        ``"profile"``.  It is opt-in because the profile carries wall-clock
        timings, which would make the otherwise-deterministic payload vary
        from run to run (the equivalence suites fingerprint this dict).

        ``include_timings=False`` drops every clock-derived field
        (``elapsed_seconds``, ``simulated_latency``, ``time_to_first_answer``,
        per-source latencies, retry backoff): under async dispatch those are
        wall-clock measurements, so two identical executions differ in them.
        What remains is a function of the query, data and fault schedule
        alone — the serving front end uses this so identical queries get
        byte-identical responses.
        """
        payload: Dict[str, object] = {
            "strategy": self.strategy,
            "answers": sorted([list(row) for row in self.answers], key=repr),
            "termination": self.termination.value,
            "total_accesses": self.total_accesses,
            "per_source": [
                {
                    "relation": breakdown.relation,
                    "accesses": breakdown.accesses,
                    "distinct_rows": breakdown.distinct_rows,
                    **(
                        {"simulated_latency": breakdown.simulated_latency}
                        if include_timings
                        else {}
                    ),
                }
                for breakdown in self.per_source
            ],
            "failed_at_position": self.failed_at_position,
            "complete": self.complete,
            "failed_relations": list(self.failed_relations),
            "retry_stats": self.retry_stats.to_dict(),
            "result_cache_hit": self.result_cache_hit,
        }
        if include_timings:
            payload["elapsed_seconds"] = self.elapsed_seconds
            payload["simulated_latency"] = self.simulated_latency
            payload["time_to_first_answer"] = self.time_to_first_answer
        else:
            payload["retry_stats"].pop("backoff_seconds", None)  # type: ignore[union-attr]
        if self.optimizer_report is not None:
            payload["optimizer"] = self.optimizer_report.to_dict()  # type: ignore[attr-defined]
        if include_profile and self.kernel_profile is not None:
            payload["profile"] = self.kernel_profile.to_dict()  # type: ignore[attr-defined]
        return payload

    def summary(self) -> str:
        """Compact human-readable account of the execution."""
        lines = [
            f"strategy     : {self.strategy}",
            f"termination  : {self.termination}",
            f"answers      : {len(self.answers)}",
            f"accesses     : {self.total_accesses}",
            f"sim. latency : {self.simulated_latency:.4f}",
            f"wall clock   : {self.elapsed_seconds:.4f}s",
        ]
        if self.result_cache_hit:
            lines.append("result cache : hit (answers served without execution)")
        if self.time_to_first_answer is not None:
            lines.append(f"first answer : {self.time_to_first_answer:.4f}")
        if self.failed_at_position is not None:
            lines.append(f"failed at pos: {self.failed_at_position}")
        if not self.complete:
            lines.append("complete     : no (answers are a lower bound)")
        if self.failed_relations:
            lines.append(f"failed rels  : {', '.join(self.failed_relations)}")
            stats = self.retry_stats
            lines.append(
                f"resilience   : {stats.attempts} attempts, {stats.retries} retries, "
                f"{stats.failures} failures, {stats.short_circuited} short-circuited"
            )
        for breakdown in self.per_source:
            lines.append(
                f"  {breakdown.relation}: {breakdown.accesses} accesses, "
                f"{breakdown.distinct_rows} rows"
            )
        if self.optimizer_report is not None:
            lines.append(str(self.optimizer_report))
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.summary()
