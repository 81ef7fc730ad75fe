"""The execution-strategy protocol and the strategy registry.

A strategy turns a :class:`~repro.engine.prepared.PreparedPlan` into a
:class:`~repro.engine.result.Result`.  The three strategies of the paper
(naive, fast-failing, distillation) are registered under well-known names;
new backends plug in by subclassing :class:`ExecutionStrategy` and calling
:func:`register_strategy` (or using it as a class decorator)::

    @register_strategy
    class MyStrategy(ExecutionStrategy):
        name = "mine"

        def run(self, prepared, options):
            ...

    engine.plan(q).execute(strategy="mine")
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, replace
from typing import (
    TYPE_CHECKING,
    AsyncIterator,
    ClassVar,
    Dict,
    Iterator,
    Optional,
    Tuple,
    Type,
    Union,
)

from repro.exceptions import ExecutionError, StrategyError
from repro.runtime.kernel import StreamedAnswer
from repro.sources.resilience import BreakerConfig, ResilienceConfig, RetryPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.prepared import PreparedPlan
    from repro.engine.result import Result


#: The dispatch modes every strategy accepts (``ExecuteOptions.concurrency``).
CONCURRENCY_MODES = ("simulated", "async")


@dataclass(frozen=True)
class ExecuteOptions:
    """Tuning knobs shared by all execution strategies.

    Each strategy reads the subset that applies to it and ignores the
    rest, so one options object can be reused across strategies.

    Attributes:
        fast_fail: perform the early non-emptiness test (fast-failing
            strategy only).
        use_meta_cache: never repeat an access within one execution.
        share_session_cache: consult and feed the engine session's shared
            meta-caches, so accesses are never repeated *across* the queries
            of a session either.
        max_accesses: optional safety bound on the number of accesses.
        default_latency: simulated per-access latency for wrappers that do
            not declare one (distillation strategy).
        queue_capacity: per-wrapper queue bound (distillation strategy).
        answer_check_interval: how many completed accesses between
            incremental answer checks (distillation strategy); 1 gives the
            finest streaming granularity.
        respect_ordering: dispatch accesses position by position instead of
            eagerly (distillation strategy).
        concurrency: one of :data:`CONCURRENCY_MODES`.  ``"simulated"``
            runs the strategy on its deterministic simulated clock (back
            to back for naive/fast_fail, the discrete-event simulation of
            parallel wrappers for distillation); ``"async"`` dispatches the
            accesses to the source backends as asyncio tasks on one event
            loop, so slow sources genuinely overlap — every strategy
            supports it, and the engine's ``aexecute``/``aexecute_many``
            entry points use it to overlap whole queries.  Answers and
            access counts are identical between the modes; only the clocks
            differ.  Any other value raises
            :class:`~repro.exceptions.ExecutionError`.
        max_in_flight: bound on simultaneously in-flight source accesses
            for ``concurrency="async"``.
        retry: retry accesses that fail transiently, with exponential
            backoff priced through the run's clock (``None``: one attempt).
        timeout: per-access timeout in *wall-clock seconds of the actual
            backend read*; a slower read counts as a (retryable) failure.
            It bounds real I/O (SQLite, callable/HTTP sources, injected
            slow calls) — simulated wrapper latency is pricing, not real
            delay, and is not subject to it.
        breaker: per-relation circuit-breaker configuration; an open
            breaker short-circuits accesses and excludes the relation from
            further offers until its cool-down elapses.
        optimizer: ``"structural"`` (default) follows the paper's d-graph
            ordering exactly; ``"cost"`` asks :mod:`repro.optimizer` for a
            statistics-driven admissible access order (same answers, never
            more source accesses) with adaptive mid-run re-planning when
            observed cardinalities diverge from the estimates.
    """

    fast_fail: bool = True
    use_meta_cache: bool = True
    share_session_cache: bool = True
    max_accesses: Optional[int] = None
    default_latency: float = 0.01
    queue_capacity: int = 64
    answer_check_interval: int = 1
    respect_ordering: bool = False
    concurrency: str = "simulated"
    max_in_flight: int = 64
    retry: Optional[RetryPolicy] = None
    timeout: Optional[float] = None
    breaker: Optional[BreakerConfig] = None
    optimizer: str = "structural"

    def __post_init__(self) -> None:
        if self.concurrency not in CONCURRENCY_MODES:
            raise ExecutionError(
                f"unknown concurrency mode {self.concurrency!r}; "
                f"use one of {', '.join(map(repr, CONCURRENCY_MODES))}"
            )

    def override(self, **changes: object) -> "ExecuteOptions":
        """Return a copy with the given fields replaced."""
        try:
            return replace(self, **changes)  # type: ignore[arg-type]
        except TypeError as error:
            raise StrategyError(f"unknown execution option: {error}") from None

    def resilience(self) -> Optional[ResilienceConfig]:
        """The retry/timeout/breaker knobs as one kernel-ready config
        (``None`` when all three are off)."""
        if self.retry is None and self.timeout is None and self.breaker is None:
            return None
        return ResilienceConfig(retry=self.retry, timeout=self.timeout, breaker=self.breaker)


def streaming_unsupported(name: str, *, plan: object = None) -> StrategyError:
    """The error raised when a strategy without streaming is asked to stream."""
    return StrategyError(
        f"strategy {name!r} does not support streaming; "
        "use strategy='distillation' (or any strategy with supports_streaming=True)",
        plan=plan,
    )


def async_unsupported(name: str, *, plan: object = None) -> StrategyError:
    """The error raised when a strategy without an async path is awaited."""
    return StrategyError(
        f"strategy {name!r} has no async execution path; use one of the "
        "built-in strategies (or any strategy with supports_async=True)",
        plan=plan,
    )


class ExecutionStrategy(abc.ABC):
    """One way of executing a prepared plan.

    Subclasses set ``name`` (the registry key) and implement :meth:`run`;
    strategies that can produce answers incrementally also set
    ``supports_streaming`` and implement :meth:`stream`.  The built-in
    strategies are :class:`~repro.engine.runner.KernelStrategy` records.
    """

    name: ClassVar[str] = ""
    supports_streaming: ClassVar[bool] = False
    #: True when the strategy implements :meth:`arun` (and honors
    #: ``ExecuteOptions.concurrency="async"``).
    supports_async: ClassVar[bool] = False

    @abc.abstractmethod
    def run(self, prepared: "PreparedPlan", options: ExecuteOptions) -> "Result":
        """Execute the plan to completion and return the normalized result."""

    def stream(
        self, prepared: "PreparedPlan", options: ExecuteOptions
    ) -> Iterator[StreamedAnswer]:
        """Yield answers incrementally; only if ``supports_streaming``."""
        raise streaming_unsupported(self.name, plan=prepared.plan)

    async def arun(self, prepared: "PreparedPlan", options: ExecuteOptions) -> "Result":
        """:meth:`run` on the caller's event loop; only if ``supports_async``."""
        raise async_unsupported(self.name, plan=prepared.plan)

    def astream(
        self, prepared: "PreparedPlan", options: ExecuteOptions
    ) -> AsyncIterator[StreamedAnswer]:
        """:meth:`stream` as an async generator; only if both
        ``supports_streaming`` and ``supports_async``."""
        raise streaming_unsupported(self.name, plan=prepared.plan)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r}>"


_REGISTRY: Dict[str, ExecutionStrategy] = {}

StrategyLike = Union[str, ExecutionStrategy, Type[ExecutionStrategy]]


def register_strategy(
    strategy: Union[ExecutionStrategy, Type[ExecutionStrategy]],
) -> Union[ExecutionStrategy, Type[ExecutionStrategy]]:
    """Register a strategy (instance or class) under its ``name``.

    Returns its argument so it can be used as a class decorator.  Registering
    a second strategy under an existing name replaces the first, which lets
    tests and extensions shadow the built-ins.
    """
    instance = strategy() if isinstance(strategy, type) else strategy
    if not isinstance(instance, ExecutionStrategy):
        raise StrategyError(f"{strategy!r} is not an ExecutionStrategy")
    if not instance.name:
        raise StrategyError(f"strategy {type(instance).__name__} has an empty name")
    _REGISTRY[instance.name] = instance
    return strategy


def unregister_strategy(name: str) -> None:
    """Remove a strategy from the registry (no-op when absent)."""
    _REGISTRY.pop(name, None)


def resolve_strategy(strategy: StrategyLike) -> ExecutionStrategy:
    """Resolve a strategy name (or pass through an instance/class)."""
    if isinstance(strategy, ExecutionStrategy):
        return strategy
    if isinstance(strategy, type) and issubclass(strategy, ExecutionStrategy):
        return strategy()
    try:
        return _REGISTRY[strategy]
    except (KeyError, TypeError):
        available = ", ".join(sorted(_REGISTRY)) or "(none registered)"
        raise StrategyError(
            f"unknown execution strategy {strategy!r}; available: {available}"
        ) from None


def available_strategies() -> Tuple[str, ...]:
    """Names of the registered strategies, sorted."""
    return tuple(sorted(_REGISTRY))
