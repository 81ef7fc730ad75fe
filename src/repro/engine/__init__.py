"""The public query-engine façade.

This package is *the* supported API surface of the library::

    from repro import Engine
    engine = Engine(schema, instance)
    prepared = engine.plan("q(N) <- r1(A, N, Y1), r2('volare', Y2, A)")
    result = prepared.execute(strategy="fast_fail")
    print(prepared.explain())

* :class:`~repro.engine.engine.Engine` — parsing, planning, execution and
  the cross-query session (shared meta-caches + access log);
* :class:`~repro.engine.prepared.PreparedPlan` — ``execute()``,
  ``stream()`` and ``explain()`` on one planned query;
* :class:`~repro.engine.result.Result` — the normalized outcome shared by
  all strategies;
* :class:`~repro.engine.strategy.ExecutionStrategy` and
  :func:`~repro.engine.strategy.register_strategy` — the extension point
  for new execution backends; the built-in strategies are
  :class:`~repro.engine.runner.KernelStrategy` records;
* :class:`~repro.engine.explain.Explanation` — the structured output of
  the ``explain()`` pipeline.
"""

from repro.engine.engine import Engine, EngineSession, WorkloadReport
from repro.engine.explain import Explanation, build_explanation
from repro.engine.prepared import PreparedPlan
from repro.engine.result import Result, SourceBreakdown, Termination
from repro.engine.strategy import (
    ExecuteOptions,
    ExecutionStrategy,
    available_strategies,
    register_strategy,
    resolve_strategy,
    unregister_strategy,
)

# Importing the module registers the built-in strategies.
from repro.engine.runner import KernelStrategy

__all__ = [
    "Engine",
    "EngineSession",
    "ExecuteOptions",
    "ExecutionStrategy",
    "Explanation",
    "KernelStrategy",
    "PreparedPlan",
    "Result",
    "SourceBreakdown",
    "Termination",
    "WorkloadReport",
    "available_strategies",
    "build_explanation",
    "register_strategy",
    "resolve_strategy",
    "unregister_strategy",
]
