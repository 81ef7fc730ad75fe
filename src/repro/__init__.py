"""repro — querying data under access limitations (Calì & Martinenghi, ICDE'08).

The supported public API is the :mod:`repro.engine` façade, re-exported
here::

    from repro import Engine
    engine = Engine(schema, instance)
    result = engine.plan("q(N) <- r1(A, N, Y1), r2('volare', Y2, A)").execute()

The underlying subpackages (``model``, ``query``, ``graph``, ``plan``,
``sources``, ``datalog``) remain importable for research use, but their
interfaces may change; the façade is the stable boundary.
"""

from repro.engine import (
    Engine,
    EngineSession,
    ExecuteOptions,
    ExecutionStrategy,
    Explanation,
    PreparedPlan,
    Result,
    SourceBreakdown,
    Termination,
    WorkloadReport,
    available_strategies,
    register_strategy,
    resolve_strategy,
    unregister_strategy,
)
from repro.exceptions import ReproError
from repro.model.instance import DatabaseInstance
from repro.model.schema import RelationSchema, Schema
from repro.query.conjunctive import ConjunctiveQuery
from repro.query.parser import parse_query
from repro.runtime.kernel import StreamedAnswer
from repro.sources.async_backend import AsyncBackend, AsyncBackendAdapter, as_async_backend
from repro.sources.backend import (
    CallableBackend,
    InMemoryBackend,
    SourceBackend,
    SQLiteBackend,
    build_backend,
)
from repro.sources.fixture_server import FixtureServer
from repro.sources.http import HTTPBackend
from repro.sources.resilience import (
    BreakerConfig,
    CircuitBreaker,
    FaultSchedule,
    FlakyBackend,
    ResilienceConfig,
    RetryPolicy,
    RetryStats,
)
from repro.sources.wrapper import SourceRegistry
from repro.serve import (
    LoadTestConfig,
    LoadTestReport,
    QueryServer,
    ServeConfig,
    ServeHandle,
    run_loadtest,
)

__version__ = "0.2.0"

__all__ = [
    "AsyncBackend",
    "AsyncBackendAdapter",
    "BreakerConfig",
    "CallableBackend",
    "CircuitBreaker",
    "ConjunctiveQuery",
    "DatabaseInstance",
    "Engine",
    "EngineSession",
    "ExecuteOptions",
    "ExecutionStrategy",
    "Explanation",
    "FaultSchedule",
    "FixtureServer",
    "FlakyBackend",
    "HTTPBackend",
    "InMemoryBackend",
    "LoadTestConfig",
    "LoadTestReport",
    "PreparedPlan",
    "QueryServer",
    "RelationSchema",
    "ReproError",
    "ResilienceConfig",
    "Result",
    "RetryPolicy",
    "RetryStats",
    "SQLiteBackend",
    "Schema",
    "ServeConfig",
    "ServeHandle",
    "SourceBackend",
    "SourceBreakdown",
    "SourceRegistry",
    "StreamedAnswer",
    "Termination",
    "WorkloadReport",
    "as_async_backend",
    "available_strategies",
    "build_backend",
    "parse_query",
    "register_strategy",
    "resolve_strategy",
    "run_loadtest",
    "unregister_strategy",
    "__version__",
]
