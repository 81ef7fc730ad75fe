"""Source backends: lookup semantics, batched accesses, cross-backend and
real-concurrency equivalence, and executor-stamped access clocks."""

from __future__ import annotations

import pytest

from repro import Engine
from repro.examples import Example, chain_example, diamond_example, star_example
from repro.exceptions import AccessError, ExecutionError
from repro.sources.backend import (
    BACKEND_KINDS,
    CallableBackend,
    SQLiteBackend,
    as_backend,
    build_backend,
)
from repro.sources.log import AccessLog
from repro.sources.wrapper import SourceRegistry

STRATEGIES = ("naive", "fast_fail", "distillation")


# -- backend lookup semantics ---------------------------------------------------


@pytest.mark.parametrize("kind", BACKEND_KINDS)
def test_backend_lookup_matches_instance(example: Example, kind: str) -> None:
    for relation in example.instance:
        backend = build_backend(relation, kind)
        assert backend.kind == kind
        for row in relation:
            binding = tuple(row[i] for i in relation.schema.input_positions)
            assert backend.lookup(binding) == relation.lookup(binding)
        assert backend.lookup_many([]) == []


def test_sqlite_backend_is_an_indexed_selection(example: Example) -> None:
    relation = example.instance.relation("r1")
    backend = SQLiteBackend.from_instance(relation)
    assert backend.lookup(("Domenico Modugno",)) == frozenset(
        {("Domenico Modugno", "Italy", 1928)}
    )
    assert backend.lookup(("nobody",)) == frozenset()
    results = backend.lookup_many([("Edith Piaf",), ("Adriano Celentano",)])
    assert results == [
        frozenset({("Edith Piaf", "France", 1915)}),
        frozenset({("Adriano Celentano", "Italy", 1938)}),
    ]
    backend.close()


def test_sqlite_backend_rejects_unstorable_values(example: Example) -> None:
    relation = example.instance.relation("r1")
    backend = SQLiteBackend.from_instance(relation)
    with pytest.raises(AccessError):
        backend.add_rows([("artist", ("tuple", "value"), 1900)])
    with pytest.raises(AccessError):
        backend.add_rows([("artist", True, 1900)])


def test_callable_backend_delegates_and_normalizes(example: Example) -> None:
    relation = example.instance.relation("r2")
    calls = []

    def fn(binding):
        calls.append(binding)
        return [list(row) for row in relation.lookup(binding)]  # lists, not tuples

    backend = CallableBackend(relation.schema, fn)
    rows = backend.lookup(("volare",))
    assert rows == frozenset({("volare", 1958, "Domenico Modugno")})
    assert calls == [("volare",)]


def test_as_backend_rejects_garbage() -> None:
    with pytest.raises(AccessError):
        as_backend(object())  # type: ignore[arg-type]
    with pytest.raises(AccessError):
        build_backend(None, "no-such-kind")  # type: ignore[arg-type]


# -- wrapper: counting, logging, batching ---------------------------------------


def test_wrapper_access_many_counts_and_logs(example: Example) -> None:
    registry = SourceRegistry(example.instance)
    wrapper = registry.wrapper("r1")
    log = AccessLog()
    bindings = [("Domenico Modugno",), ("Edith Piaf",), ("nobody",)]
    results = wrapper.access_many(bindings, log, simulated_time=2.5)
    assert len(results) == 3
    assert wrapper.access_count == 3
    assert log.total_accesses == 3
    assert [record.access.binding for record in log] == bindings
    assert all(record.simulated_time == 2.5 for record in log)


def test_wrapper_lookup_does_not_count(example: Example) -> None:
    registry = SourceRegistry(example.instance)
    wrapper = registry.wrapper("r1")
    wrapper.lookup(("Edith Piaf",))
    wrapper.lookup_many([("Edith Piaf",)])
    assert wrapper.access_count == 0


# -- executor-stamped clocks ----------------------------------------------------


@pytest.mark.parametrize("strategy", ["naive", "fast_fail"])
def test_sequential_access_records_carry_cumulative_clock(strategy: str) -> None:
    """Sequential executors stamp records with one shared monotone clock.

    The seed stamped records from each wrapper's private ``count × latency``
    clock, so interleaved accesses to different relations produced
    non-monotone (and mutually inconsistent) timestamps.
    """
    example = chain_example(length=3, width=4)
    engine = Engine(example.schema, example.instance, latency=0.01)
    result = engine.execute(example.query_text, strategy=strategy, share_session_cache=False)
    times = [record.simulated_time for record in result.access_log]
    assert times, "expected at least one access"
    assert times == sorted(times)
    # The cumulative clock advances by exactly one latency per access.
    for position, stamp in enumerate(times, start=1):
        assert stamp == pytest.approx(position * 0.01)


# -- cross-backend equivalence --------------------------------------------------


@pytest.mark.parametrize("kind", BACKEND_KINDS)
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_backends_agree_on_answers_and_access_counts(kind: str, strategy: str) -> None:
    example = star_example(rays=3, width=6, selectivity=0.5)
    reference = Engine(example.schema, example.instance).execute(
        example.query_text, strategy=strategy, share_session_cache=False
    )
    engine = Engine(example.schema, example.instance, backend=kind)
    result = engine.execute(example.query_text, strategy=strategy, share_session_cache=False)
    assert result.answers == reference.answers == example.expected_answers
    assert result.total_accesses == reference.total_accesses
    assert {
        (b.relation, b.accesses) for b in result.per_source
    } == {(b.relation, b.accesses) for b in reference.per_source}


# -- real (wall-clock) concurrency: async dispatch over a callable backend -------


def test_real_concurrency_matches_simulated_answers() -> None:
    example = diamond_example(width=8)
    simulated = Engine(example.schema, example.instance).execute(
        example.query_text, strategy="distillation", share_session_cache=False
    )
    registry = SourceRegistry(example.instance, backend="callable", real_latency=0.001)
    real = Engine(example.schema, registry).execute(
        example.query_text,
        strategy="distillation",
        share_session_cache=False,
        concurrency="async",
        max_in_flight=4,
    )
    assert real.answers == simulated.answers == example.expected_answers
    assert real.total_accesses == simulated.total_accesses
    assert real.raw.total_time > 0


def test_real_concurrency_overlaps_slow_sources() -> None:
    # Four independent spokes, each behind a 5 ms source: async dispatch
    # must overlap them, so the makespan stays well under the sequential sum.
    example = star_example(rays=4, width=6)
    registry = SourceRegistry(example.instance, backend="callable", real_latency=0.005)
    result = Engine(example.schema, registry).execute(
        example.query_text,
        strategy="distillation",
        share_session_cache=False,
        concurrency="async",
        max_in_flight=8,
    )
    assert result.answers == example.expected_answers
    assert result.raw.parallel_speedup > 1.5


def test_real_concurrency_streams_answers() -> None:
    example = star_example(rays=3, width=5)
    registry = SourceRegistry(example.instance, backend="callable", real_latency=0.001)
    engine = Engine(example.schema, registry)
    streamed = list(
        engine.stream(
            example.query_text, concurrency="async", answer_check_interval=1
        )
    )
    assert {answer.row for answer in streamed} == example.expected_answers
    times = [answer.simulated_time for answer in streamed]
    assert times == sorted(times)


def test_real_concurrency_respects_access_budget() -> None:
    example = star_example(rays=3, width=8)
    registry = SourceRegistry(example.instance, backend="callable", real_latency=0.0)
    result = Engine(example.schema, registry).execute(
        example.query_text,
        strategy="distillation",
        share_session_cache=False,
        concurrency="async",
        max_accesses=5,
    )
    assert result.budget_exhausted
    assert result.total_accesses <= 5


@pytest.mark.parametrize("strategy", ["naive", "fast_fail", "distillation"])
def test_unknown_concurrency_mode_is_rejected(strategy: str) -> None:
    # No strategy may silently run an unknown mode sequentially.
    example = star_example(rays=2, width=3)
    engine = Engine(example.schema, example.instance)
    with pytest.raises(ExecutionError):
        engine.execute(example.query_text, strategy=strategy, concurrency="warp-drive")


# -- sessions over non-memory backends ------------------------------------------


def test_session_meta_cache_spares_sqlite_accesses() -> None:
    example = chain_example(length=2, width=4)
    engine = Engine(example.schema, example.instance, backend="sqlite")
    try:
        first = engine.execute(example.query_text, strategy="fast_fail")
        again = engine.execute(example.query_text, strategy="fast_fail")
    finally:
        engine.close()
    assert first.answers == again.answers == example.expected_answers
    assert first.total_accesses > 0
    assert again.total_accesses == 0
