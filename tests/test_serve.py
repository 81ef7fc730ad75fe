"""End-to-end tests of the serving front end (:mod:`repro.serve`).

The server runs in-process on a background thread (:class:`ServeHandle`),
exactly as the benchmarks drive it; requests go over real loopback
sockets through the same client helpers the load generator uses.  Covered
here: endpoint semantics, streamed-answer ordering against ``stream()``,
admission-control 429s, per-tenant rate limits and budget isolation,
``/metrics`` content after a known workload, byte-stable (golden) response
payloads, and graceful shutdown — including the no-orphaned-claims
contract on a shared SQLite cache store.
"""

from __future__ import annotations

import asyncio
import sqlite3
import threading
import time
from pathlib import Path

import pytest

from repro import Engine
from repro.examples import make_scenario, mixed_workload, running_example
from repro.serve import (
    AdmissionController,
    LatencyHistogram,
    LoadTestConfig,
    ServeConfig,
    ServeHandle,
    TokenBucket,
    run_loadtest,
)
from repro.serve import protocol
from repro.sources.fixture_server import FixtureServer
from repro.sources.resilience import FaultSchedule
from repro.sources.wrapper import SourceRegistry


def _request(url: str, method: str, path: str, payload=None, headers=None, timeout=15.0):
    return asyncio.run(
        protocol.request_json(url, method, path, payload, headers, timeout=timeout)
    )


def _stream(url: str, payload, headers=None, timeout=15.0):
    async def collect():
        items = []
        async for item in protocol.stream_lines(
            url, "/query/stream", payload, headers, timeout=timeout
        ):
            items.append(item)
        return items

    return asyncio.run(collect())


def _example_handle(**config_kwargs) -> ServeHandle:
    example = running_example()
    engine = Engine(example.schema, example.instance)
    return ServeHandle(engine, ServeConfig(**config_kwargs))


# -- endpoint semantics ------------------------------------------------------
def test_healthz_and_unknown_route() -> None:
    with _example_handle() as handle:
        status, body = _request(handle.url, "GET", "/healthz")
        assert (status, body) == (200, {"status": "ok"})
        status, body = _request(handle.url, "GET", "/nope")
        assert status == 404 and "error" in body


def test_query_matches_in_process_execute() -> None:
    example = running_example()
    with Engine(example.schema, example.instance) as engine:
        expected = engine.execute(example.query_text, strategy="fast_fail")
    with _example_handle() as handle:
        status, body = _request(
            handle.url, "POST", "/query", {"query": example.query_text}
        )
    assert status == 200
    assert body == expected.to_dict(include_timings=False)
    assert frozenset(tuple(row) for row in body["answers"]) == example.expected_answers


def test_query_include_timings_round_trip() -> None:
    example = running_example()
    with _example_handle() as handle:
        status, body = _request(
            handle.url,
            "POST",
            "/query",
            {"query": example.query_text, "include_timings": True},
        )
    assert status == 200
    assert "elapsed_seconds" in body and "simulated_latency" in body
    assert "backoff_seconds" in body["retry_stats"]


def test_bad_requests_are_400_not_500() -> None:
    with _example_handle() as handle:
        for payload in (
            None,
            {},
            {"query": "not a query"},
            {"query": "q(X) <- unknown_relation(X)"},
            {"query": "q(N) <- r1(A, N, Y)", "strategy": "no_such"},
            {"query": "q(N) <- r1(A, N, Y)", "concurrency": "real"},
        ):
            status, body = _request(handle.url, "POST", "/query", payload)
            assert status == 400, payload
            assert "error" in body


def test_served_payloads_are_byte_stable_and_golden() -> None:
    """Identical queries produce byte-identical responses, pinned by value.

    The golden literal is the whole contract: answers sorted, per-source
    sorted by relation, no wall-clock fields, canonical JSON.  If this
    test breaks, served responses changed for every client.
    """
    golden = (
        '{"answers":[["Italy"]],"complete":true,"failed_at_position":null,'
        '"failed_relations":[],"per_source":['
        '{"accesses":1,"distinct_rows":1,"relation":"r1"},'
        '{"accesses":1,"distinct_rows":1,"relation":"r2"}],'
        '"result_cache_hit":false,"retry_stats":{"attempts":2,"breaker_trips":0,'
        '"failures":0,"refunded":0,"retries":0,"short_circuited":0,"timeouts":0,'
        '"transient_faults":0},"strategy":"fast_fail","termination":"completed",'
        '"total_accesses":2}'
    )
    example = running_example()
    # share_session_cache=False makes repeats byte-identical *including*
    # access counts — the serving default would serve repeats from cache.
    with ServeHandle(
        Engine(example.schema, example.instance),
        ServeConfig(execute_overrides={"share_session_cache": False}),
    ) as handle:
        bodies = []
        for _ in range(3):
            status, body = _request(
                handle.url, "POST", "/query", {"query": example.query_text}
            )
            assert status == 200
            bodies.append(protocol.dump_json(body))
        assert bodies[0].decode() == golden
        assert bodies[0] == bodies[1] == bodies[2]


# -- streaming ---------------------------------------------------------------
def test_stream_chunk_order_matches_in_process_stream() -> None:
    example = make_scenario("star", rays=3, width=4)
    with Engine(example.schema, example.instance) as engine:
        expected_rows = [
            list(answer.row)
            for answer in engine.stream(
                example.query_text, answer_check_interval=1
            )
        ]
    engine = Engine(example.schema, example.instance)
    with ServeHandle(engine) as handle:
        items = _stream(
            handle.url,
            # The simulated dispatcher's answer order is deterministic, so
            # the wire must reproduce it chunk for chunk.
            {"query": example.query_text, "concurrency": "simulated"},
        )
    assert items[0] == 200
    rows = [item["row"] for item in items[1:] if "row" in item]
    summaries = [item["summary"] for item in items[1:] if "summary" in item]
    assert rows == expected_rows
    assert len(summaries) == 1
    assert summaries[0]["complete"] is True
    assert frozenset(tuple(row) for row in rows) == example.expected_answers


def test_stream_summary_degrades_honestly_under_faults() -> None:
    example = make_scenario("star", rays=3, width=4)
    registry = SourceRegistry(example.instance)
    registry.inject_faults(FaultSchedule(seed=3, transient_rate=0.9, timeout_rate=0.3))
    engine = Engine(example.schema, registry)
    with ServeHandle(engine) as handle:
        items = _stream(handle.url, {"query": example.query_text})
    assert items[0] == 200  # failures degrade, never 5xx
    summary = [item["summary"] for item in items[1:] if "summary" in item][0]
    assert summary["complete"] is False
    assert summary["failed_relations"]
    streamed = frozenset(
        tuple(item["row"]) for item in items[1:] if "row" in item
    )
    assert streamed <= example.expected_answers


def test_stream_rejects_non_streaming_strategy_with_400() -> None:
    with _example_handle() as handle:
        items = _stream(
            handle.url,
            {"query": running_example().query_text, "strategy": "naive"},
        )
    assert items[0] == 400


# -- admission control -------------------------------------------------------
def test_admission_saturation_returns_429() -> None:
    example = make_scenario("star", rays=2, width=3)
    with FixtureServer(example.instance, latency=0.25) as fixture:
        registry = SourceRegistry(example.instance, backend=fixture.url)
        engine = Engine(example.schema, registry)
        with ServeHandle(engine, ServeConfig(max_concurrent=1)) as handle:

            async def race():
                first = asyncio.ensure_future(
                    protocol.request_json(
                        handle.url, "POST", "/query", {"query": example.query_text}
                    )
                )
                await asyncio.sleep(0.1)  # let the slow query occupy the slot
                second = await protocol.request_json(
                    handle.url, "POST", "/query", {"query": example.query_text}
                )
                return await first, second

            (status1, body1), (status2, body2) = asyncio.run(race())
            assert status1 == 200 and body1["complete"]
            assert status2 == 429
            assert body2["reason"] == "admission"
            status, metrics = _request(handle.url, "GET", "/metrics")
            assert metrics["rejections"]["admission"] == 1


def test_rate_limit_returns_429_with_reason() -> None:
    with _example_handle(tenant_rate=0.001, tenant_burst=1.0) as handle:
        query = {"query": running_example().query_text}
        status1, _ = _request(handle.url, "POST", "/query", query)
        status2, body2 = _request(handle.url, "POST", "/query", query)
        assert status1 == 200
        assert status2 == 429 and body2["reason"] == "rate_limit"


def test_tenant_budgets_are_isolated() -> None:
    with _example_handle(tenant_budget=1) as handle:
        query = {"query": running_example().query_text}
        status1, body1 = _request(
            handle.url, "POST", "/query", query, {"X-Tenant": "alpha"}
        )
        assert status1 == 200 and body1["total_accesses"] >= 1
        # alpha spent its budget; its next query is refused ...
        status2, body2 = _request(
            handle.url, "POST", "/query", query, {"X-Tenant": "alpha"}
        )
        assert status2 == 429 and body2["reason"] == "budget"
        # ... while beta's budget is untouched.
        status3, body3 = _request(
            handle.url, "POST", "/query", query, {"X-Tenant": "beta"}
        )
        assert status3 == 200 and body3["complete"]
        _, metrics = _request(handle.url, "GET", "/metrics")
        assert metrics["tenants"]["alpha"]["rejected"] == 1
        assert metrics["tenants"]["beta"]["rejected"] == 0


# -- metrics -----------------------------------------------------------------
def test_metrics_after_known_workload() -> None:
    example = running_example()
    with _example_handle() as handle:
        for _ in range(3):
            status, _ = _request(
                handle.url, "POST", "/query", {"query": example.query_text}
            )
            assert status == 200
        items = _stream(handle.url, {"query": example.query_text})
        assert items[0] == 200
        status, metrics = _request(handle.url, "GET", "/metrics")
    assert status == 200
    assert metrics["server"]["in_flight"] == 0
    assert metrics["server"]["draining"] is False
    assert metrics["requests"]["query"] == {"200": 3}
    assert metrics["requests"]["stream"] == {"200": 1}
    assert metrics["results"]["completed"] == 4
    assert metrics["results"]["degraded"] == 0
    assert metrics["latency"]["query"]["count"] == 3
    assert metrics["latency"]["query"]["p99"] >= metrics["latency"]["query"]["p50"] > 0
    # The engine session's observability rides along: kernel counters,
    # meta-cache hit rate, cache-store stats.
    assert metrics["session"]["executions"] == 4
    assert metrics["session"]["total_accesses"] == 2  # repeats hit the meta-cache
    assert metrics["session"]["meta_hits"] > 0
    assert "kernel" in metrics["session"] and "cache_store" in metrics["session"]
    # Healthy sources report closed serve-level breaker state.
    assert metrics["sources"]["r1"]["state"] == "closed"


# -- graceful shutdown -------------------------------------------------------
def test_draining_server_refuses_new_queries_with_503() -> None:
    with _example_handle() as handle:
        handle.shutdown()
        # The listening socket is closed; at most a racing keep-alive
        # connection could still submit, so probe via a fresh connection
        # and accept refusal at either layer.
        try:
            status, body = _request(
                handle.url, "POST", "/query", {"query": running_example().query_text}
            )
        except (ConnectionError, OSError):
            return
        assert status == 503


def test_shutdown_lets_inflight_stream_finish_with_honest_trailer() -> None:
    example = make_scenario("star", rays=2, width=3)
    with FixtureServer(example.instance, latency=0.15) as fixture:
        registry = SourceRegistry(example.instance, backend=fixture.url)
        engine = Engine(example.schema, registry)
        with ServeHandle(engine, ServeConfig(drain_timeout=10.0)) as handle:
            results = {}

            def consume():
                results["items"] = _stream(
                    handle.url, {"query": example.query_text}, timeout=30.0
                )

            consumer = threading.Thread(target=consume)
            consumer.start()
            time.sleep(0.2)  # the stream is now mid-flight
            handle.shutdown()  # returns only after the drain
            consumer.join(timeout=30)
            assert not consumer.is_alive()
            items = results["items"]
            assert items[0] == 200
            summary = [item["summary"] for item in items[1:] if "summary" in item][0]
            assert summary["complete"] is True
            streamed = frozenset(tuple(item["row"]) for item in items[1:] if "row" in item)
            assert streamed == example.expected_answers


def test_shutdown_leaves_no_orphaned_claims_in_sqlite_store(tmp_path: Path) -> None:
    """A stopped server must not wedge peers sharing its cache store.

    The cross-process claim protocol marks in-progress accesses in the
    store's ``claims`` table; a claim that survives shutdown would block
    every peer worker on that (relation, binding) until the stale-claim
    deadline.  Engine close releases this claimant's rows.
    """
    example = make_scenario("star", rays=2, width=3)
    store_path = tmp_path / "shared.db"
    engine = Engine(example.schema, example.instance, cache=f"sqlite:{store_path}")
    with ServeHandle(engine) as handle:
        status, body = _request(
            handle.url, "POST", "/query", {"query": example.query_text}
        )
        assert status == 200 and body["complete"]
    conn = sqlite3.connect(store_path)
    try:
        claims = conn.execute("SELECT COUNT(*) FROM claims").fetchone()[0]
        records = conn.execute("SELECT COUNT(*) FROM records").fetchone()[0]
    finally:
        conn.close()
    assert claims == 0, "server shutdown left orphaned claims in the shared store"
    assert records > 0, "the warm-start records themselves must survive"


def test_store_close_releases_only_own_claims(tmp_path: Path) -> None:
    from repro.sources.store import CacheConfig, ClaimStatus, SQLiteCacheStore

    path = str(tmp_path / "claims.db")
    config = CacheConfig.parse(f"sqlite:{path}")
    mine = SQLiteCacheStore.from_config(config)
    peer = SQLiteCacheStore.from_config(config)
    assert mine._claim("r", ("b1",))[0] is ClaimStatus.OWNED
    assert peer._claim("r", ("b2",))[0] is ClaimStatus.OWNED
    mine.close()
    conn = sqlite3.connect(path)
    try:
        remaining = dict(
            conn.execute("SELECT claimant, binding FROM claims").fetchall()
        )
    finally:
        conn.close()
        peer.close()
    assert list(remaining) == [peer.claimant], (
        "close() must release exactly its own claims"
    )


# -- load generator ----------------------------------------------------------
def test_loadtest_against_in_process_server() -> None:
    workload = mixed_workload(("star", "chain"), repeat=1)
    registry = SourceRegistry(workload.instance)
    engine = Engine(workload.schema, registry)
    with ServeHandle(engine, ServeConfig(max_concurrent=16)) as handle:
        report = run_loadtest(
            LoadTestConfig(
                url=handle.url, rate=25.0, duration=1.2, stream_fraction=0.25
            ),
            workload,
        )
    assert report.requests == 30
    assert report.errors == 0
    assert report.mismatches == 0
    assert report.degraded == 0
    assert report.good == report.requests
    assert report.goodput > 0
    assert report.latency["p99"] >= report.latency["p50"] > 0
    assert any(sample.streamed for sample in report.samples)
    payload = report.to_dict()
    assert payload["statuses"] == {"200": 30}
    assert report.describe()


def test_loadtest_observes_degradation_under_faults() -> None:
    workload = mixed_workload(("star",), repeat=1)
    registry = SourceRegistry(workload.instance)
    registry.inject_faults(FaultSchedule(seed=5, transient_rate=0.8, timeout_rate=0.4))
    engine = Engine(workload.schema, registry)
    with ServeHandle(
        engine,
        ServeConfig(execute_overrides={"share_session_cache": False}),
    ) as handle:
        report = run_loadtest(
            LoadTestConfig(url=handle.url, rate=15.0, duration=1.0), workload
        )
    assert report.errors == 0, "source failures must degrade, never 5xx"
    assert report.mismatches == 0
    assert report.degraded > 0
    assert report.degraded_rate > 0


# -- unit corners ------------------------------------------------------------
def test_token_bucket_refills_at_rate() -> None:
    clock = [0.0]
    bucket = TokenBucket(rate=2.0, burst=1.0, clock=lambda: clock[0])
    assert bucket.try_take() is None
    wait = bucket.try_take()
    assert wait is not None and wait == pytest.approx(0.5, abs=0.01)
    clock[0] += 0.5
    assert bucket.try_take() is None


def test_admission_controller_gates_in_order() -> None:
    controller = AdmissionController(max_concurrent=1, tenant_budget=10)
    assert controller.admit("t") is None
    rejection = controller.admit("t")
    assert rejection is not None and rejection.reason == "admission"

    class _Spent:
        total_accesses = 10
        complete = True

    controller.release("t", _Spent())
    rejection = controller.admit("t")
    assert rejection is not None and rejection.reason == "budget"
    assert rejection.retry_after is None


def test_latency_histogram_quantiles_are_monotone() -> None:
    histogram = LatencyHistogram()
    for value in (0.001, 0.002, 0.004, 0.008, 0.1, 1.5):
        histogram.observe(value)
    payload = histogram.to_dict()
    assert payload["count"] == 6
    assert payload["p50"] <= payload["p95"] <= payload["p99"] <= payload["max_seconds"]
    assert payload["max_seconds"] == pytest.approx(1.5)
