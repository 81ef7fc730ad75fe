"""Command-line interface: ``python -m repro {plan,run,explain,workload}``.

The CLI drives the :class:`~repro.engine.Engine` façade end to end.  The
schema and data come from a JSON workload file (``--workload``), the
built-in paper example (``--example``), or a generated scenario topology
(``--scenario``); ``--backend`` picks where accesses are answered from and
``--concurrency async`` overlaps the accesses of any strategy on one event
loop.  ``workload`` replays a mixed multi-scenario query stream
concurrently over one engine session and reports throughput::

    python -m repro plan --example
    python -m repro run --example --strategy fast_fail
    python -m repro run --example --strategy distillation --stream
    python -m repro run --example --strategy distillation --profile
    python -m repro explain --example --json
    python -m repro run --workload w.json "q(X) <- r(X, Y)"
    python -m repro run --scenario star:rays=4,width=10 --backend sqlite
    python -m repro run --scenario diamond --backend callable --backend-latency 0.005 \
        --strategy distillation --concurrency async
    python -m repro run --scenario chaos --fail rate=0.2,seed=7 --retries 2 --timeout 5
    python -m repro run --scenario adaptive --optimizer cost
    python -m repro workload --mix star,diamond,chain --repeat 2 --max-parallel 4
    python -m repro workload --mix star,chaos --repeat 2 --fail 0.3 --retries 3
    python -m repro workload --mix star,diamond --optimizer cost --json
    python -m repro workload --mix star,diamond --cache-store sqlite:/tmp/c.db --json
    python -m repro run --example --result-cache --cache-max-entries 1000
    python -m repro serve-fixture --scenario star:rays=4 --latency 0.002
    python -m repro run --scenario star:rays=4 --backend http://127.0.0.1:8080 \
        --strategy distillation --concurrency async --max-in-flight 256
    python -m repro workload --mix star,chain --concurrency async

``serve-fixture`` exposes a scenario's sources as a loopback HTTP JSON
lookup service (the protocol of :mod:`repro.sources.http`); ``--backend
http://HOST:PORT`` points any other command at it.  ``--concurrency
async`` dispatches accesses as asyncio tasks on one event loop — with
``--max-in-flight`` bounding the window — and works with every strategy.

``--optimizer cost`` replaces the structural d-graph access order with the
statistics-driven cost-based order of :mod:`repro.optimizer` (identical
answers, never more accesses) and reports estimated vs. actual per-relation
cardinalities.

``--cache-store sqlite:PATH`` makes the session's "never repeat an access"
domain persistent: a re-run of the same command warm-starts from the prior
run's accesses (watch ``total_accesses`` drop to zero), and concurrent
processes sharing the file perform each access exactly once.  ``--cache-ttl``
and ``--cache-max-entries`` bound the cache (evicted accesses are simply
re-performed); ``--result-cache`` adds the query-result tier above it.

``--fail`` wraps every backend in a deterministic, seeded
:class:`~repro.sources.resilience.FlakyBackend`; ``--retries``/``--timeout``
turn on the retry policy and per-access timeout, and results report honest
completeness (``Result.complete``, failed relations, retry stats) instead
of crashing on source failures.

Workload file format::

    {
      "relations": {"r1": {"pattern": "ioo", "domains": ["Artist", "Nation", "Year"]}},
      "tuples":    {"r1": [["Domenico Modugno", "Italy", 1928]]},
      "query":     "q(N) <- r1(A, N, Y1)"        // optional default query
    }
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from typing import Dict, List, Optional, Tuple

from repro.engine import Engine, available_strategies
from repro.engine.strategy import CONCURRENCY_MODES
from repro.examples import SCENARIOS, make_scenario, mixed_workload, running_example
from repro.exceptions import ReproError
from repro.model.instance import DatabaseInstance
from repro.model.schema import Schema
from repro.sources.backend import BACKEND_KINDS
from repro.sources.resilience import DEFAULT_RETRY, FaultSchedule, RetryPolicy
from repro.sources.store import CacheConfig
from repro.sources.wrapper import SourceRegistry


def load_workload(path: str) -> Tuple[Schema, DatabaseInstance, Optional[str]]:
    """Load a ``(schema, instance, default_query)`` triple from a JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as error:
        raise ReproError(f"cannot read workload {path!r}: {error}") from None
    except json.JSONDecodeError as error:
        raise ReproError(f"workload {path!r} is not valid JSON: {error}") from None
    relations = payload.get("relations")
    if not isinstance(relations, dict) or not relations:
        raise ReproError(f"workload {path!r} has no 'relations' mapping")
    schema = Schema()
    for name, spec in relations.items():
        try:
            schema.add_relation(name, spec["pattern"], spec["domains"])
        except (KeyError, TypeError):
            raise ReproError(
                f"workload relation {name!r} needs 'pattern' and 'domains' fields"
            ) from None
    instance = DatabaseInstance(schema)
    for name, rows in (payload.get("tuples") or {}).items():
        instance.add_tuples(name, [tuple(row) for row in rows])
    query = payload.get("query")
    return schema, instance, query


def parse_scenario_spec(spec: str) -> Tuple[str, Dict[str, object]]:
    """Parse ``name[:key=value,...]`` into a scenario name and typed params.

    Values that look like ints or floats are converted, so
    ``star:rays=4,selectivity=0.5`` forwards ``rays=4, selectivity=0.5``.
    """
    name, _, params_text = spec.partition(":")
    params: Dict[str, object] = {}
    for piece in filter(None, (p.strip() for p in params_text.split(","))):
        key, separator, raw = piece.partition("=")
        if not separator or not key.strip():
            raise ReproError(
                f"bad scenario parameter {piece!r} in {spec!r}; expected key=value"
            )
        raw = raw.strip()
        value: object = raw
        try:
            value = int(raw)
        except ValueError:
            try:
                value = float(raw)
            except ValueError:
                pass
        params[key.strip()] = value
    return name.strip(), params


#: ``--fail`` spec keys -> FaultSchedule fields (plus bare-number shorthand).
_FAIL_KEYS = {
    "rate": "transient_rate",
    "transient_rate": "transient_rate",
    "timeout_rate": "timeout_rate",
    "slow_rate": "slow_rate",
    "slow_seconds": "slow_seconds",
    "seed": "seed",
    "outage_after": "outage_after",
}


def parse_fail_spec(spec: str) -> FaultSchedule:
    """Parse a ``--fail`` spec into a deterministic fault schedule.

    Accepts either a bare transient rate (``--fail 0.2``) or key=value
    pairs (``--fail rate=0.2,timeout_rate=0.05,seed=7``); keys are
    :data:`_FAIL_KEYS`.  The schedule is seeded, so repeating the command
    repeats the faults.
    """
    spec = spec.strip()
    if "=" not in spec:
        try:
            return FaultSchedule(transient_rate=float(spec))
        except ValueError:
            raise ReproError(
                f"bad --fail spec {spec!r}; expected a rate or key=value pairs "
                f"({', '.join(sorted(_FAIL_KEYS))})"
            ) from None
    fields: Dict[str, object] = {}
    for piece in filter(None, (p.strip() for p in spec.split(","))):
        key, separator, raw = piece.partition("=")
        key = key.strip()
        if not separator or key not in _FAIL_KEYS:
            raise ReproError(
                f"bad --fail parameter {piece!r}; known keys: "
                f"{', '.join(sorted(_FAIL_KEYS))}"
            )
        try:
            value: object = int(raw) if key in ("seed", "outage_after") else float(raw)
        except ValueError:
            raise ReproError(f"bad --fail value {raw!r} for {key!r}") from None
        fields[_FAIL_KEYS[key]] = value
    try:
        return FaultSchedule(**fields)  # type: ignore[arg-type]
    except ValueError as error:
        raise ReproError(f"bad --fail spec {spec!r}: {error}") from None


def _add_cache_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-store",
        metavar="SPEC",
        default="memory",
        help=(
            "where the session's access cache lives: 'memory' (default, "
            "process-local) or 'sqlite:PATH' (persistent; restarted runs "
            "warm-start and concurrent processes share one access domain)"
        ),
    )
    parser.add_argument(
        "--cache-ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "expire cached accesses after SECONDS (default: never); an "
            "expired access is simply re-performed on next need"
        ),
    )
    parser.add_argument(
        "--cache-max-entries",
        type=int,
        default=None,
        metavar="N",
        help="bound the cache to N access records with LRU eviction (default: unbounded)",
    )
    parser.add_argument(
        "--result-cache",
        action="store_true",
        help=(
            "enable the query-result cache tier: repeated (alpha-equivalent) "
            "queries are answered without executing the plan"
        ),
    )


def _cache_config(args: argparse.Namespace) -> CacheConfig:
    """Translate the --cache-* flags into a CacheConfig."""
    return CacheConfig.parse(
        args.cache_store,
        ttl=args.cache_ttl,
        max_entries=args.cache_max_entries,
        result_cache=args.result_cache,
    )


def _add_resilience_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help=(
            "retry transiently failed accesses up to N times with exponential "
            "backoff (default: no retries, or 2 when --fail injects faults)"
        ),
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "per-access wall-clock timeout on the real backend read; "
            "slower reads count as retryable failures"
        ),
    )
    parser.add_argument(
        "--fail",
        metavar="SPEC",
        default=None,
        help=(
            "inject deterministic faults into every source backend: a bare "
            "transient rate (0.2) or key=value pairs, e.g. "
            "rate=0.2,timeout_rate=0.05,seed=7,outage_after=50"
        ),
    )


def _resilience_overrides(args: argparse.Namespace) -> Dict[str, object]:
    """Translate --retries/--timeout into ExecuteOptions overrides."""
    overrides: Dict[str, object] = {}
    retries = args.retries
    if retries is None and args.fail:
        # Injected faults without an explicit retry budget get the default
        # policy, so the common chaos invocation recovers transient faults.
        overrides["retry"] = DEFAULT_RETRY
    elif retries is not None and retries > 0:
        overrides["retry"] = RetryPolicy(
            max_attempts=retries + 1, base_delay=0.01, max_delay=0.1
        )
    if args.timeout is not None:
        overrides["timeout"] = args.timeout
    return overrides


def _build_engine(args: argparse.Namespace) -> Tuple[Engine, str]:
    """Resolve the engine and the query text from the parsed arguments."""
    if args.example:
        example = running_example()
        schema, instance, default_query = example.schema, example.instance, example.query_text
    elif args.scenario:
        name, params = parse_scenario_spec(args.scenario)
        example = make_scenario(name, **params)
        schema, instance, default_query = example.schema, example.instance, example.query_text
    elif args.workload:
        schema, instance, default_query = load_workload(args.workload)
    else:
        raise ReproError("one of --example, --scenario NAME or --workload FILE is required")
    query = args.query or default_query
    if not query:
        raise ReproError("no query given (positionally or via the workload's 'query' field)")
    registry = SourceRegistry(
        instance,
        latency=args.latency,
        backend=args.backend,
        real_latency=args.backend_latency,
    )
    if getattr(args, "fail", None):
        registry.inject_faults(parse_fail_spec(args.fail))
    return Engine(schema, registry, cache=_cache_config(args)), query


def _add_backend_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend",
        metavar="KIND|URL",
        default="memory",
        help=(
            f"where accesses are answered from: {', '.join(BACKEND_KINDS)}, or an "
            "http(s)://HOST:PORT JSON lookup service (see serve-fixture); "
            "default: memory"
        ),
    )


def _add_common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("query", nargs="?", help="conjunctive query, e.g. \"q(X) <- r(X, Y)\"")
    parser.add_argument(
        "--workload", "-w", metavar="FILE", help="JSON workload file (relations/tuples/query)"
    )
    parser.add_argument(
        "--example", action="store_true", help="use the paper's built-in running example"
    )
    parser.add_argument(
        "--scenario",
        metavar="NAME[:k=v,...]",
        help=(
            f"use a generated scenario topology ({', '.join(sorted(SCENARIOS))}); "
            "parameters after ':', e.g. star:rays=4,width=10"
        ),
    )
    _add_backend_argument(parser)
    parser.add_argument(
        "--backend-latency",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="real injected latency per lookup for the callable backend",
    )
    parser.add_argument(
        "--latency", type=float, default=0.0, help="simulated per-access latency (seconds)"
    )
    _add_cache_arguments(parser)
    parser.add_argument("--json", action="store_true", help="emit machine-readable JSON")


def _command_plan(args: argparse.Namespace) -> int:
    engine, query = _build_engine(args)
    with engine:
        prepared = engine.plan(query)
        if args.json:
            explanation = prepared.explain()
            print(
                json.dumps({"query": explanation.query, "datalog": explanation.datalog}, indent=2)
            )
        else:
            print(prepared.plan.describe())
        return 0


def _command_explain(args: argparse.Namespace) -> int:
    engine, query = _build_engine(args)
    with engine:
        explanation = engine.explain(query)
        if args.json:
            print(json.dumps(explanation.to_dict(), indent=2))
        else:
            print(explanation.describe())
        return 0


def _command_run(args: argparse.Namespace) -> int:
    # --stream needs a streaming-capable strategy; default to distillation
    # but honor an explicit --strategy (naive/fast_fail then fail loudly).
    strategy = args.strategy or ("distillation" if args.stream else "fast_fail")
    engine, query = _build_engine(args)
    resilience = _resilience_overrides(args)
    with engine:
        prepared = engine.plan(query)
        if args.stream:
            streamed = []
            for answer in prepared.stream(
                strategy=strategy,
                answer_check_interval=1,
                concurrency=args.concurrency,
                max_in_flight=args.max_in_flight,
                optimizer=args.optimizer,
                **resilience,
            ):
                streamed.append(answer)
                if not args.json:
                    print(f"t={answer.simulated_time:.4f}  {answer.row}")
            if args.json:
                print(
                    json.dumps(
                        [
                            {"row": list(answer.row), "simulated_time": answer.simulated_time}
                            for answer in streamed
                        ],
                        indent=2,
                    )
                )
            else:
                print(f"({len(streamed)} answers streamed)")
                if args.profile:
                    profile = getattr(prepared, "last_kernel_profile", None)
                    if profile is not None:
                        for line in profile.describe():
                            print(line)
            return 0
        result = prepared.execute(
            strategy=strategy,
            concurrency=args.concurrency,
            max_in_flight=args.max_in_flight,
            optimizer=args.optimizer,
            **resilience,
        )
        if args.json:
            print(json.dumps(result.to_dict(include_profile=args.profile), indent=2))
        else:
            for row in sorted(result.answers, key=repr):
                print(row)
            print()
            print(result.summary())
            if args.profile and result.kernel_profile is not None:
                for line in result.kernel_profile.describe():
                    print(line)
        return 0


def _command_workload(args: argparse.Namespace) -> int:
    """Replay a mixed multi-scenario query stream concurrently."""
    mix = tuple(filter(None, (name.strip() for name in args.mix.split(","))))
    workload = mixed_workload(mix, repeat=args.repeat)
    registry = SourceRegistry(
        workload.instance,
        latency=args.latency,
        backend=args.backend,
        real_latency=args.backend_latency,
    )
    if args.fail:
        registry.inject_faults(parse_fail_spec(args.fail))
    with Engine(workload.schema, registry, cache=_cache_config(args)) as engine:
        report = engine.run_workload(
            workload.query_texts(),
            strategy=args.strategy,
            max_parallel=args.max_parallel,
            optimizer=args.optimizer,
            concurrency=args.concurrency,
            max_in_flight=args.max_in_flight,
            **_resilience_overrides(args),
        )
        # The completeness contract under test: a result claiming complete
        # must equal the scenario's fault-free answers; an incomplete one
        # (source failure / budget) is honest about being a lower bound.
        mismatches = [
            query.scenario
            for query, result in zip(workload.queries, report.results)
            if result.complete and result.answers != query.expected_answers
        ]
        incomplete = sum(1 for result in report.results if not result.complete)
        if args.json:
            payload = report.to_dict()
            payload["workload"] = workload.name
            payload["strategy"] = args.strategy
            payload["backend"] = args.backend
            payload["verified"] = not mismatches
            payload["incomplete_results"] = incomplete
            payload["per_query"] = [
                {
                    "scenario": query.scenario,
                    "answers": len(result.answers),
                    "accesses": result.total_accesses,
                    "complete": result.complete,
                    "failed_relations": list(result.failed_relations),
                }
                for query, result in zip(workload.queries, report.results)
            ]
            print(json.dumps(payload, indent=2))
        else:
            print(
                f"{len(report.results)} queries over {workload.name} "
                f"(strategy {args.strategy}, backend {args.backend}, "
                f"max_parallel {args.max_parallel})"
            )
            for query, result in zip(workload.queries, report.results):
                flag = "" if result.complete else "  (incomplete)"
                print(
                    f"  {query.scenario:>14}: {len(result.answers):>4} answers, "
                    f"{result.total_accesses:>4} accesses{flag}"
                )
            verdict = "ok" if not mismatches else f"MISMATCH in {sorted(set(mismatches))}"
            if incomplete:
                verdict += f" ({incomplete} incomplete under injected faults)"
            print(f"answers verified: {verdict}")
            print(
                f"wall {report.wall_seconds:.3f}s  qps {report.qps:.1f}  "
                f"accesses {report.total_accesses}  meta hits {report.meta_hits} "
                f"(hit rate {report.hit_rate:.1%})  "
                f"peak in flight {report.peak_in_flight}"
            )
            cache = report.cache_stats
            if cache:
                tier = (
                    f"cache store {cache['store']}"
                    f"{' (persistent)' if cache['persistent'] else ''}: "
                    f"binding hit rate {cache['binding_hit_rate']:.1%}, "
                    f"{cache['binding_entries']} records, "
                    f"{cache['evictions']} evictions"
                )
                if cache["result_cache"]:
                    tier += (
                        f"; result tier: {cache['result_hits']} hits "
                        f"(rate {cache['result_hit_rate']:.1%}, "
                        f"{cache['result_entries']} entries)"
                    )
                print(tier)
            if report.relation_stats:
                print("per-relation statistics:")
                for relation, stats in report.relation_stats.items():
                    print(
                        f"  {relation:>14}: {stats['accesses']:>4} accesses, "
                        f"{stats['rows']:>5} rows "
                        f"(fanout {stats['rows_per_access']}, "
                        f"empty rate {stats['empty_rate']}, "
                        f"avg latency {stats['avg_latency']}, "
                        f"meta hits {stats['meta_hits']})"
                    )
        if mismatches:
            print("error: some queries returned unexpected answers", file=sys.stderr)
            return 1
        return 0


def _serve_workload_registry(args: argparse.Namespace):
    """The (workload, registry) pair `serve` exposes and `loadtest` verifies.

    Both commands build the same deterministic :func:`mixed_workload` from
    ``--mix``/``--repeat``, so the load generator knows every query's
    fault-free answers without talking to the server out of band.
    """
    mix = tuple(filter(None, (name.strip() for name in args.mix.split(","))))
    workload = mixed_workload(mix, repeat=args.repeat)
    registry = SourceRegistry(
        workload.instance,
        latency=args.latency,
        backend=args.backend,
        real_latency=args.backend_latency,
    )
    if getattr(args, "fail", None):
        registry.inject_faults(parse_fail_spec(args.fail))
    return workload, registry


def _command_serve(args: argparse.Namespace) -> int:
    """Serve queries over one shared engine session until SIGTERM."""
    from repro.serve import ServeConfig, serve_forever

    workload, registry = _serve_workload_registry(args)
    config = ServeConfig(
        host=args.host,
        port=args.port,
        strategy=args.strategy,
        concurrency=args.concurrency,
        max_in_flight=args.max_in_flight,
        optimizer=args.optimizer,
        max_concurrent=args.max_concurrent,
        tenant_rate=args.tenant_rate,
        tenant_burst=args.tenant_burst,
        tenant_budget=args.tenant_budget,
        drain_timeout=args.drain_timeout,
        execute_overrides=_resilience_overrides(args),
    )
    with Engine(workload.schema, registry, cache=_cache_config(args)) as engine:
        try:
            asyncio.run(serve_forever(engine, config))
        except KeyboardInterrupt:
            pass
    return 0


def _command_loadtest(args: argparse.Namespace) -> int:
    """Open-loop load generation against a live `repro serve` process."""
    from repro.serve import LoadTestConfig, run_loadtest

    mix = tuple(filter(None, (name.strip() for name in args.mix.split(","))))
    workload = mixed_workload(mix, repeat=args.repeat)
    rate, duration = args.rate, args.duration
    if args.smoke:
        # CI preset: short and gentle, then gate hard on health.
        rate = min(rate, 20.0)
        duration = min(duration, 3.0)
    config = LoadTestConfig(
        url=args.url,
        rate=rate,
        duration=duration,
        stream_fraction=args.stream_fraction,
        tenants=args.tenants,
        strategy=args.strategy,
        timeout=args.timeout,
    )
    report = run_loadtest(config, workload)
    if args.json:
        payload = report.to_dict()
        payload["workload"] = workload.name
        payload["url"] = args.url
        print(json.dumps(payload, indent=2))
    else:
        print(f"open-loop load test of {args.url} over {workload.name}")
        print(report.describe())
    if report.mismatches:
        print("error: complete results with wrong answers", file=sys.stderr)
        return 1
    if args.smoke:
        # The CI gate: a healthy server under gentle load serves zero 5xx
        # (degraded-but-honest 200s are fine) and keeps p99 under budget.
        if report.errors:
            print(
                f"error: smoke gate failed: {report.errors} 5xx/transport errors",
                file=sys.stderr,
            )
            return 1
        if report.latency["p99"] > args.p99_budget:
            print(
                f"error: smoke gate failed: p99 {report.latency['p99']:.3f}s "
                f"exceeds budget {args.p99_budget:.3f}s",
                file=sys.stderr,
            )
            return 1
    return 0


def _command_serve_fixture(args: argparse.Namespace) -> int:
    """Serve a scenario/workload's sources over the HTTP lookup protocol."""
    if args.example:
        instance = running_example().instance
    elif args.scenario:
        name, params = parse_scenario_spec(args.scenario)
        instance = make_scenario(name, **params).instance
    elif args.workload:
        _, instance, _ = load_workload(args.workload)
    else:
        raise ReproError("one of --example, --scenario NAME or --workload FILE is required")
    from repro.sources.fixture_server import serve_forever

    try:
        asyncio.run(
            serve_forever(instance, host=args.host, port=args.port, latency=args.latency)
        )
    except KeyboardInterrupt:
        pass
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Query data under access limitations (Calì & Martinenghi, ICDE'08).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    plan_parser = subparsers.add_parser("plan", help="generate and print the ⊂-minimal plan")
    _add_common_arguments(plan_parser)
    plan_parser.set_defaults(handler=_command_plan)

    run_parser = subparsers.add_parser("run", help="execute a query and print the answers")
    _add_common_arguments(run_parser)
    run_parser.add_argument(
        "--strategy",
        "-s",
        default=None,
        help=(
            f"execution strategy ({', '.join(available_strategies())}); "
            "defaults to fast_fail, or distillation with --stream"
        ),
    )
    run_parser.add_argument(
        "--stream", action="store_true", help="stream incremental answers (distillation)"
    )
    run_parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "print the runtime kernel's per-phase profile (offer / dispatch / "
            "absorb / answer-check timings and counters) after the run"
        ),
    )
    run_parser.add_argument(
        "--optimizer",
        choices=("structural", "cost"),
        default="structural",
        help=(
            "access-order optimizer: the paper's structural d-graph order "
            "(default) or the cost-based statistics-driven planner (same "
            "answers, never more accesses, adaptive mid-run re-planning)"
        ),
    )
    run_parser.add_argument(
        "--concurrency",
        choices=CONCURRENCY_MODES,
        default="simulated",
        help=(
            "access dispatch mode: deterministic simulation (default) or "
            "asyncio tasks on one event loop"
        ),
    )
    run_parser.add_argument(
        "--max-in-flight",
        type=int,
        default=64,
        metavar="N",
        help="bound on simultaneously in-flight accesses for --concurrency async (default: 64)",
    )
    _add_resilience_arguments(run_parser)
    run_parser.set_defaults(handler=_command_run)

    explain_parser = subparsers.add_parser("explain", help="print the explain() pipeline output")
    _add_common_arguments(explain_parser)
    explain_parser.set_defaults(handler=_command_explain)

    workload_parser = subparsers.add_parser(
        "workload",
        help="replay a mixed scenario query stream concurrently and report throughput",
    )
    workload_parser.add_argument(
        "--mix",
        default="star,diamond,chain",
        metavar="NAMES",
        help=(
            f"comma-separated scenario names ({', '.join(sorted(SCENARIOS))}); "
            "default: star,diamond,chain"
        ),
    )
    workload_parser.add_argument(
        "--repeat",
        type=int,
        default=2,
        help="how many times each scenario's query appears in the stream (default: 2)",
    )
    workload_parser.add_argument(
        "--max-parallel",
        type=int,
        default=4,
        help="how many queries run concurrently over the shared session (default: 4)",
    )
    workload_parser.add_argument(
        "--strategy",
        "-s",
        default="fast_fail",
        help=f"execution strategy ({', '.join(available_strategies())}); default: fast_fail",
    )
    workload_parser.add_argument(
        "--optimizer",
        choices=("structural", "cost"),
        default="structural",
        help=(
            "access-order optimizer used by every query of the stream "
            "(default: structural)"
        ),
    )
    _add_backend_argument(workload_parser)
    workload_parser.add_argument(
        "--concurrency",
        choices=CONCURRENCY_MODES,
        default="simulated",
        help=(
            "per-query dispatch mode; 'async' additionally runs the whole "
            "stream as coroutines on one event loop instead of threads"
        ),
    )
    workload_parser.add_argument(
        "--max-in-flight",
        type=int,
        default=64,
        metavar="N",
        help="bound on simultaneously in-flight accesses per query with --concurrency async",
    )
    workload_parser.add_argument(
        "--backend-latency",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="real injected latency per lookup for the callable backend",
    )
    workload_parser.add_argument(
        "--latency", type=float, default=0.0, help="simulated per-access latency (seconds)"
    )
    _add_resilience_arguments(workload_parser)
    _add_cache_arguments(workload_parser)
    workload_parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    workload_parser.set_defaults(handler=_command_workload)

    serve_front_parser = subparsers.add_parser(
        "serve",
        help=(
            "serve conjunctive queries over HTTP from one shared engine "
            "session (POST /query, POST /query/stream, GET /metrics, "
            "GET /healthz); prints its URL on stdout and drains gracefully "
            "on SIGTERM"
        ),
    )
    serve_front_parser.add_argument(
        "--mix",
        default="star,diamond,chain",
        metavar="NAMES",
        help=(
            f"comma-separated scenario names ({', '.join(sorted(SCENARIOS))}) "
            "whose merged sources this server queries; default: star,diamond,chain"
        ),
    )
    serve_front_parser.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="rounds of each scenario's query in the canonical stream (default: 1)",
    )
    serve_front_parser.add_argument(
        "--host", default="127.0.0.1", help="interface to bind (default: 127.0.0.1)"
    )
    serve_front_parser.add_argument(
        "--port", type=int, default=0, help="port to bind (default: 0 = ephemeral)"
    )
    serve_front_parser.add_argument(
        "--strategy",
        "-s",
        default="fast_fail",
        help=f"default strategy for POST /query ({', '.join(available_strategies())})",
    )
    serve_front_parser.add_argument(
        "--concurrency",
        choices=CONCURRENCY_MODES,
        default="async",
        help=(
            "default dispatch mode per query; 'async' (default) overlaps "
            "source accesses on the server loop, 'simulated' is "
            "deterministic but steps inline"
        ),
    )
    serve_front_parser.add_argument(
        "--max-in-flight",
        type=int,
        default=64,
        metavar="N",
        help="bound on simultaneously in-flight accesses per query (default: 64)",
    )
    serve_front_parser.add_argument(
        "--optimizer",
        choices=("structural", "cost"),
        default="structural",
        help="default access-order optimizer (default: structural)",
    )
    serve_front_parser.add_argument(
        "--max-concurrent",
        type=int,
        default=16,
        metavar="N",
        help="admission control: queries executing at once before 429s (default: 16)",
    )
    serve_front_parser.add_argument(
        "--tenant-rate",
        type=float,
        default=None,
        metavar="QPS",
        help="per-tenant token-bucket rate limit in requests/s (default: off)",
    )
    serve_front_parser.add_argument(
        "--tenant-burst",
        type=float,
        default=None,
        metavar="N",
        help="per-tenant burst capacity (default: max(1, rate))",
    )
    serve_front_parser.add_argument(
        "--tenant-budget",
        type=int,
        default=None,
        metavar="N",
        help="lifetime source-access budget per tenant (default: unlimited)",
    )
    serve_front_parser.add_argument(
        "--drain-timeout",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="how long shutdown waits for in-flight queries (default: 5)",
    )
    _add_backend_argument(serve_front_parser)
    serve_front_parser.add_argument(
        "--backend-latency",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="real injected latency per lookup for the callable backend",
    )
    serve_front_parser.add_argument(
        "--latency", type=float, default=0.0, help="simulated per-access latency (seconds)"
    )
    _add_resilience_arguments(serve_front_parser)
    _add_cache_arguments(serve_front_parser)
    serve_front_parser.set_defaults(handler=_command_serve)

    loadtest_parser = subparsers.add_parser(
        "loadtest",
        help=(
            "open-loop load generator against a live `repro serve` URL; "
            "reports p50/p95/p99 latency, goodput and degraded/error rates"
        ),
    )
    loadtest_parser.add_argument(
        "--url", required=True, metavar="URL", help="server base URL (http://HOST:PORT)"
    )
    loadtest_parser.add_argument(
        "--mix",
        default="star,diamond,chain",
        metavar="NAMES",
        help="scenario mix — must match the server's --mix (default: star,diamond,chain)",
    )
    loadtest_parser.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="rounds of each scenario's query in the stream (default: 1)",
    )
    loadtest_parser.add_argument(
        "--rate",
        type=float,
        default=20.0,
        metavar="QPS",
        help="open-loop arrival rate in requests/s (default: 20)",
    )
    loadtest_parser.add_argument(
        "--duration",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="seconds of arrivals (default: 5)",
    )
    loadtest_parser.add_argument(
        "--stream-fraction",
        type=float,
        default=0.25,
        metavar="F",
        help="fraction of requests sent to /query/stream (default: 0.25)",
    )
    loadtest_parser.add_argument(
        "--tenants",
        type=int,
        default=1,
        metavar="N",
        help="round-robin requests over N X-Tenant headers t0..tN-1 (default: 1)",
    )
    loadtest_parser.add_argument(
        "--strategy",
        "-s",
        default=None,
        help="strategy to request per query (default: the server's default)",
    )
    loadtest_parser.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="per-request client timeout (default: 30)",
    )
    loadtest_parser.add_argument(
        "--smoke",
        action="store_true",
        help=(
            "CI preset: cap rate/duration, then exit 1 on any 5xx/transport "
            "error or p99 above --p99-budget"
        ),
    )
    loadtest_parser.add_argument(
        "--p99-budget",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="p99 latency gate used with --smoke (default: 2.0)",
    )
    loadtest_parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    loadtest_parser.set_defaults(handler=_command_loadtest)

    serve_parser = subparsers.add_parser(
        "serve-fixture",
        help=(
            "serve a scenario's sources as an HTTP JSON lookup service "
            "(the protocol --backend http://HOST:PORT speaks); prints its "
            "URL on stdout and runs until interrupted"
        ),
    )
    serve_parser.add_argument(
        "--workload", "-w", metavar="FILE", help="JSON workload file (relations/tuples)"
    )
    serve_parser.add_argument(
        "--example", action="store_true", help="serve the paper's built-in running example"
    )
    serve_parser.add_argument(
        "--scenario",
        metavar="NAME[:k=v,...]",
        help=(
            f"serve a generated scenario topology ({', '.join(sorted(SCENARIOS))}); "
            "parameters after ':', e.g. star:rays=4,width=10"
        ),
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="interface to bind (default: 127.0.0.1)"
    )
    serve_parser.add_argument(
        "--port", type=int, default=0, help="port to bind (default: 0 = ephemeral)"
    )
    serve_parser.add_argument(
        "--latency",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help=(
            "await asyncio.sleep(SECONDS) per lookup: concurrent clients "
            "overlap the sleeps, sequential ones pay them back to back"
        ),
    )
    serve_parser.set_defaults(handler=_command_serve_fixture)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except BrokenPipeError:  # e.g. `repro run ... | head`
        return 0
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        if getattr(error, "query", None) is not None:
            print(f"  query: {error.query}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
