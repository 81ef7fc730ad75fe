"""The engine host: one fresh process per benchmark phase.

``python3 perfbench/host.py CONFIG_JSON`` builds the phase's instance from
generator parameters, opens the engine (and, for ``serve-mix``, the HTTP
server), warms up, and prints one ``{"event": "ready", ...}`` line.  The
benchmark times set-up from spawning this process to that line.

* ``serve-mix``: serves until a line arrives on stdin, then drains.
* ``remote-store``: runs its fixed keyed query sequence against the
  fixture server named in the config.

It ends by printing one ``{"event": "done", ...}`` line with its per-query
records, peak RSS, session counters and, when traced, the layer totals.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import resource
import sys
from time import perf_counter
from typing import Dict, List

# The program comes from PYTHONPATH (the measured checkout's src/).
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import inputs  # noqa: E402
import loadgen  # noqa: E402
import spans  # noqa: E402


def emit(payload: Dict[str, object]) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


class Phase:
    def __init__(self, config: Dict[str, object]) -> None:
        self.config = config
        self.tracer = spans.Tracer() if config["trace"] else None
        if self.tracer is not None:
            spans.install(self.tracer)
        self.records: List[Dict[str, object]] = []
        self.session = {"accesses": 0, "meta_hits": 0}

    def engine(self, schema, instance, backend="memory", store=None):
        from repro import Engine
        from repro.sources.store import MemoryCacheStore

        if self.tracer is not None:
            backend = spans.timed_backend_factory(self.tracer, backend)
            if store is None:
                started = perf_counter()
                store = MemoryCacheStore()
                self.tracer.add("sources.store_open_s", perf_counter() - started)
                self.tracer.add("sources.store_opens", 1)
            store = spans.timed_store(self.tracer, store)
        return Engine(schema, instance, backend=backend, cache=store)

    def ready(self, **fields: object) -> None:
        """Warm-up is over: drop what it traced and tell the benchmark.

        Objects built during set-up are frozen out of the garbage
        collector, as a pre-forking server would do, so full collections
        scan only what the measured work allocates.
        """
        if self.tracer is not None:
            self.tracer.reset()
        gc.collect()
        gc.freeze()
        emit({"event": "ready", **fields})

    def absorb_session(self, engine) -> None:
        stats = engine.session_stats()
        self.session["accesses"] += stats["total_accesses"]
        self.session["meta_hits"] += stats["meta_hits"]

    def done(self, extra: Dict[str, object]) -> None:
        payload = {
            "event": "done",
            "records": self.records,
            "session": self.session,
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            **extra,
        }
        if self.tracer is not None:
            payload["trace"] = self.layer_totals()
            if self.config.get("trace_path"):
                self.tracer.dump(self.config["trace_path"])
        emit(payload)

    def layer_totals(self) -> Dict[str, object]:
        from repro.query.minimize import canonical_form
        from repro.query.parser import parse_query

        seen = set()
        repeats = 0
        for query in self.tracer.planned:
            key = canonical_form(parse_query(query) if isinstance(query, str) else query)
            repeats += key in seen
            seen.add(key)
        return {
            "spans": self.tracer.summary(),
            "counts": self.tracer.counts,
            "kernel": self.tracer.kernel,
            "plan_calls": len(self.tracer.planned),
            "plan_repeats": repeats,
        }


# -- serve-mix -------------------------------------------------------------
async def serve_mix(phase: Phase) -> None:
    from repro.examples import mixed_workload
    from repro.serve import QueryServer, ServeConfig

    workload = mixed_workload(inputs.SERVE_MIX, repeat=1)
    engine = phase.engine(workload.schema, workload.instance)
    server = QueryServer(engine, ServeConfig())
    await server.start()
    for query in workload.queries:
        for stream in (False, True):
            await loadgen.request(server.config.host, server.port, query.text, stream)
    before = engine.session_stats()
    phase.ready(url=server.url)
    loop = asyncio.get_running_loop()
    await loop.run_in_executor(None, sys.stdin.readline)
    await server.shutdown()
    after = engine.session_stats()
    phase.session["accesses"] = after["total_accesses"] - before["total_accesses"]
    phase.session["meta_hits"] = after["meta_hits"] - before["meta_hits"]
    engine.close()
    phase.done({})


# -- remote-store ----------------------------------------------------------
def remote_store(phase: Phase) -> None:
    from repro.examples import wide_fanout_example
    from repro.sources.store import CacheConfig, SQLiteCacheStore

    config = phase.config
    example = wide_fanout_example(**inputs.remote_params())
    if phase.tracer is not None:
        started = perf_counter()
        store = SQLiteCacheStore(config["store_path"])
        phase.tracer.add("sources.store_open_s", perf_counter() - started)
        phase.tracer.add("sources.store_opens", 1)
    else:
        store = CacheConfig(store="sqlite", path=config["store_path"])
    engine = phase.engine(example.schema, example.instance, backend=config["url"], store=store)
    options = {"concurrency": "async", "max_in_flight": inputs.REMOTE_MAX_IN_FLIGHT}

    async def run() -> None:
        await engine.aexecute(inputs.remote_query(inputs.WARM_KEY), **options)
        phase.ready()
        before = engine.session_stats()
        for key in config["keys"]:
            started = perf_counter()
            result = await engine.aexecute(inputs.remote_query(key), **options)
            latency = perf_counter() - started
            phase.records.append(
                {
                    "latency": latency,
                    "accesses": result.total_accesses,
                    "ok": result.answers == inputs.remote_expected(key) and result.complete,
                    "complete": result.complete,
                }
            )
        after = engine.session_stats()
        phase.session["accesses"] = after["total_accesses"] - before["total_accesses"]
        phase.session["meta_hits"] = after["meta_hits"] - before["meta_hits"]

    asyncio.run(run())
    engine.close()
    phase.done({})


def main() -> None:
    config = json.loads(sys.argv[1])
    phase = Phase(config)
    workload = config["workload"]
    if workload == "serve-mix":
        asyncio.run(serve_mix(phase))
    elif workload == "remote-store":
        remote_store(phase)
    else:
        raise SystemExit(f"unknown workload {workload!r}")


if __name__ == "__main__":
    main()
