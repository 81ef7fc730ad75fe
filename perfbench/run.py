"""The repository's benchmark: two seeded workloads over the query engine.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve-mix --seed 1 --seconds 40 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: with ``--trace 0`` the
end-to-end metrics of ``BENCHMARK.json``, with ``--trace 1`` the per-layer
metrics of a separate traced run (timing shims that ``spans.py`` installs
around each layer's public entry points; self times are span minus
children).  The lines before it are a human-readable report: provenance,
every metric by name and unit, and the measured shares of the workload's
input properties.  The report is also appended to
``.perfbench/results.jsonl``; ``compare.py`` judges two sets of runs.  The
exit code is 1 when any answer is wrong, 2 when there is no program to
measure.

Workloads (every phase runs the engine in a fresh ``host.py`` process):

* ``serve-mix`` — planning, graph analyses and HTTP serving dominate, so a
  plan cache, memoised analyses or admission changes show here.  The
  default server over the merged star/diamond/chain/cycle instance, driven
  open-loop by a generator with at most ``nproc`` connections: half exact
  repeats of the four scenario queries, half keyed variants with
  zipf-drawn constants, a quarter streamed.  80 req/s for at least 1040
  requests in two replays of one stream, each on a fresh server, one before
  and one after a ladder of offered rates on a server of its own.
* ``remote-store`` — I/O waits, per-access CPU, the persistent store and
  the async dispatcher set the time; store and dispatcher changes show
  here and nowhere else.  Keyed wide-fanout queries from one closed-loop
  client against a separate fixture process (2 ms per lookup) through the
  SQLite cache store; every fourth query asks for a new key (about 25
  accesses written through), the rest are answered from store reads.

A third workload, cold 10^4-tuple fanout queries on fresh in-memory engines
(the fixpoint kernel alone, about 0.3 s per query), was dropped: its runs
moved with the shared machine's speed, and ten seeds spread 0.31 of their
median latency, wider than any bound the benchmark may set.  The kernel's
per-layer figures are still measured on both workloads.

End-to-end metrics (every workload reports all of them):

* ``setup_s`` — median over the run's phases of the time from spawning the
  engine host (and, for remote-store, the fixture process) until it has
  built its instance, opened engine, store and server, and warmed up.
* ``latency_p50_s`` — median per-query wall time; served requests are timed
  from when they were due.
* ``throughput_qps`` — verified-complete queries per second: the achieved
  rate at 80 req/s on serve-mix, one closed-loop client on remote-store.
* ``capacity_rps`` — serve-mix: the highest rate of a fixed ladder
  (130-310 req/s) that the server sustains with no failures and no backlog,
  that is with its median latency within 50 ms, refined toward the next rung
  (see :meth:`ServeMix._ladder` and :func:`capacity_of`).  On
  remote-store, the rate its one closed-loop client sustains.
* ``accesses_per_query`` — source accesses per query, the paper's cost.
  Deterministic per seed; a run fails when its phases disagree.
* ``ok_share`` — verified-complete responses per request attempted.  It is
  one minus the failed share, so it is never 0: 429s, 5xx, transport
  errors, ``complete: false`` and wrong answers all count against it.
* ``peak_rss_mb`` — the largest peak RSS of the run's engine hosts.

The report also prints two figures that are not bounded in
``BENCHMARK.json``, because on a shared two-core machine their spread
between runs reaches or passes the widest bound the benchmark may set
(0.25):

* ``latency_p99_s`` — nearest rank; ten samples lie beyond it.  Spread
  0.3-0.8 on serve-mix.
* ``first_answer_p50_s`` — time to the first streamed row (or to the
  trailer when the answer is empty) of serve-mix's streamed requests, from
  when they were due; remote-store does not stream, so there it is the time
  to the complete result.  On serve-mix it is the p50 of the quarter of
  requests that stream, and its spread read 0.08-0.23.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import math
import os
import platform
import queue
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from time import perf_counter
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import loadgen  # noqa: E402


def workload_reasons() -> Dict[str, str]:
    """Each workload's one-line rationale, as ``BENCHMARK.json`` states it."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as handle:
        return {workload["name"]: workload["why"] for workload in json.load(handle)["workloads"]}


#: The latency limit of the capacity ladder.
SLO_S = 0.050
FIXED_RATE = 80.0
#: At least 1040 requests at the fixed rate, so ten lie beyond the p99.
MIN_FIXED_REQUESTS = 1040
#: The fixed-rate stream is replayed this many times, each on a fresh server,
#: one before the ladder and one after it: the shared machine's speed drifts
#: within tens of seconds, so the p50 pools two moments of the run.
FIXED_SLICES = 2
CONNECTIONS = os.cpu_count() or 2
LADDER = tuple(float(rate) for rate in range(130, 311, 15))
#: Failed requests count as missing every latency limit.
FAILED_LATENCY_S = 30.0
REMOTE_MIN_PHASES = 3
#: Set-ups timed per run (phases, then set-up-only hosts): setup_s is their median.
SETUPS = 5
SETUP_TIMEOUT_S = 60.0


def set_root(root: str) -> None:
    """Measure the program under ``root``; work files go there too."""
    global ROOT, SRC, WORK
    ROOT = os.path.abspath(root)
    SRC = os.path.join(ROOT, "src")
    WORK = os.path.join(ROOT, ".perfbench")


class BenchError(Exception):
    """The benchmark cannot run or its checks failed."""


# -- statistics --------------------------------------------------------------
def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in (0, 1])."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


# -- processes ---------------------------------------------------------------
class Process:
    """A child process whose stdout lines are read on a background thread."""

    def __init__(self, argv: List[str], env: Dict[str, str], stdin: bool = False) -> None:
        self.spawned = perf_counter()
        self.proc = subprocess.Popen(
            argv,
            cwd=ROOT,
            env=env,
            stdin=subprocess.PIPE if stdin else subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.put(line)
        self.lines.put(None)

    def line(self, timeout: float) -> str:
        try:
            line = self.lines.get(timeout=timeout)
        except queue.Empty:
            raise BenchError(f"{self.proc.args[1]} produced no output in {timeout:.0f} s") from None
        if line is None:
            raise BenchError(f"{self.proc.args[1]} exited with code {self.proc.wait()}")
        return line

    def event(self, name: str, timeout: float) -> Dict[str, object]:
        while True:
            line = self.line(timeout)
            if line.startswith("{"):
                payload = json.loads(line)
                if payload.get("event") == name:
                    return payload

    def tell(self, text: str) -> None:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()

    def stop(self) -> None:
        if self.proc.stdin is not None:
            try:
                self.proc.stdin.close()
            except OSError:
                pass
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.reader.join(timeout=10)


def host_env(seed: int) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    # Hash order decides set iteration inside the engine; pin it per seed so
    # one seed replays the same execution order in every phase.
    env["PYTHONHASHSEED"] = str(seed % 4_294_967_296)
    return env


class Host:
    """One engine host process (see ``host.py``)."""

    def __init__(self, config: Dict[str, object], seed: int, spawned: Optional[float] = None) -> None:
        self.process = Process(
            [sys.executable, os.path.join(HERE, "host.py"), json.dumps(config)],
            host_env(seed),
            stdin=True,
        )
        self.spawned = spawned if spawned is not None else self.process.spawned
        try:
            self.ready = self.process.event("ready", SETUP_TIMEOUT_S)
        except BaseException:
            self.process.stop()
            raise
        self.setup_s = perf_counter() - self.spawned

    def wait(self, timeout: float = 170.0) -> Dict[str, object]:
        """The host's final report, once it has finished its own work."""
        try:
            return self.process.event("done", timeout)
        finally:
            self.process.stop()

    def finish(self, timeout: float = 30.0) -> Dict[str, object]:
        """Tell a serving host to drain, then collect its final report."""
        try:
            self.process.tell("stop")
        except OSError:
            pass
        return self.wait(timeout)


# -- serve-mix ---------------------------------------------------------------
class ServeMix:
    def __init__(self, seed: int, seconds: float, trace: bool) -> None:
        from repro.examples import mixed_workload

        self.seed, self.trace = seed, trace
        self.workload = mixed_workload(inputs.SERVE_MIX, repeat=1)
        # About 45% of the run at the fixed rate, the rest on the ladder (the
        # traced run replaces the ladder and the second slice by a traced
        # fixed-rate phase).
        fixed = max(MIN_FIXED_REQUESTS, round(0.45 * seconds * FIXED_RATE)) // FIXED_SLICES
        rung_seconds = max(2.0, seconds / 12.0)
        self.fixed = inputs.serve_mix_stream(self.workload, seed, fixed, 0)
        self.rungs = [] if trace else [
            inputs.serve_mix_stream(self.workload, seed, round(rate * rung_seconds), 1 + index)
            for index, rate in enumerate(LADDER)
        ]
        everything = self.fixed + [request for rung in self.rungs for request in rung]
        self.oracle = inputs.serve_mix_oracle(self.workload, everything)

    def check(self, records, requests) -> Dict[str, int]:
        """Verify every response against the oracle; count the failures."""
        counts = {"attempted": len(records), "failed": 0, "wrong": 0}
        for record, spec in zip(records, requests):
            ok = record["status"] == 200 and record["complete"]
            if ok and frozenset(record["rows"]) != self.oracle[spec["text"]]:
                counts["wrong"] += 1
                ok = False
            record["ok"] = ok
            counts["failed"] += not ok
        return counts

    def phase(self, requests, rate: float, traced: bool, ladder: bool = False):
        config = {"workload": "serve-mix", "trace": traced, "trace_path": trace_path("serve-mix", self.seed)}
        host = Host(config, self.seed)
        try:
            # The generator's own collections would show up as server latency.
            gc.collect()
            gc.disable()
            try:
                if ladder:
                    outcome = asyncio.run(self._ladder(host.ready["url"]))
                else:
                    records, start = asyncio.run(
                        loadgen.run_schedule(host.ready["url"], requests, rate, CONNECTIONS)
                    )
                    server = asyncio.run(loadgen.fetch_json(host.ready["url"], "/metrics"))
                    outcome = {"records": records, "start": start, "server": server}
            finally:
                gc.enable()
            outcome["host"] = host.finish()
        finally:
            host.process.stop()
        outcome["setup_s"] = host.setup_s
        return outcome

    async def _ladder(self, url: str) -> Dict[str, object]:
        """Walk the ladder upward until a rung is not sustained twice in a row.

        A rung is sustained when every request succeeds, the achieved rate
        is within 5% of the offered one and the median latency from the due
        time stays within the 50 ms SLO: below capacity a backlog drains
        and the median stays at the service time, above it the backlog
        grows through the rung and the median climbs past the SLO.  (A p99
        criterion would let single stalls of the shared machine decide; one
        batch of ten seeds read 0 req/s twice.)  A rung that is not
        sustained is offered once more before the walk stops.
        """
        rungs = []
        for rate, requests in zip(LADDER, self.rungs):
            attempts = [await self._rung(url, rate, requests)]
            if not attempts[0]["passed"]:
                attempts.append(await self._rung(url, rate, requests))
            rung = min(attempts, key=lambda attempt: (not attempt["passed"], attempt["p50_s"]))
            rung["attempts"] = len(attempts)
            rungs.append(rung)
            if not rung["passed"]:
                break
        return {"capacity": capacity_of(rungs), "rungs": rungs}

    async def _rung(self, url: str, rate: float, requests) -> Dict[str, object]:
        records, start = await loadgen.run_schedule(url, requests, rate, CONNECTIONS)
        counts = self.check(records, requests)
        if counts["wrong"]:
            raise BenchError(f"wrong answers at {rate} req/s")
        elapsed = max(record["done"] for record in records) - start
        achieved = (len(records) - counts["failed"]) / elapsed
        latencies = [latency_of(record) for record in records]
        p50 = median(latencies)
        passed = counts["failed"] == 0 and p50 <= SLO_S and achieved >= 0.95 * rate
        return {
            "rate": rate,
            "p50_s": p50,
            "p99_s": percentile(latencies, 0.99),
            "achieved_rps": achieved,
            "passed": passed,
        }

    def run(self) -> Dict[str, object]:
        report: Dict[str, object] = {"setups": []}
        fixed = self.phase(self.fixed, FIXED_RATE, traced=False)
        report["setups"].append(fixed["setup_s"])
        counts = self.check(fixed["records"], self.fixed)
        records = list(fixed["records"])
        hosts = [fixed["host"]]
        slices = [fixed]
        if self.trace:
            traced = self.phase(self.fixed, FIXED_RATE, traced=True)
            traced_counts = self.check(traced["records"], self.fixed)
            traced_accesses = sum(record["accesses"] for record in traced["records"])
            if traced_accesses != sum(record["accesses"] for record in records):
                raise BenchError("tracing changed the number of source accesses")
            for key in counts:
                counts[key] += traced_counts[key]
            hosts.append(traced["host"])
            report["layers"] = serve_layers(traced, fixed)
        else:
            ladder = self.phase(None, 0.0, traced=False, ladder=True)
            report["setups"].append(ladder["setup_s"])
            hosts.append(ladder["host"])
            report["ladder"] = ladder["rungs"]
            report["capacity"] = ladder["capacity"]
            while len(slices) < FIXED_SLICES:
                again = self.phase(self.fixed, FIXED_RATE, traced=False)
                report["setups"].append(again["setup_s"])
                for key, value in self.check(again["records"], self.fixed).items():
                    counts[key] += value
                records.extend(again["records"])
                hosts.append(again["host"])
                slices.append(again)
            while len(report["setups"]) < SETUPS:
                probe = Host({"workload": "serve-mix", "trace": False}, self.seed)
                report["setups"].append(probe.setup_s)
                probe.finish()
        latencies = [latency_of(record) for record in records]
        streams = [record for record in records if record["first"] is not None]
        elapsed = sum(
            max(record["done"] for record in part["records"]) - part["start"] for part in slices
        )
        per_slice = [sum(record["accesses"] for record in part["records"]) for part in slices]
        if len(set(per_slice)) != 1:
            raise BenchError(f"serve-mix access counts differ between replays: {per_slice}")
        accesses = sum(per_slice)
        report.update(
            counts=counts,
            latency_p50_s=median(latencies),
            latency_p99_s=percentile(latencies, 0.99),
            first_answer_p50_s=median([record["first"] - record["due"] for record in streams]),
            throughput_qps=sum(record["ok"] for record in records) / elapsed,
            accesses_per_query=accesses / len(records),
            accesses_by_phase=per_slice,
            peak_rss_mb=max(host["rss_mb"] for host in hosts),
            properties=self.properties(),
        )
        report["properties"]["fresh_access_share"] = sum(
            record["accesses"] > 0 for record in records
        ) / len(records)
        return report

    def properties(self) -> Dict[str, object]:
        from repro.query.minimize import canonical_form
        from repro.query.parser import parse_query

        seen = set()
        repeats = 0
        for request in self.fixed:
            key = canonical_form(parse_query(request["text"]))
            repeats += key in seen
            seen.add(key)
        return {
            "requests": len(self.fixed),
            "plan_repeat_share": repeats / len(self.fixed),
            "exact_repeat_share": sum(r["base"] is not None for r in self.fixed) / len(self.fixed),
            "stream_share": sum(r["stream"] for r in self.fixed) / len(self.fixed),
            "empty_answer_share": sum(not self.oracle[r["text"]] for r in self.fixed) / len(self.fixed),
            "tuples": sum(len(relation) for relation in self.workload.instance),
        }


def capacity_of(rungs: List[Dict[str, object]]) -> float:
    """The highest sustained rung, refined toward the rung above it.

    When the next rung's median crossed the SLO, the crossing rate is
    interpolated between the two rungs on a log scale of the median, so the
    figure moves smoothly instead of jumping a whole rung.  0 when no rung
    is sustained.
    """
    passing = [index for index, rung in enumerate(rungs) if rung["passed"]]
    if not passing:
        return 0.0
    low = rungs[passing[-1]]
    if passing[-1] + 1 == len(rungs) or rungs[passing[-1] + 1]["p50_s"] <= SLO_S:
        # Top of the ladder, or the next rung failed on errors or rate alone.
        return low["rate"]
    high = rungs[passing[-1] + 1]
    share = math.log(SLO_S / low["p50_s"]) / math.log(high["p50_s"] / low["p50_s"])
    return low["rate"] + (high["rate"] - low["rate"]) * min(max(share, 0.0), 1.0)


def latency_of(record: Dict[str, object]) -> float:
    return record["done"] - record["due"] if record["ok"] else FAILED_LATENCY_S


def serve_layers(traced, untraced) -> Dict[str, float]:
    """Per-layer metrics of a traced serve-mix phase."""
    records = traced["records"]
    count = len(records)
    host = traced["host"]
    layers = layer_metrics(host, count)
    server_side = layers["plan.prepare_s"] + layers["engine.execute_s"]
    service = [record["done"] - record["sent"] for record in records]
    base = [record["done"] - record["sent"] for record in untraced["records"]]
    lag = [record["sent"] - record["due"] for record in untraced["records"]]
    layers.update(
        {
            "serve.self_s": statistics.fmean(service) - server_side,
            "serve.inflight_peak": traced["server"]["server"]["peak_in_flight"],
            "serve.rejected": sum(traced["server"]["rejections"].values()),
            "loadgen.lag_p99_s": percentile(lag, 0.99),
            "loadgen.service_p50_s": median(base),
            "loadgen.requests": len(untraced["records"]),
            "trace.overhead_share": median([latency_of(r) for r in records])
            / median([latency_of(r) for r in untraced["records"]])
            - 1.0,
        }
    )
    return layers


def layer_metrics(host: Dict[str, object], count: int) -> Dict[str, float]:
    """Per-layer figures from one traced host's totals.

    Times and counts are per measured query; shares, peaks and
    ``store_open_s`` (per store opened) are not.  ``engine.self_s`` is
    execution time minus the kernel's four phases; source lookups run inside
    the kernel's dispatch phase, so they are not subtracted again.  The
    ``serve.*`` figures stay 0 unless the workload is served.
    """
    trace = host["trace"]
    spans = trace["spans"]
    counts = trace["counts"]
    kernel = trace["kernel"]

    def total(name: str) -> float:
        return spans.get(name, {}).get("total", 0.0)

    kernel_s = sum(
        kernel.get(field, 0.0)
        for field in ("offer_seconds", "dispatch_seconds", "absorb_seconds", "answer_check_seconds")
    )
    execute = total("engine.execute") + counts.get("engine.stream_s", 0.0)
    lookups = counts.get("sources.lookups", 0.0)
    accesses = host["session"]["accesses"]
    hits = host["session"]["meta_hits"]
    calls = trace["plan_calls"]
    return {
        "query.parse_s": total("query.parse") / count,
        "query.minimize_s": total("query.minimize") / count,
        "graph.queryability_s": total("graph.queryability") / count,
        "graph.relevance_s": total("graph.relevance") / count,
        "graph.ordering_s": total("graph.ordering") / count,
        "plan.prepare_s": total("plan.prepare") / count,
        "plan.self_s": spans.get("plan.prepare", {}).get("self", 0.0) / count,
        "plan.calls": calls / count,
        "plan.repeat_share": trace["plan_repeats"] / calls if calls else 0.0,
        "runtime.offer_s": kernel.get("offer_seconds", 0.0) / count,
        "runtime.dispatch_s": kernel.get("dispatch_seconds", 0.0) / count,
        "runtime.absorb_s": kernel.get("absorb_seconds", 0.0) / count,
        "runtime.answer_check_s": kernel.get("answer_check_seconds", 0.0) / count,
        "runtime.offer_passes": kernel.get("offer_passes", 0.0) / count,
        "runtime.dispatch_steps": kernel.get("dispatch_steps", 0.0) / count,
        "runtime.completion_batches": kernel.get("completion_batches", 0.0) / count,
        "runtime.incremental_checks": kernel.get("incremental_checks", 0.0) / count,
        "runtime.full_checks": kernel.get("full_checks", 0.0) / count,
        "runtime.peak_in_flight": counts.get("sources.in_flight_peak", 0.0),
        "sources.lookups": lookups / count,
        "sources.lookup_s": counts.get("sources.lookup_s", 0.0) / count,
        "sources.lookup_us": 1e6 * counts.get("sources.lookup_s", 0.0) / lookups if lookups else 0.0,
        "sources.accesses": accesses / count,
        "sources.meta_hits": hits / count,
        "sources.hit_rate": hits / (hits + accesses) if hits + accesses else 0.0,
        "sources.store_reads": counts.get("sources.store_reads", 0.0) / count,
        "sources.store_writes": counts.get("sources.store_writes", 0.0) / count,
        "sources.store_read_s": counts.get("sources.store_read_s", 0.0) / count,
        "sources.store_write_s": counts.get("sources.store_write_s", 0.0) / count,
        "sources.store_open_s": counts.get("sources.store_open_s", 0.0)
        / max(counts.get("sources.store_opens", 1.0), 1.0),
        "engine.execute_s": execute / count,
        "engine.self_s": (execute - kernel_s) / count,
        "engine.to_dict_s": total("engine.to_dict") / count,
        "serve.self_s": 0.0,
        "serve.admit_s": total("serve.admit") / count,
        "serve.json_s": total("serve.json") / count,
        "serve.inflight_peak": 0.0,
        "serve.rejected": 0.0,
    }


def closed_loop_layers(traced_host, untraced_records) -> Dict[str, float]:
    records = traced_host["records"]
    layers = layer_metrics(traced_host, len(records))
    base = [record["latency"] for record in untraced_records]
    layers.update(
        {
            "loadgen.lag_p99_s": 0.0,
            "loadgen.service_p50_s": median(base),
            "loadgen.requests": len(untraced_records),
            "trace.overhead_share": median([r["latency"] for r in records]) / median(base) - 1.0,
        }
    )
    return layers


# -- closed-loop workloads ---------------------------------------------------
def closed_loop_report(records, hosts, setups, accesses_by_phase, properties) -> Dict[str, object]:
    latencies = [record["latency"] if record["ok"] else FAILED_LATENCY_S for record in records]
    busy = sum(record["latency"] for record in records)
    ok = sum(record["ok"] for record in records)
    throughput = ok / busy
    return {
        "setups": setups,
        "counts": {
            "attempted": len(records),
            "failed": len(records) - ok,
            "wrong": sum(record["complete"] and not record["ok"] for record in records),
        },
        "latency_p50_s": median(latencies),
        "latency_p99_s": percentile(latencies, 0.99),
        # Not streamed: the first answer comes with the complete result.
        "first_answer_p50_s": median(latencies),
        "throughput_qps": throughput,
        "capacity": throughput,
        "accesses_per_query": sum(record["accesses"] for record in records) / len(records),
        "accesses_by_phase": accesses_by_phase,
        "peak_rss_mb": max(host["rss_mb"] for host in hosts),
        "properties": properties,
    }


def remote_phase(seed: int, store: str, keys: List[int], traced: bool):
    """One remote-store phase: a fresh fixture process and engine host."""
    params = inputs.remote_params()
    fixture = Process(
        [
            sys.executable, os.path.join(HERE, "fixture.py"),
            str(params["width"]), str(params["fanout"]), str(inputs.REMOTE_LATENCY),
        ],
        host_env(seed),
        stdin=True,
    )
    try:
        config = {
            "workload": "remote-store",
            "trace": traced,
            "trace_path": trace_path("remote-store", seed),
            "url": fixture.line(SETUP_TIMEOUT_S).strip(),
            "store_path": store,
            "keys": keys,
        }
        host = Host(config, seed, spawned=fixture.spawned)
        return host.setup_s, host.wait()
    finally:
        fixture.stop()


def run_remote(seed: int, seconds: float, trace: bool) -> Dict[str, object]:
    keys = inputs.remote_keys(seed)
    params = inputs.remote_params()
    hosts, setups, records, per_phase = [], [], [], []
    work = os.path.join(WORK, f"remote-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    started = perf_counter()
    try:
        # The traced run is one untraced phase, then one traced phase.
        while len(hosts) < 2 if trace else (
            len(hosts) < REMOTE_MIN_PHASES or perf_counter() - started < seconds
        ):
            traced = trace and len(hosts) == 1
            store = os.path.join(work, f"store-{len(hosts)}.db")
            setup_s, done = remote_phase(seed, store, keys, traced)
            setups.append(setup_s)
            hosts.append(done)
            per_phase.append(done["session"]["accesses"])
            if not traced:
                records.extend(done["records"])
        while not trace and len(setups) < SETUPS:
            store = os.path.join(work, f"probe-{len(setups)}.db")
            setups.append(remote_phase(seed, store, [], False)[0])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if len(set(per_phase)) != 1:
        raise BenchError(f"remote-store access counts differ between phases: {per_phase}")
    distinct = len(set(keys))
    properties = {
        "queries_per_phase": len(keys),
        "repeated_key_share": 1.0 - distinct / len(keys),
        "fresh_access_share": sum(r["accesses"] > 0 for r in records) / len(records),
        "stream_share": 0.0,
        "plan_repeat_share": 1.0 - distinct / len(keys),
        "tuples": params["width"] * (1 + 3 * params["fanout"]),
    }
    report = closed_loop_report(records, hosts, setups, per_phase, properties)
    if trace:
        report["layers"] = closed_loop_layers(hosts[-1], records)
        report["counts"]["attempted"] += len(hosts[-1]["records"])
        report["counts"]["failed"] += sum(not r["ok"] for r in hosts[-1]["records"])
    return report


# -- reporting ---------------------------------------------------------------
END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_s", "s"),
    ("throughput_qps", "1/s"),
    ("capacity_rps", "1/s"),
    ("accesses_per_query", "count"),
    ("ok_share", "share"),
    ("peak_rss_mb", "MB"),
)

UNBOUNDED = ("first_answer_p50_s", "latency_p99_s")

LAYER_UNITS = {"_s": "s", "_us": "us", "_share": "share", "_rate": "share"}


def layer_unit(name: str) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def trace_path(workload: str, seed: int) -> str:
    os.makedirs(os.path.join(WORK, "trace"), exist_ok=True)
    return os.path.join(WORK, "trace", f"{workload}-seed{seed}.json")


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance(args, why: str) -> Dict[str, object]:
    return {
        "workload": args.workload,
        "why": why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": git_commit(),
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    reasons = workload_reasons()
    parser.add_argument("--workload", required=True, choices=sorted(reasons))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--root", default=ROOT, help="checkout whose src/ is measured (default: this one)"
    )
    args = parser.parse_args(argv)
    set_root(args.root)
    # Turn SIGTERM into an exception so every child process is still stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    trace = bool(args.trace)
    if args.workload == "serve-mix":
        report = ServeMix(args.seed, args.seconds, trace).run()
    else:
        report = run_remote(args.seed, args.seconds, trace)

    counts = report["counts"]
    correct = counts["wrong"] == 0
    values = {
        "setup_s": median(report["setups"]),
        "latency_p50_s": report["latency_p50_s"],
        "throughput_qps": report["throughput_qps"],
        "capacity_rps": report.get("capacity") or 0.0,
        "accesses_per_query": report["accesses_per_query"],
        "ok_share": 1.0 - counts["failed"] / counts["attempted"],
        "peak_rss_mb": report["peak_rss_mb"],
    }
    if trace:
        metrics = {
            name: {"value": value, "unit": layer_unit(name)}
            for name, value in report["layers"].items()
        }
    else:
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    info = provenance(args, reasons[args.workload])
    print(f"workload {args.workload} (seed {args.seed}): {info['why']}")
    print(
        f"  cpus {info['cpu_count']}, python {info['python']}, {info['platform']}, "
        f"commit {info['commit']}"
    )
    print(f"  properties: {json.dumps(report['properties'], sort_keys=True)}")
    print(f"  accesses per phase: {report['accesses_by_phase']}")
    if "ladder" in report:
        for rung in report["ladder"]:
            print(
                f"  ladder {rung['rate']:6.1f} req/s: p50 {rung['p50_s'] * 1000:8.2f} ms, "
                f"p99 {rung['p99_s'] * 1000:8.2f} ms, "
                f"achieved {rung['achieved_rps']:6.1f} req/s, {'pass' if rung['passed'] else 'FAIL'}"
                f" ({rung['attempts']} attempt{'s' if rung['attempts'] > 1 else ''})"
            )
    print(
        f"  attempted {counts['attempted']}, failed {counts['failed']}, wrong {counts['wrong']}"
    )
    for name, metric in metrics.items():
        print(f"  {name:<28} {metric['value']:>14.6g} {metric['unit']}")
    # Reported, not bounded: their spread between runs reaches the widest
    # bound BENCHMARK.json may set (see the module docstring).
    unbounded = {name: report[name] for name in UNBOUNDED}
    for name, value in unbounded.items():
        print(f"  {name:<28} {value:>14.6g} s (not bounded)")
    record = {
        "provenance": info,
        "correct": correct,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": metrics,
        "setups": report["setups"],
        "properties": report["properties"],
        "unbounded": unbounded,
    }
    os.makedirs(WORK, exist_ok=True)
    with open(os.path.join(WORK, "results.jsonl"), "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": counts["attempted"],
                "failed": counts["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        sys.exit(1)
