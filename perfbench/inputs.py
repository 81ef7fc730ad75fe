"""Seeded inputs and oracles for the benchmark workloads.

Everything a run feeds the engine is derived here from ``--seed`` with
``random.Random``, on top of the ``repro.examples`` generators.  The engine
host process (``host.py``) rebuilds the same instances from the same
parameters, so the program only ever receives generated schemas, instances
and query texts.  Oracles are computed here, in the benchmark's own process
and outside any timed region.
"""

from __future__ import annotations

import bisect
import itertools
import random
from typing import Dict, FrozenSet, List, Sequence, Tuple

Row = Tuple[object, ...]

#: The scenario topologies merged into the served instance.
SERVE_MIX = ("star", "diamond", "chain", "cycle")
#: Keyed variants of the four scenario queries: ``{c}`` is a constant bound
#: to an input position, so the constant alone feeds that access and a new
#: constant costs fresh accesses.  Each entry names the relation and
#: position whose stored values are the in-instance candidates.
VARIANTS = (
    (
        "q(Y1) <- w0_spoke1('{c}', Y1, B1), w0_spoke2('{c}', Y2, B2), w0_spoke3('{c}', Y3, B3)",
        "w0_hub",
        0,
    ),
    ("q(Z) <- w1_left('{c}', L, A1), w1_right('{c}', R, A2), w1_sink(L, R, Z)", "w1_src", 0),
    ("q(X4) <- w2_s1('{c}', X2, A1), w2_s2(X2, X3, A2), w2_s3(X3, X4, A3)", "w2_free", 1),
    ("q(Z) <- w3_step('{c}', Y, A1), w3_step(Y, Z, A2)", "w3_step", 0),
)
#: Constants per variant that match no source row (a lookup for a missing
#: key still costs its accesses), on top of the in-instance ones.
MISSES_PER_VARIANT = 40
ZIPF_EXPONENT = 1.1


class Zipf:
    """Draws ranks ``0..n-1`` with probability proportional to ``1/(rank+1)^s``."""

    def __init__(self, n: int, exponent: float = ZIPF_EXPONENT) -> None:
        self.cumulative = list(
            itertools.accumulate(1.0 / float(rank + 1) ** exponent for rank in range(n))
        )

    def draw(self, rng: random.Random) -> int:
        point = rng.random() * self.cumulative[-1]
        return min(bisect.bisect_right(self.cumulative, point), len(self.cumulative) - 1)


def variant_constants(instance, rng: random.Random) -> List[List[str]]:
    """Per variant, its candidate constants in (seeded) zipf rank order."""
    universe = []
    for _, relation, position in VARIANTS:
        values = sorted({str(row[position]) for row in instance.relation(relation).as_set()})
        values += [f"{values[0]}_miss{j}" for j in range(MISSES_PER_VARIANT)]
        rng.shuffle(values)
        universe.append(values)
    return universe


def serve_mix_stream(workload, seed: int, count: int, stream_tag: int) -> List[Dict[str, object]]:
    """``count`` requests: half scenario repeats, half zipf-keyed variants,
    a quarter of them sent to ``/query/stream``.

    Each request is ``{"text", "stream", "base"}``; ``base`` is the scenario
    index of an exact repeat, or None for a variant.  The constants' zipf
    ranks are drawn from ``seed`` alone, so every phase of one run shares
    them; ``stream_tag`` separates the phases' request sequences.
    """
    universe = variant_constants(workload.instance, random.Random(seed))
    rng = random.Random(f"{seed}:{stream_tag}")
    zipfs = [Zipf(len(values)) for values in universe]
    # Shares are exact within every block of four requests (two repeats, one
    # stream), so runs of different seeds differ only in which queries they
    # draw, not in how many of each kind.
    block: List[Tuple[bool, bool]] = []
    requests = []
    for _ in range(count):
        if not block:
            repeats = [True, True, False, False]
            streams = [True, False, False, False]
            rng.shuffle(repeats)
            rng.shuffle(streams)
            block = list(zip(repeats, streams))
        repeat, stream = block.pop()
        if repeat:
            base = rng.randrange(len(workload.queries))
            text = workload.queries[base].text
        else:
            base = None
            index = rng.randrange(len(VARIANTS))
            constant = universe[index][zipfs[index].draw(rng)]
            text = VARIANTS[index][0].replace("{c}", constant)
        requests.append({"text": text, "stream": stream, "base": base})
    return requests


def serve_mix_oracle(workload, requests: Sequence[Dict[str, object]]) -> Dict[str, FrozenSet[Row]]:
    """Expected answers per distinct query text.

    Scenario repeats use the generator's expected answers; variants are
    answered by a naive-strategy run (a different strategy from the ones
    served) on a private engine.
    """
    from repro import Engine

    oracle = {query.text: query.expected_answers for query in workload.queries}
    engine = Engine(workload.schema, workload.instance)
    for request in requests:
        text = request["text"]
        if text not in oracle:
            oracle[text] = engine.execute(text, strategy="naive").answers
    engine.close()
    return oracle


# -- remote-store ----------------------------------------------------------
#: Mid-tier values per key: a new key costs ``REMOTE_FANOUT + 2`` accesses.
REMOTE_FANOUT = 23
REMOTE_KEYS = 200
#: Closed-loop queries per phase (one phase = one fresh store file).
REMOTE_QUERIES = 400
REMOTE_LATENCY = 0.002
REMOTE_MAX_IN_FLIGHT = 4
#: The key of the query that warms each remote-store engine up.
WARM_KEY = 0


def remote_params() -> Dict[str, object]:
    return {"width": REMOTE_KEYS, "fanout": REMOTE_FANOUT}


def remote_keys(seed: int, count: int = REMOTE_QUERIES) -> List[int]:
    """The keyed query sequence: every fourth query asks for a new key.

    New keys come in a seeded order (never the warm-up query's key); every other query repeats a key
    already asked for, drawn by zipf over the keys in the order they first
    appeared.  Each seed therefore has the same share of new keys, and so
    the same accesses per query, while the sequence itself differs.
    """
    rng = random.Random(f"remote:{seed}")
    fresh = [key for key in range(REMOTE_KEYS) if key != WARM_KEY]
    rng.shuffle(fresh)
    zipf = Zipf(count)
    seen: List[int] = []
    keys = []
    for index in range(count):
        if index % 4 == 0:
            seen.append(fresh.pop())
            keys.append(seen[-1])
        else:
            rank = zipf.draw(rng)
            while rank >= len(seen):
                rank = zipf.draw(rng)
            keys.append(seen[rank])
    return keys


def remote_query(key: int) -> str:
    return (
        f"q(X3) <- seed('u{key}', A0), fan('u{key}', X2, A1), collect(X2, X3, A2)"
    )


def remote_expected(key: int) -> FrozenSet[Row]:
    """Answers of :func:`remote_query` over ``wide_fanout_example``'s data."""
    return frozenset((f"z{key}_{j}",) for j in range(REMOTE_FANOUT))
