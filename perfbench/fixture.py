"""The remote source for remote-store: a lookup server in its own process.

``python3 perfbench/fixture.py WIDTH FANOUT LATENCY`` serves
``wide_fanout_example(WIDTH, FANOUT)`` over the program's loopback lookup
protocol (``FixtureServer``), with ``LATENCY`` seconds of injected delay per
lookup, prints its URL, and exits when its standard input closes — so it
never outlives the benchmark that started it.
"""

import sys

from repro.examples import wide_fanout_example
from repro.sources.fixture_server import FixtureServer


def main() -> None:
    width, fanout, latency = int(sys.argv[1]), int(sys.argv[2]), float(sys.argv[3])
    example = wide_fanout_example(width, fanout)
    with FixtureServer(example.instance, latency=latency) as server:
        print(server.url, flush=True)
        sys.stdin.read()


if __name__ == "__main__":
    main()
