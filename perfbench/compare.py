"""Compare two result sets of the benchmark: parent against change.

Run alternating pairs of both checkouts with the same benchmark code, then
judge them::

    python3 perfbench/compare.py pairs --parent ../parent --change . \\
        --workload serve-mix --pairs 10 --out .perfbench/cmp
    python3 perfbench/compare.py verdict .perfbench/cmp/parent.jsonl \\
        .perfbench/cmp/change.jsonl

``pairs`` runs this directory's ``run.py`` against each checkout's
``src/`` (``--root``), alternating which side goes first, one seed per pair.
``verdict`` prints one line per workload and metric: ``improved``, ``no
worse``, ``worse`` or ``unresolved``, by these rules:

* ``accesses_per_query`` is the paper's cost and deterministic per seed: it
  is compared exactly, seed by seed.
* A gain needs the change to win at least 9 of 10 pairs (ties count for
  neither side) and the medians to differ by more than the parent's own
  spread (the distance between its quartiles).
* A metric is ``worse`` when the change's median is worse than the parent's
  by more than the metric's ``bound`` in ``BENCHMARK.json``.
* When the parent's spread is wider than the bound, the metric is
  ``unresolved`` unless every change run beats every parent run.

Per-layer metrics (traced runs) have no bound; they are listed with their
medians for reading, without a verdict.  Exit code 1 when any verdict is
``worse``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path: str) -> Dict[Tuple[str, int], Dict[str, float]]:
    """(workload, seed) -> metric values, from run records (JSON lines).

    Traced runs are filed under ``WORKLOAD+trace``; a later record of the
    same workload and seed replaces an earlier one.
    """
    runs = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            info = record.get("provenance", record)
            workload = info["workload"] + ("+trace" if info.get("trace") else "")
            values = {name: metric["value"] for name, metric in record["metrics"].items()}
            runs[(workload, int(info["seed"]))] = values
    return runs


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def judge(
    name: str,
    parent: List[float],
    change: List[float],
    spec: Optional[Dict[str, object]],
) -> str:
    """The verdict for one metric over seed-aligned parent/change values."""
    if spec is None:
        return "info"
    lower = spec["better"] == "lower"

    def better(a: float, b: float) -> bool:
        return a < b if lower else a > b

    if name == "accesses_per_query":
        if all(c == p for c, p in zip(change, parent)):
            return "no worse"
        if all(not better(p, c) for c, p in zip(change, parent)):
            return "improved"
        return "worse"
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    spread = p3 - p1
    bound = float(spec["bound"]) * abs(pm)
    wins = sum(better(c, p) for c, p in zip(change, parent))
    if spread > bound:
        if all(better(c, p) for c in change for p in parent):
            return "improved"
        return "unresolved"
    if wins >= 0.9 * len(parent) and better(cm, pm) and abs(cm - pm) > spread:
        return "improved"
    if better(pm, cm) and abs(cm - pm) > bound:
        return "worse"
    return "no worse"


def verdict(args: argparse.Namespace) -> int:
    with open(args.benchmark, encoding="utf-8") as handle:
        benchmark = json.load(handle)
    specs = {metric["name"]: metric for metric in benchmark["end_to_end"]}
    parent, change = load(args.parent), load(args.change)
    worse = False
    for workload in sorted({key[0] for key in parent} & {key[0] for key in change}):
        seeds = sorted(
            seed for (w, seed) in parent if w == workload and (w, seed) in change
        )
        if not seeds:
            continue
        print(f"{workload}: {len(seeds)} pairs (seeds {seeds[0]}..{seeds[-1]})")
        names = parent[(workload, seeds[0])].keys()
        for name in names:
            p = [parent[(workload, s)][name] for s in seeds]
            c = [change[(workload, s)][name] for s in seeds]
            result = judge(name, p, c, specs.get(name))
            worse |= result == "worse"
            p1, pm, p3 = quartiles(p)
            c1, cm, c3 = quartiles(c)
            print(
                f"  {name:<28} parent {pm:12.6g} [{p1:.6g}, {p3:.6g}]  "
                f"change {cm:12.6g} [{c1:.6g}, {c3:.6g}]  {result}"
            )
    return 1 if worse else 0


def run_side(root: str, workload: str, seed: int, seconds: int, trace: int) -> Dict[str, object]:
    argv = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--root", root,
    ]
    out = subprocess.run(argv, capture_output=True, text=True, check=False)
    if out.returncode != 0:
        raise SystemExit(f"run failed in {root} (seed {seed}): {out.stderr.strip()[-500:]}")
    record = json.loads(out.stdout.strip().splitlines()[-1])
    record.update(workload=workload, seed=seed, trace=trace)
    return record


def pairs(args: argparse.Namespace) -> int:
    os.makedirs(args.out, exist_ok=True)
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    files = {side: open(os.path.join(args.out, f"{side}.jsonl"), "a", encoding="utf-8") for side in sides}
    try:
        for index in range(args.pairs):
            seed = args.first_seed + index
            order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
            for side in order:
                record = run_side(sides[side], args.workload, seed, args.seconds, args.trace)
                files[side].write(json.dumps(record) + "\n")
                files[side].flush()
                print(f"pair {index + 1}/{args.pairs} seed {seed}: {side} done", flush=True)
    finally:
        for handle in files.values():
            handle.close()
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    judge_parser = commands.add_parser("verdict", help="judge two result sets")
    judge_parser.add_argument("parent")
    judge_parser.add_argument("change")
    judge_parser.add_argument(
        "--benchmark", default=os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    )
    run_parser = commands.add_parser("pairs", help="run alternating parent/change pairs")
    run_parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    run_parser.add_argument("--change", required=True, help="checkout of the change")
    run_parser.add_argument("--workload", required=True)
    run_parser.add_argument("--pairs", type=int, default=10)
    run_parser.add_argument("--first-seed", type=int, default=1)
    run_parser.add_argument("--seconds", type=int, default=40)
    run_parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run_parser.add_argument("--out", required=True, help="directory for parent/change .jsonl")
    args = parser.parse_args()
    return verdict(args) if args.command == "verdict" else pairs(args)


if __name__ == "__main__":
    sys.exit(main())
