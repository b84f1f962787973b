#!/usr/bin/env python3
"""Alternating parent/change pairs of the perfbench benchmark, written as a
BENCH_*.json entry.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --workload W \\
        --pairs N --seed S -o BENCH_n.json

Each pair runs ``python3 perfbench/run.py --workload W --seed S --seconds 40
--trace 0`` once from the root of each checkout, the parent first in odd
pairs and the change first in even ones. The last line a run prints must be
perfbench's JSON result, with ``correct`` true and no failed operation; if
one is not, the script stops with exit 1 and writes nothing. The output
keeps every run's values and, per side, the quartiles of each end-to-end
metric that BENCHMARK.json declares. An existing output file keeps its
other workloads, so one file can collect all of them. Standard library
only.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SECONDS = 40
# perfbench stops its own runs by 180 s; this only catches a hung process.
TIMEOUT_S = 300


def quartiles(values: "list[float]") -> "dict[str, float]":
    """q1, median and q3 (inclusive method), rounded to 4 decimals."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": round(q1, 4), "median": round(median, 4), "q3": round(q3, 4)}


def summarise(runs: "list[dict]", metrics: "list[str]") -> "dict[str, dict[str, float]]":
    return {name: quartiles([run[name] for run in runs]) for name in metrics}


def better_in_pairs(
    parent: "list[dict]", change: "list[dict]", better: "dict[str, str]"
) -> "dict[str, int]":
    """Pairs in which the change beat the parent, per metric; ties count for neither."""
    sign = {"lower": 1, "higher": -1}
    return {
        name: sum(sign[way] * (p[name] - c[name]) > 0 for p, c in zip(parent, change))
        for name, way in better.items()
    }


def _no_constant(name: str) -> None:
    raise ValueError(f"{name} is not JSON")


def run_once(checkout: Path, workload: str, seed: int, pair: int) -> dict:
    """One perfbench run from checkout; exits 1 unless its last line is a
    result of a correct run with no failed operation."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(SECONDS), "--trace", "0"]
    where = f"{checkout} pair {pair}"
    try:
        done = subprocess.run(command, cwd=checkout, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"error: {where}: perfbench did not finish within {TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1], parse_constant=_no_constant) if lines else None
    except ValueError:
        result = None
    if not isinstance(result, dict) or not isinstance(result.get("metrics"), dict):
        sys.exit(f"error: {where}: last stdout line is not a result\n{done.stderr[-2000:]}")
    if result.get("correct") is not True or result.get("failed") != 0:
        sys.exit(f"error: {where}: invalid run, correct={result.get('correct')} "
                 f"failed={result.get('failed')}\n{done.stderr[-2000:]}")
    row = {"pair": pair, "correct": result["correct"], "attempted": result["attempted"],
           "failed": result["failed"]}
    row.update({name: round(m["value"], 4) for name, m in result["metrics"].items()})
    print(f"{checkout.name} pair {pair}: " + ", ".join(f"{k}={v}" for k, v in row.items()),
          file=sys.stderr)
    return row


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent commit checkout")
    parser.add_argument("--change", type=Path, required=True, help="changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("-o", "--output", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be >= 2 to have quartiles")

    declared = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in declared["end_to_end"]}
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs: "dict[str, list[dict]]" = {"parent": [], "change": []}
    for pair in range(1, args.pairs + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(sides[side], args.workload, args.seed, pair))

    entry = {"pairs": args.pairs}
    for side in ("parent", "change"):
        entry[side] = {"summary": summarise(runs[side], list(better)), "runs": runs[side]}
    entry["change_better_in_pairs"] = better_in_pairs(runs["parent"], runs["change"], better)

    document = {}
    if args.output.exists():
        document = json.loads(args.output.read_text(encoding="utf-8"))
    document.update(
        command=f"python3 perfbench/run.py --workload W --seed {args.seed} "
                f"--seconds {SECONDS} --trace 0",
        seed=args.seed,
        machine=f"{platform.machine()}, Python {platform.python_version()}",
        method="parent and change run from separate checkouts in alternating order "
               "(the parent first in odd pairs); each run's values are perfbench's "
               "medians over that run's CLI invocations",
    )
    document.setdefault("workloads", {})[args.workload] = entry
    args.output.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
