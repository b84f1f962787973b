#!/usr/bin/env python3
"""Benchmark of the sitepick pipeline, end to end and by module.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload study-w2 --seed 1 --seconds 40 --trace 0

The command generates the workload's survey from --seed, then runs the
``sitepick`` CLI from ``src/`` again and again, each time in a fresh
process, as long as one more run still ends within --seconds (always whole
runs, at least one). After every run it checks the artifacts against its
own computations, outside the timings. One operation is one quadrant
carried from input to checked artifacts; it fails when the CLI exits
non-zero or a check rejects that quadrant.

With --trace 0 it prints the medians of the end-to-end metrics over those
runs. With --trace 1 it runs rounds of an untraced run and a traced run
(serial, since tracing inside forked pool workers would be lost) and prints
the per-layer metrics. The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import checks
import gen

HERE = Path(__file__).resolve().parent
# Interpreter start plus import, timed apart from the runs: median of these
# probes and of the set-up of every timed run.
SETUP_PROBES = 3
# Every run of this command must end within 180 s.
DEADLINE_S = 165.0


@dataclass(frozen=True)
class Workload:
    make: Callable[[int], gen.Survey]
    command: str
    options: tuple[str, ...]
    workers: Optional[int]  # None: the command has no sweep
    k_range: Optional[range] = None  # None with a sweep: the CLI default

    def argv(self, survey_path: Path, out_dir: Path, seed: int, workers: Optional[int]) -> "list[str]":
        argv = [self.command, str(survey_path), "-o", str(out_dir), *self.options]
        if workers is not None:
            argv += ["--base-seed", str(seed), "--workers", str(workers)]
        return argv


WORKLOADS = {
    # The paper's setting (67 participants x 5 regions per quadrant, k up to
    # 20) and the only workload using the process pool: Lloyd work dominates.
    "study-w2": Workload(
        make=lambda seed: gen.clustered_survey(seed, ("A", "B", "C", "D"), participants=67, blobs=15),
        command="sweep",
        options=("--k-min", "2", "--k-max", "20", "--runs-per-k", "30"),
        workers=2,
        k_range=range(2, 21),
    ),
    # One large quadrant, default k range, few restarts: rebuilding the n x n
    # distance matrix for every k is the largest part, and sets peak memory.
    "large-n": Workload(
        make=lambda seed: gen.clustered_survey(seed, ("C",), participants=300, blobs=8),
        command="sweep",
        options=("--quadrant", "C", "--runs-per-k", "2"),
        workers=1,
    ),
    # Parsing, weighting and CSV writing of a big survey, no clustering.
    "ingest": Workload(
        make=lambda seed: gen.ingest_survey(seed, rows_per_quadrant=35000),
        command="weights",
        options=(),
        workers=None,
    ),
}


class Session:
    """Runs one workload's CLI invocations in a scratch directory."""

    def __init__(self, root: Path, work: Path, workload: Workload, seed: int) -> None:
        self.root, self.work, self.workload, self.seed = root, work, workload, seed
        self.started = time.monotonic()
        self.survey = workload.make(seed)
        self.survey_path = work / "survey.csv"
        self.survey_path.write_bytes(self.survey.csv_bytes)
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p))
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def time_left(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)

    def fits_another(self, begin: float, seconds: int, round_began: float) -> bool:
        """Whether one more round as long as the last one still ends within
        the measuring window and well before the deadline."""
        now = time.monotonic()
        round_s = now - round_began
        return now - begin + round_s <= seconds and self.time_left() > 1.5 * round_s + 5.0

    def spawn(self, mode: str, argv: "list[str]") -> "tuple[Optional[dict], str]":
        """Run child.py; returns its result (None if it wrote none) and stderr."""
        result_path = self.work / "result.json"
        result_path.unlink(missing_ok=True)
        err_path = self.work / "stderr.txt"
        with open(self.work / "stdout.txt", "wb") as out, open(err_path, "wb") as err:
            spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), mode, str(result_path), *argv],
                cwd=self.root, env=self.env, stdout=out, stderr=err, start_new_session=True,
            )
            try:
                proc.wait(timeout=max(1.0, self.time_left()))
            except subprocess.TimeoutExpired:
                pass
            finally:
                # Pool workers share the session; none may outlive the run.
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        stderr_text = err_path.read_text(encoding="utf-8", errors="replace")
        if not result_path.exists():
            return None, stderr_text
        result = json.loads(result_path.read_text(encoding="utf-8"))
        if not Path(result["module"]).resolve().is_relative_to(self.root / "src"):
            raise SystemExit(f"error: imported {result['module']}, not the checkout's src/")
        result["setup_s"] = result["ready"] - spawned
        return result, stderr_text

    def setup_probe(self) -> float:
        result, stderr_text = self.spawn("setup", [])
        if result is None:
            raise SystemExit(f"error: cannot import sitepick.cli from src/:\n{stderr_text[-2000:]}")
        return result["setup_s"]

    def run(self, mode: str, workers: Optional[int]) -> Optional[dict]:
        """One checked CLI run; returns its measurements, None if it failed."""
        out_dir = self.work / "out"
        shutil.rmtree(out_dir, ignore_errors=True)
        letters = list(self.survey.by_quadrant)
        argv = self.workload.argv(self.survey_path, out_dir, self.seed, workers)
        result, stderr_text = self.spawn(mode, argv)
        self.attempted += len(letters)
        if result is None or result.get("code") != 0:
            self.failed += len(letters)
            code = None if result is None else result.get("code")
            print(f"{mode} run exited with {code}:\n{stderr_text[-2000:]}", file=sys.stderr)
            return None
        if self.workload.command == "weights":
            problems = checks.check_ingest(out_dir, stderr_text, self.survey)
        else:
            problems = checks.check_sweep(out_dir, self.survey, self.workload.k_range)
        for letter, found in problems.items():
            if found:
                self.failed += 1
                self.correct = False
                print(f"quadrant {letter}: " + "; ".join(found[:3]), file=sys.stderr)
        print(f"{mode} run: wall {result['wall_s']:.4f} s, cpu {result['cpu_s']:.4f} s, "
              f"peak rss {result['peak_rss_mb']:.1f} MB, setup {result['setup_s']:.4f} s", file=sys.stderr)
        return result

    def measure(self, seconds: int) -> "dict[str, tuple[float, str]]":
        setups = [self.setup_probe() for _ in range(SETUP_PROBES)]
        runs = []
        begin = round_began = time.monotonic()
        while True:
            result = self.run("plain", self.workload.workers)
            if result is not None:
                runs.append(result)
            if not self.fits_another(begin, seconds, round_began):
                break
            round_began = time.monotonic()
        if not runs:
            raise SystemExit("error: no run of the CLI succeeded")
        setups += [r["setup_s"] for r in runs]
        median = statistics.median
        return {
            "wall_s": (median(r["wall_s"] for r in runs), "s"),
            "cpu_s": (median(r["cpu_s"] for r in runs), "s"),
            "peak_rss_mb": (median(r["peak_rss_mb"] for r in runs), "MB"),
            "setup_s": (median(setups), "s"),
        }

    def trace(self, seconds: int) -> "dict[str, tuple[float, str]]":
        workers = self.workload.workers
        serial = None if workers is None else 1
        rounds = []
        begin = round_began = time.monotonic()
        while True:
            plain = self.run("plain", workers)
            untraced = plain if workers == serial else self.run("plain", serial)
            traced = self.run("trace", serial)
            if plain is None or untraced is None or traced is None:
                raise SystemExit("error: a run of the CLI failed")
            rounds.append({
                **traced["layers"],
                "model_selection.worker_cpu_s": plain["worker_cpu_s"],
                "trace.untraced_wall_s": untraced["wall_s"],
                "trace.traced_wall_s": traced["wall_s"],
                "trace.overhead_s": traced["wall_s"] - untraced["wall_s"],
            })
            if not self.fits_another(begin, seconds, round_began):
                break
            round_began = time.monotonic()
        for metric in traced["absent"]:
            print(f"absent: {metric} (its function is gone from sitepick)")
        declared = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
        units = {m["name"]: m["unit"] for m in declared["per_layer"]}
        return {
            name: (statistics.median(r[name] for r in rounds), unit)
            for name, unit in units.items()
            if name in rounds[0]
        }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "sitepick" / "cli.py").is_file():
        print("error: run from the root of a sitepick checkout (no src/sitepick/cli.py)", file=sys.stderr)
        return 2
    work = root / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        session = Session(root, work, WORKLOADS[args.workload], args.seed)
        metrics = session.trace(args.seconds) if args.trace else session.measure(args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it
    print(json.dumps({
        "correct": session.correct,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
