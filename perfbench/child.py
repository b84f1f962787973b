"""One invocation of the sitepick CLI in a fresh process.

Usage: python3 perfbench/child.py MODE RESULT_JSON [CLI ARGUMENTS...]

MODE is ``setup`` (start the interpreter, import the CLI, exit), ``plain``
(run the CLI untraced) or ``trace`` (install the per-layer wrappers, then
run it). Set-up ends when ``sitepick.cli`` has been imported: the result
holds that CLOCK_MONOTONIC reading, and the parent subtracts its own
reading taken just before it spawned this process. Everything the program
does not import itself is imported after that point.
"""

import time

import sitepick.cli

READY = time.clock_gettime(time.CLOCK_MONOTONIC)

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


SELF, CHILDREN = resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN


def _cpu_s(usage: resource.struct_rusage) -> float:
    return usage.ru_utime + usage.ru_stime


def main() -> None:
    mode, result_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    result = {"ready": READY, "module": sitepick.cli.__file__}
    if mode != "setup":
        tracer = None
        if mode == "trace":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        own, workers = resource.getrusage(SELF), resource.getrusage(CHILDREN)
        start = time.perf_counter()
        try:
            code = sitepick.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        wall_s = time.perf_counter() - start
        own_end, workers_end = resource.getrusage(SELF), resource.getrusage(CHILDREN)
        sys.stdout.flush()
        result.update(
            code=code,
            wall_s=wall_s,
            cpu_s=_cpu_s(own_end) - _cpu_s(own) + _cpu_s(workers_end) - _cpu_s(workers),
            worker_cpu_s=_cpu_s(workers_end) - _cpu_s(workers),
            # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN gives the largest
            # of the waited-for pool workers.
            peak_rss_mb=max(own_end.ru_maxrss, workers_end.ru_maxrss) / 1024.0,
        )
        if tracer is not None:
            result.update(layers=tracer.report(), absent=tracer.absent)
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()
