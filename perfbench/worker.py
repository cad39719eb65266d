"""One timed repetition of a workload, in a fresh interpreter.

Run by ``run.py`` as ``python3 perfbench/worker.py [--setup-only]
[--trace SPANS_FILE]`` with ``src``, or the frozen copy in
``perfbench/baseline``, on ``PYTHONPATH``.  The first thing it does is
import ``charpoly.cli``; the clock reading right after that import ends
the set-up interval, which the parent started just before launching
this process (``perf_counter`` is system-wide on Linux).

It then reads a JSON list of CLI argument lists on stdin, runs each one
through ``charpoly.cli.main`` in this process, so the library caches
start empty and fill as a CLI user's would, and writes one JSON object
to stdout: set-up end, wall and CPU time of the requests, peak RSS and,
per request, the exit code and captured output.  A ``--setup-only``
launch stops after the import.
"""

import time

import charpoly.cli

READY = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def run_requests(requests: list[list[str]]) -> tuple[float, float, list[dict]]:
    """Wall seconds, CPU seconds and per-request results of ``requests``."""
    results = []
    started, cpu_started = time.perf_counter(), time.process_time()
    for argv in requests:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = charpoly.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crashing request is a failed request
            code = None
            err.write(f"{type(exc).__name__}: {exc}")
        results.append({"code": code, "out": out.getvalue(), "err": err.getvalue()[-500:]})
    return time.perf_counter() - started, time.process_time() - cpu_started, results


def cache_stats() -> dict[str, list[int]]:
    """cache_info() of the library's global caches that exist."""
    stats = {}
    for layer, attr in (("tableaux", "_skew_count"), ("characters", "_mn")):
        func = getattr(getattr(charpoly, layer), attr, None)
        if func is not None and hasattr(func, "cache_info"):
            info = func.cache_info()
            stats[layer] = [info.currsize, info.hits, info.misses]
    return stats


def peak_rss_kb() -> int:
    """Peak resident memory of this process image, in KiB.

    VmHWM starts afresh at exec; ru_maxrss can carry over the parent's
    peak, so it is only the fallback where /proc is missing.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv: list[str]) -> int:
    if "--setup-only" in argv:
        print(json.dumps({"ready": READY}))
        return 0
    tracer = None
    if "--trace" in argv:
        from spans import Tracer  # this script's directory is sys.path[0]

        tracer = Tracer()
        tracer.install()
    requests = json.load(sys.stdin)
    wall, cpu, results = run_requests(requests)
    doc = {"ready": READY, "wall_s": wall, "cpu_s": cpu, "peak_rss_kb": peak_rss_kb(),
           "results": results}
    if tracer is not None:
        tracer.dump(Path(argv[argv.index("--trace") + 1]))
        doc["caches"] = cache_stats()
    sys.stdout.write(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
