"""The charpoly benchmark: one workload, timed end to end or traced by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify|expand|char --seed N \\
        --seconds S --trace 0|1 [--size full|tiny]

Every repetition is a fresh interpreter (``perfbench/worker.py``) that
imports ``charpoly.cli`` and runs the workload's request list through
``charpoly.cli.main``, so the library's global caches start empty and
their fill is paid each time, as on every CLI invocation.  Repetitions
run one at a time (a closed loop with one client) for ``--seconds``.

The host is shared: its speed for one process swings by tens of
percent within seconds and by more between minutes, and how much
depends on what the neighbours do (computing on the sibling core,
thrashing memory, taking the core away).  No fixed loop slows down like
the program under all of these.  So every timing is taken against a
yardstick that does: ``perfbench/baseline/charpoly`` is a frozen copy of
the library as it was when this benchmark was defined, which no change
to ``src`` touches.  ``--trace 0`` runs pairs of repetitions, the
program and the copy on the same input, taking turns on the core every
``SLICE_S`` (see ``launch_pair``), with set-up-only launches of both
between pairs, and reports the end-to-end metrics of BENCHMARK.json:

* ``setup_s``: the time from launching the interpreter until
  ``charpoly.cli`` is imported, in each set-up-only launch of the
  program (two per pair, at least ``SETUP_LAUNCHES``), over the same
  time in the adjacent launch of the copy; the median of these ratios
  times ``REF_SETUP_S``, the copy's set-up time on the machine in
  ``meta.json``.  A launch is short enough that the host either takes
  the core away during it or not, so medians of the two sides apart
  swing, while the median ratio of neighbouring launches holds;
* ``wall_s``: the time of the request list after set-up, summed over
  the program's repetitions, over the same sum for the copy, times
  ``REF_WALL_S[workload]``, the copy's time on that machine: the time
  the request list would take there.  Each side's time is the CPU time
  of its process, which for this single-threaded program that waits on
  nothing is its wall time less the time it was stopped or the host
  ran something else; since the two sides alternate every
  ``SLICE_S``, the swings of the host cancel in the ratio;
* ``peak_rss_mb``: median peak resident memory of the program's
  repetitions.

Pairs come in twos, in both orders.  The summary lines print the raw
times of both sides.

``--trace 1`` alternates untraced repetitions with traced ones, whose
spans (see ``spans.py``) give the per-layer metrics, and reports
``trace.overhead_ratio``, the median traced wall time over the median
untraced one.

Every output is checked outside the timed region by ``checks.py``.  The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` (requests with an exception, a nonzero exit or a wrong
output) and ``metrics``; the lines before it are a readable summary,
including the failure ratio and the spread of each timing.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from spans import derive

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BASELINE = HERE / "baseline"
WORKER = HERE / "worker.py"
SPANS_DIR = ROOT / ".perfbench"

SETUP_LAUNCHES = 20  # set-up samples of each side per run, at least
# Median times of the frozen copy on the machine in meta.json, full size.
REF_SETUP_S = 0.12
REF_WALL_S = {"verify": 2.55, "expand": 3.9, "char": 2.55}
MIN_REPS = 2  # per kind of repetition, even past --seconds
SLICE_S = 0.05  # how long one side of a pair runs before the other gets the core
BUDGET_S = 140.0  # no repetition starts when it would end past this


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="full")
    return parser.parse_args(argv)


class Launcher:
    """Starts worker processes and keeps every sample they return."""

    def __init__(self, requests: list[list[str]], src: Path, started: float):
        self.requests = json.dumps(requests)
        self.env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.setup: list[float] = []
        self.started = started

    def launch(self, *flags: str) -> dict | None:
        """Run one worker; returns its document, or None if it broke."""
        stdin = "" if "--setup-only" in flags else self.requests
        remaining = BUDGET_S + 20 - (time.perf_counter() - self.started)
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(WORKER), *flags], input=stdin, capture_output=True,
                text=True, env=self.env, cwd=ROOT, timeout=max(remaining, 1.0))
        except subprocess.TimeoutExpired:
            print("worker timed out", file=sys.stderr)
            return None
        if proc.returncode != 0:
            print(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}", file=sys.stderr)
            return None
        doc = json.loads(proc.stdout)
        self.setup.append(doc["ready"] - t0)
        return doc

    def elapsed(self) -> float:
        return time.perf_counter() - self.started


def launch_pair(sides: tuple[Launcher, Launcher]) -> list[dict] | None:
    """One repetition of each side, taking turns on the core every ``SLICE_S``.

    Both workers start at once, so their set-up overlaps and is not
    sampled; the first side runs while the second is stopped (SIGSTOP),
    and every ``SLICE_S`` they swap, until one ends and the other runs
    alone.  Each worker reports the CPU time of its request list, which
    stands still while it is stopped, so both sides are timed over the
    same stretch of the host's swings.  Returns the two documents in the
    order of ``sides``, or None if a worker broke.
    """
    SPANS_DIR.mkdir(exist_ok=True)
    procs: list[subprocess.Popen] = []
    outputs = [tempfile.TemporaryFile("w+", dir=SPANS_DIR) for _ in sides]
    try:
        for side, out in zip(sides, outputs):
            proc = subprocess.Popen([sys.executable, str(WORKER)], stdin=subprocess.PIPE,
                                    stdout=out, text=True, env=side.env, cwd=ROOT)
            procs.append(proc)
            proc.stdin.write(side.requests)
            proc.stdin.close()
        procs[1].send_signal(signal.SIGSTOP)
        running = 0
        while any(proc.poll() is None for proc in procs):
            if sides[0].elapsed() > BUDGET_S + 20:
                print("worker timed out", file=sys.stderr)
                return None
            time.sleep(SLICE_S)
            alive = [i for i, proc in enumerate(procs) if proc.poll() is None]
            if len(alive) == 2:
                procs[running].send_signal(signal.SIGSTOP)
                running = 1 - running
            elif alive:
                running = alive[0]
            if alive:
                procs[running].send_signal(signal.SIGCONT)
        docs = []
        for proc, out in zip(procs, outputs):
            if proc.returncode != 0:
                print(f"worker exited {proc.returncode}", file=sys.stderr)
                return None
            out.seek(0)
            docs.append(json.loads(out.read()))
        return docs
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        for out in outputs:
            out.close()


def _spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"median={values[0]:.6g} n=1" if values else "n=0"
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (f"median={statistics.median(values):.6g} q1={q1:.6g} q3={q3:.6g} "
            f"min={min(values):.6g} max={max(values):.6g} n={len(values)}")


def _verify_checks(requests, results) -> int:
    total = 0
    for argv, result in zip(requests, results):
        if argv[0] == "verify":
            report = [ln for ln in result["out"].splitlines() if not ln.startswith("#")]
            match = re.search(r"(\d+) checks$", report[-1]) if report else None
            total += int(match.group(1)) if match else 0
    return total


def layer_metrics(spans_file: Path, doc: dict, requests, suites) -> dict[str, float]:
    """Per-layer metrics of one traced repetition."""
    out = derive(spans_file)
    for layer in ("tableaux", "characters"):
        # A cache that a later version removes reads as empty.
        entries, hits, misses = doc["caches"].get(layer, (0, 0, 0))
        out[f"{layer}.cache_entries"] = entries
        out[f"{layer}.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    for suite, func_name in suites.items():
        out[f"verification.suite_s.{suite}"] = out.get(f"verification.{func_name}.s", 0.0)
    out["verification.oracle_s"] = (out.get("verification.syt_count_backtracking.s", 0.0)
                                    + out.get("verification.border_strips_bruteforce.s", 0.0))
    out["verification.checks"] = _verify_checks(requests, doc["results"])
    out["binom_poly.s"] = out["binom_poly.self_s"]
    return out


def main(argv: list[str]) -> int:
    args = _parse_args(argv)
    if not (SRC / "charpoly" / "cli.py").is_file():
        print(f"error: no charpoly sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import charpoly
    import checks
    import workloads
    from charpoly.verification import SUITES

    if Path(charpoly.__file__).resolve().parent != SRC / "charpoly":
        print(f"error: imported charpoly from {charpoly.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS or args.size not in workloads.SIZES:
        print(f"error: unknown workload {args.workload!r} or size {args.size!r}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    suites = {name: func.__name__ for name, func in SUITES}
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    requests = workloads.requests(args.workload, seed, args.size)
    started = time.perf_counter()
    launcher = Launcher(requests, SRC, started)
    baseline = Launcher(requests, BASELINE, started)
    for side in (launcher, baseline):
        if side.launch("--setup-only") is None:  # compiles bytecode; not a sample
            return 1
        side.setup.clear()

    plain: list[dict] = []  # untraced repetitions of the program
    base: list[dict] = []  # repetitions of the frozen copy, paired with plain
    traced: list[tuple[dict, dict]] = []
    last_rep = 0.0
    while True:
        plain_done = len(plain) >= MIN_REPS
        traced_done = not args.trace or len(traced) >= MIN_REPS
        # Untraced pairs come in twos, one in each order, so an order effect
        # cancels: after an even count the next step is two pairs.
        step = last_rep if args.trace else 2 * last_rep
        if args.trace or len(plain) % 2 == 0:
            if launcher.elapsed() + step > args.seconds and plain_done and traced_done:
                break
        if launcher.elapsed() + last_rep > BUDGET_S:
            break
        rep_started = launcher.elapsed()
        if args.trace and len(traced) < len(plain):
            SPANS_DIR.mkdir(exist_ok=True)
            spans_file = SPANS_DIR / f"spans-{args.workload}.bin"
            doc = launcher.launch("--trace", str(spans_file))
            if doc is None:
                return 1
            traced.append((doc, layer_metrics(spans_file, doc, requests, suites)))
        elif args.trace:
            doc = launcher.launch()
            if doc is None:
                return 1
            plain.append(doc)
        else:
            order = (launcher, baseline) if len(plain) % 2 else (baseline, launcher)
            for side in order + order[::-1]:
                if side.launch("--setup-only") is None:
                    return 1
            docs = launch_pair(order)
            if docs is None:
                return 1
            pair = dict(zip(order, docs))
            plain.append(pair[launcher])
            base.append(pair[baseline])
        last_rep = launcher.elapsed() - rep_started
    while not args.trace and len(launcher.setup) < SETUP_LAUNCHES:
        order = (launcher, baseline) if len(launcher.setup) % 2 else (baseline, launcher)
        for side in order:
            if side.launch("--setup-only") is None:
                return 1

    verdicts: dict[tuple[int, object, str], str | None] = {}
    attempted = failed = 0
    for doc in plain + [doc for doc, _ in traced]:
        for i, (argv, result) in enumerate(zip(requests, doc["results"])):
            key = (i, result["code"], result["out"])
            if key not in verdicts:
                verdicts[key] = checks.check(argv, result["code"], result["out"])
                if verdicts[key]:
                    print(f"FAILED {' '.join(argv)[:120]}: {verdicts[key]} "
                          f"{result['err'][-200:]}")
            attempted += 1
            failed += verdicts[key] is not None

    walls = [doc["wall_s"] for doc in plain]
    print(f"workload={args.workload} seed={seed} size={args.size} "
          f"requests={len(requests)} python={sys.version.split()[0]} nproc={os.cpu_count()}")
    print(f"fail_ratio {failed}/{attempted} = {failed / attempted:.4g} ratio")
    print(f"raw wall_s {_spread(walls)} s")
    if args.trace:
        traced_walls = [doc["wall_s"] for doc, _ in traced]
        print(f"traced wall_s {_spread(traced_walls)} s")
        derived = [layer for _, layer in traced]
        for layer in derived:
            layer["trace.overhead_ratio"] = (statistics.median(traced_walls)
                                             / statistics.median(walls))
        section = spec["per_layer"]
    else:
        rss = [doc["peak_rss_kb"] / 1024 for doc in plain]
        cpus = [doc["cpu_s"] for doc in plain]
        base_cpus = [doc["cpu_s"] for doc in base]
        print(f"raw cpu_s {_spread(cpus)} s")
        print(f"baseline raw cpu_s {_spread(base_cpus)} s")
        print(f"program/baseline cpu per pair "
              f"{_spread([c / b for c, b in zip(cpus, base_cpus)])}")
        # launcher.setup[i] and baseline.setup[i] come from adjacent launches.
        setup_ratios = [a / b for a, b in zip(launcher.setup, baseline.setup)]
        print(f"raw setup_s {_spread(launcher.setup)} s")
        print(f"baseline raw setup_s {_spread(baseline.setup)} s")
        print(f"program/baseline setup per pair {_spread(setup_ratios)}")
        print(f"peak_rss_mb {_spread(rss)} MB")
        derived = [{"setup_s": REF_SETUP_S * statistics.median(setup_ratios),
                    "wall_s": REF_WALL_S[args.workload] * sum(cpus) / sum(base_cpus),
                    "peak_rss_mb": statistics.median(rss)}]
        section = spec["end_to_end"]
    metrics = {}
    for entry in section:
        value = statistics.median(d.get(entry["name"], 0) for d in derived)
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        if args.trace:
            print(f"{entry['name']} {value:.6g} {entry['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    # SIGTERM becomes SystemExit, so launch_pair still ends its workers.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main(sys.argv[1:]))
