"""The hfp benchmark.

    python3 hfpbench/run.py --workload minnorm --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout; `hfp` need not be installed, the
benchmark puts ``src`` on the path.  With ``--trace 0`` it measures set-up
in fresh interpreters, then runs whole rounds of the workload for
``--seconds`` and prints the end-to-end metrics.  With ``--trace 1`` it
alternates untraced and traced rounds, prints the per-layer metrics from the
traced ones plus the tracing overhead, and writes the spans to
``hfpbench/.out/``.  Every round's answers are checked.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from clock import Sampler

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / ".out"

SETUP_REPEATS = 7  # fresh interpreters per run; setup_s is their median
SETUP_TIMEOUT_S = 60


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong: list = []

    def add(self, rnd):
        self.attempted += rnd.attempted
        self.failed += rnd.failed
        self.wrong.extend(rnd.wrong)


def setup_seconds(workload: str, seed: int, tally: Tally) -> list:
    times = []
    for _ in range(SETUP_REPEATS):
        tally.attempted += 1
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            tally.failed += 1
            print(f"set-up failed: {proc.stderr.strip()[-500:]}", file=sys.stderr)
            continue
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append((probe["ready"] - start - probe["spent"]) * probe["scale"])
    return times


def keep_going(started: float, seconds: float, durations: list) -> bool:
    """Start another round only if a typical one still fits in the window."""
    if not durations:
        return True
    return time.perf_counter() - started + statistics.median(durations) <= seconds


def timed_round(workload, clock, tally: Tally, tracer=None):
    """One round; returns it and its wall seconds per reference second."""
    mark, t0 = clock.mark(), time.perf_counter()
    if tracer is None:
        rnd = workload.round()
    else:
        with tracer:
            rnd = workload.round(tracer)
    tally.add(rnd)
    return rnd, time.perf_counter() - t0, 1.0 / clock.scale(mark)


def untraced(workload, seconds: float, tally: Tally) -> dict:
    started = time.perf_counter()
    rounds, durations, slowness = [], [], []
    with Sampler() as clock:
        workload.clock = clock
        while keep_going(started, seconds, durations):
            rnd, wall, slow = timed_round(workload, clock, tally)
            rounds.append(rnd)
            durations.append(wall)
            slowness.append(slow)
    ok = [r for r in rounds if not r.failed and r.solve_s > 0]
    print(
        f"{len(rounds)} rounds of {statistics.median(durations):.3f} s wall; "
        f"wall seconds per reference second {min(slowness):.3f}..{max(slowness):.3f}",
        file=sys.stderr,
    )
    metrics = {}
    if ok:  # a workload whose every round fails still reports its counts
        metrics["run_s"] = (statistics.median(r.run_s for r in ok), "s")
        metrics["iters_per_s"] = (statistics.median(r.iterations / r.solve_s for r in ok), "1/s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics


def traced(workload, tracer, seconds: float, tally: Tally, dump_path: str) -> dict:
    from spans import Summary

    started = time.perf_counter()
    plain, spanned, durations = [], [], []
    with Sampler() as clock:
        workload.clock = clock
        while keep_going(started, seconds, durations):
            rnd, wall, _ = timed_round(workload, clock, tally)
            rnd_traced, wall_traced, _ = timed_round(workload, clock, tally, tracer)
            durations.append(wall + wall_traced)
            if not rnd.failed and not rnd_traced.failed:
                plain.append(rnd.run_s)
                spanned.append(rnd_traced.run_s)
    metrics = Summary(tracer, len(durations)).metrics()
    if plain:
        overhead = statistics.median(spanned) / statistics.median(plain) - 1.0
        metrics["trace.overhead_pct"] = (100.0 * overhead, "%")
    tracer.dump(dump_path)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("minnorm", "dykstra_power", "hypotheses"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (ROOT / "src" / "hfp" / "__init__.py", ROOT / "problems" / "minnorm.cfg") if not p.is_file()]
    if missing:
        print(f"not a source checkout of hfp: missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from inputs import FULL
    from workloads import WORKLOADS, Operation

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"tmp-{tag}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    metrics = {}
    try:
        if not args.trace:
            times = setup_seconds(args.workload, args.seed, tally)
            if times:
                metrics["setup_s"] = (statistics.median(times), "s")
        workload = WORKLOADS[args.workload](args.seed, FULL, str(workdir))
        tracer, ready = None, False
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
        # a set-up that raises counts as failed, a wrong one as a wrong answer
        with Operation(tally, "set-up"):
            with tracer or contextlib.nullcontext():  # set-up is traced too: it holds the validation layers
                workload.setup()
            workload.prepare_checks()
            ready = True
        if ready and args.trace:
            metrics.update(traced(workload, tracer, args.seconds, tally, str(OUT / f"spans-{args.workload}")))
        elif ready:
            metrics.update(untraced(workload, args.seconds, tally))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for message in tally.wrong:
        print(f"wrong answer: {message}", file=sys.stderr)
    result = {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    line = json.dumps(result)
    (OUT / f"result-{tag}.json").write_text(line + "\n", encoding="utf-8")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
