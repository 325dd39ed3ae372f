"""Run-to-run spread of the benchmark, as the bounds in BENCHMARK.json need it.

    python3 hfpbench/spread.py --workloads minnorm hypotheses --seeds 1-10 [--trace 1]

Runs ``run.py`` once per workload and seed, one run at a time, and prints
for each metric the median, the quartiles and the distance between the
quartiles as a share of the median (``statistics.quantiles(values, n=4)``).
Each run's JSON line is kept in ``hfpbench/.out/spread-<workload>.jsonl``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seeds(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    out = HERE / ".out"
    out.mkdir(exist_ok=True)
    for workload in args.workloads:
        results = []
        with open(out / f"spread-{workload}.jsonl", "a", encoding="utf-8") as log:
            for seed in args.seeds:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                     "--seconds", str(SPEC["run_seconds"]), "--trace", str(args.trace)],
                    capture_output=True, text=True, timeout=300, cwd=HERE.parent,
                )
                line = proc.stdout.strip().splitlines()[-1] if proc.returncode == 0 else ""
                log.write(line + "\n")
                if not line:
                    print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                    continue
                results.append(json.loads(line))
        print(f"{workload}: {len(results)} runs, correct {all(r['correct'] for r in results)}, "
              f"failed/attempted {[(r['failed'], r['attempted']) for r in results]}")
        for name in results[0]["metrics"] if results else ():
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("nan")
            print(f"  {name:45s} median {median:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  iqr/median {spread:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
