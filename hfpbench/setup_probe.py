"""Set-up of one workload in a fresh interpreter, for the ``setup_s`` metric.

Run as ``python3 hfpbench/setup_probe.py <workload> <seed>``.  It imports
`hfp`, loads and validates the workload's problems exactly as the measured
run does, and prints one JSON line: ``ready``, the ``time.perf_counter()``
at which the first measured operation would start, plus the calibration
time ``spent`` and the ``scale`` to reference seconds (see ``clock.py``).
The parent reads the same monotonic clock before it starts this process, so
the difference covers interpreter start, imports, problem load and
validation.
"""
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from clock import Sampler  # noqa: E402


def main() -> int:
    name, seed = sys.argv[1], int(sys.argv[2])
    with Sampler() as clock:
        from inputs import FULL
        from workloads import WORKLOADS  # imports hfp

        WORKLOADS[name](seed, FULL, workdir=None).setup()
        ready = time.perf_counter()
    print(json.dumps({"ready": ready, "spent": clock.spent, "scale": clock.scale(0)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
