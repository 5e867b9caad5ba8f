"""Set-up child: import phmaps, generate one workload's inputs, time both.

    python3 perfbench/probe.py --workload NAME --seed N [--expect]

Prints one JSON line {"setup_s": ..., "expect": [...] | null}. With --expect
it also computes the oracle values for every input (after the timing ends), so
their memory and time stay out of the parent's measurements.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--expect", action="store_true")
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))

    start = time.perf_counter()
    import phmaps  # noqa: F401  (its import time is part of set-up)
    import workloads

    wl = workloads.WORKLOADS[args.workload]()
    workdir = workloads.make_workdir("probe")
    try:
        cases, _ = wl.build(args.seed, workdir)
        setup_s = time.perf_counter() - start
        expect = [wl.expect(c) for c in cases] if args.expect else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"setup_s": setup_s, "expect": expect}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
