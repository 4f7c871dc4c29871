"""Self-test of the benchmark: traced counts repeat exactly across runs.

    python3 perfbench/selftest.py [--seed N] [WORKLOAD ...]

Runs the traced pass (``run.py --trace 1``) twice on one seed for each
workload (all of them by default), each time in fresh worker processes,
and exits 1 unless both passes are correct and every count metric (all
layer metrics that are not times) is identical.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from tracing import unit_of
from workloads import DEFAULT_SEED, WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def traced_pass(workload: str, seed: int):
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=400, check=True,
    ).stdout.strip().splitlines()
    details, result = json.loads(out[-2])["details"], json.loads(out[-1])
    counts = {k: v for k, v in details["layers"].items()
              if unit_of(k) not in ("s", "ms")}
    return result["correct"], counts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("workloads", nargs="*", metavar="WORKLOAD")
    args = ap.parse_args(argv)
    unknown = set(args.workloads) - set(WORKLOADS)
    if unknown:
        ap.error(f"unknown workloads: {', '.join(sorted(unknown))}")
    ok = True
    for workload in args.workloads or sorted(WORKLOADS):
        (correct_a, a), (correct_b, b) = (traced_pass(workload, args.seed)
                                          for _ in range(2))
        differ = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
        passed = correct_a and correct_b and not differ
        ok = ok and passed
        print(f"{workload}: {'ok' if passed else 'FAIL'} ({len(a)} counts"
              + (f"; differ: {', '.join(differ)}" if differ else "")
              + ("" if correct_a and correct_b else "; a check failed") + ")")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
