"""Benchmark of fss: time to a certified solution, and per-layer counts.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the root of a checkout.  The seed generates the workload's config
(see workloads.py); each run starts a fresh worker process (worker.py) with
the BLAS thread counts pinned to 1.  With ``--trace 0`` the worker measures
the end-to-end metrics for ``--seconds``.  With ``--trace 1`` an untraced
and a traced worker share the budget; the traced one gives the per-layer
metrics, and the difference of their total times is the tracing overhead.

The last line printed is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
details (outputs, sample counts, every layer metric and the environment).
Exits 2 without a result when the checkout has no ``src/fss`` package,
and 3 when no repetition of the pipeline completed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS, make_config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
BENCHMARK = ROOT / "BENCHMARK.json"

# Every run must end within 180 s; workers get what is left of this.
RUN_BUDGET_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _worker(workload, workdir: Path, seconds, trace, deadline):
    """Run worker.py in a fresh process and return its result."""
    result = workdir / f"result-{'trace' if trace else 'plain'}.json"
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--workdir", str(workdir), "--seconds", repr(seconds),
           "--result", str(result)] + (["--trace"] if trace else [])
    with open(workdir / "worker.log", "a") as log:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=log,
                              timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with {proc.returncode}; "
                         f"see {workdir / 'worker.log'}")
    with open(result) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S
    if not (ROOT / "src" / "fss" / "__init__.py").is_file():
        print(f"error: no fss package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: need --seed >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    with open(BENCHMARK) as fh:
        spec = json.load(fh)

    workdir = OUT / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    with open(workdir / "config.json", "w") as fh:
        json.dump(make_config(args.workload, args.seed, str(workdir)), fh,
                  indent=1)

    budget = args.seconds / 2 if args.trace else args.seconds
    runs = [_worker(args.workload, workdir, budget, traced, deadline)
            for traced in range(args.trace + 1)]
    if not all(r["samples"] for r in runs):
        failures = "; ".join(f for r in runs for f in r["failures"])
        print(f"error: no repetition completed: {failures}", file=sys.stderr)
        return 3
    plain, layers = runs[0], None
    values, wanted = plain["metrics"], spec["end_to_end"]
    if args.trace:
        traced = runs[1]
        layers = dict(traced["layers"], **{"trace.overhead_s": (
            traced["metrics"]["total_s"] - plain["metrics"]["total_s"])})
        values, wanted = layers, spec["per_layer"]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(len(r["failures"]) for r in runs)
    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "samples": [r["samples"] for r in runs],
        "setup_samples": [r["setup_samples"] for r in runs],
        "check_fail_frac": failed / max(attempted, 1),
        "failures": [f for r in runs for f in r["failures"]],
        "outputs": plain["outputs"],
        "end_to_end": plain["metrics"],
        "layers": layers,
        "untraced_targets": runs[-1].get("missing_targets"),
        "environment": plain["environment"],
    }
    print(json.dumps({"details": details}))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
