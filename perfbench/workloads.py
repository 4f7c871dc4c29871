"""The benchmark's workloads and the seeded configs they run on.

Standard library only, so that run.py can generate the inputs before any
worker process (and numpy) starts.  The seed draws two things: the centre
and radius of the compact weight bump, inside ranges that keep its support
well inside the unit box, and the config's ``verification.seed``.  The
program sees only the generated config file.
"""

from __future__ import annotations

import random

DEFAULT_SEED = 1

# Centre offset from the box middle and radius of the bump.  The support stays
# at least 0.14 from the boundary, and the ranges are narrow enough that the
# chain walks the same number of levels on every seed.
CENTRE_JITTER = 0.04
RADIUS_RANGE = (0.28, 0.32)

TOLERANCES = {"grad": 1e-10, "fixed_point": 1e-9, "chain": 1e-7}

UNIT_1D = [[0.0, 1.0]]
UNIT_2D = [[0.0, 1.0], [0.0, 1.0]]

# kind: "chain" runs `fss solve` then `fss verify`; "sweep" runs `fss sweep`
# then `fss props`; "solve" builds the kernel and calls solve_nonsingular once.
# Why each workload exists is in README.md and BENCHMARK.json.
WORKLOADS = {
    "chain2d_p2": {
        "kind": "chain", "box": UNIT_2D, "h": 1.0 / 24, "collar": 0.25,
        "p": 2.0, "problem": {"alpha": 1.0},
    },
    "chain1d_p3": {
        "kind": "chain", "box": UNIT_1D, "h": 1.0 / 256, "collar": 0.5,
        "p": 3.0, "problem": {"alpha": 0.5},
    },
    "sweep1d": {
        "kind": "sweep", "box": UNIT_1D, "h": 0.03125, "collar": 0.5,
        "p": 2.0, "problem": {"alpha_grid": [0.90, 0.925, 0.95, 0.975, 0.99]},
    },
    "solve2d_large": {
        "kind": "solve", "box": UNIT_2D, "h": 1.0 / 48, "collar": 0.25,
        "p": 2.0, "problem": {"alpha": 1.0},
    },
}


def make_config(workload: str, seed: int, outdir: str) -> dict:
    """The config of ``workload`` for ``seed``, writing its outputs in outdir."""
    spec = WORKLOADS[workload]
    rng = random.Random(seed)
    n_dim = len(spec["box"])
    centre = [0.5 + rng.uniform(-CENTRE_JITTER, CENTRE_JITTER)
              for _ in range(n_dim)]
    radius = rng.uniform(*RADIUS_RANGE)
    return {
        "grid": {"box": spec["box"], "h": spec["h"],
                 "collar_width": spec["collar"], "tail_enabled": True},
        "params": {"s": 0.5, "p": spec["p"]},
        "weight": {"kind": "compact-bump", "r": 3.0, "center": centre,
                   "radius": radius, "amplitude": 1.0},
        "problem": dict(spec["problem"], tolerances=TOLERANCES),
        "verification": {"trials": 1000, "seed": seed},
        "output": {
            "solution": f"{outdir}/solution.json",
            "diagnostics": f"{outdir}/levels.json",
            "sweep_csv": f"{outdir}/sweep.csv",
            "mu_report": f"{outdir}/mu.json",
        },
    }
