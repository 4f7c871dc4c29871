"""Run the approximation chain on a grid of (N, p, s, weight, alpha)
corners and record how each one ends.

The grid has 150 corners:

* N = 1 on (0, 1) with h = 1/32 and N = 2 on the unit square with
  h = 1/12, both with collar 1/4;
* p in ``PS`` and s in ``SS``;
* alpha in {0.3, 1} with the weight 1 everywhere, and alpha in
  {1, 1.5, 3} with the compact bump of radius 0.3 centred in the domain
  (the ``compact-bump`` weight kind of the configs; alpha > 1 needs a
  weight that vanishes near the boundary).

Each corner builds a fresh kernel and times one ``run_chain`` with the
default schedule and options.  Its record holds the outcome
(``converged``, ``not_converged``, ``error`` for a package error, or
``crash`` for any other exception, with its traceback), the error's
type, message and the level, Newton step and alpha it carries, the
chain's levels and Newton steps (the levels' ``fp_sweeps`` plus the
polish's), the wall time, the limit's weak residual over the 200 probes
of seed 42 against the 1e-6 bound of ``fss verify``, and
``monotone_gap``.  The summary counts the outcomes, the converged
corners whose residual meets the bound, and the Newton steps and wall
time of the converged corners.  BLAS should run on one thread, as in the
benchmark, so set the thread variables in the shell.

Usage, from the root of a checkout:

    OPENBLAS_NUM_THREADS=1 python3 tools/corners.py [PACKAGE_DIR]

PACKAGE_DIR defaults to src/fss.  Prints one JSON document.  Standard
library and numpy only.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
import traceback
from pathlib import Path

H = {1: 1.0 / 32, 2: 1.0 / 12}
COLLAR = 0.25
PS = (1.2, 1.5, 2.0, 3.0, 6.0)
SS = (0.1, 0.5, 0.9)
WEIGHTS = (("one", 0.3), ("one", 1.0),
           ("bump", 1.0), ("bump", 1.5), ("bump", 3.0))
BUMP_RADIUS = 0.3
R = 3.0
RESIDUAL_TRIALS = 200
RESIDUAL_SEED = 42
RESIDUAL_BOUND = 1e-6
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def import_fss(package: Path):
    """The fss of ``package``, imported in this process."""
    sys.path.insert(0, str(package.resolve().parent))
    import fss

    if not Path(fss.__file__).resolve().is_relative_to(package.resolve()):
        raise SystemExit(f"fss was imported from {fss.__file__}, not {package}")
    return fss


def weight(fss, grid, kind: str):
    import numpy

    if kind == "one":
        return fss.WeightField(numpy.ones(grid.interior_count), grid, r=R)
    t2 = ((grid.interior - 0.5) ** 2).sum(axis=1) / BUMP_RADIUS**2
    values = numpy.zeros(grid.interior_count)
    inside = t2 < 1.0
    values[inside] = numpy.exp(1.0 - 1.0 / (1.0 - t2[inside]))
    return fss.WeightField(values, grid, r=R)


def corner(fss, n_dim: int, p: float, s: float, kind: str,
           alpha: float) -> dict:
    """Run one chain and describe how it ended."""
    grid = fss.build_grid([(0.0, 1.0)] * n_dim, H[n_dim], COLLAR)
    omega = weight(fss, grid, kind)
    kernel = fss.build_kernel(grid, fss.FracParams(s=s, p=p, n_dim=n_dim))
    record = {"N": n_dim, "p": p, "s": s, "weight": kind, "alpha": alpha,
              "M": grid.interior_count}
    started = time.perf_counter()
    try:
        chain = fss.run_chain(omega, alpha, kernel)
    except Exception as err:  # every way a corner can end is recorded
        record["wall_s"] = time.perf_counter() - started
        named = isinstance(err, fss.FssError)
        record |= {
            "outcome": "error" if named else "crash",
            "error_type": type(err).__name__,
            "error": str(err),
            "error_level": getattr(err, "level", None),
            "error_step": getattr(err, "sweep", None),
            "error_alpha": getattr(err, "alpha", None),
        }
        if not named:
            record["traceback"] = traceback.format_exc()
        return record
    record["wall_s"] = time.perf_counter() - started
    record |= {
        "outcome": "converged" if chain.converged else "not_converged",
        "levels": len(chain.levels),
        "newton_steps": (sum(rec.fp_sweeps for rec in chain.levels)
                         + chain.polish_sweeps),
        "monotone_gap": chain.monotone_gap(),
        "weak_residual": None,
    }
    if chain.converged:
        try:
            residual = fss.weak_residual(chain.u_alpha, omega, alpha, kernel,
                                         RESIDUAL_TRIALS, RESIDUAL_SEED)
        except fss.FssError as err:
            record["residual_error"] = str(err)
        else:
            record["weak_residual"] = residual.max_residual
    record["residual_ok"] = (record["weak_residual"] is not None
                             and record["weak_residual"] <= RESIDUAL_BOUND)
    return record


def summary(records: list[dict]) -> dict:
    converged = [rec for rec in records if rec["outcome"] == "converged"]
    outcomes: dict[str, int] = {}
    for rec in records:
        outcomes[rec["outcome"]] = outcomes.get(rec["outcome"], 0) + 1
    return {
        "corners": len(records),
        "outcomes": outcomes,
        "converged_residual_ok": sum(rec["residual_ok"] for rec in converged),
        "converged_newton_steps": sum(rec["newton_steps"]
                                      for rec in converged),
        "converged_wall_s": sum(rec["wall_s"] for rec in converged),
        "wall_s": sum(rec["wall_s"] for rec in records),
    }


def environment() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine(),
            "threads": {name: os.environ.get(name) for name in _THREAD_VARS}}


def main(argv: list[str]) -> int:
    fss = import_fss(Path(argv[0] if argv else "src/fss"))
    records = []
    for n_dim in sorted(H):
        for p in PS:
            for s in SS:
                for kind, alpha in WEIGHTS:
                    records.append(corner(fss, n_dim, p, s, kind, alpha))
        print(f"N={n_dim} done", file=sys.stderr)
    print(json.dumps({
        "environment": environment(),
        "grid": {"h": {str(n): f"1/{round(1 / h)}" for n, h in H.items()},
                 "collar": COLLAR, "bump_radius": BUMP_RADIUS, "r": R,
                 "residual_trials": RESIDUAL_TRIALS,
                 "residual_seed": RESIDUAL_SEED,
                 "residual_bound": RESIDUAL_BOUND},
        "summary": summary(records),
        "corners": records,
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
