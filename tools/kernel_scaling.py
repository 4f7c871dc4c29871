"""Time the 2D kernel build, one p = 2 solve and their memory peak as the
lattice is refined.

For each spacing h in 1/12, 1/24, 1/48, 1/64, 1/96 and 1/128 on the unit
square (collar 1/4, s = 1/2, p = 2), a fresh Python process builds the
kernel for at least two seconds (three builds at least) and, after each
build, runs one ``solve_nonsingular`` with the constant datum 1 on the
fresh kernel.  It reports the median ``build_kernel`` and solve wall
times, the solve's conjugate-gradient iterations, whether the kernel
holds the dense stiffness matrix K and the M x M interior table W after
the solve, the ``tracemalloc`` peak of one more build, and the process's
peak RSS (builds and solves).  At h = 1/24 and 1/48 it also times
p = 2, alpha = 1 approximation chains (``run_chain``), each on a fresh
kernel so that the one-time work on the weight's support counts, with
the compact bump of ``configs/solve_2d.json`` (centre (1/2, 1/2), radius
0.3, r = 3).  The chains run in ``CHAIN_PROCESSES`` fresh processes per
package of ``CHAINS`` chains each, and the packages take turns process
by process, the first of each round alternating, so that a drift in
machine speed falls on all of them alike.  The point reports the
chains' median wall time with its quartiles over all of them, their
levels and the support size.  The BLAS thread counts are pinned to 1.
At h = 1/96 (M = 9025) W alone is 650 MB, and K as much again; at
h = 1/128 (M = 16129) W would be 2.1 GB.  So a package whose kernel held
W at its previous point is not run where W would exceed
``TABLE_LIMIT_MB``, and the point records why.

Usage, from the root of a checkout:

    python3 tools/kernel_scaling.py [[NAME=]PACKAGE_DIR ...]

PACKAGE_DIR defaults to src/fss.  With several package directories the
points are run in turn, one package after the other at each h, so that a
drift in machine speed falls on all of them alike.  Prints one JSON
document, keyed by NAME (the directory when no name is given).  Standard
library and numpy only.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

SPACINGS = (12, 24, 48, 64, 96, 128)  # h = 1/n
TABLE_LIMIT_MB = 1000
COLLAR = 0.25
S, P = 0.5, 2.0
MIN_BUILDS = 3
MAX_BUILDS = 100
SECONDS = 2.0
CHAIN_SPACINGS = (24, 48)
CHAINS = 3
CHAIN_PROCESSES = 10
BUMP_RADIUS = 0.3
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def import_fss(package: Path, n: int):
    """The fss of ``package``, imported in this process, with the h = 1/n
    grid and the p = 2 parameters."""
    sys.path.insert(0, str(package.resolve().parent))
    import fss

    if not Path(fss.__file__).resolve().is_relative_to(package.resolve()):
        raise SystemExit(f"fss was imported from {fss.__file__}, not {package}")
    grid = fss.build_grid([(0.0, 1.0), (0.0, 1.0)], 1.0 / n, COLLAR)
    return fss, grid, fss.FracParams(s=S, p=P, n_dim=2)


def measure(package: Path, n: int) -> dict:
    """Build the h = 1/n kernel and solve on it with the fss of
    ``package`` in this process."""
    import numpy

    fss, grid, params = import_fss(package, n)
    datum = numpy.ones(grid.interior_count)
    # solve_nonsingular returns only the field, so the iteration count is
    # read from the conjugate-gradient routine it calls.
    iterations: list[int] = []
    conjugate_gradients = fss.solver._conjugate_gradients

    def counted(*args, **kwargs):
        result = conjugate_gradients(*args, **kwargs)
        iterations.append(result[1])
        return result

    fss.solver._conjugate_gradients = counted
    times: list[float] = []
    solve_times: list[float] = []
    started = time.perf_counter()
    while len(times) < MAX_BUILDS and (
            len(times) < MIN_BUILDS or time.perf_counter() - started < SECONDS):
        t = time.perf_counter()
        kernel = fss.build_kernel(grid, params)
        times.append(time.perf_counter() - t)
        t = time.perf_counter()
        fss.solve_nonsingular(datum, kernel)
        solve_times.append(time.perf_counter() - t)
        stiffness_built = "stiffness" in kernel.__dict__
        w_interior_built = "w_interior" in kernel.__dict__
        del kernel
    fss.solver._conjugate_gradients = conjugate_gradients
    tracemalloc.start()
    fss.build_kernel(grid, params)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {
        "h": f"1/{n}",
        "M": grid.interior_count,
        "C": int(grid.collar.shape[0]),
        "builds": len(times),
        "build_s_median": statistics.median(times),
        "solve_s_median": statistics.median(solve_times),
        "cg_iterations": sorted(set(iterations)),
        "stiffness_built": stiffness_built,
        "w_interior_built": w_interior_built,
        "tracemalloc_peak_mb": peak / 1e6,
        "max_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1e3,
        "interior_table_mb": table_mb(n),
    }


def table_mb(n: int) -> float:
    """Size of W on the h = 1/n unit square, (n - 1)^2 interior nodes."""
    return 8 * (n - 1) ** 4 / 1e6


def time_chains(package: Path, n: int) -> dict:
    """Wall times of ``CHAINS`` alpha = 1 chains with the compact bump
    weight on the h = 1/n grid, each on a fresh kernel, with their levels
    and the number of nodes the weight covers."""
    import numpy

    fss, grid, params = import_fss(package, n)
    t2 = ((grid.interior - 0.5) ** 2).sum(axis=1) / BUMP_RADIUS**2
    values = numpy.zeros(grid.interior_count)
    inside = t2 < 1.0
    values[inside] = numpy.exp(1.0 - 1.0 / (1.0 - t2[inside]))
    omega = fss.WeightField(values, grid, r=3.0)
    times, levels = [], set()
    for _ in range(CHAINS):
        kernel = fss.build_kernel(grid, params)
        t = time.perf_counter()
        result = fss.run_chain(omega, 1.0, kernel)
        times.append(time.perf_counter() - t)
        levels.add(len(result.levels))
        del kernel, result
    return {"times": times, "levels": sorted(levels),
            "support_nodes": int(inside.sum())}


def chain_summary(runs: list[dict]) -> dict:
    """The median and quartiles of the chain times of all ``runs``."""
    times = [t for run in runs for t in run["times"]]
    q1, median, q3 = statistics.quantiles(times, n=4)
    return {"chain_s_median": median, "chain_s_q1": q1, "chain_s_q3": q3,
            "chains": len(times), "chain_processes": len(runs),
            "chain_levels": sorted({k for run in runs for k in run["levels"]}),
            "support_nodes": runs[0]["support_nodes"]}


def environment() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine(),
            "threads": {name: "1" for name in _THREAD_VARS}}


def main(argv: list[str]) -> int:
    if argv and argv[0] in ("--one", "--chains"):
        run = measure if argv[0] == "--one" else time_chains
        print(json.dumps(run(Path(argv[1]), int(argv[2]))))
        return 0
    packages = {}
    for arg in argv or ["src/fss"]:
        name, _, path = arg.rpartition("=")
        packages[name or path] = Path(path)
    env = dict(os.environ, **{name: "1" for name in _THREAD_VARS})

    def run(mode: str, package: Path, n: int) -> dict:
        return json.loads(subprocess.run(
            [sys.executable, __file__, mode, str(package), str(n)],
            env=env, check=True, capture_output=True, text=True).stdout)

    points: dict[str, list] = {name: [] for name in packages}
    for n in SPACINGS:
        for name, package in packages.items():
            done = points[name]
            if (table_mb(n) > TABLE_LIMIT_MB and done
                    and done[-1].get("w_interior_built", False)):
                done.append({"h": f"1/{n}", "M": (n - 1) ** 2,
                             "skipped": f"held W at {done[-1]['h']}; here "
                                        f"W is {table_mb(n):.0f} MB"})
                print(f"{name} h=1/{n} skipped", file=sys.stderr)
                continue
            done.append(run("--one", package, n))
            print(f"{name} h=1/{n} done", file=sys.stderr)
        if n in CHAIN_SPACINGS:
            runs: dict[str, list] = {name: [] for name in packages}
            order = list(packages)
            for _ in range(CHAIN_PROCESSES):
                for name in order:
                    runs[name].append(run("--chains", packages[name], n))
                order.reverse()
            for name in packages:
                points[name][-1] |= chain_summary(runs[name])
            print(f"h=1/{n} chains done", file=sys.stderr)
    print(json.dumps({"environment": environment(), "collar": COLLAR,
                      "s": S, "p": P, "seconds": SECONDS, "points": points},
                     indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
