"""Run one benchmark workload in this process and write what it measured.

run.py starts this script in a fresh process per run, with the BLAS thread
counts already pinned to 1 in its environment, and reads the JSON result
file it writes.  The timed pipeline is repeated while the time budget
lasts; stage times are reported as medians over the repetitions.

    python3 perfbench/worker.py --workload NAME --workdir DIR
        --seconds S --result FILE [--trace]
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from tracing import Tracer, layer_metrics, span_table, unit_of
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# Set-ups and check stages are sampled beyond the one per repetition, in
# step with the time used, so that their samples spread over the whole run
# as those of the other stages do.  Set-ups are sampled until they take
# SETUP_FLOOR_S or number MAX_SETUPS (a set-up can take well under a
# millisecond); check stages until they take CHECK_FLOOR_S (a check stage
# can take a tenth of a second).  The first WARM_SETUPS set-ups, timed before
# the repetitions, also warm the import and first-call paths.
WARM_SETUPS = 3
SETUP_FLOOR_S = 0.5
MAX_SETUPS = 200
CHECK_FLOOR_S = 2.0

clock = time.perf_counter


def environment() -> dict:
    """The machine and library versions the numbers were measured on."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {"nproc": os.cpu_count(), "python": platform.python_version(),
           "numpy": numpy.__version__, "scipy": scipy.__version__,
           "blas": f"{blas.get('name')} {blas.get('version')}",
           "threads": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_NUM_THREADS")}}
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu"] = next((line.split(":", 1)[1].strip() for line in fh
                               if line.startswith("model name")), None)
    except OSError:
        env["cpu"] = None
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            if level in ("2", "3"):
                env[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    return env


def _import_fss():
    sys.path.insert(0, str(SRC))
    import fss
    import fss.cli

    if not Path(fss.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"fss was imported from {fss.__file__}, not {SRC}")
    return fss


class Checks:
    """Counts correctness checks; keeps the names of those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def __call__(self, name: str, ok) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(name)
        return bool(ok)


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def setup(fss, config_path: str):
    cfg = fss.config.load_config(config_path)
    grid, _, kernel = fss.config.build_geometry(cfg)
    omega = fss.config.build_weight(cfg, grid)
    return cfg, kernel, omega


# Each pipeline runs one repetition and returns its stage times, its outputs
# and a callable that runs the check stage again, counts its checks and
# returns its wall time.


def chain_rep(fss, config_path, out: Path, check: Checks):
    """`fss solve` then `fss verify` on the solution it wrote."""
    run = fss.cli.run_command
    cfg = _read_json(Path(config_path))
    solution, report = cfg["output"]["solution"], str(out / "verify.json")

    def verify():
        t = clock()
        ok = run(["verify", "--config", config_path, "--solution", solution,
                  "--report", report]) == 0
        elapsed = clock() - t
        check("verify exit code", ok)
        if ok:
            check("verify report passed", _read_json(report)["passed"] is True)
        return elapsed

    t0 = clock()
    _, kernel, _ = setup(fss, config_path)
    t1 = clock()
    solved = check("solve exit code",
                   run(["solve", "--config", config_path]) == 0)
    t2 = clock()
    verify_s = verify() if solved else 0.0
    t3 = clock()
    outputs = {"M": kernel.interior_count}
    if solved:
        meta = _read_json(solution)["metadata"]
        levels = _read_json(cfg["output"]["diagnostics"])
        check("chain converged", levels["converged"] and meta["converged"])
        outputs.update({k: meta[k] for k in ("lambda", "mu") if k in meta})
        outputs["levels"] = len(levels["levels"])
        outputs["polish_sweeps"] = levels["polish_sweeps"]
    return ((t1 - t0, t2 - t1, verify_s, t3 - t0), outputs,
            verify if solved else None)


def sweep_rep(fss, config_path, out: Path, check: Checks):
    """`fss sweep` then `fss props`."""
    run = fss.cli.run_command
    cfg = _read_json(Path(config_path))
    report = str(out / "props.json")

    def props():
        t = clock()
        ok = run(["props", "--config", config_path, "--out", report]) == 0
        elapsed = clock() - t
        check("props exit code", ok)
        if ok:
            check("props passed", _read_json(report)["passed"] is True)
        return elapsed

    t0 = clock()
    _, kernel, _ = setup(fss, config_path)
    t1 = clock()
    swept = check("sweep exit code",
                  run(["sweep", "--config", config_path]) == 0)
    t2 = clock()
    props_s = props()
    t3 = clock()
    outputs = {"M": kernel.interior_count}
    if swept:
        with open(cfg["output"]["sweep_csv"]) as fh:
            rows = [line.split(",") for line in fh.read().split()[1:]]
        check("sweep converged", rows and all(r[-1] == "true" for r in rows))
        outputs["lambda"] = [float(r[1]) for r in rows]
        mu = _read_json(cfg["output"]["mu_report"])
        outputs.update(mu_direct=mu["mu_direct"], mu_sweep=mu["mu_sweep"],
                       trend=mu["trend"])
    return (t1 - t0, t2 - t1, props_s, t3 - t0), outputs, props


def solve_rep(fss, config_path, out: Path, check: Checks):
    """build_kernel plus one solve_nonsingular with the weight as datum."""
    ops = fss.operators
    t0 = clock()
    cfg, kernel, omega = setup(fss, config_path)
    t1 = clock()
    opts = cfg.chain_options.solve
    u = fss.solver.solve_nonsingular(omega.values, kernel, opts)
    t2 = clock()
    rhs = kernel.grid.measure * omega.values
    outputs = {"M": kernel.interior_count,
               "collar_nodes": kernel.grid.collar.shape[0],
               "max_u": float(u.values.max())}

    def identities():
        t = clock()
        residual = float(abs(ops.apply_operator(u, kernel) - rhs).max())
        # Euler identity of the p-homogeneous energy: [u]^p = <A u, u>, and
        # at the solution <A u, u> = rhs . u up to grad_tol * |u|_1.
        energy = ops.seminorm_p(u, kernel)
        duality = ops.pairing(u, u, kernel)
        work = float(rhs @ u.values)
        elapsed = clock() - t
        slack = opts.grad_tol * float(abs(u.values).sum())
        check("operator residual within grad_tol", residual <= opts.grad_tol)
        check("energy identity", abs(energy - work) <= slack + 1e-12 * energy)
        check("duality identity", abs(energy - duality) <= 1e-10 * energy)
        outputs["seminorm_p"] = energy
        return elapsed

    check_s = identities()
    t3 = clock()
    return (t1 - t0, t2 - t1, check_s, t3 - t0), outputs, identities


PIPELINES = {"chain": chain_rep, "sweep": sweep_rep, "solve": solve_rep}
# cpu_total_s is the process CPU time of a repetition; against total_s it
# shows how long the worker waited for a core.
STAGES = ("setup_s", "solve_s", "verify_s", "total_s", "cpu_total_s")
VERIFY, TOTAL = STAGES.index("verify_s"), STAGES.index("total_s")


def _top_up(samples, stage, floor_s, max_count, progress):
    """Sample ``stage`` until ``progress`` of the floor or count is reached."""
    while (stage is not None and sum(samples) < floor_s * progress
           and len(samples) < max_count * progress):
        samples.append(stage())


def measure(fss, kind, config_path, out, seconds, tracer=None):
    """Repeat the workload's pipeline while the time budget lasts."""
    check = Checks()
    rep = PIPELINES[kind]
    start = clock()

    def timed_setup():
        t = clock()
        setup(fss, config_path)
        return clock() - t

    setups = [timed_setup() for _ in range(WARM_SETUPS)]
    reps, layers, spans, first, checks = [], [], [], None, []
    while True:
        if tracer is not None:
            tracer.reset()
        cpu = time.process_time()
        try:
            times, outputs, recheck = rep(fss, config_path, out, check)
        except Exception as err:  # a crash is a failed check, not a result
            traceback.print_exc()
            check(f"{kind} pipeline raised {type(err).__name__}: {err}", False)
            break
        reps.append(times + (time.process_time() - cpu,))
        setups.append(times[0])
        checks.append(times[VERIFY])
        if first is None:
            first = outputs
        else:
            check("outputs repeat", outputs == first)
        if tracer is not None:
            layers.append(layer_metrics(tracer.spans))
            spans.append([list(s) for s in tracer.spans])
        elapsed = clock() - start
        last = elapsed + statistics.median(r[TOTAL] for r in reps) > seconds
        progress = 1.0 if last else min(elapsed / seconds, 1.0)
        _top_up(checks, recheck, CHECK_FLOOR_S, math.inf, progress)
        # The re-run holds the repetition's arrays (the 2D kernel is 94 MB);
        # drop it so that they do not count towards the next set-up's memory.
        recheck = None
        _top_up(setups, timed_setup, SETUP_FLOOR_S, MAX_SETUPS, progress)
        if last:
            break

    result = {"samples": len(reps), "rep_totals": [r[TOTAL] for r in reps],
              "setup_samples": len(setups),
              "check_samples": len(checks), "outputs": first,
              "environment": environment()}
    if reps:
        metrics = {name: statistics.median(r[i] for r in reps)
                   for i, name in enumerate(STAGES)}
        metrics["setup_s"] = statistics.median(setups)
        metrics["verify_s"] = statistics.median(checks)
        metrics["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["metrics"] = metrics
    if layers:
        result["layers"] = _layer_medians(layers, check)
        result["missing_targets"] = tracer.missing
        with open(out / "spans.json", "w") as fh:
            json.dump({"fields": ["name", "parent", "start", "end", "info"],
                       "by_name": [span_table(s) for s in spans],
                       "reps": spans}, fh)
    result["attempted"] = check.attempted
    result["failures"] = check.failures
    return result


def _layer_medians(layers, check):
    """Times as medians over repetitions; counts must repeat exactly."""
    merged = {}
    for name in layers[0]:
        values = [layer[name] for layer in layers]
        if unit_of(name) in ("s", "ms"):
            merged[name] = statistics.median(values)
        else:
            check(f"count {name} repeats", len(set(values)) == 1)
            merged[name] = values[0]
    return merged


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    fss = _import_fss()
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    out = Path(args.workdir)
    result = measure(fss, WORKLOADS[args.workload]["kind"],
                     str(out / "config.json"), out, args.seconds, tracer)
    with open(args.result, "w") as fh:
        json.dump(result, fh, allow_nan=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
