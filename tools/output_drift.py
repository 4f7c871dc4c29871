"""How far the CLI outputs of one checkout of fss drift from another's.

    python3 tools/output_drift.py OLD_CHECKOUT NEW_CHECKOUT [--workdir DIR]

Runs ``fss solve|verify|sweep|props|constant`` with each checkout's
``src`` on the shipped configs (``configs/*.json``) and on the four
benchmark workload configs that ``perfbench/workloads.make_config``
builds for ``SEED``.  Both checkouts read the same config files, taken
from NEW_CHECKOUT, with their outputs redirected into ``--workdir``.  A
config with ``problem.alpha`` runs ``solve``, then ``verify`` on the
solution it wrote, once with the config's trials and seed and once with
``HELD_OUT`` (``--seed 2 --trials 300``), a draw that no config fixes;
one with ``problem.alpha_grid`` runs ``sweep``; every config runs
``props`` and ``constant`` at each theta of ``THETAS``.  That makes 56
output files on the shipped and workload configs.
Each config runs in its own directory, emptied first, so a reused
``--workdir`` holds no output of an earlier run.  BLAS runs on one
thread, as in the benchmark.

For every output file the script prints whether the two are
byte-identical and, when not, the largest relative change
|a - b| / max(|a|, |b|) of each numeric field, with the number of entries
that moved.  List entries are pooled under one field name
(``levels[].residual``).  The config hash is skipped; a non-numeric field
that differs is reported as changed.  Exits 1 when any output or exit
code differs, 0 when all are identical.  Standard library only.
"""

from __future__ import annotations

import argparse
import csv
import importlib.util
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("chain2d_p2", "chain1d_p3", "sweep1d", "solve2d_large")
SEED = 1
THETAS = (1.0, 2.0, 3.0, 6.0)
HELD_OUT = ("--seed", "2", "--trials", "300")
SKIPPED = {"config_hash"}


def _configs(checkout: Path) -> dict[str, dict]:
    """The shipped configs and the workload configs, by name."""
    configs = {path.stem: json.loads(path.read_text())
               for path in sorted((checkout / "configs").glob("*.json"))}
    spec = importlib.util.spec_from_file_location(
        "workloads", checkout / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for name in WORKLOADS:
        configs[name] = workloads.make_config(name, SEED, ".")
    return configs


def _run(checkout: Path, workdir: Path, argv: list[str]) -> int:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"),
               **{var: "1" for var in THREAD_VARS})
    with open(workdir / "cli.log", "a") as log:
        return subprocess.run([sys.executable, "-m", "fss.cli", *argv],
                              cwd=workdir, env=env, stdout=log,
                              stderr=subprocess.STDOUT).returncode


def _run_config(checkout: Path, workdir: Path,
                config: dict) -> dict[str, int]:
    """Run every command of one config; returns each command's exit code.
    Outputs land in ``workdir``, emptied first, under fixed names."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    config = dict(config, output={
        "solution": "solution.json", "diagnostics": "levels.json",
        "sweep_csv": "sweep.csv", "mu_report": "mu.json"})
    (workdir / "config.json").write_text(json.dumps(config, indent=1))
    base = ["--config", "config.json"]
    codes = {}
    problem = config.get("problem", {})
    if "alpha" in problem:
        codes["solve"] = _run(checkout, workdir, ["solve", *base])
        codes["verify"] = _run(checkout, workdir, [
            "verify", *base, "--solution", "solution.json",
            "--report", "verify.json"])
        codes["verify held-out"] = _run(checkout, workdir, [
            "verify", *base, "--solution", "solution.json", *HELD_OUT,
            "--report", "verify-held-out.json"])
    if "alpha_grid" in problem:
        codes["sweep"] = _run(checkout, workdir, ["sweep", *base])
    codes["props"] = _run(checkout, workdir,
                          ["props", *base, "--out", "props.json"])
    for theta in THETAS:
        codes[f"constant {theta:g}"] = _run(checkout, workdir, [
            "constant", *base, "--theta", repr(theta),
            "--out", f"constant-{theta:g}.json"])
    return codes


def _flatten(obj, prefix: str, out: dict[str, list]):
    """Collect every leaf of a JSON value under its field name, list
    indices pooled as ``[]``."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            if key not in SKIPPED:
                _flatten(value, f"{prefix}.{key}" if prefix else key, out)
    elif isinstance(obj, list):
        for value in obj:
            _flatten(value, prefix + "[]", out)
    else:
        out.setdefault(prefix, []).append(obj)


def _fields(path: Path) -> dict[str, list]:
    out: dict[str, list] = {}
    if path.suffix == ".csv":
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                for key, value in row.items():
                    try:
                        value = float(value)
                    except ValueError:
                        pass
                    out.setdefault(f"[].{key}", []).append(value)
    else:
        _flatten(json.loads(path.read_text()), "", out)
    return out


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _relative(a: float, b: float) -> float:
    """|a - b| / max(|a|, |b|): 0 for equal values or two NaNs, infinite
    when either side alone is NaN or infinite."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def compare(old: Path, new: Path) -> list[str]:
    """One line per field of the file that differs between the two runs."""
    if old.read_bytes() == new.read_bytes():
        return []
    a, b = _fields(old), _fields(new)
    lines = []
    for name in sorted(set(a) | set(b)):
        xs, ys = a.get(name, []), b.get(name, [])
        if len(xs) != len(ys):
            lines.append(f"{name}: {len(xs)} -> {len(ys)} entries")
        elif all(_is_number(x) and _is_number(y) for x, y in zip(xs, ys)):
            changes = [_relative(float(x), float(y)) for x, y in zip(xs, ys)]
            moved = sum(c > 0.0 for c in changes)
            if moved:
                lines.append(f"{name}: max rel change {max(changes):.3g}"
                             f" ({moved} of {len(xs)} moved)")
        elif xs != ys:
            lines.append(f"{name}: changed ({xs[:3]} -> {ys[:3]})")
    return lines or ["bytes differ, fields equal"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("old", type=Path)
    ap.add_argument("new", type=Path)
    ap.add_argument("--workdir", type=Path)
    args = ap.parse_args(argv)
    old, new = args.old.resolve(), args.new.resolve()
    workdir = args.workdir or Path(tempfile.mkdtemp(prefix="output-drift-"))
    drifted = False
    for name, config in _configs(new).items():
        dirs = {side: workdir / side / name for side in ("old", "new")}
        codes = {side: _run_config(checkout, dirs[side], config)
                 for side, checkout in (("old", old), ("new", new))}
        print(f"== {name}")
        if codes["old"] != codes["new"]:
            drifted = True
            print(f"  exit codes: {codes['old']} -> {codes['new']}")
        files = sorted({p.name for d in dirs.values() for p in d.iterdir()}
                       - {"config.json", "cli.log"})
        for file in files:
            a, b = dirs["old"] / file, dirs["new"] / file
            if not (a.exists() and b.exists()):
                drifted = True
                print(f"  {file}: only in {'new' if b.exists() else 'old'}")
                continue
            lines = compare(a, b)
            drifted |= bool(lines)
            print(f"  {file}: {'changed' if lines else 'identical'}")
            for line in lines:
                print(f"    {line}")
    print(f"outputs in {workdir}")
    return 1 if drifted else 0


if __name__ == "__main__":
    sys.exit(main())
