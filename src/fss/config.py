"""Run configuration: schema, validation, and weight construction.

Configs are JSON files with five blocks (grid, params, weight, problem,
verification) plus optional output paths.  Validation reports the dotted
path of each offending field.  Weight kinds:

    constant       flat positive level across the domain
    gaussian-bump  Gaussian profile, positive everywhere
    compact-bump   smooth bump vanishing outside a ball strictly inside
                   the domain (the only built-in kind admissible for
                   singularity strengths alpha > 1)
    file           nodal values from a JSON file {"values": [...]}

Environment: FSS_SEED overrides the verification seed.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

from .chain import ChainOptions
from .exceptions import ConfigError
from .grid import FracParams, Grid, Kernel, build_grid, build_kernel, r_alpha
from .operators import WeightField
from .solver import SolveOptions


@dataclass(frozen=True)
class RunConfig:
    raw: dict
    box: tuple
    h: float
    collar_width: float
    tail_enabled: bool
    s: float
    p: float
    weight_kind: str
    weight_r: float
    weight_params: dict
    alpha: float | None
    alpha_grid: tuple | None
    schedule: tuple | None
    chain_options: ChainOptions
    trials: int
    seed: int
    output: dict

    def config_hash(self) -> str:
        canon = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()


def _need(block: dict, key: str, path: str, kind=None):
    if key not in block:
        raise ConfigError("missing required field", f"{path}.{key}")
    value = block[key]
    if kind is not None and not isinstance(value, kind):
        raise ConfigError(
            f"expected {getattr(kind, '__name__', kind)}, got {type(value).__name__}",
            f"{path}.{key}",
        )
    return value


_NUMBER = (int, float)
_PROBLEM_KEYS = ("alpha", "alpha_grid", "n_schedule", "max_levels",
                 "tolerances")


def _is_int(value) -> bool:
    """A JSON integer; true and false are not integers here."""
    return isinstance(value, int) and not isinstance(value, bool)


def load_config(path: str) -> RunConfig:
    """Parse and validate a JSON config; every violation names its field."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as err:
        raise ConfigError(f"cannot read config: {err}")
    try:
        raw = json.loads(data)
    except json.JSONDecodeError as err:
        raise ConfigError(
            f"parse error at line {err.lineno}, column {err.colno}: {err.msg}"
        )
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")

    grid_block = _need(raw, "grid", "", dict)
    box_raw = _need(grid_block, "box", "grid", list)
    if len(box_raw) not in (1, 2):
        raise ConfigError("box must list 1 or 2 axes", "grid.box")
    box = []
    for i, axis in enumerate(box_raw):
        if (not isinstance(axis, list) or len(axis) != 2
                or not all(isinstance(v, _NUMBER) for v in axis)):
            raise ConfigError("each axis must be [lo, hi]", f"grid.box[{i}]")
        if axis[1] <= axis[0]:
            raise ConfigError("axis must satisfy lo < hi", f"grid.box[{i}]")
        box.append((float(axis[0]), float(axis[1])))
    h = _need(grid_block, "h", "grid", _NUMBER)
    if h <= 0:
        raise ConfigError("spacing must be positive", "grid.h")
    collar = _need(grid_block, "collar_width", "grid", _NUMBER)
    if collar < h:
        raise ConfigError("collar width must be at least one cell",
                          "grid.collar_width")
    tail = bool(grid_block.get("tail_enabled", True))

    params_block = _need(raw, "params", "", dict)
    s = _need(params_block, "s", "params", _NUMBER)
    if not (0.0 < s < 1.0):
        raise ConfigError("s must lie in (0, 1)", "params.s")
    p = _need(params_block, "p", "params", _NUMBER)
    if not (p > 1.0):
        raise ConfigError("p must exceed 1", "params.p")
    frac = FracParams(s=float(s), p=float(p), n_dim=len(box))

    weight_block = _need(raw, "weight", "", dict)
    kind = _need(weight_block, "kind", "weight", str)
    if kind not in ("constant", "gaussian-bump", "compact-bump", "file"):
        raise ConfigError(f"unknown weight kind '{kind}'", "weight.kind")
    w_r = float(weight_block.get("r", 1.0))
    if w_r < 1.0:
        raise ConfigError("integrability exponent r must be >= 1", "weight.r")
    weight_params = {k: v for k, v in weight_block.items()
                     if k not in ("kind", "r")}
    if kind == "constant":
        value = weight_params.get("value", 1.0)
        if not isinstance(value, _NUMBER) or value <= 0:
            raise ConfigError("constant weight needs value > 0", "weight.value")
    if kind == "file" and "path" not in weight_params:
        raise ConfigError("file weight needs a path", "weight.path")

    problem_block = raw.get("problem", {})
    if not isinstance(problem_block, dict):
        raise ConfigError("expected object", "problem")
    for key in problem_block:
        if key not in _PROBLEM_KEYS:
            raise ConfigError(f"unknown problem key '{key}'", f"problem.{key}")
    alpha = problem_block.get("alpha")
    if alpha is not None:
        if not isinstance(alpha, _NUMBER) or alpha <= 0:
            raise ConfigError("alpha must be a positive number", "problem.alpha")
        alpha = float(alpha)
        if alpha > 1.0 and kind in ("constant", "gaussian-bump"):
            raise ConfigError(
                "alpha > 1 requires a compactly supported weight "
                "(kind compact-bump or file); this weight is positive up to "
                "the boundary and the singular problem may have no solution",
                "problem.alpha",
            )
    alpha_grid = problem_block.get("alpha_grid")
    if alpha_grid is not None:
        if (not isinstance(alpha_grid, list) or len(alpha_grid) == 0
                or not all(isinstance(a, _NUMBER) for a in alpha_grid)):
            raise ConfigError("alpha_grid must be a nonempty list of numbers",
                              "problem.alpha_grid")
        if any(not (0.0 < a < 1.0) for a in alpha_grid):
            raise ConfigError("alpha_grid entries must lie in (0, 1)",
                              "problem.alpha_grid")
        if any(b <= a for a, b in zip(alpha_grid, alpha_grid[1:])):
            raise ConfigError("alpha_grid must be strictly increasing",
                              "problem.alpha_grid")
        for a in alpha_grid:
            needed = r_alpha(float(a), frac)
            if w_r < needed - 1e-12:
                raise ConfigError(
                    f"weight.r = {w_r} is below the threshold "
                    f"r_alpha = {needed:.6g} at alpha = {a}",
                    "problem.alpha_grid",
                )
        alpha_grid = tuple(float(a) for a in alpha_grid)
    schedule = problem_block.get("n_schedule")
    if schedule is not None:
        if (not isinstance(schedule, list) or len(schedule) == 0
                or not all(isinstance(n, int) and n >= 1 for n in schedule)):
            raise ConfigError("n_schedule must be a list of integers >= 1",
                              "problem.n_schedule")
        if any(b <= a for a, b in zip(schedule, schedule[1:])):
            raise ConfigError("n_schedule must be strictly increasing",
                              "problem.n_schedule")
        schedule = tuple(schedule)

    max_levels = problem_block.get("max_levels", 40)
    if not _is_int(max_levels) or max_levels < 1:
        raise ConfigError("max_levels must be an integer >= 1",
                          "problem.max_levels")

    tol_block = problem_block.get("tolerances", {})
    if not isinstance(tol_block, dict):
        raise ConfigError("expected object", "problem.tolerances")
    for key, val in tol_block.items():
        if key not in ("grad", "fixed_point", "chain", "polish"):
            raise ConfigError(f"unknown tolerance '{key}'", "problem.tolerances")
        if not isinstance(val, _NUMBER) or val <= 0:
            raise ConfigError("tolerance must be positive",
                              f"problem.tolerances.{key}")
    solve_opts = SolveOptions(grad_tol=float(tol_block.get("grad", 1e-10)))
    chain_opts = ChainOptions(
        solve=solve_opts,
        fixed_point_tol=float(tol_block.get("fixed_point", 1e-9)),
        chain_tol=float(tol_block.get("chain", 1e-7)),
        polish_tol=float(tol_block.get("polish", 1e-13)),
        max_levels=max_levels,
    )

    verif_block = raw.get("verification", {})
    if not isinstance(verif_block, dict):
        raise ConfigError("expected object", "verification")
    trials = verif_block.get("trials", 1000)
    if not _is_int(trials) or trials < 1:
        raise ConfigError("trials must be a positive integer",
                          "verification.trials")
    seed = verif_block.get("seed", 0)
    if not _is_int(seed) or seed < 0:
        raise ConfigError("seed must be a nonnegative integer",
                          "verification.seed")
    env_seed = os.environ.get("FSS_SEED")
    if env_seed is not None:
        if not env_seed.isdecimal():
            raise ConfigError("FSS_SEED must be a nonnegative integer",
                              "env.FSS_SEED")
        seed = int(env_seed)

    output = raw.get("output", {})
    if not isinstance(output, dict):
        raise ConfigError("expected object", "output")

    return RunConfig(
        raw=raw,
        box=tuple(box),
        h=float(h),
        collar_width=float(collar),
        tail_enabled=tail,
        s=float(s),
        p=float(p),
        weight_kind=kind,
        weight_r=w_r,
        weight_params=weight_params,
        alpha=alpha,
        alpha_grid=alpha_grid,
        schedule=schedule,
        chain_options=chain_opts,
        trials=trials,
        seed=seed,
        output=output,
    )


def build_geometry(cfg: RunConfig) -> tuple[Grid, FracParams, Kernel]:
    grid = build_grid(cfg.box, cfg.h, cfg.collar_width)
    params = FracParams(s=cfg.s, p=cfg.p, n_dim=grid.n_dim)
    kernel = build_kernel(grid, params, cfg.tail_enabled)
    return grid, params, kernel


def build_weight(cfg: RunConfig, grid: Grid) -> WeightField:
    """Evaluate the configured weight kind on the interior nodes."""
    x = grid.interior
    lo = np.array([b[0] for b in grid.box])
    hi = np.array([b[1] for b in grid.box])
    center = cfg.weight_params.get("center")
    center = (np.asarray(center, dtype=float) if center is not None
              else 0.5 * (lo + hi))
    if center.shape != (grid.n_dim,):
        raise ConfigError("center must have one entry per axis", "weight.center")
    extent = float((hi - lo).min())

    kind = cfg.weight_kind
    if kind == "constant":
        values = np.full(grid.interior_count,
                         float(cfg.weight_params.get("value", 1.0)))
    elif kind == "gaussian-bump":
        sigma = float(cfg.weight_params.get("sigma", 0.15 * extent))
        if sigma <= 0:
            raise ConfigError("sigma must be positive", "weight.sigma")
        amp = float(cfg.weight_params.get("amplitude", 1.0))
        d2 = ((x - center) ** 2).sum(axis=1)
        values = amp * np.exp(-d2 / (2.0 * sigma**2))
    elif kind == "compact-bump":
        radius = float(cfg.weight_params.get("radius", 0.25 * extent))
        if radius <= 0:
            raise ConfigError("radius must be positive", "weight.radius")
        amp = float(cfg.weight_params.get("amplitude", 1.0))
        t2 = ((x - center) ** 2).sum(axis=1) / radius**2
        values = np.zeros(grid.interior_count)
        inside = t2 < 1.0
        values[inside] = amp * np.exp(1.0 - 1.0 / (1.0 - t2[inside]))
    else:  # file
        path = cfg.weight_params["path"]
        try:
            with open(path) as fh:
                payload = json.load(fh)
        except (OSError, json.JSONDecodeError) as err:
            raise ConfigError(f"cannot read weight file: {err}", "weight.path")
        values = np.asarray(payload.get("values"), dtype=float)
        if values.shape != (grid.interior_count,):
            raise ConfigError(
                f"weight file has {values.shape} values for "
                f"{grid.interior_count} interior nodes",
                "weight.path",
            )
    try:
        return WeightField(values, grid, r=cfg.weight_r)
    except ValueError as err:
        raise ConfigError(str(err), "weight")
