"""Run configuration: schema, validation, and weight construction.

Configs are JSON files with five blocks (grid, params, weight, problem,
verification) plus optional output paths.  Validation reports the dotted
path of each offending field; unknown keys, and numbers that are not
finite JSON numbers, are errors.  Weight kinds:

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
import sys
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
    s: float
    p: float
    weight_kind: str
    weight_r: float
    weight_params: dict
    alpha: float | None
    alpha_grid: tuple | None
    chain_options: ChainOptions
    trials: int
    seed: int
    output: dict

    def config_hash(self) -> str:
        canon = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()


def _need(block: dict, path: str, kind=None):
    """The required entry at dotted ``path`` within ``block``, of type
    ``kind`` when given; ``float`` asks for a finite number."""
    key = path.rpartition(".")[2]
    if key not in block:
        raise ConfigError("missing required field", path)
    value = block[key]
    if kind is float:
        return _finite(value, path)
    if kind is not None and not isinstance(value, kind):
        raise ConfigError(
            f"expected {kind.__name__}, got {type(value).__name__}", path)
    return value


# The keys each block accepts.  A weight key that only another weight kind
# reads is accepted and ignored.
_KEYS = {
    "": {"grid", "params", "weight", "problem", "verification", "output"},
    "grid": {"box", "h", "collar_width", "tail_enabled"},
    "params": {"s", "p"},
    "weight": {"kind", "r", "value", "center", "sigma", "radius",
               "amplitude", "path"},
    "problem": {"alpha", "alpha_grid", "tolerances"},
    "problem.tolerances": {"grad", "fixed_point", "chain"},
    "verification": {"trials", "seed"},
    "output": {"solution", "diagnostics", "sweep_csv", "mu_report"},
}
_LARGEST = sys.float_info.max


def _known_keys(block: dict, path: str) -> dict:
    """``block``, the object at dotted ``path``, once every key of it is
    known to ``_KEYS[path]``; the first unknown key is reported."""
    if not block.keys() <= _KEYS[path]:
        key = next(k for k in block if k not in _KEYS[path])
        raise ConfigError(f"unknown key '{key}'", f"{path}.{key}".lstrip("."))
    return block


def _block(parent: dict, path: str) -> dict:
    """The optional object at dotted ``path`` (empty when absent)."""
    block = parent.get(path.rpartition(".")[2], {})
    if not isinstance(block, dict):
        raise ConfigError("expected object", path)
    return _known_keys(block, path)


def _finite(value, path: str) -> float:
    """A finite JSON number as a float.  Booleans, strings, NaN and the
    infinities (which Python's json reads) are errors."""
    if type(value) not in (int, float) or not abs(value) <= _LARGEST:
        raise ConfigError(f"expected a finite number, got {value!r}", path)
    return float(value)


def _text(value, path: str):
    """Check that ``value`` is a JSON string, as a file path must be
    (``open`` would take an integer for a file descriptor)."""
    if not isinstance(value, str):
        raise ConfigError(f"expected a string, got {value!r}", path)


def _integer(block: dict, path: str, default: int, least: int) -> int:
    """The optional integer at dotted ``path`` within ``block``, at least
    ``least``; true and false are not integers here."""
    value = block.get(path.rpartition(".")[2], default)
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ConfigError(f"must be an integer >= {least}, got {value!r}", path)
    return value


def _integrable_enough(w_r: float, alpha: float, frac: FracParams,
                       path: str) -> None:
    """Refuse a weight exponent below the threshold r_alpha at ``alpha``."""
    needed = r_alpha(alpha, frac)
    if w_r < needed - 1e-12:
        raise ConfigError(
            f"weight.r = {w_r} is below the threshold "
            f"r_alpha = {needed:.6g} at alpha = {alpha}", path)


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
    _known_keys(raw, "")

    grid_block = _known_keys(_need(raw, "grid", dict), "grid")
    box_raw = _need(grid_block, "grid.box", list)
    if len(box_raw) not in (1, 2):
        raise ConfigError("box must list 1 or 2 axes", "grid.box")
    box = []
    for i, axis in enumerate(box_raw):
        if not isinstance(axis, list) or len(axis) != 2:
            raise ConfigError("each axis must be [lo, hi]", f"grid.box[{i}]")
        lo, hi = (_finite(v, f"grid.box[{i}]") for v in axis)
        if hi <= lo:
            raise ConfigError("axis must satisfy lo < hi", f"grid.box[{i}]")
        box.append((lo, hi))
    h = _need(grid_block, "grid.h", float)
    if h <= 0:
        raise ConfigError("spacing must be positive", "grid.h")
    collar = _need(grid_block, "grid.collar_width", float)
    if collar < h:
        raise ConfigError("collar width must be at least one cell",
                          "grid.collar_width")
    if grid_block.get("tail_enabled", True) is not True:
        raise ConfigError("the exterior tail is always on; only true is "
                          "accepted", "grid.tail_enabled")

    params_block = _known_keys(_need(raw, "params", dict), "params")
    s = _need(params_block, "params.s", float)
    if not (0.0 < s < 1.0):
        raise ConfigError("s must lie in (0, 1)", "params.s")
    p = _need(params_block, "params.p", float)
    if not (p > 1.0):
        raise ConfigError("p must exceed 1", "params.p")
    frac = FracParams(s=s, p=p, n_dim=len(box))

    weight_block = _known_keys(_need(raw, "weight", dict), "weight")
    kind = _need(weight_block, "weight.kind", str)
    if kind not in ("constant", "gaussian-bump", "compact-bump", "file"):
        raise ConfigError(f"unknown weight kind '{kind}'", "weight.kind")
    w_r = _finite(weight_block.get("r", 1.0), "weight.r")
    if w_r < 1.0:
        raise ConfigError("integrability exponent r must be >= 1", "weight.r")
    weight_params = {k: v for k, v in weight_block.items()
                     if k not in ("kind", "r")}
    for key in ("value", "sigma", "radius", "amplitude"):
        if key in weight_params:
            _finite(weight_params[key], f"weight.{key}")
    center = weight_params.get("center")
    if center is not None:
        if not isinstance(center, list) or len(center) != len(box):
            raise ConfigError("center must have one entry per axis",
                              "weight.center")
        for i, v in enumerate(center):
            _finite(v, f"weight.center[{i}]")
    if kind == "constant" and weight_params.get("value", 1.0) <= 0:
        raise ConfigError("constant weight needs value > 0", "weight.value")
    if kind == "file" and "path" not in weight_params:
        raise ConfigError("file weight needs a path", "weight.path")
    if "path" in weight_params:
        _text(weight_params["path"], "weight.path")

    problem_block = _block(raw, "problem")
    alpha = problem_block.get("alpha")
    if alpha is not None:
        alpha = _finite(alpha, "problem.alpha")
        if alpha <= 0:
            raise ConfigError("alpha must be a positive number", "problem.alpha")
        if alpha > 1.0 and kind in ("constant", "gaussian-bump"):
            raise ConfigError(
                "alpha > 1 requires a compactly supported weight "
                "(kind compact-bump or file); this weight is positive up to "
                "the boundary and the singular problem may have no solution",
                "problem.alpha",
            )
        if alpha < 1.0:
            _integrable_enough(w_r, alpha, frac, "problem.alpha")
    alpha_grid = problem_block.get("alpha_grid")
    if alpha_grid is not None:
        if not isinstance(alpha_grid, list) or len(alpha_grid) == 0:
            raise ConfigError("alpha_grid must be a nonempty list of numbers",
                              "problem.alpha_grid")
        alpha_grid = tuple(_finite(a, "problem.alpha_grid") for a in alpha_grid)
        if any(not (0.0 < a < 1.0) for a in alpha_grid):
            raise ConfigError("alpha_grid entries must lie in (0, 1)",
                              "problem.alpha_grid")
        if any(b <= a for a, b in zip(alpha_grid, alpha_grid[1:])):
            raise ConfigError("alpha_grid must be strictly increasing",
                              "problem.alpha_grid")
        for a in alpha_grid:
            _integrable_enough(w_r, a, frac, "problem.alpha_grid")
    tol_block = _block(problem_block, "problem.tolerances")
    tol = {"grad": 1e-10, "fixed_point": 1e-9, "chain": 1e-7}
    for key, val in tol_block.items():
        tol[key] = _finite(val, f"problem.tolerances.{key}")
        if tol[key] <= 0:
            raise ConfigError("tolerance must be positive",
                              f"problem.tolerances.{key}")
    chain_opts = ChainOptions(
        solve=SolveOptions(grad_tol=tol["grad"]),
        fixed_point_tol=tol["fixed_point"],
        chain_tol=tol["chain"],
    )

    verif_block = _block(raw, "verification")
    trials = _integer(verif_block, "verification.trials", 1000, 1)
    seed = _integer(verif_block, "verification.seed", 0, 0)
    env_seed = os.environ.get("FSS_SEED")
    if env_seed is not None:
        if not env_seed.isdecimal():
            raise ConfigError("FSS_SEED must be a nonnegative integer",
                              "env.FSS_SEED")
        seed = int(env_seed)

    output = _block(raw, "output")
    for key, value in output.items():
        _text(value, f"output.{key}")

    return RunConfig(
        raw=raw,
        box=tuple(box),
        h=h,
        collar_width=collar,
        s=s,
        p=p,
        weight_kind=kind,
        weight_r=w_r,
        weight_params=weight_params,
        alpha=alpha,
        alpha_grid=alpha_grid,
        chain_options=chain_opts,
        trials=trials,
        seed=seed,
        output=output,
    )


def build_geometry(cfg: RunConfig) -> tuple[Grid, FracParams, Kernel]:
    grid = build_grid(cfg.box, cfg.h, cfg.collar_width)
    params = FracParams(s=cfg.s, p=cfg.p, n_dim=grid.n_dim)
    kernel = build_kernel(grid, params)
    return grid, params, kernel


def build_weight(cfg: RunConfig, grid: Grid) -> WeightField:
    """Evaluate the configured weight kind on the interior nodes."""
    x = grid.interior
    lo = np.array([b[0] for b in grid.box])
    hi = np.array([b[1] for b in grid.box])
    center = np.asarray(cfg.weight_params.get("center", 0.5 * (lo + hi)),
                        dtype=float)
    amp = float(cfg.weight_params.get("amplitude", 1.0))
    extent = float((hi - lo).min())

    kind = cfg.weight_kind
    if kind == "constant":
        values = np.full(grid.interior_count,
                         float(cfg.weight_params.get("value", 1.0)))
    elif kind == "gaussian-bump":
        sigma = float(cfg.weight_params.get("sigma", 0.15 * extent))
        if sigma <= 0:
            raise ConfigError("sigma must be positive", "weight.sigma")
        d2 = ((x - center) ** 2).sum(axis=1)
        values = amp * np.exp(-d2 / (2.0 * sigma**2))
    elif kind == "compact-bump":
        radius = float(cfg.weight_params.get("radius", 0.25 * extent))
        if radius <= 0:
            raise ConfigError("radius must be positive", "weight.radius")
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
        values = payload.get("values") if isinstance(payload, dict) else None
        if not isinstance(values, list):
            raise ConfigError('weight file must hold {"values": [...]}',
                              "weight.path")
        values = np.array([_finite(v, "weight.path") for v in values])
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
