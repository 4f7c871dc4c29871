"""Solution persistence and report serialization.

Solution files are JSON with a format version, a metadata block, and the
flat row-major array of interior node values.  Floats are serialized with
Python's shortest round-trip representation, so a save/load cycle
reproduces every value bit-exactly and repeated runs with the same config
and seed produce byte-identical files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import SolutionFileError
from .grid import Grid
from .operators import Field

FORMAT_VERSION = 1
SWEEP_CSV_HEADER = "alpha,lambda,scaled,seminorm_V,converged"


@dataclass(frozen=True)
class SolutionFile:
    """Persisted solution: metadata plus interior node values."""

    format_version: int
    metadata: dict
    values: np.ndarray

    def grid_shape(self) -> list:
        return self.metadata.get("grid_shape", [])


def _jsonify(obj):
    """Recursively make an object JSON-serializable, mapping non-finite
    floats to strings (JSON has no literals for them)."""
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        if math.isnan(f):
            return "nan"
        if math.isinf(f):
            return "inf" if f > 0 else "-inf"
        return f
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def dump_json(path: str, payload: dict):
    with open(path, "w") as fh:
        json.dump(_jsonify(payload), fh, sort_keys=True, indent=1)
        fh.write("\n")


def grid_shape_of(grid: Grid) -> list:
    return [grid.n_dim, grid.interior_count, list(map(list, grid.box)), grid.h]


def save_solution(path: str, field: Field, metadata: dict) -> SolutionFile:
    """Write a solution file; returns the in-memory record."""
    meta = dict(metadata)
    meta.setdefault("grid_shape", grid_shape_of(field.grid))
    payload = {
        "format_version": FORMAT_VERSION,
        "metadata": meta,
        "values": field.values,
    }
    dump_json(path, payload)
    return SolutionFile(format_version=FORMAT_VERSION, metadata=meta,
                        values=field.values.copy())


def load_solution(path: str) -> SolutionFile:
    """Read a solution file, validating version and structure."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except OSError as err:
        raise SolutionFileError(f"cannot read solution file: {err}")
    except json.JSONDecodeError as err:
        raise SolutionFileError(f"corrupt solution file: {err.msg} "
                                f"(line {err.lineno})")
    if not isinstance(payload, dict) or "format_version" not in payload:
        raise SolutionFileError("corrupt solution file: missing format_version")
    version = payload["format_version"]
    if version != FORMAT_VERSION:
        raise SolutionFileError(
            f"unsupported solution format version {version}; "
            f"supported versions: {FORMAT_VERSION}"
        )
    if "values" not in payload or "metadata" not in payload:
        raise SolutionFileError("corrupt solution file: missing values/metadata")
    try:
        values = np.asarray(payload["values"], dtype=float)
    except (TypeError, ValueError):
        values = np.empty(0)
    if (values.ndim != 1 or values.size == 0
            or not isinstance(payload["metadata"], dict)):
        raise SolutionFileError("corrupt solution file: values must be a "
                                "flat list of numbers, metadata an object")
    return SolutionFile(format_version=version, metadata=payload["metadata"],
                        values=values)


def write_sweep_csv(path: str, records):
    """Fixed-header CSV of sweep records (one row per alpha)."""
    lines = [SWEEP_CSV_HEADER]
    for rec in records:
        lines.append(
            f"{rec.alpha!r},{rec.lam!r},{rec.scaled!r},"
            f"{rec.seminorm_scaled_extremal!r},{str(rec.converged).lower()}"
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_mu_report(path: str, estimate):
    dump_json(path, {
        "mu_sweep": estimate.mu_sweep,
        "mu_direct": estimate.mu_direct,
        "trend": estimate.trend,
        "grid": list(estimate.alpha_grid or []),
    })
