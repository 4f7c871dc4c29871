import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from fss import (
    ConfigError,
    Field,
    SolutionFileError,
    build_geometry,
    build_weight,
    load_config,
    load_solution,
    save_solution,
    write_sweep_csv,
)
from fss.solution_io import SWEEP_CSV_HEADER, grid_shape_of

REPO = Path(__file__).resolve().parent.parent


def write_config(tmp_path, overrides=None, name="config.json"):
    cfg = {
        "grid": {"box": [[0.0, 1.0]], "h": 0.125, "collar_width": 0.5,
                 "tail_enabled": True},
        "params": {"s": 0.5, "p": 2.0},
        "weight": {"kind": "constant", "value": 1.0, "r": 3.0},
        "problem": {"alpha": 0.5},
        "verification": {"trials": 100, "seed": 42},
    }
    if overrides:
        for key, block in overrides.items():
            if isinstance(block, dict) and isinstance(cfg.get(key), dict):
                cfg[key].update(block)
            else:
                cfg[key] = block
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestLoadConfig:
    def test_minimal_valid(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        assert cfg.alpha == 0.5
        assert cfg.s == 0.5 and cfg.p == 2.0
        assert cfg.weight_kind == "constant"

    def test_rejects_bad_s(self, tmp_path):
        path = write_config(tmp_path, {"params": {"s": 1.2}})
        with pytest.raises(ConfigError, match="params.s"):
            load_config(path)

    def test_rejects_alpha_above_one_with_constant_weight(self, tmp_path):
        path = write_config(tmp_path, {"problem": {"alpha": 1.5}})
        with pytest.raises(ConfigError, match="compact"):
            load_config(path)

    def test_accepts_alpha_above_one_with_compact_bump(self, tmp_path):
        path = write_config(tmp_path, {
            "problem": {"alpha": 1.5},
            "weight": {"kind": "compact-bump", "radius": 0.25, "r": 3.0},
        })
        cfg = load_config(path)
        assert cfg.alpha == 1.5

    def test_parse_error_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"grid": [,}')
        with pytest.raises(ConfigError, match="line"):
            load_config(str(path))

    def test_alpha_grid_validation(self, tmp_path):
        path = write_config(tmp_path, {
            "problem": {"alpha_grid": [0.95, 0.9]},
        })
        with pytest.raises(ConfigError, match="alpha_grid"):
            load_config(path)

    def test_alpha_grid_integrability(self, tmp_path):
        path = write_config(tmp_path, {
            "weight": {"kind": "constant", "value": 1.0, "r": 1.0},
            "problem": {"alpha": 1.0, "alpha_grid": [0.5]},
        })
        with pytest.raises(ConfigError, match="r_alpha") as err:
            load_config(path)
        assert err.value.field == "problem.alpha_grid"

    def test_alpha_integrability(self, tmp_path):
        # s p = 1 < N = 2: r_alpha(1/2) = 8/7, so r = 1 is refused for
        # problem.alpha exactly as it is for an alpha_grid entry.
        path = write_config(tmp_path, {
            "grid": {"box": [[0.0, 1.0], [0.0, 1.0]], "h": 0.25},
            "weight": {"kind": "constant", "value": 1.0, "r": 1.0},
            "problem": {"alpha": 0.5},
        })
        with pytest.raises(ConfigError, match="r_alpha = 1.14286") as err:
            load_config(path)
        assert err.value.field == "problem.alpha"
        assert "at alpha = 0.5" in str(err.value)

    @pytest.mark.parametrize("key", ["n_shedule", "alpha0", "n_schedule"])
    def test_rejects_unknown_problem_key(self, tmp_path, key):
        path = write_config(tmp_path, {"problem": {"alpha": 0.5,
                                                   key: [1, 2, 4]}})
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert err.value.field == f"problem.{key}"

    @pytest.mark.parametrize("value", ["abc", 0, -3, 2.7, True, 12])
    def test_rejects_bad_max_levels(self, tmp_path, value):
        # The chain's level count is fixed: every value is unknown.
        path = write_config(tmp_path, {"problem": {"max_levels": value}})
        with pytest.raises(ConfigError,
                           match="unknown key 'max_levels'") as err:
            load_config(path)
        assert err.value.field == "problem.max_levels"

    def test_seed_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FSS_SEED", "7")
        cfg = load_config(write_config(tmp_path))
        assert cfg.seed == 7

    @pytest.mark.parametrize("value", ["-1", "x", "1.5"])
    def test_rejects_bad_seed_env(self, tmp_path, monkeypatch, value):
        monkeypatch.setenv("FSS_SEED", value)
        with pytest.raises(ConfigError) as err:
            load_config(write_config(tmp_path))
        assert err.value.field == "env.FSS_SEED"

    @pytest.mark.parametrize("key,value", [
        ("trials", True), ("trials", 0), ("trials", -5), ("trials", 2.5),
        ("seed", False), ("seed", -3), ("seed", "7"),
    ])
    def test_rejects_bad_verification(self, tmp_path, key, value):
        path = write_config(tmp_path, {"verification": {key: value}})
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert err.value.field == f"verification.{key}"

    @pytest.mark.parametrize("block,key,value", [
        ("problem", "tolerances", {"fixed_point": float("nan")}),
        ("problem", "tolerances", {"grad": float("nan")}),
        ("problem", "tolerances", {"chain": float("inf")}),
        ("problem", "alpha", float("nan")),
        ("problem", "alpha_grid", [0.5, float("nan")]),
        ("grid", "h", float("nan")),
        ("grid", "collar_width", float("inf")),
        ("params", "s", float("nan")),
        ("params", "p", "3"),
        ("weight", "r", float("nan")),
        ("weight", "r", "abc"),
        ("weight", "r", True),
        ("weight", "value", float("-inf")),
        ("weight", "sigma", float("nan")),
        ("weight", "radius", "0.3"),
        ("weight", "amplitude", False),
    ])
    def test_rejects_non_finite_or_non_numeric(self, tmp_path, block, key,
                                               value):
        path = write_config(tmp_path, {block: {key: value}})
        with pytest.raises(ConfigError) as err:
            load_config(path)
        field = f"{block}.{key}"
        if isinstance(value, dict):
            field += "." + next(iter(value))
        assert err.value.field == field

    @pytest.mark.parametrize("axis", [[0.0, float("nan")],
                                      [float("-inf"), 1.0], [0.0, True]])
    def test_rejects_bad_box_entry(self, tmp_path, axis):
        path = write_config(tmp_path, {"grid": {"box": [axis]}})
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert err.value.field == "grid.box[0]"

    @pytest.mark.parametrize("center,field", [
        ([float("nan")], "weight.center[0]"),
        (["0.5"], "weight.center[0]"),
        ([True], "weight.center[0]"),
        ([0.5, 0.5], "weight.center"),
        (0.5, "weight.center"),
    ])
    def test_rejects_bad_center(self, tmp_path, center, field):
        path = write_config(tmp_path, {"weight": {
            "kind": "compact-bump", "radius": 0.25, "center": center}})
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert err.value.field == field

    def test_non_finite_json_literals(self, tmp_path):
        # Python's json reads NaN and Infinity; the config does not.
        path = tmp_path / "config.json"
        text = open(write_config(tmp_path)).read()
        path.write_text(text.replace('"r": 3.0', '"r": NaN'))
        with pytest.raises(ConfigError) as err:
            load_config(str(path))
        assert err.value.field == "weight.r"

    @pytest.mark.parametrize("overrides,field", [
        ({"extra": {}}, "extra"),
        ({"grid": {"collar": 0.1}}, "grid.collar"),
        ({"params": {"q": 2.0}}, "params.q"),
        ({"weight": {"centre": [0.2]}}, "weight.centre"),
        ({"problem": {"tolerances": {"gard": 1e-8}}}, "problem.tolerances.gard"),
        ({"verification": {"trial": 10}}, "verification.trial"),
        ({"output": {"solutions": "x.json"}}, "output.solutions"),
        ({"problem": {"tolerances": {"polish": 1e-13}}},
         "problem.tolerances.polish"),
    ])
    def test_rejects_unknown_key(self, tmp_path, overrides, field):
        path = write_config(tmp_path, overrides)
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert err.value.field == field

    @pytest.mark.parametrize("overrides,field", [
        ({"output": {"solution": 7}}, "output.solution"),
        ({"output": {"mu_report": None}}, "output.mu_report"),
        ({"weight": {"kind": "file", "path": 5}}, "weight.path"),
        ({"weight": {"kind": "file", "path": ["w.json"]}}, "weight.path"),
    ])
    def test_rejects_non_string_path(self, tmp_path, overrides, field):
        path = write_config(tmp_path, overrides)
        with pytest.raises(ConfigError, match="expected a string") as err:
            load_config(path)
        assert err.value.field == field

    def test_accepts_key_of_another_weight_kind(self, tmp_path):
        # The base config's constant-weight "value" stays beside the bump.
        path = write_config(tmp_path, {
            "weight": {"kind": "compact-bump", "radius": 0.25}})
        cfg = load_config(path)
        assert cfg.weight_params["value"] == 1.0

    def test_tail_enabled_true_loads(self, tmp_path):
        cfg = load_config(write_config(tmp_path,
                                       {"grid": {"tail_enabled": True}}))
        assert cfg.h == 0.125

    @pytest.mark.parametrize("value", [False, "false", 0, 1, None])
    def test_rejects_tail_enabled_other_than_true(self, tmp_path, value):
        path = write_config(tmp_path, {"grid": {"tail_enabled": value}})
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert err.value.field == "grid.tail_enabled"

    @pytest.mark.parametrize("name", ["solve_1d", "solve_2d", "sweep_1d"])
    def test_shipped_configs_load(self, name):
        load_config(str(REPO / "configs" / f"{name}.json"))

    def test_benchmark_configs_load(self, tmp_path):
        spec = importlib.util.spec_from_file_location(
            "workloads", REPO / "perfbench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        for name in workloads.WORKLOADS:
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(
                workloads.make_config(name, 1, str(tmp_path))))
            load_config(str(path))

    def test_hash_stability(self, tmp_path):
        a = load_config(write_config(tmp_path))
        b = load_config(write_config(tmp_path, name="other.json"))
        assert a.config_hash() == b.config_hash()


class TestBuildWeight:
    def test_constant(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        grid, params, kernel = build_geometry(cfg)
        omega = build_weight(cfg, grid)
        assert np.all(omega.values == 1.0)

    def test_compact_bump_vanishes_near_boundary(self, tmp_path):
        path = write_config(tmp_path, {
            "weight": {"kind": "compact-bump", "radius": 0.25, "r": 3.0},
        })
        cfg = load_config(path)
        grid, _, _ = build_geometry(cfg)
        omega = build_weight(cfg, grid)
        dist = grid.boundary_distance()
        assert np.all(omega.values[dist <= grid.h] == 0.0)
        assert omega.values.max() > 0.0

    def test_gaussian_bump_positive(self, tmp_path):
        path = write_config(tmp_path, {
            "weight": {"kind": "gaussian-bump", "sigma": 0.2, "r": 3.0},
        })
        cfg = load_config(path)
        grid, _, _ = build_geometry(cfg)
        omega = build_weight(cfg, grid)
        assert np.all(omega.values > 0.0)

    def test_file_weight_roundtrip(self, tmp_path):
        values = np.linspace(0.1, 1.0, 7)
        wpath = tmp_path / "w.json"
        wpath.write_text(json.dumps({"values": values.tolist()}))
        path = write_config(tmp_path, {
            "grid": {"box": [[0.0, 1.0]], "h": 0.125, "collar_width": 0.5},
            "weight": {"kind": "file", "path": str(wpath), "r": 2.0},
        })
        cfg = load_config(path)
        grid, _, _ = build_geometry(cfg)
        omega = build_weight(cfg, grid)
        assert np.array_equal(omega.values, values)

    @pytest.mark.parametrize("payload", [
        [0.5] * 7,
        {"values": 3.0},
        {"vals": [0.5] * 7},
        {"values": [0.5] * 6 + ["x"]},
        {"values": [0.5] * 6 + [None]},
        "values",
    ])
    def test_file_weight_not_a_values_object(self, tmp_path, payload):
        wpath = tmp_path / "w.json"
        wpath.write_text(json.dumps(payload))
        path = write_config(tmp_path, {
            "weight": {"kind": "file", "path": str(wpath), "r": 2.0},
        })
        cfg = load_config(path)
        grid, _, _ = build_geometry(cfg)
        with pytest.raises(ConfigError) as err:
            build_weight(cfg, grid)
        assert err.value.field == "weight.path"

    def test_file_weight_length_mismatch(self, tmp_path):
        wpath = tmp_path / "w.json"
        wpath.write_text(json.dumps({"values": [1.0, 2.0]}))
        path = write_config(tmp_path, {
            "weight": {"kind": "file", "path": str(wpath), "r": 2.0},
        })
        cfg = load_config(path)
        grid, _, _ = build_geometry(cfg)
        with pytest.raises(ConfigError, match="interior nodes"):
            build_weight(cfg, grid)


class TestSolutionRoundTrip:
    def test_bit_exact(self, tmp_path, grid_1d):
        rng = np.random.default_rng(0)
        field = Field(rng.standard_normal(grid_1d.interior_count), grid_1d)
        path = str(tmp_path / "sol.json")
        save_solution(path, field, {"alpha": 0.5, "config_hash": "x"})
        loaded = load_solution(path)
        assert loaded.values.tobytes() == field.values.tobytes()
        assert loaded.metadata["alpha"] == 0.5
        assert loaded.grid_shape() == grid_shape_of(grid_1d)

    def test_truncated_file(self, tmp_path, grid_1d):
        field = Field.constant(grid_1d, 1.0)
        path = str(tmp_path / "sol.json")
        save_solution(path, field, {"alpha": 0.5})
        raw = open(path).read()
        open(path, "w").write(raw[: len(raw) // 2])
        with pytest.raises(SolutionFileError, match="corrupt"):
            load_solution(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "sol.json"
        path.write_text(json.dumps({"format_version": 99, "metadata": {},
                                    "values": [1.0]}))
        with pytest.raises(SolutionFileError, match="supported versions"):
            load_solution(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(SolutionFileError):
            load_solution(str(tmp_path / "absent.json"))


class TestSweepCsv:
    def test_header_and_shape(self, tmp_path):
        from dataclasses import dataclass

        @dataclass
        class Row:
            alpha: float
            lam: float
            scaled: float
            seminorm_scaled_extremal: float
            converged: bool

        rows = [Row(0.9, 1.5, 2.5, 2.5, True),
                Row(0.95, float("nan"), float("nan"), float("nan"), False)]
        path = str(tmp_path / "sweep.csv")
        write_sweep_csv(path, rows)
        lines = open(path).read().strip().split("\n")
        assert lines[0] == SWEEP_CSV_HEADER == "alpha,lambda,scaled,seminorm_V,converged"
        assert lines[1].startswith("0.9,1.5,2.5,2.5,true")
        assert lines[2].endswith("false")
