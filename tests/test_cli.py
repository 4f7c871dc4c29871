import json

import pytest

from fss.cli import run_command

from test_config_io import write_config


def cli_config(tmp_path, **problem):
    out = {
        "solution": str(tmp_path / "sol.json"),
        "diagnostics": str(tmp_path / "diag.json"),
        "sweep_csv": str(tmp_path / "sweep.csv"),
        "mu_report": str(tmp_path / "mu.json"),
    }
    overrides = {
        "grid": {"box": [[0.0, 1.0]], "h": 1.0 / 17, "collar_width": 0.5,
                 "tail_enabled": True},
        "weight": {"kind": "compact-bump", "radius": 0.3, "r": 3.0},
        "problem": {"alpha": 0.5,
                    "alpha_grid": [0.9, 0.95, 0.99],
                    **problem},
        "verification": {"trials": 150, "seed": 42},
        "output": out,
    }
    return write_config(tmp_path, overrides), out


class TestSolveCommand:
    def test_solve_writes_solution_and_diagnostics(self, tmp_path):
        path, out = cli_config(tmp_path)
        assert run_command(["solve", "--config", path]) == 0
        sol = json.load(open(out["solution"]))
        assert sol["format_version"] == 1
        assert "lambda" in sol["metadata"]
        diag = json.load(open(out["diagnostics"]))
        assert {"n", "seminorm_p", "min_u", "max_u", "fp_iters", "fp_delta",
                "residual"} == set(diag["levels"][0])

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_metadata_seminorm_is_that_of_stored_values(self, tmp_path,
                                                        alpha):
        from fss import Field, FracParams, build_grid, build_kernel, seminorm_p

        path, out = cli_config(tmp_path, alpha=alpha)
        assert run_command(["solve", "--config", path]) == 0
        sol = json.load(open(out["solution"]))
        grid = build_grid([(0.0, 1.0)], 1.0 / 17, 0.5)
        kernel = build_kernel(grid, FracParams(s=0.5, p=2.0, n_dim=1), True)
        stored = seminorm_p(Field(sol["values"], grid), kernel)
        assert sol["metadata"]["seminorm_p"] == stored

    def test_solve_alpha_one_records_mu(self, tmp_path):
        path, out = cli_config(tmp_path, alpha=1.0)
        assert run_command(["solve", "--config", path]) == 0
        sol = json.load(open(out["solution"]))
        assert sol["metadata"]["mu"] > 0.0

    def test_missing_alpha(self, tmp_path):
        path, out = cli_config(tmp_path)
        cfg = json.load(open(path))
        del cfg["problem"]["alpha"]
        open(path, "w").write(json.dumps(cfg))
        assert run_command(["solve", "--config", path]) == 1


class TestSingleNodeOracle:
    def test_solve_lambda_matches_scalar_oracle(self, tmp_path):
        # single interior node: 0.5 on (0, 1) with h = 0.5
        sys_path_parent = str(tmp_path / "sol.json")
        overrides = {
            "grid": {"box": [[0.0, 1.0]], "h": 0.5, "collar_width": 1.0,
                     "tail_enabled": True},
            "weight": {"kind": "constant", "value": 1.0, "r": 2.0},
            "problem": {"alpha": 0.5,
                        "tolerances": {"grad": 1e-13, "fixed_point": 1e-14,
                                       "chain": 1e-9}},
            "output": {"solution": sys_path_parent},
        }
        path = write_config(tmp_path, overrides)
        assert run_command(["solve", "--config", path,
                            "--out", sys_path_parent]) == 0
        meta = json.load(open(sys_path_parent))["metadata"]

        from fss import FracParams, build_grid, build_kernel
        from oracles import scalar_lambda, scalar_singular_solution

        grid = build_grid([(0.0, 1.0)], 0.5, 1.0)
        kernel = build_kernel(grid, FracParams(s=0.5, p=2.0, n_dim=1), True)
        k2 = 2.0 * kernel.boundary_weight[0]
        u = scalar_singular_solution(k2, grid.measure, 1.0, 0.5, 2.0)
        lam = scalar_lambda(k2, u, 0.5, 2.0)
        assert meta["lambda"] == pytest.approx(lam, rel=1e-9)


class TestVerifyCommand:
    def test_verify_roundtrip(self, tmp_path):
        path, out = cli_config(tmp_path)
        assert run_command(["solve", "--config", path]) == 0
        report_path = str(tmp_path / "report.json")
        rc = run_command(["verify", "--config", path,
                          "--solution", out["solution"],
                          "--report", report_path])
        assert rc == 0
        report = json.load(open(report_path))
        assert report["passed"] is True
        assert report["violations"] == 0

    def test_verify_seeded_determinism(self, tmp_path):
        path, out = cli_config(tmp_path)
        run_command(["solve", "--config", path])
        r1 = str(tmp_path / "r1.json")
        r2 = str(tmp_path / "r2.json")
        args = ["verify", "--config", path, "--solution", out["solution"],
                "--trials", "200", "--seed", "42"]
        assert run_command(args + ["--report", r1]) == 0
        assert run_command(args + ["--report", r2]) == 0
        assert open(r1, "rb").read() == open(r2, "rb").read()

    def test_grid_mismatch(self, tmp_path):
        path, out = cli_config(tmp_path)
        run_command(["solve", "--config", path])
        sub = tmp_path / "sub"
        sub.mkdir()
        other, _ = cli_config(sub)
        cfg = json.load(open(other))
        cfg["grid"]["h"] = 1.0 / 9
        open(other, "w").write(json.dumps(cfg))
        rc = run_command(["verify", "--config", other,
                          "--solution", out["solution"]])
        assert rc == 1

    def test_tampered_solution_fails_checks(self, tmp_path):
        path, out = cli_config(tmp_path)
        run_command(["solve", "--config", path])
        sol = json.load(open(out["solution"]))
        sol["values"] = [v + 0.05 for v in sol["values"]]
        open(out["solution"], "w").write(json.dumps(sol))
        rc = run_command(["verify", "--config", path,
                          "--solution", out["solution"]])
        assert rc == 2

    @pytest.mark.parametrize("key,value", [
        ("values", [{"a": 1}]),
        ("values", [1, [2, 3]]),
        ("metadata", [1]),
    ], ids=["object-values", "ragged-values", "list-metadata"])
    def test_corrupt_solution_file(self, tmp_path, capsys, key, value):
        path, out = cli_config(tmp_path)
        run_command(["solve", "--config", path])
        sol = json.load(open(out["solution"]))
        sol[key] = value
        open(out["solution"], "w").write(json.dumps(sol))
        rc = run_command(["verify", "--config", path,
                          "--solution", out["solution"]])
        assert rc == 1
        assert "error: corrupt solution file: " in capsys.readouterr().err

    def test_hash_mismatch_is_warning_only(self, tmp_path, capsys):
        path, out = cli_config(tmp_path)
        run_command(["solve", "--config", path])
        sol = json.load(open(out["solution"]))
        sol["metadata"]["config_hash"] = "different"
        open(out["solution"], "w").write(json.dumps(sol))
        rc = run_command(["verify", "--config", path,
                          "--solution", out["solution"]])
        assert rc == 0


class TestSweepCommand:
    def test_sweep_outputs(self, tmp_path):
        path, out = cli_config(tmp_path)
        assert run_command(["sweep", "--config", path]) == 0
        lines = open(out["sweep_csv"]).read().strip().split("\n")
        assert lines[0] == "alpha,lambda,scaled,seminorm_V,converged"
        assert len(lines) == 4
        mu = json.load(open(out["mu_report"]))
        assert set(mu) == {"mu_sweep", "mu_direct", "trend", "grid"}
        assert mu["trend"] == "converged"

    def test_sweep_byte_determinism(self, tmp_path):
        path, out = cli_config(tmp_path)
        assert run_command(["sweep", "--config", path]) == 0
        csv1 = open(out["sweep_csv"], "rb").read()
        mu1 = open(out["mu_report"], "rb").read()
        assert run_command(["sweep", "--config", path]) == 0
        assert open(out["sweep_csv"], "rb").read() == csv1
        assert open(out["mu_report"], "rb").read() == mu1


class TestPropsAndConstant:
    def test_props(self, tmp_path):
        path, _ = cli_config(tmp_path)
        out = str(tmp_path / "props.json")
        assert run_command(["props", "--config", path, "--out", out]) == 0
        payload = json.load(open(out))
        assert payload["passed"] is True
        assert len(payload["reports"]) == 4

    def test_constant(self, tmp_path):
        path, _ = cli_config(tmp_path)
        out = str(tmp_path / "const.json")
        rc = run_command(["constant", "--config", path, "--theta", "2.0",
                          "--out", out])
        assert rc == 0
        assert json.load(open(out))["value"] > 0.0


class TestExitCodes:
    def test_unknown_subcommand(self):
        assert run_command(["bogus"]) == 1

    def test_no_args(self):
        assert run_command([]) == 1

    def test_config_error(self, tmp_path):
        path = write_config(tmp_path, {"params": {"s": 2.0}})
        assert run_command(["solve", "--config", path]) == 1

    def test_missing_config_file(self, tmp_path):
        assert run_command(["solve", "--config",
                            str(tmp_path / "nope.json")]) == 1

    def test_seed_env_override(self, tmp_path, monkeypatch):
        path, out = cli_config(tmp_path)
        run_command(["solve", "--config", path])
        monkeypatch.setenv("FSS_SEED", "9")
        report = str(tmp_path / "rep.json")
        assert run_command(["verify", "--config", path,
                            "--solution", out["solution"],
                            "--report", report]) == 0
        assert json.load(open(report))["seed"] == 9
