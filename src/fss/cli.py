"""Command-line surface tying the pipeline together.

Subcommands:

    solve     run the approximation chain for one alpha, write the
              solution file and per-level diagnostics
    sweep     chain-solve an alpha grid, write the sweep CSV and the
              mu report JSON
    verify    reload a solution file and re-certify it (weak residual
              plus the matching sharp inequality)
    props     run the standalone lemma checkers
    constant  compute a discrete embedding constant

Exit codes: 0 when every assertion passed, 2 on an assertion or
convergence failure, 1 on usage or config errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import __version__
from .chain import run_chain, weak_residual
from .config import build_geometry, build_weight, load_config
from .constants import (
    SHARED_TRIALS,
    check_valfa_limit,
    estimate_mu,
    estimate_mu_direct,
    lambda_alpha,
    mu_from_field,
    solution_from_field,
    verify_log_sobolev,
    verify_sobolev,
)
from .exceptions import ConfigError, FssError, GridError, SolutionFileError
from .lemmas import (
    check_q_identity,
    check_strong_monotonicity,
    check_vector_inequalities,
)
from .operators import Field
from .solution_io import (
    dump_json,
    grid_shape_of,
    load_solution,
    save_solution,
    write_mu_report,
    write_sweep_csv,
)
from .solver import embedding_constant

USAGE_ERROR = 1
CHECK_FAILED = 2


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits 1 on usage errors, per the CLI contract."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(USAGE_ERROR)


def _build_parser() -> _Parser:
    parser = _Parser(prog="fss", description=__doc__.split("\n")[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="run the chain for one alpha")
    sp.add_argument("--config", required=True)
    sp.add_argument("--out", help="solution file path (overrides config output)")

    sw = sub.add_parser("sweep", help="alpha sweep with mu estimation")
    sw.add_argument("--config", required=True)
    sw.add_argument("--csv", help="sweep CSV path (overrides config output)")
    sw.add_argument("--mu-report", help="mu report path (overrides config output)")

    vf = sub.add_parser("verify", help="re-certify a stored solution")
    vf.add_argument("--config", required=True)
    vf.add_argument("--solution", required=True)
    vf.add_argument("--trials", type=int)
    vf.add_argument("--seed", type=int)
    vf.add_argument("--report", help="write the verification report here")

    pr = sub.add_parser("props", help="run the lemma checkers")
    pr.add_argument("--config", required=True)
    pr.add_argument("--out", help="write the reports here")

    ct = sub.add_parser("constant", help="compute an embedding constant")
    ct.add_argument("--config", required=True)
    ct.add_argument("--theta", type=float, required=True)
    ct.add_argument("--out", help="write the result here")
    return parser


def _emit(payload: dict, path: str | None):
    if path:
        dump_json(path, payload)
    else:
        from .solution_io import _jsonify

        json.dump(_jsonify(payload), sys.stdout, sort_keys=True, indent=1)
        sys.stdout.write("\n")


def _cmd_solve(args) -> int:
    cfg = load_config(args.config)
    if cfg.alpha is None:
        raise ConfigError("solve needs problem.alpha", "problem.alpha")
    grid, params, kernel = build_geometry(cfg)
    omega = build_weight(cfg, grid)
    chain = run_chain(omega, cfg.alpha, kernel, opts=cfg.chain_options)
    meta = {
        "config_hash": cfg.config_hash(),
        "grid_shape": grid_shape_of(grid),
        "alpha": cfg.alpha,
        "seminorm_p": chain.seminorm,
        "converged": chain.converged,
        "format": "interior nodal values, row-major",
    }
    if chain.converged and cfg.alpha < 1.0:
        sol = lambda_alpha(chain)
        meta["lambda"] = sol.lam
    elif chain.converged and cfg.alpha == 1.0:
        est = estimate_mu_direct(omega, kernel, cfg.chain_options, chain=chain)
        meta["mu"] = est.mu_direct
    out = args.out or cfg.output.get("solution", "solution.json")
    save_solution(out, chain.u_alpha, meta)
    diag_path = cfg.output.get("diagnostics")
    if diag_path:
        dump_json(diag_path, {
            "alpha": cfg.alpha,
            "levels": [rec.to_json_record() for rec in chain.levels],
            "converged": chain.converged,
            "m_alpha": chain.m_alpha,
            "polish_sweeps": chain.polish_sweeps,
        })
    print(f"wrote {out} (converged={chain.converged}, "
          f"levels={len(chain.levels)})")
    return 0 if chain.converged else CHECK_FAILED


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    if cfg.alpha_grid is None:
        raise ConfigError("sweep needs problem.alpha_grid", "problem.alpha_grid")
    grid, params, kernel = build_geometry(cfg)
    omega = build_weight(cfg, grid)
    estimate, sweep = estimate_mu(omega, cfg.alpha_grid, kernel,
                                  cfg.chain_options)
    csv_path = args.csv or cfg.output.get("sweep_csv", "sweep.csv")
    write_sweep_csv(csv_path, sweep.records)
    mu_path = args.mu_report or cfg.output.get("mu_report", "mu.json")
    write_mu_report(mu_path, estimate)
    limit = check_valfa_limit(sweep, estimate)
    print(f"wrote {csv_path} and {mu_path} (trend={estimate.trend}, "
          f"final gap={limit.final_gap:.3e})")
    ok = all(rec.converged for rec in sweep.records)
    return 0 if ok else CHECK_FAILED


def _cmd_verify(args) -> int:
    cfg = load_config(args.config)
    trials = args.trials if args.trials is not None else cfg.trials
    seed = args.seed if args.seed is not None else cfg.seed
    if trials < 1:
        raise ConfigError(f"must be a positive integer, got {trials}",
                          "--trials")
    if seed < 0:
        raise ConfigError(f"must be a nonnegative integer, got {seed}",
                          "--seed")
    stored = load_solution(args.solution)
    grid, params, kernel = build_geometry(cfg)
    omega = build_weight(cfg, grid)
    if stored.grid_shape() != grid_shape_of(grid):
        raise SolutionFileError(
            "grid mismatch: solution was computed on a different grid"
        )
    if stored.metadata.get("config_hash") not in (None, cfg.config_hash()):
        sys.stderr.write("warning: config hash differs from the stored one\n")
    if stored.values.size != grid.interior_count:
        raise SolutionFileError(
            f"corrupt solution file: {stored.values.size} values for "
            f"{grid.interior_count} interior nodes")
    alpha = stored.metadata.get("alpha")
    if alpha is None:
        raise SolutionFileError("solution file lacks alpha metadata")
    # A JSON number, not a boolean or string; alpha > 1 is what `fss solve`
    # writes for compactly supported weights.
    if type(alpha) not in (int, float) or not 0.0 < alpha < math.inf:
        raise SolutionFileError(f"corrupt solution file: alpha must be a "
                                f"positive finite number, got {alpha!r}")
    u = Field(stored.values, grid)

    # The weak residual's test fields are the certification's first trials,
    # drawn once and kept on the kernel with every energy either takes.
    residual = weak_residual(u, omega, alpha, kernel,
                             min(trials, SHARED_TRIALS), seed)
    report = {
        "alpha": alpha,
        "trials": trials,
        "seed": seed,
        "weak_residual": residual.max_residual,
        "aux_min_slack": residual.aux_min_slack,
    }
    ok = residual.max_residual <= 1e-6 and residual.aux_min_slack >= -1e-10
    if alpha < 1.0:
        sol = solution_from_field(u, omega, kernel, alpha)
        cert = verify_sobolev(sol, trials=trials, seed=seed)
        report["lambda"] = sol.lam
    elif alpha == 1.0:
        est = mu_from_field(u, omega, kernel)
        cert = verify_log_sobolev(est, trials=trials, seed=seed)
        report["mu"] = est.mu_direct
        report["log_mean_residual"] = est.log_mean_residual
        ok = ok and abs(est.log_mean_residual) <= 1e-8
    if alpha <= 1.0:
        report["min_slack_rel"] = cert.min_slack_rel
        report["extremal_max_rel"] = cert.extremal_max_rel
        report["violations"] = cert.violations
        ok = ok and cert.violations == 0 and cert.extremal_max_rel <= 1e-8
    report["passed"] = bool(ok)
    _emit(report, args.report)
    return 0 if ok else CHECK_FAILED


def _cmd_props(args) -> int:
    cfg = load_config(args.config)
    grid, params, kernel = build_geometry(cfg)
    trials = cfg.trials
    seed = cfg.seed
    reports = [
        check_vector_inequalities(cfg.p, trials=trials, seed=seed),
        check_strong_monotonicity(kernel, trials=min(trials, 300), seed=seed),
        check_q_identity(kernel, trials=min(trials, 300), seed=seed),
    ]
    payload = {"reports": [r.to_json_record() for r in reports]}
    ok = all(r.passed for r in reports)
    payload["passed"] = ok
    _emit(payload, args.out)
    return 0 if ok else CHECK_FAILED


def _cmd_constant(args) -> int:
    cfg = load_config(args.config)
    grid, params, kernel = build_geometry(cfg)
    result = embedding_constant(args.theta, kernel,
                                opts=cfg.chain_options.solve)
    _emit({
        "theta": result.theta,
        "value": result.value,
        "exact": result.exact,
    }, args.out)
    return 0


def run_command(argv) -> int:
    """Run one CLI invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "solve": _cmd_solve,
        "sweep": _cmd_sweep,
        "verify": _cmd_verify,
        "props": _cmd_props,
        "constant": _cmd_constant,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, GridError, SolutionFileError, ValueError) as err:
        sys.stderr.write(f"error: {err}\n")
        return USAGE_ERROR
    except FssError as err:
        sys.stderr.write(f"check failed: {err}\n")
        return CHECK_FAILED
    except AssertionError as err:
        sys.stderr.write(f"assertion failed: {err}\n")
        return CHECK_FAILED


def main():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
