"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every criterion prints its own pass line (bypassing capture, so the lines
appear in plain ``pytest`` runs too); a failing criterion shows up as a
failed test before its line is printed.

Run with ``pytest tests/test_acceptance.py -v``.
"""

import itertools
import json

import numpy as np
import pytest

from fss import (
    ChainOptions,
    Field,
    FracParams,
    SolveOptions,
    WeightField,
    apply_operator,
    build_grid,
    build_kernel,
    check_q_identity,
    check_stampacchia,
    check_strong_monotonicity,
    check_vector_inequalities,
    check_valfa_limit,
    embedding_constant,
    estimate_mu_direct,
    lambda_alpha,
    level_set_sizes,
    linfty_bound_report,
    norm_r,
    pairing,
    run_chain,
    seminorm_p,
    solve_nonsingular,
    sweep_alpha,
    verify_log_sobolev,
    verify_sobolev,
    weak_residual,
)
from fss.cli import run_command

from conftest import compact_bump_values, single_node_kernel, tight_chain_options
from oracles import (
    central_difference_gradient,
    dense_p2_matrix,
    scalar_lambda,
    scalar_level_solution,
    scalar_mu,
    scalar_singular_solution,
)

ALPHA_GRID = (0.90, 0.925, 0.95, 0.975, 0.99)


@pytest.fixture
def report(capfd):
    """Per-criterion pass line, emitted past pytest's capture."""

    def emit(num: int, description: str):
        with capfd.disabled():
            print(f"[criterion {num:02d}] PASS  {description}", flush=True)

    return emit


@pytest.fixture(scope="module")
def acc_grid():
    return build_grid([(0.0, 1.0)], 1.0 / 17, 0.5)


@pytest.fixture(scope="module")
def acc_kernel(acc_grid):
    return build_kernel(acc_grid, FracParams(s=0.5, p=2.0, n_dim=1))


@pytest.fixture(scope="module")
def acc_bump(acc_grid):
    return WeightField(compact_bump_values(acc_grid, radius=0.3), acc_grid,
                       r=3.0)


@pytest.fixture(scope="module")
def chain_05(acc_kernel, acc_bump):
    return run_chain(acc_bump, 0.5, acc_kernel, opts=ChainOptions())


@pytest.fixture(scope="module")
def chain_10(acc_kernel, acc_bump):
    return run_chain(acc_bump, 1.0, acc_kernel, opts=ChainOptions())


@pytest.fixture(scope="module")
def kernel_2d():
    grid = build_grid([(0.0, 1.0), (0.0, 1.0)], 1.0 / 11, 0.25)
    return build_kernel(grid, FracParams(s=0.5, p=2.0, n_dim=2))


@pytest.fixture(scope="module")
def chain_2d(kernel_2d):
    omega = WeightField(compact_bump_values(kernel_2d.grid, radius=0.3),
                        kernel_2d.grid, r=3.0)
    return run_chain(omega, 0.5, kernel_2d, opts=ChainOptions())


@pytest.fixture(scope="module")
def acc_sweep(acc_kernel, acc_bump):
    return sweep_alpha(acc_bump, ALPHA_GRID, acc_kernel, ChainOptions())


@pytest.fixture(scope="module")
def acc_mu(acc_kernel, acc_bump):
    return estimate_mu_direct(acc_bump, acc_kernel, ChainOptions())


def test_criterion_01_scalar_oracle_agreement(report):
    """u_n, u_alpha, lambda_alpha, mu_direct match bisection to 1e-9."""
    tol = 1e-9
    opts = tight_chain_options()
    for s, p, alpha in itertools.product((0.3, 0.5, 0.8), (1.5, 2.0, 3.0),
                                         (0.5, 1.0)):
        kernel = single_node_kernel(s=s, p=p)
        k2 = 2.0 * kernel.boundary_weight[0]
        m = kernel.grid.measure
        omega = WeightField(np.array([1.0]), kernel.grid, r=2.0)
        chain = run_chain(omega, alpha, kernel, opts=opts)
        assert chain.converged, (s, p, alpha)
        for rec in chain.levels:
            oracle = scalar_level_solution(k2, m, 1.0, rec.n, alpha, p)
            assert abs(rec.u.values[0] - oracle) <= tol * oracle, \
                (s, p, alpha, rec.n)
        u_oracle = scalar_singular_solution(k2, m, 1.0, alpha, p)
        assert abs(chain.u_alpha.values[0] - u_oracle) <= tol * u_oracle, \
            (s, p, alpha)
        if alpha < 1.0:
            sol = lambda_alpha(chain)
            lam_oracle = scalar_lambda(k2, u_oracle, alpha, p)
            assert abs(sol.lam - lam_oracle) <= tol * lam_oracle, (s, p, alpha)
        else:
            est = estimate_mu_direct(omega, kernel, opts, chain=chain)
            mu_oracle = scalar_mu(k2, u_oracle, p)
            assert abs(est.mu_direct - mu_oracle) <= tol * mu_oracle, (s, p)
    report(1, "scalar oracles agree to 1e-9 over the (s, p, alpha) grid")


def test_criterion_02_linear_oracle(report):
    """p = 2 solves match the dense linear solve to 1e-9 on up to 64 nodes."""
    rng = np.random.default_rng(2)
    for nodes in (16, 32, 64):
        grid = build_grid([(0.0, 1.0)], 1.0 / (nodes + 1), 0.5)
        assert grid.interior_count == nodes
        kernel = build_kernel(grid, FracParams(s=0.5, p=2.0, n_dim=1))
        f = np.abs(rng.standard_normal(nodes)) + 0.1
        direct = np.linalg.solve(dense_p2_matrix(kernel), grid.measure * f)
        u = solve_nonsingular(f, kernel, SolveOptions(grad_tol=1e-11))
        err = np.abs(u.values - direct).max() / np.abs(direct).max()
        assert err <= 1e-9, (nodes, err)
    report(2, "dense linear oracle matched to 1e-9 on 16/32/64 nodes")


def test_criterion_03_monotone_chain(report, chain_05, chain_10, chain_2d):
    """u_n nondecreasing (1e-8) and energies nondecreasing (1e-10 rel)."""
    for chain in (chain_05, chain_10, chain_2d):
        assert chain.converged
        assert chain.monotone_gap() <= 1e-8
        for a, b in zip(chain.seminorms, chain.seminorms[1:]):
            assert a <= b * (1.0 + 1e-10)
    report(3, "levels and energies monotone for 1D/2D, alpha in {0.5, 1}")


def test_criterion_04_barrier_and_bounds(report, chain_05, chain_10, chain_2d,
                                         acc_kernel, acc_bump, kernel_2d):
    """Barrier below every level; sup-norm bound; alpha = 1 energy identity."""
    for chain in (chain_05, chain_10, chain_2d):
        assert chain.barrier_gap() <= 1e-8
    for chain in (chain_05, chain_10):
        bound = linfty_bound_report(chain.u_alpha, acc_bump, acc_kernel,
                                    theta=4.0, alpha=chain.alpha)
        assert bound.passed, bound
    # 2D subcritical regime: p r' = 3 < theta < p_star = 4
    bound_2d = linfty_bound_report(chain_2d.u_alpha, chain_2d.omega, kernel_2d,
                                   theta=3.5, alpha=chain_2d.alpha)
    assert bound_2d.passed, bound_2d
    sn = seminorm_p(chain_10.u_alpha, acc_kernel)
    assert abs(sn - acc_bump.norm_1) <= 1e-7 * acc_bump.norm_1
    report(4, "barrier, sup-norm bound, and alpha = 1 energy identity hold")


def test_criterion_05_sharp_certification(report, chain_05):
    """No violation at the best constant; inflating it breaks the extremal."""
    sol = lambda_alpha(chain_05)
    good = verify_sobolev(sol, trials=1000, seed=42)
    assert good.violations == 0
    assert good.min_slack_rel >= -1e-8
    assert good.extremal_max_rel <= 1e-8
    bad = verify_sobolev(sol, trials=10, seed=42, constant=1.001 * sol.lam)
    assert bad.violations > 0
    assert bad.min_slack_rel < -1e-8
    report(5, "sharpness certified: 1000 trials clean, 1.001x caught")


def test_criterion_06_sweep_consistency(report, acc_sweep, acc_mu):
    """Scaled constants nondecreasing; last within 1e-2 of the direct value;
    sweep extremals approach the direct extremal."""
    assert all(rec.converged for rec in acc_sweep.records)
    assert acc_sweep.monotonicity_gap() <= 1e-8
    final = acc_sweep.records[-1].scaled
    assert abs(final - acc_mu.mu_direct) <= 1e-2 * acc_mu.mu_direct
    limit = check_valfa_limit(acc_sweep, acc_mu)
    assert limit.gaps_decreasing
    report(6, "sweep monotone, limit within 1e-2, extremal gaps shrink")


def test_criterion_07_log_certification(report, acc_mu):
    """Log inequality holds at mu_direct; equality at the extremal; the
    limit equation and the zero log-mean are satisfied."""
    cert = verify_log_sobolev(acc_mu, trials=1000, seed=42)
    assert cert.violations == 0
    assert cert.min_slack_rel >= -1e-8
    assert cert.extremal_max_rel <= 1e-8
    limit_weight = WeightField(
        acc_mu.omega.values * acc_mu.mu_direct / acc_mu.omega.norm_1,
        acc_mu.omega.grid, acc_mu.omega.r)
    residual = weak_residual(acc_mu.extremal, limit_weight, 1.0,
                             acc_mu.kernel, seed=11)
    assert residual.max_residual <= 1e-6
    assert abs(acc_mu.log_mean_residual) <= 1e-8
    report(7, "log inequality certified with equality at the extremal")


def test_criterion_08_lemma_suites(report, chain_05, acc_kernel, acc_bump,
                                   acc_grid):
    """All four checkers pass with 1000 trials at p in {1.5, 2, 3}; the
    p = 2 fits equal 1 to 1e-12."""
    for p in (1.5, 2.0, 3.0):
        vec = check_vector_inequalities(p, trials=1000, seed=42)
        assert vec.passed, p
        kernel_p = build_kernel(acc_grid, FracParams(s=0.5, p=p, n_dim=1))
        mono = check_strong_monotonicity(kernel_p, trials=1000, seed=42)
        assert mono.passed, p
        qid = check_q_identity(kernel_p, trials=1000, seed=42)
        assert qid.passed, p
        if p == 2.0:
            assert abs(vec.constants["c_p"] - 1.0) <= 1e-12
            assert abs(vec.constants["C_p"] - 1.0) <= 1e-12
            assert abs(mono.constants["C"] - 1.0) <= 1e-12
    # level-set decay, end to end from a computed solution
    u = chain_05.u_alpha
    p = acc_kernel.params.p
    alpha = chain_05.alpha
    theta = 4.0
    s_theta = embedding_constant(theta, acc_kernel).value
    k0 = 0.25 * float(u.values.max())
    c_const = (norm_r(acc_bump, acc_bump.r) * s_theta
               / k0**alpha) ** (theta / (p - 1.0))
    r_conj = acc_bump.r / (acc_bump.r - 1.0)
    b = (theta / r_conj - 1.0) / (p - 1.0)
    g0 = level_set_sizes(u, [k0])[0]
    d = (c_const * g0 ** (b - 1.0)
         * 2.0 ** (theta * b / (b - 1.0))) ** (1.0 / theta)
    ks = np.unique(np.concatenate([
        np.linspace(k0, k0 + 1.05 * d, 1000),
        [k0 + d - d / 2.0**n for n in range(1, 30)],
    ]))
    stam = check_stampacchia((ks, level_set_sizes(u, ks)), k0=k0, C=c_const,
                             theta=theta, b=b)
    assert stam.passed
    report(8, "lemma suites pass at p in {1.5, 2, 3}; p = 2 constants are 1")


def test_criterion_09_uniqueness_and_determinism(report, acc_kernel,
                                                 acc_bump, tmp_path):
    """Chains agree across schedules and starts; reruns are byte-identical."""
    opts = ChainOptions()
    base = run_chain(acc_bump, 0.5, acc_kernel, opts=opts)
    tripling = run_chain(acc_bump, 0.5, acc_kernel,
                         schedule=[3**k for k in range(30)], opts=opts)
    high_start = run_chain(acc_bump, 0.5, acc_kernel, opts=opts,
                           init=Field.constant(acc_kernel.grid, 10.0))
    assert (base.u_alpha - tripling.u_alpha).max_norm() <= 1e-6
    assert (base.u_alpha - high_start.u_alpha).max_norm() <= 1e-6

    cfg = {
        "grid": {"box": [[0.0, 1.0]], "h": 1.0 / 17, "collar_width": 0.5,
                 "tail_enabled": True},
        "params": {"s": 0.5, "p": 2.0},
        "weight": {"kind": "compact-bump", "radius": 0.3, "r": 3.0},
        "problem": {"alpha": 0.5, "alpha_grid": [0.9, 0.95]},
        "verification": {"trials": 100, "seed": 42},
        "output": {"solution": str(tmp_path / "sol.json"),
                   "sweep_csv": str(tmp_path / "sweep.csv"),
                   "mu_report": str(tmp_path / "mu.json")},
    }
    cfg_path = str(tmp_path / "c.json")
    open(cfg_path, "w").write(json.dumps(cfg))
    assert run_command(["sweep", "--config", cfg_path]) == 0
    first = (open(tmp_path / "sweep.csv", "rb").read(),
             open(tmp_path / "mu.json", "rb").read())
    assert run_command(["sweep", "--config", cfg_path]) == 0
    second = (open(tmp_path / "sweep.csv", "rb").read(),
              open(tmp_path / "mu.json", "rb").read())
    assert first == second
    report(9, "limits agree across schedules/starts; outputs byte-stable")


def test_criterion_10_gradient_correctness(report, acc_grid):
    """Operator application matches finite differences (p >= 2, 1e-5) and
    the pairing identity (1e-10 relative) on random fields."""
    rng = np.random.default_rng(10)
    for p in (1.5, 2.0, 3.0):
        kernel = build_kernel(acc_grid, FracParams(s=0.5, p=p, n_dim=1))
        for _ in range(10):
            u = Field(rng.uniform(-1, 1, acc_grid.interior_count), acc_grid)
            v = Field(rng.uniform(-1, 1, acc_grid.interior_count), acc_grid)
            g = apply_operator(u, kernel)
            lhs = float(g @ v.values)
            rhs = pairing(u, v, kernel)
            assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(rhs))
        if p >= 2.0:
            u = Field(rng.uniform(-1, 1, acc_grid.interior_count), acc_grid)

            def energy(values, kernel=kernel, p=p):
                return seminorm_p(Field(values, acc_grid), kernel) / p

            g = apply_operator(u, kernel)
            fd = central_difference_gradient(energy, u.values, 1e-6)
            assert np.abs(g - fd).max() <= 1e-5 * np.abs(g).max()
    report(10, "gradient matches pairing (1e-10) and finite differences")
