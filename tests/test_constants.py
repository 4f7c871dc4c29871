import functools
import math
from dataclasses import replace

import numpy as np
import pytest

from fss import (
    ChainOptions,
    Field,
    FracParams,
    FssError,
    SolverError,
    WeightField,
    build_grid,
    build_kernel,
    check_valfa_limit,
    estimate_mu,
    estimate_mu_direct,
    lambda_alpha,
    log_functional,
    run_chain,
    seminorm_p,
    solution_from_field,
    sweep_alpha,
    verify_log_sobolev,
    verify_sobolev,
    weak_residual,
)

from fss import chain as chain_module, constants, solver as solver_module

from conftest import (compact_bump_values, synthetic_unit_kernel,
                      tight_chain_options)
from oracles import (
    certify_per_field,
    extremal_distance,
    scalar_lambda,
    scalar_mu,
    scalar_singular_solution,
    weighted_qmean,
)
from test_sampling import count_draws, count_energy_rows, record_chunks

ALPHA_GRID = (0.90, 0.925, 0.95, 0.975, 0.99)


@pytest.fixture(scope="module")
def bump_chain_05(kernel_1d, bump_weight):
    return run_chain(bump_weight, 0.5, kernel_1d, opts=ChainOptions())


@pytest.fixture(scope="module")
def bump_solution_05(bump_chain_05):
    return lambda_alpha(bump_chain_05)


@pytest.fixture(scope="module")
def bump_mu(kernel_1d, bump_weight):
    return estimate_mu_direct(bump_weight, kernel_1d, ChainOptions())


@pytest.fixture(scope="module")
def bump_sweep(kernel_1d, bump_weight):
    return sweep_alpha(bump_weight, ALPHA_GRID, kernel_1d, ChainOptions())


class TestLambdaAlpha:
    def test_exponent_example(self):
        # [u]^p = 2, alpha = 0.5, p = 2: exponent (1-a-p)/(1-a) = -3,
        # so the constant is 2^-3 = 0.125.
        assert (2.0) ** ((1.0 - 0.5 - 2.0) / (1.0 - 0.5)) == 0.125

    def test_unit_seminorm_formula(self):
        # a solution with unit energy gives constant 1 for every (alpha, p)
        for alpha in (0.3, 0.5, 0.9):
            for p in (1.5, 2.0, 3.0):
                assert 1.0 ** ((1.0 - alpha - p) / (1.0 - alpha)) == 1.0

    def test_two_way_agreement_scalar(self):
        kernel = synthetic_unit_kernel(p=2.0, pair_weight=1.0)
        omega = WeightField(np.array([1.0]), kernel.grid)
        chain = run_chain(omega, 0.5, kernel, opts=tight_chain_options())
        sol = lambda_alpha(chain)
        u = 0.6299605249474366  # 2 u = u^(-1/2)
        sn = 2.0 * u**2
        assert sol.seminorm_u == pytest.approx(sn, rel=1e-11)
        assert sol.lam == pytest.approx(sn ** ((1.0 - 0.5 - 2.0) / 0.5),
                                        rel=1e-9)
        oracle = scalar_lambda(2.0, scalar_singular_solution(2.0, 1, 1, 0.5, 2.0),
                               0.5, 2.0)
        assert sol.lam == pytest.approx(oracle, rel=1e-9)

    def test_membership_invariants(self, bump_solution_05, kernel_1d,
                                   bump_weight):
        sol = bump_solution_05
        m = kernel_1d.grid.measure
        mass = float(m * (bump_weight.values
                          * np.abs(sol.extremal.values) ** 0.5).sum())
        assert mass == pytest.approx(1.0, abs=1e-9)
        scaled_mass = float(m * (bump_weight.values
                                 * np.abs(sol.scaled_extremal.values) ** 0.5).sum())
        normalized = (scaled_mass / bump_weight.norm_1) ** (2.0 / 0.5)
        assert normalized == pytest.approx(1.0, abs=1e-8)
        assert sol.lam == pytest.approx(seminorm_p(sol.extremal, kernel_1d),
                                        rel=1e-9)

    def test_alpha_one_rejected(self, kernel_1d, bump_weight):
        chain = run_chain(bump_weight, 1.0, kernel_1d, opts=ChainOptions())
        with pytest.raises(FssError, match="estimate_mu_direct"):
            lambda_alpha(chain)

    def test_homogeneity_in_field_scale(self, bump_solution_05, kernel_1d,
                                        bump_weight):
        # Feeding c * u through the normalization leaves the attained
        # constant unchanged: the unit-mass normalizer absorbs the scale.
        sol = bump_solution_05
        alpha = sol.alpha
        m = kernel_1d.grid.measure
        for c in (2.0, 0.3):
            v = c * sol.u
            mass = float(m * (bump_weight.values
                              * np.abs(v.values) ** (1 - alpha)).sum())
            extremal = mass ** (-1.0 / (1.0 - alpha)) * v
            assert seminorm_p(extremal, kernel_1d) == pytest.approx(
                sol.lam, rel=1e-12
            )

    def test_rejects_garbage_field(self, kernel_1d, bump_weight):
        junk = Field(np.abs(np.random.default_rng(5).uniform(
            0.5, 1.0, kernel_1d.interior_count)), kernel_1d.grid)
        with pytest.raises(FssError, match="disagree"):
            solution_from_field(junk, bump_weight, kernel_1d, 0.5)

    def test_unrepresentable_normalizer_reported(self, kernel_1d, bump_weight):
        # at alpha extremely close to 1 the unit-mass normalizer leaves the
        # double range unless the solution mass sits near 1; the failure
        # must be reported clearly, not as an overflow artifact
        u = Field(np.full(kernel_1d.interior_count, 0.5), kernel_1d.grid)
        with pytest.raises(FssError, match="not.*representable|rescale"):
            solution_from_field(u, bump_weight, kernel_1d, 0.999)


class TestVerifySobolev:
    def test_no_violations(self, bump_solution_05):
        report = verify_sobolev(bump_solution_05, trials=1000, seed=42)
        assert report.violations == 0
        assert report.min_slack_rel >= -1e-8

    def test_extremal_multiples_attain_equality(self, bump_solution_05):
        report = verify_sobolev(bump_solution_05, trials=10, seed=42)
        assert report.extremal_max_rel <= 1e-8

    def test_inflated_constant_fails_at_extremal(self, bump_solution_05):
        report = verify_sobolev(bump_solution_05, trials=10, seed=42,
                                constant=bump_solution_05.lam * 1.001)
        assert report.violations > 0
        assert report.min_slack_rel < -1e-8

    def test_both_sides_scale_alike(self, bump_solution_05, kernel_1d,
                                    bump_weight):
        # under v -> k v the energy and the weighted mass term scale by
        # |k|^p identically, so the slack scales by |k|^p in ratio form
        sol = bump_solution_05
        p = kernel_1d.params.p
        alpha = sol.alpha
        for k in (-3.0, 0.25, 7.0):
            v = k * sol.extremal
            sn = seminorm_p(v, kernel_1d)
            mass = float(kernel_1d.grid.measure
                         * (bump_weight.values
                            * np.abs(v.values) ** (1 - alpha)).sum())
            term = sol.lam * mass ** (p / (1 - alpha))
            assert sn == pytest.approx(abs(k) ** p * sol.lam, rel=1e-10)
            assert term == pytest.approx(abs(k) ** p * sol.lam, rel=1e-10)

    def test_near_minimizers_are_extremal_multiples(self, bump_solution_05,
                                                    kernel_1d, bump_weight):
        sol = bump_solution_05
        p = kernel_1d.params.p
        alpha = sol.alpha
        rng = np.random.default_rng(7)
        for k in (0.5, -1.5):
            v = k * sol.extremal
            sn = seminorm_p(v, kernel_1d)
            mass = float(kernel_1d.grid.measure
                         * (bump_weight.values
                            * np.abs(v.values) ** (1 - alpha)).sum())
            slack = sn - sol.lam * mass ** (p / (1 - alpha))
            assert abs(slack) <= 1e-6 * sn
            assert extremal_distance(v, sol.extremal) <= 1e-3
        # a genuinely different field with small slack does not exist among
        # random candidates: slack stays bounded away from zero
        for _ in range(50):
            v = Field(rng.uniform(-1, 1, kernel_1d.interior_count),
                      kernel_1d.grid)
            sn = seminorm_p(v, kernel_1d)
            mass = float(kernel_1d.grid.measure
                         * (bump_weight.values
                            * np.abs(v.values) ** (1 - alpha)).sum())
            slack = sn - sol.lam * mass ** (p / (1 - alpha))
            if slack > 1e-6 * sn:
                continue
            assert extremal_distance(v, sol.extremal) <= 1e-3


class TestSweep:
    def test_scaled_values_nondecreasing(self, bump_sweep):
        assert bump_sweep.monotonicity_gap() <= 1e-8
        assert all(rec.converged for rec in bump_sweep.records)

    def test_scaled_extremal_energy_identity(self, bump_sweep):
        for rec in bump_sweep.records:
            assert rec.seminorm_scaled_extremal == pytest.approx(
                rec.scaled, rel=1e-8
            )

    def test_single_point_grid(self, kernel_1d, bump_weight):
        result = sweep_alpha(bump_weight, [0.95], kernel_1d, ChainOptions())
        assert len(result.records) == 1
        assert result.monotonicity_gap() == 0.0

    def test_solves_no_embedding_constant(self, kernel_1d, bump_weight,
                                          monkeypatch):
        # No chain of the sweep solves the constant of the a-priori bound.
        def no_solve(*args, **kwargs):
            raise AssertionError("the sweep solved an embedding constant")

        monkeypatch.setattr(solver_module, "embedding_constant", no_solve)
        monkeypatch.setattr(chain_module, "embedding_constant", no_solve)
        result = sweep_alpha(bump_weight, [0.95], kernel_1d, ChainOptions())
        assert result.records[0].converged

    def test_weight_doubling_homogeneity(self, kernel_1d, bump_weight):
        # lambda scales by 2^(-p/(1-a)) under w -> 2w while the scaled
        # value is invariant; the solution rescales by 2^(1/(p-1+a)).
        alpha = 0.9
        opts = ChainOptions()
        single = sweep_alpha(bump_weight, [alpha], kernel_1d, opts).records[0]
        doubled_weight = WeightField(2.0 * bump_weight.values,
                                     kernel_1d.grid, r=bump_weight.r)
        doubled = sweep_alpha(doubled_weight, [alpha], kernel_1d, opts).records[0]
        p = kernel_1d.params.p
        assert doubled.log_scaled == pytest.approx(single.log_scaled,
                                                   abs=1e-9)
        expected_shift = -p / (1.0 - alpha) * math.log(2.0)
        assert doubled.log_lam - single.log_lam == pytest.approx(
            expected_shift, abs=1e-8
        )
        ratio = doubled.chain.u_alpha.values / single.chain.u_alpha.values
        assert np.allclose(ratio, 2.0 ** (1.0 / (p - 1.0 + alpha)), rtol=1e-7)

    def test_grid_validation(self, kernel_1d, bump_weight):
        with pytest.raises(ValueError):
            sweep_alpha(bump_weight, [], kernel_1d)
        with pytest.raises(ValueError):
            sweep_alpha(bump_weight, [0.9, 0.8], kernel_1d)
        with pytest.raises(ValueError):
            sweep_alpha(bump_weight, [0.5, 1.2], kernel_1d)

    def test_integrability_threshold_enforced(self, kernel_1d, grid_1d):
        from conftest import compact_bump_values

        weak = WeightField(compact_bump_values(grid_1d), grid_1d, r=1.0)
        with pytest.raises(FssError, match="r_alpha"):
            sweep_alpha(weak, [0.5], kernel_1d)


# Sweep grids of the continuation: the shipped sweep's, and one that jumps
# from 0.5 to 0.9.
CONTINUATION_GRIDS = {"sweep": ALPHA_GRID, "wide": (0.5, 0.9, 0.95, 0.99)}
CONTINUATION_CASES = [(1, 1.5), (1, 2.0), (1, 3.0), (2, 2.0), (2, 3.0)]


@functools.cache
def _continuation_problem(n_dim: int, p: float):
    """A kernel at p and the bump weight: 16 nodes on (0, 1), or 8 x 8 on
    the unit square."""
    box = [(0.0, 1.0)] * n_dim
    grid = build_grid(box, 1.0 / 17 if n_dim == 1 else 1.0 / 9, 0.4)
    kernel = build_kernel(grid, FracParams(s=0.5, p=p, n_dim=n_dim))
    return kernel, WeightField(compact_bump_values(grid), grid, r=3.0)


def _refuse_continuation(monkeypatch, then=None):
    """Make every continuation Newton raise, after calling ``then``."""
    def refuse(*args, **kwargs):
        if then is not None:
            then()
        raise SolverError("continuation refused")

    monkeypatch.setattr(constants, "newton", refuse)


def _relative_max_gap(u: Field, ref: Field) -> float:
    return float(np.abs(u.values - ref.values).max()
                 / np.abs(ref.values).max())


class TestContinuation:
    """``sweep_alpha`` chain-solves its first exponent and continues the
    later ones, and ``estimate_mu`` alpha = 1, by the polish's Newton from
    the last converged solution; a Newton that raises falls back to the
    chain."""

    @pytest.mark.parametrize("alphas", CONTINUATION_GRIDS.values(),
                             ids=CONTINUATION_GRIDS.keys())
    @pytest.mark.parametrize("n_dim,p", CONTINUATION_CASES,
                             ids=[f"{n}d-p{p}" for n, p in CONTINUATION_CASES])
    def test_matches_a_chain_per_alpha(self, n_dim, p, alphas):
        kernel, omega = _continuation_problem(n_dim, p)
        opts = ChainOptions()
        est, sweep = estimate_mu(omega, alphas, kernel, opts)
        assert [rec.converged for rec in sweep.records] == [True] * len(alphas)
        # Only the first exponent is chain-solved.
        assert [rec.chain is not None for rec in sweep.records] == (
            [True] + [False] * (len(alphas) - 1))
        for rec in sweep.records:
            ref = lambda_alpha(run_chain(omega, rec.alpha, kernel, opts=opts))
            scaled = math.exp(ref.log_lam + p / (1.0 - rec.alpha)
                              * math.log(omega.norm_1))
            assert rec.lam == pytest.approx(ref.lam, rel=1e-12, abs=0.0)
            assert rec.scaled == pytest.approx(scaled, rel=1e-12, abs=0.0)
            assert _relative_max_gap(rec.solution.u, ref.u) <= 1e-12
        direct = estimate_mu_direct(omega, kernel, opts)
        assert est.chain is None
        assert est.mu_direct == pytest.approx(direct.mu_direct, rel=1e-12,
                                              abs=0.0)
        assert _relative_max_gap(est.u_star, direct.u_star) <= 1e-12

    @pytest.mark.parametrize("alphas", CONTINUATION_GRIDS.values(),
                             ids=CONTINUATION_GRIDS.keys())
    @pytest.mark.parametrize("n_dim,p", [(1, 2.0), (1, 3.0), (2, 2.0)],
                             ids=["1d-p2.0", "1d-p3.0", "2d-p2.0"])
    def test_fallback_is_the_chain_per_alpha(self, n_dim, p, alphas,
                                             monkeypatch):
        # With every continuation refused, each exponent is the chain
        # warm-started from the previous limit, bit for bit, and alpha = 1
        # is estimate_mu_direct's chain.
        kernel, omega = _continuation_problem(n_dim, p)
        opts = ChainOptions()
        _refuse_continuation(monkeypatch)
        est, sweep = estimate_mu(omega, alphas, kernel, opts)
        warm = None
        for rec in sweep.records:
            chain = run_chain(omega, rec.alpha, kernel, opts=opts, init=warm)
            warm = chain.u_alpha
            sol = lambda_alpha(chain)
            assert rec.chain is not None and rec.converged
            assert np.array_equal(rec.chain.u_alpha.values,
                                  chain.u_alpha.values)
            assert np.array_equal(rec.solution.u.values, sol.u.values)
            assert (rec.lam, rec.log_lam) == (sol.lam, sol.log_lam)
            assert rec.scaled == math.exp(
                sol.log_lam + p / (1.0 - rec.alpha) * math.log(omega.norm_1))
            assert rec.seminorm_scaled_extremal == seminorm_p(
                sol.scaled_extremal, kernel)
        direct = estimate_mu_direct(omega, kernel, opts)
        assert est.chain is not None
        assert est.mu_direct == direct.mu_direct
        assert np.array_equal(est.u_star.values, direct.u_star.values)

    def test_failure_on_both_paths_raises_the_chains_error(self, kernel_1d,
                                                           bump_weight,
                                                           monkeypatch):
        # The continuation at 0.925 fails, and so does the chain that
        # stands in for it, within a budget of one Newton step.
        _refuse_continuation(monkeypatch, then=lambda: monkeypatch.setattr(
            solver_module, "_NEWTON_STEPS", 1))
        with pytest.raises(SolverError) as err:
            sweep_alpha(bump_weight, ALPHA_GRID, kernel_1d, ChainOptions())
        exc = err.value
        assert str(exc).startswith("level 1 (alpha 0.925), sweep 1: ")
        assert (exc.level, exc.sweep, exc.alpha) == (1, 1, 0.925)

    def test_newton_stage_named_continuation(self, kernel_1d, bump_weight,
                                             monkeypatch):
        stages = []
        newton = constants.newton

        def recorded(*args, **kwargs):
            stages.append(args[6])
            return newton(*args, **kwargs)

        monkeypatch.setattr(constants, "newton", recorded)
        estimate_mu(bump_weight, (0.9, 0.95), kernel_1d, ChainOptions())
        assert stages == ["continuation (alpha 0.95)",
                          "continuation (alpha 1)"]

    def test_first_converged_record_is_chain_solved(self, kernel_1d,
                                                    bump_weight, monkeypatch):
        # The first chain stops unconverged, so nothing is continued from
        # it: the next exponent is chain-solved, and the uniform sandwich
        # reads psi from that chain.
        opts = ChainOptions()
        chains = []

        def first_unconverged(*args, **kwargs):
            if not chains:
                kwargs["schedule"] = [1]
            chains.append(run_chain(*args, **kwargs))
            return chains[-1]

        monkeypatch.setattr(constants, "run_chain", first_unconverged)
        est, sweep = estimate_mu(bump_weight, ALPHA_GRID, kernel_1d, opts)
        assert [rec.converged for rec in sweep.records] == (
            [False] + [True] * (len(ALPHA_GRID) - 1))
        assert [rec.chain is not None for rec in sweep.records] == (
            [True, True] + [False] * (len(ALPHA_GRID) - 2))
        assert len(chains) == 2 and est.chain is None
        first = sweep.converged_records[0]
        assert first.chain is chains[1]
        report = check_valfa_limit(sweep, est)
        assert report.barrier_ok and math.isfinite(report.lower_scale)
        for rec in sweep.converged_records:
            assert np.all(report.lower_scale * first.chain.psi.values
                          <= rec.solution.scaled_extremal.values + 1e-8)


class TestMuEstimate:
    def test_scalar_closed_form(self):
        # One node, p = 2, coefficient 2, weight = measure = 1:
        # u* = 1/sqrt(2), V = 1, mu = [V]^p = 2.
        kernel = synthetic_unit_kernel(p=2.0, pair_weight=1.0)
        omega = WeightField(np.array([1.0]), kernel.grid)
        est = estimate_mu_direct(omega, kernel, tight_chain_options())
        assert est.u_star.values[0] == pytest.approx(0.7071067811865476,
                                                     rel=1e-9)
        assert est.extremal.values[0] == pytest.approx(1.0, rel=1e-9)
        assert est.mu_direct == pytest.approx(2.0, rel=1e-9)
        oracle = scalar_mu(2.0, est.u_star.values[0], 2.0)
        assert est.mu_direct == pytest.approx(oracle, rel=1e-12)

    def test_alpha_one_energy_identity(self, bump_mu, bump_weight):
        sn = seminorm_p(bump_mu.u_star, bump_mu.kernel)
        assert sn == pytest.approx(bump_weight.norm_1, rel=1e-8)

    def test_zero_log_mean(self, bump_mu):
        assert abs(bump_mu.log_mean_residual) <= 1e-8

    def test_limit_equation_residual(self, bump_mu, bump_weight):
        # V solves A V = (mu / |w|_1) w / V weakly.
        limit_weight = WeightField(
            bump_weight.values * bump_mu.mu_direct / bump_weight.norm_1,
            bump_weight.grid, bump_weight.r)
        report = weak_residual(bump_mu.extremal, limit_weight, 1.0,
                               bump_mu.kernel, seed=11)
        assert report.max_residual <= 1e-6

    def test_log_domain_stability(self, kernel_1d, grid_1d):
        # weight values spanning decades still yield a finite constant
        rng = np.random.default_rng(11)
        values = 10.0 ** rng.uniform(-8, 2, grid_1d.interior_count)
        omega = WeightField(values, grid_1d, r=3.0)
        est = estimate_mu_direct(omega, kernel_1d, ChainOptions())
        assert math.isfinite(est.mu_direct) and est.mu_direct > 0.0

    def test_boundary_touching_weight_is_finite_discretely(self, kernel_1d,
                                                           constant_weight):
        # the discrete solution is strictly positive at every node, so the
        # weighted log integral is finite even for weights supported up to
        # the boundary
        est = estimate_mu_direct(constant_weight, kernel_1d, ChainOptions())
        assert math.isfinite(est.mu_direct) and est.mu_direct > 0.0
        assert abs(est.log_mean_residual) <= 1e-8

    def test_combined_estimate_trend(self, kernel_1d, bump_weight):
        est, sweep = estimate_mu(bump_weight, ALPHA_GRID, kernel_1d,
                                 ChainOptions())
        assert est.trend == "converged"
        assert abs(est.mu_sweep - est.mu_direct) <= 1e-3 * est.mu_direct
        assert est.scaled_values == tuple(r.scaled for r in sweep.records)


class TestVerifyLogSobolev:
    def test_no_violations(self, bump_mu):
        report = verify_log_sobolev(bump_mu, trials=1000, seed=42)
        assert report.violations == 0
        assert report.min_slack_rel >= -1e-8

    def test_extremal_equality(self, bump_mu):
        report = verify_log_sobolev(bump_mu, trials=10, seed=42)
        assert report.extremal_max_rel <= 1e-8

    def test_vanishing_on_support_gives_full_slack(self, bump_mu, kernel_1d,
                                                   bump_weight):
        # a zero on the weight support kills the exponential term, so the
        # slack equals the full energy [v]^p exactly
        values = np.ones(kernel_1d.interior_count)
        values[np.argmax(bump_weight.values)] = 0.0
        v = Field(values, kernel_1d.grid)
        sn = seminorm_p(v, kernel_1d)
        from fss import log_functional

        assert log_functional(v, bump_weight) == -math.inf
        report = verify_log_sobolev(bump_mu, trials=0, seed=0,
                                    extremal_scales=(), extra_fields=(v,))
        assert report.min_slack == pytest.approx(sn, rel=1e-15)

    def test_inflated_constant_fails(self, bump_mu):
        report = verify_log_sobolev(bump_mu, trials=10, seed=42,
                                    constant=bump_mu.mu_direct * 1.001)
        assert report.violations > 0


def sobolev_slack(solution, constant):
    """The per-field slack of the power-mean inequality: slack and [v]^p."""
    kernel, omega, alpha = solution.kernel, solution.omega, solution.alpha
    p = kernel.params.p

    def slack(v):
        sn = seminorm_p(v, kernel)
        mass = float(kernel.grid.measure * (
            omega.values * np.abs(v.values) ** (1.0 - alpha)).sum())
        if mass == 0.0:
            return sn, sn
        return sn - math.exp(math.log(constant)
                             + p / (1.0 - alpha) * math.log(mass)), sn

    return slack


def log_sobolev_slack(estimate, constant):
    """The per-field slack of the exponential-log inequality."""
    kernel, omega = estimate.kernel, estimate.omega
    p = kernel.params.p

    def slack(v):
        sn = seminorm_p(v, kernel)
        li = log_functional(v, omega)
        if math.isinf(li):
            return sn, sn
        return sn - math.exp(math.log(constant) + p / omega.norm_1 * li), sn

    return slack


class TestBlockCertification:
    """The certifications evaluate their candidates in blocks; the loop one
    field at a time (``oracles.certify_per_field``) is the reference.  The
    slacks agree to rounding (1e-13 of the largest [v]^p, and relative
    slacks below -1 in proportion), the counts exactly."""

    @pytest.fixture
    def extra_fields(self, kernel_1d, bump_weight):
        grid = kernel_1d.grid
        off_support = np.where(bump_weight.values > 0.0, 0.0, 1.0)
        zero_at_peak = np.ones(grid.interior_count)
        zero_at_peak[np.argmax(bump_weight.values)] = 0.0
        return (Field(off_support, grid), Field(zero_at_peak, grid),
                Field.zero(grid), Field.constant(grid, -0.7))

    CASES = {
        "trials": dict(trials=300, seed=42),
        "inflated": dict(trials=50, seed=3, factor=1.001),
        "extra-fields": dict(trials=20, seed=5, extra=True),
        "no-multiples": dict(trials=0, seed=0, extra=True,
                             extremal_scales=()),
        "nothing": dict(trials=0, seed=0, extremal_scales=()),
        # both power-mean minima lie past the shared trials, the slack's on
        # trial 339 and the relative slack's on trial 549
        "seeded-minimum": dict(trials=1000, seed=2, extremal_scales=()),
        # every slack is far below zero: the bound decides no trial
        "nothing-decided": dict(trials=300, seed=42, factor=1e6),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("inequality", ["power-mean", "log"])
    def test_matches_per_field_loop(self, bump_solution_05, bump_mu,
                                    extra_fields, inequality, case):
        spec = dict(self.CASES[case])
        factor = spec.pop("factor", 1.0)
        if spec.pop("extra", False):
            spec["extra_fields"] = extra_fields
        self.check_against_loop(bump_solution_05 if inequality == "power-mean"
                                else bump_mu, inequality, factor, spec)

    @pytest.mark.parametrize("inequality", ["power-mean", "log"])
    def test_matches_per_field_loop_at_p3(self, kernel_1d_p3, bump_weight,
                                          inequality):
        # The exterior bound 2 sum_i B_i |v_i|^p at p != 2, where a row's
        # energy does not depend on its block.
        opts = ChainOptions()
        subject = (lambda_alpha(run_chain(bump_weight, 0.5, kernel_1d_p3,
                                          opts=opts))
                   if inequality == "power-mean"
                   else estimate_mu_direct(bump_weight, kernel_1d_p3, opts))
        self.check_against_loop(subject, inequality, 1.0,
                                dict(trials=1000, seed=0))

    @staticmethod
    def check_against_loop(subject, inequality, factor, spec):
        if inequality == "power-mean":
            verify = verify_sobolev
            constant = factor * subject.lam
            slack = sobolev_slack(subject, constant)
        else:
            verify = verify_log_sobolev
            constant = factor * subject.mu_direct
            slack = log_sobolev_slack(subject, constant)
        energies = [0.0]

        def recorded(v):
            s, sn = slack(v)
            energies.append(sn)
            return s, sn

        expected = certify_per_field(
            recorded, subject.kernel.grid, subject.extremal, spec["trials"],
            spec["seed"], spec.get("extremal_scales", (-2.0, 0.5, 1.0)),
            spec.get("extra_fields", ()))
        report = verify(subject, constant=constant, **spec)
        tol = 1e-13 * max(energies)
        assert report.trials == expected["trials"]
        assert report.violations == expected["violations"]
        assert report.constant == pytest.approx(constant, rel=1e-15)
        for key in ("min_slack", "min_slack_rel", "extremal_max_rel"):
            if math.isinf(expected[key]):
                assert getattr(report, key) == expected[key]
            elif key == "min_slack":
                assert abs(report.min_slack - expected[key]) <= tol
            else:
                # 1 - r / [v]^p carries the rounding of [v]^p times r / [v]^p
                scale = max(1.0, abs(expected[key]))
                assert abs(getattr(report, key) - expected[key]) <= tol * scale

    @pytest.mark.parametrize("inequality", ["power-mean", "log"])
    def test_bound_decides_most_trials(self, bump_solution_05, bump_mu,
                                       monkeypatch, inequality):
        # The extremal multiples set the minima; the lower bound on [v]^p
        # then decides nearly all of the 1000 trials, the 200 shared ones
        # among them, without their energy.
        subject, verify = ((bump_solution_05, verify_sobolev)
                           if inequality == "power-mean"
                           else (bump_mu, verify_log_sobolev))
        # A fresh kernel, which keeps no energy of the shared trials yet.
        kernel = build_kernel(subject.kernel.grid, subject.kernel.params)
        rows = count_energy_rows(monkeypatch)
        report = verify(replace(subject, kernel=kernel), trials=1000, seed=0)
        assert rows[0] == 3      # the extremal multiples
        # Measured: 21 rows (3 + 5 shared + 13 later) for the power-mean
        # inequality, 18 (3 + 5 + 10) for the log one; 4 rows of margin.
        assert sum(rows) <= 25
        assert report.violations == 0

    @pytest.mark.parametrize("inequality", ["power-mean", "log"])
    def test_probes_stand_for_the_first_trials(self, bump_solution_05,
                                               bump_mu, monkeypatch,
                                               inequality):
        # The weak residual's trials are kept on the kernel, and a
        # certification of the same seed takes them as its first trials,
        # with every energy the weak residual took.
        subject, verify, u, alpha = (
            (bump_solution_05, verify_sobolev, bump_solution_05.u,
             bump_solution_05.alpha) if inequality == "power-mean"
            else (bump_mu, verify_log_sobolev, bump_mu.u_star, 1.0))
        whole = verify(subject, trials=300, seed=42)
        kernel = build_kernel(subject.kernel.grid, subject.kernel.params)
        subject = replace(subject, kernel=kernel)
        draws = count_draws(monkeypatch)
        weak_residual(u, subject.omega, alpha, kernel, 100, 42)
        verify(subject, trials=100, seed=42)
        assert draws == [100]
        weak_residual(u, subject.omega, alpha, kernel, 200, 42)
        assert list(kernel._trials) == [(42, 100), (42, 200)]
        kept = kernel._trials[(42, 200)]
        taken = kept.known.copy()
        rows = count_energy_rows(monkeypatch)
        verify(subject, trials=200, seed=42)
        # Past the extremal multiples, the certification takes only
        # energies that the weak residual did not take, and keeps them.
        assert rows[0] == 3
        assert sum(rows[1:]) == (np.isnan(taken).sum()
                                 - np.isnan(kept.known).sum())
        assert np.array_equal(kept.known[~np.isnan(taken)],
                              taken[~np.isnan(taken)])
        draws[0] = 0
        shared = verify(subject, trials=300, seed=42)
        assert draws == [100]
        assert shared.violations == whole.violations
        assert shared.min_slack_rel == pytest.approx(whole.min_slack_rel,
                                                     abs=1e-13)

    @pytest.mark.parametrize("inequality", ["power-mean", "log"])
    def test_rejects_negative_trials(self, bump_solution_05, bump_mu,
                                     inequality):
        subject, verify = ((bump_solution_05, verify_sobolev)
                           if inequality == "power-mean"
                           else (bump_mu, verify_log_sobolev))
        with pytest.raises(ValueError, match="trials"):
            verify(subject, trials=-3, seed=0)

    @pytest.mark.parametrize("inequality", ["power-mean", "log"])
    def test_chunks_within_bound(self, bump_solution_05, bump_mu,
                                 monkeypatch, inequality):
        subject, verify = ((bump_solution_05, verify_sobolev)
                           if inequality == "power-mean"
                           else (bump_mu, verify_log_sobolev))
        whole = verify(subject, trials=100, seed=42)
        bound = 7 * subject.kernel.interior_count
        sizes = record_chunks(monkeypatch, bound)
        # On a fresh kernel, which keeps no trials yet.
        fresh = build_kernel(subject.kernel.grid, subject.kernel.params)
        chunked = verify(replace(subject, kernel=fresh), trials=100, seed=42)
        assert len(sizes) == 15 and max(sizes) <= bound
        assert chunked.violations == whole.violations
        assert chunked.min_slack_rel == pytest.approx(whole.min_slack_rel,
                                                      abs=1e-13)


class TestExtremalPowerMeans:
    def test_monotone_and_log_limit(self, bump_solution_05, bump_mu,
                                    kernel_1d, bump_weight):
        # every produced extremal obeys the power-mean monotonicity and
        # approaches its geometric mean as q -> 0+
        for field in (bump_solution_05.extremal,
                      bump_solution_05.scaled_extremal,
                      bump_mu.extremal):
            qs = (1e-3, 1e-2, 1e-1)
            means = [weighted_qmean(field, bump_weight, q) for q in qs]
            for a, b in zip(means, means[1:]):
                assert a <= b * (1.0 + 1e-12)
            target = math.exp(log_functional(field, bump_weight)
                              / bump_weight.norm_1)
            assert means[0] == pytest.approx(target, rel=1e-3)


class TestEnergyIdentity:
    def test_gap_small_for_all_alphas(self, bump_chain_05, bump_mu):
        assert bump_chain_05.energy_identity_gap <= 1e-7
        assert bump_mu.chain.energy_identity_gap <= 1e-7


class TestValfaLimit:
    def test_gaps_shrink_toward_direct_extremal(self, bump_sweep, bump_mu):
        report = check_valfa_limit(bump_sweep, bump_mu)
        assert report.gaps_decreasing
        assert report.final_gap <= 1e-2

    def test_uniform_bounds(self, bump_sweep, bump_mu):
        report = check_valfa_limit(bump_sweep, bump_mu)
        assert report.barrier_ok
        assert report.upper_bound > 0.0
        for rec in bump_sweep.records:
            assert rec.solution.scaled_extremal.values.max() <= \
                report.upper_bound * (1.0 + 1e-12)

    def test_scalar_limit_is_one(self):
        # On the one-node system every scaled extremal equals 1 exactly,
        # matching the direct extremal V = 1.
        kernel = synthetic_unit_kernel(p=2.0, pair_weight=1.0)
        omega = WeightField(np.array([1.0]), kernel.grid, r=2.0)
        opts = tight_chain_options()
        sweep = sweep_alpha(omega, [0.90, 0.95, 0.99], kernel, opts)
        est = estimate_mu_direct(omega, kernel, opts)
        for rec in sweep.records:
            assert rec.solution.scaled_extremal.values[0] == pytest.approx(
                1.0, rel=1e-8
            )
            # scalar oracle per grid point: with unit weight mass the
            # scaled constant is the raw one, computed from the bisection
            # solution of the one-node singular equation
            u_oracle = scalar_singular_solution(2.0, 1.0, 1.0, rec.alpha, 2.0)
            oracle = scalar_lambda(2.0, u_oracle, rec.alpha, 2.0)
            assert rec.scaled == pytest.approx(oracle, rel=1e-9)
        scaled = [rec.scaled for rec in sweep.records]
        assert all(b >= a * (1.0 - 1e-8) for a, b in zip(scaled, scaled[1:]))
        report = check_valfa_limit(sweep, est)
        assert report.final_gap <= 1e-6
