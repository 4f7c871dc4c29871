import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fss import (
    ChainOptions,
    Field,
    apply_operator,
    FracParams,
    FssError,
    SolveOptions,
    SolverError,
    StagnationError,
    WeightField,
    build_grid,
    build_kernel,
    embedding_constant,
    existence_bound,
    linfty_bound_report,
    norm_r,
    pairing,
    power_seminorms,
    r_alpha,
    run_chain,
    seminorm_p,
    solve_level,
    weak_residual,
)
from fss import chain as chain_module, operators, solver as solver_module
from fss.operators import block_seminorm_p
from fss.sampling import trial_chunks

from conftest import (
    compact_bump_values,
    synthetic_unit_kernel,
    tight_chain_options,
)
from oracles import (
    dense_p2_matrix,
    fixed_point_step,
    trial_field,
    scalar_level_solution,
    scalar_singular_solution,
)
from test_sampling import count_draws, count_energy_rows


class TestTruncateWeight:
    """The weight min(omega, n) that ``solve_level`` solves level n with."""

    def test_clips(self, kernel_1d, grid_1d):
        # Weight 5 at level 4 is the level of weight 4, bit for bit.
        start = Field.zero(grid_1d)
        cut, _, _ = solve_level(
            WeightField(np.full(grid_1d.interior_count, 5.0), grid_1d),
            4, 0.5, kernel_1d, start)
        four, _, _ = solve_level(
            WeightField(np.full(grid_1d.interior_count, 4.0), grid_1d),
            4, 0.5, kernel_1d, start)
        assert np.array_equal(cut.values, four.values)

    def test_inactive_when_large(self, kernel_1d, bump_weight):
        # The bump stays below 10, so level 10 solves with it unchanged.
        start = Field.zero(kernel_1d.grid)
        u, _, _ = solve_level(bump_weight, 10, 0.5, kernel_1d, start)
        ref, _, _ = solver_module.newton(start.values, bump_weight.values,
                                         0.1, 0.5, kernel_1d,
                                         ChainOptions().fixed_point_tol)
        assert np.array_equal(u.values, ref)

    @given(level=st.integers(1, 12))
    @settings(max_examples=12, deadline=None, derandomize=True)
    def test_nondecreasing_in_level(self, kernel_1d, grid_1d, level):
        # A larger cut and a smaller shift give a larger level solution.
        rng = np.random.default_rng(17)
        omega = WeightField(rng.uniform(0.0, 20.0, grid_1d.interior_count)
                            + 1e-3, grid_1d)
        start = Field.zero(grid_1d)
        lo, _, _ = solve_level(omega, level, 0.5, kernel_1d, start)
        hi, _, _ = solve_level(omega, level + 1, 0.5, kernel_1d, start)
        assert np.all(lo.values <= hi.values + 1e-9)

    def test_rejects_zero_level(self, kernel_1d, bump_weight):
        with pytest.raises(ValueError, match="^level must be at least 1, "
                                             "got 0$"):
            solve_level(bump_weight, 0, 0.5, kernel_1d,
                        Field.zero(kernel_1d.grid))


class TestFixedPointStep:
    def test_unit_example(self):
        # One node, p = 2, energy coefficient 2, weight = measure = 1,
        # start 0, level 1, alpha 1: the frozen datum is 1/(0+1) = 1 and
        # the solve returns 1/2.
        kernel = synthetic_unit_kernel(p=2.0, pair_weight=1.0)
        omega = WeightField(np.array([1.0]), kernel.grid)
        out = fixed_point_step(omega, 1, 1.0, kernel, Field.zero(kernel.grid),
                               SolveOptions(grad_tol=1e-13))
        assert out.values[0] == pytest.approx(0.5, rel=1e-11)

    def test_sign_invariance(self, kernel_1d, bump_weight):
        # the frozen datum only sees |w|, so both solves share a minimizer
        # (reached from different warm starts, hence up to solver tolerance)
        rng = np.random.default_rng(23)
        w = Field(rng.uniform(-1.0, 1.0, kernel_1d.interior_count),
                  kernel_1d.grid)
        opts = SolveOptions(grad_tol=1e-12)
        a = fixed_point_step(bump_weight, 3, 0.5, kernel_1d, w, opts)
        b = fixed_point_step(bump_weight, 3, 0.5, kernel_1d, -1.0 * w, opts)
        assert (a - b).max_norm() <= 1e-9

    def test_apriori_image_bound(self, kernel_1d, bump_weight):
        # The frozen datum is at most n^(alpha+1) sup(omega_n/n) <= n^(a+1),
        # so the image seminorm obeys [T w] <= (S_1^(1/p) n^(a+1))^(1/(p-1)).
        p = kernel_1d.params.p
        s1 = embedding_constant(1.0, kernel_1d).value
        rng = np.random.default_rng(24)
        for n in (1, 2, 8):
            w = Field(rng.uniform(-2.0, 2.0, kernel_1d.interior_count),
                      kernel_1d.grid)
            image = fixed_point_step(bump_weight, n, 0.5, kernel_1d, w)
            sn = seminorm_p(image, kernel_1d) ** (1.0 / p)
            cap = (s1 ** (1.0 / p) * n ** (0.5 + 1.0)) ** (1.0 / (p - 1.0))
            assert sn <= cap * (1.0 + 1e-9)


def level_source(omega, n, alpha, u):
    """The level's right-hand side m min(omega, n) / (u + 1/n)^alpha."""
    return (u.grid.measure * np.minimum(omega.values, n)
            / (u.values + 1.0 / n) ** alpha)


class TestSolveLevel:
    def test_scalar_oracle_large_n(self):
        # One node, p = 2, coefficient 2, weight = measure = 1, alpha 1:
        # as n grows the level solutions approach the root of 2u = 1/u,
        # u = 1/sqrt(2) = 0.7071067811865476.
        kernel = synthetic_unit_kernel(p=2.0, pair_weight=1.0)
        omega = WeightField(np.array([1.0]), kernel.grid)
        opts = tight_chain_options()
        u, _, _ = solve_level(omega, 2**20, 1.0, kernel,
                              Field.zero(kernel.grid), opts)
        assert u.values[0] == pytest.approx(0.7071067811865476, rel=1e-5)
        oracle = scalar_level_solution(2.0, 1.0, 1.0, 2**20, 1.0, 2.0)
        assert u.values[0] == pytest.approx(oracle, rel=1e-10)

    @pytest.mark.parametrize("alpha", [0.0, -0.5])
    def test_rejects_nonpositive_alpha(self, kernel_1d, bump_weight, alpha):
        with pytest.raises(ValueError, match="^alpha must be positive"):
            solve_level(bump_weight, 4, alpha, kernel_1d,
                        Field.zero(kernel_1d.grid))

    def test_rejects_negative_init(self, kernel_1d, bump_weight):
        values = np.full(kernel_1d.interior_count, 0.1)
        values[3] = -1e-12
        init = Field(values, kernel_1d.grid)
        with pytest.raises(ValueError, match="^initial field must be "
                                             "nonnegative$"):
            solve_level(bump_weight, 4, 0.5, kernel_1d, init)

    def test_init_independence(self, kernel_1d, bump_weight):
        opts = ChainOptions(fixed_point_tol=1e-10)
        a, _, _ = solve_level(bump_weight, 4, 0.5, kernel_1d,
                              Field.zero(kernel_1d.grid), opts)
        b, _, _ = solve_level(bump_weight, 4, 0.5, kernel_1d,
                              Field.constant(kernel_1d.grid, 10.0), opts)
        assert (a - b).max_norm() <= 1e-7

    @pytest.mark.parametrize("p", [2.0, 3.0])
    @pytest.mark.parametrize("n,alpha", [(1, 1.0), (1024, 0.5), (2**20, 3.0)])
    def test_far_starts(self, grid_1d, bump_weight, p, n, alpha):
        # Starts far below or above the solution take damped steps:
        # backtracked (p = 3 from 1e-6), and cut short of the boundary
        # u + 1/n = 0, which a full step crosses at alpha = 3 from 1e-6.
        kernel = build_kernel(grid_1d, FracParams(s=0.5, p=p, n_dim=1))
        ref, _, _ = solve_level(bump_weight, n, alpha, kernel,
                                Field.constant(grid_1d, 0.1))
        for c in (1e-6, 1e3):
            u, _, _ = solve_level(bump_weight, n, alpha, kernel,
                                  Field.constant(grid_1d, c))
            assert (u - ref).max_norm() <= 1e-9

    def test_tolerance_below_the_floor(self, kernel_1d, bump_weight):
        # No step reaches 1e-30: the floor rule returns the best iterate.
        start = Field.zero(kernel_1d.grid)
        ref, _, ref_delta = solve_level(bump_weight, 8, 1.0, kernel_1d, start)
        u, steps, delta = solve_level(bump_weight, 8, 1.0, kernel_1d, start,
                                      ChainOptions(fixed_point_tol=1e-30))
        assert (u - ref).max_norm() <= 1e-12
        assert steps < solver_module._NEWTON_STEPS
        # The returned step max-norm shows the miss; the default tolerance
        # is met.
        assert 1e-30 < delta <= 1e-12
        assert ref_delta <= ChainOptions().fixed_point_tol

    def test_positivity(self, kernel_1d, bump_weight):
        u, _, _ = solve_level(bump_weight, 2, 0.5, kernel_1d,
                              Field.zero(kernel_1d.grid), ChainOptions())
        assert u.values.min() > 0.0

    def test_tied_start_below_p2(self, kernel_1d_p15, bump_weight):
        # The constant start ties every pair, where the Hessian of the pair
        # terms is infinite at p < 2; clipped, it is finite and the level
        # solve converges to the weak form.
        u, steps, delta = solve_level(bump_weight, 4, 0.5, kernel_1d_p15,
                                      Field.constant(kernel_1d_p15.grid, 0.3))
        assert delta <= ChainOptions().fixed_point_tol
        assert steps < solver_module._NEWTON_STEPS
        source = level_source(bump_weight, 4, 0.5, u)
        residual = apply_operator(u, kernel_1d_p15) - source
        assert np.abs(residual).max() <= 1e-7

    def test_energy_minimality_inequality(self, kernel_1d, bump_weight):
        # The level solution u minimizes its frozen-datum energy, hence
        # [u]^p <= [phi]^p + p sum m w_n (u - phi)/(u + 1/n)^a for any phi.
        opts = ChainOptions(fixed_point_tol=1e-11)
        n, alpha = 4, 0.5
        u, _, _ = solve_level(bump_weight, n, alpha, kernel_1d,
                              Field.zero(kernel_1d.grid), opts)
        source = level_source(bump_weight, n, alpha, u)
        rng = np.random.default_rng(31)
        sn_u = seminorm_p(u, kernel_1d)
        p = kernel_1d.params.p
        for _ in range(20):
            phi = Field(np.abs(rng.standard_normal(kernel_1d.interior_count)),
                        kernel_1d.grid)
            coupling = float(source @ (u.values - phi.values))
            assert sn_u <= seminorm_p(phi, kernel_1d) + p * coupling + 1e-8

    def test_weak_form_residual(self, kernel_1d, bump_weight):
        opts = ChainOptions(fixed_point_tol=1e-11)
        n, alpha = 8, 0.5
        u, _, _ = solve_level(bump_weight, n, alpha, kernel_1d,
                              Field.zero(kernel_1d.grid), opts)
        rng = np.random.default_rng(32)
        source = level_source(bump_weight, n, alpha, u)
        for _ in range(100):
            phi = Field(rng.uniform(-1, 1, kernel_1d.interior_count),
                        kernel_1d.grid)
            gap = abs(pairing(u, phi, kernel_1d) - float(source @ phi.values))
            assert gap <= 1e-7


def plain_averaged_level(omega, n, alpha, kernel, init, opts,
                         max_sweeps=500):
    """Reference loop: w <- (w + T w)/2 until the sweep difference is at
    most the fixed-point tolerance."""
    w = init
    for sweep in range(1, max_sweeps + 1):
        new = 0.5 * (w + fixed_point_step(omega, n, alpha, kernel, w,
                                          opts.solve))
        delta = (new - w).max_norm()
        w = new
        if delta <= opts.fixed_point_tol:
            return w, sweep
    raise AssertionError("plain averaged loop did not converge")


class TestAndersonLevel:
    """Newton levels against the plain averaged fixed-point loop of T."""

    @pytest.mark.parametrize("n,alpha", [(4, 0.5), (64, 1.0)])
    def test_matches_plain_averaged_loop(self, kernel_1d, bump_weight, n,
                                         alpha):
        opts = ChainOptions()
        start = Field.zero(kernel_1d.grid)
        newton, steps, _ = solve_level(bump_weight, n, alpha, kernel_1d,
                                       start, opts)
        plain, plain_sweeps = plain_averaged_level(bump_weight, n, alpha,
                                                   kernel_1d, start, opts)
        assert (newton - plain).max_norm() <= 1e-8
        assert steps < plain_sweeps


class TestChainErrors:
    # Newton failures are forced through the module's step budget.
    def test_solver_error_names_level_sweep_alpha(self, kernel_1d_p3,
                                                  bump_weight, monkeypatch):
        monkeypatch.setattr(solver_module, "_NEWTON_STEPS", 1)
        with pytest.raises(SolverError) as err:
            solve_level(bump_weight, 4, 0.5, kernel_1d_p3,
                        Field.constant(kernel_1d_p3.grid, 0.3), ChainOptions())
        exc = err.value
        assert (exc.level, exc.sweep, exc.alpha) == (4, 1, 0.5)
        assert "level 4" in str(exc) and "sweep 1" in str(exc)
        assert exc.iterate is not None and exc.grad_norm > 0.0
        assert exc.iterations == 1

    def test_stagnation_error_names_level_sweep_alpha(self, kernel_1d,
                                                      bump_weight,
                                                      monkeypatch):
        monkeypatch.setattr(solver_module, "_NEWTON_STEPS", 2)
        with pytest.raises(StagnationError) as err:
            solve_level(bump_weight, 8, 1.0, kernel_1d,
                        Field.zero(kernel_1d.grid), ChainOptions())
        exc = err.value
        assert (exc.level, exc.sweep, exc.alpha) == (8, 2, 1.0)
        assert len(exc.history) == 2
        assert "level 8" in str(exc)

    def test_standalone_solver_error_has_no_chain_context(self, kernel_1d_p3,
                                                          bump_weight,
                                                          monkeypatch):
        monkeypatch.setattr(solver_module, "_NEWTON_STEPS", 1)
        with pytest.raises(SolverError) as err:
            fixed_point_step(bump_weight, 4, 0.5, kernel_1d_p3,
                             Field.zero(kernel_1d_p3.grid))
        assert err.value.level is None and err.value.sweep is None

    def test_p2_solver_error_names_level_sweep_alpha(self, kernel_1d,
                                                     bump_weight, monkeypatch):
        monkeypatch.setattr(solver_module, "_NEWTON_STEPS", 1)
        with pytest.raises(SolverError) as err:
            solve_level(bump_weight, 4, 0.5, kernel_1d,
                        Field.zero(kernel_1d.grid), ChainOptions())
        exc = err.value
        assert (exc.level, exc.sweep, exc.alpha) == (4, 1, 0.5)
        assert "level 4" in str(exc) and "sweep 1" in str(exc)
        assert exc.iterate is not None and exc.grad_norm > 0.0

    def test_hessian_failure_names_level_step_alpha(self, kernel_1d_p15,
                                                    bump_weight):
        # At p < 2 the zero field gives c_ij = w_ij 0^(p-2) with nothing to
        # clip (eps = 1e-13 max|u| = 0): a non-finite Hessian.
        with pytest.raises(SolverError) as err:
            solve_level(bump_weight, 4, 0.5, kernel_1d_p15,
                        Field.zero(kernel_1d_p15.grid))
        exc = err.value
        assert (exc.level, exc.sweep, exc.alpha) == (4, 1, 0.5)
        assert str(exc) == ("level 4 (alpha 0.5), sweep 1: Hessian has a "
                            "non-finite entry")
        assert exc.iterate is not None and exc.iterations == 1

    def test_indefinite_hessian_names_level_step_alpha(self, kernel_1d_p3,
                                                       bump_weight):
        # At p > 2 the Hessian of (1/p)[u]^p vanishes at u = 0, and the
        # weight's curvature covers only its support.
        with pytest.raises(SolverError) as err:
            solve_level(bump_weight, 4, 0.5, kernel_1d_p3,
                        Field.zero(kernel_1d_p3.grid))
        exc = err.value
        assert (exc.level, exc.sweep, exc.alpha) == (4, 1, 0.5)
        assert "Hessian is not positive definite" in str(exc)

    def test_barrier_error_names_stage_and_alpha(self, kernel_1d_p3,
                                                 bump_weight, monkeypatch):
        monkeypatch.setattr(solver_module, "_NEWTON_STEPS", 1)
        with pytest.raises(SolverError) as err:
            run_chain(bump_weight, 0.5, kernel_1d_p3)
        exc = err.value
        assert str(exc).startswith("barrier (alpha 0.5): ")
        assert exc.alpha == 0.5 and exc.level is None and exc.sweep is None
        assert exc.iterate is not None and exc.iterations == 1

    def test_polish_error_names_sweep_and_alpha(self, kernel_1d_p3,
                                                bump_weight, monkeypatch):
        # A budget of one step for the limit only: its first step is of the
        # order of the chain tolerance, far above the polish tolerance.
        newton = chain_module.newton

        def one_step_polish(u, weight, shift, *args, **kwargs):
            if shift == 0.0:
                monkeypatch.setattr(solver_module, "_NEWTON_STEPS", 1)
            return newton(u, weight, shift, *args, **kwargs)

        monkeypatch.setattr(chain_module, "newton", one_step_polish)
        with pytest.raises(SolverError) as err:
            run_chain(bump_weight, 1.0, kernel_1d_p3)
        exc = err.value
        assert isinstance(exc, StagnationError) and len(exc.history) == 1
        assert str(exc).startswith("polish (alpha 1), sweep 1: no convergence "
                                   "within 1 Newton steps")
        assert (exc.level, exc.sweep, exc.alpha) == (None, 1, 1.0)


class TestCholeskyStart:
    """At p = 2 the barrier starts from the direct solution of K u = m
    min(omega, 1), solved on the weight's support like the Newton steps
    (``Kernel.support_solve``); only the chain builds the support's Schur
    complement."""

    def test_built_by_run_chain_at_p2(self, grid_1d, bump_weight):
        kernel = build_kernel(grid_1d, FracParams(s=0.5, p=2.0, n_dim=1))
        assert kernel._schur_complements == {}
        run_chain(bump_weight, 1.0, kernel)
        # The barrier and every level share the one support.
        assert len(kernel._schur_complements) == 1

    def test_not_built_at_p3(self, grid_1d, bump_weight):
        kernel = build_kernel(grid_1d, FracParams(s=0.5, p=3.0, n_dim=1))
        run_chain(bump_weight, 1.0, kernel)
        assert kernel._schur_complements == {}
        assert "stiffness" not in kernel.__dict__

    def test_barrier_takes_one_evaluation(self, grid_1d, bump_weight,
                                          monkeypatch):
        # Started from the direct solution, the barrier's conjugate-
        # gradient solve certifies it with a single energy evaluation and
        # no iteration.  The chain's Newton levels evaluate through the
        # solver module too, so only the barrier's evaluations count.
        kernel = build_kernel(grid_1d, FracParams(s=0.5, p=2.0, n_dim=1))
        calls = []
        evaluate = solver_module.energy_and_gradient
        barrier = chain_module.solve_barrier

        def counted(*args, **kwargs):
            calls.append(1)
            return evaluate(*args, **kwargs)

        def counted_barrier(*args, **kwargs):
            monkeypatch.setattr(solver_module, "energy_and_gradient", counted)
            try:
                return barrier(*args, **kwargs)
            finally:
                monkeypatch.setattr(solver_module, "energy_and_gradient",
                                    evaluate)

        monkeypatch.setattr(chain_module, "solve_barrier", counted_barrier)
        run_chain(bump_weight, 1.0, kernel)
        assert len(calls) == 1


class TestSupportSolve:
    """The p = 2 Newton system (K + D) x = g with D diagonal on the
    weight's support S and g supported on S, solved through the Schur
    complement of K on S (``Kernel.support_solve``)."""

    @pytest.mark.parametrize("support", [
        "bump", "every node", "one node", "60%", "90%", "2d"])
    def test_matches_dense_solve(self, grid_1d, bump_weight, support):
        grid = grid_1d if support != "2d" else build_grid(
            [(0.0, 1.0), (0.0, 1.0)], 1.0 / 8, 0.25)
        kernel = build_kernel(grid, FracParams(s=0.5, p=2.0,
                                               n_dim=grid.n_dim))
        m = grid.interior_count
        rng = np.random.default_rng(41)
        nodes = {"bump": np.flatnonzero(bump_weight.values > 0.0),
                 "every node": np.arange(m),
                 "one node": np.array([m // 2]),
                 "60%": np.sort(rng.choice(m, round(0.6 * m), replace=False)),
                 "90%": np.sort(rng.choice(m, round(0.9 * m), replace=False)),
                 "2d": np.flatnonzero(compact_bump_values(grid) > 0.0),
                 }[support]
        diagonal = 10.0 ** rng.uniform(-3.0, 8.0, nodes.size)
        g = np.zeros(m)
        g[nodes] = rng.standard_normal(nodes.size)
        dense = dense_p2_matrix(kernel)
        dense[nodes, nodes] += diagonal
        expected = np.linalg.solve(dense, g)
        got = kernel.support_solve(nodes, diagonal, g[nodes])
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()
        assert len(kernel._schur_complements) == 1

    def test_schur_complement_kept_per_support(self, kernel_1d):
        kernel = build_kernel(kernel_1d.grid, kernel_1d.params)
        nodes = np.arange(3, 9)
        rhs = np.ones(nodes.size)
        first = kernel.support_solve(nodes, 2.0, rhs)
        kept = kernel._schur_complements[nodes.tobytes()]
        assert np.array_equal(kernel.support_solve(nodes, 2.0, rhs), first)
        assert kernel._schur_complements[nodes.tobytes()] is kept
        kernel.support_solve(nodes[1:], 2.0, rhs[1:])
        assert len(kernel._schur_complements) == 2


class TestRunChain:
    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_constant_weight_below_p2(self, kernel_1d_p15, constant_weight,
                                      alpha):
        # At p = 1.5 the barrier is the torsion solve (datum min(1, 1)),
        # which Newton takes to the gradient tolerance; the chain then
        # converges, monotone and above its barrier, to the weak form.
        chain = run_chain(constant_weight, alpha, kernel_1d_p15)
        assert chain.converged
        assert chain.monotone_gap() <= 1e-8
        assert chain.barrier_gap() <= 1e-8
        report = weak_residual(chain.u_alpha, constant_weight, alpha,
                               kernel_1d_p15)
        assert report.max_residual <= 1e-10
        assert report.aux_min_slack >= 0.0

    def test_monotone_levels(self, kernel_1d, bump_weight):
        chain = run_chain(bump_weight, 0.5, kernel_1d, opts=ChainOptions())
        assert chain.converged
        assert chain.monotone_gap() <= 1e-8
        sns = chain.seminorms
        for a, b in zip(sns, sns[1:]):
            assert a <= b * (1.0 + 1e-10)

    def test_barrier(self, kernel_1d, bump_weight):
        chain = run_chain(bump_weight, 0.5, kernel_1d, opts=ChainOptions())
        assert chain.barrier_gap() <= 1e-8
        assert chain.m_alpha == pytest.approx(
            (chain.levels[0].u.values.max() + 1.0) ** (-0.5 / 1.0), rel=1e-12
        )

    def test_alpha_one_energy_identity(self, kernel_1d, bump_weight):
        chain = run_chain(bump_weight, 1.0, kernel_1d, opts=ChainOptions())
        sn = seminorm_p(chain.u_alpha, kernel_1d)
        assert sn == pytest.approx(bump_weight.norm_1, rel=1e-7)
        bound = existence_bound(bump_weight, 1.0, kernel_1d)
        for rec in chain.levels:
            assert rec.seminorm <= bump_weight.norm_1 + 1e-8
            assert rec.seminorm <= bound * (1.0 + 1e-8)

    def test_apriori_bound_alpha_below_one(self, kernel_1d, bump_weight):
        chain = run_chain(bump_weight, 0.5, kernel_1d, opts=ChainOptions())
        bound = existence_bound(bump_weight, 0.5, kernel_1d)
        assert all(rec.seminorm <= bound * (1.0 + 1e-8)
                   for rec in chain.levels)

    def test_solves_no_embedding_constant(self, kernel_1d, bump_weight,
                                          monkeypatch):
        # The a-priori bound is existence_bound's, read where it is used;
        # the chain solves only the barrier, the levels and the polish.
        def no_solve(*args, **kwargs):
            raise AssertionError("the chain solved an embedding constant")

        monkeypatch.setattr(solver_module, "embedding_constant", no_solve)
        monkeypatch.setattr(chain_module, "embedding_constant", no_solve)
        assert run_chain(bump_weight, 0.5, kernel_1d).converged

    def test_schedule_independence(self, kernel_1d, bump_weight):
        opts = ChainOptions(chain_tol=1e-8)
        default = run_chain(bump_weight, 0.5, kernel_1d, opts=opts)
        doubling = run_chain(bump_weight, 0.5, kernel_1d,
                             schedule=[2**k for k in range(40)], opts=opts)
        tripling = run_chain(bump_weight, 0.5, kernel_1d,
                             schedule=[3**k for k in range(30)], opts=opts)
        assert default.converged and doubling.converged and tripling.converged
        assert (default.u_alpha - doubling.u_alpha).max_norm() <= 1e-12
        assert (default.u_alpha - tripling.u_alpha).max_norm() <= 1e-12

    def test_default_schedule(self):
        schedule = chain_module.DEFAULT_SCHEDULE
        assert schedule == tuple(16**k for k in range(40))
        assert schedule[-1] <= chain_module.LARGEST_LEVEL

    @pytest.mark.parametrize("schedule,level", [
        ([1, 2**1024 - 1], 2**1024 - 1),
        ([1, 2**1024 - 2**970], 2**1024 - 2**970),
    ], ids=["schedule", "past-largest-float"])
    def test_rejects_levels_beyond_float_range(self, kernel_1d, bump_weight,
                                               schedule, level):
        # float(n) overflows for such a level; the chain names it before
        # solving anything.
        with pytest.raises(ValueError, match="overflows a float") as err:
            run_chain(bump_weight, 0.5, kernel_1d, schedule=schedule)
        assert f"level {level} " in str(err.value)

    @pytest.mark.parametrize("level", [1.5, True, float("inf"),
                                       float("nan"), 16.0],
                             ids=["fraction", "bool", "inf", "nan",
                                  "integral-float"])
    def test_rejects_levels_that_are_not_integers(self, kernel_1d,
                                                  bump_weight, monkeypatch,
                                                  level):
        # Refused before the barrier or any level is solved.
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the schedule was checked")

        monkeypatch.setattr(chain_module, "solve_barrier", no_solve)
        with pytest.raises(ValueError) as err:
            run_chain(bump_weight, 0.5, kernel_1d, schedule=[level, 256])
        assert str(err.value) == f"level {level!r} is not an integer"

    @pytest.mark.parametrize("schedule,init,message", [
        ([0, 16], None, "level must be at least 1, got 0"),
        (None, -1.0, "initial field must be nonnegative"),
    ], ids=["level-below-one", "negative-init"])
    def test_refuses_before_solving(self, kernel_1d, bump_weight, monkeypatch,
                                    schedule, init, message):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the chain's input was checked")

        monkeypatch.setattr(chain_module, "solve_barrier", no_solve)
        start = None if init is None else Field.constant(kernel_1d.grid, init)
        with pytest.raises(ValueError) as err:
            run_chain(bump_weight, 0.5, kernel_1d, schedule=schedule,
                      init=start)
        assert str(err.value) == message

    def test_accepts_numpy_integer_levels(self, kernel_1d, bump_weight):
        chain = run_chain(bump_weight, 0.5, kernel_1d,
                          schedule=np.array([1, 16]))
        assert [rec.n for rec in chain.levels] == [1, 16]
        assert all(type(rec.n) is int for rec in chain.levels)

    def test_sparse_schedule_takes_half_the_steps(self, kernel_1d,
                                                  bump_weight):
        # Newton steps do not depend on the machine: 26 against 67.
        def steps(chain):
            return (sum(rec.fp_sweeps for rec in chain.levels)
                    + chain.polish_sweeps)

        default = run_chain(bump_weight, 0.5, kernel_1d)
        doubling = run_chain(bump_weight, 0.5, kernel_1d,
                             schedule=[2**k for k in range(40)])
        assert default.converged and doubling.converged
        assert 2 * steps(default) <= steps(doubling)

    def test_init_independence(self, kernel_1d, bump_weight):
        opts = ChainOptions()
        a = run_chain(bump_weight, 0.5, kernel_1d, opts=opts)
        b = run_chain(bump_weight, 0.5, kernel_1d, opts=opts,
                      init=Field.constant(kernel_1d.grid, 10.0))
        assert (a.u_alpha - b.u_alpha).max_norm() <= 1e-6

    def test_scalar_oracle(self):
        kernel = synthetic_unit_kernel(p=2.0, pair_weight=1.0)
        omega = WeightField(np.array([1.0]), kernel.grid)
        chain = run_chain(omega, 0.5, kernel, opts=tight_chain_options())
        # 2 u = u^(-1/2) has the root 2^(-2/3) = 0.6299605249474366
        assert chain.u_alpha.values[0] == pytest.approx(0.6299605249474366,
                                                        rel=1e-9)

    def test_rejects_alpha_above_one_without_compact_support(
            self, kernel_1d, constant_weight):
        with pytest.raises(FssError, match="compact|vanishing"):
            run_chain(constant_weight, 1.5, kernel_1d)

    def test_alpha_above_one_with_compact_support(self, kernel_1d, grid_1d):
        omega = WeightField(compact_bump_values(grid_1d, radius=0.25),
                            grid_1d, r=3.0)
        chain = run_chain(omega, 1.5, kernel_1d, opts=ChainOptions())
        assert chain.converged
        assert chain.monotone_gap() <= 1e-8
        powers = power_seminorms(chain)
        assert len(powers) == len(chain.levels)
        assert all(v > 0.0 for v in powers)
        assert existence_bound(omega, 1.5, kernel_1d) is None

    def test_zero_weight_rejected_at_construction(self, grid_1d):
        with pytest.raises(ValueError):
            WeightField(np.zeros(grid_1d.interior_count), grid_1d)

    def test_nonconverged_flag(self, kernel_1d, bump_weight):
        chain = run_chain(bump_weight, 0.5, kernel_1d,
                          schedule=[1, 2], opts=ChainOptions())
        assert not chain.converged

    def test_single_support_node(self, kernel_1d, grid_1d):
        # weight concentrated at one node: the nonlocal coupling still
        # spreads positivity to every interior node
        values = np.zeros(grid_1d.interior_count)
        values[grid_1d.interior_count // 2] = 1.0
        omega = WeightField(values, grid_1d, r=3.0)
        chain = run_chain(omega, 0.5, kernel_1d, opts=ChainOptions())
        assert chain.converged
        assert chain.u_alpha.values.min() > 0.0
        assert chain.monotone_gap() <= 1e-8

    def test_diagnostics_schema(self, kernel_1d, bump_weight):
        chain = run_chain(bump_weight, 0.5, kernel_1d, opts=ChainOptions())
        record = chain.levels[0].to_json_record()
        assert set(record) == {"n", "seminorm_p", "min_u", "max_u",
                               "fp_iters", "fp_delta", "residual"}
        assert all(rec.fp_delta <= ChainOptions().fixed_point_tol
                   for rec in chain.levels)
        assert all(rec.residual <= 1e-7 for rec in chain.levels)


class TestExistenceBound:
    """The a-priori ceiling on the energies of the chain's levels."""

    @staticmethod
    def closed_form(omega, alpha, kernel, theta):
        p = kernel.params.p
        s_theta = embedding_constant(theta, kernel).value
        rhs = (norm_r(omega, r_alpha(alpha, kernel.params))
               * s_theta ** ((1.0 - alpha) / p))
        return rhs ** (p / (p - (1.0 - alpha)))

    def test_alpha_one_is_the_mass(self, kernel_1d, bump_weight):
        assert existence_bound(bump_weight, 1.0, kernel_1d) == \
            bump_weight.norm_1

    def test_none_above_one(self, kernel_1d, bump_weight):
        assert existence_bound(bump_weight, 1.5, kernel_1d) is None

    def test_below_one_at_theta_one_when_sp_reaches_n(self, kernel_1d,
                                                       bump_weight):
        # s p = 1 = N: the bound takes the exact constant S_1.
        assert existence_bound(bump_weight, 0.5, kernel_1d) == \
            pytest.approx(self.closed_form(bump_weight, 0.5, kernel_1d, 1.0),
                          rel=1e-12)

    def test_below_one_at_p_star_when_sp_below_n(self):
        # s p = 1 < N = 2: the bound takes S at p_star = 4.
        grid = build_grid([(0.0, 1.0), (0.0, 1.0)], 1.0 / 6, 0.25)
        kernel = build_kernel(grid, FracParams(s=0.5, p=2.0, n_dim=2))
        omega = WeightField(compact_bump_values(grid), grid, r=3.0)
        theta = kernel.params.p_star
        assert theta == pytest.approx(4.0)
        assert existence_bound(omega, 0.5, kernel) == pytest.approx(
            self.closed_form(omega, 0.5, kernel, theta), rel=1e-12)


class TestChainProbes:
    """The per-level residual's probes depend only on the kernel, so they
    are drawn once per kernel and kept with it, with the energies taken so
    far (``sampling.shared_trials``)."""

    def test_drawn_once_per_kernel(self, grid_1d, bump_weight, monkeypatch):
        params = FracParams(s=0.5, p=3.0, n_dim=1)
        kernel = build_kernel(grid_1d, params)
        draws = count_draws(monkeypatch)
        rows = count_energy_rows(monkeypatch)
        run_chain(bump_weight, 1.0, kernel)
        kept = kernel._trials[(7, 100)]
        # The chain asks for the energies of the probes that the lower
        # bound leaves undecided, each once, and keeps them.
        assert kept.fields.shape == (100, grid_1d.interior_count)
        known = ~np.isnan(kept.known)
        assert 0 < sum(rows) == known.sum() < 100
        energies = kept.known.copy()
        rows.clear()
        shared = run_chain(bump_weight, 0.5, kernel)
        assert draws == [100]
        # A second chain takes only the energies the first did not.
        assert sum(rows) == (~np.isnan(kept.known)).sum() - known.sum()
        assert list(kernel._trials) == [(7, 100)]
        assert kernel._trials[(7, 100)] is kept
        assert np.array_equal(kept.known[known], energies[known])
        fresh = run_chain(bump_weight, 0.5, build_kernel(grid_1d, params))
        assert draws == [200]
        assert ([level.to_json_record() for level in shared.levels]
                == [level.to_json_record() for level in fresh.levels])

    @staticmethod
    def every_probe(chain, omega, kernel):
        """Each level's residual over all 100 probes, each with its
        energy, as the probes are evaluated chunk by chunk."""
        p = kernel.params.p
        chunks = list(trial_chunks(kernel.grid, 7, 100))
        fields = np.concatenate(chunks)
        norms = np.concatenate([block_seminorm_p(chunk, kernel)
                                for chunk in chunks]) ** (1.0 / p)
        residuals = []
        for level in chain.levels:
            source = kernel.grid.measure * np.minimum(
                omega.values, float(level.n)) / (
                    level.u.values + 1.0 / level.n) ** chain.alpha
            gap = fields @ (apply_operator(level.u, kernel) - source)
            residuals.append(float((np.abs(gap) / (1.0 + norms)).max()))
        return residuals

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_few_probes_take_their_energy(self, grid_1d, bump_weight, p,
                                          monkeypatch):
        # The residuals are those of every probe with its energy, while
        # at most 25 of the 100 probes take it: measured 17, 19 and 9 at
        # p = 1.5, 2 and 3.
        kernel = build_kernel(grid_1d, FracParams(s=0.5, p=p, n_dim=1))
        rows = count_energy_rows(monkeypatch)
        chain = run_chain(bump_weight, 1.0, kernel)
        assert sum(rows) <= 25
        got = [level.residual for level in chain.levels]
        expected = self.every_probe(chain, bump_weight, kernel)
        if p == 2.0:
            assert got == pytest.approx(expected, rel=1e-15, abs=0.0)
        else:
            assert got == expected

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_kernel_freed_without_the_collector(self, grid_1d, bump_weight,
                                                p):
        # The kept probes hold no reference back to the kernel, so a
        # dropped kernel and its tables go at once, not at the collector's
        # next pass.
        kernel = build_kernel(grid_1d, FracParams(s=0.5, p=p, n_dim=1))
        run_chain(bump_weight, 1.0, kernel)
        gone = weakref.ref(kernel)
        gc.disable()
        try:
            del kernel
            assert gone() is None
        finally:
            gc.enable()


class TestPairwisePasses:
    """Each Newton solve of the chain hands A u of its solution on, for
    [u_n]^p, the probes' gaps and the start of the next solve."""

    def test_one_pass_per_newton_evaluation(self, kernel_1d_p3, bump_weight,
                                            monkeypatch):
        # After the barrier, the only pass outside a Newton evaluation is
        # A u of the first start, and no level's A u_n is taken twice.
        passes, evaluations = [], [0]
        gradient = operators._gradient
        evaluate = solver_module.energy_and_gradient
        barrier = chain_module.solve_barrier

        def counted_pass(values, kernel):
            passes.append(values.tobytes())
            return gradient(values, kernel)

        def counted_evaluation(*args):
            evaluations[0] += 1
            return evaluate(*args)

        def counted_from_here(*args):
            psi = barrier(*args)
            passes.clear()
            evaluations[0] = 0
            return psi

        monkeypatch.setattr(operators, "_gradient", counted_pass)
        monkeypatch.setattr(solver_module, "energy_and_gradient",
                            counted_evaluation)
        monkeypatch.setattr(chain_module, "solve_barrier", counted_from_here)
        chain = run_chain(bump_weight, 0.5, kernel_1d_p3)
        assert chain.converged and len(chain.levels) > 2
        assert chain.polish_sweeps > 0
        assert len(passes) == evaluations[0] + 1
        assert all(passes.count(level.u.values.tobytes()) == 1
                   for level in chain.levels)


class TestWeakResidual:
    def test_scalar_solution_is_exact(self):
        kernel = synthetic_unit_kernel(p=2.0, pair_weight=1.0)
        omega = WeightField(np.array([1.0]), kernel.grid)
        u = Field(np.array([scalar_singular_solution(2.0, 1.0, 1.0, 0.5, 2.0)]),
                  kernel.grid)
        report = weak_residual(u, omega, 0.5, kernel, trials=100, seed=1)
        assert report.max_residual <= 1e-9

    def test_duality_estimate_slack(self, kernel_1d, bump_weight):
        chain = run_chain(bump_weight, 0.5, kernel_1d, opts=ChainOptions())
        report = weak_residual(chain.u_alpha, bump_weight, 0.5, kernel_1d,
                               trials=1000, seed=2)
        assert report.max_residual <= 1e-7
        assert report.aux_min_slack >= -1e-10

    def test_detects_perturbation(self, kernel_1d, bump_weight):
        chain = run_chain(bump_weight, 0.5, kernel_1d, opts=ChainOptions())
        bumped = Field(chain.u_alpha.values + 0.1, kernel_1d.grid)
        report = weak_residual(bumped, bump_weight, 0.5, kernel_1d,
                               trials=100, seed=3)
        assert report.max_residual >= 1e-3

    def test_rejects_nonpositive_field(self, kernel_1d, bump_weight):
        with pytest.raises(FssError, match="interior-positive"):
            weak_residual(Field.zero(kernel_1d.grid), bump_weight, 0.5,
                          kernel_1d)

    @pytest.mark.parametrize("trials", [0, -5])
    def test_rejects_checking_nothing(self, kernel_1d, bump_weight, trials):
        with pytest.raises(ValueError, match="trials"):
            weak_residual(Field.constant(kernel_1d.grid, 1.0), bump_weight,
                          0.5, kernel_1d, trials=trials)

    @pytest.mark.parametrize("fixture", ["kernel_1d", "kernel_1d_p3"])
    def test_matches_per_field_loop(self, fixture, request, bump_weight):
        # The probes are evaluated as one block; the reference takes them
        # one field at a time.  Both sides agree to rounding.
        kernel = request.getfixturevalue(fixture)
        p = kernel.params.p
        u = Field(np.linspace(0.2, 1.0, kernel.interior_count), kernel.grid)
        source = kernel.grid.measure * bump_weight.values / u.values**0.5
        grad = apply_operator(u, kernel)
        residuals, slacks = [], []
        for index in range(100):
            phi = trial_field(kernel.grid, 6, index)
            norm = seminorm_p(phi, kernel) ** (1.0 / p)
            residuals.append(abs(float(grad @ phi.values)
                                 - float(source @ phi.values)) / (1.0 + norm))
            slacks.append(seminorm_p(u, kernel) ** ((p - 1.0) / p) * norm
                          - abs(float(source @ phi.values)))
        report = weak_residual(u, bump_weight, 0.5, kernel, trials=100, seed=6)
        scale = np.abs(grad).sum() + np.abs(source).sum()
        assert abs(report.max_residual - max(residuals)) <= 1e-14 * scale
        assert abs(report.aux_min_slack - min(slacks)) <= 1e-14 * scale


class TestWeakResidualBound:
    """The weak residual takes the energy only of the trials that the lower
    bound on [v]^p cannot decide, and reports what evaluating every trial
    gives."""

    @staticmethod
    def every_trial(u, omega, alpha, kernel, trials, seed):
        """The residual and the slack over all trials, each with its
        energy, as trials 0 to ``trials - 1`` are evaluated chunk by
        chunk."""
        p = kernel.params.p
        chunks = list(trial_chunks(kernel.grid, seed, trials))
        fields = np.concatenate(chunks)
        norms = np.concatenate([block_seminorm_p(chunk, kernel)
                                for chunk in chunks]) ** (1.0 / p)
        source = kernel.grid.measure * omega.values / u.values**alpha
        gap = fields @ (apply_operator(u, kernel) - source)
        bound = seminorm_p(u, kernel) ** ((p - 1.0) / p) * norms
        return (float((np.abs(gap) / (1.0 + norms)).max()),
                float((bound - np.abs(fields @ source)).min()))

    @pytest.mark.parametrize("fixture",
                             ["kernel_1d_p15", "kernel_1d", "kernel_1d_p3"])
    @pytest.mark.parametrize("case", ["solved", "shifted", "linear"])
    def test_equals_every_trial(self, fixture, case, request, bump_weight):
        kernel = request.getfixturevalue(fixture)
        grid = kernel.grid
        if case == "linear":
            u = Field(np.linspace(0.2, 1.0, grid.interior_count), grid)
        else:
            u = run_chain(bump_weight, 0.5, kernel).u_alpha
            if case == "shifted":
                u = Field(u.values + 0.1, grid)
        # Fresh kernels, which keep no trial energies yet.
        report = weak_residual(u, bump_weight, 0.5,
                               build_kernel(grid, kernel.params), 200, 5)
        expected = self.every_trial(u, bump_weight, 0.5, kernel, 200, 5)
        got = (report.max_residual, report.aux_min_slack)
        if kernel.params.p == 2.0:
            assert got == pytest.approx(expected, rel=1e-15, abs=0.0)
        else:
            assert got == expected
        assert report.trials == 200

    def test_evaluates_few_trials(self, kernel_1d_p3, bump_weight,
                                  monkeypatch):
        u = run_chain(bump_weight, 0.5, kernel_1d_p3).u_alpha
        kernel = build_kernel(kernel_1d_p3.grid, kernel_1d_p3.params)
        rows = count_energy_rows(monkeypatch)
        report = weak_residual(u, bump_weight, 0.5, kernel, 200, 0)
        assert sum(rows) <= 20
        assert report.max_residual <= 1e-7


class TestLinftyBound:
    def test_constant_factor_examples(self, kernel_1d, bump_weight):
        # alpha = 1, p = 2: C_alpha = 1^(1/2) * 2 = 2;
        # p = 2, r = 3 (conjugate 3/2), theta = 4: b = (8/3 - 1)/1 = 5/3.
        chain = run_chain(bump_weight, 1.0, kernel_1d, opts=ChainOptions())
        report = linfty_bound_report(chain.u_alpha, bump_weight, kernel_1d,
                                     theta=4.0, alpha=1.0)
        assert report.c_alpha == pytest.approx(2.0, rel=1e-12)
        assert report.b == pytest.approx(5.0 / 3.0, rel=1e-12)
        assert report.passed

    def test_bound_dominates_solution(self, kernel_1d, bump_weight):
        for alpha in (0.5, 1.0):
            chain = run_chain(bump_weight, alpha, kernel_1d,
                              opts=ChainOptions())
            report = linfty_bound_report(chain.u_alpha, bump_weight, kernel_1d,
                                         theta=4.0, alpha=alpha)
            assert report.sup_u <= report.bound

    def test_closed_form_is_optimal_threshold_value(self, kernel_1d,
                                                    bump_weight, grid_1d):
        # the reported bound is min over k0 of k0 + k0^(-a/(p-1)) * A with
        # A = (|w|_r S)^(1/(p-1)) 2^(b/(b-1)) |domain|^((b-1)/theta);
        # check the closed form against a brute-force scan over k0
        import numpy as np
        from fss import norm_r

        theta, alpha, p = 4.0, 0.5, 2.0
        s4 = embedding_constant(theta, kernel_1d)
        u = Field.constant(grid_1d, 0.01)
        rep = linfty_bound_report(u, bump_weight, kernel_1d, theta=theta,
                                  alpha=alpha)
        assert rep.s_theta == s4.value
        a_factor = ((norm_r(bump_weight, bump_weight.r) * s4.value)
                    ** (1.0 / (p - 1.0))
                    * 2.0 ** (rep.b / (rep.b - 1.0))
                    * kernel_1d.grid.domain_measure
                    ** ((rep.b - 1.0) / theta))
        k0s = np.linspace(1e-4, 5.0, 300000)
        scan = (k0s + k0s ** (-alpha / (p - 1.0)) * a_factor).min()
        assert rep.bound == pytest.approx(scan, rel=1e-6)

    def test_theta_at_boundary_rejected(self, kernel_1d, bump_weight, grid_1d):
        # theta = p r' makes b = 1 exactly
        u = Field.constant(grid_1d, 1.0)
        with pytest.raises(FssError, match="theta too small"):
            linfty_bound_report(u, bump_weight, kernel_1d,
                                theta=2.0 * 1.5, alpha=0.5)

    def test_r_equal_one_rejected(self, kernel_1d, grid_1d):
        omega = WeightField(np.ones(grid_1d.interior_count), grid_1d, r=1.0)
        with pytest.raises(FssError, match="theta too small"):
            linfty_bound_report(Field.constant(grid_1d, 1.0), omega, kernel_1d,
                                theta=4.0, alpha=0.5)
