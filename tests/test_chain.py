import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fss import (
    ChainOptions,
    Field,
    FracParams,
    FssError,
    SolveOptions,
    SolverError,
    StagnationError,
    WeightField,
    build_kernel,
    embedding_constant,
    linfty_bound_report,
    make_level,
    pairing,
    run_chain,
    seminorm_p,
    solve_level,
    truncate_weight,
    weak_residual,
)
from fss import chain as chain_module, solver as solver_module
from fss.chain import _solve_p2_newton

from conftest import (
    compact_bump_values,
    synthetic_unit_kernel,
    tight_chain_options,
)
from oracles import (
    dense_p2_matrix,
    fixed_point_step,
    scalar_level_solution,
    scalar_singular_solution,
)


class TestTruncateWeight:
    def test_clips(self, grid_1d):
        omega = WeightField(np.full(grid_1d.interior_count, 5.0), grid_1d)
        cut = truncate_weight(omega, 4)
        assert np.all(cut.values == 4.0)

    def test_inactive_when_large(self, grid_1d, bump_weight):
        cut = truncate_weight(bump_weight, 10)
        assert np.array_equal(cut.values, bump_weight.values)

    @given(level=st.integers(1, 12))
    @settings(max_examples=12, deadline=None, derandomize=True)
    def test_nondecreasing_in_level(self, grid_1d, level):
        rng = np.random.default_rng(17)
        omega = WeightField(rng.uniform(0.0, 20.0, grid_1d.interior_count)
                            + 1e-3, grid_1d)
        lo = truncate_weight(omega, level)
        hi = truncate_weight(omega, level + 1)
        assert np.all(lo.values <= hi.values)
        assert np.all(lo.values <= omega.values)
        assert np.all(lo.values <= level)

    def test_rejects_zero_level(self, bump_weight):
        with pytest.raises(ValueError):
            truncate_weight(bump_weight, 0)


class TestFixedPointStep:
    def test_unit_example(self):
        # One node, p = 2, energy coefficient 2, weight = measure = 1,
        # start 0, level 1, alpha 1: the frozen datum is 1/(0+1) = 1 and
        # the solve returns 1/2.
        kernel = synthetic_unit_kernel(p=2.0, pair_weight=1.0)
        omega = WeightField(np.array([1.0]), kernel.grid)
        problem = make_level(omega, 1, 1.0)
        out = fixed_point_step(problem, kernel, Field.zero(kernel.grid),
                               SolveOptions(grad_tol=1e-13))
        assert out.values[0] == pytest.approx(0.5, rel=1e-11)

    def test_sign_invariance(self, kernel_1d, bump_weight):
        # the frozen datum only sees |w|, so both solves share a minimizer
        # (reached from different warm starts, hence up to solver tolerance)
        rng = np.random.default_rng(23)
        w = Field(rng.uniform(-1.0, 1.0, kernel_1d.interior_count),
                  kernel_1d.grid)
        problem = make_level(bump_weight, 3, 0.5)
        opts = SolveOptions(grad_tol=1e-12)
        a = fixed_point_step(problem, kernel_1d, w, opts)
        b = fixed_point_step(problem, kernel_1d, -1.0 * w, opts)
        assert (a - b).max_norm() <= 1e-9

    def test_apriori_image_bound(self, kernel_1d, bump_weight):
        # The frozen datum is at most n^(alpha+1) sup(omega_n/n) <= n^(a+1),
        # so the image seminorm obeys [T w] <= (S_1^(1/p) n^(a+1))^(1/(p-1)).
        p = kernel_1d.params.p
        s1 = embedding_constant(1.0, kernel_1d).value
        rng = np.random.default_rng(24)
        for n in (1, 2, 8):
            problem = make_level(bump_weight, n, 0.5)
            w = Field(rng.uniform(-2.0, 2.0, kernel_1d.interior_count),
                      kernel_1d.grid)
            image = fixed_point_step(problem, kernel_1d, w)
            sn = seminorm_p(image, kernel_1d) ** (1.0 / p)
            cap = (s1 ** (1.0 / p) * n ** (0.5 + 1.0)) ** (1.0 / (p - 1.0))
            assert sn <= cap * (1.0 + 1e-9)


class TestSolveLevel:
    def test_scalar_oracle_large_n(self):
        # One node, p = 2, coefficient 2, weight = measure = 1, alpha 1:
        # as n grows the level solutions approach the root of 2u = 1/u,
        # u = 1/sqrt(2) = 0.7071067811865476.
        kernel = synthetic_unit_kernel(p=2.0, pair_weight=1.0)
        omega = WeightField(np.array([1.0]), kernel.grid)
        opts = tight_chain_options()
        problem = make_level(omega, 2**20, 1.0)
        u, _, _ = solve_level(problem, kernel, Field.zero(kernel.grid), opts)
        assert u.values[0] == pytest.approx(0.7071067811865476, rel=1e-5)
        oracle = scalar_level_solution(2.0, 1.0, 1.0, 2**20, 1.0, 2.0)
        assert u.values[0] == pytest.approx(oracle, rel=1e-10)

    def test_init_independence(self, kernel_1d, bump_weight):
        opts = ChainOptions(fixed_point_tol=1e-10)
        problem = make_level(bump_weight, 4, 0.5)
        a, _, _ = solve_level(problem, kernel_1d, Field.zero(kernel_1d.grid),
                              opts)
        b, _, _ = solve_level(problem, kernel_1d,
                              Field.constant(kernel_1d.grid, 10.0), opts)
        assert (a - b).max_norm() <= 1e-7

    @pytest.mark.parametrize("p", [2.0, 3.0])
    @pytest.mark.parametrize("n,alpha", [(1, 1.0), (1024, 0.5), (2**20, 3.0)])
    def test_far_starts(self, grid_1d, bump_weight, p, n, alpha):
        # Starts far below or above the solution take damped steps:
        # backtracked (p = 3 from 1e-6), and cut short of the boundary
        # u + 1/n = 0, which a full step crosses at alpha = 3 from 1e-6.
        kernel = build_kernel(grid_1d, FracParams(s=0.5, p=p, n_dim=1))
        problem = make_level(bump_weight, n, alpha)
        ref, _, _ = solve_level(problem, kernel, Field.constant(grid_1d, 0.1))
        for c in (1e-6, 1e3):
            u, _, _ = solve_level(problem, kernel, Field.constant(grid_1d, c))
            assert (u - ref).max_norm() <= 1e-9

    def test_tolerance_below_the_floor(self, kernel_1d, bump_weight):
        # No step reaches 1e-30: the floor rule returns the best iterate.
        problem = make_level(bump_weight, 8, 1.0)
        start = Field.zero(kernel_1d.grid)
        ref, _, ref_delta = solve_level(problem, kernel_1d, start)
        u, steps, delta = solve_level(problem, kernel_1d, start,
                                      ChainOptions(fixed_point_tol=1e-30))
        assert (u - ref).max_norm() <= 1e-12
        assert steps < chain_module._NEWTON_STEPS
        # The returned step max-norm shows the miss; the default tolerance
        # is met.
        assert 1e-30 < delta <= 1e-12
        assert ref_delta <= ChainOptions().fixed_point_tol

    def test_positivity(self, kernel_1d, bump_weight):
        problem = make_level(bump_weight, 2, 0.5)
        u, _, _ = solve_level(problem, kernel_1d, Field.zero(kernel_1d.grid),
                              ChainOptions())
        assert u.values.min() > 0.0

    def test_energy_minimality_inequality(self, kernel_1d, bump_weight):
        # The level solution u minimizes its frozen-datum energy, hence
        # [u]^p <= [phi]^p + p sum m w_n (u - phi)/(u + 1/n)^a for any phi.
        opts = ChainOptions(fixed_point_tol=1e-11)
        n, alpha = 4, 0.5
        problem = make_level(bump_weight, n, alpha)
        u, _, _ = solve_level(problem, kernel_1d, Field.zero(kernel_1d.grid), opts)
        m = kernel_1d.grid.measure
        rng = np.random.default_rng(31)
        sn_u = seminorm_p(u, kernel_1d)
        p = kernel_1d.params.p
        for _ in range(20):
            phi = Field(np.abs(rng.standard_normal(kernel_1d.interior_count)),
                        kernel_1d.grid)
            coupling = float(
                (m * problem.omega_n.values * (u.values - phi.values)
                 / (u.values + problem.shift) ** alpha).sum()
            )
            assert sn_u <= seminorm_p(phi, kernel_1d) + p * coupling + 1e-8

    def test_weak_form_residual(self, kernel_1d, bump_weight):
        opts = ChainOptions(fixed_point_tol=1e-11)
        n, alpha = 8, 0.5
        problem = make_level(bump_weight, n, alpha)
        u, _, _ = solve_level(problem, kernel_1d, Field.zero(kernel_1d.grid), opts)
        m = kernel_1d.grid.measure
        rng = np.random.default_rng(32)
        source = m * problem.omega_n.values / (u.values + problem.shift) ** alpha
        for _ in range(100):
            phi = Field(rng.uniform(-1, 1, kernel_1d.interior_count),
                        kernel_1d.grid)
            gap = abs(pairing(u, phi, kernel_1d) - float(source @ phi.values))
            assert gap <= 1e-7


def plain_averaged_level(problem, kernel, init, opts, max_sweeps=500):
    """Reference loop: w <- (w + T w)/2 until the sweep difference is at
    most the fixed-point tolerance."""
    w = init
    for sweep in range(1, max_sweeps + 1):
        new = 0.5 * (w + fixed_point_step(problem, kernel, w, opts.solve))
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
        problem = make_level(bump_weight, n, alpha)
        start = Field.zero(kernel_1d.grid)
        newton, steps, _ = solve_level(problem, kernel_1d, start, opts)
        plain, plain_sweeps = plain_averaged_level(problem, kernel_1d, start,
                                                   opts)
        assert (newton - plain).max_norm() <= 1e-8
        assert steps < plain_sweeps


class TestChainErrors:
    # Newton failures are forced through the module's step budget.
    def test_solver_error_names_level_sweep_alpha(self, kernel_1d_p3,
                                                  bump_weight, monkeypatch):
        monkeypatch.setattr(chain_module, "_NEWTON_STEPS", 1)
        problem = make_level(bump_weight, 4, 0.5)
        with pytest.raises(SolverError) as err:
            solve_level(problem, kernel_1d_p3,
                        Field.constant(kernel_1d_p3.grid, 0.3), ChainOptions())
        exc = err.value
        assert (exc.level, exc.sweep, exc.alpha) == (4, 1, 0.5)
        assert "level 4" in str(exc) and "sweep 1" in str(exc)
        assert exc.iterate is not None and exc.grad_norm > 0.0
        assert exc.iterations == 1

    def test_stagnation_error_names_level_sweep_alpha(self, kernel_1d,
                                                      bump_weight,
                                                      monkeypatch):
        monkeypatch.setattr(chain_module, "_NEWTON_STEPS", 2)
        problem = make_level(bump_weight, 8, 1.0)
        with pytest.raises(StagnationError) as err:
            solve_level(problem, kernel_1d, Field.zero(kernel_1d.grid),
                        ChainOptions())
        exc = err.value
        assert (exc.level, exc.sweep, exc.alpha) == (8, 2, 1.0)
        assert len(exc.history) == 2
        assert "level 8" in str(exc)

    def test_standalone_solver_error_has_no_chain_context(self, kernel_1d_p3,
                                                          bump_weight):
        problem = make_level(bump_weight, 4, 0.5)
        with pytest.raises(SolverError) as err:
            fixed_point_step(problem, kernel_1d_p3,
                             Field.zero(kernel_1d_p3.grid),
                             SolveOptions(max_iter=1))
        assert err.value.level is None and err.value.sweep is None

    def test_p2_solver_error_names_level_sweep_alpha(self, kernel_1d,
                                                     bump_weight, monkeypatch):
        monkeypatch.setattr(chain_module, "_NEWTON_STEPS", 1)
        problem = make_level(bump_weight, 4, 0.5)
        with pytest.raises(SolverError) as err:
            solve_level(problem, kernel_1d, Field.zero(kernel_1d.grid),
                        ChainOptions())
        exc = err.value
        assert (exc.level, exc.sweep, exc.alpha) == (4, 1, 0.5)
        assert "level 4" in str(exc) and "sweep 1" in str(exc)
        assert exc.iterate is not None and exc.grad_norm > 0.0

    def test_hessian_failure_names_level_step_alpha(self, kernel_1d_p15,
                                                    bump_weight):
        # At p < 2 tied nodes give c_ij = w_ij 0^(p-2): a non-finite Hessian.
        problem = make_level(bump_weight, 4, 0.5)
        with pytest.raises(SolverError) as err:
            solve_level(problem, kernel_1d_p15,
                        Field.constant(kernel_1d_p15.grid, 0.3))
        exc = err.value
        assert (exc.level, exc.sweep, exc.alpha) == (4, 1, 0.5)
        assert str(exc) == ("level 4 (alpha 0.5), sweep 1: Hessian has a "
                            "non-finite entry")
        assert exc.iterate is not None and exc.iterations == 1

    def test_indefinite_hessian_names_level_step_alpha(self, kernel_1d_p3,
                                                       bump_weight):
        # At p > 2 the Hessian of (1/p)[u]^p vanishes at u = 0, and the
        # weight's curvature covers only its support.
        problem = make_level(bump_weight, 4, 0.5)
        with pytest.raises(SolverError) as err:
            solve_level(problem, kernel_1d_p3, Field.zero(kernel_1d_p3.grid))
        exc = err.value
        assert (exc.level, exc.sweep, exc.alpha) == (4, 1, 0.5)
        assert "Hessian is not positive definite" in str(exc)

    def test_barrier_error_names_stage_and_alpha(self, kernel_1d_p3,
                                                 bump_weight):
        opts = ChainOptions(solve=SolveOptions(max_iter=1))
        with pytest.raises(SolverError) as err:
            run_chain(bump_weight, 0.5, kernel_1d_p3, opts=opts)
        exc = err.value
        assert str(exc).startswith("barrier (alpha 0.5): ")
        assert exc.alpha == 0.5 and exc.level is None and exc.sweep is None
        assert exc.iterate is not None and exc.iterations == 1

    def test_embedding_error_names_stage_and_alpha(self, kernel_1d_p3,
                                                   bump_weight, monkeypatch):
        def fail(kernel, opts=None, seed=0):
            raise SolverError("embedding constant search did not converge")

        monkeypatch.setattr(chain_module, "embedding_for_existence_bound",
                            fail)
        with pytest.raises(SolverError) as err:
            run_chain(bump_weight, 0.5, kernel_1d_p3)
        exc = err.value
        assert str(exc) == ("embedding constant (alpha 0.5): embedding "
                            "constant search did not converge")
        assert exc.alpha == 0.5 and exc.level is None and exc.sweep is None

    def test_polish_error_names_sweep_and_alpha(self, kernel_1d_p3,
                                                bump_weight, monkeypatch):
        # A budget of one step for the limit only: its first step is of the
        # order of the chain tolerance, far above the polish tolerance.
        newton = chain_module._newton

        def one_step_polish(u, weight, shift, *args, **kwargs):
            if shift == 0.0:
                monkeypatch.setattr(chain_module, "_NEWTON_STEPS", 1)
            return newton(u, weight, shift, *args, **kwargs)

        monkeypatch.setattr(chain_module, "_newton", one_step_polish)
        with pytest.raises(SolverError) as err:
            run_chain(bump_weight, 1.0, kernel_1d_p3)
        exc = err.value
        assert isinstance(exc, StagnationError) and len(exc.history) == 1
        assert str(exc).startswith("polish (alpha 1), sweep 1: no convergence "
                                   "within 1 Newton steps")
        assert (exc.level, exc.sweep, exc.alpha) == (None, 1, 1.0)


class TestCholeskyStart:
    """At p = 2 the barrier starts from the direct solution by the kernel's
    cached Cholesky factor, and the Newton steps of a narrow support solve
    through it; only the chain builds the factor."""

    def test_built_by_run_chain_at_p2(self, grid_1d, bump_weight):
        kernel = build_kernel(grid_1d, FracParams(s=0.5, p=2.0, n_dim=1))
        assert "stiffness_factor" not in kernel.__dict__
        run_chain(bump_weight, 1.0, kernel)
        assert "stiffness_factor" in kernel.__dict__

    def test_not_built_at_p3(self, grid_1d, bump_weight):
        kernel = build_kernel(grid_1d, FracParams(s=0.5, p=3.0, n_dim=1))
        run_chain(bump_weight, 1.0, kernel)
        assert "stiffness_factor" not in kernel.__dict__
        assert "stiffness" not in kernel.__dict__

    def test_barrier_takes_one_evaluation(self, grid_1d, bump_weight,
                                          monkeypatch):
        # Started from the direct solution, the barrier's L-BFGS solve
        # certifies it with a single energy evaluation.  At alpha = 1 the
        # barrier is the chain's only solver-module solve.
        kernel = build_kernel(grid_1d, FracParams(s=0.5, p=2.0, n_dim=1))
        calls = []
        evaluate = solver_module.energy_and_gradient

        def counted(*args, **kwargs):
            calls.append(1)
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(solver_module, "energy_and_gradient", counted)
        run_chain(bump_weight, 1.0, kernel)
        assert len(calls) == 1


class TestWideSupport:
    """At p = 2 a weight positive on more than half the nodes takes the
    direct Cholesky step of K + D instead of the Woodbury one, and keeps
    no columns of K^-1."""

    @pytest.mark.parametrize("n,alpha", [(4, 0.5), (64, 1.0)])
    def test_matches_woodbury_step(self, grid_1d, constant_weight, n, alpha,
                                   monkeypatch):
        kernel = build_kernel(grid_1d, FracParams(s=0.5, p=2.0, n_dim=1))
        problem = make_level(constant_weight, n, alpha)
        start = Field.constant(grid_1d, 0.1)
        direct, _, _ = solve_level(problem, kernel, start)
        assert kernel._inverse_columns == {}
        monkeypatch.setattr(chain_module, "_WOODBURY_SHARE", 1.0)
        woodbury, _, _ = solve_level(problem, kernel, start)
        assert len(kernel._inverse_columns) == 1
        assert (direct - woodbury).max_norm() <= 1e-12

    def test_narrow_support_takes_woodbury(self, grid_1d):
        # Radius 0.2: 6 of the 16 nodes.
        kernel = build_kernel(grid_1d, FracParams(s=0.5, p=2.0, n_dim=1))
        omega = WeightField(compact_bump_values(grid_1d, radius=0.2), grid_1d,
                            r=3.0)
        solve_level(make_level(omega, 4, 0.5), kernel,
                    Field.constant(grid_1d, 0.1))
        assert len(kernel._inverse_columns) == 1


class TestSupportSolve:
    """The p = 2 Newton system (K + D) x = g with D diagonal on the
    weight's support S and g supported on S, solved by Woodbury through
    the factor of K.  With S = every node, g is arbitrary."""

    @pytest.mark.parametrize("support", ["bump", "every node", "one node"])
    def test_matches_dense_solve(self, grid_1d, bump_weight, support):
        kernel = build_kernel(grid_1d, FracParams(s=0.5, p=2.0, n_dim=1))
        m = grid_1d.interior_count
        nodes = {"bump": np.flatnonzero(bump_weight.values > 0.0),
                 "every node": np.arange(m),
                 "one node": np.array([m // 2])}[support]
        rng = np.random.default_rng(41)
        diagonal = 10.0 ** rng.uniform(-3.0, 8.0, nodes.size)
        g = np.zeros(m)
        g[nodes] = rng.standard_normal(nodes.size)
        dense = dense_p2_matrix(kernel)
        dense[nodes, nodes] += diagonal
        expected = np.linalg.solve(dense, g)
        root = np.sqrt(diagonal)
        got = _solve_p2_newton(kernel, nodes, root, g[nodes] / root)
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


class TestRunChain:
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
        for rec in chain.levels:
            assert rec.seminorm <= bump_weight.norm_1 + 1e-8
            assert rec.apriori_ok

    def test_apriori_bound_alpha_below_one(self, kernel_1d, bump_weight):
        chain = run_chain(bump_weight, 0.5, kernel_1d, opts=ChainOptions())
        assert all(rec.apriori_ok for rec in chain.levels)

    def test_schedule_independence(self, kernel_1d, bump_weight):
        opts = ChainOptions(chain_tol=1e-8)
        doubling = run_chain(bump_weight, 0.5, kernel_1d, opts=opts)
        tripling = run_chain(bump_weight, 0.5, kernel_1d,
                             schedule=[3**k for k in range(30)], opts=opts)
        assert doubling.converged and tripling.converged
        assert (doubling.u_alpha - tripling.u_alpha).max_norm() <= 1e-6

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
        assert chain.power_seminorms is not None
        assert all(v > 0.0 for v in chain.power_seminorms)
        assert chain.levels[0].apriori_bound is None

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


class TestLinftyBound:
    def test_constant_factor_examples(self, kernel_1d, bump_weight):
        # alpha = 1, p = 2: C_alpha = 1^(1/2) * 2 = 2;
        # p = 2, r = 3 (conjugate 3/2), theta = 4: b = (8/3 - 1)/1 = 5/3.
        chain = run_chain(bump_weight, 1.0, kernel_1d, opts=ChainOptions())
        s4 = embedding_constant(4.0, kernel_1d)
        report = linfty_bound_report(chain.u_alpha, bump_weight, kernel_1d,
                                     theta=4.0, s_theta=s4.value, alpha=1.0)
        assert report.c_alpha == pytest.approx(2.0, rel=1e-12)
        assert report.b == pytest.approx(5.0 / 3.0, rel=1e-12)
        assert report.passed

    def test_bound_dominates_solution(self, kernel_1d, bump_weight):
        for alpha in (0.5, 1.0):
            chain = run_chain(bump_weight, alpha, kernel_1d,
                              opts=ChainOptions())
            s4 = embedding_constant(4.0, kernel_1d)
            report = linfty_bound_report(chain.u_alpha, bump_weight, kernel_1d,
                                         theta=4.0, s_theta=s4.value,
                                         alpha=alpha)
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
                                  s_theta=s4.value, alpha=alpha)
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
                                theta=2.0 * 1.5, s_theta=1.0, alpha=0.5)

    def test_r_equal_one_rejected(self, kernel_1d, grid_1d):
        omega = WeightField(np.ones(grid_1d.interior_count), grid_1d, r=1.0)
        with pytest.raises(FssError, match="theta too small"):
            linfty_bound_report(Field.constant(grid_1d, 1.0), omega, kernel_1d,
                                theta=4.0, s_theta=1.0, alpha=0.5)
