import math

import numpy as np
import pytest

from fss import (
    EmbeddingConstant,
    Field,
    FracParams,
    SolveOptions,
    SolverError,
    WeightField,
    apply_operator,
    build_grid,
    build_kernel,
    embedding_constant,
    norm_r,
    pairing,
    seminorm_p,
    solve_barrier,
    solve_nonsingular,
)

from conftest import single_node_kernel, synthetic_unit_kernel
from oracles import dense_p2_matrix


class TestSolveNonsingular:
    def test_zero_datum(self, kernel_1d):
        u = solve_nonsingular(np.zeros(kernel_1d.interior_count), kernel_1d)
        assert np.all(u.values == 0.0)

    def test_single_node_closed_form(self):
        # One node, p = 2, energy coefficient 2K and datum m f: the
        # stationarity condition 2K u = m f gives u = m f / (2K).
        kernel = synthetic_unit_kernel(p=2.0, pair_weight=1.0)
        m = kernel.grid.measure
        f = 3.0
        u = solve_nonsingular(np.array([f]), kernel,
                              SolveOptions(grad_tol=1e-13))
        assert u.values[0] == pytest.approx(m * f / 2.0, rel=1e-11)

    def test_dense_linear_oracle(self):
        grid = build_grid([(0.0, 1.0)], 1.0 / 33, 0.5)
        kernel = build_kernel(grid, FracParams(s=0.5, p=2.0, n_dim=1), True)
        rng = np.random.default_rng(0)
        f = np.abs(rng.standard_normal(grid.interior_count))
        direct = np.linalg.solve(dense_p2_matrix(kernel), grid.measure * f)
        u = solve_nonsingular(f, kernel, SolveOptions(grad_tol=1e-11))
        err = np.abs(u.values - direct).max() / np.abs(direct).max()
        assert err <= 1e-9

    def test_nonnegative_for_nonnegative_data(self, kernel_1d_p15, kernel_1d_p3):
        rng = np.random.default_rng(2)
        for kernel in (kernel_1d_p15, kernel_1d_p3):
            f = np.abs(rng.standard_normal(kernel.interior_count))
            u = solve_nonsingular(f, kernel)
            assert u.values.min() >= -1e-10

    def test_comparison_principle(self, kernel_1d, kernel_1d_p3):
        rng = np.random.default_rng(3)
        for kernel in (kernel_1d, kernel_1d_p3):
            f = np.abs(rng.standard_normal(kernel.interior_count))
            g = f + np.abs(rng.standard_normal(kernel.interior_count))
            uf = solve_nonsingular(f, kernel)
            ug = solve_nonsingular(g, kernel)
            assert np.all(uf.values <= ug.values + 1e-8)

    def test_uniqueness_across_inits(self, kernel_1d_p3):
        rng = np.random.default_rng(4)
        f = np.abs(rng.standard_normal(kernel_1d_p3.interior_count))
        starts = [Field.zero(kernel_1d_p3.grid),
                  Field.constant(kernel_1d_p3.grid, 5.0),
                  Field(rng.uniform(-1, 1, kernel_1d_p3.interior_count),
                        kernel_1d_p3.grid)]
        sols = [solve_nonsingular(f, kernel_1d_p3, x0=s) for s in starts]
        for sol in sols[1:]:
            assert (sol - sols[0]).max_norm() <= 1e-7

    def test_duality_residual(self, kernel_1d, kernel_1d_p15):
        rng = np.random.default_rng(5)
        for kernel in (kernel_1d, kernel_1d_p15):
            p = kernel.params.p
            f = np.abs(rng.standard_normal(kernel.interior_count))
            u = solve_nonsingular(f, kernel)
            m = kernel.grid.measure
            for _ in range(100):
                v = Field(rng.uniform(-1, 1, kernel.interior_count), kernel.grid)
                gap = abs(pairing(u, v, kernel) - float(m * f @ v.values))
                sn_v = seminorm_p(v, kernel) ** (1.0 / p)
                assert gap <= 1e-8 * (1.0 + sn_v)

    def test_gradient_tolerance_met(self, kernel_1d):
        rng = np.random.default_rng(6)
        f = np.abs(rng.standard_normal(kernel_1d.interior_count))
        opts = SolveOptions(grad_tol=1e-10)
        u = solve_nonsingular(f, kernel_1d, opts)
        residual = apply_operator(u, kernel_1d) - kernel_1d.grid.measure * f
        assert np.abs(residual).max() <= opts.grad_tol

    def test_nonconvergence_error_carries_state(self, kernel_1d):
        rng = np.random.default_rng(7)
        f = np.abs(rng.standard_normal(kernel_1d.interior_count))
        with pytest.raises(SolverError) as err:
            solve_nonsingular(f, kernel_1d, SolveOptions(grad_tol=1e-10,
                                                         max_iter=2))
        assert err.value.iterate is not None
        assert err.value.grad_norm is not None

    def test_rejects_bad_datum(self, kernel_1d):
        with pytest.raises(ValueError):
            solve_nonsingular(np.full(kernel_1d.interior_count, np.nan),
                              kernel_1d)


class TestSolveBarrier:
    def test_caps_weight(self):
        # Constant weight 5 is capped at 1, so the barrier solves the
        # p-problem with unit datum: one node, p = 2 gives u = m / (2K).
        kernel = synthetic_unit_kernel(p=2.0, pair_weight=1.0)
        omega = WeightField(np.array([5.0]), kernel.grid)
        psi = solve_barrier(omega, kernel, SolveOptions(grad_tol=1e-13))
        assert psi.values[0] == pytest.approx(1.0 / 2.0, rel=1e-11)

    def test_strictly_positive(self, kernel_1d, bump_weight):
        psi = solve_barrier(bump_weight, kernel_1d)
        assert psi.values.min() > 0.0

    def test_operator_homogeneity(self, kernel_1d_p3):
        # Scaling the datum by 2^(p-1) doubles the solution.
        rng = np.random.default_rng(8)
        p = kernel_1d_p3.params.p
        f = np.abs(rng.standard_normal(kernel_1d_p3.interior_count))
        u1 = solve_nonsingular(f, kernel_1d_p3, SolveOptions(grad_tol=1e-12))
        u2 = solve_nonsingular(2.0 ** (p - 1.0) * f, kernel_1d_p3,
                               SolveOptions(grad_tol=1e-12))
        assert np.abs(u2.values - 2.0 * u1.values).max() <= 1e-8


class TestEmbeddingConstant:
    def test_single_node_closed_form(self):
        kernel = single_node_kernel(s=0.5, p=2.0)
        m = kernel.grid.measure
        k2 = 2.0 * kernel.boundary_weight[0]
        for theta in (1.0, 2.0, 3.0):
            result = embedding_constant(theta, kernel)
            assert result.value == pytest.approx(m ** (2.0 / theta) / k2,
                                                 rel=1e-10)

    def test_no_random_violation(self, kernel_1d):
        p = kernel_1d.params.p
        for theta in (p, 1.0):
            result = embedding_constant(theta, kernel_1d)
            rng = np.random.default_rng(9)
            for _ in range(1000):
                v = Field(rng.uniform(-1, 1, kernel_1d.interior_count),
                          kernel_1d.grid)
                ratio = norm_r(v, theta) ** p / seminorm_p(v, kernel_1d)
                assert ratio <= result.value * (1.0 + 1e-10)

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_exact_at_theta_one(self, grid_1d, p):
        # S_1 = ||u||_1^(p-1) for the torsion field u (A u = m * 1).
        kernel = build_kernel(grid_1d, FracParams(s=0.5, p=p, n_dim=1))
        result = embedding_constant(1.0, kernel)
        torsion = solve_nonsingular(np.ones(grid_1d.interior_count), kernel)
        assert result.starts == 1
        assert np.array_equal(result.extremizer.values, torsion.values)
        assert result.value == pytest.approx(
            norm_r(torsion, 1.0) ** (p - 1.0), rel=1e-9)

    def test_extremizer_attains_value(self, kernel_1d):
        result = embedding_constant(2.0, kernel_1d)
        p = kernel_1d.params.p
        attained = norm_r(result.extremizer, result.theta) ** p \
            / seminorm_p(result.extremizer, kernel_1d)
        assert attained == pytest.approx(result.value, rel=1e-8)

    def test_theta_sweep_continuity(self, kernel_1d):
        values = [embedding_constant(theta, kernel_1d).value
                  for theta in (1.0, 1.5, 2.0, 2.5, 3.0, 4.0)]
        for a, b in zip(values, values[1:]):
            assert max(a / b, b / a) < 10.0

    def test_theta_validation(self):
        grid = build_grid([(0.0, 1.0), (0.0, 1.0)], 0.2, 0.4)
        kernel = build_kernel(grid, FracParams(s=0.5, p=2.0, n_dim=2), True)
        with pytest.raises(ValueError):
            embedding_constant(0.5, kernel)
        with pytest.raises(ValueError):
            embedding_constant(kernel.params.p_star + 1.0, kernel)
        with pytest.raises(ValueError):
            embedding_constant(math.inf, kernel)
        # the critical exponent itself is a finite discrete maximum
        result = embedding_constant(kernel.params.p_star, kernel)
        assert result.value > 0.0

    def test_multistart_determinism(self, kernel_1d):
        a = embedding_constant(2.0, kernel_1d, seed=3)
        b = embedding_constant(2.0, kernel_1d, seed=3)
        assert a.value == b.value

    def test_rejects_nonpositive_value(self, kernel_1d):
        with pytest.raises(ValueError):
            EmbeddingConstant(theta=2.0, value=0.0,
                              extremizer=Field.zero(kernel_1d.grid))
