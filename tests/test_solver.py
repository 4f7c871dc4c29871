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

from fss import grid as grid_module
from fss import solver as solver_module
from fss.operators import block_gradient, block_seminorm_p

from conftest import (compact_bump_values, single_node_kernel,
                      synthetic_unit_kernel)
from oracles import dense_p2_matrix, double_sum_gradient


def _kernel_2d():
    # the unit square at h = 1/11: 100 interior nodes, p = 2, p_star = 4
    grid = build_grid([(0.0, 1.0), (0.0, 1.0)], 1.0 / 11, 0.4)
    return build_kernel(grid, FracParams(s=0.5, p=2.0, n_dim=2))


def _record_solves(monkeypatch):
    """The list of fields ``embedding_constant`` gets from
    ``solve_nonsingular``, in call order."""
    solves = []

    def recording(*args, **kwargs):
        solves.append(solve_nonsingular(*args, **kwargs))
        return solves[-1]

    monkeypatch.setattr(solver_module, "solve_nonsingular", recording)
    return solves


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
        # Conjugate gradients on K, in 1D and 2D, never factor K.
        grid = build_grid([(0.0, 1.0)], 1.0 / 33, 0.5)
        rng = np.random.default_rng(0)
        for kernel in (build_kernel(grid, FracParams(s=0.5, p=2.0, n_dim=1)),
                       _kernel_2d()):
            m = kernel.grid.measure
            f = np.abs(rng.standard_normal(kernel.interior_count))
            direct = np.linalg.solve(dense_p2_matrix(kernel), m * f)
            u = solve_nonsingular(f, kernel, SolveOptions(grad_tol=1e-11))
            err = np.abs(u.values - direct).max() / np.abs(direct).max()
            assert err <= 1e-9
            assert kernel._schur_complements == {}

    @staticmethod
    def _check_fft_solve(kernel, f):
        """A p = 2 solve and the four operators above the FFT threshold
        meet the tolerance and never build K."""
        opts = SolveOptions()
        u = solve_nonsingular(f, kernel, opts)
        grad = apply_operator(u, kernel)
        assert np.abs(grad - kernel.grid.measure * f).max() <= opts.grad_tol
        assert np.abs(block_gradient(u.values[None, :], kernel)[0]
                      - grad).max() <= 1e-13 * np.abs(grad).max()
        assert pairing(u, u, kernel) == pytest.approx(seminorm_p(u, kernel),
                                                      rel=1e-12)
        assert "stiffness" not in kernel.__dict__

    @pytest.mark.parametrize("box,h", [
        ([(0.0, 1.0)], 1.0 / 33),
        ([(0.0, 1.0), (0.0, 1.0)], 1.0 / 12),
        ([(0.0, 1.0), (0.0, 0.5)], 1.0 / 12),
    ], ids=["1d-M32", "2d-M121", "2d-11x5"])
    def test_fft_product_solve(self, box, h, monkeypatch):
        monkeypatch.setattr(grid_module, "FFT_NODES", 0)
        grid = build_grid(box, h, 0.5)
        kernel = build_kernel(grid, FracParams(s=0.5, p=2.0, n_dim=len(box)))
        f = np.abs(np.random.default_rng(12).standard_normal(
            grid.interior_count))
        self._check_fft_solve(kernel, f)

    def test_fft_product_solve_above_real_threshold(self):
        # h = 1/48 on the unit square: 2209 interior nodes.
        grid = build_grid([(0.0, 1.0), (0.0, 1.0)], 1.0 / 48, 0.25)
        assert grid.interior_count > grid_module.FFT_NODES
        kernel = build_kernel(grid, FracParams(s=0.5, p=2.0, n_dim=2))
        self._check_fft_solve(kernel, np.ones(grid.interior_count))

    @pytest.mark.parametrize("p", [2.5, 3.0, 4.0])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_newton_meets_double_sum_gradient(self, grid_1d, dim, p):
        # The solve's gradient, recomputed by the plain double sums, minus
        # m f is within the tolerance.
        grid = grid_1d if dim == 1 else build_grid([(0.0, 1.0), (0.0, 1.0)],
                                                   1.0 / 6, 0.5)
        kernel = build_kernel(grid, FracParams(s=0.5, p=p, n_dim=dim))
        f = np.abs(np.random.default_rng(10).standard_normal(
            grid.interior_count))
        opts = SolveOptions()
        u = solve_nonsingular(f, kernel, opts)
        residual = double_sum_gradient(kernel, u.values, p) - grid.measure * f
        assert np.abs(residual).max() <= opts.grad_tol
        assert "stiffness" not in kernel.__dict__

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

    def test_nonconvergence_error_carries_state(self, kernel_1d,
                                                monkeypatch):
        monkeypatch.setattr(solver_module, "_CG_ITERATIONS", 2)
        rng = np.random.default_rng(7)
        f = np.abs(rng.standard_normal(kernel_1d.interior_count))
        with pytest.raises(SolverError) as err:
            solve_nonsingular(f, kernel_1d, SolveOptions(grad_tol=1e-10))
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

    @pytest.mark.parametrize("weight", ["1d bump", "2d bump", "constant"])
    def test_p2_is_the_direct_solution(self, kernel_1d, bump_weight,
                                       constant_weight, monkeypatch, weight):
        # At p = 2 the barrier is the direct solution of K u = m min(w, 1)
        # on the weight's support, which conjugate gradients certify
        # without an iteration.
        if weight == "2d bump":
            kernel = _kernel_2d()
            omega = WeightField(compact_bump_values(kernel.grid), kernel.grid)
        else:
            kernel = kernel_1d
            omega = bump_weight if weight == "1d bump" else constant_weight
        iterations = []
        solve = solver_module._conjugate_gradients

        def counted(*args, **kwargs):
            result = solve(*args, **kwargs)
            iterations.append(result[1])
            return result

        monkeypatch.setattr(solver_module, "_conjugate_gradients", counted)
        psi = solve_barrier(omega, kernel)
        support = np.flatnonzero(omega.values)
        direct = kernel.support_solve(
            support, 0.0,
            kernel.grid.measure * np.minimum(omega.values[support], 1.0))
        assert np.array_equal(psi.values, direct)
        assert iterations == [0]

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

    @pytest.mark.parametrize("theta", [1.0, 2.0, 3.0, 4.0])
    def test_no_one_node_violation(self, kernel_1d, kernel_1d_p3, theta):
        # [e_i]^p from the pairwise pass, not the closed form the solver uses
        for kernel in (kernel_1d, kernel_1d_p3, _kernel_2d()):
            p = kernel.params.p
            m = kernel.grid.measure
            result = embedding_constant(theta, kernel)
            energies = block_seminorm_p(np.eye(kernel.interior_count), kernel)
            ratios = m ** (p / theta) / energies
            assert ratios.max() <= result.value * (1.0 + 1e-12)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_p2_theta2_is_first_eigenvalue(self, kernel_1d, dim):
        # ||v||_2^2 = m |v|^2 and [v]^2 = v.K v, so S_2 = m / lambda_min(K).
        kernel = kernel_1d if dim == 1 else _kernel_2d()
        result = embedding_constant(2.0, kernel)
        exact = kernel.grid.measure / np.linalg.eigvalsh(kernel.stiffness)[0]
        assert result.exact
        assert result.value == pytest.approx(exact, rel=1e-10)

    @pytest.mark.parametrize("theta", [1.5, 2.0, 3.0, 4.0])
    def test_quotient_nondecreasing(self, kernel_1d_p3, theta, monkeypatch):
        solves = _record_solves(monkeypatch)
        p = kernel_1d_p3.params.p
        result = embedding_constant(theta, kernel_1d_p3)
        quotients = [norm_r(u, theta) ** p / seminorm_p(u, kernel_1d_p3)
                     for u in solves]
        assert len(quotients) > 2
        for a, b in zip(quotients, quotients[1:]):
            assert b >= a * (1.0 - 1e-12)
        assert result.value == max(quotients)
        assert result.exact == (theta <= p)

    @pytest.mark.parametrize("theta", [1.5])
    def test_stalled_solves_give_lower_bound(self, kernel_1d_p15, theta):
        # At theta = p = 1.5 a solve of the iteration stalls above the
        # gradient tolerance: the result is the quotient of its last
        # iterate.
        result = embedding_constant(theta, kernel_1d_p15)
        attained = norm_r(result.extremizer, theta) ** 1.5 \
            / seminorm_p(result.extremizer, kernel_1d_p15)
        assert not result.exact
        assert attained == result.value

    @pytest.mark.parametrize("theta", [1.0, 1.2])
    def test_converged_solves_give_exact_value(self, kernel_1d_p15, theta):
        # Below theta = p = 1.5 every solve meets the gradient tolerance:
        # the value is attained by the extremizer and no random field
        # exceeds it.
        result = embedding_constant(theta, kernel_1d_p15)
        attained = norm_r(result.extremizer, theta) ** 1.5 \
            / seminorm_p(result.extremizer, kernel_1d_p15)
        assert result.exact
        assert attained == result.value
        rng = np.random.default_rng(12)
        for _ in range(200):
            v = Field(rng.uniform(-1, 1, kernel_1d_p15.interior_count),
                      kernel_1d_p15.grid)
            ratio = norm_r(v, theta) ** 1.5 / seminorm_p(v, kernel_1d_p15)
            assert ratio <= result.value * (1.0 + 1e-10)

    def test_lower_bound_above_p(self, kernel_1d):
        for theta in (2.5, 4.0):
            assert not embedding_constant(theta, kernel_1d).exact
        assert not embedding_constant(3.5, _kernel_2d()).exact

    def test_one_node_bound_builds_no_interior_table(self):
        # The one-node bound reads the row sums of W plus B from the
        # offset spectrum, so above FFT_NODES a p = 2 constant never
        # builds the M x M table.
        grid = build_grid([(0.0, 1.0), (0.0, 1.0)], 1.0 / 48, 0.25)
        kernel = build_kernel(grid, FracParams(s=0.5, p=2.0, n_dim=2))
        assert kernel.interior_count > grid_module.FFT_NODES
        embedding_constant(2.0, kernel)
        assert "offset_spectrum" in kernel.__dict__
        assert "w_interior" not in kernel.__dict__

    def test_one_node_field_at_critical_exponent(self):
        # At theta = p_star on the h = 1/11 square the best one-node field
        # beats the iteration.  Its quotient m^(p/theta) / [e_i]^p, with
        # [e_i]^p = 2 (sum_j w_ij + B_i), is read from the spectrum's row
        # sums, equal to the dense ones to rounding.
        kernel = _kernel_2d()
        theta = kernel.params.p_star
        result = embedding_constant(theta, kernel)
        one_node = kernel.grid.measure ** (2.0 / theta) / (
            2.0 * (kernel.w_interior.sum(axis=1) + kernel.boundary_weight))
        assert np.count_nonzero(result.extremizer.values) == 1
        assert result.value == pytest.approx(one_node.max(), rel=1e-13)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_exact_at_theta_one(self, grid_1d, p, monkeypatch):
        # S_1 = ||u||_1^(p-1) for the torsion field u (A u = m * 1),
        # from that one solve.
        solves = _record_solves(monkeypatch)
        kernel = build_kernel(grid_1d, FracParams(s=0.5, p=p, n_dim=1))
        result = embedding_constant(1.0, kernel)
        assert len(solves) == 1
        torsion = solve_nonsingular(np.ones(grid_1d.interior_count), kernel)
        assert result.exact
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
        kernel = build_kernel(grid, FracParams(s=0.5, p=2.0, n_dim=2))
        with pytest.raises(ValueError):
            embedding_constant(0.5, kernel)
        with pytest.raises(ValueError):
            embedding_constant(kernel.params.p_star + 1.0, kernel)
        with pytest.raises(ValueError):
            embedding_constant(math.inf, kernel)
        # NaN fails every comparison, so it must be caught before them
        with pytest.raises(ValueError, match="finite"):
            embedding_constant(math.nan, kernel)
        # the critical exponent itself is a finite discrete maximum
        result = embedding_constant(kernel.params.p_star, kernel)
        assert result.value > 0.0

    def test_multistart_determinism(self, kernel_1d):
        a = embedding_constant(2.0, kernel_1d)
        b = embedding_constant(2.0, kernel_1d)
        assert a.value == b.value

    def test_rejects_nonpositive_value(self, kernel_1d):
        with pytest.raises(ValueError):
            EmbeddingConstant(theta=2.0, value=0.0,
                              extremizer=Field.zero(kernel_1d.grid))
