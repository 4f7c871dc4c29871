import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fss import (
    Field,
    FieldMismatchError,
    FracParams,
    WeightField,
    apply_operator,
    build_grid,
    build_kernel,
    log_functional,
    norm_r,
    pairing,
    seminorm_p,
    solve_nonsingular,
)
from fss import grid as grid_module
from fss.grid import PAIR_BLOCK_ELEMENTS
from fss.operators import (
    block_gradient,
    block_seminorm_p,
    energy_and_gradient,
    energy_hessian,
    energy_lower_bound,
    exterior_lower_bound,
)
from fss.sampling import trial_block

from conftest import synthetic_unit_kernel
from oracles import (
    central_difference_gradient,
    dense_p2_matrix,
    double_sum_gradient,
    double_sum_pairing,
    double_sum_seminorm,
    full_matrix_gradient,
    full_matrix_hessian,
    weighted_qmean,
)


def rand_field(grid, rng):
    return Field(rng.uniform(-1.0, 1.0, grid.interior_count), grid)


class TestSeminorm:
    def test_zero_field(self, kernel_1d):
        assert seminorm_p(Field.zero(kernel_1d.grid), kernel_1d) == 0.0

    def test_zero_only_for_zero(self, kernel_1d):
        rng = np.random.default_rng(1)
        for _ in range(20):
            v = rand_field(kernel_1d.grid, rng)
            if np.any(v.values != 0.0):
                assert seminorm_p(v, kernel_1d) > 0.0

    def test_single_node_value(self):
        # One interior node with value 1: the energy is twice the total
        # exterior coupling.
        grid = build_grid([(0.0, 1.0)], 0.5, 1.0)
        kernel = build_kernel(grid, FracParams(s=0.5, p=2.0, n_dim=1))
        u = Field(np.array([1.0]), grid)
        assert seminorm_p(u, kernel) == pytest.approx(
            2.0 * kernel.boundary_weight[0], rel=1e-14)

    @given(k=st.floats(-8.0, 8.0, allow_nan=False))
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_p_homogeneity(self, kernel_1d, k):
        rng = np.random.default_rng(7)
        u = rand_field(kernel_1d.grid, rng)
        sn = seminorm_p(u, kernel_1d)
        sn_k = seminorm_p(k * u, kernel_1d)
        assert sn_k == pytest.approx(abs(k) ** 2.0 * sn, rel=1e-12, abs=1e-12)

    def test_scaling_ratio_2p(self, kernel_1d):
        rng = np.random.default_rng(3)
        u = rand_field(kernel_1d.grid, rng)
        assert seminorm_p(2.0 * u, kernel_1d) / seminorm_p(u, kernel_1d) == \
            pytest.approx(2.0**2, rel=1e-12)

    def test_sign_change_strict(self, kernel_1d):
        rng = np.random.default_rng(5)
        for _ in range(10):
            u = rand_field(kernel_1d.grid, rng)
            au = Field(np.abs(u.values), kernel_1d.grid)
            if np.any(u.values > 0.0) and np.any(u.values < 0.0):
                assert seminorm_p(au, kernel_1d) < seminorm_p(u, kernel_1d)

    def test_one_signed_equality(self, kernel_1d):
        rng = np.random.default_rng(6)
        u = Field(np.abs(rng.uniform(0.1, 1.0, kernel_1d.grid.interior_count)),
                  kernel_1d.grid)
        neg = -1.0 * u
        sn = seminorm_p(u, kernel_1d)
        assert abs(seminorm_p(neg, kernel_1d) - sn) <= 1e-12 * sn

    def test_triangle_inequality(self, kernel_1d, kernel_1d_p3, kernel_1d_p15):
        rng = np.random.default_rng(8)
        for kernel in (kernel_1d, kernel_1d_p3, kernel_1d_p15):
            p = kernel.params.p
            for _ in range(25):
                u = rand_field(kernel.grid, rng)
                v = rand_field(kernel.grid, rng)
                lhs = seminorm_p(u + v, kernel) ** (1.0 / p)
                rhs = seminorm_p(u, kernel) ** (1.0 / p) \
                    + seminorm_p(v, kernel) ** (1.0 / p)
                assert lhs <= rhs + 1e-12 * (1.0 + rhs)

    def test_grid_mismatch(self, kernel_1d):
        other = build_grid([(0.0, 1.0)], 0.25, 0.5)
        with pytest.raises(FieldMismatchError):
            seminorm_p(Field.zero(other), kernel_1d)


class TestPairing:
    def test_pairing_with_self(self, kernel_1d, kernel_1d_p3, kernel_1d_p15):
        rng = np.random.default_rng(11)
        for kernel in (kernel_1d, kernel_1d_p3, kernel_1d_p15):
            u = rand_field(kernel.grid, rng)
            assert pairing(u, u, kernel) == \
                pytest.approx(seminorm_p(u, kernel), rel=1e-12)

    def test_zero_left(self, kernel_1d):
        rng = np.random.default_rng(12)
        v = rand_field(kernel_1d.grid, rng)
        assert pairing(Field.zero(kernel_1d.grid), v, kernel_1d) == 0.0

    def test_bilinear_p2(self, kernel_1d):
        rng = np.random.default_rng(13)
        u = rand_field(kernel_1d.grid, rng)
        v = rand_field(kernel_1d.grid, rng)
        w = rand_field(kernel_1d.grid, rng)
        a, b = 1.7, -0.4
        combo = a * v + b * w
        lhs = pairing(u, combo, kernel_1d)
        rhs = a * pairing(u, v, kernel_1d) + b * pairing(u, w, kernel_1d)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)

    def test_homogeneity_in_u(self, kernel_1d_p3):
        rng = np.random.default_rng(14)
        u = rand_field(kernel_1d_p3.grid, rng)
        v = rand_field(kernel_1d_p3.grid, rng)
        k = -1.6
        p = kernel_1d_p3.params.p
        lhs = pairing(k * u, v, kernel_1d_p3)
        rhs = abs(k) ** (p - 2.0) * k * pairing(u, v, kernel_1d_p3)
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestApplyOperator:
    def test_zero(self, kernel_1d):
        g = apply_operator(Field.zero(kernel_1d.grid), kernel_1d)
        assert np.all(g == 0.0)

    def test_matches_pairing(self, kernel_1d, kernel_1d_p3, kernel_1d_p15):
        rng = np.random.default_rng(21)
        for kernel in (kernel_1d, kernel_1d_p3, kernel_1d_p15):
            for _ in range(10):
                u = rand_field(kernel.grid, rng)
                v = rand_field(kernel.grid, rng)
                g = apply_operator(u, kernel)
                lhs = float(g @ v.values)
                rhs = pairing(u, v, kernel)
                assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)

    def test_finite_difference(self, kernel_1d, kernel_1d_p3):
        rng = np.random.default_rng(22)
        for kernel in (kernel_1d, kernel_1d_p3):
            p = kernel.params.p
            u = rand_field(kernel.grid, rng)

            def energy(values):
                return seminorm_p(Field(values, kernel.grid), kernel) / p

            g = apply_operator(u, kernel)
            fd = central_difference_gradient(energy, u.values, 1e-6)
            scale = np.abs(g).max()
            assert np.abs(g - fd).max() <= 1e-5 * scale


class TestDoubleSumOracle:
    """Every entry point against the double sums of ``oracles.py``, which
    read only ``w_interior`` and ``boundary_weight``: independent of the
    stiffness matrix and of the one pairwise pass the entry points share."""

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0], ids=["p1.5", "p2", "p3"])
    @pytest.mark.parametrize("kind", ["1d", "2d", "synthetic"])
    def test_entry_points_match_double_sum(self, kind, p, grid_1d):
        if kind == "1d":
            kernel = build_kernel(grid_1d, FracParams(s=0.5, p=p, n_dim=1))
        elif kind == "2d":
            grid = build_grid([(0.0, 1.0), (0.0, 1.0)], 1.0 / 6, 0.5)
            kernel = build_kernel(grid, FracParams(s=0.5, p=p, n_dim=2))
        else:
            kernel = synthetic_unit_kernel(p=p, pair_weight=1.7)
        rng = np.random.default_rng(71)
        grid = kernel.grid
        for _ in range(5):
            u = rand_field(grid, rng)
            v = rand_field(grid, rng)
            rhs = rng.uniform(-1.0, 1.0, grid.interior_count)
            sn = double_sum_seminorm(kernel, u.values, p)
            grad = double_sum_gradient(kernel, u.values, p)
            scale = np.abs(grad).max()
            assert seminorm_p(u, kernel) == pytest.approx(sn, rel=1e-12)
            assert pairing(u, v, kernel) == pytest.approx(
                double_sum_pairing(kernel, u.values, v.values, p), rel=1e-12)
            assert np.abs(apply_operator(u, kernel) - grad).max() \
                <= 1e-12 * scale
            energy, g = energy_and_gradient(u.values, kernel, rhs)
            assert energy == pytest.approx(sn / p - rhs @ u.values,
                                           rel=1e-12)
            assert np.abs(g - (grad - rhs)).max() \
                <= 1e-12 * np.abs(grad - rhs).max()


class TestP2FastPath:
    """At p = 2 the pairwise pass is a matvec against the stiffness matrix,
    which must equal the dense p = 2 oracle and be built only when used."""

    @pytest.fixture(params=["1d", "2d", "synthetic"])
    def kernel(self, request, kernel_1d):
        if request.param == "1d":
            return kernel_1d
        if request.param == "2d":
            grid = build_grid([(0.0, 1.0), (0.0, 1.0)], 1.0 / 6, 0.5)
            return build_kernel(grid, FracParams(s=0.5, p=2.0, n_dim=2))
        return synthetic_unit_kernel(p=2.0, pair_weight=1.7)

    def test_stiffness_is_dense_oracle(self, kernel):
        assert np.array_equal(kernel.stiffness, dense_p2_matrix(kernel))

    def test_stiffness_built_on_first_use(self, grid_1d):
        kernel = build_kernel(grid_1d, FracParams(s=0.5, p=2.0, n_dim=1))
        assert "stiffness" not in kernel.__dict__
        seminorm_p(Field.constant(grid_1d, 1.0), kernel)
        assert "stiffness" in kernel.__dict__

    def test_never_built_for_other_p(self, grid_1d):
        kernel = build_kernel(grid_1d, FracParams(s=0.5, p=3.0, n_dim=1))
        u = solve_nonsingular(np.ones(grid_1d.interior_count), kernel)
        seminorm_p(u, kernel)
        pairing(u, u, kernel)
        apply_operator(u, kernel)
        assert "stiffness" not in kernel.__dict__

    def test_factor_not_built_by_operators_or_solver(self, grid_1d):
        # Only a p = 2 chain factors on a support (``support_solve``).
        kernel = build_kernel(grid_1d, FracParams(s=0.5, p=2.0, n_dim=1))
        u = solve_nonsingular(np.ones(grid_1d.interior_count), kernel)
        seminorm_p(u, kernel)
        pairing(u, u, kernel)
        apply_operator(u, kernel)
        assert "stiffness" in kernel.__dict__
        assert kernel._schur_complements == {}
        assert "pair_buffers" not in kernel.__dict__

    def test_factor_solves_stiffness_system(self, kernel):
        # On the support of every node with D = 0 the solve is K u = b.
        b = np.linspace(-1.0, 2.0, kernel.interior_count)
        u = kernel.support_solve(np.arange(b.size), 0.0, b)
        assert np.abs(kernel.stiffness @ u - b).max() <= 1e-12 * np.abs(b).max()


class TestFFTProduct:
    """Above ``grid.FFT_NODES`` interior nodes the p = 2 product K v is a
    convolution with the interior offset table.  With the threshold at 0
    every p = 2 entry point must equal the dense oracle to rounding, for
    one field and for a block, on lines of even and odd length and on a
    square and a non-square box (which catches a transposed lattice), and
    must not build K."""

    @pytest.mark.parametrize("box,h,count", [
        ([(0.0, 1.0)], 1.0 / 17, 16),
        ([(0.0, 1.0)], 1.0 / 18, 17),
        ([(0.0, 1.0), (0.0, 1.0)], 1.0 / 12, 121),
        ([(0.0, 1.0), (0.0, 0.5)], 1.0 / 12, 55),
    ], ids=["1d-M16", "1d-M17", "2d-M121", "2d-11x5"])
    def test_matches_dense_oracle(self, box, h, count, monkeypatch):
        monkeypatch.setattr(grid_module, "FFT_NODES", 0)
        grid = build_grid(box, h, 0.5)
        assert grid.interior_count == count
        kernel = build_kernel(grid, FracParams(s=0.5, p=2.0, n_dim=len(box)))
        block = trial_block(grid, 4, 0, 10)
        expected = block @ dense_p2_matrix(kernel)  # K is symmetric
        energies = np.vecdot(block, expected)
        scale = np.abs(expected).max(axis=1, keepdims=True)
        assert np.all(np.abs(block_gradient(block, kernel) - expected)
                      <= 1e-13 * scale)
        assert np.all(np.abs(block_seminorm_p(block, kernel) - energies)
                      <= 1e-13 * energies)
        other = Field(block[-1], grid)
        for v, grad, energy in zip(block, expected, energies):
            u = Field(v, grid)
            assert np.abs(apply_operator(u, kernel) - grad).max() \
                <= 1e-13 * np.abs(grad).max()
            assert seminorm_p(u, kernel) == pytest.approx(energy, rel=1e-13)
            assert abs(pairing(u, other, kernel) - grad @ other.values) \
                <= 1e-13 * (np.abs(grad) @ np.abs(other.values))
        assert "stiffness" not in kernel.__dict__

    def test_spectrum_built_by_first_product_above_threshold(self, grid_1d,
                                                             monkeypatch):
        kernel = build_kernel(grid_1d, FracParams(s=0.5, p=2.0, n_dim=1))
        seminorm_p(Field.constant(grid_1d, 1.0), kernel)
        assert "offset_spectrum" not in kernel.__dict__
        monkeypatch.setattr(grid_module, "FFT_NODES", 0)
        kernel = build_kernel(grid_1d, FracParams(s=0.5, p=2.0, n_dim=1))
        assert "offset_spectrum" not in kernel.__dict__
        seminorm_p(Field.constant(grid_1d, 1.0), kernel)
        spectrum = kernel.offset_spectrum
        apply_operator(Field.constant(grid_1d, 1.0), kernel)
        assert kernel.offset_spectrum is spectrum
        assert "stiffness" not in kernel.__dict__
        # A stand-alone solve and the operator checks on its solution read
        # only the spectrum: neither K nor the M x M table W is built, in
        # 1D or 2D.
        grid_2d = build_grid([(0.0, 1.0), (0.0, 1.0)], 1.0 / 12, 0.25)
        for grid in (grid_1d, grid_2d):
            kernel = build_kernel(grid, FracParams(s=0.5, p=2.0,
                                                   n_dim=grid.n_dim))
            u = solve_nonsingular(np.ones(grid.interior_count), kernel)
            apply_operator(u, kernel)
            seminorm_p(u, kernel)
            pairing(u, u, kernel)
            assert "offset_spectrum" in kernel.__dict__
            assert "w_interior" not in kernel.__dict__
            assert "stiffness" not in kernel.__dict__


class TestBlockedPass:
    """At p != 2 the pairwise pass runs in row blocks through two reused
    buffers; it must equal the full-matrix formula bit for bit, and it
    must build neither the stiffness matrix nor its factor."""

    # M = 255 runs in blocks of 128 rows and M = 529 in blocks of 61, so
    # both end in a partial block; M = 31 and 121 fit in one block.
    @pytest.mark.parametrize("p", [1.5, 2.5, 3.0])
    @pytest.mark.parametrize("box,h,collar", [
        ([(0.0, 1.0)], 1.0 / 32, 0.5),
        ([(0.0, 1.0)], 1.0 / 256, 0.5),
        ([(0.0, 1.0), (0.0, 1.0)], 1.0 / 12, 0.25),
        ([(0.0, 1.0), (0.0, 1.0)], 1.0 / 24, 0.25),
    ], ids=["1d-M31", "1d-M255", "2d-M121", "2d-M529"])
    def test_bitwise_equal_to_full_matrix(self, box, h, collar, p):
        grid = build_grid(box, h, collar)
        kernel = build_kernel(grid, FracParams(s=0.5, p=p, n_dim=len(box)))
        rng = np.random.default_rng(5)
        for _ in range(3):
            u = rand_field(grid, rng)
            assert np.array_equal(apply_operator(u, kernel),
                                  full_matrix_gradient(kernel, u.values, p))
        rows = kernel.pair_buffers[0].shape[0]
        assert rows == min(grid.interior_count,
                           PAIR_BLOCK_ELEMENTS // grid.interior_count)
        assert "stiffness" not in kernel.__dict__
        assert kernel._schur_complements == {}

    def test_buffers_built_on_first_use_and_reused(self, grid_1d):
        kernel = build_kernel(grid_1d, FracParams(s=0.5, p=3.0, n_dim=1))
        assert "pair_buffers" not in kernel.__dict__
        u = Field.constant(grid_1d, 1.0)
        seminorm_p(u, kernel)
        buffers = kernel.pair_buffers
        apply_operator(u, kernel)
        assert kernel.pair_buffers is buffers

    def test_folded_weights_built_by_first_seminorm(self, grid_1d):
        u = Field.constant(grid_1d, 1.0)
        block = trial_block(grid_1d, 0, 0, 3)
        kernel = build_kernel(grid_1d, FracParams(s=0.5, p=3.0, n_dim=1))
        assert "folded_weights" not in kernel.__dict__
        apply_operator(u, kernel)
        assert "folded_weights" not in kernel.__dict__
        seminorm_p(u, kernel)
        table = kernel.folded_weights
        block_seminorm_p(block, kernel)
        assert kernel.folded_weights is table
        p2 = build_kernel(grid_1d, FracParams(s=0.5, p=2.0, n_dim=1))
        seminorm_p(u, p2)
        block_seminorm_p(block, p2)
        assert "folded_weights" not in p2.__dict__


class TestFoldedSeminorm:
    """At p != 2 the energy visits each unordered pair once, as
    {i, (i + j) mod M} for j = 1 ... M // 2; at even M offset M / 2 meets
    each of its pairs from both ends and must count it once."""

    @pytest.mark.parametrize("p", [1.5, 3.0])
    @pytest.mark.parametrize("box,h,count", [
        ([(0.0, 1.0)], 0.5, 1),
        ([(0.0, 1.0)], 1.0 / 3, 2),
        ([(0.0, 1.0)], 1.0 / 17, 16),
        ([(0.0, 1.0)], 1.0 / 256, 255),
        ([(0.0, 1.0), (0.0, 1.0)], 1.0 / 12, 121),
        ([(0.0, 1.0), (0.0, 0.5)], 1.0 / 12, 55),
    ], ids=["1d-M1", "1d-M2", "1d-M16", "1d-M255", "2d-M121", "2d-M55"])
    def test_matches_double_sum(self, box, h, count, p):
        grid = build_grid(box, h, 0.5)
        assert grid.interior_count == count
        kernel = build_kernel(grid, FracParams(s=0.5, p=p, n_dim=len(box)))
        block = trial_block(grid, 3, 7, 3)
        expected = np.array([double_sum_seminorm(kernel, v, p)
                             for v in block])
        assert np.all(np.abs(block_seminorm_p(block, kernel) - expected)
                      <= 1e-13 * expected)


class TestBlockEvaluation:
    """[v]^p and A v of a block of fields, one per row, against the one-field
    entry points: bitwise at p != 2, to rounding at p = 2 (one GEMM)."""

    # M = 255 runs each field in two blocks of 128 rows, the last partial.
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("box,h,collar", [
        ([(0.0, 1.0)], 1.0 / 17, 0.5),
        ([(0.0, 1.0)], 1.0 / 256, 0.5),
        ([(0.0, 1.0), (0.0, 1.0)], 1.0 / 12, 0.25),
    ], ids=["1d-M16", "1d-M255", "2d-M121"])
    def test_rows_match_single_fields(self, box, h, collar, p):
        grid = build_grid(box, h, collar)
        kernel = build_kernel(grid, FracParams(s=0.5, p=p, n_dim=len(box)))
        block = trial_block(grid, 8, 0, 12)
        grads = block_gradient(block, kernel)
        energies = block_seminorm_p(block, kernel)
        expected_grads = np.array([apply_operator(Field(v, grid), kernel)
                                   for v in block])
        expected = np.array([seminorm_p(Field(v, grid), kernel)
                             for v in block])
        if p == 2.0:
            scale = np.abs(expected_grads).max(axis=1, keepdims=True)
            assert np.all(np.abs(grads - expected_grads) <= 1e-13 * scale)
            assert np.all(np.abs(energies - expected) <= 1e-13 * expected)
        else:
            assert np.array_equal(grads, expected_grads)
            assert np.array_equal(energies, expected)

    @pytest.mark.parametrize("fixture", ["kernel_1d", "kernel_1d_p3"])
    def test_empty_block(self, fixture, request):
        kernel = request.getfixturevalue(fixture)
        block = np.empty((0, kernel.interior_count))
        assert block_gradient(block, kernel).shape == block.shape
        assert block_seminorm_p(block, kernel).shape == (0,)


class TestEnergyLowerBound:
    """``energy_lower_bound``: (1 - 1e-6) times the exterior terms and the
    lattice-neighbour pair terms of [v]^p, in O(M) per row, and
    ``exterior_lower_bound``, the exterior terms alone."""

    GRIDS = {
        "1d-M63": ([(0.0, 1.0)], 1.0 / 64, 0.5),
        "2d-M121": ([(0.0, 1.0), (0.0, 1.0)], 1.0 / 12, 0.25),
        "2d-11x5": ([(0.0, 1.0), (0.0, 0.5)], 1.0 / 12, 0.25),
    }

    @staticmethod
    def kernel(name, p):
        box, h, collar = TestEnergyLowerBound.GRIDS[name]
        return build_kernel(build_grid(box, h, collar),
                            FracParams(s=0.5, p=p, n_dim=len(box)))

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_below_the_energy(self, name, p):
        kernel = self.kernel(name, p)
        block = trial_block(kernel.grid, 0, 0, 1000)
        bounds = energy_lower_bound(block, kernel)
        energies = block_seminorm_p(block, kernel)
        assert np.all(bounds <= energies)
        assert np.all(exterior_lower_bound(block, kernel) <= bounds)
        # The exterior and neighbour terms carry over half of the median
        # trial's energy here (measured 0.61 to 0.79).
        assert np.median(bounds / energies) > 0.5

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_zero_field(self, name, p):
        kernel = self.kernel(name, p)
        zero = np.zeros((1, kernel.interior_count))
        assert energy_lower_bound(zero, kernel).tolist() == [0.0]
        assert exterior_lower_bound(zero, kernel).tolist() == [0.0]

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_one_node_field(self, name, p):
        # A field that is c at node k and zero elsewhere: the exterior term
        # B_k |c|^p and one pair term w_h |c|^p per lattice neighbour of k,
        # with w_h = m^2 / h^(N + sp).
        kernel = self.kernel(name, p)
        grid = kernel.grid
        n_dim, h = grid.n_dim, grid.h
        w_h = grid.measure**2 / h ** (n_dim + kernel.params.sp)
        gaps = np.abs(grid.interior[:, None, :]
                      - grid.interior[None, :, :]).sum(axis=2)
        neighbours = (np.abs(gaps - h) < 1e-9 * h).sum(axis=1)
        c = -0.7
        for k in (0, grid.interior_count // 2, grid.interior_count - 1):
            field = np.zeros((1, grid.interior_count))
            field[0, k] = c
            expected = (1.0 - 1e-6) * 2.0 * abs(c) ** p * (
                kernel.boundary_weight[k] + neighbours[k] * w_h)
            assert energy_lower_bound(field, kernel)[0] == pytest.approx(
                expected, rel=1e-13)
            assert exterior_lower_bound(field, kernel)[0] == pytest.approx(
                (1.0 - 1e-6) * 2.0 * abs(c) ** p * kernel.boundary_weight[k],
                rel=1e-13)

    def test_single_node_grid(self):
        kernel = synthetic_unit_kernel(p=3.0, pair_weight=2.0)
        assert energy_lower_bound(np.array([[0.5]]), kernel).tolist() == [
            (1.0 - 1e-6) * 2.0 * 2.0 * 0.5**3]

    def test_builds_no_table_above_fft_nodes(self):
        grid = build_grid([(0.0, 1.0), (0.0, 1.0)], 1.0 / 36, 0.25)
        assert grid.interior_count > grid_module.FFT_NODES
        kernel = build_kernel(grid, FracParams(s=0.5, p=2.0, n_dim=2))
        bounds = energy_lower_bound(trial_block(grid, 0, 0, 10), kernel)
        assert np.all(bounds > 0.0)
        assert "w_interior" not in kernel.__dict__
        assert "stiffness" not in kernel.__dict__


class TestHessian:
    """The Hessian of (1/p)[u]^p assembled through the blocked pass."""

    @pytest.mark.parametrize("p", [2.0, 2.5, 3.0])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_matches_double_loop(self, grid_1d, dim, p):
        grid = grid_1d if dim == 1 else build_grid([(0.0, 1.0), (0.0, 1.0)],
                                                   1.0 / 6, 0.5)
        kernel = build_kernel(grid, FracParams(s=0.5, p=p, n_dim=dim))
        u = rand_field(grid, np.random.default_rng(6)).values
        expected = full_matrix_hessian(kernel, u, p)
        got = energy_hessian(u, kernel)
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()
        assert "stiffness" not in kernel.__dict__

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_ties_clipped_below_p2(self, grid_1d, p):
        # At p = 1.5, |u_i - u_j| and |u_i| are clipped at
        # eps = 1e-13 max|u|: the Hessian is finite at a tie and a zero
        # node, and every entry free of them is the unclipped formula's,
        # bitwise.  At p = 3 nothing is clipped.
        kernel = build_kernel(grid_1d, FracParams(s=0.5, p=p, n_dim=1))
        u = rand_field(grid_1d, np.random.default_rng(9)).values
        u[3] = u[7]
        u[5] = 0.0
        got = energy_hessian(u, kernel)
        diff = np.abs(u[:, None] - u[None, :])
        with np.errstate(divide="ignore", invalid="ignore"):
            c = kernel.w_interior * diff ** (p - 2.0)
            np.fill_diagonal(c, 0.0)
            diagonal = c.sum(axis=1) \
                + kernel.boundary_weight * np.abs(u) ** (p - 2.0)
        expected = -2.0 * (p - 1.0) * c
        expected[np.diag_indices_from(expected)] = 2.0 * (p - 1.0) * diagonal
        assert np.isfinite(got).all()
        if p > 2.0:
            assert np.array_equal(got, expected)
            return
        eps = 1e-13 * np.abs(u).max()
        free = diff > eps
        assert not free[3, 7] and not free.all()
        assert np.array_equal(got[free], expected[free])
        rows = (free | np.eye(u.size, dtype=bool)).all(axis=1) \
            & (np.abs(u) > eps)
        assert rows.sum() == u.size - 3
        assert np.array_equal(np.diag(got)[rows], np.diag(expected)[rows])
        assert got[3, 7] == -2.0 * (p - 1.0) * kernel.w_interior[3, 7] \
            * eps ** (p - 2.0)

    @pytest.mark.parametrize("p", [1.2, 1.5, 3.0, 6.0])
    def test_into_a_work_array(self, grid_1d, p, monkeypatch):
        # Written over a used work array, in row blocks of three rows and
        # a last of one, the Hessian has the bits of a new one, also at a
        # tie and at a zero node (both clipped at p < 2), and it is
        # exactly symmetric.
        monkeypatch.setattr(grid_module, "PAIR_BLOCK_ELEMENTS",
                            3 * grid_1d.interior_count)
        kernel = build_kernel(grid_1d, FracParams(s=0.5, p=p, n_dim=1))
        u = rand_field(grid_1d, np.random.default_rng(9)).values
        u[3] = u[7]
        u[5] = 0.0
        work = np.full((u.size, u.size), np.nan)
        got = energy_hessian(u, kernel, work)
        assert got is work
        assert np.array_equal(got, energy_hessian(u, kernel))
        assert np.array_equal(got, got.T)

    def test_is_stiffness_at_p2(self, kernel_1d):
        u = rand_field(kernel_1d.grid, np.random.default_rng(7)).values
        hess = energy_hessian(u, kernel_1d)
        assert np.array_equal(hess, kernel_1d.stiffness)
        expected = full_matrix_hessian(kernel_1d, u, 2.0)
        assert np.abs(hess - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_directional_derivative_of_gradient(self, kernel_1d_p3):
        # H v = (A(u + t v) - A(u - t v)) / (2 t) up to O(t^2)
        rng = np.random.default_rng(8)
        u = rand_field(kernel_1d_p3.grid, rng).values
        v = rand_field(kernel_1d_p3.grid, rng).values
        t = 1e-5
        plus = energy_and_gradient(u + t * v, kernel_1d_p3)[1]
        minus = energy_and_gradient(u - t * v, kernel_1d_p3)[1]
        hv = energy_hessian(u, kernel_1d_p3) @ v
        assert np.abs((plus - minus) / (2 * t) - hv).max() \
            <= 1e-7 * np.abs(hv).max()


class TestLogFunctional:
    def test_constant(self, grid_1d, bump_weight):
        c = 2.5
        v = Field.constant(grid_1d, c)
        expected = bump_weight.norm_1 * math.log(c)
        assert log_functional(v, bump_weight) == pytest.approx(expected, rel=1e-12)

    def test_unit_field(self, grid_1d, bump_weight):
        assert log_functional(Field.constant(grid_1d, 1.0), bump_weight) == 0.0

    def test_sentinel(self, grid_1d, bump_weight):
        values = np.ones(grid_1d.interior_count)
        values[np.argmax(bump_weight.values)] = 0.0
        assert log_functional(Field(values, grid_1d), bump_weight) == -math.inf

    def test_zero_off_support_is_finite(self, grid_1d, bump_weight):
        values = np.ones(grid_1d.interior_count)
        off = np.nonzero(bump_weight.values == 0.0)[0]
        if off.size:
            values[off[0]] = 0.0
            assert math.isfinite(log_functional(Field(values, grid_1d),
                                                bump_weight))

    def test_qmean_limit(self, grid_1d, bump_weight):
        # exp(log integral / |w|_1) is the q -> 0+ limit of the power
        # means; two-point extrapolation in q removes the O(q) term.
        rng = np.random.default_rng(41)
        v = Field(rng.uniform(0.2, 2.0, grid_1d.interior_count), grid_1d)
        target = math.exp(log_functional(v, bump_weight) / bump_weight.norm_1)
        m2, m3, m4 = (weighted_qmean(v, bump_weight, q)
                      for q in (1e-2, 1e-3, 1e-4))
        # power means expand as G (1 + c q + O(q^2)); eliminate the O(q) term
        extrapolated = (10.0 * m4 - m3) / 9.0
        for approx in (m4, extrapolated):
            assert approx == pytest.approx(target, rel=1e-4)
        assert abs(m2 - target) >= abs(m3 - target) >= abs(m4 - target) * 0.5


class TestNormR:
    def test_l1_of_ones(self, grid_1d):
        u = Field.constant(grid_1d, 1.0)
        expected = grid_1d.interior_count * grid_1d.measure
        assert norm_r(u, 1.0) == pytest.approx(expected, rel=1e-14)

    def test_max_norm(self):
        grid = build_grid([(0.0, 1.0)], 0.25, 0.5)
        u = Field(np.array([1.0, -3.0, 2.0]), grid)
        assert norm_r(u, math.inf) == 3.0

    def test_invalid_exponent(self, grid_1d):
        with pytest.raises(ValueError):
            norm_r(Field.constant(grid_1d, 1.0), 0.5)

    def test_holder_consistency(self, grid_1d):
        rng = np.random.default_rng(51)
        volume = grid_1d.domain_measure
        for r in (1.5, 2.0, 4.0):
            for _ in range(20):
                u = rand_field(grid_1d, rng)
                lhs = norm_r(u, 1.0)
                rhs = volume ** (1.0 - 1.0 / r) * norm_r(u, r)
                assert lhs <= rhs + 1e-12 * (1.0 + rhs)


class TestWeightField:
    def test_rejects_negative(self, grid_1d):
        values = np.ones(grid_1d.interior_count)
        values[0] = -0.1
        with pytest.raises(ValueError):
            WeightField(values, grid_1d)

    def test_rejects_zero(self, grid_1d):
        with pytest.raises(ValueError):
            WeightField(np.zeros(grid_1d.interior_count), grid_1d)

    def test_cached_norms(self, grid_1d):
        values = np.full(grid_1d.interior_count, 2.0)
        w = WeightField(values, grid_1d, r=2.0)
        m = grid_1d.measure
        n = grid_1d.interior_count
        assert w.norm_1 == pytest.approx(2.0 * m * n, rel=1e-14)
        assert w.norm_r_value == pytest.approx((4.0 * m * n) ** 0.5, rel=1e-14)
