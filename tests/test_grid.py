import math
import tracemalloc

import numpy as np
import pytest

import fss.grid
from fss import (
    FracParams,
    GridError,
    build_grid,
    build_kernel,
    r_alpha,
)
from fss.grid import _exterior_tail

from oracles import full_matrix_pair_weights


class TestBuildGrid:
    def test_1d_example(self):
        grid = build_grid([(0.0, 1.0)], 0.25, 1.0)
        assert grid.interior[:, 0].tolist() == [0.25, 0.5, 0.75]
        collar = grid.collar[:, 0]
        assert (collar <= 0.0 + 1e-12).sum() > 0 and (collar >= 1.0 - 1e-12).sum() > 0
        assert grid.measure == 0.25

    def test_2d_single_node(self):
        grid = build_grid([(0.0, 1.0), (0.0, 1.0)], 0.5, 0.5)
        assert grid.interior.shape == (1, 2)
        assert grid.interior[0].tolist() == [0.5, 0.5]
        assert grid.measure == 0.25

    def test_degenerate(self):
        with pytest.raises(GridError, match="degenerate grid"):
            build_grid([(0.0, 1.0)], 2.0, 2.0)

    def test_collar_narrower_than_cell(self):
        with pytest.raises(GridError):
            build_grid([(0.0, 1.0)], 0.25, 0.1)

    @pytest.mark.parametrize("box,h,collar,message", [
        ([(0.0, 1.0)], math.nan, 0.5, "spacing h must be finite, got nan"),
        ([(0.0, 1.0)], math.inf, 0.5, "spacing h must be finite, got inf"),
        ([(0.0, 1.0)], 0.1, math.nan, "collar width must be finite, got nan"),
        ([(0.0, 1.0)], 0.1, math.inf, "collar width must be finite, got inf"),
        ([(0.0, math.inf)], 0.1, 0.5,
         "box axis (0.0, inf) has a non-finite bound"),
        ([(0.0, 1.0), (math.nan, 1.0)], 0.1, 0.5,
         "box axis (nan, 1.0) has a non-finite bound"),
    ], ids=["h-nan", "h-inf", "collar-nan", "collar-inf", "box-inf",
            "box-nan"])
    def test_rejects_non_finite_input(self, box, h, collar, message):
        with pytest.raises(GridError) as err:
            build_grid(box, h, collar)
        assert str(err.value) == message

    def test_interior_strictly_inside(self):
        grid = build_grid([(0.0, 1.0)], 0.1, 0.3)
        x = grid.interior[:, 0]
        assert np.all((x > 0.0) & (x < 1.0))
        # 10 * 0.1 rounds to 0.9999...; boundary nodes must land in the collar
        assert not np.any(np.isclose(x, 0.0)) and not np.any(np.isclose(x, 1.0))
        assert np.any(np.isclose(grid.collar[:, 0], 0.0))
        assert np.any(np.isclose(grid.collar[:, 0], 1.0))

    def test_deterministic_enumeration(self):
        a = build_grid([(0.0, 1.0), (0.0, 2.0)], 0.25, 0.5)
        b = build_grid([(0.0, 1.0), (0.0, 2.0)], 0.25, 0.5)
        assert a.interior.tobytes() == b.interior.tobytes()
        assert a.collar.tobytes() == b.collar.tobytes()

    def test_lexicographic_order(self):
        grid = build_grid([(0.0, 1.0), (0.0, 1.0)], 1.0 / 3, 0.5)
        rows = [tuple(row) for row in grid.interior]
        assert rows == sorted(rows)

    def test_collar_stays_inside_collar_box(self):
        grid = build_grid([(0.0, 1.0), (0.0, 2.0)], 0.25, 0.75)
        for axis, (lo, hi) in enumerate(grid.box):
            x = grid.collar[:, axis]
            assert np.all(x >= lo - grid.collar_width - 1e-12)
            assert np.all(x <= hi + grid.collar_width + 1e-12)
        # every collar node fails the strict-interior test on some axis
        inside = np.ones(grid.collar.shape[0], dtype=bool)
        for axis, (lo, hi) in enumerate(grid.box):
            inside &= (grid.collar[:, axis] > lo) & (grid.collar[:, axis] < hi)
        assert not np.any(inside)


class TestFracParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            FracParams(s=1.2, p=2.0, n_dim=1)
        with pytest.raises(ValueError):
            FracParams(s=0.5, p=1.0, n_dim=1)
        with pytest.raises(ValueError):
            FracParams(s=0.5, p=2.0, n_dim=3)

    def test_p_star(self):
        params = FracParams(s=0.5, p=2.0, n_dim=2)
        assert params.p_star == pytest.approx(4.0)
        assert params.p_star > params.p
        assert FracParams(s=0.9, p=2.0, n_dim=1).p_star == math.inf

    def test_sp(self):
        assert FracParams(s=0.3, p=1.5, n_dim=1).sp == pytest.approx(0.45)


class TestBuildKernel:
    def test_pair_weight_value(self):
        # h = 0.25, s = 0.5, p = 2 in 1D: exponent N + s p = 2, so the
        # adjacent-pair weight is 0.25^2 / 0.25^2 = 1.
        grid = build_grid([(0.0, 1.0)], 0.25, 1.0)
        kernel = build_kernel(grid, FracParams(s=0.5, p=2.0, n_dim=1))
        assert kernel.w_interior[0, 1] == pytest.approx(1.0, rel=1e-14)

    def test_symmetry_and_positivity(self, kernel_1d):
        w = kernel_1d.w_interior
        assert np.array_equal(w, w.T)
        off_diag = w[~np.eye(w.shape[0], dtype=bool)]
        assert np.all(off_diag > 0.0) and np.all(np.isfinite(off_diag))
        assert np.all(w.diagonal() == 0.0)
        assert np.all(kernel_1d.boundary_weight > 0.0)

    def test_tail_value(self):
        # The node 0.5 of (0, 1) with collar 0.5 sits at distance R = 1
        # from the collar box boundary; at s = 0.5, p = 2 the closed form
        # 2 * R^(-sp) / sp equals 2 (the integral 2 int_1^inf r^-2 dr).
        grid = build_grid([(0.0, 1.0)], 0.5, 0.5)
        params = FracParams(s=0.5, p=2.0, n_dim=1)
        assert grid.boundary_distance(grid.collar_width)[0] == pytest.approx(1.0)
        assert _exterior_tail(grid, params)[0] == pytest.approx(2.0, rel=1e-14)

    def test_tail_2d(self):
        grid = build_grid([(0.0, 1.0), (0.0, 1.0)], 0.5, 0.5)
        params = FracParams(s=0.5, p=2.0, n_dim=2)
        # sigma_1 * R^(-sp) / sp with R = 1, sp = 1
        assert _exterior_tail(grid, params)[0] == pytest.approx(
            2.0 * math.pi, rel=1e-14)

    def test_scaling_law(self):
        # Coordinates scaled by c multiply every pair weight by c^(N - sp).
        params = FracParams(s=0.4, p=2.5, n_dim=1)
        base = build_kernel(build_grid([(0.0, 1.0)], 0.125, 0.5), params)
        c = 3.0
        scaled = build_kernel(
            build_grid([(0.0, c)], c * 0.125, c * 0.5), params
        )
        ratio = scaled.w_interior[0, 1] / base.w_interior[0, 1]
        assert ratio == pytest.approx(c ** (1.0 - params.sp), rel=1e-12)

    def test_scaling_law_2d(self):
        params = FracParams(s=0.5, p=2.0, n_dim=2)
        base = build_kernel(
            build_grid([(0.0, 1.0), (0.0, 1.0)], 0.25, 0.5), params
        )
        c = 2.0
        scaled = build_kernel(
            build_grid([(0.0, c), (0.0, c)], c * 0.25, c * 0.5), params
        )
        rng = np.random.default_rng(0)
        n = base.interior_count
        for _ in range(20):
            i, j = rng.integers(0, n, 2)
            if i == j:
                continue
            ratio = scaled.w_interior[i, j] / base.w_interior[i, j]
            assert ratio == pytest.approx(c ** (2.0 - params.sp), rel=1e-12)


# In every 2D case some lattice offset gives several distinct float
# differences |x_i - y_j|.  The last three cases are the h = 1/24 unit
# square, a box off the origin, and s = 0.35 (a non-integer exponent at
# every p).
_PAIR_CASES = pytest.mark.parametrize("box,h,collar,s", [
    ([(0.0, 1.0)], 1.0 / 17, 0.5, 0.5),
    ([(0.0, 1.0), (0.0, 1.0)], 1.0 / 12, 0.25, 0.5),
    ([(0.0, 1.0), (0.0, 2.0)], 1.0 / 7, 0.5, 0.5),
    ([(0.0, 1.0), (0.0, 1.0)], 1.0 / 24, 0.25, 0.5),
    ([(-0.3, 0.7), (0.1, 1.9)], 1.0 / 13, 0.4, 0.5),
    ([(0.0, 1.0), (0.0, 1.0)], 1.0 / 9, 0.3, 0.35),
], ids=["1d", "2d", "2d-rect", "2d-h24", "2d-offset", "2d-s035"])


def _collar_sums(grid: fss.grid.Grid, exponent: float, rows: int = 256):
    """The row sums of the full interior-by-collar weight array, taken
    from blocks of ``rows`` rows at a time."""
    return np.concatenate([
        full_matrix_pair_weights(grid.interior[first:first + rows],
                                 grid.collar, grid.measure, exponent,
                                 False).sum(axis=1)
        for first in range(0, grid.interior_count, rows)])


class TestPairWeights:
    # The 2D collar row sums are an FFT convolution, which sums in another
    # order than the pair pass: the largest relative change of B measured
    # is 2.2e-14 on _PAIR_CASES and 6.3e-14 at h = 1/48 with p = 3.
    B_RTOL_2D = 1e-13

    @classmethod
    def assert_equal_to_full_difference_array(cls, box, h, collar, p, s):
        grid = build_grid(box, h, collar)
        params = FracParams(s=s, p=p, n_dim=len(box))
        kernel = build_kernel(grid, params)
        exponent = grid.n_dim + params.sp
        m = grid.measure
        # The build keeps the first row only; the M x M table is built on
        # its first read, with the same bits.
        assert "w_interior" not in kernel.__dict__
        w = kernel.w_interior
        assert np.array_equal(w, full_matrix_pair_weights(
            grid.interior, grid.interior, m, exponent, True))
        assert kernel.first_row.tobytes() == w[0].tobytes()
        cls.assert_boundary_weight(kernel)

    @classmethod
    def assert_boundary_weight(cls, kernel):
        """B is bitwise the pair-by-pair sum in 1D and within
        ``B_RTOL_2D`` of it in 2D."""
        grid, params = kernel.grid, kernel.params
        expected = (_collar_sums(grid, grid.n_dim + params.sp)
                    + grid.measure * _exterior_tail(grid, params))
        if grid.n_dim == 1:
            assert np.array_equal(kernel.boundary_weight, expected)
        else:
            np.testing.assert_allclose(kernel.boundary_weight, expected,
                                       rtol=cls.B_RTOL_2D, atol=0.0)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @_PAIR_CASES
    def test_bitwise_equal_to_full_difference_array(self, box, h, collar, s, p):
        self.assert_equal_to_full_difference_array(box, h, collar, p, s)

    @pytest.mark.parametrize("rows", [1, 5], ids=["one-row", "ragged"])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @_PAIR_CASES
    def test_row_blocks(self, box, h, collar, s, p, rows, monkeypatch):
        # The 1D collar row sums are built in row blocks; blocks of one
        # row, and of five rows (which divide none of these M), give the
        # row sums of the whole M x C array too.  The 2D build convolves
        # over the collar-box lattice and does not depend on the block
        # size.
        grid = build_grid(box, h, collar)
        assert grid.interior_count % 5 != 0
        monkeypatch.setattr(fss.grid, "PAIR_BLOCK_ELEMENTS",
                            rows * grid.collar.shape[0])
        self.assert_equal_to_full_difference_array(box, h, collar, p, s)

    def test_fine_lattice_boundary_weight(self):
        # The h = 1/48 unit square (M = 2209, 3120 collar nodes) at p = 3.
        grid = build_grid([(0.0, 1.0), (0.0, 1.0)], 1.0 / 48, 0.25)
        self.assert_boundary_weight(
            build_kernel(grid, FracParams(s=0.5, p=3.0, n_dim=2)))

    @_PAIR_CASES
    def test_rebuild_is_bitwise_equal(self, box, h, collar, s):
        params = FracParams(s=s, p=2.0, n_dim=len(box))
        first, second = (build_kernel(build_grid(box, h, collar), params)
                         for _ in range(2))
        assert first.w_interior.tobytes() == second.w_interior.tobytes()
        assert first.first_row.tobytes() == second.first_row.tobytes()
        assert (first.boundary_weight.tobytes()
                == second.boundary_weight.tobytes())

    def test_no_interior_by_collar_array(self):
        # The build holds the class table, the collar-box lattice's
        # padded offset table and FFTs, and O(M) rows, far below 8 M^2
        # bytes (an eighth of it at h = 1/24); any M x M array, such as
        # the interior table, or an M x C array breaks the bound.
        grid = build_grid([(0.0, 1.0), (0.0, 1.0)], 1.0 / 24, 0.25)
        m, c = grid.interior_count, grid.collar.shape[0]
        assert c > m
        params = FracParams(s=0.5, p=2.0, n_dim=2)
        tracemalloc.start()
        try:
            build_kernel(grid, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * m * m


class TestRAlpha:
    def test_alpha_one(self):
        assert r_alpha(1.0, FracParams(s=0.5, p=2.0, n_dim=2)) == 1.0

    def test_subcritical(self):
        # N = 2, s = 0.5, p = 2: p_star = 4, conjugate of 4/0.5 = 8 is 8/7.
        params = FracParams(s=0.5, p=2.0, n_dim=2)
        assert r_alpha(0.5, params) == pytest.approx(8.0 / 7.0, rel=1e-14)

    def test_supercritical(self):
        params = FracParams(s=0.9, p=2.0, n_dim=1)
        assert r_alpha(0.5, params) == pytest.approx(2.0)

    def test_out_of_range(self):
        params = FracParams(s=0.5, p=2.0, n_dim=1)
        for bad in (0.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                r_alpha(bad, params)
