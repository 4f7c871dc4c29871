import numpy as np
import pytest

from fss import (
    ChainOptions,
    FracParams,
    Grid,
    Kernel,
    SolveOptions,
    WeightField,
    build_grid,
    build_kernel,
)


@pytest.fixture(scope="session")
def grid_1d() -> Grid:
    """16 interior nodes on (0, 1)."""
    return build_grid([(0.0, 1.0)], 1.0 / 17, 0.5)


@pytest.fixture(scope="session")
def kernel_1d(grid_1d) -> Kernel:
    return build_kernel(grid_1d, FracParams(s=0.5, p=2.0, n_dim=1))


@pytest.fixture(scope="session")
def kernel_1d_p3(grid_1d) -> Kernel:
    return build_kernel(grid_1d, FracParams(s=0.5, p=3.0, n_dim=1))


@pytest.fixture(scope="session")
def kernel_1d_p15(grid_1d) -> Kernel:
    return build_kernel(grid_1d, FracParams(s=0.5, p=1.5, n_dim=1))


def compact_bump_values(grid: Grid, center=None, radius=0.3, amplitude=1.0):
    x = grid.interior
    lo = np.array([b[0] for b in grid.box])
    hi = np.array([b[1] for b in grid.box])
    c = np.asarray(center) if center is not None else 0.5 * (lo + hi)
    t2 = ((x - c) ** 2).sum(axis=1) / radius**2
    values = np.zeros(grid.interior_count)
    inside = t2 < 1.0
    values[inside] = amplitude * np.exp(1.0 - 1.0 / (1.0 - t2[inside]))
    return values


@pytest.fixture(scope="session")
def bump_weight(grid_1d) -> WeightField:
    return WeightField(compact_bump_values(grid_1d), grid_1d, r=3.0)


@pytest.fixture(scope="session")
def constant_weight(grid_1d) -> WeightField:
    return WeightField(np.ones(grid_1d.interior_count), grid_1d, r=3.0)


def single_node_kernel(s: float, p: float) -> Kernel:
    """Real one-interior-node kernel: domain (0, 1), h = 0.5, collar 1."""
    grid = build_grid([(0.0, 1.0)], 0.5, 1.0)
    assert grid.interior_count == 1
    return build_kernel(grid, FracParams(s=s, p=p, n_dim=1))


def synthetic_unit_kernel(p: float, pair_weight: float = 1.0) -> Kernel:
    """Hand-built kernel with one interior node, cell measure 1, and total
    exterior coupling ``pair_weight`` (so the energy is
    2 * pair_weight * |u|^p).  Matches the worked closed-form examples."""
    grid = build_grid([(0.0, 2.0)], 1.0, 1.0)
    assert grid.interior_count == 1 and grid.measure == 1.0
    return Kernel(
        grid=grid,
        params=FracParams(s=0.5, p=p, n_dim=1),
        first_row=np.zeros(1),
        boundary_weight=np.array([pair_weight]),
    )


def tight_chain_options(chain_tol: float = 1e-9) -> ChainOptions:
    """Oracle-grade tolerances for scalar comparisons."""
    return ChainOptions(
        solve=SolveOptions(grad_tol=1e-13),
        fixed_point_tol=1e-14,
        chain_tol=chain_tol,
    )
