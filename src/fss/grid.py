"""Discrete geometry for nonlocal problems on a box domain.

The domain is an interval or axis-aligned rectangle, discretized with a
uniform Cartesian lattice of spacing ``h``.  The complement of the domain
is represented by an explicit *collar* of lattice nodes, of prescribed
width, on which every field is pinned to zero.  Kernel mass beyond the
collar box can be accounted for by an analytic tail term.

Nodes are enumerated lexicographically by coordinates, so two builds with
identical inputs produce bitwise-identical grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .exceptions import FieldMismatchError, GridError

# Surface measure of the unit sphere boundary, indexed by N-1: sigma[1]=2
# (two endpoints), sigma[2]=2*pi (circle circumference).
_SPHERE_SURFACE = {1: 2.0, 2: 2.0 * math.pi}

# Elements per row block of the p != 2 pairwise pass (256 KB of doubles).
PAIR_BLOCK_ELEMENTS = 2**15


@dataclass(frozen=True)
class FracParams:
    """Differentiability order ``s``, summability ``p``, and dimension.

    ``p_star`` is the critical embedding exponent N*p/(N - s*p), with an
    infinite sentinel when N <= s*p.
    """

    s: float
    p: float
    n_dim: int = 1

    def __post_init__(self):
        if not (0.0 < self.s < 1.0):
            raise ValueError(f"s must lie in (0, 1), got {self.s}")
        if not (self.p > 1.0):
            raise ValueError(f"p must exceed 1, got {self.p}")
        if self.n_dim not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {self.n_dim}")

    @property
    def sp(self) -> float:
        return self.s * self.p

    @property
    def p_star(self) -> float:
        if self.n_dim > self.sp:
            return self.n_dim * self.p / (self.n_dim - self.sp)
        return math.inf


@dataclass(frozen=True)
class Grid:
    """Uniform lattice covering the domain box plus a zero collar.

    ``interior`` holds the nodes strictly inside the box; ``collar`` holds
    the nodes of the enlarged box that are not strictly inside (domain
    boundary included).  All fields carry the implicit value 0 on collar
    nodes.  Each node owns the cell measure ``h**n_dim``.
    """

    n_dim: int
    box: tuple[tuple[float, float], ...]
    h: float
    collar_width: float
    interior: np.ndarray
    collar: np.ndarray

    @property
    def measure(self) -> float:
        """Cell measure per node."""
        return self.h**self.n_dim

    @property
    def interior_count(self) -> int:
        return self.interior.shape[0]

    @property
    def domain_measure(self) -> float:
        """Measure of the discretized domain (interior cells only)."""
        return self.interior_count * self.measure

    def boundary_distance(self) -> np.ndarray:
        """Distance from each interior node to the domain box boundary."""
        lo = np.array([b[0] for b in self.box])
        hi = np.array([b[1] for b in self.box])
        return np.minimum(self.interior - lo, hi - self.interior).min(axis=1)

    def collar_box_distance(self) -> np.ndarray:
        """Distance from each interior node to the collar box boundary."""
        lo = np.array([b[0] - self.collar_width for b in self.box])
        hi = np.array([b[1] + self.collar_width for b in self.box])
        return np.minimum(self.interior - lo, hi - self.interior).min(axis=1)


def _axis_nodes(lo: float, hi: float, h: float, collar_width: float) -> np.ndarray:
    """Lattice coordinates lo + k*h covering [lo - collar, hi + collar]."""
    eps = 1e-9 * h
    k_min = math.ceil((-collar_width - eps) / h)
    k_max = math.floor(((hi - lo) + collar_width + eps) / h)
    return lo + h * np.arange(k_min, k_max + 1)


def build_grid(box, h: float, collar_width: float) -> Grid:
    """Build the interior/collar node sets for a box domain.

    ``box`` is a sequence of (lo, hi) pairs, one per axis (1 or 2 axes).
    Raises ``GridError`` if no lattice node falls strictly inside the box
    ("degenerate grid") or the collar is narrower than one cell.
    """
    box = tuple((float(lo), float(hi)) for lo, hi in box)
    n_dim = len(box)
    if n_dim not in (1, 2):
        raise GridError(f"only 1D and 2D boxes supported, got {n_dim} axes")
    if h <= 0.0:
        raise GridError(f"spacing must be positive, got {h}")
    if collar_width < h:
        raise GridError(
            f"collar width {collar_width} must be at least one cell ({h})"
        )
    for lo, hi in box:
        if not hi > lo:
            raise GridError(f"box axis ({lo}, {hi}) has nonpositive length")

    axes = [_axis_nodes(lo, hi, h, collar_width) for lo, hi in box]
    if n_dim == 1:
        nodes = axes[0][:, None]
    else:
        xs, ys = np.meshgrid(axes[0], axes[1], indexing="ij")
        nodes = np.column_stack([xs.ravel(), ys.ravel()])

    eps = 1e-9 * h
    inside = np.ones(nodes.shape[0], dtype=bool)
    for axis, (lo, hi) in enumerate(box):
        inside &= (nodes[:, axis] > lo + eps) & (nodes[:, axis] < hi - eps)

    interior = nodes[inside]
    collar = nodes[~inside]
    if interior.shape[0] == 0:
        raise GridError("degenerate grid: no interior node fits the box")
    return Grid(
        n_dim=n_dim,
        box=box,
        h=float(h),
        collar_width=float(collar_width),
        interior=interior,
        collar=collar,
    )


@dataclass(frozen=True)
class Kernel:
    """Pairwise weights discretizing the kernel |x - y|^-(N + s*p).

    ``w_interior[i, j] = m_i * m_j / |x_i - x_j|**(N + s*p)`` for distinct
    interior nodes (zero diagonal; the quadrature never touches the
    singular self-pair).  ``w_collar[i, j]`` couples interior node i to
    collar node j with the same formula.  ``tail[i]`` is the closed-form
    integral of the kernel over the exterior of the collar box, bounded
    through the inscribed ball of radius ``R_i`` around node i:

        tail_i = sigma_{N-1} * R_i**(-s*p) / (s*p)

    ``boundary_weight[i] = sum_j w_collar[i, j] + m * tail[i]`` is the total
    coupling of node i to the zero exterior; it is the only quantity the
    energy needs from the collar, since collar values vanish.

    At p = 2 the energy is the quadratic form [u]^2 = u^T K u with the
    ``stiffness`` matrix K = 2 (diag(row sums of w_interior) - w_interior
    + diag(boundary_weight)).  K costs M^2 doubles (39 MB at M = 2209), so
    it is built on first use: the operators ask for it on their first p = 2
    evaluation, while ``build_kernel`` and the p != 2 paths never do.  Its
    Cholesky factor ``stiffness_factor`` (another M^2 doubles) is built
    only when the approximation chain asks for it: the p = 2 barrier starts
    from the direct solution of K u = rhs, and when the weight's support S
    covers at most half the nodes, the Newton steps of the chain solve
    with K + D, D diagonal on S, through the factor and the S columns of
    K^-1 (``inverse_stiffness_columns``, M x |S| doubles per support).
    At p != 2 the pairwise pass runs in row blocks through the two scratch
    arrays of ``pair_buffers``, built on the first such evaluation.
    """

    grid: Grid
    params: FracParams
    w_interior: np.ndarray
    w_collar: np.ndarray
    tail: np.ndarray
    tail_enabled: bool
    boundary_weight: np.ndarray = field(init=False)
    _inverse_columns: dict = field(init=False, default_factory=dict,
                                   repr=False, compare=False)

    def __post_init__(self):
        bw = self.w_collar.sum(axis=1) + self.grid.measure * self.tail
        object.__setattr__(self, "boundary_weight", bw)

    @property
    def interior_count(self) -> int:
        return self.grid.interior_count

    @cached_property
    def stiffness(self) -> np.ndarray:
        """Matrix K of the p = 2 energy [u]^2 = u^T K u, built once."""
        k = -2.0 * self.w_interior
        k[np.diag_indices_from(k)] += 2.0 * (self.w_interior.sum(axis=1)
                                             + self.boundary_weight)
        return k

    @cached_property
    def stiffness_factor(self) -> tuple[np.ndarray, bool]:
        """Cholesky factor of ``stiffness`` in ``cho_factor`` form, built once.

        The chain's p = 2 barrier starts from a solve with it, and its
        Newton steps on a support of at most half the nodes solve through
        it (see ``inverse_stiffness_columns``)."""
        return cho_factor(self.stiffness, check_finite=False)

    def inverse_stiffness_columns(self, columns: np.ndarray) -> np.ndarray:
        """The ``columns`` of K^-1 as an (M, len(columns)) array, solved
        with ``stiffness_factor`` once per index set and kept."""
        key = columns.tobytes()
        if key not in self._inverse_columns:
            unit = np.zeros((self.interior_count, columns.size))
            unit[columns, np.arange(columns.size)] = 1.0
            self._inverse_columns[key] = cho_solve(
                self.stiffness_factor, unit, check_finite=False)
        return self._inverse_columns[key]

    @cached_property
    def pair_buffers(self) -> tuple[np.ndarray, np.ndarray]:
        """Two reused (rows, M) scratch arrays of the blocked p != 2 pass,
        with rows * M about ``PAIR_BLOCK_ELEMENTS``."""
        m = self.interior_count
        rows = max(1, min(m, PAIR_BLOCK_ELEMENTS // m))
        return np.empty((rows, m)), np.empty((rows, m))


def _pair_weights(x: np.ndarray, y: np.ndarray, measure: float, exponent: float,
                  same_set: bool) -> np.ndarray:
    """m^2 / |x_i - y_j|^exponent in one (len(x), len(y)) array.

    The squared distance is accumulated one axis at a time and the rest is
    taken in place, so no (len(x), len(y), N) difference array is formed.
    """
    w = np.subtract.outer(x[:, 0], y[:, 0])
    np.square(w, out=w)
    for axis in range(1, x.shape[1]):
        d = np.subtract.outer(x[:, axis], y[:, axis])
        np.square(d, out=d)
        w += d
    np.sqrt(w, out=w)
    if same_set:
        diagonal = w.reshape(-1)[::w.shape[1] + 1]  # a view into w
        diagonal[...] = 1.0
    np.power(w, exponent, out=w)
    np.divide(measure * measure, w, out=w)
    if same_set:
        diagonal[...] = 0.0
    return w


def build_kernel(grid: Grid, params: FracParams, tail_enabled: bool = True) -> Kernel:
    """Assemble the symmetric pair-weight tables for a grid.

    The exponent is N + s*p.  With ``tail_enabled`` the analytic exterior
    correction is added per interior node; otherwise the tail is zero and
    the exterior beyond the collar box is ignored.
    """
    if params.n_dim != grid.n_dim:
        raise FieldMismatchError(
            f"params dimension {params.n_dim} != grid dimension {grid.n_dim}"
        )
    exponent = grid.n_dim + params.sp
    m = grid.measure
    w_int = _pair_weights(grid.interior, grid.interior, m, exponent, same_set=True)
    w_col = _pair_weights(grid.interior, grid.collar, m, exponent, same_set=False)
    if tail_enabled:
        radius = grid.collar_box_distance()
        sigma = _SPHERE_SURFACE[grid.n_dim]
        tail = sigma * radius ** (-params.sp) / params.sp
    else:
        tail = np.zeros(grid.interior_count)
    return Kernel(
        grid=grid,
        params=params,
        w_interior=w_int,
        w_collar=w_col,
        tail=tail,
        tail_enabled=bool(tail_enabled),
    )


def r_alpha(alpha: float, params: FracParams) -> float:
    """Integrability threshold for the weight at singularity strength alpha.

    Returns 1 at alpha = 1.  For alpha < 1 it is the Holder conjugate of
    p_star/(1 - alpha) in the subcritical regime s*p < N, and 1/alpha when
    s*p >= N.
    """
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if alpha == 1.0:
        return 1.0
    if params.sp < params.n_dim:
        q = params.p_star / (1.0 - alpha)
        return q / (q - 1.0)
    return 1.0 / alpha
