"""Discrete geometry for nonlocal problems on a box domain.

The domain is an interval or axis-aligned rectangle, discretized with a
uniform Cartesian lattice of spacing ``h``.  The complement of the domain
is represented by an explicit *collar* of lattice nodes, of prescribed
width, on which every field is pinned to zero.  Kernel mass beyond the
collar box is accounted for by an analytic tail term.

Nodes are enumerated lexicographically by coordinates, so two builds with
identical inputs produce bitwise-identical grids and kernels.  A 1D
kernel is built pair by pair.  In 2D the exterior row sums are one FFT
convolution over the collar box's lattice.  A 2D interior pair weight
depends only on the pair's two squared coordinate differences, and the
interior lattice has few distinct ones per axis (128 at h = 1/48), so
the kernel power is taken once per class pair of equal values and the
interior weights are gathered from that table with the same bits (about
16 thousand powers instead of 4.9 million pairs at M = 2209).
``build_kernel`` keeps only O(M) doubles: the exterior row sums and the
first row of the interior table.  The M x M interior table is built on
its first read, by the passes that need it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.fft import irfftn, next_fast_len, rfftn
from scipy.linalg import LinAlgError, get_lapack_funcs

from .exceptions import FieldMismatchError, GridError

# Surface measure of the unit sphere boundary, indexed by N-1: sigma[1]=2
# (two endpoints), sigma[2]=2*pi (circle circumference).
_SPHERE_SURFACE = {1: 2.0, 2: 2.0 * math.pi}

# Elements per row block of the 1D collar row sums and of the p != 2
# pairwise pass (256 KB of doubles).
PAIR_BLOCK_ELEMENTS = 2**15

# Interior nodes above which ``Kernel.stiffness_product`` convolves by FFT
# instead of multiplying by the dense ``stiffness``.  Dense against FFT, in
# ms over three runs, one BLAS thread, unit square, for one field and for
# a block of PAIR_BLOCK_ELEMENTS // M fields:
#   M =  529 (h = 1/24): 0.07-0.09 / 0.06-0.09; 61 fields 0.9-1.1 / 2.8-3.8
#   M =  961 (h = 1/32): 0.30-0.32 / 0.08-0.11; 34 fields 1.7-2.3 / 4.1-4.9
#   M = 1225 (h = 1/36): 0.52-0.53 / 0.10-0.16; 26 fields 3.0-3.5 / 2.2-3.0
#   M = 1521 (h = 1/40): 0.79-0.84 / 0.12-0.17; 21 fields 3.9-5.0 / 2.2-2.5
#   M = 2209 (h = 1/48): 1.7-1.8 / 0.13-0.19; 14 fields 9.0-10.5 / 1.8-2.4
# The FFT wins a single field from M = 961 on and a block from M = 1225 on.
FFT_NODES = 1100

_POTRF, _POTRS = get_lapack_funcs(("potrf", "potrs"), (np.empty((1, 1)),))


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

    @cached_property
    def lattice_shape(self) -> tuple[int, ...]:
        """Lines of the interior lattice on each axis: ``build_grid``
        enumerates the interior as a full n0 (x n1) lattice, axis 0
        major."""
        return tuple(np.unique(self.interior[:, axis]).size
                     for axis in range(self.n_dim))

    @property
    def domain_measure(self) -> float:
        """Measure of the discretized domain (interior cells only)."""
        return self.interior_count * self.measure

    def boundary_distance(self, outset: float = 0.0) -> np.ndarray:
        """Distance from each interior node to the boundary of the domain
        box grown by ``outset`` on every side (the collar box at
        ``outset = collar_width``)."""
        lo = np.array([b[0] - outset for b in self.box])
        hi = np.array([b[1] + outset for b in self.box])
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
    ("degenerate grid"), the collar is narrower than one cell, or ``h``,
    ``collar_width`` or a box bound is not finite.
    """
    box = tuple((float(lo), float(hi)) for lo, hi in box)
    n_dim = len(box)
    if n_dim not in (1, 2):
        raise GridError(f"only 1D and 2D boxes supported, got {n_dim} axes")
    for name, value in (("spacing h", h), ("collar width", collar_width)):
        if not math.isfinite(value):
            raise GridError(f"{name} must be finite, got {value}")
    if h <= 0.0:
        raise GridError(f"spacing must be positive, got {h}")
    if collar_width < h:
        raise GridError(
            f"collar width {collar_width} must be at least one cell ({h})"
        )
    for lo, hi in box:
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise GridError(f"box axis ({lo}, {hi}) has a non-finite bound")
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
    singular self-pair).  ``boundary_weight[i]`` is the total coupling of
    node i to the zero exterior: the same pair weights summed over the
    collar nodes, plus ``m`` times the kernel's integral beyond the collar
    box (``_exterior_tail``).  It is the only quantity the energy needs
    from the exterior, since every field vanishes there.
    ``w_interior`` is bitwise what the pair-by-pair formula gives, and so
    is ``boundary_weight`` in 1D.  In 2D the collar sums are an FFT
    convolution, within a relative 1e-13 of the pair-by-pair sums.

    ``build_kernel`` stores ``boundary_weight`` and ``first_row``, the
    weights from node 0 to every interior node (``w_interior[0]``, bit for
    bit): O(M) doubles.  The M x M table ``w_interior`` (39 MB at
    M = 2209) is built on its first read and kept.  Its readers are the
    dense ``stiffness`` (and through it ``support_solve``) and the p != 2
    passes with ``folded_weights``.

    At p = 2 the energy is the quadratic form [u]^2 = u^T K u with the
    ``stiffness`` matrix K = 2 (diag(row sums of w_interior) - w_interior
    + diag(boundary_weight)), and every p = 2 evaluation applies K through
    ``stiffness_product``.  Up to ``FFT_NODES`` interior nodes that is a
    product with the dense K, M^2 doubles built on the first p = 2
    evaluation.  Above, it is an FFT convolution with the interior offset
    table (``offset_spectrum``, O(M) doubles from ``first_row``, built on
    the first p = 2 evaluation), so the operators and a stand-alone solve
    build neither K nor ``w_interior``.  The approximation chain solves
    (K + D) x = b with D and b supported on the weight's support S
    (``support_solve``); it builds K at any M and keeps, per support, the
    Schur complement of K on S and the map from x_S to the other nodes
    (|S|^2 + |S| (M - |S|) doubles).  At p != 2 the pairwise pass runs in
    row blocks through the two scratch arrays of ``pair_buffers``, built
    on the first such evaluation or, at any p, on the first lower bound
    of an energy (``operators.energy_lower_bound``).  The p != 2 energy
    visits each unordered pair once, against the ``folded_weights``
    table: M^2 / 2 doubles (19.5 MB at M = 2209), built by the first
    p != 2 seminorm, never by ``build_kernel`` and never at p = 2.  The
    seeded trial fields that several checks share (the approximation
    chain's per-level residual probes, and the weak residual's trials,
    which ``fss verify`` also certifies as its first ones) are kept here
    too, keyed by (seed, count) (``sampling.shared_trials``): each is
    drawn once per kernel, and the lower bounds and energies that a
    check takes of it are kept with it (``sampling.TrialSet``, whose rule
    decides which a check takes).
    """

    grid: Grid
    params: FracParams
    first_row: np.ndarray
    boundary_weight: np.ndarray
    _schur_complements: dict = field(init=False, default_factory=dict,
                                     repr=False, compare=False)
    _trials: dict = field(init=False, default_factory=dict, repr=False,
                          compare=False)

    @property
    def interior_count(self) -> int:
        return self.grid.interior_count

    @cached_property
    def w_interior(self) -> np.ndarray:
        """The M x M interior pair weights, built from the grid on first
        read, with the same bits as ``first_row`` in row 0."""
        interior = _lattice_interior if self.grid.n_dim == 2 else _line_interior
        return interior(self.grid, self.grid.measure,
                        self.grid.n_dim + self.params.sp)

    @cached_property
    def stiffness(self) -> np.ndarray:
        """Matrix K of the p = 2 energy [u]^2 = u^T K u, built once."""
        k = -2.0 * self.w_interior
        k[np.diag_indices_from(k)] += 2.0 * (self.w_interior.sum(axis=1)
                                             + self.boundary_weight)
        return k

    def stiffness_product(self, v: np.ndarray) -> np.ndarray:
        """K v for one field or for an (M, k) block, one field per column.

        At most ``FFT_NODES`` interior nodes it is ``stiffness @ v``.  Above,
        it is 2 ((row sums of W + B) v - W v) with W = ``w_interior``,
        where W v is a convolution over the interior lattice
        (``offset_spectrum``), and neither K nor W is built."""
        if self.interior_count <= FFT_NODES:
            return self.stiffness @ v
        shape, lengths, spectrum, diagonal = self.offset_spectrum
        if v.ndim == 2:
            diagonal = diagonal[:, None]
        return 2.0 * (diagonal * v
                      - _lattice_convolution(v, shape, lengths, spectrum))

    @cached_property
    def offset_spectrum(self) -> tuple[tuple[int, ...], tuple[int, ...],
                                       np.ndarray, np.ndarray]:
        """The interior lattice shape, the padded FFT lengths, the FFT of
        the offset table, and the row sums of W plus B, built by the first
        p = 2 product above ``FFT_NODES`` nodes or by the one-node bound
        of ``embedding_constant``, at any p, and never by
        ``build_kernel``.

        On the interior lattice (``Grid.lattice_shape``) a pair weight
        depends only on the pair's lattice offset d (up to rounding: the
        float coordinates do not repeat their offsets bit for bit).  The
        table takes the weight of offset
        d from ``first_row``, the first node's row of W reshaped to the
        lattice, at |d| (``_offset_spectrum``), so W v is a convolution.
        The row sums of W are the same convolution applied to ones."""
        shape = self.grid.lattice_shape
        lengths, spectrum = _offset_spectrum(self.first_row.reshape(shape))
        row_sums = _lattice_convolution(np.ones(self.interior_count), shape,
                                        lengths, spectrum)
        return shape, lengths, spectrum, row_sums + self.boundary_weight

    def support_solve(self, support: np.ndarray, diagonal,
                      rhs: np.ndarray) -> np.ndarray:
        """Solve (K + D) x = b, where D = diag(``diagonal``) and b = ``rhs``
        live on the ``support`` nodes S (an increasing index array) and
        vanish on the other nodes R.  ``diagonal`` is a nonnegative scalar
        or one entry per support node.

        Eliminating R leaves (C + D) x_S = b_S with the Schur complement
        C = K_SS - K_SR K_RR^-1 K_RS, and then x_R = E x_S with
        E = -K_RR^-1 K_RS.  C and E are built once per support
        (``_schur_complement``), so a solve factors only the |S| x |S|
        matrix C + D by Cholesky; at S = every node, C is K.  Raises
        ``LinAlgError`` when C + D is not positive definite."""
        rest, schur, extension = self._schur_complement(support)
        m = schur.copy()
        m.ravel()[::m.shape[0] + 1] += diagonal
        # m is symmetric up to rounding, and its transpose is a Fortran-
        # ordered view that LAPACK factors in place: no second |S| x |S|
        # copy per solve.
        x_s = _cholesky_solve(m.T, rhs)
        x = np.empty(self.interior_count)
        x[support] = x_s
        x[rest] = extension @ x_s
        return x

    def _schur_complement(self, support: np.ndarray):
        """The nodes R off ``support``, the Schur complement C of K on the
        support and the extension E = -K_RR^-1 K_RS, built from
        ``stiffness`` by one Cholesky factorization of K_RR and kept per
        support.  K is exactly symmetric, so the transposes of the gathered
        K_RR and K_SR are K_RR and K_RS in the Fortran order that LAPACK
        takes without a copy."""
        key = support.tobytes()
        if key not in self._schur_complements:
            rest = np.setdiff1d(np.arange(self.interior_count), support,
                                assume_unique=True)
            k = self.stiffness
            k_sr = k[np.ix_(support, rest)]
            extension = -_cholesky_solve(k[np.ix_(rest, rest)].T, k_sr.T)
            schur = k[np.ix_(support, support)] + k_sr @ extension
            self._schur_complements[key] = rest, schur, extension
        return self._schur_complements[key]

    @cached_property
    def pair_buffers(self) -> tuple[np.ndarray, np.ndarray]:
        """Two reused (rows, M) scratch arrays of the blocked p != 2 pass
        and of the energy's lower bound (``operators.energy_lower_bound``,
        at any p), with rows * M about ``PAIR_BLOCK_ELEMENTS``."""
        m = self.interior_count
        rows = max(1, min(m, PAIR_BLOCK_ELEMENTS // m))
        return np.empty((rows, m)), np.empty((rows, m))

    @cached_property
    def folded_weights(self) -> np.ndarray:
        """w_interior[i, (i + j) mod M] at row j - 1, column i, for the
        offsets j = 1 ... M // 2: every unordered pair of distinct interior
        nodes once, as (M // 2, M) doubles built once.  At even M, offset
        M / 2 meets each pair from both ends, so that row keeps i < M / 2
        and holds zeros beyond."""
        w, m = self.w_interior, self.interior_count
        table = np.empty((m // 2, m))
        for j in range(1, m // 2 + 1):
            table[j - 1, :m - j] = np.diagonal(w, j)
            table[j - 1, m - j:] = np.diagonal(w, j - m)
        if m % 2 == 0:
            table[-1, m // 2:] = 0.0
        return table


def _cholesky_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with a x = b, for symmetric positive definite ``a``, by LAPACK's
    potrf and potrs on the upper triangle: the calls of scipy's
    ``cho_factor`` / ``cho_solve`` without their checks and wrappers.
    ``a`` is factored in place when it is Fortran-ordered.  Raises
    ``LinAlgError`` when ``a`` is not positive definite; a 0 x 0 ``a``
    gives an empty x."""
    if a.shape[0] == 0:
        return np.empty(b.shape)
    factor, info = _POTRF(a, lower=False, overwrite_a=True, clean=False)
    if info > 0:
        raise LinAlgError(f"{info}-th leading minor of the array is not "
                          "positive definite")
    return _POTRS(factor, b, lower=False)[0]


def _lattice_convolution(v: np.ndarray, shape: tuple[int, ...],
                         lengths: tuple[int, ...],
                         spectrum: np.ndarray) -> np.ndarray:
    """The convolution of one field, or of each column of an (M, k) block,
    with the offset table whose FFT of ``lengths`` is ``spectrum``, on the
    interior lattice of ``shape``: zero-padded to ``lengths``, transformed,
    multiplied and cut back to the lattice."""
    axes = tuple(range(-len(shape), 0))
    fields = v.T.reshape(v.shape[1:] + shape)
    out = irfftn(rfftn(fields, lengths, axes=axes) * spectrum, lengths,
                 axes=axes)
    return out[(...,) + tuple(slice(n) for n in shape)].reshape(
        v.shape[::-1]).T


def _pair_weights(x: np.ndarray, y: np.ndarray, measure: float, exponent: float,
                  same_set: bool) -> np.ndarray:
    """m^2 / |x_i - y_j|^exponent in one (len(x), len(y)) array, for 1D
    coordinates, taken in place.  ``same_set`` says that x is the first
    nodes of y, and zeroes the self-pairs (i, i)."""
    w = np.subtract.outer(x, y)
    np.square(w, out=w)
    np.sqrt(w, out=w)
    if same_set:
        diagonal = w.reshape(-1)[::w.shape[1] + 1]  # a view into w
        diagonal[...] = 1.0
    np.power(w, exponent, out=w)
    np.divide(measure * measure, w, out=w)
    if same_set:
        diagonal[...] = 0.0
    return w


def _line_rows(grid: Grid, measure: float,
               exponent: float) -> tuple[np.ndarray, np.ndarray]:
    """The first row of ``w_interior`` and the collar row sums of a 1D
    grid, pair by pair.

    The collar pair weights are formed in row blocks of about
    ``PAIR_BLOCK_ELEMENTS`` and summed at once, so no M x C array is held.
    """
    x, y = grid.interior[:, 0], grid.collar[:, 0]
    rows = max(1, PAIR_BLOCK_ELEMENTS // y.size)
    collar_sums = np.empty(x.size)
    for first in range(0, x.size, rows):
        collar_sums[first:first + rows] = _pair_weights(
            x[first:first + rows], y, measure, exponent,
            same_set=False).sum(axis=1)
    first_row = _pair_weights(x[:1], x, measure, exponent, same_set=True)[0]
    return first_row, collar_sums


def _line_interior(grid: Grid, measure: float, exponent: float) -> np.ndarray:
    """``w_interior`` of a 1D grid, pair by pair."""
    x = grid.interior[:, 0]
    return _pair_weights(x, x, measure, exponent, same_set=True)


def _axis_classes(grid: Grid, axis: int):
    """The squared differences between the interior lattice lines of
    ``axis``, grouped into classes of equal value.

    Returns the sorted distinct values, the (lines, lines) array of class
    indices, and the lattice line of each interior node.  The values are
    the floats the pair pass squares, bit for bit: lattice offsets alone
    would not do, since one offset gives several float differences across
    the lattice.
    """
    lines, line_of = np.unique(grid.interior[:, axis], return_inverse=True)
    squares = np.subtract.outer(lines, lines)
    np.square(squares, out=squares)
    values, classes = np.unique(squares, return_inverse=True)
    return values, classes.reshape(squares.shape), line_of.reshape(-1)


def _weight_table(squares0: np.ndarray, squares1: np.ndarray, measure: float,
                  exponent: float) -> np.ndarray:
    """m^2 / sqrt(squares0[a] + squares1[b])^exponent at (a, b), by the
    ufuncs of the pair pass in its order, and 0 at (0, 0), where both
    squares are those of a node paired with itself."""
    table = np.add.outer(squares0, squares1)
    np.sqrt(table, out=table)
    table[0, 0] = 1.0
    np.power(table, exponent, out=table)
    np.divide(measure * measure, table, out=table)
    table[0, 0] = 0.0
    return table


def _class_table(grid: Grid, measure: float, exponent: float):
    """The pair weight of each class pair of a 2D grid's per-axis squared
    differences, with the classes of both axes.

    A pair weight depends only on the classes c0, c1 of its two squared
    coordinate differences, so the weight is taken once per class pair
    (``_weight_table``), and every weight is bitwise the pair pass's.
    Returns the (len(v0), len(v1)) table and, per axis, the class and line
    arrays of ``_axis_classes``.  ``build_grid`` enumerates the interior as
    a full n0 x n1 lattice, axis 0 major, so the n1 rows of interior line a
    are one gather from the table rows of that line's classes: the node on
    lattice lines (k0, k1) sits at k0 * len(v1) + c1[b, k1] for row b.
    """
    (values0, classes0, line0), (values1, classes1, line1) = (
        _axis_classes(grid, axis) for axis in (0, 1))
    table = _weight_table(values0, values1, measure, exponent)
    return table, classes0, line0, classes1, line1


def _offset_spectrum(quadrant: np.ndarray) -> tuple[tuple[int, ...],
                                                    np.ndarray]:
    """The padded FFT lengths and the FFT of the offset table of a lattice
    of ``quadrant.shape``, where ``quadrant`` holds the weight of each
    offset d >= 0 at index d and the weight of any offset is that at |d|.

    The table stores the weight of offset d at d mod L on each axis, where
    L = next_fast_len(2 n - 1) for the n lattice lines of that axis.  A
    circular convolution of length L then gives the lattice convolution
    without wrapping round (Huang & Oberman, SIAM J. Numer. Anal. 52,
    2014)."""
    shape = quadrant.shape
    lengths = tuple(next_fast_len(2 * n - 1, real=True) for n in shape)
    table = np.zeros(lengths)
    table[np.ix_(*(np.r_[0:n, size - n + 1:size]
                   for n, size in zip(shape, lengths)))] = (
        quadrant[np.ix_(*(np.r_[0:n, n - 1:0:-1] for n in shape))])
    return lengths, rfftn(table)


def _lattice_rows(grid: Grid, measure: float,
                  exponent: float) -> tuple[np.ndarray, np.ndarray]:
    """The first row of ``w_interior`` and the collar row sums of a 2D
    grid.

    The first row is gathered from the class table (``_class_table``), bit
    for bit.  ``build_grid`` enumerates the interior and collar nodes
    together as one full n0 x n1 lattice, the collar box's, so the collar
    row sums are the collar indicator (1 on collar nodes, 0 on interior
    ones) convolved with that lattice's offset table m^2 / |d h|^exponent
    (``_offset_spectrum``) and read at the interior nodes.  The FFT sums
    in another order than the pair pass, so they differ from its sums by
    rounding.
    """
    table, classes0, line0, classes1, line1 = _class_table(
        grid, measure, exponent)
    first_row = table[classes0[0, line0], classes1[0, line1]]
    nodes = np.concatenate([grid.interior, grid.collar])
    lines = [np.unique(nodes[:, axis], return_inverse=True)
             for axis in (0, 1)]
    shape = tuple(values.size for values, _ in lines)
    interior = tuple(line_of[:grid.interior_count] for _, line_of in lines)
    offsets = (np.square(grid.h * np.arange(n)) for n in shape)
    lengths, spectrum = _offset_spectrum(
        _weight_table(*offsets, measure, exponent))
    collar = np.ones(shape)
    collar[interior] = 0.0
    collar_sums = _lattice_convolution(collar.reshape(-1), shape, lengths,
                                       spectrum).reshape(shape)[interior]
    return first_row, collar_sums


def _lattice_interior(grid: Grid, measure: float,
                      exponent: float) -> np.ndarray:
    """``w_interior`` of a 2D grid, gathered line by line from the class
    table (``_class_table``)."""
    table, classes0, line0, classes1, line1 = _class_table(
        grid, measure, exponent)
    count, n1 = grid.interior_count, classes1.shape[0]
    inner = line0 * table.shape[1] + classes1[:, line1]
    w_int = np.empty((count, count))
    for a, classes in enumerate(classes0):
        # mode="clip" lets take write into out unbuffered (no index is
        # out of range).
        table.take(classes, axis=0).reshape(-1).take(
            inner, out=w_int[a * n1:(a + 1) * n1], mode="clip")
    return w_int


def _exterior_tail(grid: Grid, params: FracParams) -> np.ndarray:
    """Integral of the kernel over the exterior of the collar box, per
    interior node, bounded through the inscribed ball of radius R_i:

        tail_i = sigma_{N-1} * R_i**(-s*p) / (s*p)
    """
    radius = grid.boundary_distance(grid.collar_width)
    sigma = _SPHERE_SURFACE[grid.n_dim]
    return sigma * radius ** (-params.sp) / params.sp


def build_kernel(grid: Grid, params: FracParams) -> Kernel:
    """Assemble the exterior row sums and the first row of the interior
    pair weights.

    The exponent is N + s*p.  A 1D grid takes its weights pair by pair
    (``_line_rows``).  A 2D grid gathers its first row from one power per
    class pair of per-axis squared differences, with the same bits, and
    convolves the collar indicator by FFT for the collar sums
    (``_lattice_rows``).  Neither holds an M x C or an M x M array:
    ``Kernel.w_interior`` is built on its first read (``_line_interior``,
    ``_lattice_interior``), by the dense p = 2 stiffness and the chain's
    ``support_solve`` and by the p != 2 passes.
    """
    if params.n_dim != grid.n_dim:
        raise FieldMismatchError(
            f"params dimension {params.n_dim} != grid dimension {grid.n_dim}"
        )
    m = grid.measure
    rows = _lattice_rows if grid.n_dim == 2 else _line_rows
    first_row, collar_sums = rows(grid, m, grid.n_dim + params.sp)
    return Kernel(
        grid=grid,
        params=params,
        first_row=first_row,
        boundary_weight=collar_sums + m * _exterior_tail(grid, params),
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
