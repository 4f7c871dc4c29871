"""Nonlocal energy, duality pairing, and weighted integral functionals.

All integrals use the midpoint rule with the uniform cell measure
``m = h**N``.  A field ``u`` lives on the interior nodes and is zero on
the collar, so the double sum defining the energy splits into

    [u]^p = sum_{i != j} w_ij |u_i - u_j|^p  +  2 * sum_i B_i |u_i|^p

where the first sum runs over ordered interior pairs and ``B_i`` collects
all coupling of node i to the zero exterior (collar pairs plus analytic
tail).  The nodal gradient of (1/p)[u]^p,

    (A u)_i = 2 sum_j w_ij phi_p(u_i - u_j)  +  2 B_i phi_p(u_i),

is the one pairwise pass (``_gradient``); the pairing is an inner
product with it, pairing(u, v) = <A u, v>.  At p = 2 the pass is the
product A u = K u with

    K = 2 (diag(sum_j w_ij) - w + diag(B)),

taken by the kernel's ``stiffness_product``, and the energy is
[u]^2 = <K u, u>.  Up to ``grid.FFT_NODES`` interior nodes that is a
matvec against the cached dense K (M^2 doubles, built on the first p = 2
evaluation); above, it is an FFT convolution over the interior lattice,
and K is not built (it would be 39 MB at M = 2209).  Other p never build
K.  At p != 2 the pass runs over row blocks of about
``grid.PAIR_BLOCK_ELEMENTS`` pairs, writing into two scratch arrays that
the kernel builds on the first such evaluation and then reuses, so an
evaluation allocates O(M) memory instead of several M x M temporaries.
The same row blocks assemble the Hessian of (1/p)[u]^p
(``energy_hessian``) for the Newton solves.

The energy needs no gradient.  At p != 2 it is the symmetric double sum

    [u]^p = 2 sum_{i<j} w_ij |u_i - u_j|^p  +  2 sum_i B_i |u_i|^p,

taken over each unordered pair once (``_folded_seminorms``) against the
kernel's ``folded_weights``: half the pairs of the gradient pass, and
one dot product per block instead of a row reduction.  Euler's identity
for the p-homogeneous energy gives [u]^p = <A u, u>, so duality between
the energy and the pairing still holds, to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .exceptions import FieldMismatchError
from .grid import Grid, Kernel

NEG_INF = float("-inf")


def phi_p(t: np.ndarray, p: float) -> np.ndarray:
    """Odd power |t|^(p-2) t, extended by 0 at t = 0.

    For p < 2 the raw expression is singular at 0; the continuous
    extension sign(t)|t|^(p-1) is used instead (p > 1 keeps the exponent
    positive, so no division occurs).
    """
    return np.sign(t) * np.abs(t) ** (p - 1.0)


@dataclass(frozen=True)
class Field:
    """One value per interior node; implicitly zero on the collar."""

    values: np.ndarray
    grid: Grid

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.shape != (self.grid.interior_count,):
            raise FieldMismatchError(
                f"field has {values.shape} values for "
                f"{self.grid.interior_count} interior nodes"
            )
        if not np.isfinite(values).all():
            raise ValueError("field values must be finite")

    @classmethod
    def zero(cls, grid: Grid) -> "Field":
        return cls(np.zeros(grid.interior_count), grid)

    @classmethod
    def constant(cls, grid: Grid, c: float) -> "Field":
        return cls(np.full(grid.interior_count, float(c)), grid)

    def max_norm(self) -> float:
        return float(np.abs(self.values).max())

    def __add__(self, other: "Field") -> "Field":
        _check_same_grid(self.grid, other.grid)
        return Field(self.values + other.values, self.grid)

    def __sub__(self, other: "Field") -> "Field":
        _check_same_grid(self.grid, other.grid)
        return Field(self.values - other.values, self.grid)

    def __mul__(self, scalar: float) -> "Field":
        return Field(self.values * float(scalar), self.grid)

    __rmul__ = __mul__


@dataclass(frozen=True)
class WeightField:
    """Nonnegative weight on interior nodes with cached L^1 and L^r norms."""

    values: np.ndarray
    grid: Grid
    r: float = 1.0
    norm_1: float = dc_field(init=False, default=0.0)
    norm_r_value: float = dc_field(init=False, default=0.0)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.shape != (self.grid.interior_count,):
            raise FieldMismatchError(
                f"weight has {values.shape} values for "
                f"{self.grid.interior_count} interior nodes"
            )
        if not np.isfinite(values).all():
            raise ValueError("weight values must be finite")
        if (values < 0.0).any():
            raise ValueError("weight values must be nonnegative")
        if self.r < 1.0:
            raise ValueError(f"integrability exponent r must be >= 1, got {self.r}")
        m = self.grid.measure
        n1 = float(m * values.sum())
        if n1 <= 0.0:
            raise ValueError("weight must not vanish identically")
        object.__setattr__(self, "norm_1", n1)
        object.__setattr__(self, "norm_r_value", _lr_norm(values, m, self.r))


def _lr_norm(values: np.ndarray, measure: float, r: float) -> float:
    if math.isinf(r):
        return float(np.abs(values).max())
    return float((measure * (np.abs(values) ** r).sum()) ** (1.0 / r))


def _check_same_grid(a: Grid, b: Grid):
    if a is not b and (
        a.n_dim != b.n_dim
        or a.box != b.box
        or a.h != b.h
        or a.interior_count != b.interior_count
    ):
        raise FieldMismatchError("fields live on different grids")


def _field_on_kernel(u: Field, kernel: Kernel):
    _check_same_grid(u.grid, kernel.grid)
    return u.values


def _pair_blocks(values: np.ndarray, kernel: Kernel):
    """The blocked row pass at p != 2: yields (rows, diff) for row blocks of
    about ``grid.PAIR_BLOCK_ELEMENTS`` pairs, with diff[k, j] = u_i - u_j
    for i = rows.start + k, written into the kernel's first pair buffer."""
    diff_buf = kernel.pair_buffers[0]
    for start in range(0, values.size, diff_buf.shape[0]):
        stop = min(start + diff_buf.shape[0], values.size)
        diff = diff_buf[:stop - start]
        np.subtract(values[start:stop, None], values[None, :], out=diff)
        yield slice(start, stop), diff


def _gradient(values: np.ndarray, kernel: Kernel) -> np.ndarray:
    """Nodal gradient A u of (1/p)[u]^p: the one pairwise pass.

    ``values`` is one field or an (M, k) block with one field per column.
    A u_i = 2 sum_j w_ij phi_p(u_i - u_j) + 2 B_i phi_p(u_i), which at
    p = 2 is K u by ``Kernel.stiffness_product``: one matvec (one GEMM for
    a block) against the cached stiffness matrix up to ``grid.FFT_NODES``
    nodes, one FFT convolution per field above.  Other p sum the pair
    terms of each field in row blocks through the kernel's two reused
    ``pair_buffers``, so no M x M temporary is allocated per call, and
    store each field's gradient in a contiguous column.
    """
    p = kernel.params.p
    if p == 2.0:
        return kernel.stiffness_product(values)
    w = kernel.w_interior
    term_buf = kernel.pair_buffers[1]
    g = np.empty(values.shape, order="F")
    n = values.shape[0]
    for u, out in zip(values.reshape(n, -1).T, g.reshape(n, -1).T):
        for rows, diff in _pair_blocks(u, kernel):
            term = term_buf[:diff.shape[0]]
            np.abs(diff, out=term)
            np.power(term, p - 1.0, out=term)
            np.copysign(term, diff, out=term)
            np.multiply(w[rows], term, out=term)
            np.sum(term, axis=1, out=out[rows])
        out *= 2.0
        out += 2.0 * kernel.boundary_weight * phi_p(u, p)
    return g


def _folded_seminorms(block: np.ndarray, kernel: Kernel) -> np.ndarray:
    """[v]^p at p != 2 for each row v of the (k, M) ``block``, each
    unordered pair taken once.

    Offset j = 1 ... M // 2 pairs node i with node (i + j) mod M, which
    covers every unordered pair once (``Kernel.folded_weights`` zeroes the
    repeats of offset M / 2 at even M).  The shifted copies of v are rows
    of a sliding window over v followed by its first M // 2 values, so
    nothing is gathered.  Offsets run in blocks of the kernel's two reused
    ``pair_buffers``; each block forms |d|^p as |d|^(p-1) |d|, since numpy
    squares fast but takes other powers at several times the cost, and
    adds one dot product with the matching rows of the folded weights.
    Each row is evaluated on its own, so a row's value does not depend on
    the block it came in.
    """
    p = kernel.params.p
    m = block.shape[1]
    half = m // 2
    shifted = sliding_window_view(
        np.concatenate([block, block[:, :half]], axis=1), m, axis=1)
    weights = kernel.folded_weights
    diff_buf, term_buf = kernel.pair_buffers
    energies = np.empty(block.shape[0])
    for row, v in enumerate(block):
        total = 0.0
        for first in range(1, half + 1, diff_buf.shape[0]):
            stop = min(first + diff_buf.shape[0], half + 1)
            diff, term = diff_buf[:stop - first], term_buf[:stop - first]
            np.subtract(shifted[row, first:stop], v, out=diff)
            np.abs(diff, out=diff)
            np.power(diff, p - 1.0, out=term)
            term *= diff
            total += float(weights[first - 1:stop - 1].ravel() @ term.ravel())
        av = np.abs(v)
        energies[row] = 2.0 * (total + float(kernel.boundary_weight
                                             @ (av ** (p - 1.0) * av)))
    return energies


def seminorm_p(u: Field, kernel: Kernel) -> float:
    """p-th power of the nonlocal energy seminorm: <K u, u> at p = 2, the
    folded double sum (``_folded_seminorms``) at other p.

    Nonnegative, and zero only for the zero field (every node couples to
    the zero collar with positive weight).
    """
    uv = _field_on_kernel(u, kernel)
    if kernel.params.p == 2.0:
        return float(uv @ _gradient(uv, kernel))
    return float(_folded_seminorms(uv[None, :], kernel)[0])


def pairing(u: Field, v: Field, kernel: Kernel) -> float:
    """Duality pairing of the nonlocal p-operator at u against v, <A u, v>."""
    uv = _field_on_kernel(u, kernel)
    vv = _field_on_kernel(v, kernel)
    return float(_gradient(uv, kernel) @ vv)


def apply_operator(u: Field, kernel: Kernel) -> np.ndarray:
    """Nodal gradient A u of the energy (1/p)[u]^p.

    The returned dual vector g satisfies sum_i g_i v_i = pairing(u, v)
    for every field v.
    """
    return _gradient(_field_on_kernel(u, kernel), kernel)


def block_gradient(block: np.ndarray, kernel: Kernel) -> np.ndarray:
    """A v for each row v of the (k, M) ``block``, as the rows of a new
    (k, M) array; row by row equal to ``apply_operator`` (bitwise at
    p != 2, to rounding at p = 2, where the block is one product)."""
    return _gradient(block.T, kernel).T


def block_seminorm_p(block: np.ndarray, kernel: Kernel) -> np.ndarray:
    """[v]^p for each row v of the (k, M) ``block``; row by row equal to
    ``seminorm_p`` (bitwise at p != 2, to rounding at p = 2, where it is
    <A v, v> from one product)."""
    if kernel.params.p == 2.0:
        return np.vecdot(block, block_gradient(block, kernel))
    return _folded_seminorms(block, kernel)


def energy_lower_bound(block: np.ndarray, kernel: Kernel) -> np.ndarray:
    """A lower bound on [v]^p for each row v of the (k, M) ``block``:

        L(v) = (1 - 1e-6) 2 (sum_{i~j} w_h |v_i - v_j|^p + sum_i B_i |v_i|^p),

    where i~j runs over the unordered pairs of interior nodes adjacent on
    the lattice (``Grid.lattice_shape``) and w_h = m^2 / h^(N+sp) is the
    weight of a pair one cell apart, ``first_row[1]``.  O(M) per row: no
    M x M table is read or built, at any p or M.  The rows run in blocks
    through the kernel's two reused ``pair_buffers``, since a fresh
    temporary of that size costs several times the arithmetic, and the
    pairs along each lattice axis are one flat difference of the rows at
    the axis's offset in the node order.

    Every term of [v]^p is nonnegative and these are some of them, each
    adjacent pair's weight being w_h up to the rounding of the node
    coordinates.  The computed [v]^p is a sum of at most M^2 terms (at
    p = 2 the form <K v, v>), and its relative rounding error, of order
    M^2 times the unit roundoff (Higham, Accuracy and Stability of
    Numerical Algorithms, 2002, ch. 3), lies far below the 1e-6 allowance,
    so the computed [v]^p is at least L(v) too.
    """
    m = block.shape[1]
    # (offset, weights): node i pairs with node i + offset at weight w_h,
    # or at 0 where the pair straddles the end of a lattice line.
    pairs = []
    if m > 1:
        line = kernel.grid.lattice_shape[-1]
        along = np.full(m - 1, kernel.first_row[1])
        along[line - 1::line] = 0.0
        pairs.append((1, along))
        if line < m:
            pairs.append((line, np.full(m - line, kernel.first_row[1])))
    return _lower_bound(block, kernel, pairs)


def exterior_lower_bound(block: np.ndarray, kernel: Kernel) -> np.ndarray:
    """The exterior part of ``energy_lower_bound`` alone,
    (1 - 1e-6) 2 sum_i B_i |v_i|^p for each row v of the (k, M) ``block``:
    a weaker lower bound on [v]^p, since the neighbour terms it drops are
    nonnegative, that reads no pair and so costs a fraction of the full
    one."""
    return _lower_bound(block, kernel, [])


def _lower_bound(block: np.ndarray, kernel: Kernel,
                 pairs: list[tuple[int, np.ndarray]]) -> np.ndarray:
    """(1 - 1e-6) 2 (sum_i B_i |v_i|^p + the pair terms) for each row v
    of ``block``, with the pairs given as (offset, weights): node i pairs
    with node i + offset at weights[i].  The rows run in blocks through
    the kernel's two reused ``pair_buffers``."""
    p, m = kernel.params.p, block.shape[1]
    buffers = [buf.reshape(-1) for buf in kernel.pair_buffers]
    step = kernel.pair_buffers[0].shape[0]
    bounds = np.empty(len(block))
    for first in range(0, len(block), step):
        rows = block[first:first + step]
        total = _abs_powers(rows, p, buffers) @ kernel.boundary_weight
        for offset, weights in pairs:
            d = buffers[0][:len(rows) * (m - offset)].reshape(len(rows), -1)
            np.subtract(rows[:, offset:], rows[:, :-offset], out=d)
            total += _abs_powers(d, p, buffers) @ weights
        bounds[first:first + step] = total
    return (1.0 - 1e-6) * 2.0 * bounds


def _abs_powers(values: np.ndarray, p: float,
                buffers: list[np.ndarray]) -> np.ndarray:
    """|values|^p in a view of the second of the two flat ``buffers``: a
    square at p = 2, else |values|^(p-1) |values| with the magnitudes in
    the first buffer (where ``values`` may already lie)."""
    powers = buffers[1][:values.size].reshape(values.shape)
    if p == 2.0:
        return np.square(values, out=powers)
    magnitudes = np.abs(values,
                        out=buffers[0][:values.size].reshape(values.shape))
    np.power(magnitudes, p - 1.0, out=powers)
    powers *= magnitudes
    return powers


def energy_and_gradient(values: np.ndarray, kernel: Kernel,
                        rhs: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    """Value and gradient of (1/p)[u]^p - rhs . u from one pairwise pass.

    ``rhs`` is a dual vector (already carrying cell measures); ``None``
    means the plain energy.  Internal entry point for the solvers, operating
    on bare arrays.
    """
    grad = _gradient(values, kernel)
    energy = float(values @ grad) / kernel.params.p
    if rhs is not None:
        energy -= float(rhs @ values)
        grad = grad - rhs
    return energy, grad


def energy_hessian(values: np.ndarray, kernel: Kernel,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Hessian of (1/p)[u]^p (the stiffness K at p = 2, without building
    it), written into ``out``, a C-ordered M x M work array whose
    contents are overwritten, or into a new array:

        H = 2 (p-1) [diag(sum_j c_ij + B_i |u_i|^(p-2)) - (c_ij)],
        c_ij = w_ij |u_i - u_j|^(p-2),

    assembled through the blocked row pass, each row block in place in
    its rows of the output.  For p < 2 the powers are infinite where two
    nodes tie or a node vanishes, so |u_i - u_j| and |u_i| are clipped
    from below at eps = 1e-13 max|u| there (the fixed-eps case of the
    relaxed Kacanov weights of Diening, Fornasier, Tomasi & Wank, Numer.
    Math. 145, 2020); entries with |u_i - u_j| > eps are unchanged, and
    only the zero field keeps infinite entries.  For p >= 2 nothing is
    clipped.  H is exactly symmetric, since w_ij and |u_i - u_j| are, so
    its transpose is the same matrix in Fortran order.
    """
    p = kernel.params.p
    eps = 1e-13 * float(np.abs(values).max()) if p < 2.0 else 0.0
    h = np.empty((values.size, values.size)) if out is None else out
    with np.errstate(divide="ignore", invalid="ignore"):
        for rows, diff in _pair_blocks(values, kernel):
            block = h[rows]
            np.abs(diff, out=block)
            np.maximum(block, eps, out=block)
            np.power(block, p - 2.0, out=block)
            block *= kernel.w_interior[rows]
        np.fill_diagonal(h, 0.0)
        diagonal = (h.sum(axis=1) + kernel.boundary_weight
                    * np.maximum(np.abs(values), eps) ** (p - 2.0))
    h *= -2.0 * (p - 1.0)
    h[np.diag_indices_from(h)] = 2.0 * (p - 1.0) * diagonal
    return h


def log_functional(v: Field, omega: WeightField) -> float:
    """Weighted log integral sum_i m w_i log|v_i|.

    Returns -inf (a sentinel, not an error) when v vanishes at a node
    carrying positive weight.
    """
    _check_same_grid(v.grid, omega.grid)
    av = np.abs(v.values)
    active = omega.values > 0.0
    if np.any(av[active] == 0.0):
        return NEG_INF
    m = v.grid.measure
    return float(m * (omega.values[active] * np.log(av[active])).sum())


def norm_r(x: Field | WeightField, r: float) -> float:
    """Discrete L^r norm with cell measures; r = inf gives the max norm."""
    if r < 1.0:
        raise ValueError(f"norm exponent must be >= 1, got {r}")
    return _lr_norm(x.values, x.grid.measure, r)
