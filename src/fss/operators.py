"""Nonlocal energy, duality pairing, and weighted integral functionals.

All integrals use the midpoint rule with the uniform cell measure
``m = h**N``.  A field ``u`` lives on the interior nodes and is zero on
the collar, so the double sum defining the energy splits into

    [u]^p = sum_{i != j} w_ij |u_i - u_j|^p  +  2 * sum_i B_i |u_i|^p

where the first sum runs over ordered interior pairs and ``B_i`` collects
all coupling of node i to the zero exterior (collar pairs plus analytic
tail).  The nodal gradient of (1/p)[u]^p,

    (A u)_i = 2 sum_j w_ij phi_p(u_i - u_j)  +  2 B_i phi_p(u_i),

is the one pairwise pass (``_gradient``); every entry point below is an
inner product with it:

    pairing(u, v) = <A u, v>,    [u]^p = <A u, u>,

the second by p-homogeneity (Euler's identity), so discrete duality holds
to rounding.  At p = 2 the pass is the matvec A u = K u with

    K = 2 (diag(sum_j w_ij) - w + diag(B)),

the kernel's cached ``stiffness`` matrix.  K costs M^2 doubles (39 MB at
M = 2209) and is built on the first p = 2 evaluation; other p never
build it.  Its Cholesky factor is not used here: only the approximation
chain asks for it.  At p != 2 the pass runs over row blocks of about
``grid.PAIR_BLOCK_ELEMENTS`` pairs, writing into two scratch arrays that
the kernel builds on the first such evaluation and then reuses, so an
evaluation allocates O(M) memory instead of several M x M temporaries.
The same row blocks assemble the Hessian of (1/p)[u]^p
(``energy_hessian``) for the chain's Newton solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

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

    A u_i = 2 sum_j w_ij phi_p(u_i - u_j) + 2 B_i phi_p(u_i), which at
    p = 2 is one matvec against the cached stiffness matrix.  Other p sum
    the pair terms in row blocks through the kernel's two reused
    ``pair_buffers``, so no M x M temporary is allocated per call.
    """
    p = kernel.params.p
    if p == 2.0:
        return kernel.stiffness @ values
    w = kernel.w_interior
    term_buf = kernel.pair_buffers[1]
    g = np.empty(values.size)
    for rows, diff in _pair_blocks(values, kernel):
        term = term_buf[:diff.shape[0]]
        np.abs(diff, out=term)
        np.power(term, p - 1.0, out=term)
        np.copysign(term, diff, out=term)
        np.multiply(w[rows], term, out=term)
        np.sum(term, axis=1, out=g[rows])
    g *= 2.0
    g += 2.0 * kernel.boundary_weight * phi_p(values, p)
    return g


def seminorm_p(u: Field, kernel: Kernel) -> float:
    """p-th power of the nonlocal energy seminorm, [u]^p = <A u, u>.

    Nonnegative, and zero only for the zero field (every node couples to
    the zero collar with positive weight).
    """
    uv = _field_on_kernel(u, kernel)
    return float(uv @ _gradient(uv, kernel))


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


def energy_hessian(values: np.ndarray, kernel: Kernel) -> np.ndarray:
    """Hessian of (1/p)[u]^p as a new M x M array (a copy of the stiffness
    K at p = 2):

        H = 2 (p-1) [diag(sum_j c_ij + B_i |u_i|^(p-2)) - (c_ij)],
        c_ij = w_ij |u_i - u_j|^(p-2),

    assembled through the blocked row pass.  For p < 2 an entry is
    infinite where two nodes tie or a node vanishes.
    """
    p = kernel.params.p
    if p == 2.0:
        return kernel.stiffness.copy()
    h = np.empty((values.size, values.size))
    with np.errstate(divide="ignore", invalid="ignore"):
        for rows, diff in _pair_blocks(values, kernel):
            np.multiply(kernel.w_interior[rows], np.abs(diff) ** (p - 2.0),
                        out=h[rows])
        np.fill_diagonal(h, 0.0)
        diagonal = (h.sum(axis=1)
                    + kernel.boundary_weight * np.abs(values) ** (p - 2.0))
    h *= -2.0 * (p - 1.0)
    h[np.diag_indices_from(h)] = 2.0 * (p - 1.0) * diagonal
    return h


def weighted_qmean(v: Field, omega: WeightField, q: float) -> float:
    """Weighted power mean ((1/|w|_1) sum m w |v|^q)^(1/q).

    Nondecreasing in q; tends to the geometric mean exp(<log|v|>_w) as
    q -> 0+.
    """
    if q <= 0.0:
        raise ValueError(f"exponent q must be positive, got {q}")
    _check_same_grid(v.grid, omega.grid)
    m = v.grid.measure
    total = float(m * (omega.values * np.abs(v.values) ** q).sum())
    return (total / omega.norm_1) ** (1.0 / q)


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


def poincare_constant(kernel: Kernel) -> float:
    """Grid constant C_h with ||u||_p^p <= C_h [u]^p for every field.

    Evaluated on the canonical basis fields: the energy of e_i contains
    the exterior-coupling term 2 B_i, and dropping the nonnegative pair
    terms gives [u]^p >= 2 min_i B_i * sum |u_i|^p for arbitrary u.  The
    resulting constant max_i ||e_i||_p^p / (2 B_i) is therefore valid for
    the whole discrete space, not just the basis.
    """
    m = kernel.grid.measure
    return float(m / (2.0 * kernel.boundary_weight.min()))
