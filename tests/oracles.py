"""Independent oracles: bisection for the scalar system, dense linear
algebra for p = 2, plain double sums for the energy, pairing, gradient
and Hessian, finite differences for gradients, and the frozen-datum map
T of the approximation chain.

These never call the solver paths they certify: T solves with L-BFGS,
while the chain solves its levels by Newton.
"""

import math

import numpy as np

from fss import solve_nonsingular


def bisect(fun, lo: float, hi: float, iters: int = 400) -> float:
    flo = fun(lo)
    if flo == 0.0:
        return lo
    assert flo * fun(hi) < 0.0, "bisection bracket does not straddle a root"
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = fun(mid)
        if fm == 0.0:
            return mid
        if fm * flo < 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def scalar_level_solution(k2: float, m: float, w: float, n: int,
                          alpha: float, p: float) -> float:
    """Root of k2 * u^(p-1) * (u + 1/n)^alpha = m * min(w, n), u > 0.

    This is the one-node regularized equation: the energy is
    k2 * |u|^p, so the operator application is k2 * (p/p) ... i.e.
    k2 * u^(p-1) against the truncated, shifted datum.
    """
    wn = min(w, float(n))
    target = m * wn

    def fun(u):
        return k2 * u ** (p - 1.0) * (u + 1.0 / n) ** alpha - target

    hi = 1.0
    while fun(hi) < 0.0:
        hi *= 2.0
    return bisect(fun, 0.0, hi)


def scalar_singular_solution(k2: float, m: float, w: float,
                             alpha: float, p: float) -> float:
    """Root of k2 * u^(p-1+alpha) = m * w via bisection (the closed form
    (m w / k2)^(1/(p-1+alpha)) is used as a bracket sanity check)."""
    target = m * w

    def fun(u):
        return k2 * u ** (p - 1.0 + alpha) - target

    hi = 1.0
    while fun(hi) < 0.0:
        hi *= 2.0
    root = bisect(fun, 0.0, hi)
    closed = (m * w / k2) ** (1.0 / (p - 1.0 + alpha))
    assert abs(root - closed) <= 1e-12 * closed
    return root


def scalar_lambda(k2: float, u: float, alpha: float, p: float) -> float:
    """Best constant from the scalar solution: ([u]^p)^((1-a-p)/(1-a))."""
    sn = k2 * u**p
    return sn ** ((1.0 - alpha - p) / (1.0 - alpha))


def scalar_mu(k2: float, u_star: float, p: float) -> float:
    """Log-inequality constant from the scalar alpha = 1 solution."""
    v = np.exp(-np.log(u_star)) * u_star
    return k2 * v**p


def dense_p2_matrix(kernel) -> np.ndarray:
    """Stiffness matrix of the quadratic (p = 2) energy: the energy is
    u^T A u / 2 with A = 2 (diag(row sums) - W + diag(B))."""
    w = kernel.w_interior
    d = np.diag(w.sum(axis=1))
    b = np.diag(kernel.boundary_weight)
    return 2.0 * (d - w + b)


def _odd_power(t: float, p: float) -> float:
    return math.copysign(abs(t) ** (p - 1.0), t)


def double_sum_seminorm(kernel, u: np.ndarray, p: float) -> float:
    """[u]^p = sum_{i,j} w_ij |u_i - u_j|^p + 2 sum_i B_i |u_i|^p, term by
    term from the pair weights and exterior couplings."""
    w, b = kernel.w_interior, kernel.boundary_weight
    total = 0.0
    for i in range(u.size):
        for j in range(u.size):
            total += w[i, j] * abs(u[i] - u[j]) ** p
        total += 2.0 * b[i] * abs(u[i]) ** p
    return total


def double_sum_pairing(kernel, u: np.ndarray, v: np.ndarray, p: float) -> float:
    """Duality pairing sum_{i,j} w_ij phi(u_i - u_j)(v_i - v_j)
    + 2 sum_i B_i phi(u_i) v_i with phi(t) = |t|^(p-2) t."""
    w, b = kernel.w_interior, kernel.boundary_weight
    total = 0.0
    for i in range(u.size):
        for j in range(u.size):
            total += w[i, j] * _odd_power(u[i] - u[j], p) * (v[i] - v[j])
        total += 2.0 * b[i] * _odd_power(u[i], p) * v[i]
    return total


def double_sum_gradient(kernel, u: np.ndarray, p: float) -> np.ndarray:
    """Nodal gradient of (1/p)[u]^p:
    2 sum_j w_ij phi(u_i - u_j) + 2 B_i phi(u_i)."""
    w, b = kernel.w_interior, kernel.boundary_weight
    grad = np.zeros(u.size)
    for i in range(u.size):
        for j in range(u.size):
            grad[i] += 2.0 * w[i, j] * _odd_power(u[i] - u[j], p)
        grad[i] += 2.0 * b[i] * _odd_power(u[i], p)
    return grad


def central_difference_gradient(energy, u: np.ndarray, step: float) -> np.ndarray:
    grad = np.zeros_like(u)
    for i in range(u.size):
        up = u.copy()
        um = u.copy()
        up[i] += step
        um[i] -= step
        grad[i] = (energy(up) - energy(um)) / (2.0 * step)
    return grad


def full_matrix_pair_weights(x: np.ndarray, y: np.ndarray, measure: float,
                             exponent: float, same_set: bool) -> np.ndarray:
    """m^2 / |x_i - y_j|^exponent from the full (len(x), len(y), N)
    difference array (zero on the diagonal when ``same_set``)."""
    diff = x[:, None, :] - y[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    if same_set:
        np.fill_diagonal(dist, 1.0)
    w = measure * measure / dist**exponent
    if same_set:
        np.fill_diagonal(w, 0.0)
    return w


def full_matrix_gradient(kernel, u: np.ndarray, p: float) -> np.ndarray:
    """Nodal gradient 2 sum_j w_ij phi(u_i - u_j) + 2 B_i phi(u_i) with
    phi(t) = sign(t)|t|^(p-1), from one M x M array of pair terms."""
    diff = u[:, None] - u[None, :]
    phi = np.sign(diff) * np.abs(diff) ** (p - 1.0)
    grad = 2.0 * (kernel.w_interior * phi).sum(axis=1)
    grad += 2.0 * kernel.boundary_weight * (np.sign(u) * np.abs(u) ** (p - 1.0))
    return grad


def full_matrix_hessian(kernel, u: np.ndarray, p: float) -> np.ndarray:
    """Hessian of (1/p)[u]^p entry by entry: off the diagonal
    -2(p-1) w_ij |u_i - u_j|^(p-2), on it
    2(p-1) (sum_j w_ij |u_i - u_j|^(p-2) + B_i |u_i|^(p-2))."""
    w, b = kernel.w_interior, kernel.boundary_weight
    hess = np.zeros((u.size, u.size))
    for i in range(u.size):
        for j in range(u.size):
            if j != i:
                c = w[i, j] * abs(u[i] - u[j]) ** (p - 2.0)
                hess[i, j] = -2.0 * (p - 1.0) * c
                hess[i, i] += 2.0 * (p - 1.0) * c
        hess[i, i] += 2.0 * (p - 1.0) * b[i] * abs(u[i]) ** (p - 2.0)
    return hess


def fixed_point_step(problem, kernel, w, opts=None):
    """One application of the frozen-datum map T: the nonsingular solve,
    started from w, with datum omega_n / (|w| + 1/n)^alpha.  A level
    solution is the fixed point of T."""
    datum = problem.omega_n.values / (
        np.abs(w.values) + problem.shift
    ) ** problem.alpha
    return solve_nonsingular(datum, kernel, opts, x0=w)
