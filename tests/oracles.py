"""Independent oracles: bisection for the scalar system, dense linear
algebra for p = 2, plain double sums for the energy, pairing, gradient
and Hessian, finite differences for gradients, the frozen-datum map T of
the approximation chain, the one-field-at-a-time trial draw and
certification loop, the one-trial-at-a-time vector inequality check, and
the weighted power means and the distance to a field's best multiple of
an extremal, which the tests measure the package's output with.

These never call the solver paths they certify: T solves by conjugate
gradients at p = 2, the only p its comparisons use, while the chain
solves its levels by Newton steps through a Schur complement on the
weight's support; the certification loop evaluates each trial field on
its own, while the package evaluates them in blocks; the vector check
draws and evaluates one pair at a time, while the package takes all
pairs of one dimension at once.
"""

import math

import numpy as np

from fss import Field, solve_nonsingular


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


def fixed_point_step(omega, n, alpha, kernel, w, opts=None):
    """One application of the frozen-datum map T of level n: the
    nonsingular solve, started from w, with datum
    min(omega, n) / (|w| + 1/n)^alpha.  A level solution is the fixed
    point of T."""
    datum = np.minimum(omega.values, n) / (np.abs(w.values) + 1.0 / n) ** alpha
    return solve_nonsingular(datum, kernel, opts, x0=w)


def trial_field(grid, seed: int, index: int) -> Field:
    """Trial ``index`` for ``seed`` drawn on its own, the reference for the
    package's block draw: the generator of its ten, seeded by
    (seed, index // 10), gives ten rough rows one after the other, then
    the bump's center, width and amplitude; the trial is rough row
    ``index % 10``, or the bump in place of row 9 unless the bump is zero
    at every node."""
    rng = np.random.default_rng([int(seed), int(index) // 10])
    rough = [rng.uniform(-1.0, 1.0, grid.interior_count) for _ in range(10)]
    values = rough[index % 10]
    if index % 10 == 9:
        lo = np.array([b[0] for b in grid.box])
        hi = np.array([b[1] for b in grid.box])
        center = lo + rng.uniform(0.2, 0.8, size=grid.n_dim) * (hi - lo)
        width = rng.uniform(0.1, 0.5) * float((hi - lo).max())
        amplitude = rng.uniform(-2.0, 2.0)
        d2 = ((grid.interior - center) ** 2).sum(axis=1)
        bump = amplitude * np.exp(-d2 / (2.0 * width**2))
        if not np.all(bump == 0.0):
            values = bump
    return Field(values, grid)


def certify_per_field(slack, grid, extremal, trials: int, seed: int,
                      extremal_scales, extra_fields) -> dict:
    """The certification loop one field at a time: ``slack(v)`` returns
    the slack and [v]^p of one field, over the seeded trials, then
    ``extra_fields``, then the nonzero multiples of the extremal.  Returns
    the fields of a ``CertificationReport`` but the constant."""

    def candidates():
        for index in range(trials):
            yield trial_field(grid, seed, index), False
        for v in extra_fields:
            yield v, False
        for k in extremal_scales:
            v = k * extremal
            if np.any(v.values != 0.0):
                yield v, True

    min_slack = math.inf
    min_rel = math.inf
    violations = 0
    extremal_max_rel = 0.0
    for v, is_extremal in candidates():
        s, sn = slack(v)
        rel = s / sn if sn > 0.0 else 0.0
        min_slack = min(min_slack, s)
        min_rel = min(min_rel, rel)
        if rel < -1e-8:
            violations += 1
        if is_extremal:
            extremal_max_rel = max(extremal_max_rel, abs(s) / sn)
    return {"trials": trials, "min_slack": min_slack,
            "min_slack_rel": min_rel, "violations": violations,
            "extremal_max_rel": extremal_max_rel}


def weighted_qmean(v: Field, omega, q: float) -> float:
    """Weighted power mean ((1/|w|_1) sum m w |v|^q)^(1/q), q > 0:
    nondecreasing in q, and tending to the geometric mean
    exp(<log|v|>_w) as q -> 0+."""
    total = v.grid.measure * (omega.values * np.abs(v.values) ** q).sum()
    return float((total / omega.norm_1) ** (1.0 / q))


def extremal_distance(v: Field, extremal: Field) -> float:
    """Max-norm distance from v to its best (least-squares) scalar
    multiple of ``extremal``."""
    e = extremal.values
    c = float(v.values @ e) / float(e @ e)
    return float(np.abs(v.values - c * e).max())


def _vector_phi(x: np.ndarray, p: float) -> np.ndarray:
    norm = np.linalg.norm(x)
    if norm == 0.0:
        return np.zeros_like(x)
    return norm ** (p - 2.0) * x


def vector_inequalities_per_trial(p: float, trials: int, seed: int) -> dict:
    """The vector power inequality check one trial at a time: the JSON
    record of ``check_vector_inequalities``."""
    rng = np.random.default_rng(seed)
    up_ratios = []
    low_ratios = []
    up_witness = low_witness = None
    for t in range(trials):
        dim = 1 + t % 3
        x = rng.standard_normal(dim)
        y = rng.standard_normal(dim)
        if np.linalg.norm(x) == 0.0 or np.linalg.norm(y) == 0.0:
            continue
        d = x - y
        nd = np.linalg.norm(d)
        if nd == 0.0:
            continue
        diff = _vector_phi(x, p) - _vector_phi(y, p)
        nsum = np.linalg.norm(x) + np.linalg.norm(y)
        if p < 2.0:
            up_core = nd ** (p - 1.0)
            low_core = nd**2 / nsum ** (2.0 - p)
        else:
            up_core = nsum ** (p - 2.0) * nd
            low_core = nd**p
        r_up = np.linalg.norm(diff) / up_core
        r_low = float(diff @ d) / low_core
        if not up_ratios or r_up > max(up_ratios):
            up_witness = {"X": x.tolist(), "Y": y.tolist(), "ratio": float(r_up)}
        if not low_ratios or r_low < min(low_ratios):
            low_witness = {"X": x.tolist(), "Y": y.tolist(), "ratio": float(r_low)}
        up_ratios.append(float(r_up))
        low_ratios.append(float(r_low))
    c_upper = max(up_ratios)
    c_lower = min(low_ratios)
    worst = min(10.0 * float(np.median(up_ratios)) - c_upper, c_lower)
    return {
        "lemma": "vector-power-inequalities",
        "trials": trials,
        "worst_slack": float(worst),
        "witness": {"upper": up_witness, "lower": low_witness},
        "constants": {"c_p": float(c_upper), "C_p": float(c_lower)},
        "passed": worst >= -1e-12,
    }
