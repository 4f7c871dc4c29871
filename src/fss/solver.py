"""Minimization of the strictly convex nonlocal energies.

The basic solve finds the unique minimizer of

    J(v) = (1/p) [v]^p - sum_i m f_i v_i

which is the weak solution of the nonlocal p-problem with datum f and
zero exterior values.  The energy is C^1 for every p > 1 but not C^2 for
p < 2, so the solver is a line-search descent method: L-BFGS directions
with Armijo backtracking, falling back to steepest descent whenever the
quasi-Newton direction fails the descent test.  Every accepted step is
checked to not increase the energy.

The module also computes discrete embedding constants

    S_theta = max_{v != 0} ||v||_theta^p / [v]^p

exactly at theta = 1, from the torsion field, and otherwise as a lower
bound by normalized multi-start descent on the unit L^theta sphere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import FieldMismatchError, SolverError
from .grid import Kernel
from .operators import (Field, WeightField, energy_and_gradient, norm_r,
                        seminorm_p)

# Energy comparisons tolerate accumulated rounding of the pairwise sums.
_DESCENT_SLACK = 1e-13


@dataclass(frozen=True)
class SolveOptions:
    """Tolerances and line-search parameters for the energy descent."""

    grad_tol: float = 1e-10
    max_iter: int = 10000
    backtrack: float = 0.5
    sufficient_decrease: float = 1e-4
    lbfgs_memory: int = 8
    max_backtracks: int = 60

    def __post_init__(self):
        if self.grad_tol <= 0.0:
            raise ValueError("gradient tolerance must be positive")
        if self.max_iter < 1:
            raise ValueError("max iterations must be at least 1")


def _lbfgs_direction(grad, s_hist, y_hist):
    """Two-loop recursion; returns the steepest direction on empty history."""
    d = -grad
    if not s_hist:
        return d
    alphas = []
    q = d.copy()
    for s, y in zip(reversed(s_hist), reversed(y_hist)):
        rho = 1.0 / (y @ s)
        a = rho * (s @ q)
        q -= a * y
        alphas.append((a, rho, s, y))
    s_last, y_last = s_hist[-1], y_hist[-1]
    q *= (s_last @ y_last) / (y_last @ y_last)
    for a, rho, s, y in reversed(alphas):
        b = rho * (y @ q)
        q += (a - b) * s
    return q


def _minimize(kernel: Kernel, rhs: np.ndarray | None, x0: np.ndarray,
              opts: SolveOptions) -> np.ndarray:
    u = np.asarray(x0, dtype=float).copy()
    fval, grad = energy_and_gradient(u, kernel, rhs)
    s_hist: list[np.ndarray] = []
    y_hist: list[np.ndarray] = []
    step = 1.0
    best_fval = fval
    best_gnorm = math.inf
    stale = 0
    for _ in range(opts.max_iter):
        gnorm = float(np.abs(grad).max(initial=0.0))
        if gnorm <= opts.grad_tol:
            return u
        d = _lbfgs_direction(grad, s_hist, y_hist)
        slope = float(d @ grad)
        if slope >= -1e-14 * float(np.linalg.norm(d) * np.linalg.norm(grad)):
            d = -grad
            slope = -float(grad @ grad)
            s_hist.clear()
            y_hist.clear()
        t = 1.0 if s_hist else min(1.0, 4.0 * step)
        accepted = False
        # Near the minimum the decrease predicted by the slope drops below
        # the rounding noise of the pairwise energy sums; the acceptance
        # test carries the corresponding epsilon allowance so the iteration
        # can keep refining down to the floating-point floor.
        noise = 8.0 * np.finfo(float).eps * (1.0 + abs(fval))
        for _ in range(opts.max_backtracks):
            trial = u + t * d
            ftrial, gtrial = energy_and_gradient(trial, kernel, rhs)
            if ftrial <= fval + opts.sufficient_decrease * t * slope + noise:
                accepted = True
                break
            t *= opts.backtrack
        if not accepted:
            # Backtracked to machine precision with the gradient still above
            # tolerance: the requested accuracy is not reachable in doubles.
            raise SolverError(
                "line search failed before reaching the gradient tolerance",
                iterate=u,
                grad_norm=gnorm,
            )
        assert ftrial <= fval + _DESCENT_SLACK * (1.0 + abs(fval)), (
            "energy increased along an accepted step"
        )
        gnorm_trial = float(np.abs(gtrial).max(initial=0.0))
        if ftrial < best_fval - noise or gnorm_trial < 0.99 * best_gnorm:
            stale = 0
        else:
            stale += 1
        best_fval = min(best_fval, ftrial)
        best_gnorm = min(best_gnorm, gnorm_trial)
        if stale >= 20:
            # No measurable energy or gradient progress for many steps:
            # the double-precision floor sits above the requested tolerance.
            raise SolverError(
                f"gradient tolerance {opts.grad_tol:.1e} is below the "
                f"floating-point floor (stalled at {best_gnorm:.3e})",
                iterate=u,
                grad_norm=best_gnorm,
            )
        s = trial - u
        y = gtrial - grad
        sy = float(s @ y)
        if sy > 1e-14 * float(np.linalg.norm(s) * np.linalg.norm(y)):
            s_hist.append(s)
            y_hist.append(y)
            if len(s_hist) > opts.lbfgs_memory:
                s_hist.pop(0)
                y_hist.pop(0)
        u, fval, grad, step = trial, ftrial, gtrial, t
    gnorm = float(np.abs(grad).max(initial=0.0))
    if gnorm <= opts.grad_tol:
        return u
    raise SolverError(
        f"no convergence within {opts.max_iter} iterations "
        f"(gradient max-norm {gnorm:.3e})",
        iterate=u,
        grad_norm=gnorm,
        iterations=opts.max_iter,
    )


def solve_nonsingular(f, kernel: Kernel, opts: SolveOptions | None = None,
                      x0: Field | None = None) -> Field:
    """Solve the nonlocal p-problem with nodal datum f.

    Returns the unique minimizer of (1/p)[v]^p - sum m f v, i.e. the field
    whose operator application equals the datum in duality.  The gradient
    max-norm at return is at most ``opts.grad_tol``.  The descent starts
    from ``x0`` when given, else from zero.  Any finite datum is accepted;
    for nonnegative data (every use in this package) the minimizer is
    nonnegative by the comparison principle.
    """
    opts = opts or SolveOptions()
    fv = f.values if isinstance(f, Field) else np.asarray(f, dtype=float)
    if fv.shape != (kernel.interior_count,):
        raise FieldMismatchError(
            f"datum has shape {fv.shape} for {kernel.interior_count} interior nodes"
        )
    if not np.all(np.isfinite(fv)):
        raise ValueError("datum must be finite")
    rhs = kernel.grid.measure * fv
    start = x0.values if x0 is not None else np.zeros(kernel.interior_count)
    u = _minimize(kernel, rhs, start, opts)
    return Field(u, kernel.grid)


def solve_barrier(omega: WeightField, kernel: Kernel,
                  opts: SolveOptions | None = None,
                  x0: Field | None = None) -> Field:
    """Positive field driven by the capped weight min(omega, 1).

    Solves the nonlocal p-problem with datum min(omega, 1), starting from
    ``x0`` when given; the result is strictly positive at every interior
    node (every node couples to the support of the datum), which makes it
    usable as a lower barrier.
    """
    datum = np.minimum(omega.values, 1.0)
    psi = solve_nonsingular(datum, kernel, opts, x0=x0)
    if psi.values.min() <= 0.0:
        raise SolverError(
            "barrier field is not strictly positive",
            iterate=psi.values,
        )
    return psi


@dataclass(frozen=True)
class EmbeddingConstant:
    """Discrete constant with ||v||_theta^p <= S * [v]^p: the best one
    at theta = 1, a lower bound on it otherwise (see
    ``embedding_constant``)."""

    theta: float
    value: float
    extremizer: Field
    starts: int = 8

    def __post_init__(self):
        if self.value <= 0.0:
            raise ValueError("embedding constant must be positive")


def _normalize_theta(values: np.ndarray, measure: float, theta: float) -> np.ndarray:
    nrm = (measure * (np.abs(values) ** theta).sum()) ** (1.0 / theta)
    return values / nrm


def embedding_constant(theta: float, kernel: Kernel,
                       opts: SolveOptions | None = None,
                       starts: int = 8, seed: int = 0,
                       max_iter: int = 4000) -> EmbeddingConstant:
    """Maximize ||v||_theta^p / [v]^p over nonzero discrete fields.

    At theta = 1 the maximizer is the torsion field u, the solution of
    A u = m * 1: for v >= 0, ||v||_1 = <A u, v> <= [u]^(p-1) [v] (Hoelder),
    so S_1 = ||u||_1^p / [u]^p = ||u||_1^(p-1), from one solve.

    For theta > 1 the value is a lower bound on S_theta: the quotient is
    maximized by projected gradient descent on the unit L^theta sphere,
    with backtracking, from ``starts`` seeded initial fields (constant,
    random nonnegative, bump), and the best value across starts is
    returned.  The quotient is invariant under v -> |v|, so iterates are
    kept nonnegative.

    ``theta`` must satisfy 1 <= theta <= p_star (finite); the critical
    exponent itself is allowed since every discrete embedding is a finite
    maximum.
    """
    params = kernel.params
    if theta < 1.0:
        raise ValueError(f"theta must be at least 1, got {theta}")
    if math.isinf(theta):
        raise ValueError("theta must be finite")
    if params.p_star < math.inf and theta > params.p_star + 1e-12:
        raise ValueError(
            f"theta {theta} exceeds the critical exponent {params.p_star}"
        )
    opts = opts or SolveOptions()
    grid = kernel.grid
    n = grid.interior_count
    m = grid.measure
    if theta == 1.0:
        torsion = solve_nonsingular(np.ones(n), kernel, opts)
        value = norm_r(torsion, 1.0) ** params.p / seminorm_p(torsion, kernel)
        return EmbeddingConstant(theta=1.0, value=float(value),
                                 extremizer=torsion, starts=1)
    rng = np.random.default_rng(seed)

    inits = [np.ones(n)]
    center = grid.interior.mean(axis=0)
    width = 0.25 * max(hi - lo for lo, hi in grid.box)
    d2 = ((grid.interior - center) ** 2).sum(axis=1)
    inits.append(np.exp(-d2 / (2.0 * width**2)))
    while len(inits) < max(starts, 1):
        inits.append(np.abs(rng.standard_normal(n)) + 1e-3)

    best_val = math.inf
    best_field = None
    shrink = opts.backtrack
    for v0 in inits[:max(starts, 1)]:
        v = _normalize_theta(np.abs(v0), m, theta)
        fval, grad = energy_and_gradient(v, kernel, None)
        t = 1.0
        for _ in range(max_iter):
            moved = False
            while t > 1e-22:
                shifted = np.abs(v - t * grad)
                if not shifted.any():
                    t *= shrink
                    continue
                trial = _normalize_theta(shifted, m, theta)
                ftrial, gtrial = energy_and_gradient(trial, kernel, None)
                if ftrial < fval * (1.0 - 1e-15):
                    v, fval, grad = trial, ftrial, gtrial
                    moved = True
                    t *= 2.0
                    break
                t *= shrink
            if not moved:
                break
        if fval < best_val:
            best_val = fval
            best_field = v
    if best_field is None or not math.isfinite(best_val) or best_val <= 0.0:
        raise SolverError("embedding constant search did not converge")
    # fval tracked (1/p)[v]^p; rescale to the plain p-th power.
    energy_p = best_val * params.p
    field = Field(best_field, grid)
    value = norm_r(field, theta) ** params.p / energy_p
    return EmbeddingConstant(
        theta=float(theta),
        value=float(value),
        extremizer=field,
        starts=max(starts, 1),
    )


def embedding_for_existence_bound(kernel: Kernel,
                                  opts: SolveOptions | None = None,
                                  seed: int = 0) -> EmbeddingConstant:
    """Embedding constant at the exponent used by the a-priori energy bound.

    The bound pairs the weight norm at the threshold exponent with the
    embedding at theta = (1 - alpha) * conjugate(r_alpha), which is the
    critical exponent p_star when s*p < N and 1 otherwise, independently
    of alpha.  At theta = 1 the constant is exact.
    """
    params = kernel.params
    theta = params.p_star if params.sp < params.n_dim else 1.0
    return embedding_constant(theta, kernel, opts, seed=seed)
