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

by the nonlinear inverse power iteration, one solve per step: exactly
for theta <= p (to the iteration's tolerance; at theta = 1 from one
solve), and as a lower bound for theta > p.
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
# Armijo line search, shared with the chain's Newton steps: the step
# shrink factor, the sufficient-decrease fraction of the predicted
# decrease, and the number of shrinks before the search fails.
BACKTRACK = 0.5
SUFFICIENT_DECREASE = 1e-4
MAX_BACKTRACKS = 60
# Curvature pairs kept by L-BFGS.
_LBFGS_MEMORY = 8
# Iterations of one energy descent.
_MAX_ITERATIONS = 10000
# Steps of the inverse power iteration for S_theta, and the relative rise
# of its quotient at or below which the iteration stops.
_POWER_STEPS = 200
_POWER_RTOL = 1e-12


@dataclass(frozen=True)
class SolveOptions:
    """Gradient tolerance of the energy descent."""

    grad_tol: float = 1e-10

    def __post_init__(self):
        if self.grad_tol <= 0.0:
            raise ValueError("gradient tolerance must be positive")


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
    for _ in range(_MAX_ITERATIONS):
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
        for _ in range(MAX_BACKTRACKS):
            trial = u + t * d
            ftrial, gtrial = energy_and_gradient(trial, kernel, rhs)
            if ftrial <= fval + SUFFICIENT_DECREASE * t * slope + noise:
                accepted = True
                break
            t *= BACKTRACK
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
            if len(s_hist) > _LBFGS_MEMORY:
                s_hist.pop(0)
                y_hist.pop(0)
        u, fval, grad, step = trial, ftrial, gtrial, t
    gnorm = float(np.abs(grad).max(initial=0.0))
    if gnorm <= opts.grad_tol:
        return u
    raise SolverError(
        f"no convergence within {_MAX_ITERATIONS} iterations "
        f"(gradient max-norm {gnorm:.3e})",
        iterate=u,
        grad_norm=gnorm,
        iterations=_MAX_ITERATIONS,
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
    """Discrete constant with ||v||_theta^p <= S * [v]^p, attained at
    ``extremizer``.  ``exact`` marks the best constant (theta <= p, to the
    tolerance of ``embedding_constant``); otherwise it is a lower bound."""

    theta: float
    value: float
    extremizer: Field
    exact: bool = False

    def __post_init__(self):
        if self.value <= 0.0:
            raise ValueError("embedding constant must be positive")


def embedding_constant(theta: float, kernel: Kernel,
                       opts: SolveOptions | None = None) -> EmbeddingConstant:
    """Maximize ||v||_theta^p / [v]^p over nonzero discrete fields.

    Nonlinear inverse power iteration from v = 1: each step solves
    A u = m |v|^(theta-1) (``solve_nonsingular``) and sets
    v = u / ||u||_theta.  The quotient of u never decreases along the way
    (Hein & Buehler, NIPS 2010); the iteration stops once it rises by at
    most a relative 1e-12, or once the datum repeats.  For theta < p it converges to the
    unique positive maximizer, and at theta = p to the first
    eigenfunction (Biezuner, Ercole & Martins, J. Funct. Anal. 257,
    2009), so the result is ``exact`` there unless the step budget runs
    out or a solve stalls short of its tolerance (its last iterate is
    used: the quotient of any field is a lower bound).

    At theta = 1 the datum is always 1, so the one solve gives the
    torsion field u, and S_1 = ||u||_1^p / [u]^p = ||u||_1^(p-1): for
    v >= 0, ||v||_1 = <A u, v> <= [u]^(p-1) [v] (Hoelder).

    For theta > p there is no global method; the value returned is the
    larger of the iteration's and the best one-node field's,
    m^(p/theta) / [e_i]^p with [e_i]^p = 2 (sum_j w_ij + B_i), and it is
    a lower bound on S_theta.

    ``theta`` must satisfy 1 <= theta <= p_star (finite); the critical
    exponent itself is allowed since every discrete embedding is a finite
    maximum.
    """
    params = kernel.params
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    if theta < 1.0:
        raise ValueError(f"theta must be at least 1, got {theta}")
    if params.p_star < math.inf and theta > params.p_star + 1e-12:
        raise ValueError(
            f"theta {theta} exceeds the critical exponent {params.p_star}"
        )
    p = params.p
    grid = kernel.grid
    datum = np.ones(grid.interior_count)
    value, field, exact = 0.0, None, theta <= p
    for _ in range(_POWER_STEPS):
        try:
            u = solve_nonsingular(datum, kernel, opts)
        except SolverError as err:
            # L-BFGS stalls on flat fields at p < 2 (torsion at p = 1.5);
            # the quotient of its last iterate is still a lower bound.
            u, exact = Field(err.iterate, grid), False
        quotient = norm_r(u, theta) ** p / seminorm_p(u, kernel)
        rising = quotient > value * (1.0 + _POWER_RTOL)
        if quotient > value:
            value, field = quotient, u
        nxt = np.abs(u.values / norm_r(u, theta)) ** (theta - 1.0)
        if not rising or np.array_equal(nxt, datum):
            break
        datum = nxt
    else:
        exact = False
    one_node = grid.measure ** (p / theta) / (
        2.0 * (kernel.w_interior.sum(axis=1) + kernel.boundary_weight))
    node = int(one_node.argmax())
    if one_node[node] > value:
        value = one_node[node]
        field = Field(np.eye(1, grid.interior_count, node)[0], grid)
    return EmbeddingConstant(theta=float(theta), value=float(value),
                             extremizer=field, exact=exact)


def embedding_for_existence_bound(kernel: Kernel,
                                  opts: SolveOptions | None = None
                                  ) -> EmbeddingConstant:
    """Embedding constant at the exponent used by the a-priori energy bound.

    The bound pairs the weight norm at the threshold exponent with the
    embedding at theta = (1 - alpha) * conjugate(r_alpha), which is the
    critical exponent p_star when s*p < N and 1 otherwise, independently
    of alpha.  At theta = 1 the constant is exact.
    """
    params = kernel.params
    theta = params.p_star if params.sp < params.n_dim else 1.0
    return embedding_constant(theta, kernel, opts)
