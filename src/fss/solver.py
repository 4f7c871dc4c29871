"""Minimization of the strictly convex nonlocal energies.

The basic solve finds the unique minimizer of

    J(v) = (1/p) [v]^p - sum_i m f_i v_i

which is the weak solution of the nonlocal p-problem with datum f and
zero exterior values.  At p = 2, J is quadratic and its minimizer solves
K u = m f with the kernel's stiffness matrix K, which conjugate gradients
solve with one product K v per iteration (K is symmetric positive
definite).  The product is ``Kernel.stiffness_product``: a matvec against
the dense K up to ``grid.FFT_NODES`` interior nodes, an FFT convolution
above, where a stand-alone solve never builds K.  The barrier
(``solve_barrier``) forms its p = 2 start itself, the direct solution on
the weight's support (``Kernel.support_solve``), which conjugate
gradients then certify.
Every other p runs ``newton``, the damped Newton routine that also solves
the levels of the approximation chain (``chain``): J is its energy at
alpha = 0.  The energy is C^2 away from ties for every p > 1; at p < 2 the
Hessian of (1/p)[u]^p is infinite at ties, and ``energy_hessian`` clips
it there (see its docstring).

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
from scipy.linalg import LinAlgError

from .exceptions import FieldMismatchError, SolverError, StagnationError
from .grid import Kernel, _cholesky_solve
from .operators import (Field, WeightField, energy_and_gradient,
                        energy_hessian, norm_r, seminorm_p)

# Armijo line search of the Newton steps: the step shrink factor, the
# sufficient-decrease fraction of the predicted decrease, and the number
# of shrinks before the search fails.
_BACKTRACK = 0.5
_SUFFICIENT_DECREASE = 1e-4
_MAX_BACKTRACKS = 60
# At p < 2, the largest share of the initial slope's size the slope at
# an accepted point may reach.
_CURVATURE = 0.9
# Newton steps one solve (stand-alone, a chain level or the limit) may
# take.
_NEWTON_STEPS = 100
# Steps at the double-precision floor after which a solve returns its best
# iterate.
_FLOOR_STEPS = 3
# Largest fraction of the distance to the boundary u + shift = 0 a step
# may cover.
_TO_BOUNDARY = 0.995
# Conjugate-gradient iterations of one p = 2 solve.
_CG_ITERATIONS = 10000
# Steps of the inverse power iteration for S_theta, and the relative rise
# of its quotient at or below which the iteration stops.
_POWER_STEPS = 200
_POWER_RTOL = 1e-12


@dataclass(frozen=True)
class SolveOptions:
    """Gradient tolerance of a stand-alone solve."""

    grad_tol: float = 1e-10

    def __post_init__(self):
        if self.grad_tol <= 0.0:
            raise ValueError("gradient tolerance must be positive")


def newton(u: np.ndarray, weight: np.ndarray, shift: float, alpha: float,
           kernel: Kernel, tol: float, where: str | None = None,
           level: int | None = None, gradient: bool = False,
           au: np.ndarray | None = None) -> tuple[np.ndarray, int, float]:
    """Damped Newton on J(u) = (1/p)[u]^p + sum_i m w_i G_alpha(u_i + shift)
    with G_alpha'(z) = -z^(-alpha).

    At alpha = 0, G_0(z) = -z and J is the nonsingular energy with datum
    ``weight``: there is no curvature term and no boundary.  At
    alpha > 0, ``u`` must satisfy u + shift > 0 on the support of
    ``weight``; the gradient is A u - m w (u + shift)^(-alpha) and the
    Hessian H_p(u) + D, with D = diag(alpha m w (u + shift)^(-alpha-1))
    and H_p the Hessian of (1/p)[u]^p (``operators.energy_hessian``).
    Each step is cut to go at most 0.995 of the way to the boundary
    u + shift = 0 and then backtracked until it passes the Armijo test on
    J, and at p < 2 also the curvature test that keeps it from
    overshooting a near-tie (Nocedal & Wright, Numerical Optimization,
    2006, ch. 3 and 19).  Each evaluation of J takes one pairwise pass,
    A v of its point (``operators.energy_and_gradient``).  ``au``, when
    given, is A u of the start, which then takes no pass, and on return
    it holds A u of the returned iterate, which the caller can reuse.

    At p = 2 with alpha > 0, H_p is the stiffness matrix K and D lives
    only on the support S, so a step solves for u + d through
    ``Kernel.support_solve``: it factors only the |S| x |S| matrix C + D,
    with C the Schur complement of K on S, built once per support.  Every
    other p assembles H_p + D at each step into one M x M work array
    allocated per solve, and factors it there in place by Cholesky: H_p
    is exactly symmetric, so its transpose is the same matrix in the
    Fortran order LAPACK takes without a copy.

    The solve stops once the max-norm of its Newton step (of its gradient
    when ``gradient``) is at most ``tol``, or, when ``tol`` lies below the
    double-precision floor, after three steps that neither shrink that
    max-norm nor promise a measurable energy decrease.  Returns the best
    iterate, the number of Newton steps and the max-norm that iterate
    reached.  Every failure raises a ``SolverError`` carrying the
    iterate, its gradient max-norm and the step as ``iterations``: a
    non-finite Hessian or step, a Hessian that is not positive definite,
    a step that is not a descent direction, a failed line search, and at
    alpha > 0 a best iterate that is not strictly positive at every
    node.  Running out of steps raises the ``StagnationError`` subclass
    with the step max-norms as ``history``.  Inside the chain, ``where``
    names the stage: the message then starts "``where``, sweep <step>: "
    and the error carries ``level``, ``alpha`` and the step as ``sweep``.
    """
    support = np.flatnonzero(weight != 0.0)
    mass = kernel.grid.measure * weight[support]
    p = kernel.params.p

    def evaluate(v, av=None):
        """J(v), its gradient, the size of the terms summed into J, and
        A v (``av`` when given)."""
        if av is None:
            energy, av = energy_and_gradient(v, kernel)
        else:
            energy = float(v @ av) / p
        z = v[support] + shift
        potential = mass * (-np.log(z) if alpha == 1.0
                            else z ** (1.0 - alpha) / (alpha - 1.0))
        g = av.copy()
        g[support] -= mass * z ** (-alpha)
        return (energy + float(potential.sum()), g,
                energy + float(np.abs(potential).sum()), av)

    def fail(reason, error=SolverError, **extra):
        if where is not None:
            reason = f"{where}, sweep {step}: {reason}"
            extra.update(sweep=step, level=level, alpha=alpha)
        return error(reason, iterate=u, grad_norm=float(np.abs(grad).max()),
                     iterations=step, **extra)

    fval, grad, size, applied = evaluate(u, au)
    best, best_applied, stale, history, step = u, applied, 0, [], 0
    best_norm = float(np.abs(grad).max()) if gradient else math.inf
    work = None
    while best_norm > tol and stale < _FLOOR_STEPS:
        if step == _NEWTON_STEPS:
            raise fail(f"no convergence within {step} Newton steps (last "
                       f"step {history[-1]:.3e})", StagnationError,
                       history=history)
        step += 1
        z = u[support] + shift
        curvature = alpha * mass * z ** (-alpha - 1.0) if alpha > 0.0 else 0.0
        try:
            if alpha > 0.0 and p == 2.0:
                # -grad = P (m w z^-alpha + D u_S) - (K + D) u, and
                # m w z^-alpha = D z / alpha.
                d = kernel.support_solve(
                    support, curvature,
                    curvature * (u[support] + z / alpha)) - u
            else:
                if work is None:
                    work = np.empty((u.size, u.size))
                h = energy_hessian(u, kernel, work)
                h[support, support] += curvature
                if not np.isfinite(h).all():
                    raise fail("Hessian has a non-finite entry")
                d = _cholesky_solve(h.T, -grad)
        except LinAlgError as err:
            raise fail("Hessian is not positive definite") from err
        if not np.isfinite(d).all():
            raise fail("Newton step is not finite")
        slope = float(grad @ d)
        # Near the minimum the decrease predicted by the slope drops below
        # the rounding noise of the summed energy terms.
        noise = 8.0 * np.finfo(float).eps * (1.0 + size)
        if slope > noise:
            raise fail("Newton step is not a descent direction")
        # At p < 2 the Hessian of the pair terms is unbounded at ties, and
        # a full step can carry a near-tie past its minimum: for one pair
        # Newton maps the difference delta to delta (p - 2) / (p - 1), which
        # is -delta at p = 1.5.  There the slope at the trial point must
        # also be at most _CURVATURE |slope| (the curvature half of the
        # strong Wolfe conditions), which backtracking meets since J is
        # convex along d.
        overshoot = math.inf
        if p < 2.0 and slope < 0.0:
            overshoot = -_CURVATURE * slope
        delta = float(np.abs(d).max())
        history.append(delta)
        reach = float((-d[support] / z).max()) if alpha > 0.0 else 0.0
        t = min(1.0, _TO_BOUNDARY / reach) if reach > 0.0 else 1.0
        for _ in range(_MAX_BACKTRACKS):
            trial = u + t * d
            ftrial, gtrial, strial, atrial = evaluate(trial)
            if (ftrial <= fval + _SUFFICIENT_DECREASE * t * slope + noise
                    and float(gtrial @ d) <= overshoot):
                break
            t *= _BACKTRACK
        else:
            raise fail("line search failed")
        u, fval, grad, size, applied = trial, ftrial, gtrial, strial, atrial
        norm = float(np.abs(grad).max()) if gradient else delta
        if norm < best_norm:
            best, best_applied, best_norm, stale = u, applied, norm, 0
        elif -slope <= noise:
            stale += 1
    if alpha > 0.0 and best.min() <= 0.0:
        raise fail("solution is not strictly positive")
    if au is not None:
        au[...] = best_applied
    return best, step, best_norm


def _conjugate_gradients(kernel: Kernel, rhs: np.ndarray, u: np.ndarray,
                         tol: float) -> tuple[np.ndarray, int, float]:
    """Solve K u = rhs from ``u`` by conjugate gradients, with one
    ``kernel.stiffness_product`` per iteration (so K is built only up to
    ``grid.FFT_NODES`` nodes).

    Stops once the true residual max|K u - rhs|, the gradient of the
    quadratic energy, is at most ``tol``.  When the recurred residual says
    so but the true one does not, the iteration restarts from the true
    residual; a restart that does not lower the true residual marks the
    double-precision floor.  Returns the iterate, the number of
    iterations and its true residual max-norm.  Running out of iterations
    raises a ``SolverError``.
    """
    u = u.copy()
    iterations, floor = 0, math.inf
    while True:
        _, grad = energy_and_gradient(u, kernel, rhs)
        norm = float(np.abs(grad).max(initial=0.0))
        if norm <= tol or norm >= floor:
            return u, iterations, norm
        floor = norm
        r = -grad
        d = r.copy()
        rr = float(r @ r)
        while float(np.abs(r).max()) > tol:
            if iterations == _CG_ITERATIONS:
                raise SolverError(
                    f"no convergence within {iterations} conjugate-gradient "
                    f"iterations (residual max-norm {np.abs(r).max():.3e})",
                    iterate=u, grad_norm=float(np.abs(r).max()),
                    iterations=iterations)
            iterations += 1
            kd = kernel.stiffness_product(d)
            step = rr / float(d @ kd)
            u += step * d
            r -= step * kd
            rr, previous = float(r @ r), rr
            d *= rr / previous
            d += r


def solve_nonsingular(f, kernel: Kernel, opts: SolveOptions | None = None,
                      x0: Field | None = None) -> Field:
    """Solve the nonlocal p-problem with nodal datum f.

    Returns the unique minimizer of (1/p)[v]^p - sum m f v, i.e. the field
    whose operator application equals the datum in duality.  The gradient
    max-norm at return is at most ``opts.grad_tol``; a solve that stalls
    above it at the double-precision floor raises a ``SolverError``
    saying so.  At p = 2, conjugate gradients start from ``x0`` when
    given, else from zero.  Other p run ``newton`` at alpha = 0 from
    ``x0`` when it is given and nonzero, else from t times the constant
    field with t = (sum |m f| / [1]^p)^(1/(p-1)), which for nonnegative
    data is the best multiple of it.  Every pair ties there, so no K is
    built: for p > 2 the Hessian is diagonal, 2 (p-1) B_i t^(p-2) > 0,
    and for p < 2 its pair terms are clipped (``energy_hessian``).  Any
    finite datum is accepted; for nonnegative data (every use in this
    package) the minimizer is nonnegative by the comparison principle.
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
    p = kernel.params.p
    if p == 2.0:
        start = x0.values if x0 is not None else np.zeros(fv.size)
        u, steps, norm = _conjugate_gradients(kernel, rhs, start,
                                              opts.grad_tol)
    else:
        if x0 is not None and x0.values.any():
            start = x0.values
        else:
            # [1]^p = 2 sum_i B_i: the pair terms vanish at ties.
            t = (np.abs(rhs).sum() / (2.0 * kernel.boundary_weight.sum())
                 ) ** (1.0 / (p - 1.0))
            start = np.full(fv.size, t)
        u, steps, norm = newton(start, fv, 0.0, 0.0, kernel, opts.grad_tol,
                                gradient=True)
    if norm > opts.grad_tol:
        raise SolverError(
            f"gradient tolerance {opts.grad_tol:.1e} is below the "
            f"floating-point floor (stalled at {norm:.3e})",
            iterate=u, grad_norm=norm, iterations=steps)
    return Field(u, kernel.grid)


def solve_barrier(omega: WeightField, kernel: Kernel,
                  opts: SolveOptions | None = None) -> Field:
    """Positive field driven by the capped weight min(omega, 1).

    Solves the nonlocal p-problem with datum min(omega, 1); the result is
    strictly positive at every interior node (every node couples to the
    support of the datum), which makes it usable as a lower barrier.  At
    p = 2 conjugate gradients start from the direct solution of
    K u = m min(omega, 1), one ``Kernel.support_solve`` on the weight's
    support S (the datum lives on S, as in the chain's levels), and
    certify it, with no iteration when it already meets the gradient
    tolerance.
    """
    datum = np.minimum(omega.values, 1.0)
    x0 = None
    if kernel.params.p == 2.0:
        support = np.flatnonzero(omega.values)
        x0 = Field(kernel.support_solve(
            support, 0.0, kernel.grid.measure * datum[support]), kernel.grid)
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
    a lower bound on S_theta.  Those row sums are read from
    ``Kernel.offset_spectrum``, so the bound builds no M x M table.

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
            # At p < 2 a solve can stall above its tolerance (the
            # floor of |u_i - u_j|^(p-1) at ties); the quotient of its
            # last iterate is still a lower bound.
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
        2.0 * kernel.offset_spectrum[3])
    node = int(one_node.argmax())
    if one_node[node] > value:
        value = one_node[node]
        field = Field(np.eye(1, grid.interior_count, node)[0], grid)
    return EmbeddingConstant(theta=float(theta), value=float(value),
                             extremizer=field, exact=exact)
