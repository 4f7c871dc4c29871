"""Monotone approximation chain for the singular nonlocal problem.

The singular problem asks for a positive field u, vanishing outside the
domain, with

    (nonlocal p-operator) u = omega / u**alpha .

Its energy is not differentiable, so u is reached through regularized
levels indexed by n: truncate the weight at height n and shift the
denominator by 1/n,

    (nonlocal p-operator) u_n = min(omega, n) / (u_n + 1/n)**alpha .

Level n is the unique minimizer, over u + 1/n > 0 on the support S of
the weight, of the strictly convex energy

    J_n(u) = (1/p) [u]^p + sum_i m omega_n,i G_alpha(u_i + 1/n)

with omega_n = min(omega, n) and G_alpha'(z) = -z**(-alpha), and the
singular limit minimizes the same energy with omega and shift 0.  One
damped Newton routine solves every level and the limit.  Its gradient is
A u - m omega_n (u + 1/n)**(-alpha) and its Hessian H_p(u) + D, with
D = diag(alpha m omega_n (u + 1/n)**(-alpha-1)) and H_p the Hessian of
(1/p)[u]^p (``operators.energy_hessian``).  Each step is cut to go at
most 0.995 of the way to the boundary u + 1/n = 0 and then backtracked
until it passes the Armijo test on J_n (Nocedal & Wright, Numerical
Optimization, 2006, ch. 3 and 19).  A solve stops once the max-norm of
its Newton step is at most its tolerance (``fixed_point_tol`` at a level,
``polish_tol`` at the limit), or, when that tolerance lies below the
double-precision floor, after three steps that neither shrink the step
nor promise a measurable energy decrease; it returns its best iterate.

At p = 2, H_p is the stiffness matrix K and D lives only on S.  When S
covers at most half the nodes, a step uses the kernel's cached Cholesky
factor of K and factors only the |S| x |S| matrix
I + D_S^(1/2) (K^-1)_SS D_S^(1/2) (Woodbury); the S columns of K^-1 are
solved once per kernel.  A wider support, and every other p, factors
H_p + D by Cholesky at each step.  For p > 2, H_p vanishes at u = 0, so
the walk starts from the barrier.

Levels are walked along a geometric schedule with warm starts, the first
from the barrier psi.  The level solutions increase in n, their energies
increase, and they dominate the barrier m_alpha * psi built from the
capped weight.  Once consecutive levels agree to the chain tolerance the
limit is polished: the same Newton routine on the unregularized energy
removes the residual O(1/n) regularization error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .exceptions import FssError, SolverError, StagnationError
from .grid import Kernel, r_alpha
from .operators import (
    Field,
    WeightField,
    apply_operator,
    energy_and_gradient,
    energy_hessian,
    norm_r,
    seminorm_p,
)
from .sampling import trial_fields
from .solver import (
    EmbeddingConstant,
    SolveOptions,
    embedding_for_existence_bound,
    solve_barrier,
)


@dataclass(frozen=True)
class RegularizedProblem:
    """One level of the approximation chain."""

    level: int
    alpha: float
    omega_n: WeightField

    def __post_init__(self):
        if self.level < 1:
            raise ValueError(f"level must be at least 1, got {self.level}")
        if self.alpha <= 0.0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")

    @property
    def shift(self) -> float:
        return 1.0 / self.level


def truncate_weight(omega: WeightField, n: int) -> WeightField:
    """Nodewise min(omega, n) with norms recomputed."""
    if n < 1:
        raise ValueError(f"truncation level must be at least 1, got {n}")
    return WeightField(np.minimum(omega.values, float(n)), omega.grid, omega.r)


def make_level(omega: WeightField, n: int, alpha: float) -> RegularizedProblem:
    return RegularizedProblem(level=int(n), alpha=float(alpha),
                              omega_n=truncate_weight(omega, n))


# Newton steps one chain solve (a level or the limit) may take.
_NEWTON_STEPS = 100
# Steps at the double-precision floor after which a solve returns its best
# iterate.
_FLOOR_STEPS = 3
# Largest fraction of the distance to the boundary u + shift = 0 a step
# may cover.
_TO_BOUNDARY = 0.995
# Largest share of the nodes the weight's support may cover for a p = 2
# step to go through Woodbury: at half the nodes it factors 1/8 of what
# the direct step factors and keeps M^2 / 2 doubles of K^-1, while on
# every node it is the slower one (5.6 against 4.1 ms a step at M = 529,
# one BLAS thread).
_WOODBURY_SHARE = 0.5


@dataclass(frozen=True)
class ChainOptions:
    """Tolerances of the chain's Newton solves and of the n-schedule.

    ``fixed_point_tol`` bounds the Newton step max-norm at every level and
    ``polish_tol`` at the limit.  ``solve`` sets the barrier and
    embedding-constant solves and the Newton line search.
    """

    solve: SolveOptions = dc_field(default_factory=SolveOptions)
    fixed_point_tol: float = 1e-9
    chain_tol: float = 1e-7
    max_levels: int = 40
    polish_tol: float = 1e-13
    residual_trials: int = 100
    residual_seed: int = 7


def _located(err: SolverError, where: str, **context) -> SolverError:
    """``err`` re-raised with the chain stage ``where`` in its message and
    the ``level``/``sweep``/``alpha`` of ``context`` as attributes."""
    return SolverError(f"{where}: {err}", iterate=err.iterate,
                       grad_norm=err.grad_norm, iterations=err.iterations,
                       **context)


def _solve_p2_newton(kernel: Kernel, support: np.ndarray, root: np.ndarray,
                     c: np.ndarray) -> np.ndarray:
    """Solve (K + D) x = b at p = 2 for D = diag(root^2) and b = root * c on
    the ``support`` nodes, both zero elsewhere.

    By Woodbury, with Z the support columns of K^-1 and r = ``root``,
    (K + D)^-1 P = Z (D^-1 + Z_S)^-1 D^-1 = Z r C^-1 r^-1, so
    x = Z (r C^-1 c) with C = I + r Z_S r, which is symmetric positive
    definite with eigenvalues at least 1.  No term grows with D: a large
    D, which the singular weight gives near the boundary u + shift = 0,
    costs no accuracy.
    """
    z = kernel.inverse_stiffness_columns(support)
    m = root[:, None] * z[support] * root[None, :]
    m[np.diag_indices_from(m)] += 1.0
    factor = cho_factor(m, overwrite_a=True, check_finite=False)
    return z @ (root * cho_solve(factor, c, check_finite=False))


def _newton(u: np.ndarray, weight: np.ndarray, shift: float, alpha: float,
            kernel: Kernel, tol: float, line: SolveOptions, where: str,
            level: int | None = None) -> tuple[np.ndarray, int, float]:
    """Damped Newton on J(u) = (1/p)[u]^p + sum_i m w_i G_alpha(u_i + shift).

    Starts from ``u``, which must satisfy u + shift > 0 on the support of
    ``weight``.  Returns the best iterate, the number of Newton steps and
    the max-norm of the step that produced that iterate (see the module
    docstring for the stop rule).  The line search takes its parameters
    from ``line``.  Every failure raises a ``SolverError`` whose message
    starts "``where``, sweep <step>: " and which carries ``level``,
    ``alpha``, the step as ``sweep`` and ``iterations``, the iterate and
    its gradient max-norm: a non-finite Hessian or step, a Hessian that
    is not positive definite, a step that is not a descent direction, a
    failed line search, and a best iterate
    that is not strictly positive at every node.  Running out of
    steps raises the ``StagnationError`` subclass with the step max-norms
    as ``history``.
    """
    support = np.flatnonzero(weight > 0.0)
    mass = kernel.grid.measure * weight[support]

    def evaluate(v):
        """J(v), its gradient, and the size of the terms summed into J."""
        energy, g = energy_and_gradient(v, kernel)
        z = v[support] + shift
        potential = mass * (-np.log(z) if alpha == 1.0
                            else z ** (1.0 - alpha) / (alpha - 1.0))
        g[support] -= mass * z ** (-alpha)
        return (energy + float(potential.sum()), g,
                energy + float(np.abs(potential).sum()))

    def fail(reason, error=SolverError, **extra):
        return error(f"{where}, sweep {step}: {reason}", iterate=u,
                     grad_norm=float(np.abs(grad).max()), iterations=step,
                     sweep=step, level=level, alpha=alpha, **extra)

    fval, grad, size = evaluate(u)
    best, best_delta, stale, history = u, math.inf, 0, []
    for step in range(1, _NEWTON_STEPS + 1):
        z = u[support] + shift
        curvature = alpha * mass * z ** (-alpha - 1.0)
        try:
            if (kernel.params.p == 2.0
                    and support.size <= _WOODBURY_SHARE * u.size):
                # -grad = P (m w z^-alpha + D u_S) - (K + D) u, and
                # m w z^-alpha = D z / alpha.
                root = np.sqrt(curvature)
                d = _solve_p2_newton(kernel, support, root,
                                     root * (u[support] + z / alpha)) - u
            else:
                h = energy_hessian(u, kernel)
                h[support, support] += curvature
                if not np.isfinite(h).all():
                    raise fail("Hessian has a non-finite entry")
                d = cho_solve(cho_factor(h, overwrite_a=True,
                                         check_finite=False),
                              -grad, check_finite=False)
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
        delta = float(np.abs(d).max())
        history.append(delta)
        reach = float((-d[support] / z).max())
        t = min(1.0, _TO_BOUNDARY / reach) if reach > 0.0 else 1.0
        for _ in range(line.max_backtracks):
            trial = u + t * d
            ftrial, gtrial, strial = evaluate(trial)
            if ftrial <= fval + line.sufficient_decrease * t * slope + noise:
                break
            t *= line.backtrack
        else:
            raise fail("line search failed")
        u, fval, grad, size = trial, ftrial, gtrial, strial
        if delta < best_delta:
            best, best_delta, stale = u, delta, 0
        elif -slope <= noise:
            stale += 1
        if delta <= tol or stale >= _FLOOR_STEPS:
            if best.min() <= 0.0:
                raise fail("solution is not strictly positive")
            return best, step, best_delta
    raise fail(f"no convergence within {step} Newton steps (last step "
               f"{history[-1]:.3e})", StagnationError, history=history)


def solve_level(problem: RegularizedProblem, kernel: Kernel, init: Field,
                opts: ChainOptions | None = None) -> tuple[Field, int, float]:
    """Minimize the level energy J_n by damped Newton from ``init``.

    Returns the level solution (strictly positive at every interior node),
    the number of Newton steps, and the max-norm of the step that produced
    the solution.  That max-norm is at most the fixed-point tolerance,
    unless the tolerance lies below the double-precision floor: then the
    solve returns its best iterate after three steps at the floor, and
    the max-norm shows how far it got.  For p > 2 the Hessian vanishes at
    u = 0, so start from a field such as the barrier.  Raises a
    ``SolverError`` naming the level, the step (``sweep``) and alpha when
    a step fails, and its ``StagnationError`` subclass when the step
    budget runs out.
    """
    opts = opts or ChainOptions()
    if init.values.min() < 0.0:
        raise ValueError("initial field must be nonnegative")
    u, steps, delta = _newton(init.values, problem.omega_n.values,
                              problem.shift, problem.alpha, kernel,
                              opts.fixed_point_tol, opts.solve,
                              f"level {problem.level} (alpha {problem.alpha:g})",
                              level=problem.level)
    return Field(u, kernel.grid), steps, delta


@dataclass(frozen=True)
class LevelRecord:
    """Diagnostics stored per chain level."""

    n: int
    u: Field
    seminorm: float  # [u_n]^p
    fp_sweeps: int  # Newton steps
    fp_delta: float  # max-norm of the step that produced u_n
    residual: float
    min_value: float
    max_value: float
    apriori_bound: float | None
    apriori_ok: bool | None

    def to_json_record(self) -> dict:
        return {
            "n": self.n,
            "seminorm_p": self.seminorm,
            "min_u": self.min_value,
            "max_u": self.max_value,
            "fp_iters": self.fp_sweeps,
            "fp_delta": self.fp_delta,
            "residual": self.residual,
        }


@dataclass(frozen=True)
class ChainResult:
    """Chain levels, their diagnostics, and the polished limit field."""

    alpha: float
    omega: WeightField
    kernel: Kernel
    levels: tuple[LevelRecord, ...]
    u_alpha: Field
    seminorm: float  # [u_alpha]^p
    converged: bool
    final_increment: float
    psi: Field
    m_alpha: float
    barrier: Field
    polish_sweeps: int  # Newton steps at the limit
    polish_delta: float  # max-norm of the step that produced u_alpha
    energy_identity_gap: float
    power_seminorms: tuple[float, ...] | None

    @property
    def seminorms(self) -> list[float]:
        return [rec.seminorm for rec in self.levels]

    def monotone_gap(self) -> float:
        """Largest nodewise violation of u_n <= u_{n+1} over stored levels."""
        worst = 0.0
        for prev, cur in zip(self.levels, self.levels[1:]):
            worst = max(worst, float((prev.u.values - cur.u.values).max()))
        return worst

    def barrier_gap(self) -> float:
        """Largest nodewise violation of m_alpha * psi <= u_n."""
        worst = 0.0
        for rec in self.levels:
            worst = max(worst, float((self.barrier.values - rec.u.values).max()))
        return worst


def _residual_probes(kernel: Kernel, trials: int,
                     seed: int) -> list[tuple[np.ndarray, float]]:
    """Seeded test fields phi with their energy norms [phi] = ([phi]^p)^(1/p).

    They depend only on the kernel, so a chain draws them once for all
    levels.
    """
    p = kernel.params.p
    return [(phi.values, seminorm_p(phi, kernel) ** (1.0 / p))
            for phi in trial_fields(kernel.grid, trials, seed)]


def _level_residual(u: Field, source: np.ndarray, kernel: Kernel,
                    probes: list[tuple[np.ndarray, float]]) -> float:
    """Weak residual max |<A u, phi> - source . phi| / (1 + [phi]) over the
    probes, for the dual vector ``source`` (cell measures included).

    Uses the exact identity pairing(u, v) = grad . v, so the cost per
    probe is linear in the node count.
    """
    grad = apply_operator(u, kernel)
    worst = 0.0
    for phi, norm in probes:
        lhs = float(grad @ phi)
        rhs = float(source @ phi)
        worst = max(worst, abs(lhs - rhs) / (1.0 + norm))
    return worst


def _existence_bound(omega: WeightField, alpha: float, kernel: Kernel,
                     embedding: EmbeddingConstant | None) -> float | None:
    """A-priori ceiling for [u_n]^p along the chain, when available.

    alpha = 1 gives the plain mass bound; alpha < 1 combines the weight
    norm at the threshold exponent with the embedding constant; alpha > 1
    has no such bound (handled by the compact-support diagnostic instead).
    """
    p = kernel.params.p
    if alpha == 1.0:
        return omega.norm_1
    if alpha > 1.0:
        return None
    r_min = r_alpha(alpha, kernel.params)
    weight_norm = norm_r(omega, r_min)
    s_value = embedding.value if embedding is not None else None
    if s_value is None:
        return None
    # [u]^(p-(1-a)) <= |w|_{r_a} S^((1-a)/p), stated for the seminorm itself.
    rhs = weight_norm * s_value ** ((1.0 - alpha) / p)
    return rhs ** (p / (p - (1.0 - alpha)))


def _validate_alpha(omega: WeightField, alpha: float, kernel: Kernel):
    if alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if alpha > 1.0:
        dist = kernel.grid.boundary_distance()
        near = dist <= kernel.grid.h * (1.0 + 1e-9)
        if np.any(omega.values[near] != 0.0):
            raise FssError(
                "alpha > 1 requires a weight vanishing within one cell of "
                "the domain boundary; general weights may admit no solution"
            )


def default_schedule(max_levels: int, base: int = 2):
    return [base**k for k in range(max_levels)]


def run_chain(omega: WeightField, alpha: float, kernel: Kernel,
              schedule=None, opts: ChainOptions | None = None,
              embedding: EmbeddingConstant | None = None,
              init: Field | None = None) -> ChainResult:
    """Walk the approximation levels and extract the singular limit.

    ``schedule`` is an increasing sequence of levels (default: powers of
    two).  The first level starts from ``init`` (default: the barrier),
    every later one from its predecessor, and the walk stops once
    consecutive level solutions differ by at most the chain tolerance in
    the max norm, then polishes the limit; exhausting the
    schedule yields an unpolished result flagged as non-converged.  For
    alpha <= 1 the a-priori energy ceiling is recorded per level; alpha > 1
    requires a compactly supported weight and records the auxiliary power
    seminorms instead.  A ``SolverError`` of the barrier or of the
    embedding-constant search is re-raised naming that stage and alpha;
    one of a level or of the polish names it, the Newton step and alpha.
    """
    opts = opts or ChainOptions()
    _validate_alpha(omega, alpha, kernel)
    if schedule is None:
        schedule = default_schedule(opts.max_levels)
    schedule = [int(n) for n in schedule]
    if not schedule:
        raise ValueError("schedule must contain at least one level")
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule must be strictly increasing")

    params = kernel.params
    x0 = None
    if params.p == 2.0:
        # The direct solution of K u = m min(omega, 1); L-BFGS certifies it.
        x0 = Field(cho_solve(kernel.stiffness_factor, kernel.grid.measure
                             * np.minimum(omega.values, 1.0),
                             check_finite=False), kernel.grid)
    try:
        psi = solve_barrier(omega, kernel, opts.solve, x0=x0)
    except SolverError as err:
        raise _located(err, f"barrier (alpha {alpha:g})", alpha=alpha) from err
    if alpha < 1.0 and embedding is None:
        try:
            embedding = embedding_for_existence_bound(kernel, opts.solve)
        except SolverError as err:
            raise _located(err, f"embedding constant (alpha {alpha:g})",
                           alpha=alpha) from err
    bound = _existence_bound(omega, alpha, kernel, embedding)

    probes = _residual_probes(kernel, opts.residual_trials, opts.residual_seed)
    levels: list[LevelRecord] = []
    power_seminorms: list[float] = []
    prev: Field | None = None
    converged = False
    final_increment = math.inf
    for n in schedule:
        problem = make_level(omega, n, alpha)
        start = prev if prev is not None else (init or psi)
        u_n, sweeps, delta = solve_level(problem, kernel, start, opts)
        sn = seminorm_p(u_n, kernel)
        source = kernel.grid.measure * problem.omega_n.values / (
            u_n.values + problem.shift
        ) ** problem.alpha
        residual = _level_residual(u_n, source, kernel, probes)
        levels.append(LevelRecord(
            n=n,
            u=u_n,
            seminorm=sn,
            fp_sweeps=sweeps,
            fp_delta=delta,
            residual=residual,
            min_value=float(u_n.values.min()),
            max_value=float(u_n.values.max()),
            apriori_bound=bound,
            apriori_ok=None if bound is None else bool(sn <= bound * (1.0 + 1e-8)),
        ))
        if alpha > 1.0:
            exponent = (alpha - 1.0 + params.p) / params.p
            power_seminorms.append(
                seminorm_p(Field(u_n.values**exponent, kernel.grid), kernel)
            )
        if prev is not None:
            final_increment = (u_n - prev).max_norm()
            if final_increment <= opts.chain_tol:
                converged = True
                prev = u_n
                break
        prev = u_n

    m_alpha = (levels[0].max_value + 1.0) ** (-alpha / (params.p - 1.0))
    u_final, polish_sweeps, polish_delta = prev, 0, math.inf
    if converged:
        values, polish_sweeps, polish_delta = _newton(
            prev.values, omega.values, 0.0, alpha, kernel, opts.polish_tol,
            opts.solve, f"polish (alpha {alpha:g})")
        u_final = Field(values, kernel.grid)

    sn_final = seminorm_p(u_final, kernel)
    mass = float(kernel.grid.measure
                 * (omega.values * u_final.values ** (1.0 - alpha)).sum())
    gap = abs(sn_final - mass) / sn_final if sn_final > 0.0 else math.inf

    return ChainResult(
        alpha=float(alpha),
        omega=omega,
        kernel=kernel,
        levels=tuple(levels),
        u_alpha=u_final,
        seminorm=sn_final,
        converged=converged,
        final_increment=final_increment,
        psi=psi,
        m_alpha=float(m_alpha),
        barrier=m_alpha * psi,
        polish_sweeps=polish_sweeps,
        polish_delta=polish_delta,
        energy_identity_gap=float(gap),
        power_seminorms=tuple(power_seminorms) if power_seminorms else None,
    )


@dataclass(frozen=True)
class ResidualReport:
    """Weak-form residual certificate for a candidate singular solution."""

    max_residual: float
    aux_min_slack: float  # slack of |int w v / u^a| <= [u]^(p-1) [v]
    trials: int


def weak_residual(u: Field, omega: WeightField, alpha: float, kernel: Kernel,
                  trials: int = 100, seed: int = 0) -> ResidualReport:
    """Certify the weak form of the singular equation against test fields.

    For each trial field v this measures
    |pairing(u, v) - sum m w v / u^alpha| / (1 + [v]), and also the slack
    of the duality estimate |sum m w v / u^alpha| <= [u]^(p-1) [v].
    Requires u strictly positive at every interior node.
    """
    if u.values.min() <= 0.0:
        raise FssError("not an interior-positive field")
    m = kernel.grid.measure
    p = kernel.params.p
    source = m * omega.values / u.values**alpha
    probes = _residual_probes(kernel, trials, seed)
    worst = _level_residual(u, source, kernel, probes)
    sn_u = seminorm_p(u, kernel)
    aux_slack = math.inf
    for phi, norm in probes:
        bound = sn_u ** ((p - 1.0) / p) * norm
        aux_slack = min(aux_slack, bound - abs(float(source @ phi)))
    return ResidualReport(max_residual=worst, aux_min_slack=aux_slack,
                          trials=trials)


@dataclass(frozen=True)
class BoundReport:
    """Sup-norm ceiling from the level-set (Stampacchia) machinery."""

    c_alpha: float
    b: float
    bound: float
    sup_u: float
    passed: bool
    theta: float
    s_theta: float


def linfty_bound_report(u: Field, omega: WeightField, kernel: Kernel,
                        theta: float, s_theta: float,
                        alpha: float) -> BoundReport:
    """Evaluate the closed-form sup-norm bound and compare it to max(u).

    ``s_theta`` is the embedding constant in the convention
    ||v||_theta^p <= s_theta * [v]^p; the level-set argument needs its
    reciprocal, which is substituted internally.  Requires
    p * conj(r) < theta (<= p_star when finite); the induced exponent
    b = (theta/conj(r) - 1)/(p - 1) must exceed 1.
    """
    params = kernel.params
    p = params.p
    r = omega.r
    r_conj = math.inf if r == 1.0 else r / (r - 1.0)
    b = (theta / r_conj - 1.0) / (p - 1.0) if math.isfinite(r_conj) else -1.0
    if b <= 1.0:
        raise FssError(
            f"theta too small: need theta > p * r' (b = {b:.4g} <= 1)"
        )
    if math.isfinite(params.p_star) and theta > params.p_star + 1e-12:
        raise FssError(
            f"theta {theta} exceeds the critical exponent {params.p_star}"
        )
    pma = p - 1.0 + alpha
    c_alpha = (alpha / (p - 1.0)) ** ((p - 1.0) / pma) * (1.0 + (p - 1.0) / alpha)
    weight_norm = norm_r(omega, r)
    volume = kernel.grid.domain_measure
    bound = (
        c_alpha
        * (weight_norm * s_theta) ** (1.0 / pma)
        * 2.0 ** (b * (p - 1.0) / ((b - 1.0) * pma))
        * volume ** ((b - 1.0) * (p - 1.0) / (theta * pma))
    )
    sup_u = float(np.abs(u.values).max())
    return BoundReport(
        c_alpha=float(c_alpha),
        b=float(b),
        bound=float(bound),
        sup_u=sup_u,
        passed=bool(sup_u <= bound),
        theta=float(theta),
        s_theta=float(s_theta),
    )
