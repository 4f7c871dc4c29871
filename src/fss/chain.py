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
damped Newton routine (``solver.newton``, which also runs the stand-alone
solves at p != 2) solves every level and the limit.  Its gradient is
A u - m omega_n (u + 1/n)**(-alpha) and its Hessian H_p(u) + D, with
D = diag(alpha m omega_n (u + 1/n)**(-alpha-1)) and H_p the Hessian of
(1/p)[u]^p (``operators.energy_hessian``).  Each step is cut to go at
most 0.995 of the way to the boundary u + 1/n = 0 and then backtracked
until it passes the Armijo test on J_n (Nocedal & Wright, Numerical
Optimization, 2006, ch. 3 and 19).  A solve stops once the max-norm of
its Newton step is at most its tolerance (``fixed_point_tol`` at a level,
``POLISH_TOL`` at the limit), or, when that tolerance lies below the
double-precision floor, after three steps that neither shrink the step
nor promise a measurable energy decrease; it returns its best iterate
and leaves A u of it in the caller's array.  That one pairwise pass, taken
when the iterate was evaluated, gives the level's
[u_n]^p = <A u_n, u_n> and the gaps of its weak residual over the
seeded probes, and it starts the next level's solve and the polish, so
every point of the walk takes one pass.  The probes' energies are taken
after the walk, and only for the probes that their lower bound cannot
decide (``_level_residuals``).

At p = 2, H_p is the stiffness matrix K and D lives only on S.  Each
step is one solve with K + D on S (``Kernel.support_solve``): the other
nodes are eliminated once per support through the Schur complement C of
K on S, and a step factors only the |S| x |S| matrix C + D.  The
barrier's start is the same solve with D = 0, formed by
``solver.solve_barrier``, so the barrier and every level share one C.
Every other p assembles H_p + D at each step into one M x M work array
per solve and factors it there in place by Cholesky.  For p > 2, H_p
vanishes at u = 0, so the walk starts from the barrier.

Levels are walked along the schedule n = 16^k, k < 40
(``DEFAULT_SCHEDULE``), with warm starts, the first from the barrier psi.
The level solutions increase in n, their energies increase, and they
dominate the barrier m_alpha * psi built from the capped weight.  Once
consecutive levels agree to the chain tolerance the limit is polished:
the same Newton routine on the unregularized energy removes the residual
O(1/n) regularization error.  The sparse
schedule is safe because of that rate: if u_alpha - u_n is about c/n,
the increment from u_n to u_16n is 15 times the distance of u_16n to the
limit, so the last increment bounds how far the polish has to go.  (With
n = 2^k the two are about equal.)  The polish starts from the last level,
where Newton takes a step or two; from psi it would take several more.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field as dc_field

import numpy as np

from .exceptions import FssError, SolverError
from .grid import Kernel, r_alpha
from .operators import (
    Field,
    WeightField,
    apply_operator,
    norm_r,
    seminorm_p,
)
from .sampling import TrialSet, shared_trials
from .solver import SolveOptions, embedding_constant, newton, solve_barrier


# Seeded test fields of the per-level weak residual.
_RESIDUAL_TRIALS = 100
_RESIDUAL_SEED = 7
# The Newton step max-norm that ends the polish of the limit.
POLISH_TOL = 1e-13


@dataclass(frozen=True)
class ChainOptions:
    """Tolerances of the chain's solves.

    ``solve`` sets the barrier solve,
    ``fixed_point_tol`` bounds the Newton step max-norm at every level, and
    the walk stops once consecutive levels differ by at most ``chain_tol``
    in the max norm.
    """

    solve: SolveOptions = dc_field(default_factory=SolveOptions)
    fixed_point_tol: float = 1e-9
    chain_tol: float = 1e-7


def _located(err: SolverError, where: str, **context) -> SolverError:
    """``err`` re-raised with the chain stage ``where`` in its message and
    the ``level``/``sweep``/``alpha`` of ``context`` as attributes."""
    return SolverError(f"{where}: {err}", iterate=err.iterate,
                       grad_norm=err.grad_norm, iterations=err.iterations,
                       **context)


def solve_level(omega: WeightField, n: int, alpha: float, kernel: Kernel,
                init: Field, opts: ChainOptions | None = None,
                au: np.ndarray | None = None) -> tuple[Field, int, float]:
    """Minimize the energy J_n of level ``n`` by damped Newton from
    ``init``: the weight truncated to min(omega, n), the shift 1/n.

    Returns the level solution (strictly positive at every interior node),
    the number of Newton steps, and the max-norm of the step that produced
    the solution.  That max-norm is at most the fixed-point tolerance,
    unless the tolerance lies below the double-precision floor: then the
    solve returns its best iterate after three steps at the floor, and
    the max-norm shows how far it got.  For p > 2 the Hessian vanishes at
    u = 0, so start from a field such as the barrier.  Raises a
    ``SolverError`` naming the level, the step (``sweep``) and alpha when
    a step fails, and its ``StagnationError`` subclass when the step
    budget runs out.  ``au``, when given, is A init, and on return it
    holds A u_n (``solver.newton``): the chain hands it from level to
    level, so no level takes a pairwise pass for its start.
    """
    if n < 1:
        raise ValueError(f"level must be at least 1, got {n}")
    if alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if init.values.min() < 0.0:
        raise ValueError("initial field must be nonnegative")
    opts = opts or ChainOptions()
    u, steps, delta = newton(init.values, np.minimum(omega.values, float(n)),
                             1.0 / n, alpha, kernel, opts.fixed_point_tol,
                             f"level {n} (alpha {alpha:g})", level=n, au=au)
    return Field(u, kernel.grid), steps, delta


@dataclass(frozen=True)
class LevelRecord:
    """Diagnostics stored per chain level.

    The a-priori ceiling on ``seminorm`` is ``existence_bound``.
    """

    n: int
    u: Field
    seminorm: float  # [u_n]^p
    fp_sweeps: int  # Newton steps
    fp_delta: float  # max-norm of the step that produced u_n
    residual: float
    min_value: float
    max_value: float

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
    polish_sweeps: int  # Newton steps at the limit
    energy_identity_gap: float

    @property
    def barrier(self) -> Field:
        return self.m_alpha * self.psi

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


def _level_residuals(gaps: np.ndarray, probes: TrialSet,
                     kernel: Kernel) -> np.ndarray:
    """Weak residual max_k |gap_k| / (1 + [phi_k]) of each level over the
    probes phi_k, from the (levels, probes) array ``gaps`` of
    |<A u_n, phi_k> - source_n . phi_k| (cell measures in the source).

    Only a few probes take their energy [phi]^p, in two blocks after the
    walk.  The kept lower bound L(phi) (``TrialSet.bounds``) lies below
    the computed [phi]^p by far more than the rounding of a power, a sum
    or a division, and those are monotone, so the cap
    |gap| / (1 + L(phi)^(1/p)) is at least the probe's ratio in floating
    point too.  First each level's probe with the largest cap takes its
    energy, then every probe whose cap exceeds the largest ratio so far
    of some level.  Every other probe's ratio lies within that level's
    maximum, which is therefore the maximum over every probe: bitwise at
    p != 2, to rounding at p = 2, where an energy depends on its block
    (``block_seminorm_p``).
    """
    p = kernel.params.p
    caps = gaps / (1.0 + probes.bounds(kernel) ** (1.0 / p))

    def ratios(rows: np.ndarray) -> np.ndarray:
        norms = probes.energies(kernel, rows) ** (1.0 / p)
        return gaps[:, rows] / (1.0 + norms)

    residuals = ratios(caps.argmax(axis=1)).max(axis=1)
    rest = np.flatnonzero((caps > residuals[:, None]).any(axis=0))
    return np.maximum(residuals, ratios(rest).max(axis=1, initial=0.0))


def existence_bound(omega: WeightField, alpha: float,
                    kernel: Kernel) -> float | None:
    """A-priori ceiling for the energy [u_n]^p of every level of the chain
    at ``alpha``, when there is one.

    alpha = 1 gives the plain mass bound |w|_1.  alpha < 1 combines the
    weight norm at the threshold exponent r_alpha with the embedding
    constant at theta = (1 - alpha) * conjugate(r_alpha), which is the
    critical exponent p_star when s*p < N and 1 otherwise, independently
    of alpha; that constant is solved here (``embedding_constant``, exact
    at theta = 1).  alpha > 1 has no such bound and gives None; its
    chains are bounded through ``power_seminorms`` instead.
    """
    params = kernel.params
    p = params.p
    if alpha == 1.0:
        return omega.norm_1
    if alpha > 1.0:
        return None
    theta = params.p_star if params.sp < params.n_dim else 1.0
    weight_norm = norm_r(omega, r_alpha(alpha, params))
    # [u]^(p-(1-a)) <= |w|_{r_a} S^((1-a)/p), stated for the seminorm itself.
    rhs = weight_norm * embedding_constant(theta, kernel).value ** (
        (1.0 - alpha) / p)
    return rhs ** (p / (p - (1.0 - alpha)))


def power_seminorms(chain: ChainResult) -> list[float]:
    """[u_n^((alpha - 1 + p)/p)]^p at each level of ``chain``, in level
    order.  For alpha > 1 (compactly supported weight) the a-priori
    estimates bound the energies of these powers, not those of u_n."""
    kernel = chain.kernel
    exponent = (chain.alpha - 1.0 + kernel.params.p) / kernel.params.p
    return [seminorm_p(Field(rec.u.values**exponent, kernel.grid), kernel)
            for rec in chain.levels]


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


# The largest level: float(n) in ``solve_level`` overflows for n from
# 2**1024 - 2**970 on.
LARGEST_LEVEL = int(sys.float_info.max)
DEFAULT_SCHEDULE = tuple(16**k for k in range(40))


def run_chain(omega: WeightField, alpha: float, kernel: Kernel,
              schedule=None, opts: ChainOptions | None = None,
              init: Field | None = None) -> ChainResult:
    """Walk the approximation levels and extract the singular limit.

    ``schedule`` is an increasing sequence of integer levels from 1 on,
    floats and bools refused (default: ``DEFAULT_SCHEDULE``, whose
    increments bound each level's distance to the limit).  The first
    level starts from ``init`` (default: the barrier; nonnegative), every
    later one from its predecessor, and a schedule or ``init`` that
    breaks these rules is refused before anything is solved.  The walk
    stops once consecutive level solutions differ by at most the chain
    tolerance in the max norm, then polishes the limit; exhausting the
    schedule yields an unpolished result flagged as non-converged.
    alpha > 1 requires a weight that vanishes within one cell of the
    boundary.  The chain solves only the barrier, the levels and the
    polish: the a-priori ceiling of its energies is ``existence_bound``,
    and the alpha > 1 power seminorms are ``power_seminorms``.  A
    ``SolverError`` of the barrier is re-raised naming that stage and
    alpha; one of a level or of the polish names it, the Newton step and
    alpha.
    """
    opts = opts or ChainOptions()
    _validate_alpha(omega, alpha, kernel)
    schedule = DEFAULT_SCHEDULE if schedule is None else list(schedule)
    for n in schedule:
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise ValueError(f"level {n!r} is not an integer")
    schedule = [int(n) for n in schedule]
    if not schedule:
        raise ValueError("schedule must contain at least one level")
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule must be strictly increasing")
    if schedule[-1] > LARGEST_LEVEL:
        raise ValueError(f"level {schedule[-1]} overflows a float: no level "
                         "may exceed the largest float, about 1.8e308")
    if schedule[0] < 1:
        raise ValueError(f"level must be at least 1, got {schedule[0]}")
    if init is not None and init.values.min() < 0.0:
        raise ValueError("initial field must be nonnegative")

    params = kernel.params
    try:
        psi = solve_barrier(omega, kernel, opts.solve)
    except SolverError as err:
        raise _located(err, f"barrier (alpha {alpha:g})", alpha=alpha) from err

    # The probes depend only on the kernel, so one draw serves every chain
    # on it (a sweep runs several).
    probes = shared_trials(kernel, _RESIDUAL_SEED, _RESIDUAL_TRIALS)
    walk, gaps = [], []
    prev: Field | None = None
    converged = False
    final_increment = math.inf
    # A u of the next solve's start, which each level's solve overwrites
    # with A u_n, so no point of the walk takes a second pairwise pass.
    au = apply_operator(init or psi, kernel)
    for n in schedule:
        start = prev if prev is not None else (init or psi)
        u_n, sweeps, delta = solve_level(omega, n, alpha, kernel, start, opts,
                                         au=au)
        # [u_n]^p = <A u_n, u_n>, and the probes' residual gaps.
        source = kernel.grid.measure * np.minimum(omega.values, float(n)) / (
            u_n.values + 1.0 / n) ** alpha
        gaps.append(np.abs(probes.fields @ (au - source)))
        walk.append((n, u_n, float(u_n.values @ au), sweeps, delta))
        if prev is not None:
            final_increment = (u_n - prev).max_norm()
            if final_increment <= opts.chain_tol:
                converged = True
                prev = u_n
                break
        prev = u_n
    levels = [
        LevelRecord(n=n, u=u_n, seminorm=sn, fp_sweeps=sweeps,
                    fp_delta=delta, residual=float(residual),
                    min_value=float(u_n.values.min()),
                    max_value=float(u_n.values.max()))
        for (n, u_n, sn, sweeps, delta), residual
        in zip(walk, _level_residuals(np.array(gaps), probes, kernel))]

    m_alpha = (levels[0].max_value + 1.0) ** (-alpha / (params.p - 1.0))
    u_final, polish_sweeps = prev, 0
    if converged:
        values, polish_sweeps, _ = newton(
            prev.values, omega.values, 0.0, alpha, kernel, POLISH_TOL,
            f"polish (alpha {alpha:g})", au=au)
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
        polish_sweeps=polish_sweeps,
        energy_identity_gap=float(gap),
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

    For each of the ``trials`` (at least one) seeded fields v this measures
    |pairing(u, v) - sum m w v / u^alpha| / (1 + [v]), and also the slack
    of the duality estimate |sum m w v / u^alpha| <= [u]^(p-1) [v].
    The fields are kept on the kernel (``sampling.shared_trials``), so a
    later check of the same trials draws none of them again and reuses
    the energies taken here.  Requires u strictly positive at every
    interior node.

    Only a few trials take their energy [v]^p.  The kept lower bound L(v)
    (``operators.energy_lower_bound``) lies below the computed [v]^p by
    far more than the rounding of a power, a sum or a division, and
    those are monotone, so l = L(v)^(1/p) gives, in floating point too,

        |gap| / (1 + l) >= |gap| / (1 + [v]),
        [u]^(p-1) l - |sum m w v / u^alpha| <= the slack,

    with gap = pairing(u, v) - sum m w v / u^alpha computed for every
    trial, as the rest of each term is.  The trial with the largest first
    bound and the trial with the smallest second bound take their energies
    first.  Then every trial whose first bound exceeds the largest ratio
    so far, or whose second bound lies below the smallest slack so far,
    takes its energy, all of them together (``TrialSet.energies``).
    Every other trial has a ratio and a slack within those, so the
    maximum and the minimum are those of evaluating every trial: bitwise
    at p != 2, where a trial's energy does not depend on its block, and
    to rounding at p = 2 (``block_seminorm_p``).
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if u.values.min() <= 0.0:
        raise FssError("not an interior-positive field")
    p = kernel.params.p
    source = kernel.grid.measure * omega.values / u.values**alpha
    trial = shared_trials(kernel, seed, trials)
    gap = np.abs(trial.fields @ (apply_operator(u, kernel) - source))
    pull = np.abs(trial.fields @ source)
    scale = seminorm_p(u, kernel) ** ((p - 1.0) / p)

    def extremes(rows: np.ndarray) -> tuple[float, float]:
        norms = trial.energies(kernel, rows) ** (1.0 / p)
        return (float((gap[rows] / (1.0 + norms)).max()),
                float((scale * norms - pull[rows]).min()))

    floors = trial.bounds(kernel) ** (1.0 / p)
    ratio_caps = gap / (1.0 + floors)
    slack_floors = scale * floors - pull
    ratio, slack = extremes(np.array([ratio_caps.argmax(),
                                      slack_floors.argmin()]))
    rest = np.flatnonzero((ratio_caps > ratio) | (slack_floors < slack))
    if rest.size:
        rest_ratio, rest_slack = extremes(rest)
        ratio, slack = max(ratio, rest_ratio), min(slack, rest_slack)
    return ResidualReport(max_residual=ratio, aux_min_slack=slack,
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
                        theta: float, alpha: float) -> BoundReport:
    """Evaluate the closed-form sup-norm bound and compare it to max(u).

    Requires p * conj(r) < theta (<= p_star when finite); the induced
    exponent b = (theta/conj(r) - 1)/(p - 1) must exceed 1.  Once theta
    passes those checks, the bound takes the embedding constant s_theta,
    in the convention ||v||_theta^p <= s_theta * [v]^p, from
    ``embedding_constant``; the level-set argument needs its reciprocal,
    which is substituted internally.
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
    s_theta = embedding_constant(theta, kernel).value
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
