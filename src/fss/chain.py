"""Monotone approximation chain for the singular nonlocal problem.

The singular problem asks for a positive field u, vanishing outside the
domain, with

    (nonlocal p-operator) u = omega / u**alpha .

Its energy is not differentiable, so u is reached through regularized
levels indexed by n: truncate the weight at height n and shift the
denominator by 1/n,

    (nonlocal p-operator) u_n = min(omega, n) / (u_n + 1/n)**alpha .

Each level is solved as a fixed point of the map T that sends w to the
solution of the nonsingular problem with frozen datum
min(omega, n) / (|w| + 1/n)**alpha.  T is order-reversing, so the plain
Picard iteration oscillates (with rate approaching 1 for alpha = 1 and
large n).  The half-averaged map w -> (w + T(w)) / 2 damps the
oscillation, but contracts only at a rate of about 1/2, and every sweep is
a full nonlinear solve.  The sweeps therefore feed the next solve an
Anderson-mixed iterate (Walker & Ni, SIAM J. Numer. Anal. 49 (2011)): the
averaged image corrected by the least-squares combination of the last
three iterate and residual differences.  The mixer restarts from the
plain averaged step whenever the mixed iterate is non-finite or has a
node <= 0, so every frozen datum stays defined and the iterates stay
strictly positive.  The stop test is unchanged, half the sweep difference
(1/2)|T w - w|_inf against the fixed-point tolerance, and the returned
level solution is the averaged image (w + T w)/2 of the last iterate.

Levels are walked along a geometric schedule with warm starts.  The level
solutions increase in n, their energies increase, and they dominate the
barrier m_alpha * psi built from the capped weight.  After the schedule
converges, the limit is polished by the same Anderson-mixed averaged
sweeps applied to the unregularized datum omega / w**alpha, which remove
the residual O(1/n) regularization error; the polish stops on the same
quantity (1/2)|T w - w|_inf at the polish tolerance, or once it has not
improved for six sweeps, and returns the best averaged image.

At p = 2 the operator is linear, and T w is one linear solve with the
same symmetric positive definite stiffness matrix K at every sweep, every
level and in the polish.  The chain factors K once (the kernel's cached
Cholesky factor), so T is one triangular solve pair: the barrier, every
sweep and every polish sweep start from that direct solution, and the
L-BFGS solver only certifies it, checking the gradient against its
tolerance after one evaluation (it refines a start that misses).  Other p
start each solve from the current iterate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace

import numpy as np
from scipy.linalg import cho_solve

from .exceptions import FssError, SolverError, StagnationError
from .grid import Kernel, r_alpha
from .operators import (
    Field,
    WeightField,
    apply_operator,
    norm_r,
    seminorm_p,
)
from .sampling import trial_fields
from .solver import (
    EmbeddingConstant,
    SolveOptions,
    embedding_for_existence_bound,
    solve_barrier,
    solve_nonsingular,
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


# Number of past differences the Anderson mixer of the fixed-point sweeps
# combines.
_ANDERSON_MEMORY = 3


@dataclass(frozen=True)
class ChainOptions:
    """Tolerances for the fixed-point sweeps, the n-schedule, and polish."""

    solve: SolveOptions = dc_field(default_factory=SolveOptions)
    fixed_point_tol: float = 1e-9
    max_fixed_point_sweeps: int = 500
    chain_tol: float = 1e-7
    max_levels: int = 40
    polish_tol: float = 1e-13
    max_polish_sweeps: int = 400
    residual_trials: int = 100
    residual_seed: int = 7


def _start(datum: np.ndarray, kernel: Kernel, x0: Field | None) -> Field | None:
    """Start of a chain solve with this datum: at p = 2 the direct solution
    of K u = m datum by the kernel's cached Cholesky factor, else ``x0``."""
    if kernel.params.p != 2.0:
        return x0
    u = cho_solve(kernel.stiffness_factor, kernel.grid.measure * datum,
                  check_finite=False)
    return Field(u, kernel.grid)


def _located(err: SolverError, where: str, **context) -> SolverError:
    """``err`` re-raised with the chain stage ``where`` in its message and
    the ``level``/``sweep``/``alpha`` of ``context`` as attributes."""
    return SolverError(f"{where}: {err}", iterate=err.iterate,
                       grad_norm=err.grad_norm, iterations=err.iterations,
                       **context)


def fixed_point_step(problem: RegularizedProblem, kernel: Kernel, w: Field,
                     opts: SolveOptions | None = None) -> Field:
    """One application of T: solve with datum omega_n / (|w| + 1/n)^alpha.

    Starts from w, or at p = 2 from the direct solution (see ``_start``).
    """
    datum = problem.omega_n.values / (
        np.abs(w.values) + problem.shift
    ) ** problem.alpha
    return solve_nonsingular(datum, kernel, opts, x0=_start(datum, kernel, w))


class _AndersonMixer:
    """Anderson acceleration (Walker & Ni 2011) of an averaged fixed-point map.

    ``step(x, g)`` takes an iterate x and its averaged image
    g = (x + T x)/2, so the residual is f = g - x.  Over the last
    ``_ANDERSON_MEMORY`` differences it picks the coefficients gamma that
    minimize |f - dF gamma|_2 and returns g - dG gamma, where dG = dX + dF.
    The first step, and every step after a restart, is g itself.  It
    restarts (drops its history and returns g) whenever the mixed iterate
    is non-finite or has a node <= 0, so every iterate stays strictly
    positive and the singular data stay defined.
    """

    def __init__(self):
        self._x: list[np.ndarray] = []
        self._g: list[np.ndarray] = []

    def step(self, x: np.ndarray, g: np.ndarray) -> np.ndarray:
        self._x.append(x)
        self._g.append(g)
        if len(self._x) > _ANDERSON_MEMORY + 1:
            del self._x[0], self._g[0]
        if len(self._x) == 1:
            return g
        d_g = np.diff(self._g, axis=0).T
        d_f = d_g - np.diff(self._x, axis=0).T
        gamma = np.linalg.lstsq(d_f, g - x, rcond=None)[0]
        mixed = g - d_g @ gamma
        if np.all(np.isfinite(mixed)) and mixed.min() > 0.0:
            return mixed
        self._x.clear()
        self._g.clear()
        return g


def solve_level(problem: RegularizedProblem, kernel: Kernel, init: Field,
                opts: ChainOptions | None = None) -> tuple[Field, int]:
    """Anderson-mixed sweeps of the averaged map w -> (w + T w)/2 until
    half the sweep difference, (1/2)|T w - w|_inf, drops below the
    fixed-point tolerance.

    Returns the averaged image (w + T w)/2 of the last iterate (strictly
    positive at every interior node) and the number of sweeps used.
    Raises ``StagnationError`` when the sweep budget runs out, and
    re-raises a ``SolverError`` of a sweep; both name the level, the
    sweep and alpha.
    """
    opts = opts or ChainOptions()
    if init.values.min() < 0.0:
        raise ValueError("initial field must be nonnegative")
    context = dict(level=problem.level, alpha=problem.alpha)
    where = f"level {problem.level} (alpha {problem.alpha:g})"
    mixer = _AndersonMixer()
    w = init
    history: list[float] = []
    for sweep in range(1, opts.max_fixed_point_sweeps + 1):
        try:
            image = fixed_point_step(problem, kernel, w, opts.solve)
        except SolverError as err:
            raise _located(err, f"{where}, sweep {sweep}", sweep=sweep,
                           **context) from err
        new = 0.5 * (w + image)
        delta = (new - w).max_norm()
        history.append(delta)
        if delta <= opts.fixed_point_tol:
            w = new
            break
        w = w.with_values(mixer.step(w.values, new.values))
    else:
        raise StagnationError(
            f"fixed-point sweeps stagnated at {where} after {sweep} sweeps "
            f"(last difference {history[-1]:.3e})",
            iterate=w,
            history=history,
            sweep=sweep,
            **context,
        )
    if w.values.min() <= 0.0:
        raise SolverError(f"{where}, sweep {sweep}: level solution is not "
                          "strictly positive", iterate=w.values, sweep=sweep,
                          **context)
    return w, sweep


@dataclass(frozen=True)
class LevelRecord:
    """Diagnostics stored per chain level."""

    n: int
    u: Field
    seminorm: float  # [u_n]^p
    fp_sweeps: int
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
    polish_sweeps: int
    polish_delta: float
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


def _polish(u: Field, omega: WeightField, alpha: float, kernel: Kernel,
            opts: ChainOptions) -> tuple[Field, int, float]:
    """Anderson-mixed averaged sweeps on the unregularized datum.

    Starting from the converged chain limit (strictly positive), this
    removes the remaining O(1/n) regularization error.  Each sweep
    measures delta = (1/2)|T w - w|_inf for the map T with datum
    omega / w^alpha and keeps the averaged image (w + T w)/2 with the
    smallest delta.  Stops at the polish tolerance or when delta has not
    improved for six sweeps (double precision floor).  A solve that fails
    without an iterate is re-raised naming the polish, the sweep and alpha.
    """
    tight = replace(opts.solve, grad_tol=min(opts.solve.grad_tol, 1e-12),
                    max_iter=max(opts.solve.max_iter, 20000))
    mixer = _AndersonMixer()
    w = u
    best = w
    best_delta = math.inf
    stale = 0
    sweeps = 0
    for sweeps in range(1, opts.max_polish_sweeps + 1):
        datum = omega.values / w.values**alpha
        try:
            image = solve_nonsingular(datum, kernel, tight,
                                      x0=_start(datum, kernel, w))
        except SolverError as err:
            if err.iterate is None:
                raise _located(err, f"polish (alpha {alpha:g}), sweep {sweeps}",
                               sweep=sweeps, alpha=alpha) from err
            # Solve hit the floating-point floor; its iterate is still the
            # best available refinement.
            image = Field(err.iterate, kernel.grid)
        new = 0.5 * (w + image)
        delta = (new - w).max_norm()
        if delta < best_delta:
            best, best_delta = new, delta
            stale = 0
        else:
            stale += 1
        if delta <= opts.polish_tol or stale >= 6:
            break
        w = w.with_values(mixer.step(w.values, new.values))
    return best, sweeps, best_delta


def run_chain(omega: WeightField, alpha: float, kernel: Kernel,
              schedule=None, opts: ChainOptions | None = None,
              embedding: EmbeddingConstant | None = None,
              init: Field | None = None) -> ChainResult:
    """Walk the approximation levels and extract the singular limit.

    ``schedule`` is an increasing sequence of levels (default: powers of
    two).  Levels are warm-started from their predecessor and the walk
    stops once consecutive level solutions differ by at most the chain
    tolerance in the max norm, then polishes the limit; exhausting the
    schedule yields an unpolished result flagged as non-converged.  For
    alpha <= 1 the a-priori energy ceiling is recorded per level; alpha > 1
    requires a compactly supported weight and records the auxiliary power
    seminorms instead.  A ``SolverError`` of the barrier or of the
    embedding-constant search is re-raised naming that stage and alpha.
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
    try:
        psi = solve_barrier(omega, kernel, opts.solve,
                            x0=_start(np.minimum(omega.values, 1.0), kernel,
                                      None))
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
    m_alpha = math.nan
    barrier: Field | None = None
    converged = False
    final_increment = math.inf
    for n in schedule:
        problem = make_level(omega, n, alpha)
        start = prev if prev is not None else (init or Field.zero(kernel.grid))
        u_n, sweeps = solve_level(problem, kernel, start, opts)
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
        if barrier is None:
            m_alpha = (u_n.values.max() + 1.0) ** (-alpha / (params.p - 1.0))
            barrier = m_alpha * psi
        if prev is not None:
            final_increment = (u_n - prev).max_norm()
            if final_increment <= opts.chain_tol:
                converged = True
                prev = u_n
                break
        prev = u_n

    u_final = prev if prev is not None else levels[-1].u
    polish_sweeps = 0
    polish_delta = math.inf
    if converged:
        u_final, polish_sweeps, polish_delta = _polish(
            u_final, omega, alpha, kernel, opts
        )

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
        barrier=barrier,
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
