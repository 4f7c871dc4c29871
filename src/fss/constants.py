"""Sharp constants of the weighted Sobolev-type inequalities.

For singularity strength alpha in (0, 1) the inequality

    C * (sum m w |v|^(1-alpha))^(p/(1-alpha))  <=  [v]^p

holds for every discrete field exactly when C is at most the best
constant lambda_alpha, attained (up to sign and scale) by the normalized
singular solution.  As alpha -> 1- the rescaled constants
lambda_alpha * |w|_1^(p/(1-alpha)) increase to the best constant mu of the
limiting inequality

    mu * exp((p/|w|_1) * sum m w log|v|)  <=  [v]^p ,

whose extremal V is a positive multiple of the alpha = 1 singular
solution, normalized to zero weighted log-mean.

Exponents like p/(1-alpha) reach several hundred near alpha = 1, so all
scale factors are assembled in log space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .chain import ChainOptions, ChainResult, run_chain
from .exceptions import FssError
from .grid import Kernel, r_alpha
from .operators import (Field, WeightField, block_seminorm_p,
                        energy_lower_bound, exterior_lower_bound,
                        log_functional, seminorm_p)
from .sampling import TrialSet, shared_trials, trial_chunks

# The first trials of a certification, shared with the weak residual that
# ``fss verify`` runs before it and kept on the kernel
# (``sampling.shared_trials``).  Like the later trials, they take their
# energy only when its lower bound cannot decide them, and an energy the
# weak residual took is not taken again.
SHARED_TRIALS = 200


@dataclass(frozen=True)
class SingularSolution:
    """Singular solution with its normalized and mass-rescaled extremals.

    ``extremal`` has unit weighted (1-alpha)-mass; ``scaled_extremal``
    carries the extra mass factor |w|_1^(1/(1-alpha)) appearing in the
    alpha -> 1 limit.  ``lam`` is the attained best constant, equal to the
    energy of ``extremal``.
    """

    alpha: float
    u: Field
    omega: WeightField
    kernel: Kernel
    lam: float
    log_lam: float
    normalizer: float  # multiplies u to give the unit-mass extremal
    extremal: Field
    scaled_extremal: Field
    seminorm_u: float
    chain: ChainResult | None = None


def _weighted_power_mass(values: np.ndarray, omega: WeightField,
                         alpha: float) -> np.ndarray:
    """sum_i m w_i |v_i|^(1-alpha) along the last axis of ``values``: one
    field's mass, or one per row of a block."""
    return omega.grid.measure * (
        omega.values * np.abs(values) ** (1.0 - alpha)).sum(axis=-1)


def lambda_alpha(chain: ChainResult) -> SingularSolution:
    """Best constant and extremals from a converged chain, alpha < 1.

    The constant is computed two ways, from the closed-form exponent of
    the solution energy and as the energy of the normalized extremal;
    both must agree to 1e-9 relative, which certifies the chain limit.
    """
    if not chain.converged:
        raise FssError("chain did not converge; no best constant available")
    return solution_from_field(chain.u_alpha, chain.omega, chain.kernel,
                               chain.alpha, chain=chain)


def solution_from_field(u: Field, omega: WeightField, kernel: Kernel,
                        alpha: float,
                        chain: ChainResult | None = None) -> SingularSolution:
    """Build the extremal data from a singular-solution field directly.

    Used both by the chain reduction and when re-validating a persisted
    solution; the two-way constant agreement check still applies, so a
    field that does not actually solve the singular problem is rejected.
    """
    if alpha >= 1.0:
        raise FssError("alpha = 1 has no power-mean constant; "
                       "use estimate_mu_direct")
    p = kernel.params.p
    sn = seminorm_p(u, kernel)
    mass = float(_weighted_power_mass(u.values, omega, alpha))
    log_normalizer = -math.log(mass) / (1.0 - alpha)
    # exp leaves the double range near +-709; fail with advice instead of
    # surfacing a bare overflow
    if abs(log_normalizer) * max(1.0, p - 1.0 + alpha) > 700.0:
        raise FssError(
            f"the normalized extremal and its constant are not "
            f"representable in doubles at alpha = {alpha} "
            f"(normalizer exponent {log_normalizer:.1f}); rescale the "
            "weight so the solution mass sits closer to 1"
        )
    normalizer = math.exp(log_normalizer)
    extremal = normalizer * u
    lam_attained = seminorm_p(extremal, kernel)
    log_lam_formula = (1.0 - alpha - p) / (1.0 - alpha) * math.log(sn)
    lam_formula = (math.exp(log_lam_formula) if log_lam_formula <= 709.0
                   else math.inf)
    agreement = abs(lam_formula - lam_attained) / lam_attained
    if not (agreement <= 1e-9):
        raise FssError(
            f"best-constant computations disagree by {agreement:.3e} "
            "(chain limit not converged enough)"
        )
    # assemble the mass rescaling jointly with the normalizer: the two
    # factors diverge separately as alpha -> 1 while their product tends
    # to the geometric-mean rescaling, so only the combined exponent is
    # numerically safe
    combined = math.exp((math.log(omega.norm_1) - math.log(mass))
                        / (1.0 - alpha))
    scaled = combined * u
    return SingularSolution(
        alpha=alpha,
        u=u,
        omega=omega,
        kernel=kernel,
        lam=float(lam_attained),
        log_lam=float(math.log(lam_attained)),
        normalizer=float(normalizer),
        extremal=extremal,
        scaled_extremal=scaled,
        seminorm_u=float(sn),
        chain=chain,
    )


@dataclass(frozen=True)
class CertificationReport:
    """Outcome of a randomized inequality certification."""

    trials: int
    min_slack: float          # most negative absolute slack observed
    min_slack_rel: float      # min slack / [v]^p over trials
    violations: int           # trials with slack < -1e-8 * [v]^p
    extremal_max_rel: float   # max |slack| / [v]^p over extremal multiples
    constant: float


def verify_sobolev(solution: SingularSolution, trials: int = 1000,
                   seed: int = 0, constant: float | None = None,
                   extremal_scales=(-2.0, 0.5, 1.0),
                   extra_fields=()) -> CertificationReport:
    """Check the power-mean inequality on random fields and on extremal
    multiples.

    With the attained best constant the slack must be nonnegative (up to
    -1e-8 relative) on every trial, and zero at scalar multiples of the
    extremal; any larger constant must be caught violating at the
    extremal itself.  ``extra_fields`` lets callers inject adversarial
    candidates beyond the seeded trials.
    """
    alpha = solution.alpha
    kernel, omega = solution.kernel, solution.omega
    p = kernel.params.p
    log_c = math.log(constant) if constant is not None else solution.log_lam

    def term(block: np.ndarray) -> np.ndarray:
        mass = _weighted_power_mass(block, omega, alpha)
        return np.exp(log_c + p / (1.0 - alpha) * _log_or_minus_inf(mass))

    return _certify(term, math.exp(log_c), kernel, solution.extremal, trials,
                    seed, extremal_scales, extra_fields)


def _log_or_minus_inf(x: np.ndarray) -> np.ndarray:
    """Nodewise log x, with -inf where x is zero (and no warning)."""
    return np.log(x, out=np.full(x.shape, -math.inf), where=x > 0.0)


def _slacks(energy: list, rhs: list):
    """The energies, slacks and relative slacks (0 where the energy is
    not positive) of the evaluated blocks."""
    energy = np.concatenate(energy)
    slack = energy - np.concatenate(rhs)
    return energy, slack, np.divide(slack, energy, out=np.zeros_like(slack),
                                    where=energy > 0.0)


def _certify(term, constant: float, kernel: Kernel, extremal: Field,
             trials: int, seed: int, extremal_scales,
             extra_fields) -> CertificationReport:
    """Summarize the slack [v]^p - term(v) over the seeded trial fields,
    ``extra_fields`` and the nonzero multiples of the extremal.

    ``term`` maps a block of fields, one per row, to the array of its
    right-hand sides, which are nonnegative.  The extra fields and the
    multiples form one block, evaluated first; then come the first
    ``SHARED_TRIALS`` trials, those kept on the kernel
    (``sampling.shared_trials``), and the rest, drawn in the chunks of
    ``sampling.trial_chunks``.  Most trials are decided without their
    energy.

    Every trial's energy is bounded from below by
    L'(v) = ``operators.energy_lower_bound``, in O(M), and the computed
    [v]^p is at least L'.  The report keeps only minima and a count of
    relative slacks below -1e-8.  A trial with r = term(v) and L' > 0,
    L' - r > min_slack and 1 - r / L' > max(min_rel, -1e-8), against the
    minima of the rows evaluated so far, therefore has a slack and a
    relative slack that strictly exceed those minima, and it is no
    violation: it cannot change the report, and its energy is skipped.
    The shared trials are decided so against the minima of the first
    block, and each later chunk against those of every row evaluated
    before it.  A later chunk is decided first by the exterior part of L'
    alone (``operators.exterior_lower_bound``), a lower bound too that
    decides most rows at a fraction of the cost, and only the rows it
    leaves undecided take L'.  Every other trial of a chunk, with r
    infinite or NaN among them, takes its energy in one block, or from the
    kernel when the weak residual already took it.  A decided row never
    lowers a minimum, so the report equals that of evaluating every row:
    bitwise at p != 2, where a row's energy does not depend on its block,
    and to rounding at p = 2 (``block_seminorm_p``).
    """
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")
    multiples = np.multiply.outer(extremal_scales, extremal.values)
    multiples = multiples[multiples.any(axis=1)]
    tail = np.array([v.values for v in extra_fields] + list(multiples))
    tail = tail.reshape(-1, extremal.values.size)
    energy, rhs = [block_seminorm_p(tail, kernel)], [term(tail)]

    def undecided(bound: np.ndarray, r: np.ndarray) -> np.ndarray:
        """Whether each row's bound leaves it able to lower a minimum."""
        _, slack, rel = _slacks(energy, rhs)
        with np.errstate(divide="ignore", invalid="ignore"):
            return ~((bound > 0.0)
                     & (bound - r > slack.min(initial=math.inf))
                     & (1.0 - r / bound
                        > max(rel.min(initial=math.inf), -1e-8)))

    def evaluate(trial: TrialSet, r: np.ndarray, rows: np.ndarray):
        energy.append(trial.energies(kernel, rows))
        rhs.append(r[rows])

    shared = min(trials, SHARED_TRIALS)
    if shared:
        trial = shared_trials(kernel, seed, shared)
        r = term(trial.fields)
        evaluate(trial, r, np.flatnonzero(undecided(trial.bounds(kernel), r)))
    for block in trial_chunks(kernel.grid, seed, trials, start=shared):
        r = term(block)
        rows = np.flatnonzero(undecided(exterior_lower_bound(block, kernel),
                                        r))
        rows = rows[undecided(energy_lower_bound(block[rows], kernel),
                              r[rows])]
        evaluate(TrialSet(block), r, rows)
    energy, slack, rel = _slacks(energy, rhs)
    at_extremal = slice(len(tail) - len(multiples), len(tail))
    return CertificationReport(
        trials=trials,
        min_slack=float(slack.min(initial=math.inf)),
        min_slack_rel=float(rel.min(initial=math.inf)),
        violations=int((rel < -1e-8).sum()),
        extremal_max_rel=float((np.abs(slack[at_extremal])
                                / energy[at_extremal]).max(initial=0.0)),
        constant=float(constant),
    )


@dataclass(frozen=True)
class SweepRecord:
    """Best-constant data at one sweep exponent."""

    alpha: float
    lam: float
    log_lam: float
    scaled: float             # lambda * |w|_1^(p/(1-alpha)), from log space
    log_scaled: float
    seminorm_scaled_extremal: float   # [V_alpha]^p, computed directly
    converged: bool
    solution: SingularSolution | None
    chain: ChainResult | None


@dataclass(frozen=True)
class SweepResult:
    records: tuple[SweepRecord, ...]

    @property
    def converged_records(self) -> list[SweepRecord]:
        return [r for r in self.records if r.converged]

    def monotonicity_gap(self) -> float:
        """Worst relative decrease of the scaled constants along the grid."""
        recs = self.converged_records
        worst = 0.0
        for a, b in zip(recs, recs[1:]):
            worst = max(worst, -(b.log_scaled - a.log_scaled))
        return worst


def sweep_alpha(omega: WeightField, alpha_grid, kernel: Kernel,
                opts: ChainOptions | None = None) -> SweepResult:
    """Solve the singular problem along an increasing alpha grid.

    Each point is chain-solved (warm-started from the previous exponent)
    and reduced to its best constant.  Validates r >= r_alpha at every
    grid point, asserts that the scaled constants are nondecreasing
    (1e-8 relative slack), and cross-checks [V_alpha]^p against the
    log-space scaled constant to 1e-8 relative.
    """
    opts = opts or ChainOptions()
    grid_points = [float(a) for a in alpha_grid]
    if not grid_points:
        raise ValueError("alpha grid must not be empty")
    if any(not (0.0 < a < 1.0) for a in grid_points):
        raise ValueError("alpha grid must lie strictly inside (0, 1)")
    if any(b <= a for a, b in zip(grid_points, grid_points[1:])):
        raise ValueError("alpha grid must be strictly increasing")
    for a in grid_points:
        needed = r_alpha(a, kernel.params)
        if omega.r < needed - 1e-12:
            raise FssError(
                f"weight integrability r = {omega.r} is below the "
                f"threshold r_alpha = {needed:.6g} at alpha = {a}"
            )

    records: list[SweepRecord] = []
    warm: Field | None = None
    for a in grid_points:
        chain = run_chain(omega, a, kernel, opts=opts, init=warm)
        if not chain.converged:
            records.append(SweepRecord(
                alpha=a, lam=math.nan, log_lam=math.nan, scaled=math.nan,
                log_scaled=math.nan, seminorm_scaled_extremal=math.nan,
                converged=False, solution=None, chain=chain,
            ))
            continue
        warm = chain.u_alpha
        sol = lambda_alpha(chain)
        p = kernel.params.p
        log_scaled = sol.log_lam + p / (1.0 - a) * math.log(omega.norm_1)
        sn_scaled = seminorm_p(sol.scaled_extremal, kernel)
        rel = abs(math.log(sn_scaled) - log_scaled)
        if not (rel <= 1e-8):
            raise FssError(
                f"scaled extremal energy mismatch at alpha = {a}: "
                f"relative gap {rel:.3e}"
            )
        records.append(SweepRecord(
            alpha=a,
            lam=sol.lam,
            log_lam=sol.log_lam,
            scaled=float(math.exp(log_scaled)),
            log_scaled=float(log_scaled),
            seminorm_scaled_extremal=float(sn_scaled),
            converged=True,
            solution=sol,
            chain=chain,
        ))
    result = SweepResult(records=tuple(records))
    if result.monotonicity_gap() > 1e-8:
        raise FssError(
            f"scaled constants decreased along the sweep by "
            f"{result.monotonicity_gap():.3e} (relative)"
        )
    return result


@dataclass(frozen=True)
class MuEstimate:
    """Log-inequality constant, by direct solve and by sweep limit."""

    mu_direct: float
    extremal: Field                  # V, zero weighted log-mean
    u_star: Field                    # alpha = 1 singular solution
    log_mean_residual: float         # sum m w log V (should be ~0)
    omega: WeightField
    kernel: Kernel
    mu_sweep: float | None = None
    trend: str | None = None         # converged | still-rising | diverging
    alpha_grid: tuple[float, ...] | None = None
    scaled_values: tuple[float, ...] | None = None
    chain: ChainResult | None = None


def estimate_mu_direct(omega: WeightField, kernel: Kernel,
                       opts: ChainOptions | None = None,
                       chain: ChainResult | None = None) -> MuEstimate:
    """Best log-inequality constant from the alpha = 1 singular solution.

    The operator is p-homogeneous, so rescaling the alpha = 1 solution
    u* by exp(-<log u*>_w) lands on the zero-log-mean manifold; mu is the
    energy of that rescaled field V and V solves the limiting equation
    with constant mu / |w|_1.  Raises when the weighted log integral of
    u* is -inf (mu undefined for this weight).  A precomputed alpha = 1
    chain can be passed to skip the solve.
    """
    opts = opts or ChainOptions()
    if chain is None:
        chain = run_chain(omega, 1.0, kernel, opts=opts)
    elif chain.alpha != 1.0:
        raise FssError("estimate_mu_direct needs an alpha = 1 chain")
    if not chain.converged:
        raise FssError("alpha = 1 chain did not converge")
    est = mu_from_field(chain.u_alpha, omega, kernel)
    return replace(est, chain=chain)


def mu_from_field(u_star: Field, omega: WeightField,
                  kernel: Kernel) -> MuEstimate:
    """Log-inequality constant from an alpha = 1 solution field directly."""
    log_int = log_functional(u_star, omega)
    if math.isinf(log_int):
        raise FssError("mu estimate undefined for this weight "
                       "(weighted log integral is -inf)")
    log_k = -log_int / omega.norm_1
    v = math.exp(log_k) * u_star
    mu = seminorm_p(v, kernel)
    log_mean = log_functional(v, omega)
    return MuEstimate(
        mu_direct=float(mu),
        extremal=v,
        u_star=u_star,
        log_mean_residual=float(log_mean),
        omega=omega,
        kernel=kernel,
        chain=None,
    )


def estimate_mu(omega: WeightField, alpha_grid, kernel: Kernel,
                opts: ChainOptions | None = None) -> tuple[MuEstimate, SweepResult]:
    """Combine the direct estimate with the sweep limit and classify the
    trend of the scaled constants.

    Trend: ``converged`` when the last scaled value sits within 1e-3
    relative of the direct constant, ``still-rising`` when the gap
    remains but the increments are shrinking, ``diverging`` otherwise.
    """
    direct = estimate_mu_direct(omega, kernel, opts)
    sweep = sweep_alpha(omega, alpha_grid, kernel, opts)
    recs = sweep.converged_records
    scaled = tuple(r.scaled for r in recs)
    mu_sweep = scaled[-1] if scaled else math.nan
    trend = "diverging"
    if scaled and abs(mu_sweep - direct.mu_direct) <= 1e-3 * direct.mu_direct:
        trend = "converged"
    elif len(scaled) >= 3:
        d1 = scaled[-1] - scaled[-2]
        d0 = scaled[-2] - scaled[-3]
        if d1 <= d0:
            trend = "still-rising"
    est = replace(direct, mu_sweep=float(mu_sweep), trend=trend,
                  alpha_grid=tuple(r.alpha for r in recs),
                  scaled_values=scaled)
    return est, sweep


def verify_log_sobolev(estimate: MuEstimate, trials: int = 1000,
                       seed: int = 0, constant: float | None = None,
                       extremal_scales=(-2.0, 0.5, 1.0),
                       extra_fields=()) -> CertificationReport:
    """Check the exponential-log inequality on random fields and at
    multiples of the extremal V.

    Fields vanishing on the support of the weight make the exponential
    term zero, so the inequality holds with slack equal to the full
    energy.
    """
    kernel, omega = estimate.kernel, estimate.omega
    p = kernel.params.p
    mu = constant if constant is not None else estimate.mu_direct
    log_mu = math.log(mu)
    active = omega.values > 0.0

    def term(block: np.ndarray) -> np.ndarray:
        logs = _log_or_minus_inf(np.abs(block[:, active]))
        li = kernel.grid.measure * (omega.values[active] * logs).sum(axis=1)
        return np.exp(log_mu + p / omega.norm_1 * li)

    return _certify(term, mu, kernel, estimate.extremal, trials, seed,
                    extremal_scales, extra_fields)


@dataclass(frozen=True)
class LimitReport:
    """Convergence of the scaled extremals toward the log-extremal V."""

    gaps: tuple[float, ...]
    gaps_decreasing: bool
    final_gap: float
    upper_bound: float          # M with V_alpha <= M across the sweep
    lower_scale: float          # m with m * psi <= V_alpha across the sweep
    barrier_ok: bool


def check_valfa_limit(sweep: SweepResult,
                      estimate: MuEstimate) -> LimitReport:
    """Report how the sweep extremals approach the direct extremal.

    Also certifies the uniform sandwich: a single pair (m, M) with
    m * psi <= V_alpha <= M nodewise across all converged sweep points,
    with m built from the smallest scaled constant and M from the largest
    observed sup norm.  Diagnostic only, never raises.
    """
    recs = sweep.converged_records
    if not recs:
        return LimitReport(gaps=(), gaps_decreasing=False, final_gap=math.inf,
                           upper_bound=math.nan, lower_scale=math.nan,
                           barrier_ok=False)
    v = estimate.extremal
    gaps = tuple(
        float(np.abs(r.solution.scaled_extremal.values - v.values).max())
        for r in recs
    )
    decreasing = all(b <= a * (1.0 + 1e-9) for a, b in zip(gaps, gaps[1:]))
    final_gap = gaps[-1]

    p = recs[0].chain.kernel.params.p
    big_m = max(float(r.solution.scaled_extremal.values.max()) for r in recs)
    alpha0 = recs[0].alpha
    # scaled(alpha0) / |w|_1 * M^(-alpha) lower-bounds the datum of every
    # sweep extremal relative to the capped weight; the comparison
    # principle then gives m * psi <= V_alpha.
    log_factor = recs[0].log_scaled - math.log(recs[0].solution.omega.norm_1)
    worst_power = -1.0 if big_m >= 1.0 else -alpha0
    lower_scale = math.exp(
        (log_factor + worst_power * math.log(big_m)) / (p - 1.0)
    )
    psi = recs[0].chain.psi
    barrier_ok = True
    for r in recs:
        gap = float(
            (lower_scale * psi.values - r.solution.scaled_extremal.values).max()
        )
        if gap > 1e-8:
            barrier_ok = False
    return LimitReport(
        gaps=gaps,
        gaps_decreasing=decreasing,
        final_gap=float(final_gap),
        upper_bound=float(big_m),
        lower_scale=float(lower_scale),
        barrier_ok=barrier_ok,
    )
