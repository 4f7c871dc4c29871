"""Randomized checkers for the elementary inequalities behind the solver.

Each checker draws seeded random inputs, evaluates both sides of an
inequality, and fits the sharpest constant the sample supports (the
inequalities assert existence of constants, not values, so the testable
content is that the observed ratios stay bounded and positive).  Reports
are bit-reproducible for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field as dc_field

import numpy as np
from scipy.integrate import quad

from .exceptions import FssError
from .grid import Kernel
from .operators import Field, block_gradient, phi_p
from .sampling import trial_chunks

# Random field pairs of the field-level half of ``check_q_identity``.
_FIELD_TRIALS = 100


@dataclass(frozen=True)
class LemmaReport:
    """Outcome of one randomized lemma check."""

    lemma: str
    trials: int
    worst_slack: float
    witness: dict = dc_field(default_factory=dict)
    constants: dict = dc_field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.worst_slack >= -1e-12

    def to_json_record(self) -> dict:
        return {**asdict(self), "passed": self.passed}


def _require_count(name: str, value: int) -> None:
    if value < 1:
        raise ValueError(f"{name} must be at least 1, got {value}")


def _pow(base: np.ndarray, exponent: float) -> np.ndarray:
    """base ** exponent element by element through the C library's pow, as
    numpy's scalar power computes it (its array power may differ in the
    last bit)."""
    return np.power(base.astype(object), exponent).astype(float)


def check_vector_inequalities(p: float, trials: int = 1000,
                              seed: int = 0) -> LemmaReport:
    """Two-sided comparison of |X|^(p-2)X - |Y|^(p-2)Y with |X - Y|.

    The difference of the vector powers is bounded above by a multiple of
    |X-Y|^(p-1) (p < 2) or (|X|+|Y|)^(p-2)|X-Y| (p >= 2), and its inner
    product with X - Y is bounded below by a multiple of
    |X-Y|^2/(|X|+|Y|)^(2-p) (p < 2) or |X-Y|^p (p >= 2).  The upper
    constant is fitted as the max ratio (required not to outgrow ten
    times the sample median), the lower one as the min ratio (required
    strictly positive).  Both equal 1 at p = 2.

    Trial t draws X then Y with 1 + t % 3 standard normal components
    each, all from one stream; draws with X, Y or X - Y zero are skipped.
    The witnesses are the first trials attaining the two constants.
    """
    if p <= 1.0:
        raise ValueError(f"p must exceed 1, got {p}")
    _require_count("trials", trials)
    dims = 1 + np.arange(trials) % 3
    starts = np.concatenate([[0], np.cumsum(2 * dims)])
    draws = np.random.default_rng(seed).standard_normal(starts[-1])
    r_up = np.full(trials, np.nan)  # NaN marks a skipped draw
    r_low = np.full(trials, np.nan)
    # Fields of one dimension go together, so every norm and inner product
    # has as many terms as the per-trial one.
    for dim in (1, 2, 3):
        rows = np.flatnonzero(dims == dim)
        cols = starts[rows, None] + np.arange(dim)
        x, y = draws[cols], draws[cols + dim]
        nx, ny, nd = (np.sqrt(np.vecdot(v, v)) for v in (x, y, x - y))
        ok = (nx != 0.0) & (ny != 0.0) & (nd != 0.0)
        rows, x, y, nx, ny, nd = rows[ok], x[ok], y[ok], nx[ok], ny[ok], nd[ok]
        diff = (_pow(nx, p - 2.0)[:, None] * x
                - _pow(ny, p - 2.0)[:, None] * y)
        nsum = nx + ny
        if p < 2.0:
            up_core = _pow(nd, p - 1.0)
            low_core = _pow(nd, 2.0) / _pow(nsum, 2.0 - p)
        else:
            up_core = _pow(nsum, p - 2.0) * nd
            low_core = _pow(nd, p)
        r_up[rows] = np.sqrt(np.vecdot(diff, diff)) / up_core
        r_low[rows] = np.vecdot(diff, x - y) / low_core
    trial = np.flatnonzero(~np.isnan(r_up))
    r_up, r_low = r_up[trial], r_low[trial]

    def witness(k: int, ratio: np.ndarray) -> dict:
        t = trial[k]
        x = draws[starts[t]:starts[t] + dims[t]]
        y = draws[starts[t] + dims[t]:starts[t + 1]]
        return {"X": x.tolist(), "Y": y.tolist(), "ratio": float(ratio[k])}

    i_up, i_low = int(r_up.argmax()), int(r_low.argmin())
    c_upper, c_lower = float(r_up[i_up]), float(r_low[i_low])
    boundedness_slack = 10.0 * float(np.median(r_up)) - c_upper
    return LemmaReport(
        lemma="vector-power-inequalities",
        trials=trials,
        worst_slack=min(boundedness_slack, c_lower),
        witness={"upper": witness(i_up, r_up), "lower": witness(i_low, r_low)},
        constants={"c_p": c_upper, "C_p": c_lower},
    )


def check_strong_monotonicity(kernel: Kernel, trials: int = 1000,
                              seed: int = 0) -> LemmaReport:
    """Coercivity of the operator difference pairing on random field pairs.

    <A v1 - A v2, v1 - v2> dominates [v1-v2]^2 / ([v1]^p + [v2]^p)^((2-p)/p)
    for 1 < p < 2 and [v1-v2]^p for p >= 2, with a positive constant fitted
    as the smallest observed ratio.
    """
    _require_count("trials", trials)
    p = kernel.params.p
    ratios = []
    # Trial t pairs the fields 2t and 2t + 1 (rows 0::2 and 1::2 of a chunk).
    for block in trial_chunks(kernel.grid, seed, trials, 2):
        g = block_gradient(block, kernel)
        d = block[0::2] - block[1::2]
        sn_d = np.vecdot(d, block_gradient(d, kernel))
        num = np.vecdot(g[0::2], d) - np.vecdot(g[1::2], d)
        if p >= 2.0:
            den = sn_d
        else:
            sn = np.vecdot(block, g)
            den = sn_d ** (2.0 / p) / (sn[0::2] + sn[1::2]) ** ((2.0 - p) / p)
        ratios.append(num / den)
    ratios = np.concatenate(ratios)
    t = int(ratios.argmin())
    c = float(ratios[t])
    return LemmaReport(
        lemma="strong-monotonicity",
        trials=trials,
        worst_slack=c,
        witness={"trial": t, "ratio": c},
        constants={"C": c},
    )


def _power_kernel_integral(a: float, b: float, p: float) -> float:
    """Quadrature of t -> |a + t(b - a)|^(p-2) over [0, 1].

    For p < 2 the integrand has an integrable singularity at the zero of
    a + t(b - a); the quadrature splits there.
    """
    if a == b:
        return abs(a) ** (p - 2.0) if a != 0.0 else 0.0
    t_zero = a / (a - b)
    points = [t_zero] if 0.0 < t_zero < 1.0 else None
    value, err = quad(lambda t: abs(a + t * (b - a)) ** (p - 2.0), 0.0, 1.0,
                      points=points, epsabs=1e-12, epsrel=1e-12, limit=200)
    if err > 1e-10 * (1.0 + abs(value)):
        raise FssError(
            f"quadrature failed for a={a}, b={b}, p={p}: error {err:.3e}"
        )
    return value


def check_q_identity(kernel: Kernel, trials: int = 1000,
                     seed: int = 0) -> LemmaReport:
    """Integral form of the difference of odd powers, plus its field-level
    consequence, at the exponent p of ``kernel``.

    Scalars: |b|^(p-2)b - |a|^(p-2)a = (p-1)(b-a) * int_0^1 |a+t(b-a)|^(p-2) dt,
    with the integral evaluated by adaptive quadrature (tolerance 1e-10).
    Fields: <A v1 - A v2, (v1 - v2)_+> >= 0 up to 1e-10, checked on
    ``_FIELD_TRIALS`` random pairs over ``kernel``.
    """
    _require_count("trials", trials)
    p = kernel.params.p
    rng = np.random.default_rng(seed)
    tol = 1e-10
    worst = math.inf
    witness = None
    for _ in range(trials):
        a, b = rng.uniform(-2.0, 2.0, size=2)
        lhs = float(phi_p(np.array(b), p) - phi_p(np.array(a), p))
        rhs = (p - 1.0) * (b - a) * _power_kernel_integral(a, b, p)
        slack = tol * (1.0 + abs(lhs)) - abs(lhs - rhs)
        if slack < worst:
            worst = slack
            witness = {"a": float(a), "b": float(b), "gap": abs(lhs - rhs)}
    field_worst = math.inf
    for block in trial_chunks(kernel.grid, seed + 1, _FIELD_TRIALS, 2):
        g = block_gradient(block, kernel)
        pos = np.maximum(block[0::2] - block[1::2], 0.0)
        val = np.vecdot(g[0::2], pos) - np.vecdot(g[1::2], pos)
        field_worst = min(field_worst, float(val.min()) + 1e-10)
    return LemmaReport(
        lemma="odd-power-integral-identity",
        trials=trials,
        worst_slack=float(min(worst, field_worst)),
        witness=witness or {},
        constants={"quadrature_tol": tol},
    )


def level_set_sizes(u: Field, thresholds) -> np.ndarray:
    """Measure of the super-level sets {u > k} for each threshold."""
    m = u.grid.measure
    ks = np.asarray(list(thresholds), dtype=float)
    return np.array([m * float((u.values > k).sum()) for k in ks])


def check_stampacchia(g_samples, k0: float, C: float, theta: float,
                      b: float) -> LemmaReport:
    """Level-set decay lemma: a nonincreasing g with
    g(h) <= C g(k)^b / (h-k)^theta for k0 <= k < h vanishes beyond
    k0 + d, where d^theta = C g(k0)^(b-1) 2^(theta b/(b-1)).

    ``g_samples`` is a pair (ks, gs) of sample abscissae (>= k0, increasing)
    and values.  The hypothesis is verified on all sampled pairs (raising
    ``FssError`` when violated), the vanishing conclusion is asserted on
    every sample past k0 + d, and the geometric refinement sequence
    k_n = k0 + d - d/2^n is replayed against the sampled values (at
    sampled abscissae) with the induction bound g(k_n) <= g(k0) 2^(-n
    theta/(b-1)).
    """
    if b <= 1.0 or theta <= 0.0 or C <= 0.0:
        raise ValueError("need b > 1, theta > 0, C > 0")
    ks = np.asarray(g_samples[0], dtype=float)
    gs = np.asarray(g_samples[1], dtype=float)
    if ks.shape != gs.shape or ks.ndim != 1 or ks.size == 0:
        raise ValueError("g_samples must be two equal-length 1D arrays")
    if np.any(np.diff(ks) <= 0.0):
        raise ValueError("sample abscissae must be strictly increasing")
    if np.any(gs < 0.0) or np.any(np.diff(gs) > 1e-12):
        raise FssError("not a Stampacchia family: g is not nonnegative "
                       "and nonincreasing")
    if ks[0] < k0 - 1e-12:
        raise ValueError("samples must start at or after k0")

    rel = 1e-9
    gaps = ks[None, :] - ks[:, None]
    with np.errstate(divide="ignore"):
        bounds = np.where(
            gaps > 0.0,
            C * gs[:, None] ** b / np.where(gaps > 0.0, gaps, 1.0) ** theta,
            np.inf,
        )
    bad = gs[None, :] > bounds * (1.0 + rel) + 1e-300
    if bad.any():
        i, j = map(int, np.argwhere(bad)[0])
        raise FssError(
            f"not a Stampacchia family: g({ks[j]}) = {gs[j]} exceeds "
            f"C g({ks[i]})^b/(h-k)^theta = {bounds[i, j]}"
        )

    g0 = float(np.interp(k0, ks, gs))
    d = (C * g0 ** (b - 1.0) * 2.0 ** (theta * b / (b - 1.0))) ** (1.0 / theta)
    beyond = gs[ks >= k0 + d - 1e-12]
    worst = -float(beyond.max()) if beyond.size else 0.0

    replay = []
    for n in range(1, 61):
        k_n = k0 + d - d / 2.0**n
        if k_n > ks[-1] + 1e-12:
            break
        matches = np.nonzero(np.abs(ks - k_n) <= 1e-9 * (1.0 + abs(k_n)))[0]
        if matches.size:
            bound_n = g0 * 2.0 ** (-n * theta / (b - 1.0))
            gap = bound_n - float(gs[matches[0]])
            replay.append({"n": n, "k_n": float(k_n), "bound": bound_n,
                           "g": float(gs[matches[0]])})
            worst = min(worst, gap + 1e-12 * (1.0 + g0))
    return LemmaReport(
        lemma="level-set-decay",
        trials=int(ks.size),
        worst_slack=float(worst),
        witness={"d": float(d), "k0": float(k0), "replay": replay},
        constants={"C": float(C), "theta": float(theta), "b": float(b),
                   "d": float(d)},
    )
