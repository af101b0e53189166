"""Parametrized nonlinearities f(t, xi) and their sampled hypothesis checks.

The built-in family is

    f(t, xi) = (1 + a(t)) * max(xi, 0)^p,

with a nonnegative decaying perturbation weight a(t).  Its autonomous part
fbar(xi) = max(xi, 0)^p is the same family with a = 0, built by
``spec.autonomous()``; every evaluator takes the spec it is given.  The
family satisfies the structural hypotheses (sign, superquadratic growth with
exponent theta, smallness near 0, growth ceiling p0, fiber monotonicity, and
comparison with the autonomous part) whenever theta <= p + 1 < p0 + 1 and
theta < p0 + 1.  Those cross-parameter relations are checked by the
validator rather than the constructor, so that deliberately broken specs can
be built and shown to fail.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

__all__ = [
    "Perturbation",
    "NonlinearitySpec",
    "SampleBox",
    "HypothesisCheck",
    "HypothesisReport",
    "eval_f",
    "eval_F",
    "eval_df",
    "validate_hypotheses",
    "growth_constant",
]

ArrayLike = Union[float, np.ndarray]


@dataclass(frozen=True)
class Perturbation:
    """Nonnegative weight a(t) with a(t) -> 0 as |t| -> infinity."""

    kind: str = "gaussian"
    amplitude: float = 0.5
    width: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("gaussian", "rational", "zero"):
            raise ValueError(f"perturbation kind must be gaussian|rational|zero, got {self.kind!r}")
        if self.amplitude < 0:
            raise ValueError(f"perturbation amplitude must be >= 0, got {self.amplitude}")
        if self.width <= 0:
            raise ValueError(f"perturbation width must be > 0, got {self.width}")

    def weight(self, t: ArrayLike) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if self.kind == "zero" or self.amplitude == 0.0:
            return np.zeros_like(t)
        if self.kind == "gaussian":
            return self.amplitude * np.exp(-(t / self.width) ** 2)
        return self.amplitude / (1.0 + (t / self.width) ** 2)


@dataclass(frozen=True)
class NonlinearitySpec:
    """Power nonlinearity (1 + a(t)) * xi_+^p with exponents theta and p0.

    theta is the superquadratic-growth exponent and p0 the growth ceiling.
    The constructor enforces only basic ranges (p > 1, theta > 2, p0 > 1);
    the relations theta <= p + 1, p0 > p and p0 + 1 > theta are hypothesis
    checks, reported by :func:`validate_hypotheses`.
    """

    p: float = 3.0
    theta: float = 4.0
    p0: float = 3.5
    perturbation: Perturbation = field(default_factory=Perturbation)

    def __post_init__(self) -> None:
        if self.p <= 1:
            raise ValueError(f"p must be > 1, got {self.p}")
        if self.theta <= 2:
            raise ValueError(f"theta must be > 2, got {self.theta}")
        if self.p0 <= 1:
            raise ValueError(f"p0 must be > 1, got {self.p0}")

    def autonomous(self) -> "NonlinearitySpec":
        """The same exponents with the perturbation switched off (a = 0)."""
        return NonlinearitySpec(self.p, self.theta, self.p0, Perturbation("zero", 0.0, 1.0))


def eval_f(spec: NonlinearitySpec, t: ArrayLike, xi: ArrayLike):
    """f(t, xi) = (1 + a(t)) * max(xi, 0)^p; zero for xi <= 0."""
    xi_plus = np.maximum(np.asarray(xi, dtype=float), 0.0)
    out = (1.0 + spec.perturbation.weight(t)) * xi_plus ** spec.p
    return out if out.ndim else float(out)


def eval_F(spec: NonlinearitySpec, t: ArrayLike, xi: ArrayLike):
    """Primitive F(t, xi) = (1 + a(t)) * max(xi, 0)^(p+1) / (p+1)."""
    xi_plus = np.maximum(np.asarray(xi, dtype=float), 0.0)
    out = (1.0 + spec.perturbation.weight(t)) * xi_plus ** (spec.p + 1.0) / (spec.p + 1.0)
    return out if out.ndim else float(out)


def eval_df(spec: NonlinearitySpec, t: ArrayLike, xi: ArrayLike):
    """Partial derivative of f in xi: (1 + a(t)) * p * max(xi, 0)^(p-1)."""
    xi_plus = np.maximum(np.asarray(xi, dtype=float), 0.0)
    out = (1.0 + spec.perturbation.weight(t)) * spec.p * xi_plus ** (spec.p - 1.0)
    return out if out.ndim else float(out)


def growth_constant(spec: NonlinearitySpec, epsilon: float, t: np.ndarray, xi: np.ndarray) -> float:
    """Minimal C such that |f| <= epsilon |xi| + C |xi|^p0 over the sample set."""
    tt, xx = np.meshgrid(t, xi[xi != 0], indexing="ij")
    f_abs = np.abs(eval_f(spec, tt, xx))
    slack = f_abs - epsilon * np.abs(xx)
    return float(np.max(np.maximum(slack, 0.0) / np.abs(xx) ** spec.p0))


# -- sampled hypothesis validation --------------------------------------------


@dataclass(frozen=True)
class SampleBox:
    """Sampling region for the hypothesis validator."""

    t_max: float = 8.0
    xi_max: float = 1e4
    n_samples: int = 48

    def __post_init__(self) -> None:
        if not (np.isfinite(self.t_max) and np.isfinite(self.xi_max)):
            raise ValueError("sample box must be finite")
        if self.t_max <= 0 or self.xi_max <= 1:
            raise ValueError("sample box requires t_max > 0 and xi_max > 1")
        if self.n_samples < 8:
            raise ValueError("sample box needs at least 8 samples per axis")


@dataclass(frozen=True)
class HypothesisCheck:
    name: str
    passed: bool
    margin: float
    witness: Optional[tuple[float, float]]
    detail: str


@dataclass(frozen=True)
class HypothesisReport:
    checks: tuple[HypothesisCheck, ...]
    c_epsilon: float
    epsilon: float

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __getitem__(self, name: str) -> HypothesisCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


# Floating-point slack for inequalities that are exact for the built-in family.
_EXACT_TOL = 1e-12


def _loglog_slope(x: np.ndarray, y: np.ndarray) -> float:
    mask = (y > 0) & (x > 0)
    if np.count_nonzero(mask) < 2:
        return 0.0
    coeffs = np.polyfit(np.log(x[mask]), np.log(y[mask]), 1)
    return float(coeffs[0])


def validate_hypotheses(spec: NonlinearitySpec, box: SampleBox | None = None) -> HypothesisReport:
    """Sampled pass/fail report for the six structural hypotheses.

    All checks are finite surrogates of universally quantified statements:
    sign and growth inequalities are tested on a sample grid with worst-case
    margins and witnesses, the two limits (smallness near 0, growth ceiling
    at infinity) as log-log decay slopes over the sampled decades, and the
    comparison condition by the sampled measure of {f > fbar}.  Failures are
    reported, not raised.
    """
    if box is None:
        box = SampleBox()
    n = box.n_samples
    t = np.linspace(-box.t_max, box.t_max, n)
    xi_pos = np.geomspace(1e-6, box.xi_max, n)
    xi = np.concatenate([-xi_pos[::-1], [0.0], xi_pos])
    tt, xx = np.meshgrid(t, xi, indexing="ij")
    f_vals = eval_f(spec, tt, xx)
    F_vals = eval_F(spec, tt, xx)
    checks: list[HypothesisCheck] = []

    def worst(measure: np.ndarray, mask: np.ndarray) -> tuple[float, tuple[float, float]]:
        vals = np.where(mask, measure, np.inf)
        idx = np.unravel_index(int(np.argmin(vals)), vals.shape)
        return float(vals[idx]), (float(tt[idx]), float(xx[idx]))

    # sign conditions: f >= 0 for xi >= 0 and f == 0 for xi <= 0
    m_sign, w_sign = worst(np.where(xx <= 0, -np.abs(f_vals), f_vals), np.ones_like(xx, bool))
    checks.append(
        HypothesisCheck(
            "sign",
            m_sign >= -_EXACT_TOL,
            m_sign,
            w_sign,
            "min over samples of f on {xi >= 0} and of -|f| on {xi <= 0}",
        )
    )

    # superquadratic growth: theta F <= xi f on xi > 0
    scale = np.maximum(1.0, np.abs(xx * f_vals))
    m_ar, w_ar = worst((xx * f_vals - spec.theta * F_vals) / scale, xx > 0)
    checks.append(
        HypothesisCheck(
            "superquadratic",
            m_ar >= -_EXACT_TOL,
            m_ar,
            w_ar,
            "min over xi > 0 of (xi f - theta F), relative; negative means the "
            "growth exponent theta is too large",
        )
    )

    # smallness near zero: max_t f / |xi| decays as xi -> 0+
    small = xi_pos[xi_pos <= 1e-2]
    ratio0 = np.array([np.max(eval_f(spec, t, np.full_like(t, s)) / s) for s in small])
    slope0 = _loglog_slope(small, ratio0)
    ref0 = float(np.max(eval_f(spec, t, np.ones_like(t))))
    ok0 = slope0 >= 0.1 and (ref0 == 0.0 or ratio0[0] <= 1e-2 * max(ref0, 1.0))
    checks.append(
        HypothesisCheck(
            "small_at_zero",
            bool(ok0),
            slope0,
            (0.0, float(small[0])),
            "log-log slope of max_t f/|xi| near xi = 0 (positive slope means decay to 0)",
        )
    )

    # growth ceiling: max_t f / |xi|^p0 decays as xi -> infinity
    large = xi_pos[xi_pos >= box.xi_max ** 0.5]
    ratio_inf = np.array(
        [np.max(eval_f(spec, t, np.full_like(t, s)) / s ** spec.p0) for s in large]
    )
    slope_inf = _loglog_slope(large, ratio_inf)
    ok_inf = slope_inf <= -0.05 and spec.p0 + 1.0 > spec.theta
    checks.append(
        HypothesisCheck(
            "growth_ceiling",
            bool(ok_inf),
            -slope_inf,
            (0.0, float(large[-1])),
            "negated log-log slope of max_t f/|xi|^p0 at large xi, requiring "
            "decay and p0 + 1 > theta",
        )
    )

    # fiber monotonicity: sigma -> f(t, sigma xi) xi / sigma nondecreasing
    sigma = np.geomspace(1e-2, 1e2, 25)
    xi_f4 = np.concatenate([xi_pos[:: max(1, n // 12)], -xi_pos[:: max(1, n // 12)]])
    t_f4 = t[:: max(1, n // 12)]
    m_f4 = np.inf
    w_f4 = (0.0, 0.0)
    for ti in t_f4:
        for xj in xi_f4:
            vals = eval_f(spec, ti, sigma * xj) * xj / sigma
            diffs = np.diff(vals)
            ref = np.maximum(1.0, np.abs(vals[:-1]))
            rel = diffs / ref
            worst_rel = float(np.min(rel))
            if worst_rel < m_f4:
                m_f4, w_f4 = worst_rel, (float(ti), float(xj))
    checks.append(
        HypothesisCheck(
            "fiber_monotone",
            m_f4 >= -_EXACT_TOL,
            m_f4,
            w_f4,
            "min relative increment of f(t, sigma xi) xi / sigma over a sigma grid",
        )
    )

    # comparison with the autonomous part:
    # 0 <= f - fbar <= a(t)(|xi| + |xi|^p0) and the set {f > fbar} has positive measure
    fbar_vals = eval_f(spec.autonomous(), tt, xx)
    diff = f_vals - fbar_vals
    envelope = spec.perturbation.weight(tt) * (np.abs(xx) + np.abs(xx) ** spec.p0)
    m_lo = float(np.min(diff))
    m_hi = float(np.min(envelope - diff) / max(1.0, float(np.max(envelope))))
    strict_cols = np.any(diff > 0, axis=1)
    measure = float(np.count_nonzero(strict_cols)) / len(t) * (2.0 * box.t_max)
    ok_f5 = m_lo >= -_EXACT_TOL and m_hi >= -_EXACT_TOL and measure > 0.0
    idx = np.unravel_index(int(np.argmin(diff)), diff.shape)
    checks.append(
        HypothesisCheck(
            "autonomous_comparison",
            bool(ok_f5),
            measure if measure > 0.0 else min(m_lo, m_hi),
            (float(tt[idx]), float(xx[idx])),
            "sampled measure of {t: f(t, .) > fbar} (zero means the perturbation "
            "vanishes), with the two-sided envelope checked on all samples",
        )
    )

    c_eps = growth_constant(spec, 0.1, t, xi)
    return HypothesisReport(tuple(checks), c_eps, 0.1)
