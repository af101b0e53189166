"""Parametrized nonlinearities f(t, xi) and their closed-form hypothesis checks.

The built-in family is

    f(t, xi) = (1 + a(t)) * max(xi, 0)^p,

with a nonnegative decaying perturbation weight a(t).  Its autonomous part
fbar(xi) = max(xi, 0)^p is the same family with a = 0, built by
``spec.autonomous()``; every evaluator takes the spec it is given.  The
family satisfies the structural hypotheses (sign, superquadratic growth with
exponent theta, smallness near 0, growth ceiling p0, fiber monotonicity, and
comparison with the autonomous part) exactly when theta <= p + 1,
p < p0, theta < p0 + 1 and the amplitude A = sup a = a(0) is positive, and
the least growth constant C_eps has a closed form in (p, p0, A).  Those
cross-parameter relations are checked by the validator, in closed form,
rather than by the constructor, so that deliberately broken specs can be
built and shown to fail.

The powers max(xi, 0)^e are flushed to an exact 0 wherever they would fall
below the smallest normal float (xi <= tiny^(1/e)): libm's pow takes a slow
path on every subnormal or underflowing result, and the Gaussian tails of a
field sit in that range.  NaN still propagates.  The integer exponents 2, 3
and 4 (f and F at the default p = 3 take 3 and 4) are computed as products
of the flushed base, within 0, 1 and 2 ulp of pow; every other exponent
takes the masked pow.  Evaluated on a ``Grid1D`` instead of an array of t,
the coefficient 1 + a(t) on the nodes is computed once per (perturbation,
grid) and cached read-only.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .grid import Grid1D

__all__ = [
    "Perturbation",
    "NonlinearitySpec",
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
    """Nonnegative weight a(t) with a(t) -> 0 as |t| -> infinity; amplitude 0 is a = 0."""

    kind: str = "gaussian"
    amplitude: float = 0.5
    width: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("gaussian", "rational"):
            raise ValueError(f"perturbation kind must be gaussian|rational, got {self.kind!r}")
        if not 0 <= self.amplitude < np.inf:
            raise ValueError(f"perturbation amplitude must be in [0, inf), got {self.amplitude}")
        if not 0 < self.width < np.inf:
            raise ValueError(f"perturbation width must be in (0, inf), got {self.width}")

    def weight(self, t: ArrayLike) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if self.amplitude == 0.0:
            return np.zeros_like(t)
        if self.kind == "gaussian":
            return self.amplitude * np.exp(-(t / self.width) ** 2)
        return self.amplitude / (1.0 + (t / self.width) ** 2)


@dataclass(frozen=True)
class NonlinearitySpec:
    """Power nonlinearity (1 + a(t)) * xi_+^p with exponents theta and p0.

    theta is the superquadratic-growth exponent and p0 the growth ceiling.
    The constructor enforces only basic ranges (finite p > 1, theta > 2,
    p0 > 1); the relations theta <= p + 1, p0 > p and p0 + 1 > theta are
    hypothesis checks, reported by :func:`validate_hypotheses`.
    """

    p: float = 3.0
    theta: float = 4.0
    p0: float = 3.5
    perturbation: Perturbation = field(default_factory=Perturbation)

    def __post_init__(self) -> None:
        if not 1 < self.p < np.inf:
            raise ValueError(f"p must be in (1, inf), got {self.p}")
        if not 2 < self.theta < np.inf:
            raise ValueError(f"theta must be in (2, inf), got {self.theta}")
        if not 1 < self.p0 < np.inf:
            raise ValueError(f"p0 must be in (1, inf), got {self.p0}")

    def autonomous(self) -> "NonlinearitySpec":
        """The same exponents with the perturbation switched off (a = 0)."""
        return NonlinearitySpec(self.p, self.theta, self.p0, Perturbation(amplitude=0.0))


#: the smallest positive normal float; powers below it are flushed to 0
_TINY = np.finfo(float).tiny


def _power_plus(xi: ArrayLike, e: float) -> np.ndarray:
    """max(xi, 0)^e, an exact 0 where the result would not be a normal float.

    The mask is a negation so that NaN, which fails every comparison, is
    still raised to the power and propagates.  At e = 2, 3 and 4 the flushed
    entries are zeroed and the power is one or two products, within 0, 1
    and 2 ulp of pow.
    """
    xi = np.asarray(xi, dtype=float)
    flushed = xi <= _TINY ** (1.0 / e)
    if e in (2.0, 3.0, 4.0):
        base = np.where(flushed, 0.0, xi)
        power = base * base
        if e == 3.0:
            power *= base
        elif e == 4.0:
            power *= power
        return power
    return np.power(xi, e, out=np.zeros_like(xi), where=~flushed)


def _coefficient(spec: NonlinearitySpec, t: Union[Grid1D, ArrayLike]) -> np.ndarray:
    """1 + a(t); on a grid, the cached read-only array on its nodes."""
    if isinstance(t, Grid1D):
        return _cached_coefficient(spec.perturbation, t)
    return 1.0 + spec.perturbation.weight(t)


@functools.lru_cache(maxsize=8)
def _cached_coefficient(perturbation: Perturbation, grid: Grid1D) -> np.ndarray:
    coeff = 1.0 + perturbation.weight(grid.nodes)
    coeff.flags.writeable = False
    return coeff


def eval_f(spec: NonlinearitySpec, t: Union[Grid1D, ArrayLike], xi: ArrayLike):
    """f(t, xi) = (1 + a(t)) * max(xi, 0)^p; zero for xi <= 0.  t may be a grid."""
    out = _coefficient(spec, t) * _power_plus(xi, spec.p)
    return out if out.ndim else float(out)


def eval_F(spec: NonlinearitySpec, t: Union[Grid1D, ArrayLike], xi: ArrayLike):
    """Primitive F(t, xi) = (1 + a(t)) * max(xi, 0)^(p+1) / (p+1).  t may be a grid."""
    out = _coefficient(spec, t) * _power_plus(xi, spec.p + 1.0) / (spec.p + 1.0)
    return out if out.ndim else float(out)


def eval_df(spec: NonlinearitySpec, t: Union[Grid1D, ArrayLike], xi: ArrayLike):
    """Partial derivative of f in xi: (1 + a(t)) * p * max(xi, 0)^(p-1)."""
    out = _coefficient(spec, t) * spec.p * _power_plus(xi, spec.p - 1.0)
    return out if out.ndim else float(out)


# -- hypothesis validation -----------------------------------------------------


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


def growth_constant(spec: NonlinearitySpec, epsilon: float) -> float:
    """Least C with |f(t, xi)| <= epsilon |xi| + C |xi|^p0 for all t and xi, in closed form.

    With A = sup a (the amplitude, attained at t = 0) the least C is
    sup_xi ((1 + A) xi^p - epsilon xi) / xi^p0, attained at
    xi* = (epsilon (p0 - 1) / ((1 + A)(p0 - p)))^(1/(p-1)), where it equals
    epsilon (p - 1) / (p0 - p) * xi*^(1-p0).  That is computed in logs, so
    that no power of xi* overflows or underflows; a C beyond the largest
    float is inf, as is the C of p0 <= p, for which no finite constant exists.
    """
    if not 0 < epsilon < np.inf:
        raise ValueError(f"epsilon must be in (0, inf), got {epsilon}")
    p, p0, peak = spec.p, spec.p0, 1.0 + spec.perturbation.amplitude
    if not p0 > p:
        return np.inf
    log_xi = (np.log(epsilon * (p0 - 1.0)) - np.log(peak * (p0 - p))) / (p - 1.0)
    with np.errstate(over="ignore"):
        return float(np.exp(np.log(epsilon * (p - 1.0) / (p0 - p)) + (1.0 - p0) * log_xi))


def validate_hypotheses(spec: NonlinearitySpec) -> HypothesisReport:
    """Pass/fail report for the six structural hypotheses, in closed form.

    For f = (1 + a(t)) xi_+^p with 0 <= a <= A = a(0), each hypothesis is a
    relation between p, theta, p0 and A, and its margin is exact:

    - sign: f >= 0 on xi >= 0 and f = 0 on xi <= 0; margin 0, at xi = 0.
    - superquadratic: theta F <= xi f iff theta <= p + 1; margin
      (xi f - theta F) / (xi f) = 1 - theta / (p + 1), the same at every xi > 0.
    - small_at_zero: f / xi = (1 + a) xi^(p-1) -> 0 as xi -> 0+; margin p - 1.
    - growth_ceiling: f / xi^p0 -> 0 as xi -> infinity iff p0 > p, together
      with theta < p0 + 1; margin min(p0 - p, p0 + 1 - theta).
    - fiber_monotone: f(t, sigma xi) xi / sigma = (1 + a) sigma^(p-1) xi^(p+1)
      increases in sigma; margin p - 1.
    - autonomous_comparison: 0 <= f - fbar = a xi^p <= a (xi + xi^p0) iff
      p0 >= p, and f > fbar on a set of positive measure iff A > 0; margin
      min(A, p0 - p).

    Every witness but that of sign is (t, xi) = (0, 1), where a peaks.  C_eps
    is :func:`growth_constant` at epsilon = 0.1.  Failures are reported, not raised.
    """
    p, theta, p0, amplitude = spec.p, spec.theta, spec.p0, spec.perturbation.amplitude
    rows = (
        ("sign", True, 0.0, "f >= 0 on xi >= 0 and f = 0 on xi <= 0"),
        ("superquadratic", theta <= p + 1.0, 1.0 - theta / (p + 1.0),
         "(xi f - theta F) / (xi f) = 1 - theta/(p+1); negative means theta is too large"),
        ("small_at_zero", True, p - 1.0, "p - 1, the decay exponent of f/|xi| as xi -> 0+"),
        ("growth_ceiling", p0 > p and p0 + 1.0 > theta, min(p0 - p, p0 + 1.0 - theta),
         "min(p0 - p, p0 + 1 - theta): f/|xi|^p0 decays as xi -> infinity and p0 + 1 > theta"),
        ("fiber_monotone", True, p - 1.0,
         "p - 1, the growth exponent of f(t, sigma xi) xi / sigma in sigma"),
        ("autonomous_comparison", amplitude > 0.0 and p0 >= p, min(amplitude, p0 - p),
         "min(A, p0 - p): A = sup a > 0, and p0 >= p keeps f - fbar under a (|xi| + |xi|^p0)"),
    )
    checks = tuple(
        HypothesisCheck(
            name, bool(ok), float(margin), (0.0, 0.0 if name == "sign" else 1.0), detail
        )
        for name, ok, margin, detail in rows
    )
    return HypothesisReport(checks, growth_constant(spec, 0.1), 0.1)
