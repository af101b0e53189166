"""Energy functional, its gradient, and the constrained fiber projection.

The functional splits into a quadratic part, evaluated spectrally through the
|w|^(2 alpha) weight, and a potential part integrated by the rectangle rule.
Rays sigma -> sigma * u carry a one-dimensional restriction of the energy
(the fiber map) whose unique positive maximizer defines the projection onto
the stationarity manifold {u != 0 : <grad E(u), u> = 0}; minimizing the
projected energy over trial fields gives an upper bound for the least
positive critical level.  By the same homogeneity, the projected energy of
a translate falls as one potential integral rises, which the solver's
translation search maximizes.  Every function takes the nonlinearity it is
to evaluate; the autonomous problem is ``spec.autonomous()``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoPositivePartError
from .grid import SpectralField, translate
# eval_df is unused here; bench/tracer.py binds it in this module and fails if it is missing
from .nonlinearity import NonlinearitySpec, eval_F, eval_df, eval_f
from .operators import _even_symbols, apply_multiplier, h_alpha_norm_sq, multiplier_symbol

__all__ = [
    "EnergyBreakdown",
    "GradientResult",
    "FiberScan",
    "NehariResult",
    "LevelEstimate",
    "energy",
    "gradient",
    "fiber_map",
    "nehari_project",
    "estimate_level",
]


def _validate_solver_order(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.5 < alpha <= 1.0:
        raise ValueError(
            f"the variational problem requires alpha in (1/2, 1) "
            f"(alpha = 1 is allowed as the classical validation limit), got {alpha}"
        )
    return alpha


@dataclass(frozen=True)
class EnergyBreakdown:
    quadratic: float
    potential: float
    total: float


def energy(u: SpectralField, spec: NonlinearitySpec, alpha: float) -> EnergyBreakdown:
    """Energy 1/2 ||u||_alpha^2 - integral F(t, u)."""
    alpha = _validate_solver_order(alpha)
    quad = 0.5 * h_alpha_norm_sq(u, alpha)
    pot = float(u.grid.spacing * np.sum(eval_F(spec, u.grid.nodes, u.values)))
    return EnergyBreakdown(quad, pot, quad - pot)


@dataclass(frozen=True)
class GradientResult:
    raw_residual: SpectralField
    precond_gradient: SpectralField
    residual_norm: float


def gradient(u: SpectralField, spec: NonlinearitySpec, alpha: float) -> GradientResult:
    """L2 residual (|w|^(2a) + 1) u - f(., u) and its H^alpha representative.

    The preconditioned gradient is the raw residual smoothed by the resolvent
    multiplier; its ||.||_alpha norm is the reported residual, a mesh-robust
    stationarity measure.
    """
    alpha = _validate_solver_order(alpha)
    grid = u.grid
    _, k_symbol, _ = _even_symbols(grid, alpha)
    linear_part = apply_multiplier(u, k_symbol)
    f_vals = eval_f(spec, grid.nodes, u.values)
    raw = SpectralField.from_values(grid, linear_part.values - f_vals)
    precond = apply_multiplier(raw, multiplier_symbol(grid, alpha, "resolvent"))
    res_norm = float(np.sqrt(h_alpha_norm_sq(precond, alpha)))
    return GradientResult(raw, precond, res_norm)


@dataclass(frozen=True)
class FiberScan:
    sigmas: np.ndarray
    values: np.ndarray
    derivative_sign_changes: int


def _potential_on_ray(u: SpectralField, spec: NonlinearitySpec, sigma: float) -> float:
    return float(u.grid.spacing * np.sum(eval_F(spec, u.grid.nodes, sigma * u.values)))


def fiber_map(u: SpectralField, spec: NonlinearitySpec, alpha: float, sigma_grid) -> FiberScan:
    """Sample psi(sigma) = E(sigma u) along a ray, counting slope sign changes.

    The quadratic coefficient is computed once; only the potential is
    re-integrated per sigma.  The sign-change count of the discrete slope is
    the sampled version of fiber unimodality (one + to - change for fields
    with nonzero positive part).
    """
    alpha = _validate_solver_order(alpha)
    sigmas = np.asarray(list(sigma_grid), dtype=float)
    if sigmas.size == 0 or np.any(sigmas <= 0):
        raise ValueError("sigma grid must be nonempty and positive")
    if not np.any(u.values != 0):
        raise ValueError("fiber map requires a nonzero field")
    norm_sq = h_alpha_norm_sq(u, alpha)
    values = np.array([0.5 * s * s * norm_sq - _potential_on_ray(u, spec, s) for s in sigmas])
    slopes = np.diff(values)
    signs = np.sign(slopes[slopes != 0.0])
    changes = int(np.count_nonzero(np.diff(signs) != 0))
    return FiberScan(sigmas, values, changes)


@dataclass(frozen=True)
class NehariResult:
    sigma: float
    projected: SpectralField
    constraint_residual: float
    energy: float


def nehari_project(u: SpectralField, spec: NonlinearitySpec, alpha: float) -> NehariResult:
    """Scale a field onto the stationarity manifold along its ray.

    f(t, .) is homogeneous of degree p, so the fiber equation
    ||u||_alpha^2 = integral f(t, sigma u) u / sigma has the closed-form root
    sigma = (||u||_alpha^2 / integral f(t, u) u)^(1/(p-1)); a non-homogeneous
    family would need a root-finder again.  The quotient is taken on u / max(u),
    so u_+^(p+1) neither overflows nor underflows; a sigma that is not finite
    and positive (||u||_alpha^2 underflowed) raises NoPositivePartError.
    """
    alpha = _validate_solver_order(alpha)
    peak = float(np.max(u.values))
    if peak <= 0.0:
        raise NoPositivePartError("field has no positive part; no fiber maximizer exists")
    nodes, h = u.grid.nodes, u.grid.spacing

    def pairing(values: np.ndarray) -> float:
        return h * float(np.sum(eval_f(spec, nodes, values) * values))

    unit_norm_sq = h_alpha_norm_sq(u, alpha) / peak / peak
    unit_sigma = (unit_norm_sq / pairing(u.values / peak)) ** (1.0 / (spec.p - 1.0))
    sigma = unit_sigma / peak
    if not (np.isfinite(sigma) and sigma > 0.0):
        raise NoPositivePartError(f"fiber scale {sigma!r} is not finite and positive")
    projected = sigma * u
    breakdown = energy(projected, spec, alpha)
    # <grad E(w), w> / ||w||_alpha^2 at w = sigma u, with the norm of w itself
    residual = 1.0 - pairing(projected.values) / (2.0 * breakdown.quadratic)
    return NehariResult(sigma, projected, residual, breakdown.total)


#: cap on the sub-cell evaluations of the translation search
_TRANSLATE_EVALS = 5


def _best_translate(u: SpectralField, spec: NonlinearitySpec) -> tuple[SpectralField, float]:
    """Translate u to the shift s that minimizes its projected energy; return (field, s).

    A spectral shift leaves ||u||_alpha unchanged, so by homogeneity the
    projected energy falls as J(s) = h sum (1 + a(t)) u_+(t - s)^(p+1) rises.
    Over whole cells J is one circular correlation, searched globally; the
    best cell is refined by successive parabolic interpolation through
    ``translate``, and the first evaluation that does not raise J strictly
    marks its rounding floor and ends the search.  With a = 0 the field is
    returned as it is: J is then flat, and a search would move u by rounding.
    """
    grid = u.grid
    h, n = grid.spacing, grid.n_points
    coeff = 1.0 + spec.perturbation.weight(grid.nodes)
    if np.all(coeff == 1.0):
        return u, 0.0
    peak, power = float(np.max(u.values)), spec.p + 1.0

    def integral(fld: SpectralField) -> float:
        return h * float(np.sum(coeff * np.maximum(fld.values / peak, 0.0) ** power))

    unit_power = np.maximum(u.values / peak, 0.0) ** power
    cells = h * np.fft.irfft(np.fft.rfft(coeff) * np.conj(np.fft.rfft(unit_power)), n)
    k = int(np.argmax(cells))
    k = k - n if k >= n // 2 else k
    xs = [(k - 1) * h, k * h, (k + 1) * h]
    js = [cells[(k - 1) % n], cells[k], cells[(k + 1) % n]]
    best = None
    for _ in range(_TRANSLATE_EVALS):
        (a, b, c), (ja, jb, jc) = xs, js
        den = (b - a) * (jb - jc) - (b - c) * (jb - ja)
        if den == 0.0:
            break
        x = b - 0.5 * ((b - a) ** 2 * (jb - jc) - (b - c) ** 2 * (jb - ja)) / den
        if not a < x < c:
            break
        moved = translate(u, x)
        jx = integral(moved)
        if jx <= jb:
            break
        best = moved
        xs, js = ([b, x, c], [jb, jx, jc]) if x > b else ([a, x, b], [ja, jx, jb])
    shift = xs[1]
    return (best if best is not None else translate(u, shift)), shift


@dataclass(frozen=True)
class LevelEstimate:
    level: float
    argmin_index: int
    energies: tuple[float, ...]
    failures: tuple[tuple[int, str], ...]


def estimate_level(spec: NonlinearitySpec, alpha: float, candidates) -> LevelEstimate:
    """Upper bound for the least critical level: min projected energy over candidates.

    Candidates whose projection fails (no positive part) are skipped and
    reported; at least one candidate must survive.
    """
    energies: list[float] = []
    failures: list[tuple[int, str]] = []
    best = np.inf
    best_idx = -1
    for i, cand in enumerate(candidates):
        try:
            result = nehari_project(cand, spec, alpha)
        except NoPositivePartError as exc:
            failures.append((i, str(exc)))
            energies.append(np.nan)
            continue
        energies.append(result.energy)
        if result.energy < best:
            best, best_idx = result.energy, i
    if best_idx < 0:
        raise NoPositivePartError("every candidate failed to project")
    return LevelEstimate(best, best_idx, tuple(energies), tuple(failures))
