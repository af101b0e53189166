"""Energy functional, its gradient, and the constrained fiber projection.

The functional splits into a quadratic part, evaluated spectrally through the
|w|^(2 alpha) weight, and a potential part integrated by the rectangle rule.
Rays sigma -> sigma * u carry a one-dimensional restriction of the energy
(the fiber map) whose unique positive maximizer defines the projection onto
the stationarity manifold {u != 0 : <grad E(u), u> = 0}; minimizing the
projected energy over trial fields gives an upper bound for the least
positive critical level.  By the same homogeneity, the projected energy of
a translate falls as one potential integral rises, which the translation
search of the solve and of the one-shot bound maximizes.  Every function
takes the nonlinearity it is to evaluate; the autonomous problem is
``spec.autonomous()``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoPositivePartError
from .grid import Grid1D, SpectralField, translate
# eval_df is unused here; bench/tracer.py binds it in this module and fails if it is missing
from .nonlinearity import NonlinearitySpec, _coefficient, _power_plus, eval_F, eval_df, eval_f
from .operators import _even_symbols, _pairing, apply_multiplier, h_alpha_norm_sq, multiplier_symbol, validate_order

__all__ = [
    "EnergyBreakdown",
    "GradientResult",
    "FiberScan",
    "NehariResult",
    "energy",
    "gradient",
    "fiber_map",
    "nehari_project",
]


@dataclass(frozen=True)
class EnergyBreakdown:
    quadratic: float
    potential: float
    total: float


def energy(u: SpectralField, spec: NonlinearitySpec, alpha: float) -> EnergyBreakdown:
    """Energy 1/2 ||u||_alpha^2 - integral F(t, u)."""
    alpha = validate_order(alpha, within="variational")
    quad = 0.5 * h_alpha_norm_sq(u, alpha)
    pot = float(u.grid.spacing * np.sum(eval_F(spec, u.grid, u.values)))
    return EnergyBreakdown(quad, pot, quad - pot)


@dataclass(frozen=True)
class GradientResult:
    precond_gradient: SpectralField
    residual_norm: float
    alpha: float

    @property
    def raw_residual(self) -> SpectralField:
        """The L2 residual K u - f(., u), K = 1 + |w|^(2 alpha), made on demand (one transform)."""
        _, k_symbol, _, _ = _even_symbols(self.precond_gradient.grid, self.alpha)
        return apply_multiplier(self.precond_gradient, k_symbol)


def gradient(u: SpectralField, spec: NonlinearitySpec, alpha: float) -> GradientResult:
    """H^alpha gradient K^-1 (K u - f(., u)) = u - K^-1 f(., u), K = 1 + |w|^(2 alpha).

    The second form takes two transforms, one of f(., u) and one back from
    the resolvent multiplier; the L2 residual K u - f(., u) is the
    ``raw_residual`` property, made only when asked for.  The ||.||_alpha
    norm of the preconditioned gradient is the reported residual, a
    mesh-robust stationarity measure.
    """
    alpha = validate_order(alpha, within="variational")
    grid = u.grid
    # eval_f's array is fresh, so it is frozen as it is, not copied
    f_field = SpectralField(grid, eval_f(spec, grid, u.values))
    precond = u - apply_multiplier(f_field, multiplier_symbol(grid, alpha, "resolvent"))
    res_norm = float(np.sqrt(h_alpha_norm_sq(precond, alpha)))
    return GradientResult(precond, res_norm, alpha)


def _potential(spec: NonlinearitySpec, grid: Grid1D, values: np.ndarray) -> float:
    """P(u) = h sum F(t, u) = h/(p+1) ((1 + a) . u_+^(p+1)): one dot with the cached coefficient.

    ``energy`` reads the same sum through ``eval_F`` and ``np.sum``; the two agree to rounding.
    """
    power = spec.p + 1.0
    return grid.spacing / power * float(_coefficient(spec, grid) @ _power_plus(values, power))


def _segment_norms(lam, norm_a, chord_sq, norm_b):
    """||(1 - lam) a + lam b||_alpha^2 from ||a||_alpha^2, the chord ||b - a||_alpha^2 and ||b||_alpha^2:
    (1 - lam) ||a||^2 + lam ||b||^2 - lam (1 - lam) ||b - a||^2."""
    return (1.0 - lam) * norm_a + lam * norm_b - lam * (1.0 - lam) * chord_sq


def _segment_energies(
    a: SpectralField, b: SpectralField, norms: tuple[float, float, float], spec: NonlinearitySpec, lams
) -> np.ndarray:
    """E((1 - lam) a + lam b) for every lam in the array lams, the quadratic part in closed form.

    The quadratic part is ``_segment_norms`` of norms = (||a||_alpha^2,
    ||b - a||_alpha^2, ||b||_alpha^2), halved; the potential is one ``eval_F``
    call on the stack of the combined values.
    """
    grid = a.grid
    stack = (1.0 - lams)[:, None] * a.values + lams[:, None] * b.values
    return 0.5 * _segment_norms(lams, *norms) - grid.spacing * np.sum(eval_F(spec, grid, stack), axis=1)


def _segment_bounds(
    path: list[SpectralField], norms: list, potentials: list, chords: list, spec: NonlinearitySpec
) -> np.ndarray:
    """An upper bound of E on each segment (1 - lam) a + lam b of a polyline.

    Along a segment E = Q - P, where Q = ||.||_alpha^2 / 2 is a convex
    quadratic in lam, from the nodes' ``norms`` ||u||_alpha^2 and the
    segments' ``chords`` ||b - a||_alpha^2, and P = h sum F(t, .), from their
    ``potentials``, is convex and >= 0 (F(t, .) is convex, with a >= 0).  So P
    lies above 0 and above its tangent lines at both ends, P(0) + lam P'(0)
    and P(1) - (1 - lam) P'(1), where P'(0) = h sum f(t, a)(b - a) and
    P'(1) = h sum f(t, b)(b - a), and U = Q - max(0, both tangents) >= E.
    Between the crossings of the three lines U is convex, so its maximum over
    [0, 1] is its largest value at 0, 1 or a crossing.
    """
    grid, h = path[0].grid, path[0].grid.spacing
    force = [eval_f(spec, grid, u.values) for u in path]
    steps = [b.values - a.values for a, b in zip(path, path[1:])]
    pot, norms = np.array(potentials), np.array(norms)
    p0, p1 = pot[:-1, None], pot[1:, None]
    d0 = h * np.array([f @ step for f, step in zip(force, steps)])[:, None]
    d1 = h * np.array([f @ step for f, step in zip(force[1:], steps)])[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        # where each tangent meets 0, and where the two tangents meet
        crossings = np.hstack([-p0 / d0, (d1 - p1) / d1, (p1 - d1 - p0) / (d0 - d1)])
    ends = np.broadcast_to([0.0, 1.0], (len(steps), 2))
    lam = np.hstack([ends, np.clip(np.nan_to_num(crossings), 0.0, 1.0)])
    quad = 0.5 * _segment_norms(lam, norms[:-1, None], np.array(chords)[:, None], norms[1:, None])
    lines = np.maximum(0.0, np.maximum(p0 + lam * d0, p1 - (1.0 - lam) * d1))
    return np.max(quad - lines, axis=1)


@dataclass(frozen=True)
class FiberScan:
    sigmas: np.ndarray
    values: np.ndarray
    derivative_sign_changes: int


def fiber_map(u: SpectralField, spec: NonlinearitySpec, alpha: float, sigma_grid) -> FiberScan:
    """Sample psi(sigma) = E(sigma u) along a ray, counting slope sign changes.

    psi is the projection's curve: with the fiber root sigma* and the
    potential P* = h sum F(t, sigma* u) of ``_fiber_scale``, homogeneity of
    degree p + 1 gives P(sigma u) = r^(p+1) P* for r = sigma / sigma*, and
    sigma*^2 ||u||_alpha^2 = (p + 1) P* on the manifold, so
    psi(sigma) = P* r^2 ((p + 1)/2 - r^(p-1)) exactly, at any amplitude of u.
    The sign-change count of the discrete slope is the sampled version of
    fiber unimodality (one + to - change).  A field with no positive part, or
    one whose every power flushes to 0 (as at p >~ 1e20), has no maximizer on
    the ray: NoPositivePartError is raised where ``_fiber_scale`` raises it.
    """
    alpha = validate_order(alpha, within="variational")
    sigmas = np.asarray(list(sigma_grid), dtype=float)
    if sigmas.size == 0 or not np.all((0 < sigmas) & (sigmas < np.inf)):
        raise ValueError("sigma grid must be nonempty, positive and finite")
    sigma, potential = _fiber_scale(u, spec, alpha)
    # a power that overflows makes psi = -inf, and -inf - (-inf) is a NaN slope, not counted
    with np.errstate(over="ignore", invalid="ignore"):
        ratios = sigmas / sigma
        values = potential * ratios * ratios * (0.5 * (spec.p + 1.0) - ratios ** (spec.p - 1.0))
        slopes = np.diff(values)
    signs = np.sign(slopes[(slopes != 0.0) & ~np.isnan(slopes)])
    changes = int(np.count_nonzero(np.diff(signs) != 0))
    return FiberScan(sigmas, values, changes)


@dataclass(frozen=True)
class NehariResult:
    sigma: float
    projected: SpectralField
    constraint_residual: float
    energy: float


def _fiber_scale(u: SpectralField, spec: NonlinearitySpec, alpha: float) -> tuple[float, float]:
    """The fiber root sigma of u and the potential h sum F(t, sigma u) there.

    f(t, .) is homogeneous of degree p, so ||u||_alpha^2 = integral f(t, sigma u) u / sigma
    has the root sigma = (||u||_alpha^2 / integral f(t, u) u)^(1/(p-1)).  As
    f(t, xi) xi = (p+1) F(t, xi), one power pass on u / max(u), where u_+^(p+1)
    neither overflows nor underflows, gives sigma, and the potential is that pass
    times (sigma max(u))^(p+1).  With max(u) = m 2^e, 1/2 <= m < 1, the norm of
    u / max(u) is that of u 2^(1 - e) over (2 m)^2: the scaling is exact, so the
    norm neither underflows nor overflows at any amplitude, and it equals
    ||u||_alpha^2 / max(u)^2 bit for bit where that is finite.  A sigma that is
    not finite and positive, or a potential that overflows (p within about 5e-4
    of 1), raises NoPositivePartError.
    """
    peak = float(np.max(u.values))
    if peak <= 0.0:
        raise NoPositivePartError("field has no positive part; no fiber maximizer exists")
    grid, power = u.grid, spec.p + 1.0
    mantissa, exponent = np.frexp(peak)
    scaled = np.ldexp(u.spectrum.view(np.float64), 1 - exponent)
    # 2 m is max(u) scaled alike; an np.float64, so a flushed pairing gives inf, not an exception
    unit_peak = 2.0 * mantissa
    unit_norm_sq = _pairing(grid, scaled, scaled, alpha) / unit_peak / unit_peak
    unit_pairing = power * grid.spacing * float(np.sum(eval_F(spec, grid, u.values / peak)))
    # inf or NaN once the norm or the pairing is flushed (as at p >~ 1e20) or a power overflows
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        sigma = float((unit_norm_sq / unit_pairing) ** (1.0 / (spec.p - 1.0)) / peak)
        potential = float(np.float64(sigma * peak) ** power * unit_pairing / power)
    if not (0.0 < sigma < np.inf and potential < np.inf):
        raise NoPositivePartError(f"fiber scale {sigma!r} or its potential is not finite and positive")
    return sigma, potential


def nehari_project(u: SpectralField, spec: NonlinearitySpec, alpha: float) -> NehariResult:
    """Scale a field onto the stationarity manifold along its ray, in closed form: one ``eval_F`` pass.

    NoPositivePartError is raised where ``_fiber_scale`` raises it, and when
    the alpha-norm of sigma u underflows to 0, which leaves no residual.
    """
    alpha = validate_order(alpha, within="variational")
    sigma, potential = _fiber_scale(u, spec, alpha)
    projected = sigma * u
    # the norm of w = sigma u itself, not sigma^2 ||u||_alpha^2, so that the residual
    # <grad E(w), w> / ||w||_alpha^2 shows where a subnormal ||u||_alpha^2 made sigma miss
    quadratic = 0.5 * h_alpha_norm_sq(projected, alpha)
    if quadratic == 0.0:
        raise NoPositivePartError("the projected field's alpha-norm underflows to 0")
    residual = 1.0 - (spec.p + 1.0) * potential / (2.0 * quadratic)
    return NehariResult(sigma, projected, residual, quadratic - potential)


#: cap on the Newton steps of the translation search
_NEWTON_STEPS = 3


def _best_translate(u: SpectralField, spec: NonlinearitySpec) -> tuple[SpectralField, float]:
    """Translate u to the shift s that minimizes its projected energy; return (field, s).

    A spectral shift leaves ||u||_alpha unchanged, so by homogeneity the
    projected energy falls as the potential J(s) = h sum F(t, u(t - s)) rises,
    taken of u / max(u).  J at the whole cells is one circular correlation,
    with spectrum C, and its band-limited interpolant is J(s) = sum Re z over
    the stored modes, z = C exp(i w s) with the interior modes doubled (up to
    a positive factor), so J'(s) = -sum w Im z and J''(s) = -sum w^2 Re z in
    closed form.  Mode 0 of C is set to 0: it holds the constant 1 of 1 + a
    and no shape, and without it a near-flat a still picks the right cell.
    The best cell is refined by at most ``_NEWTON_STEPS`` Newton steps
    s <- s - J'/J''; the search stops before a step where J'' is not
    negative (not concave), where the step is within eps L (no progress on a
    shift in the box), or where the iterate would leave the cells next to
    the best one (outside the bracket).  When 1 + a(t) is exactly 1 at every
    node (the one test of a = 0: an amplitude that rounds away on the grid
    passes it as amplitude 0 does), every translate has the same energy and
    J is flat, so u itself is returned with shift 0.0 rather than moved by
    rounding.
    """
    grid = u.grid
    h, n, omega = grid.spacing, grid.n_points, grid.frequencies
    coeff = _coefficient(spec, grid)
    if np.all(coeff == 1.0):
        return u, 0.0
    unit_power = _power_plus(u.values / float(np.max(u.values)), spec.p + 1.0)
    spectrum = np.fft.rfft(coeff) * np.conj(np.fft.rfft(unit_power))
    spectrum[0] = 0.0
    k = int(np.argmax(np.fft.irfft(spectrum, n)))
    k = k - n if k >= n // 2 else k
    spectrum[1:-1] *= 2.0
    shift = k * h
    for _ in range(_NEWTON_STEPS):
        z = spectrum * np.exp(1j * shift * omega)
        curvature = -float(omega * omega @ z.real)
        if not curvature < 0.0:
            break
        step = float(omega @ z.imag) / curvature  # -J'/J'', as J' = -sum w Im z
        if not (abs(step) > np.finfo(float).eps * grid.half_width and abs(shift + step - k * h) < h):
            break
        shift += step
    return translate(u, shift), shift
