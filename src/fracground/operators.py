"""Liouville-Weyl fractional operators as Fourier multipliers.

The one-sided derivative of order ``a`` acts on the spectrum as ``(iw)^a``
(left) or ``(-iw)^a`` (right) with the principal branch

    (+-iw)^a = |w|^a * exp(+-i a pi/2 * sign(w)),

the one-sided integrals use exponent ``-a``, and the composition
right-derivative o left-derivative has the real even symbol ``|w|^(2a)``.
The zero mode maps to 0 for derivatives and is singular for integrals, so
integrals reject fields with nonzero mean.  The Nyquist mode carries an
ambiguous frequency sign and is zeroed for the four one-sided symbols to
keep real fields real.

A Grunwald-Letnikov difference-quotient discretization of the same
derivatives is provided as an independent time-domain oracle; it treats the
field as zero outside the grid, hence its compact-support precondition.  Its
convolution is a zero-padded product of real-input FFTs, so the package runs
on numpy alone.
"""

from __future__ import annotations

import functools
import math
import warnings
from typing import Iterable, NamedTuple

import numpy as np

from .errors import SpectralTailError, SpectralTailWarning, ZeroModeSingularError
from .grid import Grid1D, SpectralField, lp_norm, make_grid, values_from_spectrum

__all__ = [
    "validate_order",
    "multiplier_symbol",
    "apply_multiplier",
    "fractional_derivative",
    "fractional_integral",
    "composed_operator",
    "gl_oracle",
    "HAlphaNorm",
    "h_alpha_norm",
    "h_alpha_norm_sq",
    "sobolev_embedding_probe",
]

#: relative high-frequency mass above which derivative inputs are flagged
TAIL_MASS_LIMIT = 1e-6

#: fraction of the Nyquist frequency where the "tail" band starts
TAIL_BAND_START = 0.75

#: bound on the discarded imaginary residue, relative to the input L2 norm
IMAG_RESIDUE_LIMIT = 1e-10

SYMBOL_KINDS = ("left_deriv", "right_deriv", "left_int", "right_int", "composed", "resolvent")


def validate_order(alpha: float, *, integral: bool = False) -> float:
    """Check a fractional order for operator use.

    Derivatives accept alpha in (0, 1] (alpha = 1 is the classical limit,
    kept for cross-checks); integrals accept alpha in (0, 1).
    """
    alpha = float(alpha)
    if not np.isfinite(alpha):
        raise ValueError(f"order must be finite, got {alpha}")
    if integral:
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"integral order must lie in (0, 1), got {alpha}")
    elif not 0.0 < alpha <= 1.0:
        raise ValueError(f"derivative order must lie in (0, 1], got {alpha}")
    return alpha


def _even_symbols(grid: Grid1D, alpha: float) -> tuple[np.ndarray, ...]:
    """Read-only ``|w|^(2 alpha)``, ``1 + |w|^(2 alpha)`` and its inverse, cached."""
    return _cached_even_symbols(grid.half_width, grid.n_points, validate_order(alpha))


# keyed on the grid's numbers: Grid1D defines __eq__ and so is unhashable
@functools.lru_cache(maxsize=8)
def _cached_even_symbols(half_width: float, n_points: int, alpha: float) -> tuple[np.ndarray, ...]:
    w_pow = np.abs(make_grid(half_width, n_points).frequencies) ** (2.0 * alpha)
    symbols = (w_pow, w_pow + 1.0, 1.0 / (w_pow + 1.0))
    for sym in symbols:
        sym.flags.writeable = False
    return symbols


def multiplier_symbol(grid: Grid1D, alpha: float, kind: str) -> np.ndarray:
    """Return the multiplier array for one operator kind.

    ``composed`` is ``|w|^(2 alpha)`` and ``resolvent`` its shifted inverse
    ``(|w|^(2 alpha) + 1)^(-1)``; both are real and even so the Nyquist mode
    is kept; both are cached per (grid, alpha) and read-only.  The four
    one-sided kinds are complex, built per call, with the zero and Nyquist
    entries zeroed.  Their phase ``exp(+-i a pi/2 * sign(w))`` takes one value
    on w > 0 and its conjugate on w < 0, so each is one real power of the
    positive frequencies times two scalar phases.
    """
    if kind not in SYMBOL_KINDS:
        raise ValueError(f"unknown symbol kind {kind!r}")
    if kind in ("composed", "resolvent"):
        composed, _, resolvent = _even_symbols(grid, alpha)
        return composed if kind == "composed" else resolvent

    validate_order(alpha, integral=kind in ("left_int", "right_int"))
    sign = 1.0 if kind.startswith("left") else -1.0
    power = alpha if kind.endswith("deriv") else -alpha
    m = grid.nyquist_index
    # |w_-k| == w_k bit for bit, so index N - k reuses the power of index k
    w_pow = grid.frequencies[1:m] ** power
    phase = np.exp(1j * (power * (np.pi / 2.0) * sign))
    sym = np.zeros(grid.n_points, dtype=np.complex128)
    sym[1:m] = w_pow * phase
    sym[: m : -1] = w_pow * phase.conjugate()
    return sym


def _tail_mass(u: SpectralField) -> float:
    """Share of the spectral power in the band |w| >= TAIL_BAND_START * max |w|.

    |w_k| rises with min(k, N - k) up to the Nyquist index m, so the band is
    the index range [k0, N - k0] around m.
    """
    spectrum = u.spectrum
    total = np.vdot(spectrum, spectrum).real
    if total == 0.0:
        return 0.0
    w, m = u.grid.frequencies, u.grid.nyquist_index
    k0 = int(np.searchsorted(w[:m], TAIL_BAND_START * abs(w[m])))
    band = spectrum[k0 : u.n_points - k0 + 1]
    return float(np.vdot(band, band).real / total)


def _check_tail(u: SpectralField, strict: bool) -> None:
    mass = _tail_mass(u)
    if mass >= TAIL_MASS_LIMIT:
        msg = (
            f"relative spectral tail mass {mass:.3e} >= {TAIL_MASS_LIMIT:.0e}; "
            "the multiplier result may be underresolved"
        )
        if strict:
            raise SpectralTailError(msg)
        warnings.warn(msg, SpectralTailWarning, stacklevel=3)


def apply_multiplier(u: SpectralField, symbol: np.ndarray) -> SpectralField:
    """Apply a diagonal Fourier multiplier, keeping ``symbol * u.spectrum`` as the spectrum.

    The asserted bound on the discarded imaginary residue bounds its gap to the values.
    """
    out_spectrum = symbol * u.spectrum
    values, imag_l2 = values_from_spectrum(u.grid, out_spectrum)
    scale = lp_norm(u, 2)
    if imag_l2 > IMAG_RESIDUE_LIMIT * max(scale, 1e-300):
        raise AssertionError(
            f"imaginary residue {imag_l2:.3e} exceeds {IMAG_RESIDUE_LIMIT:.0e} * ||u|| ({scale:.3e})"
        )
    return SpectralField._join(u.grid, values, out_spectrum)


def fractional_derivative(
    u: SpectralField, alpha: float, side: str, *, strict: bool = False
) -> SpectralField:
    """One-sided fractional derivative of order alpha in (0, 1].

    ``side`` selects the lower-limit ("left") or upper-limit ("right")
    convolution; spectrally these are the (iw)^alpha and (-iw)^alpha
    multipliers.  Inputs with relative spectral tail mass above 1e-6 trigger
    a warning, promoted to an error when ``strict`` is set.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    _check_tail(u, strict)
    kind = "left_deriv" if side == "left" else "right_deriv"
    return apply_multiplier(u, multiplier_symbol(u.grid, alpha, kind))


def fractional_integral(u: SpectralField, alpha: float, side: str) -> SpectralField:
    """One-sided fractional integral of order alpha in (0, 1).

    The zero-frequency multiplier is singular, so fields whose mean exceeds
    1e-10 are rejected; the zero mode of admissible fields maps to 0.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    mean = float(np.mean(u.values))
    if abs(mean) > 1e-10:
        raise ZeroModeSingularError(
            f"fractional integral requires a zero-mean field, got mean {mean:.3e}"
        )
    kind = "left_int" if side == "left" else "right_int"
    return apply_multiplier(u, multiplier_symbol(u.grid, alpha, kind))


def composed_operator(u: SpectralField, alpha: float, *, strict: bool = False) -> SpectralField:
    """Right-derivative of the left-derivative: the |w|^(2 alpha) multiplier."""
    _check_tail(u, strict)
    return apply_multiplier(u, multiplier_symbol(u.grid, alpha, "composed"))


# -- Grunwald-Letnikov oracle ------------------------------------------------

#: weights are dropped once they fall below this magnitude
GL_WEIGHT_CUTOFF = 1e-14

#: required distance between the numerical support and the domain ends
SUPPORT_MARGIN_FRACTION = 0.25


def fftconvolve(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """First n terms of the linear convolution of two real sequences.

    Both are zero-padded to the power of two m >= len(a) + len(b) - 1, so the
    circular convolution of the padded sequences, one real-input transform
    product, is the linear one.
    """
    m = 1 << (len(a) + len(b) - 2).bit_length()
    prod = np.fft.rfft(a, m)
    prod *= np.fft.rfft(b, m)
    return np.fft.irfft(prod, m)[:n]


def gl_weights(alpha: float, max_terms: int) -> np.ndarray:
    """Binomial weights (-1)^k C(alpha, k), cut before the first below GL_WEIGHT_CUTOFF."""
    k = np.arange(1.0, max_terms + 1.0)
    weights = np.concatenate(([1.0], np.cumprod((k - 1.0 - alpha) / k)))
    small = np.flatnonzero(np.abs(weights) < GL_WEIGHT_CUTOFF)
    return weights[: small[0]] if small.size else weights


def _check_support_margin(u: SpectralField) -> None:
    grid = u.grid
    magnitude = np.abs(u.values)
    peak = float(np.max(magnitude))
    if peak == 0.0:
        return
    idx = np.flatnonzero(magnitude > 1e-13 * peak)
    t_lo = grid.nodes[idx[0]]
    t_hi = grid.nodes[idx[-1]]
    margin = min(t_lo + grid.half_width, grid.half_width - t_hi)
    if margin < SUPPORT_MARGIN_FRACTION * grid.half_width:
        raise ValueError(
            f"support margin {margin:.3g} < L/4 = {SUPPORT_MARGIN_FRACTION * grid.half_width:.3g}; "
            "the difference-quotient oracle needs the field to vanish well inside the domain"
        )


def gl_oracle(u: SpectralField, alpha: float, side: str) -> SpectralField:
    """Grunwald-Letnikov derivative h^(-alpha) sum_k (-1)^k C(alpha,k) u(t -+ kh).

    Independent first-order-accurate discretization used to cross-validate
    the spectral derivatives.  The field is treated as zero outside the grid,
    so its numerical support must stay at least L/4 away from both ends.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    alpha = validate_order(alpha)
    _check_support_margin(u)
    grid = u.grid
    weights = gl_weights(alpha, grid.n_points - 1)
    values = u.values if side == "left" else u.values[::-1]
    out = fftconvolve(weights, values, grid.n_points)
    out *= grid.spacing ** (-alpha)
    if side == "right":
        out = out[::-1]
    return SpectralField.from_values(grid, out)


# -- norms and embedding ------------------------------------------------------


class HAlphaNorm(NamedTuple):
    seminorm: float
    norm: float
    time_domain_seminorm: float


def h_alpha_norm_sq(u: SpectralField, alpha: float) -> float:
    """Squared fractional Sobolev norm ||u||_L2^2 + || |w|^alpha u_hat ||^2 (spectral side only)."""
    return _spectrum_norm_sq(u.grid, u.spectrum, alpha)


def _spectrum_norm_sq(grid: Grid1D, spectrum: np.ndarray, alpha: float) -> float:
    """``h_alpha_norm_sq`` of the field with this spectrum, given without its values."""
    _, weight, _ = _even_symbols(grid, alpha)
    return float(grid.frequency_step / (2.0 * np.pi) * np.sum(weight * np.abs(spectrum) ** 2))


def h_alpha_norm(u: SpectralField, alpha: float) -> HAlphaNorm:
    """Seminorm and norm of order alpha, plus the time-domain seminorm.

    The seminorm is || |w|^alpha u_hat || with the Plancherel constant folded
    in; the time-domain variant is the L2 norm of the left fractional
    derivative, applied as its multiplier without a tail check.  The two agree to near machine precision on resolved fields,
    which is the numerical form of the norm-equivalence statement.
    """
    grid = u.grid
    w_pow, _, _ = _even_symbols(grid, alpha)
    scale = grid.frequency_step / (2.0 * np.pi)
    semi_sq = float(scale * np.sum(w_pow * np.abs(u.spectrum) ** 2))
    l2_sq = float(scale * np.sum(np.abs(u.spectrum) ** 2))
    time_semi = lp_norm(apply_multiplier(u, multiplier_symbol(grid, alpha, "left_deriv")), 2)
    return HAlphaNorm(math.sqrt(semi_sq), math.sqrt(semi_sq + l2_sq), time_semi)


def sobolev_embedding_probe(samples: Iterable[SpectralField], alpha: float) -> float:
    """Empirical lower bound for the sup-norm embedding constant.

    Returns max over samples of ||u||_inf / ||u||_alpha.  Only meaningful for
    alpha > 1/2, where the continuous embedding into bounded functions holds;
    smaller orders are rejected.
    """
    alpha = float(alpha)
    if alpha <= 0.5:
        raise ValueError(f"embedding probe requires alpha > 1/2, got {alpha}")
    validate_order(alpha)
    best = 0.0
    count = 0
    for u in samples:
        norm = math.sqrt(h_alpha_norm_sq(u, alpha))
        if norm == 0.0:
            raise ValueError("embedding probe samples must be nonzero")
        best = max(best, lp_norm(u, np.inf) / norm)
        count += 1
    if count == 0:
        raise ValueError("embedding probe needs at least one sample")
    return best
