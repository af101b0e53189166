"""Liouville-Weyl fractional operators as Fourier multipliers.

The one-sided derivative of order ``a`` acts on the spectrum as ``(iw)^a``
(left) or ``(-iw)^a`` (right) with the principal branch

    (+-iw)^a = |w|^a * exp(+-i a pi/2 * sign(w)),

the one-sided integrals use exponent ``-a``, and the composition
right-derivative o left-derivative has the real even symbol ``|w|^(2a)``.
Symbols, like spectra, hold the modes k <= N/2, where w >= 0; the mode -k of a
real field is the conjugate mirror of mode k, and so is its symbol.
The zero mode maps to 0 for derivatives and is singular for integrals, so
integrals reject fields with nonzero mean.  The Nyquist mode is its own
mirror, where the two conjugate phases would have to agree, and is zeroed for
the four one-sided symbols to keep real fields real.  A one-sided operator
owns the symbol it makes and takes the product in it; cached symbols are read.

A Grunwald-Letnikov difference-quotient discretization of the same
derivatives is provided as an independent time-domain oracle; it treats the
field as zero outside the grid, hence its compact-support precondition.  It
convolves the weights with the run of values that are not exactly zero only,
with real-input FFTs, so the package runs on numpy alone.  The convolution is
cut into blocks by the overlap-add method (Stockham, AFIPS SJCC 28, 1966): the
run, of r points, is transformed once at a power-of-two length p of about
four run lengths, and each block of p - r + 1 weights is transformed,
multiplied and added into the output.  Transforms of p points stay near cache
size, where one product of the whole sequences at N or 2N points does not.
The blocks run on two threads in two phases, the even blocks and then the odd
ones, however few blocks there are: blocks two apart write disjoint output,
and each output term is the sum of at most two block terms whatever the order,
so the result is the serial one bit for bit.  The blocks are added straight
into the oracle's zeroed output, which is then scaled in place, and the
oracle's output field holds that array.
"""

from __future__ import annotations

import functools
import math
import warnings
from typing import NamedTuple

import numpy as np

from .errors import SpectralTailWarning, ZeroModeSingularError
# values_from_spectrum is unused here: it is bound by name so that bench/tracer.py can rebind it
from .grid import Grid1D, SpectralField, _mode_power, _run_pair, lp_norm, values_from_spectrum

__all__ = [
    "validate_order",
    "multiplier_symbol",
    "fractional_derivative",
    "fractional_integral",
    "composed_operator",
    "gl_oracle",
    "HAlphaNorm",
    "h_alpha_norm",
    "h_alpha_norm_sq",
]

#: relative high-frequency mass above which derivative inputs are flagged
TAIL_MASS_LIMIT = 1e-6

#: fraction of the Nyquist frequency where the "tail" band starts
TAIL_BAND_START = 0.75

SYMBOL_KINDS = ("left_deriv", "right_deriv", "left_int", "right_int", "composed", "resolvent")


#: order ranges, all ending at 1: name -> (lower end, 1 included, error text)
_ORDER_RANGES = {
    "derivative": (0.0, True, "derivative order must lie in (0, 1]"),
    "integral": (0.0, False, "integral order must lie in (0, 1)"),
    "variational": (
        0.5, True,
        "the variational problem requires alpha in (1/2, 1) "
        "(alpha = 1 is allowed as the classical validation limit)",
    ),
}


def validate_order(alpha: float, *, within: str = "derivative") -> float:
    """Check a fractional order against a named range; return it as a float.

    ``derivative`` accepts alpha in (0, 1] (alpha = 1 is the classical limit,
    kept for cross-checks), ``integral`` accepts (0, 1), and ``variational``,
    the range of the energy functional, accepts (1/2, 1].
    """
    alpha = float(alpha)
    lower, closed, text = _ORDER_RANGES[within]
    if not math.isfinite(alpha):
        raise ValueError(f"order must be finite, got {alpha}")
    if not (lower < alpha < 1.0 or (closed and alpha == 1.0)):
        raise ValueError(f"{text}, got {alpha}")
    return alpha


# alpha is checked when a table is built, and lru_cache does not cache the error
@functools.lru_cache(maxsize=8)
def _even_symbols(grid: Grid1D, alpha: float) -> tuple[np.ndarray, ...]:
    """Read-only ``|w|^(2 alpha)``, ``1 + |w|^(2 alpha)``, its inverse and the pairing weights, cached.

    The pairing weights are dw/2pi (1 + |w_k|^(2 alpha)) for k <= N/2, doubled
    for 0 < k < N/2, each entry repeated for the real and the imaginary part;
    dw/2pi = 1/(2L).
    """
    alpha = validate_order(alpha)
    w_pow = grid.frequencies ** (2.0 * alpha)
    k_symbol = w_pow + 1.0
    half = k_symbol / (2.0 * grid.half_width)
    half[1:-1] *= 2.0
    symbols = (w_pow, k_symbol, 1.0 / k_symbol, np.repeat(half, 2))
    for sym in symbols:
        sym.flags.writeable = False
    return symbols


def multiplier_symbol(grid: Grid1D, alpha: float, kind: str) -> np.ndarray:
    """Return the multiplier array for one operator kind.

    ``composed`` is ``|w|^(2 alpha)`` and ``resolvent`` its shifted inverse
    ``(|w|^(2 alpha) + 1)^(-1)``; both are real and even so the Nyquist mode
    is kept; both are cached per (grid, alpha) and read-only.  The four
    one-sided kinds are complex, built per call, with the zero and Nyquist
    entries zeroed; they are not cached, since cross-checks draw a new order
    for nearly every call and a table holds N/2 + 1 complex entries per order
    (16 MB at N = 2^21).  Every symbol has the N/2 + 1 entries of a spectrum,
    at w >= 0, where the phase ``exp(+-i a pi/2 * sign(w))`` is one scalar,
    so each one-sided symbol is a real power of the frequencies times it.
    """
    if kind not in SYMBOL_KINDS:
        raise ValueError(f"unknown symbol kind {kind!r}")
    if kind in ("composed", "resolvent"):
        composed, _, resolvent, _ = _even_symbols(grid, alpha)
        return composed if kind == "composed" else resolvent

    validate_order(alpha, within="integral" if kind in ("left_int", "right_int") else "derivative")
    sign = 1.0 if kind.startswith("left") else -1.0
    power = alpha if kind.endswith("deriv") else -alpha
    m = grid.nyquist_index
    mag = np.zeros(m + 1)
    mag[1:m] = grid.frequencies[1:m] ** power
    return mag * np.exp(1j * (power * (np.pi / 2.0) * sign))


def _tail_mass(u: SpectralField) -> float:
    """Share of the spectral power in the band |w| >= TAIL_BAND_START * max |w|.

    w_k rises with k up to the Nyquist index, so the band is the tail k >= k0
    of the modes k <= N/2, each interior mode counted with its mirror.
    """
    power = _mode_power(u.spectrum)
    total = power.sum()
    if total == 0.0:
        return 0.0
    w = u.grid.frequencies
    k0 = int(np.searchsorted(w, TAIL_BAND_START * w[-1]))
    return float(power[k0:].sum() / total)


def _check_tail(u: SpectralField) -> None:
    mass = _tail_mass(u)
    if mass >= TAIL_MASS_LIMIT:
        warnings.warn(
            f"relative spectral tail mass {mass:.3e} >= {TAIL_MASS_LIMIT:.0e}; "
            "the multiplier result may be underresolved",
            SpectralTailWarning,
            stacklevel=3,
        )


def apply_multiplier(u: SpectralField, symbol: np.ndarray) -> SpectralField:
    """Apply a diagonal Fourier multiplier; the symbol is only read, as cached symbols are shared.

    The symbol must be real at k = 0 and N/2, as every ``multiplier_symbol``
    kind is.  Those modes are their own mirrors, so a real field's spectrum is
    real there, the product is too, and its inverse drops no imaginary part.
    """
    return SpectralField._from_fresh_spectrum(u.grid, symbol * u.spectrum)


def fractional_derivative(u: SpectralField, alpha: float, side: str) -> SpectralField:
    """One-sided fractional derivative of order alpha in (0, 1].

    ``side`` selects the lower-limit ("left") or upper-limit ("right")
    convolution; spectrally these are the (iw)^alpha and (-iw)^alpha
    multipliers.  Inputs with relative spectral tail mass above 1e-6 trigger
    a ``SpectralTailWarning``.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    _check_tail(u)
    product = multiplier_symbol(u.grid, alpha, "left_deriv" if side == "left" else "right_deriv")
    product *= u.spectrum
    return SpectralField._from_fresh_spectrum(u.grid, product)


def fractional_integral(u: SpectralField, alpha: float, side: str) -> SpectralField:
    """One-sided fractional integral of order alpha in (0, 1).

    The zero-frequency multiplier is singular, so fields whose mean exceeds
    1e-10 of their largest |u| are rejected; the zero mode of admissible
    fields maps to 0.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    mean = float(np.mean(u.values))
    if abs(mean) > 1e-10 * np.max(np.abs(u.values)):
        raise ZeroModeSingularError(
            f"fractional integral requires a zero-mean field, got mean {mean:.3e}"
        )
    product = multiplier_symbol(u.grid, alpha, "left_int" if side == "left" else "right_int")
    product *= u.spectrum
    return SpectralField._from_fresh_spectrum(u.grid, product)


def composed_operator(u: SpectralField, alpha: float) -> SpectralField:
    """Right-derivative of the left-derivative: the |w|^(2 alpha) multiplier."""
    _check_tail(u)
    return apply_multiplier(u, multiplier_symbol(u.grid, alpha, "composed"))


# -- Grunwald-Letnikov oracle ------------------------------------------------

#: weights are dropped once they fall below this magnitude
GL_WEIGHT_CUTOFF = 1e-14

#: required distance between the numerical support and the domain ends
SUPPORT_MARGIN_FRACTION = 0.25


#: floor of the overlap-add transform length: it keeps the number of blocks
#: of a short run, each a few Python-level calls, in the tens
OVERLAP_ADD_MIN_LENGTH = 2 ** 15


def fftconvolve(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """Add the first ``out.size`` terms of the linear convolution of two real sequences into ``out``.

    Handed zeros, ``out`` then holds the convolution; its terms from m on,
    past the linear length, are left as they are.  m is the power
    of two >= len(a) + len(b) - 1, at which one real-input transform product
    of the whole sequences is the linear convolution.  The product is taken by
    overlap-add over blocks of a instead, so that each transform stays near
    cache size however long a is.  b, of r terms, is transformed once at p,
    the smallest power of two >= 4 r, floored at OVERLAP_ADD_MIN_LENGTH and
    capped at m.  Each block of p - r + 1 terms of a is transformed at p,
    multiplied, inverted and added into ``out`` at its offset.  When the pair
    fits in one block (p = m, always so when b is the longer one) this is the
    one product of the whole sequences, bit for bit.  Otherwise p >= 4 r, so a
    block's p terms of output reach less than two blocks ahead: the even
    blocks, and then the odd ones, are added two threads at a time, to the
    same bits as one loop.

    Blocks raise the roundoff of each term above that of the one product,
    whose padding spreads it over more terms; at p >= 4 r it stays near the
    roundoff of a float64 direct sum.
    """
    r = len(b)
    m = 1 << (len(a) + r - 2).bit_length()
    p = min(m, max(OVERLAP_ADD_MIN_LENGTH, 1 << (4 * r - 1).bit_length()))
    step = p - r + 1
    b_spectrum = np.fft.rfft(b, p)
    out = out[:m]

    def add_blocks(starts: range) -> None:
        for start in starts:
            prod = np.fft.rfft(a[start : start + step], p)
            prod *= b_spectrum
            head = out[start : start + p]
            head += np.fft.irfft(prod, p)[: head.size]

    starts = range(0, min(len(a), out.size), step)
    for phase in (starts[0::2], starts[1::2]):
        _run_pair(functools.partial(add_blocks, phase[0::2]), functools.partial(add_blocks, phase[1::2]))


def gl_weights(alpha: float, max_terms: int) -> np.ndarray:
    """Binomial weights (-1)^k C(alpha, k), alpha in (0, 1], cut before the first below GL_WEIGHT_CUTOFF.

    The ratios (k - 1 - alpha) / k, k >= 1, are written into the weights 2^14
    at a time, so that no full-length index array is made beside them.
    """
    weights, block = np.ones(max_terms + 1), 2 ** 14
    for start in range(1, max_terms + 1, block):
        k = np.arange(start, min(start + block, max_terms + 1), dtype=np.float64)
        weights[start : start + block] = (k - 1.0 - alpha) / k
    ratio = np.cumprod(weights[1:], out=weights[1:])
    # the weights for k >= 1 are <= 0 and rise to 0, so the cut is one search
    return weights[: 1 + np.searchsorted(ratio, -GL_WEIGHT_CUTOFF, side="right")]


def _check_support_margin(u: SpectralField) -> tuple[int, int]:
    """Check the support margin; return the run i0..i1 of values not exactly 0 (0, 0 if none)."""
    grid = u.grid
    # argmax stops at the first nonzero from either end and makes no index array
    nonzero = u.values != 0.0
    i0 = int(np.argmax(nonzero))
    if not nonzero[i0]:
        return 0, 0
    i1 = nonzero.size - int(np.argmax(nonzero[::-1]))
    run = np.abs(u.values[i0:i1])
    idx = i0 + np.flatnonzero(run > 1e-13 * run.max())
    t_lo, t_hi = -grid.half_width + grid.spacing * idx[[0, -1]]  # two nodes, not the node array
    margin = min(t_lo + grid.half_width, grid.half_width - t_hi)
    if margin < SUPPORT_MARGIN_FRACTION * grid.half_width:
        raise ValueError(
            f"support margin {margin:.3g} < L/4 = {SUPPORT_MARGIN_FRACTION * grid.half_width:.3g}; "
            "the difference-quotient oracle needs the field to vanish well inside the domain"
        )
    return i0, i1


def gl_oracle(u: SpectralField, alpha: float, side: str) -> SpectralField:
    """Grunwald-Letnikov derivative h^(-alpha) sum_k (-1)^k C(alpha,k) u(t -+ kh).

    Independent first-order-accurate discretization used to cross-validate
    the spectral derivatives.  The field is treated as zero outside the grid,
    so its numerical support must stay at least L/4 away from both ends.
    Only the values that are not exactly 0, the run i0..i1, enter the
    convolution, against the first N - i0 weights; the output before i0 is 0.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    alpha = validate_order(alpha)
    i0, i1 = _check_support_margin(u)
    grid = u.grid
    n = grid.n_points
    values = u.values
    out = frame = np.zeros(n)
    if side == "right":  # the left oracle in the mirrored frame
        values, frame = values[::-1], out[::-1]
        i0, i1 = n - i1, n - i0
    if i1 > i0:
        fftconvolve(gl_weights(alpha, n - i0 - 1), values[i0:i1], frame[i0:])
        frame[i0:] *= grid.spacing ** (-alpha)
    return SpectralField(grid, out)


# -- norms ---------------------------------------------------------------------


class HAlphaNorm(NamedTuple):
    seminorm: float
    norm: float
    time_domain_seminorm: float


def h_alpha_norm_sq(u: SpectralField, alpha: float) -> float:
    """Squared fractional Sobolev norm ||u||_L2^2 + || |w|^alpha u_hat ||^2 (spectral side only)."""
    return _pairing(u.grid, u.spectrum, u.spectrum, alpha)


def _pairing(grid: Grid1D, x: np.ndarray, y: np.ndarray, alpha: float) -> float:
    """<x, y>_alpha = dw/2pi sum_k (1 + |w_k|^(2 alpha)) Re(x_k conj y_k) over all modes k of two fields.

    Mode -k mirrors mode k, so the sum over the stored modes k <= N/2 weights
    the interior ones twice; it is one dot of the interleaved real and
    imaginary parts against the pairing weights, the fourth table of ``_even_symbols``.
    """
    return float(_even_symbols(grid, alpha)[3] @ (x.view(np.float64) * y.view(np.float64)))


def h_alpha_norm(u: SpectralField, alpha: float) -> HAlphaNorm:
    """Seminorm and norm of order alpha, plus the time-domain seminorm.

    The seminorm is || |w|^alpha u_hat || with the Plancherel constant folded
    in, summed on its own: the norm minus the L2 part would cancel.  The norm
    is the square root of :func:`h_alpha_norm_sq`.  The time-domain variant is
    the L2 norm of the left fractional derivative, applied as its multiplier
    without a tail check.  The two seminorms agree to near machine precision
    on resolved fields, which is the numerical form of the norm-equivalence
    statement.
    """
    grid = u.grid
    w_pow, _, _, _ = _even_symbols(grid, alpha)
    semi_sq = grid.frequency_step / (2.0 * np.pi) * float(np.sum(w_pow * _mode_power(u.spectrum)))
    time_semi = lp_norm(apply_multiplier(u, multiplier_symbol(grid, alpha, "left_deriv")), 2)
    return HAlphaNorm(math.sqrt(semi_sq), math.sqrt(h_alpha_norm_sq(u, alpha)), time_semi)
