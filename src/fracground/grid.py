"""Truncated real-line grids and spectrally sampled fields.

The real line is replaced by the periodic interval [-L, L) sampled at N
uniform points.  The discrete spectrum of a field is calibrated against the
continuum Fourier transform

    u_hat(w) = integral exp(-i w t) u(t) dt,

so ``spectrum[k] = h * (-1)^k * rfft(values)[k]`` at the angular frequencies
``w_k = pi k / L``; the phase ``exp(i w_k L)`` that moves the FFT origin from
index 0 to t = -L is exactly ``(-1)^k``.  With this scaling the discrete
L2 norm of the values equals the (1/2pi)-weighted L2 norm of the spectrum
(Plancherel), and smooth decaying functions reproduce their analytic
transforms to near machine precision.

Values are real, so u_hat(-w) = conj u_hat(w) and the modes k = 0..N/2 carry
the whole spectrum: every spectrum, frequency array and multiplier symbol has
length N/2 + 1.  The forward transform is ``rfft`` and the inverse ``irfft``
below SPLIT_TRANSFORM_MIN_LENGTH points.  From there on, when 4 divides N,
each is taken as two half-length transforms of the even and the odd samples,
run at once on two threads and joined by one radix-2 twiddle level (Bailey,
J. Supercomputing 4, 1990): the halves fit in cache where the whole transform
does not, and numpy's FFT releases the interpreter lock.  Modes 0 and N/2 are
their own mirrors, so in the spectrum of a real field they are real; both
inverses drop their imaginary parts, and report the L2 norm of what they
dropped.
"""

from __future__ import annotations

import functools
import threading
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Grid1D",
    "SpectralField",
    "make_grid",
    "lp_norm",
    "spectral_l2_norm",
    "inner",
    "gaussian_field",
    "shift_cells",
    "translate",
    "field_to_csv",
    "field_from_csv",
]

#: transform length from which, when 4 divides it, a real transform is taken
#: as two half-length ones on two threads; shorter ones save less than the
#: thread start costs
SPLIT_TRANSFORM_MIN_LENGTH = 2 ** 18


@dataclass(frozen=True)
class Grid1D:
    """Uniform periodic grid on [-L, L) with the angular frequencies pi k / L, k = 0..N/2.

    Made from (L, N) alone, with L > 0 and even N >= 16, which fix the rest:
    the spacing h = 2L/N, so that h * N == 2 L exactly in floating point, and
    the read-only frequencies are set on construction, so equal grids hold
    equal tables and module caches of per-grid tables key on the grid.  The
    nodes are made on their first read and kept, read-only.
    """

    half_width: float
    n_points: int
    spacing: float = field(init=False, compare=False)
    frequencies: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        half_width, n_points = self.half_width, self.n_points
        if not np.isfinite(half_width) or half_width <= 0:
            raise ValueError(f"half_width must be a positive real, got {half_width}")
        if n_points % 2 != 0:
            raise ValueError(f"n_points must be even, got {n_points}")
        if n_points < 16:
            raise ValueError(f"n_points must be >= 16, got {n_points}")
        h = 2.0 * half_width / n_points
        freqs = np.fft.rfftfreq(n_points, d=h)
        freqs *= 2.0 * np.pi
        freqs.flags.writeable = False
        object.__setattr__(self, "spacing", h)
        object.__setattr__(self, "frequencies", freqs)

    @functools.cached_property
    def nodes(self) -> np.ndarray:
        nodes = -self.half_width + self.spacing * np.arange(self.n_points)
        nodes.flags.writeable = False
        return nodes

    @property
    def frequency_step(self) -> float:
        return np.pi / self.half_width

    @property
    def nyquist_index(self) -> int:
        return self.n_points // 2


def make_grid(half_width: float, n_points: int) -> Grid1D:
    """The grid on [-L, L) with N uniform cells, L taken as a float and N as an int."""
    return Grid1D(float(half_width), int(n_points))


@dataclass(frozen=True, eq=False)
class SpectralField:
    """Real-valued sampled function with its continuum-calibrated spectrum (modes k <= N/2).

    The values are checked and frozen on construction: a float64 array of
    shape (N,), every entry finite, made read-only in place.  So the
    constructor takes arrays made for the field alone, and ``from_values``
    copies any other.  The spectrum is made on its first read and kept,
    read-only, so a field whose spectrum is never read costs no transform;
    two threads racing on the first read at worst compute the same array
    twice.  Arithmetic combines both representations linearly and makes no
    transform.
    """

    grid: Grid1D
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        values, n = self.values, self.grid.n_points
        if not (isinstance(values, np.ndarray) and values.dtype == np.float64):
            got = getattr(values, "dtype", type(values))
            raise ValueError(f"values must be a float64 array, got {got}")
        if values.shape != (n,):
            raise ValueError(f"values must have shape ({n},), got {values.shape}")
        # checked here, not at the first read: the transform warns on non-finite input
        if not np.isfinite(values).all():
            raise ValueError("field values must be finite")
        values.flags.writeable = False

    @functools.cached_property
    def spectrum(self) -> np.ndarray:
        """``h (-1)^k rfft(values)`` on the modes k <= N/2, read-only."""
        values = self.values
        spectrum = _split_rfft(values) if _splits(values.size) else np.fft.rfft(values)
        _alternate(spectrum, self.grid.spacing)
        spectrum.flags.writeable = False
        return spectrum

    @classmethod
    def from_values(cls, grid: Grid1D, values: np.ndarray) -> "SpectralField":
        """The field of a float64 copy of ``values``."""
        return cls(grid, np.array(values, dtype=np.float64))

    @classmethod
    def _join(cls, grid: Grid1D, values: np.ndarray, spectrum: np.ndarray) -> "SpectralField":
        """Freeze freshly made values and their spectrum into a field."""
        fld = cls(grid, values)
        spectrum.flags.writeable = False
        fld.__dict__["spectrum"] = spectrum  # fills the cached property
        return fld

    @classmethod
    def _from_fresh_spectrum(cls, grid: Grid1D, spectrum: np.ndarray) -> "SpectralField":
        """Freeze a freshly made or read-only spectrum and its inverse into a field."""
        values, _ = values_from_spectrum(grid, spectrum)
        return cls._join(grid, values, spectrum)

    def _check_same_grid(self, other: "SpectralField") -> None:
        if self.grid != other.grid:
            raise ValueError("fields live on different grids")

    def __add__(self, other: "SpectralField") -> "SpectralField":
        self._check_same_grid(other)
        return self._join(self.grid, self.values + other.values, self.spectrum + other.spectrum)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        self._check_same_grid(other)
        return self._join(self.grid, self.values - other.values, self.spectrum - other.spectrum)

    def __mul__(self, scalar: float) -> "SpectralField":
        scalar = float(scalar)
        return self._join(self.grid, scalar * self.values, scalar * self.spectrum)

    __rmul__ = __mul__

    def __neg__(self) -> "SpectralField":
        return self._join(self.grid, -self.values, -self.spectrum)


def values_from_spectrum(grid: Grid1D, spectrum: np.ndarray) -> tuple[np.ndarray, float]:
    """Invert a spectrum of modes k <= N/2 to real values; return (values, L2 of imaginary residue).

    The values are ``irfft`` of the spectrum with its phase and h undone, or
    the same values by two half-length inverses on two threads from
    SPLIT_TRANSFORM_MIN_LENGTH points on.  Both drop the imaginary parts of
    modes 0 and N/2; kept, they would add an imaginary constant and an
    imaginary (-1)^j wave to the values, whose discrete L2 norm
    ``hypot(Im S_0, Im S_N/2) / sqrt(N h)`` is returned.  It is zero for the
    spectrum of a real field and for its product with a symbol that is real
    at k = 0 and N/2, as every ``multiplier_symbol`` kind is.
    """
    spectrum = np.asarray(spectrum, dtype=np.complex128)
    m = grid.nyquist_index
    if spectrum.shape != (m + 1,):
        raise ValueError(f"spectrum must have shape ({m + 1},), got {spectrum.shape}")
    if not np.isfinite(spectrum).all():
        raise ValueError("spectrum entries must be finite")
    n, h = grid.n_points, grid.spacing
    imag_l2 = float(np.hypot(spectrum[0].imag, spectrum[m].imag) / np.sqrt(n * h))
    if _splits(n):
        return _split_irfft(spectrum, h), imag_l2
    scaled = spectrum / h
    scaled[1::2] *= -1.0
    return np.fft.irfft(scaled, n), imag_l2


# -- split transforms ---------------------------------------------------------
#
# With E and O the rffts of the n/2 even and odd samples and W = exp(-2 pi i / n),
# the rfft X of all n samples is, for k <= n/4,
#
#     X_k = E_k + W^k O_k,    X_(n/2 - k) = conj(E_k - W^k O_k),
#
# and conversely E_k = (X_k + conj X_(n/2-k)) / 2, O_k = W^-k (X_k - conj X_(n/2-k)) / 2.
# Every array the halves write is made on the calling thread and handed to
# them: the C allocator keeps what a worker thread freed for that thread's own
# later use, so arrays made there would add to the process's peak memory.
# numpy's FFT still allocates its own work memory on the worker thread, about
# 2 x 8 MB at a half length of 2^20, and glibc keeps that in a second arena.
# So the peak resident memory of a run of large split transforms differs by
# about that much from run to run: the gl_cross benchmark's peak_rss_mb reads
# about 220 or about 229 MB, also for one seed.


def _splits(n: int) -> bool:
    return n >= SPLIT_TRANSFORM_MIN_LENGTH and n % 4 == 0


def _run_pair(first: Callable[[], object], second: Callable[[], object]) -> tuple[object, object]:
    """Call ``first`` here and ``second`` on a worker thread at the same time; return both results.

    The worker is joined before this returns or raises.  An exception raised by
    ``second`` is raised here, unless ``first`` raised one, which wins.
    """
    outcome = {}

    def work():
        try:
            outcome["result"] = second()
        except BaseException as exc:  # raised again in the calling thread
            outcome["error"] = exc

    worker = threading.Thread(target=work)
    worker.start()
    try:
        result = first()
    finally:
        worker.join()
    if "error" in outcome:
        raise outcome["error"]
    return result, outcome["result"]


def _alternate(x: np.ndarray, scale: float) -> None:
    """Multiply x_k by scale * (-1)^k in place."""
    x[0::2] *= scale
    x[1::2] *= -scale


@functools.lru_cache(maxsize=8)
def _twiddles(n: int, sign: float) -> tuple[np.ndarray, np.ndarray]:
    """exp(sign 2 pi i k / n) for k <= n/4 as ``coarse[k // B] * fine[k % B]``, read-only.

    B is the power of two near sqrt(n/4), so each table holds about sqrt(n/4) entries.
    """
    quarter = n // 4
    cols = 1 << (quarter.bit_length() // 2)
    step = sign * 2.0 * np.pi / n
    fine = np.exp(1j * step * np.arange(cols))
    coarse = np.exp(1j * (step * cols) * np.arange(quarter // cols + 2))
    fine.flags.writeable = coarse.flags.writeable = False
    return fine, coarse


def _twist(x: np.ndarray, n: int, sign: float) -> None:
    """Multiply the n/4 + 1 entries x_k by exp(sign 2 pi i k / n) in place, row by row of B entries."""
    fine, coarse = _twiddles(n, sign)
    rows = x.size // fine.size
    body = x[: rows * fine.size].reshape(rows, fine.size)
    body *= fine
    body *= coarse[:rows, None]
    tail = x[rows * fine.size :]
    tail *= fine[: tail.size]
    tail *= coarse[rows]


def _split_rfft(values: np.ndarray) -> np.ndarray:
    """``rfft(values)`` from the rffts of the even and the odd samples, taken on two threads."""
    quarter = values.size // 4
    spectrum = np.empty(2 * quarter + 1, dtype=np.complex128)
    odd = np.empty(quarter + 1, dtype=np.complex128)
    _run_pair(
        lambda: np.fft.rfft(values[0::2], out=spectrum[: quarter + 1]),
        lambda: np.fft.rfft(values[1::2], out=odd),
    )
    _twist(odd, values.size, -1.0)
    # the even rfft E_k fills S_k; S_(n/2-k) and then S_k take their parts from it
    lower, upper = spectrum[:quarter], spectrum[:quarter:-1]
    np.subtract(lower, odd[:quarter], out=upper)
    np.conjugate(upper, out=upper)
    lower += odd[:quarter]
    spectrum[quarter] = np.conj(spectrum[quarter] - odd[quarter])
    return spectrum


def _split_irfft(spectrum: np.ndarray, h: float) -> np.ndarray:
    """``irfft`` of ``(-1)^k spectrum / h`` by two half-length inverses on two threads.

    Each half is inverted into its own contiguous row, where the inverse needs
    no buffer of its own, and the rows are interleaved by one copy once both
    are done and the half spectra are freed.
    """
    half = spectrum.size - 1
    quarter = half // 2
    head = spectrum[: quarter + 1]
    even = np.conjugate(spectrum[quarter:][::-1])
    odd = np.subtract(head, even)
    even += head
    # (-1)^(n/2 - k) = (-1)^k, as 4 divides n
    _alternate(even, 0.5 / h)
    _alternate(odd, 0.5 / h)
    _twist(odd, 2 * half, 1.0)
    samples = np.empty((2, half))
    _run_pair(
        lambda: np.fft.irfft(even, half, out=samples[0]),
        lambda: np.fft.irfft(odd, half, out=samples[1]),
    )
    del even, odd
    return samples.T.reshape(-1)


def _mode_power(spectrum: np.ndarray) -> np.ndarray:
    """|S_k|^2 for k <= N/2, interior modes doubled: each also stands for its mirror -k."""
    power = np.abs(spectrum)
    power *= power
    power[1:-1] *= 2.0
    return power


def lp_norm(fld: SpectralField, p: float) -> float:
    """Lp norm by h-weighted rectangle quadrature; p = inf gives max |u|.

    Orders below 2 are rejected: the function class of interest embeds in
    L^q only for q in [2, inf].
    """
    if p == np.inf:
        return float(np.max(np.abs(fld.values)))
    p = float(p)
    if not 2 <= p < np.inf:
        raise ValueError(f"p must be >= 2 or inf, got {p}")
    h = fld.grid.spacing
    return float((h * np.sum(np.abs(fld.values) ** p)) ** (1.0 / p))


def spectral_l2_norm(fld: SpectralField) -> float:
    """L2 norm evaluated on the spectral side, Plancherel constant folded in."""
    dw = fld.grid.frequency_step
    return float(np.sqrt(dw / (2.0 * np.pi) * np.sum(_mode_power(fld.spectrum))))


def inner(u: SpectralField, v: SpectralField) -> float:
    """Discrete L2 inner product h * sum(u v)."""
    u._check_same_grid(v)
    return float(u.grid.spacing * np.sum(u.values * v.values))


def gaussian_field(
    grid: Grid1D, center: float = 0.0, width: float = 2.0, amplitude: float = 1.0
) -> SpectralField:
    """Gaussian bump amplitude * exp(-(t - center)^2 / (2 width^2)), centred in [-L, L]."""
    if not -grid.half_width <= center <= grid.half_width:
        raise ValueError(f"center must be in [-L, L], L = {grid.half_width}, got {center}")
    width = float(width)
    try:
        spread = 2.0 * width ** 2
    except OverflowError:
        spread = np.inf
    if not (0 < width < np.inf and 0 < spread < np.inf):
        raise ValueError(f"width must be in (0, inf) with 2 width^2 finite and positive, got {width}")
    with np.errstate(over="ignore"):  # a width far below the spacing: exp(-inf) = 0 off the centre
        values = amplitude * np.exp(-((grid.nodes - center) ** 2) / spread)
    return SpectralField(grid, values)


def shift_cells(fld: SpectralField, n_cells: int) -> SpectralField:
    """Translate a field by an integer number of grid cells (periodic)."""
    return SpectralField(fld.grid, np.roll(fld.values, int(n_cells)))


def translate(fld: SpectralField, shift: float) -> SpectralField:
    """Translate a field by any real shift, t -> u(t - shift) (periodic).

    The spectrum is multiplied by exp(-i w shift), which leaves every spectral
    norm unchanged.  The Nyquist mode is its own mirror, so its factor keeps
    only the real part cos(w shift), which keeps the values real (and scales
    that one mode, negligible on resolved fields); a whole-cell shift is then
    ``shift_cells`` up to rounding.
    """
    grid = fld.grid
    phase = np.exp(-1j * float(shift) * grid.frequencies)
    phase[-1] = phase[-1].real
    return SpectralField._from_fresh_spectrum(grid, phase * fld.spectrum)


# -- serialization ----------------------------------------------------------


def field_to_csv(fld: SpectralField, path: str) -> None:
    """Write a field as CSV with columns t, u (shortest round-trip floats)."""
    rows = "".join([f"{t!r},{u!r}\n" for t, u in zip(fld.grid.nodes.tolist(), fld.values.tolist())])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,u\n" + rows)


def field_from_csv(path: str) -> SpectralField:
    t_vals: list[float] = []
    u_vals: list[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if header.strip() != "t,u":
            raise ValueError(f"unexpected CSV header {header.strip()!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                a, b = line.split(",")
                t_vals.append(float(a))
                u_vals.append(float(b))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad row {line!r}: {exc}") from exc
    n = len(t_vals)
    if n < 2:
        raise ValueError("field CSV must contain at least two rows")
    half_width = -t_vals[0]
    grid = make_grid(half_width, n)
    if not np.allclose(grid.nodes, t_vals, rtol=0, atol=1e-12 * max(1.0, half_width)):
        raise ValueError("CSV nodes are not a uniform [-L, L) grid")
    return SpectralField(grid, np.array(u_vals))
