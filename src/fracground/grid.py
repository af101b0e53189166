"""Truncated real-line grids and spectrally sampled fields.

The real line is replaced by the periodic interval [-L, L) sampled at N
uniform points.  The discrete spectrum of a field is calibrated against the
continuum Fourier transform

    u_hat(w) = integral exp(-i w t) u(t) dt,

so ``spectrum[k] = h * (-1)^k * fft(values)[k]`` with the angular frequencies
``w_k = pi k / L`` in FFT layout; the phase ``exp(i w_k L)`` that moves the FFT
origin from index 0 to t = -L is exactly ``(-1)^k``.  With this scaling the discrete
L2 norm of the values equals the (1/2pi)-weighted L2 norm of the spectrum
(Plancherel), and smooth decaying functions reproduce their analytic
transforms to near machine precision.

Values are real, so both transforms are real-input ones.  The forward
transform takes ``rfft`` for ``k <= N/2`` and fills the negative frequencies
with the exact conjugate mirror, so every spectrum made from values is exactly
Hermitian.  The spectrum is kept at full length N.  The inverse transform
returns ``irfft`` of the Hermitian part of a spectrum; the imaginary residue
that a non-Hermitian spectrum would leave is measured from its anti-Hermitian
part by Parseval, without a complex inverse.
"""

from __future__ import annotations

import json
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
    "field_to_json",
    "field_from_json",
]


@dataclass(frozen=True, eq=False)
class Grid1D:
    """Uniform periodic grid on [-L, L) with FFT-layout angular frequencies."""

    half_width: float
    n_points: int
    spacing: float
    nodes: np.ndarray = field(repr=False)
    frequencies: np.ndarray = field(repr=False)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Grid1D):
            return NotImplemented
        return self.half_width == other.half_width and self.n_points == other.n_points

    @property
    def frequency_step(self) -> float:
        return np.pi / self.half_width

    @property
    def nyquist_index(self) -> int:
        return self.n_points // 2


def make_grid(half_width: float, n_points: int) -> Grid1D:
    """Build a grid on [-L, L) with N uniform cells.

    Requires L > 0 and even N >= 16.  The node spacing satisfies
    h * N == 2 L exactly in floating point (h is computed as 2L/N).
    """
    half_width = float(half_width)
    if not np.isfinite(half_width) or half_width <= 0:
        raise ValueError(f"half_width must be a positive real, got {half_width}")
    n_points = int(n_points)
    if n_points % 2 != 0:
        raise ValueError(f"n_points must be even, got {n_points}")
    if n_points < 16:
        raise ValueError(f"n_points must be >= 16, got {n_points}")
    h = 2.0 * half_width / n_points
    nodes = -half_width + h * np.arange(n_points)
    freqs = np.fft.fftfreq(n_points, d=h)
    freqs *= 2.0 * np.pi
    nodes.flags.writeable = False
    freqs.flags.writeable = False
    return Grid1D(half_width, n_points, h, nodes, freqs)


@dataclass(frozen=True, eq=False)
class SpectralField:
    """Real-valued sampled function with its continuum-calibrated spectrum.

    Both representations are computed eagerly on construction, so instances
    are immutable and safe to share between threads.  Arithmetic combines
    both representations linearly and makes no transform.
    """

    grid: Grid1D
    values: np.ndarray = field(repr=False)
    spectrum: np.ndarray = field(repr=False)

    @classmethod
    def from_values(cls, grid: Grid1D, values: np.ndarray) -> "SpectralField":
        values = np.array(values, dtype=np.float64)
        if values.shape != (grid.n_points,):
            raise ValueError(
                f"values must have shape ({grid.n_points},), got {values.shape}"
            )
        # checked before the transform too, which warns on non-finite input
        if not np.all(np.isfinite(values)):
            raise ValueError("field values must be finite")
        m, h = grid.nyquist_index, grid.spacing
        half = np.fft.rfft(values)
        # h * (-1)^k * rfft for k <= N/2, then the exact conjugate mirror
        spectrum = np.empty(grid.n_points, dtype=np.complex128)
        np.multiply(half[0::2], h, out=spectrum[0 : m + 1 : 2])
        np.multiply(half[1::2], -h, out=spectrum[1 : m + 1 : 2])
        np.conjugate(spectrum[m - 1 : 0 : -1], out=spectrum[m + 1 :])
        return cls._join(grid, values, spectrum)

    @classmethod
    def _join(cls, grid: Grid1D, values: np.ndarray, spectrum: np.ndarray) -> "SpectralField":
        """Freeze freshly made values and their spectrum into a field."""
        if not np.all(np.isfinite(values)):
            raise ValueError("field values must be finite")
        values.flags.writeable = False
        spectrum.flags.writeable = False
        return cls(grid, values, spectrum)

    @classmethod
    def from_spectrum(cls, grid: Grid1D, spectrum: np.ndarray) -> "SpectralField":
        """Build a field from a spectrum, discarding the imaginary residue.

        Use :func:`values_from_spectrum` when the caller needs to assert a
        bound on the discarded imaginary part.
        """
        values, _ = values_from_spectrum(grid, spectrum)
        return cls.from_values(grid, values)

    @property
    def n_points(self) -> int:
        return self.grid.n_points

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
    """Invert a spectrum to real values; return (values, L2 of imaginary residue).

    The values are the real part of the inverse transform, taken as ``irfft``
    of the Hermitian part ``(S_k + conj S_-k) / 2``.  The imaginary part is the
    inverse transform of the anti-Hermitian part, so by Parseval its squared
    discrete L2 norm is ``sum_k |S_k - conj S_-k|^2 / (4 N h)``: zero for the
    spectrum of a field, and the measure of how far an applied symbol is from
    keeping real fields real.
    """
    spectrum = np.asarray(spectrum, dtype=np.complex128)
    if spectrum.shape != (grid.n_points,):
        raise ValueError(
            f"spectrum must have shape ({grid.n_points},), got {spectrum.shape}"
        )
    if not np.all(np.isfinite(spectrum)):
        raise ValueError("spectrum entries must be finite")
    n, m = grid.n_points, grid.nyquist_index
    head = spectrum[: m + 1]
    # conj S_-k for k = 0..N/2
    mirror = np.empty(m + 1, dtype=np.complex128)
    mirror[0] = spectrum[0].conjugate()
    np.conjugate(spectrum[: m - 1 : -1], out=mirror[1:])
    odd = head - mirror
    # modes 0 and N/2 are their own mirrors; every other one stands for two
    odd_sq = 2.0 * np.vdot(odd[1:m], odd[1:m]).real + abs(odd[0]) ** 2 + abs(odd[m]) ** 2
    imag_l2 = float(np.sqrt(odd_sq / (4.0 * n * grid.spacing)))
    # mirror becomes (-1)^k (S_k + conj S_-k) / (2h): the Hermitian part, phase and h undone
    mirror += head
    np.divide(mirror[0::2], 2.0 * grid.spacing, out=mirror[0::2])
    np.divide(mirror[1::2], -2.0 * grid.spacing, out=mirror[1::2])
    return np.fft.irfft(mirror, n), imag_l2


def lp_norm(fld: SpectralField, p: float) -> float:
    """Lp norm by h-weighted rectangle quadrature; p = inf gives max |u|.

    Orders below 2 are rejected: the function class of interest embeds in
    L^q only for q in [2, inf].
    """
    if p == np.inf:
        return float(np.max(np.abs(fld.values)))
    p = float(p)
    if p < 2:
        raise ValueError(f"p must be >= 2 or inf, got {p}")
    h = fld.grid.spacing
    return float((h * np.sum(np.abs(fld.values) ** p)) ** (1.0 / p))


def spectral_l2_norm(fld: SpectralField) -> float:
    """L2 norm evaluated on the spectral side, Plancherel constant folded in."""
    dw = fld.grid.frequency_step
    return float(np.sqrt(dw / (2.0 * np.pi) * np.sum(np.abs(fld.spectrum) ** 2)))


def inner(u: SpectralField, v: SpectralField) -> float:
    """Discrete L2 inner product h * sum(u v)."""
    u._check_same_grid(v)
    return float(u.grid.spacing * np.sum(u.values * v.values))


def gaussian_field(
    grid: Grid1D, center: float = 0.0, width: float = 2.0, amplitude: float = 1.0
) -> SpectralField:
    """Gaussian bump amplitude * exp(-(t - center)^2 / (2 width^2))."""
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    values = amplitude * np.exp(-((grid.nodes - center) ** 2) / (2.0 * width ** 2))
    return SpectralField.from_values(grid, values)


def shift_cells(fld: SpectralField, n_cells: int) -> SpectralField:
    """Translate a field by an integer number of grid cells (periodic)."""
    return SpectralField.from_values(fld.grid, np.roll(fld.values, int(n_cells)))


def translate(fld: SpectralField, shift: float) -> SpectralField:
    """Translate a field by any real shift, t -> u(t - shift) (periodic).

    The spectrum is multiplied by exp(-i w shift), which leaves every spectral
    norm unchanged.  The Nyquist frequency has no sign, so its factor keeps
    only the real part cos(w shift), which keeps the values real (and scales
    that one mode, negligible on resolved fields); a whole-cell shift is then
    ``shift_cells`` up to rounding.
    """
    grid = fld.grid
    phase = np.exp(-1j * float(shift) * grid.frequencies)
    phase[grid.nyquist_index] = phase[grid.nyquist_index].real
    spectrum = phase * fld.spectrum
    values, _ = values_from_spectrum(grid, spectrum)
    return SpectralField._join(grid, values, spectrum)


# -- serialization ----------------------------------------------------------


def field_to_csv(fld: SpectralField, path: str) -> None:
    """Write a field as CSV with columns t, u (shortest round-trip floats)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,u\n")
        for t, u in zip(fld.grid.nodes, fld.values):
            fh.write(f"{float(t)!r},{float(u)!r}\n")


def field_from_csv(path: str) -> SpectralField:
    t_vals: list[float] = []
    u_vals: list[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if header.strip() != "t,u":
            raise ValueError(f"unexpected CSV header {header.strip()!r}")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            a, b = line.split(",")
            t_vals.append(float(a))
            u_vals.append(float(b))
    n = len(t_vals)
    if n < 2:
        raise ValueError("field CSV must contain at least two rows")
    h = t_vals[1] - t_vals[0]
    half_width = -t_vals[0]
    grid = make_grid(half_width, n)
    if not np.allclose(grid.nodes, t_vals, rtol=0, atol=1e-12 * max(1.0, half_width)):
        raise ValueError("CSV nodes are not a uniform [-L, L) grid")
    return SpectralField.from_values(grid, np.asarray(u_vals))


def field_to_json(fld: SpectralField) -> dict:
    """Binary-free JSON record {L, N, values}."""
    return {
        "L": fld.grid.half_width,
        "N": fld.grid.n_points,
        "values": [float(v) for v in fld.values],
    }


def field_from_json(record: dict) -> SpectralField:
    grid = make_grid(record["L"], record["N"])
    return SpectralField.from_values(grid, np.asarray(record["values"], dtype=float))


def save_field_json(fld: SpectralField, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(field_to_json(fld), fh)
        fh.write("\n")


def load_field_json(path: str) -> SpectralField:
    with open(path, "r", encoding="utf-8") as fh:
        return field_from_json(json.load(fh))
