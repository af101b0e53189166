"""Operator identity checks used by `validate-ops` and the acceptance suite.

Every check produces a relative residual together with the tolerance it must
stay below: transform round trip, Plancherel, symbol branch product,
composition against the |w|^(2a) symbol, the one-sided inverse identities on
zero-mean fields, the seminorm equality between the spectral and time-domain
definitions, and the alpha = 1 classical limit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid1D, SpectralField, lp_norm, spectral_l2_norm
from .operators import (
    composed_operator,
    fractional_derivative,
    fractional_integral,
    h_alpha_norm,
    multiplier_symbol,
)

__all__ = ["CheckRow", "random_band_limited_field", "conformance_checks"]


@dataclass(frozen=True)
class CheckRow:
    name: str
    alpha: float
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual < self.tolerance


def random_band_limited_field(
    grid: Grid1D, rng: np.random.Generator, *, zero_mean: bool = False
) -> SpectralField:
    """Random real field supported on modes |k| <= N/8, normalized in L2.

    ``irfft`` drops the imaginary part of the zero mode.
    """
    n = grid.n_points
    k0 = 1 if zero_mean else 0
    coeffs = np.zeros(n // 2 + 1, dtype=np.complex128)
    # one draw, in mode order: the real, then the imaginary part of each mode
    real, imag = rng.normal(size=(n // 8 + 1 - k0, 2)).T
    coeffs[k0 : n // 8 + 1] = real + 1j * imag
    values = np.fft.irfft(coeffs, n)
    values /= np.sqrt(grid.spacing * np.sum(values ** 2))
    return SpectralField(grid, values)


def _rel_l2(a: SpectralField, b: SpectralField) -> float:
    h = a.grid.spacing
    diff = np.sqrt(h * np.sum((a.values - b.values) ** 2))
    ref = np.sqrt(h * np.sum(b.values ** 2))
    return float(diff / max(ref, 1e-300))


def conformance_checks(grid: Grid1D, alpha: float, seed: int = 0) -> list[CheckRow]:
    """Run the identity-check suite on one grid at one fractional order."""
    rng = np.random.default_rng(seed)
    u = random_band_limited_field(grid, rng)
    u_zero_mean = random_band_limited_field(grid, rng, zero_mean=True)
    l2_time = lp_norm(u, 2)
    # the one-sided symbols zero the modes 0 and N/2
    interior = slice(1, grid.nyquist_index)
    product = (
        multiplier_symbol(grid, alpha, "left_deriv")[interior]
        * multiplier_symbol(grid, alpha, "right_deriv")[interior]
    )
    target = grid.frequencies[interior] ** (2.0 * alpha)
    sequential = fractional_derivative(fractional_derivative(u, alpha, "left"), alpha, "right")
    rows = [
        ("transform_round_trip", alpha,
         _rel_l2(SpectralField._from_fresh_spectrum(grid, u.spectrum), u), 1e-12),
        ("plancherel", alpha, abs(l2_time - spectral_l2_norm(u)) / l2_time, 1e-12),
        ("symbol_branch_product", alpha, float(
            np.max(np.abs(product - target) / target) + np.max(np.abs(product.imag) / target)
        ), 1e-13),
        ("composition_vs_symbol", alpha,
         _rel_l2(sequential, composed_operator(u, alpha)), 1e-12),
    ]
    # I^a is the inverse of D^a on zero-mean fields, from either side and in either order
    orders = (
        ("derivative_of_integral", fractional_integral, fractional_derivative),
        ("integral_of_derivative", fractional_derivative, fractional_integral),
    )
    for side in ("left", "right") if alpha < 1.0 else ():
        for name, inner, outer in orders:
            recovered = outer(inner(u_zero_mean, alpha, side), alpha, side)
            rows.append((f"{name}_{side}", alpha, _rel_l2(recovered, u_zero_mean), 1e-10))
    norms = h_alpha_norm(u, alpha)
    # a Gaussian of width L/64, so it is resolved and decays to the box's edge at any L
    width = grid.half_width / 64.0
    scaled = grid.nodes / width
    gauss = np.exp(-scaled ** 2)
    rows += [
        ("seminorm_equality", alpha,
         abs(norms.seminorm - norms.time_domain_seminorm) / (1.0 + norms.seminorm), 1e-10),
        ("classical_limit", 1.0, _rel_l2(
            fractional_derivative(SpectralField(grid, gauss), 1.0, "left"),
            SpectralField(grid, -2.0 * scaled / width * gauss),
        ), 1e-8),
    ]
    return [CheckRow(*row) for row in rows]
