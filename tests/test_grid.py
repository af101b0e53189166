import json

import numpy as np
import pytest

from fracground import (
    SpectralField,
    field_from_csv,
    field_from_json,
    field_to_csv,
    field_to_json,
    gaussian_field,
    inner,
    lp_norm,
    make_grid,
    shift_cells,
    spectral_l2_norm,
    translate,
)
from fracground.checks import random_band_limited_field
from fracground.grid import values_from_spectrum
from fracground.operators import h_alpha_norm_sq


class TestMakeGrid:
    def test_pi_domain_layout(self):
        grid = make_grid(np.pi, 16)
        assert grid.spacing == 2 * np.pi / 16
        # with L = pi the angular frequencies are the integers -8..7
        assert np.allclose(sorted(grid.frequencies), np.arange(-8, 8), atol=1e-14)
        assert grid.frequencies[0] == 0.0

    def test_default_spacing(self):
        grid = make_grid(64, 4096)
        assert grid.spacing == 0.03125
        assert grid.spacing * grid.n_points == 2 * grid.half_width

    def test_frequency_antisymmetry_except_nyquist(self):
        grid = make_grid(5.0, 64)
        w = grid.frequencies
        for k in range(1, grid.nyquist_index):
            assert w[k] == -w[grid.n_points - k]
        assert w[grid.nyquist_index] < 0  # the lone Nyquist entry

    @pytest.mark.parametrize("bad_n", [15, 17, 101])
    def test_odd_n_rejected(self, bad_n):
        with pytest.raises(ValueError, match="even"):
            make_grid(1.0, bad_n)

    @pytest.mark.parametrize("bad_l", [0.0, -2.0])
    def test_nonpositive_half_width_rejected(self, bad_l):
        with pytest.raises(ValueError, match="positive"):
            make_grid(bad_l, 64)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError, match=">= 16"):
            make_grid(1.0, 8)


class TestTransform:
    def test_pure_mode_spectrum_support(self, small_grid):
        k0 = 7
        w0 = np.pi * k0 / small_grid.half_width
        u = SpectralField.from_values(small_grid, np.cos(w0 * small_grid.nodes))
        mags = np.abs(u.spectrum)
        hot = np.nonzero(mags > 1e-8 * mags.max())[0]
        assert set(hot) == {k0, small_grid.n_points - k0}

    def test_zero_field(self, small_grid):
        u = SpectralField.from_values(small_grid, np.zeros(small_grid.n_points))
        assert np.all(u.spectrum == 0)

    def test_gaussian_matches_analytic_pair(self, default_grid):
        # exp(-t^2/2) has continuum transform sqrt(2 pi) exp(-w^2/2)
        u = gaussian_field(default_grid, width=1.0)
        expected = np.sqrt(2 * np.pi) * np.exp(-default_grid.frequencies ** 2 / 2)
        assert np.max(np.abs(u.spectrum - expected)) < 1e-10

    def test_round_trip_identity(self, default_grid, rng):
        u = random_band_limited_field(default_grid, rng)
        back = SpectralField.from_spectrum(default_grid, u.spectrum)
        rel = np.max(np.abs(back.values - u.values)) / np.max(np.abs(u.values))
        assert rel < 1e-12
        # the phase exp(i w_k L) is exactly (-1)^k; above N/2 the spectrum is
        # the exact conjugate mirror, so it is exactly Hermitian
        m = default_grid.nyquist_index
        signs = (-1.0) ** np.arange(m + 1)
        half = default_grid.spacing * (signs * np.fft.rfft(u.values))
        expected = np.concatenate((half, np.conj(half[m - 1 : 0 : -1])))
        assert np.array_equal(SpectralField.from_values(default_grid, u.values).spectrum, expected)

    def test_values_and_residue_match_the_complex_inverse(self, default_grid, rng):
        u = random_band_limited_field(default_grid, rng)
        spectrum = u.spectrum.copy()
        spectrum[7] += 1e-3 * (1.0 + 2.0j) * np.max(np.abs(spectrum))
        values, imag_l2 = values_from_spectrum(default_grid, spectrum)
        scaled = spectrum / default_grid.spacing
        scaled[1::2] *= -1.0
        complex_values = np.fft.ifft(scaled)
        expected_imag = np.sqrt(default_grid.spacing * np.sum(complex_values.imag ** 2))
        assert np.max(np.abs(values - complex_values.real)) <= 1e-15 * np.max(np.abs(values))
        assert abs(imag_l2 - expected_imag) <= 1e-12 * expected_imag

    def test_plancherel(self, default_grid, rng):
        u = random_band_limited_field(default_grid, rng)
        l2 = lp_norm(u, 2)
        assert abs(l2 - spectral_l2_norm(u)) < 1e-12 * l2

    def test_nonfinite_rejected(self, small_grid):
        vals = np.zeros(small_grid.n_points)
        vals[3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            SpectralField.from_values(small_grid, vals)


class TestLpNorm:
    def test_gaussian_l2_oracle(self, default_grid):
        # ||exp(-t^2/2)||_L2 = pi^(1/4) from the Gaussian integral
        u = gaussian_field(default_grid, width=1.0)
        assert abs(lp_norm(u, 2) - np.pi ** 0.25) < 1e-8

    def test_smoothed_bump_sup_norm(self, default_grid):
        t = default_grid.nodes
        u = SpectralField.from_values(
            default_grid, 0.5 * (np.tanh(8 * (t + 0.5)) - np.tanh(8 * (t - 0.5)))
        )
        assert abs(lp_norm(u, np.inf) - 1.0) < 1e-3

    def test_interpolation_inequality_q4(self, default_grid, rng):
        # int |u|^4 <= ||u||_inf^2 ||u||_L2^2
        for _ in range(5):
            u = random_band_limited_field(default_grid, rng)
            lhs = lp_norm(u, 4) ** 4
            rhs = lp_norm(u, np.inf) ** 2 * lp_norm(u, 2) ** 2
            assert lhs <= rhs * (1 + 1e-12)

    def test_disjoint_support_additivity(self, default_grid):
        left = gaussian_field(default_grid, center=-20.0, width=1.0)
        right = gaussian_field(default_grid, center=20.0, width=1.5)
        total = lp_norm(left + right, 2) ** 2
        assert abs(total - lp_norm(left, 2) ** 2 - lp_norm(right, 2) ** 2) < 1e-10

    @pytest.mark.parametrize("p", [1.0, 1.9, 0.5])
    def test_p_below_two_rejected(self, default_grid, p):
        u = gaussian_field(default_grid)
        with pytest.raises(ValueError, match=">= 2"):
            lp_norm(u, p)


class TestFieldAlgebra:
    def test_arithmetic(self, small_grid, rng):
        u = random_band_limited_field(small_grid, rng)
        v = random_band_limited_field(small_grid, rng)
        assert np.allclose((u + v).values, u.values + v.values)
        assert np.allclose((u - v).values, u.values - v.values)
        assert np.allclose((2.5 * u).values, 2.5 * u.values)
        assert np.allclose((-u).values, -u.values)
        # arithmetic carries the spectrum linearly instead of re-transforming
        for combo in (u + v, u - v, 2.5 * u, -u):
            fresh = SpectralField.from_values(small_grid, combo.values).spectrum
            assert np.max(np.abs(combo.spectrum - fresh)) <= 1e-12 * np.max(np.abs(fresh))

    def test_grid_mismatch_rejected(self, small_grid, default_grid):
        u = gaussian_field(small_grid)
        v = gaussian_field(default_grid)
        with pytest.raises(ValueError, match="different grids"):
            _ = u + v

    def test_values_read_only(self, small_grid):
        u = gaussian_field(small_grid)
        with pytest.raises(ValueError):
            u.values[0] = 1.0

    def test_shift_cells_exact(self, small_grid):
        u = gaussian_field(small_grid, center=0.0, width=1.0)
        shifted = shift_cells(u, 12)
        assert np.array_equal(shifted.values, np.roll(u.values, 12))

    def test_inner_product(self, small_grid):
        u = gaussian_field(small_grid, width=1.0)
        assert abs(inner(u, u) - lp_norm(u, 2) ** 2) < 1e-14


class TestTranslate:
    @pytest.mark.parametrize("cells", [1, -7, 100, 511, -512])
    def test_whole_cells_match_shift_cells(self, small_grid, rng, cells):
        u = random_band_limited_field(small_grid, rng)
        moved = translate(u, cells * small_grid.spacing)
        assert np.max(np.abs(moved.values - shift_cells(u, cells).values)) <= 1e-12

    @pytest.mark.parametrize("shift", [0.3, -1.7, 0.01 / 3, 20.123])
    def test_round_trip_and_invariants(self, small_grid, rng, shift):
        u = random_band_limited_field(small_grid, rng)
        moved = translate(u, shift)
        back = translate(moved, -shift)
        assert np.max(np.abs(back.values - u.values)) <= 1e-12
        # the spectral shift keeps every spectral norm: the fact the translation search rests on
        for alpha in (0.6, 0.75, 1.0):
            norm_sq = h_alpha_norm_sq(u, alpha)
            assert abs(h_alpha_norm_sq(moved, alpha) - norm_sq) <= 1e-12 * norm_sq
        # a real Nyquist factor keeps the values real, also for a field with Nyquist content
        noise = SpectralField.from_values(small_grid, rng.standard_normal(small_grid.n_points))
        for fld in (u, noise):
            _, imag_l2 = values_from_spectrum(small_grid, translate(fld, shift).spectrum)
            assert imag_l2 <= 1e-12


class TestSerialization:
    def test_csv_round_trip(self, tmp_path, small_grid, rng):
        u = random_band_limited_field(small_grid, rng)
        path = tmp_path / "field.csv"
        field_to_csv(u, str(path))
        back = field_from_csv(str(path))
        assert back.grid == small_grid
        assert np.array_equal(back.values, u.values)

    def test_json_round_trip(self, small_grid, rng):
        u = random_band_limited_field(small_grid, rng)
        record = field_to_json(u)
        assert set(record) == {"L", "N", "values"}
        blob = json.dumps(record)
        back = field_from_json(json.loads(blob))
        assert back.grid == small_grid
        assert np.array_equal(back.values, u.values)
