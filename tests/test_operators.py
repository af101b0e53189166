import functools
import math
import tracemalloc

import numpy as np
import pytest

from fracground import (
    SpectralField,
    ZeroModeSingularError,
    SpectralTailWarning,
    composed_operator,
    fractional_derivative,
    fractional_integral,
    gaussian_field,
    gl_oracle,
    h_alpha_norm,
    lp_norm,
    make_grid,
    multiplier_symbol,
    validate_order,
)
from fracground.checks import conformance_checks, random_band_limited_field
from fracground.operators import (
    GL_WEIGHT_CUTOFF,
    OVERLAP_ADD_MIN_LENGTH,
    SYMBOL_KINDS,
    TAIL_BAND_START,
    _even_symbols,
    _pairing,
    _check_support_margin,
    _tail_mass,
    apply_multiplier,
    fftconvolve,
    gl_weights,
)
from fracground.grid import values_from_spectrum


def rel_l2(a, b):
    h = a.grid.spacing
    return np.sqrt(h * np.sum((a.values - b.values) ** 2)) / np.sqrt(h * np.sum(b.values ** 2))


def grid_mode(grid, k0):
    """Exact cosine grid mode and its angular frequency."""
    w0 = np.pi * k0 / grid.half_width
    return SpectralField.from_values(grid, np.cos(w0 * grid.nodes)), w0


class TestSymbols:
    @pytest.mark.parametrize("alpha", [0.6, 0.75, 0.9, 1.0])
    def test_left_derivative_branch(self, small_grid, alpha):
        sym = multiplier_symbol(small_grid, alpha, "left_deriv")
        w = small_grid.frequencies
        k = 5
        expected = abs(w[k]) ** alpha * np.exp(1j * alpha * np.pi / 2 * np.sign(w[k]))
        assert sym[k] == pytest.approx(expected)
        assert sym[0] == 0.0
        assert sym[small_grid.nyquist_index] == 0.0

    def test_right_is_conjugate_of_left(self, small_grid):
        left = multiplier_symbol(small_grid, 0.75, "left_deriv")
        right = multiplier_symbol(small_grid, 0.75, "right_deriv")
        assert np.allclose(right, np.conj(left))

    def test_even_tables_are_shared_by_equal_grids(self):
        first, second, other = make_grid(8.0, 64), make_grid(8.0, 64), make_grid(8.0, 128)
        symbols = _even_symbols(first, 0.75)
        weights = symbols[3]  # the pairing weights
        assert not any(arr.flags.writeable for arr in (*symbols, weights))
        assert all(a is b for a, b in zip(_even_symbols(second, 0.75), symbols))
        assert _even_symbols(second, 0.75)[3] is weights
        assert not any(a is b for a, b in zip(_even_symbols(other, 0.75), symbols))
        assert _even_symbols(other, 0.75)[3] is not weights

    def test_branch_product_is_even_symbol(self, default_grid):
        # (iw)^a (-iw)^a = |w|^(2a) with exactly cancelling imaginary parts
        # on 0 < k < N/2; both symbols zero the modes 0 and N/2
        alpha = 0.75
        inner = slice(1, default_grid.nyquist_index)
        product = (
            multiplier_symbol(default_grid, alpha, "left_deriv")
            * multiplier_symbol(default_grid, alpha, "right_deriv")
        )[inner]
        target = default_grid.frequencies[inner] ** (2 * alpha)
        assert target.shape == (default_grid.nyquist_index - 1,)
        assert np.max(np.abs(product.imag) / target) < 1e-14
        assert np.max(np.abs(product.real - target) / target) < 1e-13

    @pytest.mark.parametrize("n", [16, 4096])
    @pytest.mark.parametrize("kind", ["left_deriv", "right_deriv", "left_int", "right_int"])
    def test_one_sided_closed_form_is_the_elementwise_formula(self, n, kind):
        grid = make_grid(64.0, n)
        alpha = 0.75
        sign = 1.0 if kind.startswith("left") else -1.0
        power = alpha if kind.endswith("deriv") else -alpha
        w = grid.frequencies
        expected = np.zeros(n // 2 + 1, dtype=np.complex128)
        nz = w != 0.0
        expected[nz] = np.abs(w[nz]) ** power * np.exp(
            1j * power * (np.pi / 2.0) * sign * np.sign(w[nz])
        )
        expected[grid.nyquist_index] = 0.0
        assert np.array_equal(multiplier_symbol(grid, alpha, kind), expected)

    @pytest.mark.parametrize("alpha", [0.55, 0.75, 1.0])
    @pytest.mark.parametrize("n", [16, 1000, 4096, 2 ** 18])
    def test_symbols_and_spectra_are_real_at_the_self_mirrored_modes(self, n, alpha):
        # modes 0 and N/2 are their own mirrors: every symbol and every real field's
        # spectrum is real there, so no product leaves an imaginary residue (2^18 splits)
        grid = make_grid(32.0, n)
        ends = [0, grid.nyquist_index]
        u = gaussian_field(grid, center=0.3, width=1.0)
        assert np.all(u.spectrum[ends].imag == 0.0)
        kinds = [kind for kind in SYMBOL_KINDS if alpha < 1.0 or not kind.endswith("_int")]
        for kind in kinds:
            symbol = multiplier_symbol(grid, alpha, kind)
            assert np.all(np.imag(symbol[ends]) == 0.0), kind
            assert values_from_spectrum(grid, symbol * u.spectrum)[1] == 0.0, kind

    def test_integral_symbol_exponent(self, small_grid):
        sym = multiplier_symbol(small_grid, 0.6, "left_int")
        w = small_grid.frequencies
        k = 3
        assert abs(sym[k]) == pytest.approx(abs(w[k]) ** -0.6)

    @pytest.mark.parametrize("kind", SYMBOL_KINDS)
    def test_every_symbol_has_the_spectrum_length(self, small_grid, kind):
        alpha = 0.6
        sym = multiplier_symbol(small_grid, alpha, kind)
        assert sym.shape == (small_grid.nyquist_index + 1,)
        u = gaussian_field(small_grid, width=1.0)
        assert apply_multiplier(u, sym).spectrum.shape == u.spectrum.shape

    def test_resolvent_and_composed(self, small_grid):
        w = np.abs(small_grid.frequencies)
        comp = multiplier_symbol(small_grid, 0.8, "composed")
        res = multiplier_symbol(small_grid, 0.8, "resolvent")
        assert np.allclose(comp.real, w ** 1.6)
        assert np.allclose(res.real, 1 / (w ** 1.6 + 1))

    def test_order_validation(self):
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            validate_order(1.5)
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            validate_order(1.0, within="integral")
        with pytest.raises(ValueError):
            validate_order(0.0)
        with pytest.raises(ValueError, match="variational problem"):
            validate_order(0.5, within="variational")
        assert validate_order(1, within="variational") == 1.0

    @pytest.mark.parametrize("alpha", [np.inf, -np.inf, np.nan])
    def test_non_finite_order_rejected(self, alpha):
        with pytest.raises(ValueError, match="finite"):
            validate_order(alpha)

    def test_unknown_kind_rejected(self, small_grid):
        with pytest.raises(ValueError, match="unknown symbol kind"):
            multiplier_symbol(small_grid, 0.75, "both_deriv")


class TestFractionalDerivative:
    @pytest.mark.parametrize("alpha", [0.6, 0.75, 0.9])
    def test_cosine_phase_shift_left(self, default_grid, alpha):
        u, w0 = grid_mode(default_grid, 40)
        expected = w0 ** alpha * np.cos(w0 * default_grid.nodes + alpha * np.pi / 2)
        out = fractional_derivative(u, alpha, "left")
        assert np.max(np.abs(out.values - expected)) < 1e-10

    def test_cosine_phase_shift_right(self, default_grid):
        alpha = 0.75
        u, w0 = grid_mode(default_grid, 40)
        expected = w0 ** alpha * np.cos(w0 * default_grid.nodes - alpha * np.pi / 2)
        out = fractional_derivative(u, alpha, "right")
        assert np.max(np.abs(out.values - expected)) < 1e-10

    def test_classical_limit_alpha_one(self, default_grid):
        u = SpectralField.from_values(default_grid, np.exp(-default_grid.nodes ** 2))
        exact = SpectralField.from_values(
            default_grid, -2 * default_grid.nodes * np.exp(-default_grid.nodes ** 2)
        )
        assert rel_l2(fractional_derivative(u, 1.0, "left"), exact) < 1e-8

    def test_tail_mass_warning(self, small_grid, rng):
        noisy = SpectralField.from_values(small_grid, rng.normal(size=small_grid.n_points))
        with pytest.warns(SpectralTailWarning):
            fractional_derivative(noisy, 0.75, "left")

    @pytest.mark.parametrize("n", [16, 4096])
    def test_tail_mass_is_the_masked_band_share(self, rng, n):
        grid = make_grid(64.0, n)
        u = SpectralField.from_values(grid, rng.normal(size=n))
        # every mode k = 0..N-1, from the full complex transform of the values
        power = np.abs(np.fft.fft(u.values)) ** 2
        w = np.abs(2.0 * np.pi * np.fft.fftfreq(n, d=grid.spacing))
        expected = np.sum(power[w >= TAIL_BAND_START * np.max(w)]) / np.sum(power)
        assert _tail_mass(u) == pytest.approx(expected, rel=1e-13)

    def test_bad_side(self, small_grid):
        u = gaussian_field(small_grid)
        with pytest.raises(ValueError, match="side"):
            fractional_derivative(u, 0.75, "up")

    def test_zero_field_has_no_tail_mass(self, small_grid):
        zero = SpectralField.from_values(small_grid, np.zeros(small_grid.n_points))
        assert _tail_mass(zero) == 0.0


class TestFractionalIntegral:
    def test_cosine_phase_shift(self, default_grid):
        alpha = 0.6
        u, w0 = grid_mode(default_grid, 40)
        expected = w0 ** -alpha * np.cos(w0 * default_grid.nodes - alpha * np.pi / 2)
        out = fractional_integral(u, alpha, "left")
        assert np.max(np.abs(out.values - expected)) < 1e-10

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("alpha", [0.6, 0.9])
    def test_derivative_inverts_integral(self, default_grid, rng, side, alpha):
        u = random_band_limited_field(default_grid, rng, zero_mean=True)
        recovered = fractional_derivative(fractional_integral(u, alpha, side), alpha, side)
        assert rel_l2(recovered, u) < 1e-10

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_integral_inverts_derivative(self, default_grid, rng, side):
        u = random_band_limited_field(default_grid, rng, zero_mean=True)
        recovered = fractional_integral(fractional_derivative(u, 0.75, side), 0.75, side)
        assert rel_l2(recovered, u) < 1e-10

    def test_bad_side(self, small_grid):
        u = SpectralField.from_values(small_grid, np.zeros(small_grid.n_points))
        with pytest.raises(ValueError, match="side"):
            fractional_integral(u, 0.5, "up")

    def test_constant_field_rejected(self, small_grid):
        u = SpectralField.from_values(small_grid, np.ones(small_grid.n_points))
        with pytest.raises(ZeroModeSingularError):
            fractional_integral(u, 0.5, "left")

    def test_large_zero_mean_field_accepted(self, default_grid):
        # at amplitude 1e15 the grid mode's mean rounds to about -0.057, 6e-17 of its peak
        u, _ = grid_mode(default_grid, 40)
        big = SpectralField.from_values(default_grid, 1e15 * u.values)
        assert abs(np.mean(big.values)) > 1e-10
        recovered = fractional_derivative(fractional_integral(big, 0.75, "left"), 0.75, "left")
        assert rel_l2(recovered, big) < 1e-10

    def test_small_field_with_a_mean_rejected(self, default_grid):
        # a mean of 1e-5 of the peak is not rounding, however small the field
        u, _ = grid_mode(default_grid, 40)
        tiny = SpectralField.from_values(default_grid, 1e-20 * (u.values + 1e-5))
        with pytest.raises(ZeroModeSingularError):
            fractional_integral(tiny, 0.75, "left")


class TestComposedOperator:
    def test_cosine_eigenfunction(self, default_grid):
        alpha = 0.75
        u, w0 = grid_mode(default_grid, 64)
        out = composed_operator(u, alpha)
        assert np.max(np.abs(out.values - w0 ** (2 * alpha) * u.values)) < 1e-9

    def test_classical_limit_is_negative_second_derivative(self):
        # sin(t) is an exact mode of a domain with L a multiple of pi
        grid = make_grid(16 * np.pi, 1024)
        u = SpectralField.from_values(grid, np.sin(grid.nodes))
        out = composed_operator(u, 1.0)
        # irrational L leaves ~1e-13 mode leakage, amplified by the |w|^2 weight
        assert np.max(np.abs(out.values - u.values)) < 1e-10

    def test_matches_sequential_application(self, default_grid, rng):
        alpha = 0.85
        u = random_band_limited_field(default_grid, rng)
        sequential = fractional_derivative(
            fractional_derivative(u, alpha, "left"), alpha, "right"
        )
        assert rel_l2(composed_operator(u, alpha), sequential) < 1e-12


@functools.lru_cache(maxsize=None)
def _long_short_convolution(len_short):
    """A long and a short random sequence and their direct linear convolution."""
    rng = np.random.default_rng(len_short)
    long_seq, short = rng.standard_normal(3 * 2 ** 16), rng.standard_normal(len_short)
    return long_seq, short, np.convolve(long_seq, short)


class TestGLOracle:
    @pytest.mark.parametrize("len_a, len_b", [(1, 16), (2, 4096), (15, 100), (4096, 4096)])
    def test_fftconvolve_is_the_truncated_linear_convolution(self, rng, len_a, len_b):
        a, b = rng.standard_normal(len_a), rng.standard_normal(len_b)
        n = max(len_a, len_b)
        expected = np.convolve(a, b)[:n]
        out = np.zeros(n)
        fftconvolve(a, b, out)
        assert out.shape == (n,)
        assert np.max(np.abs(out - expected)) <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize("len_short", [3, 1000, 20_000])
    @pytest.mark.parametrize("short_first", [False, True])
    @pytest.mark.parametrize("n_offset", [-5000, 0, 1, 4096])
    def test_fftconvolve_over_many_blocks(self, len_short, short_first, n_offset):
        # a long first argument of 3 * 2^16 terms takes 2 to 7 overlap-add
        # blocks, a long second one a single block; n runs below, at and above
        # the full linear length len(a) + len(b) - 1
        long_seq, short, expected = _long_short_convolution(len_short)
        a, b = (short, long_seq) if short_first else (long_seq, short)
        full = expected.size
        n = full + n_offset
        out = np.zeros(n)
        fftconvolve(a, b, out)
        assert out.shape == (n,)
        head = min(n, full)
        peak = np.max(np.abs(expected))
        assert np.max(np.abs(out[:head] - expected[:head])) <= 1e-12 * peak
        # past the linear length only roundoff is left
        assert np.max(np.abs(out[head:]), initial=0.0) <= 1e-12 * peak

    @pytest.mark.parametrize("len_a", [2, 2 ** 17 - 99])
    def test_fftconvolve_adds_into_out_up_to_the_transform_length(self, rng, len_a):
        # one block (m = 128), and five (p = 2^15, m = 2^17) whose last reaches past m
        a, b = rng.standard_normal(len_a), rng.standard_normal(100)
        m = 1 << (len_a + b.size - 2).bit_length()
        start = rng.standard_normal(m + 100)
        out = start.copy()
        fftconvolve(a, b, out)
        expected = np.convolve(a, b)
        peak = np.max(np.abs(expected))
        assert np.max(np.abs(out[: expected.size] - start[: expected.size] - expected)) <= 1e-12 * peak
        assert np.max(np.abs(out[expected.size : m] - start[expected.size : m]), initial=0.0) <= 1e-12 * peak
        assert np.array_equal(out[m:], start[m:])

    @pytest.mark.parametrize("len_short", [3, 1000])
    def test_two_thread_blocks_equal_a_serial_block_loop_bit_for_bit(self, len_short):
        long_seq, short, _ = _long_short_convolution(len_short)
        r = short.size
        m = 1 << (long_seq.size + r - 2).bit_length()
        p = min(m, max(OVERLAP_ADD_MIN_LENGTH, 1 << (4 * r - 1).bit_length()))
        step = p - r + 1
        starts = range(0, long_seq.size, step)
        assert len(starts) >= 4
        b_spectrum = np.fft.rfft(short, p)
        expected = np.zeros(m)
        for start in starts:
            prod = np.fft.rfft(long_seq[start : start + step], p)
            prod *= b_spectrum
            head = expected[start : start + p]
            head += np.fft.irfft(prod, p)[: head.size]
        out = np.zeros(m)
        fftconvolve(long_seq, short, out)
        assert np.array_equal(out, expected)

    def test_fftconvolve_matches_scipy_bit_for_bit(self, rng):
        from scipy.signal import fftconvolve as scipy_fftconvolve

        a, b = rng.standard_normal(2 ** 12), rng.standard_normal(2 ** 12)
        out = np.zeros(2 ** 12)
        fftconvolve(a, b, out)
        assert np.array_equal(out, scipy_fftconvolve(a, b)[: 2 ** 12])

    def test_oracle_bad_side(self, small_grid):
        with pytest.raises(ValueError, match="side"):
            gl_oracle(gaussian_field(small_grid), 0.75, "up")

    @pytest.mark.parametrize("max_terms", [0, 1, 15, 4096])
    @pytest.mark.parametrize("alpha", [0.55, 0.6, 0.75, 0.95, 1.0])
    def test_weights_match_scalar_recurrence(self, alpha, max_terms):
        reference = [1.0]
        for k in range(1, max_terms + 1):
            nxt = reference[-1] * (k - 1.0 - alpha) / k
            if abs(nxt) < GL_WEIGHT_CUTOFF:
                break
            reference.append(nxt)
        weights = gl_weights(alpha, max_terms)
        assert len(weights) == len(reference)
        assert np.all(np.abs(weights - reference) <= 1e-12 * np.abs(reference))

    @pytest.mark.parametrize("width", [0.25, 1.0])
    @pytest.mark.parametrize("alpha", [0.6, 0.95])
    def test_roundoff_against_a_long_double_direct_sum(self, alpha, width):
        # the FFT convolution cancels O(1) values down to h^alpha D^alpha u, so
        # its roundoff is pinned relative to the output peak; the run of 4.9k or
        # 19.8k values against ~1.1e5 weights takes 4 or 2 overlap-add blocks
        grid = make_grid(512.0, 2 ** 18)
        n = grid.n_points
        u = SpectralField.from_values(grid, np.exp(-((grid.nodes - 100.0) ** 2) / (2.0 * width ** 2)))
        out = gl_oracle(u, alpha, "left").values
        run = np.flatnonzero(u.values)
        i0, i1 = int(run[0]), int(run[-1]) + 1
        weights = gl_weights(alpha, n - i0 - 1).astype(np.longdouble)
        values = u.values[i0:i1].astype(np.longdouble)
        scale = np.longdouble(grid.spacing) ** np.longdouble(-alpha)
        edges = [i0, i0 + 1, i1 - 2, i1 - 1, i1, i1 + 1, n - 1]
        sampled = np.unique(np.concatenate((np.linspace(i0, n - 1, 293).astype(int), edges)))
        errors = []
        for j in sampled:
            terms = min(j + 1, i1) - i0  # values i0 .. i0 + terms - 1 reach node j
            direct = np.sum(weights[j - i0 - np.arange(terms)] * values[:terms]) * scale
            errors.append(abs(np.longdouble(out[j]) - direct))
        assert len(sampled) >= 295
        assert float(max(errors)) <= 1e-13 * np.max(np.abs(out))

    def test_zero_field(self, default_grid):
        u = SpectralField.from_values(default_grid, np.zeros(default_grid.n_points))
        assert _check_support_margin(u) == (0, 0)
        for side in ("left", "right"):
            assert np.all(gl_oracle(u, 0.7, side).values == 0)

    @pytest.mark.parametrize("index", [0, -1])
    def test_a_lone_value_at_an_end_fails_the_margin(self, default_grid, index):
        values = np.zeros(default_grid.n_points)
        values[index] = 1e-300
        with pytest.raises(ValueError, match="margin"):
            _check_support_margin(SpectralField.from_values(default_grid, values))

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("alpha", [0.6, 1.0])
    def test_off_centre_field_matches_direct_convolution(self, side, alpha):
        # exp underflows to exactly 0 off t in (-7.3, 47.3): the nonzero run is 1815..3561,
        # so the run starts at index 1815 on the left and at 534 on the reversed right side
        grid = make_grid(64.0, 4096)
        u = SpectralField.from_values(grid, np.exp(-((grid.nodes - 20.0) ** 2)))
        values = u.values if side == "left" else u.values[::-1]
        expected = np.convolve(gl_weights(alpha, grid.n_points - 1), values)[: grid.n_points]
        expected *= grid.spacing ** (-alpha)
        out = gl_oracle(u, alpha, side).values
        if side == "right":
            out = out[::-1]
        i0 = np.flatnonzero(values)[0]
        assert i0 > 500
        assert np.all(out[:i0] == 0.0)
        assert np.max(np.abs(out - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_alpha_one_is_backward_difference(self, default_grid):
        u = SpectralField.from_values(default_grid, np.exp(-default_grid.nodes ** 2))
        out = gl_oracle(u, 1.0, "left")
        shifted = np.roll(u.values, 1)
        shifted[0] = 0.0
        expected = (u.values - shifted) / default_grid.spacing
        assert np.max(np.abs(out.values - expected)) < 1e-9
        # first-order agreement with the analytic derivative
        exact = -2 * default_grid.nodes * np.exp(-default_grid.nodes ** 2)
        err = np.sqrt(default_grid.spacing * np.sum((out.values - exact) ** 2))
        assert err < 3.0 * default_grid.spacing

    def test_gap_to_spectral_on_default_grid(self, default_grid):
        # Honest cross-method gap of the first-order scheme on the default
        # grid; dominated by the O(h) truncation term (measured 1.53e-2).
        u = SpectralField.from_values(default_grid, np.exp(-default_grid.nodes ** 2))
        gap = rel_l2(gl_oracle(u, 0.6, "left"), fractional_derivative(u, 0.6, "left"))
        assert 5e-3 < gap < 2.5e-2

    def test_first_order_convergence(self):
        # At alpha = 0.9 the periodization floor sits far below the O(h)
        # term, so halving h halves the gap.
        gaps = []
        for n in (4096, 8192, 16384):
            grid = make_grid(64.0, n)
            u = SpectralField.from_values(grid, np.exp(-grid.nodes ** 2))
            gaps.append(rel_l2(gl_oracle(u, 0.9, "left"), fractional_derivative(u, 0.9, "left")))
        for coarse, fine in zip(gaps, gaps[1:]):
            assert 1.8 < coarse / fine < 2.2

    def test_right_side_mirror_symmetry(self, default_grid):
        u = SpectralField.from_values(default_grid, np.exp(-default_grid.nodes ** 2))
        left = gl_oracle(u, 0.7, "left")
        right = gl_oracle(u, 0.7, "right")
        # even input: right derivative at t_j equals the left derivative at
        # -t_j = t_{N-j}; j = 0 is excluded (its mirror +L is off the grid)
        n = default_grid.n_points
        j = np.arange(1, n)
        assert np.max(np.abs(right.values[j] - left.values[n - j])) < 1e-12

    def test_support_margin_enforced(self, default_grid):
        u = gaussian_field(default_grid, center=55.0, width=1.0)
        with pytest.raises(ValueError, match="margin"):
            gl_oracle(u, 0.7, "left")


class TestHAlphaNorm:
    def test_zero_field(self, small_grid):
        u = SpectralField.from_values(small_grid, np.zeros(small_grid.n_points))
        result = h_alpha_norm(u, 0.75)
        assert result.seminorm == 0.0 and result.norm == 0.0

    @pytest.mark.parametrize("alpha", [0.55, 0.75, 1.0])
    def test_seminorm_equality(self, default_grid, rng, alpha):
        u = random_band_limited_field(default_grid, rng)
        result = h_alpha_norm(u, alpha)
        assert abs(result.seminorm - result.time_domain_seminorm) <= 1e-10 * (
            1 + result.seminorm
        )

    def test_gaussian_seminorm_quadrature_oracle(self):
        # |u|_a^2 = (1/2pi) int |w|^(2a) |u_hat|^2 dw with u_hat = sqrt(2pi) e^(-w^2/2),
        # which is 2 int_0^inf w^(2a) e^(-w^2) dw = Gamma(a + 1/2); the |w|^(2a) cusp
        # at w = 0 limits the frequency-sum accuracy to O(dw^(2a+1)), so a wide
        # domain is needed for 1e-6 agreement
        grid = make_grid(256.0, 16384)
        u = gaussian_field(grid, width=1.0)
        alpha = 0.75
        expected_sq = math.gamma(alpha + 0.5)
        assert abs(h_alpha_norm(u, alpha).seminorm - np.sqrt(expected_sq)) < 1e-6

    @pytest.mark.parametrize("n_points", [16, 4096])
    def test_half_spectrum_pairing_matches_full_sum(self, rng, n_points):
        # white noise and a pure Nyquist mode (-1)^j both put energy in k = N/2
        grid = make_grid(8.0, n_points)
        noise = SpectralField.from_values(grid, rng.standard_normal(n_points))
        nyquist = SpectralField.from_values(grid, (-1.0) ** np.arange(n_points) + 0.5)
        smooth = gaussian_field(grid, center=0.3, width=1.5)
        # every mode k = 0..N-1.  Mode -k is the conjugate mirror of mode k, checked
        # against the full complex transform of the values; the sums take the
        # mirror, since the rounding gap between the two transforms, weighted by
        # |w|^(2 alpha), exceeds 1e-13 of the nearly cancelling noise-smooth pairing
        signs = (-1.0) ** np.arange(n_points)
        w = np.abs(2.0 * np.pi * np.fft.fftfreq(n_points, d=grid.spacing))

        def full_spectrum(fld):
            full = np.concatenate((fld.spectrum, np.conj(fld.spectrum[-2:0:-1])))
            reference = grid.spacing * signs * np.fft.fft(fld.values)
            assert np.max(np.abs(full - reference)) <= 1e-13 * np.max(np.abs(reference))
            return full

        for alpha in (0.6, 0.75, 1.0):
            k_symbol = 1.0 + w ** (2.0 * alpha)
            for x, y in ((noise, noise), (nyquist, nyquist), (noise, nyquist), (noise, smooth)):
                full = grid.frequency_step / (2.0 * np.pi) * np.sum(
                    k_symbol * (full_spectrum(x) * full_spectrum(y).conj()).real
                )
                half = _pairing(grid, x.spectrum, y.spectrum, alpha)
                assert abs(half - full) <= 1e-13 * abs(full)

    def test_norm_combines_l2_and_seminorm(self, default_grid, rng):
        u = random_band_limited_field(default_grid, rng)
        result = h_alpha_norm(u, 0.8)
        expected = np.hypot(lp_norm(u, 2), result.seminorm)
        assert abs(result.norm - expected) < 1e-12


class TestConformanceSuite:
    def test_all_rows_pass_on_default_grid(self, default_grid):
        rows = conformance_checks(default_grid, 0.75, seed=3)
        assert rows, "no checks ran"
        for row in rows:
            assert row.passed, f"{row.name}: {row.residual:.3e} >= {row.tolerance:.0e}"

    @pytest.mark.parametrize("half_width", [1e-10, 1e10])
    def test_classical_limit_row_passes_on_any_box(self, half_width):
        # the row's Gaussian has width L/64, so the check does not depend on the units of t
        rows = conformance_checks(make_grid(half_width, 1024), 0.75)
        (row,) = [row for row in rows if row.name == "classical_limit"]
        assert row.passed, f"{row.residual:.3e} >= {row.tolerance:.0e}"

    def test_rows_in_order_with_their_orders_and_tolerances(self, small_grid):
        head = [
            ("transform_round_trip", 1e-12),
            ("plancherel", 1e-12),
            ("symbol_branch_product", 1e-13),
            ("composition_vs_symbol", 1e-12),
        ]
        inverses = [
            (f"{order}_{side}", 1e-10)
            for side in ("left", "right")
            for order in ("derivative_of_integral", "integral_of_derivative")
        ]
        for alpha, middle in ((0.75, inverses), (1.0, [])):
            rows = conformance_checks(small_grid, alpha)
            expected = [(name, alpha, tol) for name, tol in head + middle]
            expected += [("seminorm_equality", alpha, 1e-10), ("classical_limit", 1.0, 1e-8)]
            assert [(r.name, r.alpha, r.tolerance) for r in rows] == expected
            assert len(rows) == (10 if alpha < 1.0 else 6)

    @pytest.mark.parametrize("zero_mean", [False, True])
    def test_random_field_equals_the_per_mode_draws_bit_for_bit(self, default_grid, zero_mean):
        # the reference draws the real, then the imaginary part, mode by mode
        n = default_grid.n_points
        coeffs = np.zeros(n // 2 + 1, dtype=np.complex128)
        reference_rng = np.random.default_rng(7)
        for k in range(1 if zero_mean else 0, n // 8 + 1):
            coeffs[k] = reference_rng.normal() + 1j * reference_rng.normal()
        values = np.fft.irfft(coeffs, n)
        values /= np.sqrt(default_grid.spacing * np.sum(values ** 2))
        rng = np.random.default_rng(7)
        u = random_band_limited_field(default_grid, rng, zero_mean=zero_mean)
        assert np.array_equal(u.values, values)
        # and it leaves the generator where the reference did
        assert rng.normal() == reference_rng.normal()


def _fresh_field(grid, center=3.0, width=1.0):
    """A Gaussian bump built without reading grid.nodes, its spectrum not yet made."""
    t = -grid.half_width + grid.spacing * np.arange(grid.n_points)
    return SpectralField.from_values(grid, np.exp(-((t - center) ** 2) / (2.0 * width ** 2)))


def _zero_mean_field(grid, center=3.0):
    """The odd bump (t - c) exp(-(t - c)^2 / 2), whose mean is 0 to rounding."""
    t = -grid.half_width + grid.spacing * np.arange(grid.n_points) - center
    return SpectralField.from_values(grid, t * np.exp(-(t ** 2) / 2.0))


class TestAllocations:
    """Peak traced allocation of the large-N path, in units of 8N bytes at N = 2^18."""

    N = 2 ** 18

    def peak_units(self, fn, *args):
        """Return fn(*args) and its allocation peak above its entry, in units of 8N bytes."""
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            entry = tracemalloc.get_traced_memory()[0]
            result = fn(*args)
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            if started:
                tracemalloc.stop()
        return result, peak / (8 * self.N)

    def test_make_grid_allocates_only_the_frequencies(self):
        grid, units = self.peak_units(make_grid, 1024.0, self.N)
        assert units <= 1.2
        assert "nodes" not in grid.__dict__

    def test_derivative_takes_its_product_in_the_fresh_symbol(self):
        u = _fresh_field(make_grid(1024.0, self.N))
        _, units = self.peak_units(fractional_derivative, u, 0.75, "left")
        # the spectrum, the symbol holding the product, and the inverse's two half
        # spectra and two rows of samples, then its rows and the values
        assert units <= 4.1

    def test_forward_transform_allocates_the_spectrum_and_one_half(self):
        u = _fresh_field(make_grid(1024.0, self.N))
        _, units = self.peak_units(lambda: u.spectrum)
        # the even half is transformed into the spectrum itself, the odd half beside it
        assert units <= 1.6

    def test_integral_takes_its_product_in_the_fresh_symbol(self):
        u = _zero_mean_field(make_grid(1024.0, self.N))
        _, units = self.peak_units(fractional_integral, u, 0.75, "right")
        assert units <= 4.1

    def test_weights_make_their_ratios_in_place(self):
        # the weights and one block of 2^14 ratios (1.19 measured); two full-length
        # index arrays beside the weights read 2.03
        _, units = self.peak_units(gl_weights, 0.75, self.N)
        assert units <= 1.25

    def test_oracle_adds_the_blocks_into_its_output(self, monkeypatch):
        # with the blocks run one after the other the peak is the same on every run:
        # the output, about N/2 weights, b's spectrum and one block's product and
        # inverse (2.27 measured); a second copy of the convolution would add 0.5
        monkeypatch.setattr("fracground.operators._run_pair", lambda first, second: (first(), second()))
        u = _fresh_field(make_grid(1024.0, self.N))
        for side in ("left", "right"):
            _, units = self.peak_units(gl_oracle, u, 0.75, side)
            assert units <= 2.5, side

    def test_the_oracle_and_the_derivative_make_no_nodes(self):
        grid = make_grid(1024.0, self.N)
        u = _fresh_field(grid)
        gl_oracle(u, 0.75, "left")
        gl_oracle(u, 0.75, "right")
        fractional_derivative(u, 0.75, "left")
        assert "nodes" not in grid.__dict__


def _zero_filled_symbol(grid, alpha, kind):
    """A one-sided symbol built in a zeroed complex array, its interior scaled by the phase in place."""
    sign = 1.0 if kind.startswith("left") else -1.0
    power = alpha if kind.endswith("deriv") else -alpha
    m = grid.nyquist_index
    sym = np.zeros(m + 1, dtype=np.complex128)
    sym.real[1:m] = grid.frequencies[1:m] ** power
    sym[1:m] *= np.exp(1j * (power * (np.pi / 2.0) * sign))
    return sym


@pytest.mark.parametrize("n", [16, 1000, 2 ** 18])
@pytest.mark.parametrize("kind", ["left_deriv", "right_deriv", "left_int", "right_int"])
@pytest.mark.parametrize("alpha", [0.3, 0.75, 0.99])
def test_one_sided_symbol_is_the_zero_filled_construction_bit_for_bit(n, kind, alpha):
    grid = make_grid(64.0, n)
    symbol = multiplier_symbol(grid, alpha, kind)
    assert symbol.tobytes() == _zero_filled_symbol(grid, alpha, kind).tobytes()


def _reference_gl_oracle(u, alpha, side):
    """gl_oracle's values by plain expressions that allocate freely: a scan of |u|,
    concatenated weights, a scaled copy of the convolution and a reversed output."""
    n = u.grid.n_points
    nonzero = np.flatnonzero(np.abs(u.values))
    i0, i1 = int(nonzero[0]), int(nonzero[-1]) + 1
    values = u.values
    if side == "right":
        values = values[::-1]
        i0, i1 = n - i1, n - i0
    k = np.arange(1.0, n - i0)
    weights = np.concatenate(([1.0], np.cumprod((k - 1.0 - alpha) / k)))
    small = np.flatnonzero(np.abs(weights) < GL_WEIGHT_CUTOFF)
    weights = weights[: small[0]] if small.size else weights
    out = np.zeros(n)
    conv = np.zeros(n - i0)
    fftconvolve(weights, values[i0:i1], conv)
    out[i0:] = conv * u.grid.spacing ** (-alpha)
    if side == "right":
        out = out[::-1]
    return out


@pytest.fixture(params=[(256.0, 2 ** 16), (50.0, 1000)], ids=["N=2^16", "N=1000,h=0.1"])
def bits_grid(request):
    return make_grid(*request.param)


class TestSameBits:
    @pytest.mark.parametrize("kind", ["left_deriv", "right_deriv", "left_int", "right_int"])
    @pytest.mark.parametrize("alpha", [0.5, 0.75, 0.9])
    def test_one_sided_result_is_the_product_and_its_inverse(self, bits_grid, kind, alpha):
        side, op = kind.split("_")
        if op == "deriv":
            u = _fresh_field(bits_grid)
            out = fractional_derivative(u, alpha, side)
        else:
            u = _zero_mean_field(bits_grid)
            out = fractional_integral(u, alpha, side)
        product = multiplier_symbol(bits_grid, alpha, kind) * u.spectrum
        assert np.array_equal(out.spectrum, product)
        assert np.array_equal(out.values, values_from_spectrum(bits_grid, product)[0])

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("alpha", [0.5, 0.75, 1.0])
    def test_oracle_equals_the_reference_expressions_bit_for_bit(self, bits_grid, side, alpha):
        u = _fresh_field(bits_grid, center=-2.0, width=0.7)
        out = gl_oracle(u, alpha, side)
        assert np.array_equal(out.values, _reference_gl_oracle(u, alpha, side))
        assert not out.values.flags.writeable

    def test_support_scan_reads_the_nodes_it_does_not_make(self, bits_grid):
        # runs ending on, inside and one cell past the L/4 margin at either end
        grid, q = bits_grid, bits_grid.n_points // 8
        outcomes = set()
        for first, last in ((q, 7 * q), (q + 1, 7 * q - 1), (q - 1, 7 * q), (q, 7 * q + 1)):
            values = np.zeros(grid.n_points)
            values[first : last + 1] = 1.0
            u = SpectralField.from_values(grid, values)
            margin = min(grid.nodes[first] + grid.half_width, grid.half_width - grid.nodes[last])
            if margin < 0.25 * grid.half_width:
                with pytest.raises(ValueError, match="margin"):
                    _check_support_margin(u)
            else:
                assert _check_support_margin(u) == (first, last + 1)
            outcomes.add(margin < 0.25 * grid.half_width)
        assert outcomes == {False, True}

    def test_zeros_only_at_both_ends(self, bits_grid):
        # a run of N - 2 values, all but the central bump below the cut of 1e-13
        # of the peak, so the margin holds
        n = bits_grid.n_points
        values = np.full(n, 1e-300)
        values += _fresh_field(bits_grid, center=0.0).values
        values[[0, -1]] = 0.0
        u = SpectralField.from_values(bits_grid, values)
        assert _check_support_margin(u) == (1, n - 1)
        for side in ("left", "right"):
            assert np.array_equal(gl_oracle(u, 0.75, side).values, _reference_gl_oracle(u, 0.75, side))

    def test_a_handed_symbol_is_not_written(self, bits_grid):
        symbol = multiplier_symbol(bits_grid, 0.75, "left_deriv")
        kept = symbol.copy()
        assert symbol.flags.writeable
        out = apply_multiplier(_fresh_field(bits_grid), symbol)
        assert np.array_equal(symbol, kept)
        assert not np.shares_memory(out.spectrum, symbol)
