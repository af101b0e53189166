import numpy as np
import pytest
from scipy.integrate import quad

from fracground import (
    SpectralField,
    ZeroModeSingularError,
    SpectralTailError,
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
    sobolev_embedding_probe,
    validate_order,
)
from fracground.checks import conformance_checks, random_band_limited_field
from fracground.operators import (
    GL_WEIGHT_CUTOFF,
    TAIL_BAND_START,
    _tail_mass,
    apply_multiplier,
    fftconvolve,
    gl_weights,
)


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

    def test_branch_product_is_even_symbol(self, default_grid):
        # (iw)^a (-iw)^a = |w|^(2a) with exactly cancelling imaginary parts
        alpha = 0.75
        w = default_grid.frequencies
        pos = w > 0
        product = (
            multiplier_symbol(default_grid, alpha, "left_deriv")
            * multiplier_symbol(default_grid, alpha, "right_deriv")
        )[pos]
        target = np.abs(w[pos]) ** (2 * alpha)
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
        expected = np.zeros(n, dtype=np.complex128)
        nz = w != 0.0
        expected[nz] = np.abs(w[nz]) ** power * np.exp(
            1j * power * (np.pi / 2.0) * sign * np.sign(w[nz])
        )
        expected[grid.nyquist_index] = 0.0
        assert np.array_equal(multiplier_symbol(grid, alpha, kind), expected)

    def test_non_hermitian_symbol_trips_the_residue_check(self, small_grid):
        u = gaussian_field(small_grid, width=1.0)
        with pytest.raises(AssertionError, match="imaginary residue"):
            apply_multiplier(u, 1j * np.ones(small_grid.n_points))

    def test_integral_symbol_exponent(self, small_grid):
        sym = multiplier_symbol(small_grid, 0.6, "left_int")
        w = small_grid.frequencies
        k = 3
        assert abs(sym[k]) == pytest.approx(abs(w[k]) ** -0.6)

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
            validate_order(1.0, integral=True)
        with pytest.raises(ValueError):
            validate_order(0.0)


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

    def test_tail_mass_warning_and_strict_error(self, small_grid, rng):
        noisy = SpectralField.from_values(small_grid, rng.normal(size=small_grid.n_points))
        with pytest.warns(SpectralTailWarning):
            fractional_derivative(noisy, 0.75, "left")
        with pytest.raises(SpectralTailError):
            fractional_derivative(noisy, 0.75, "left", strict=True)

    @pytest.mark.parametrize("n", [16, 4096])
    def test_tail_mass_is_the_masked_band_share(self, rng, n):
        grid = make_grid(64.0, n)
        u = SpectralField.from_values(grid, rng.normal(size=n))
        power = np.abs(u.spectrum) ** 2
        w = np.abs(grid.frequencies)
        expected = np.sum(power[w >= TAIL_BAND_START * np.max(w)]) / np.sum(power)
        assert _tail_mass(u) == pytest.approx(expected, rel=1e-13)

    def test_bad_side(self, small_grid):
        u = gaussian_field(small_grid)
        with pytest.raises(ValueError, match="side"):
            fractional_derivative(u, 0.75, "up")


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

    def test_constant_field_rejected(self, small_grid):
        u = SpectralField.from_values(small_grid, np.ones(small_grid.n_points))
        with pytest.raises(ZeroModeSingularError):
            fractional_integral(u, 0.5, "left")


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


class TestGLOracle:
    @pytest.mark.parametrize("len_a, len_b", [(1, 16), (2, 4096), (15, 100), (4096, 4096)])
    def test_fftconvolve_is_the_truncated_linear_convolution(self, rng, len_a, len_b):
        a, b = rng.standard_normal(len_a), rng.standard_normal(len_b)
        n = max(len_a, len_b)
        expected = np.convolve(a, b)[:n]
        out = fftconvolve(a, b, n)
        assert out.shape == (n,)
        assert np.max(np.abs(out - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_fftconvolve_matches_scipy_bit_for_bit(self, rng):
        from scipy.signal import fftconvolve as scipy_fftconvolve

        a, b = rng.standard_normal(2 ** 12), rng.standard_normal(2 ** 12)
        assert np.array_equal(fftconvolve(a, b, 2 ** 12), scipy_fftconvolve(a, b)[: 2 ** 12])

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

    def test_zero_field(self, default_grid):
        u = SpectralField.from_values(default_grid, np.zeros(default_grid.n_points))
        out = gl_oracle(u, 0.7, "left")
        assert np.all(out.values == 0)

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
        spectral_norm = 1.0  # rel_l2 already normalizes
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
        # |u|_a^2 = (1/2pi) int |w|^(2a) |u_hat|^2 dw with u_hat = sqrt(2pi) e^(-w^2/2);
        # the |w|^(2a) cusp at w = 0 limits the frequency-sum accuracy to
        # O(dw^(2a+1)), so a wide domain is needed for 1e-6 agreement
        grid = make_grid(256.0, 16384)
        u = gaussian_field(grid, width=1.0)
        alpha = 0.75
        integrand = lambda w: w ** (2 * alpha) * 2 * np.pi * np.exp(-w ** 2)
        expected_sq = 2 * quad(integrand, 0, 20)[0] / (2 * np.pi)
        assert abs(h_alpha_norm(u, alpha).seminorm - np.sqrt(expected_sq)) < 1e-6

    def test_norm_combines_l2_and_seminorm(self, default_grid, rng):
        u = random_band_limited_field(default_grid, rng)
        result = h_alpha_norm(u, 0.8)
        expected = np.hypot(lp_norm(u, 2), result.seminorm)
        assert abs(result.norm - expected) < 1e-12


class TestEmbeddingProbe:
    def test_single_gaussian_finite_positive(self, default_grid):
        ratio = sobolev_embedding_probe([gaussian_field(default_grid)], 0.75)
        assert 0 < ratio < np.inf

    def test_scale_invariance_exact(self, default_grid):
        u = gaussian_field(default_grid)
        assert sobolev_embedding_probe([u], 0.75) == sobolev_embedding_probe([3.0 * u], 0.75)

    def test_alpha_at_most_half_rejected(self, default_grid):
        with pytest.raises(ValueError, match="1/2"):
            sobolev_embedding_probe([gaussian_field(default_grid)], 0.5)

    def test_max_dominates_and_refines_stably(self, rng):
        # realize the same trigonometric fields on N and 2N points
        coarse = make_grid(64.0, 2048)
        fine = make_grid(64.0, 4096)
        modes = rng.integers(1, 120, size=(100, 10))
        phases = rng.uniform(0, 2 * np.pi, size=(100, 10))
        amps = rng.normal(size=(100, 10))

        def realize(grid):
            fields = []
            for m_row, p_row, a_row in zip(modes, phases, amps):
                vals = np.zeros(grid.n_points)
                for m, ph, a in zip(m_row, p_row, a_row):
                    vals += a * np.cos(np.pi * m / grid.half_width * grid.nodes + ph)
                fields.append(SpectralField.from_values(grid, vals))
            return fields

        coarse_fields = realize(coarse)
        fine_fields = realize(fine)
        max_coarse = sobolev_embedding_probe(coarse_fields, 0.75)
        max_fine = sobolev_embedding_probe(fine_fields, 0.75)
        from fracground import h_alpha_norm_sq

        ratios = [
            lp_norm(u, np.inf) / np.sqrt(h_alpha_norm_sq(u, 0.75)) for u in coarse_fields
        ]
        assert all(r <= max_coarse + 1e-15 for r in ratios)
        assert abs(max_fine - max_coarse) < 0.05 * max_coarse


class TestConformanceSuite:
    def test_all_rows_pass_on_default_grid(self, default_grid):
        rows = conformance_checks(default_grid, 0.75, seed=3)
        assert rows, "no checks ran"
        for row in rows:
            assert row.passed, f"{row.name}: {row.residual:.3e} >= {row.tolerance:.0e}"
