import warnings

import numpy as np
import pytest

from fracground import (
    NoPositivePartError,
    NonlinearitySpec,
    SpectralField,
    energy,
    eval_f,
    fiber_map,
    gaussian_field,
    gradient,
    h_alpha_norm_sq,
    inner,
    lp_norm,
    nehari_project,
    solve_ground_state,
    SolveConfig,
)
from fracground import variational
from fracground.checks import random_band_limited_field
from fracground.operators import _even_symbols, apply_multiplier
from fracground.variational import _segment_bounds, _segment_energies, _segment_norms

SPEC = NonlinearitySpec()


def zero_field(grid):
    return SpectralField.from_values(grid, np.zeros(grid.n_points))


def positive_random_field(grid, rng):
    u = random_band_limited_field(grid, rng)
    # guarantee a nonzero positive part without losing sign structure
    return SpectralField.from_values(grid, u.values + 0.2 * np.max(np.abs(u.values)))


class TestEnergy:
    def test_zero_field(self, default_grid):
        result = energy(zero_field(default_grid), SPEC, 0.75)
        assert result.quadratic == result.potential == result.total == 0.0

    def test_total_is_quadratic_minus_potential(self, default_grid, rng):
        u = positive_random_field(default_grid, rng)
        result = energy(u, SPEC, 0.8)
        assert result.total == result.quadratic - result.potential
        assert result.quadratic >= 0

    def test_classical_soliton_energy(self, default_grid):
        # -u'' + u = u^3 has the soliton sqrt(2) sech(t) with energy 4/3
        u = SpectralField.from_values(default_grid, np.sqrt(2) / np.cosh(default_grid.nodes))
        result = energy(u, SPEC.autonomous(), 1.0)
        assert abs(result.total - 4.0 / 3.0) < 1e-3

    def test_windowed_mode_quadratic_form(self, default_grid):
        alpha = 0.75
        w0 = np.pi * 96 / default_grid.half_width
        vals = np.cos(w0 * default_grid.nodes) * np.exp(-((default_grid.nodes / 12) ** 2))
        u = SpectralField.from_values(default_grid, vals)
        quad = energy(u, SPEC, alpha).quadratic
        expected = 0.5 * (w0 ** (2 * alpha) + 1.0) * lp_norm(u, 2) ** 2
        assert abs(quad - expected) < 0.01 * expected

    def test_alpha_out_of_solver_range(self, default_grid):
        with pytest.raises(ValueError, match="1/2"):
            energy(gaussian_field(default_grid), SPEC, 0.4)


class TestGradient:
    def test_zero_field_residual(self, default_grid):
        result = gradient(zero_field(default_grid), SPEC, 0.75)
        assert result.residual_norm == 0.0

    def test_directional_derivative_consistency(self, default_grid, rng):
        # (I(u + hv) - I(u - hv)) / 2h against <raw_residual, v>_{L2}
        alpha, h = 0.75, 1e-4
        worst = 0.0
        for _ in range(50):
            u = positive_random_field(default_grid, rng)
            v = random_band_limited_field(default_grid, rng)
            scale = 1.0 / np.sqrt(h_alpha_norm_sq(v, alpha))
            v = scale * v
            plus = energy(u + h * v, SPEC, alpha).total
            minus = energy(u - h * v, SPEC, alpha).total
            fd = (plus - minus) / (2 * h)
            exact = inner(gradient(u, SPEC, alpha).raw_residual, v)
            worst = max(worst, abs(fd - exact) / max(abs(exact), abs(fd)))
        assert worst <= 1e-5

    def test_classical_soliton_near_critical(self, default_grid):
        u = SpectralField.from_values(default_grid, np.sqrt(2) / np.cosh(default_grid.nodes))
        result = gradient(u, SPEC.autonomous(), 1.0)
        assert result.residual_norm <= 1e-3

    @pytest.mark.parametrize("alpha", [0.6, 0.75, 1.0])
    def test_raw_residual_is_k_u_minus_f(self, default_grid, alpha):
        u = gaussian_field(default_grid, center=0.4, width=1.7, amplitude=1.3)
        _, k_symbol, _, _ = _even_symbols(default_grid, alpha)
        for spec in (SPEC, SPEC.autonomous()):
            direct = apply_multiplier(u, k_symbol).values - eval_f(spec, default_grid.nodes, u.values)
            raw = gradient(u, spec, alpha).raw_residual.values
            assert np.max(np.abs(raw - direct)) <= 1e-12 * np.max(np.abs(direct))


class TestSegmentEnergies:
    @pytest.mark.parametrize("alpha", [0.6, 0.75, 1.0])
    def test_closed_form_matches_energy(self, default_grid, alpha):
        # two different shapes, so the chord ||b - a||_alpha is exercised
        a = gaussian_field(default_grid, center=-1.0, width=1.5, amplitude=0.8)
        b = gaussian_field(default_grid, center=1.0, width=2.5, amplitude=2.4)
        lams = np.linspace(0.0, 1.0, 17)
        norms = (h_alpha_norm_sq(a, alpha), h_alpha_norm_sq(b - a, alpha), h_alpha_norm_sq(b, alpha))
        for spec in (SPEC, SPEC.autonomous()):
            closed = _segment_energies(a, b, norms, spec, lams)
            direct = np.array([energy((1.0 - lam) * a + lam * b, spec, alpha).total for lam in lams])
            assert np.all(np.abs(closed - direct) <= 1e-13 * np.abs(direct))

    @pytest.mark.parametrize("alpha", [0.6, 0.75, 1.0])
    def test_chord_identity_matches_the_combined_norm(self, default_grid, alpha):
        # ||(1 - lam) a + lam b||^2 = (1 - lam) ||a||^2 + lam ||b||^2 - lam (1 - lam) ||b - a||^2
        a = gaussian_field(default_grid, center=-1.0, width=1.5, amplitude=0.8)
        b = gaussian_field(default_grid, center=1.0, width=2.5, amplitude=2.4)
        lams = np.linspace(0.0, 1.0, 65)
        closed = _segment_norms(
            lams, h_alpha_norm_sq(a, alpha), h_alpha_norm_sq(b - a, alpha), h_alpha_norm_sq(b, alpha)
        )
        direct = np.array([h_alpha_norm_sq((1.0 - lam) * a + lam * b, alpha) for lam in lams])
        assert np.all(np.abs(closed - direct) <= 1e-14 * direct)

    @pytest.mark.parametrize("alpha", [0.6, 0.75, 1.0])
    def test_bound_covers_dense_samples(self, small_grid, rng, alpha):
        # the bound may fall short of a sample only by the rounding margin the search allows
        lams = np.linspace(0.0, 1.0, 257)

        def bump():
            c, w, amp = rng.uniform(-3.0, 3.0), rng.uniform(0.5, 3.0), rng.uniform(0.5, 4.0)
            return gaussian_field(small_grid, c, w, amp)

        for spec in (SPEC, SPEC.autonomous()):
            for _ in range(4):
                a, b, noise = bump(), bump(), positive_random_field(small_grid, rng)
                for pair in ((zero_field(small_grid), b), (a, b), (noise, b), (a, 2.5 * a)):
                    parts = [energy(u, spec, alpha) for u in pair]
                    norms = [2.0 * part.quadratic for part in parts]
                    chords = [h_alpha_norm_sq(pair[1] - pair[0], alpha)]
                    bound = _segment_bounds(list(pair), norms, [part.potential for part in parts],
                                            chords, spec)
                    sampled = np.max(_segment_energies(*pair, (norms[0], chords[0], norms[1]), spec, lams))
                    assert bound.shape == (1,)
                    assert bound[0] >= sampled - 1e-12 * abs(sampled)


class TestFiberMap:
    def test_energy_vanishes_at_origin(self, default_grid):
        # psi(0) = 0 is the energy of the zero field
        assert energy(zero_field(default_grid), SPEC, 0.75).total == 0.0

    def test_autonomous_quartic_closed_form(self, default_grid, rng):
        u = positive_random_field(default_grid, rng)
        norm_sq = h_alpha_norm_sq(u, 0.75)
        quartic = default_grid.spacing * np.sum(np.maximum(u.values, 0.0) ** 4)
        sigmas = np.geomspace(0.05, 5.0, 40)
        scan = fiber_map(u, SPEC.autonomous(), 0.75, sigmas)
        expected = 0.5 * sigmas ** 2 * norm_sq - 0.25 * sigmas ** 4 * quartic
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(scan.values - expected)) < 1e-10 * scale

    def test_matches_energy_on_the_ray(self, default_grid, rng):
        # the closed form in sigma is E(sigma u) of the perturbed functional
        u = positive_random_field(default_grid, rng)
        sigmas = [0.1, 0.7, 1.0, 2.5, 9.0]
        scan = fiber_map(u, SPEC, 0.75, sigmas)
        for s, value in zip(sigmas, scan.values):
            expected = energy(s * u, SPEC, 0.75).total
            assert abs(value - expected) <= 1e-13 * max(1.0, abs(expected))

    def test_positive_then_negative(self, default_grid, rng):
        u = positive_random_field(default_grid, rng)
        result = nehari_project(u, SPEC, 0.75)
        sigmas = np.geomspace(result.sigma / 50, result.sigma * 50, 60)
        scan = fiber_map(u, SPEC, 0.75, sigmas)
        assert scan.values[0] > 0
        assert scan.values[-1] < 0
        assert scan.derivative_sign_changes == 1

    @pytest.mark.parametrize("p", [400.0, 1000.0])
    def test_overflowing_power_is_minus_infinity(self, default_grid, p):
        # sigma^(p+1) overflows at the large end of the CLI's sigma range
        spec, sigmas = NonlinearitySpec(p=p), np.geomspace(0.01, 10.0, 200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scan = fiber_map(gaussian_field(default_grid), spec, 0.75, sigmas)
        assert not np.any(np.isnan(scan.values))
        assert scan.values[-1] == -np.inf
        assert scan.derivative_sign_changes == 1

    def test_zero_potential_is_no_positive_part(self, default_grid):
        # a field with no positive part, and one whose every u_+^(p+1) flushes to 0
        # at p = 1e20, have a zero potential and so no maximizer on the ray
        negative = SpectralField.from_values(default_grid, -np.exp(-default_grid.nodes ** 2))
        with pytest.raises(NoPositivePartError):
            fiber_map(negative, SPEC, 0.75, [0.5, 2.0])
        flushed = NonlinearitySpec(p=1e20, theta=4.0, p0=3.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NoPositivePartError):
                fiber_map(gaussian_field(default_grid), flushed, 0.75, [0.5, 2.0])

    @pytest.mark.parametrize("amplitude", [1e-200, 1e-80, 1e80, 1e200])
    def test_far_amplitudes_scan_the_projection_curve(self, default_grid, amplitude):
        # psi is read from the fiber root and its potential, so neither the norm
        # nor the potential of u itself overflows or flushes to 0
        u = amplitude * gaussian_field(default_grid)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = nehari_project(u, SPEC, 0.75)
            scan = fiber_map(u, SPEC, 0.75, result.sigma * np.geomspace(0.02, 50.0, 61))
            peak = fiber_map(u, SPEC, 0.75, [result.sigma]).values[0]
        assert not np.any(np.isnan(scan.values))
        assert scan.derivative_sign_changes == 1
        assert abs(peak - result.energy) <= 1e-13 * abs(result.energy)

    def test_rejects_zero_field_and_bad_grid(self, default_grid):
        with pytest.raises(NoPositivePartError, match="no positive part"):
            fiber_map(zero_field(default_grid), SPEC, 0.75, [1.0])
        with pytest.raises(ValueError, match="positive"):
            fiber_map(gaussian_field(default_grid), SPEC, 0.75, [0.0, 1.0])
        for sigmas in ([0.5, np.nan], [0.5, np.inf]):
            with pytest.raises(ValueError, match="finite"):
                fiber_map(gaussian_field(default_grid), SPEC, 0.75, sigmas)


class TestNehariProjection:
    def test_pure_power_closed_form(self, default_grid, rng):
        for _ in range(10):
            u = positive_random_field(default_grid, rng)
            result = nehari_project(u, SPEC.autonomous(), 0.75)
            norm_sq = h_alpha_norm_sq(u, 0.75)
            quartic = default_grid.spacing * np.sum(np.maximum(u.values, 0.0) ** 4)
            closed_form = (norm_sq / quartic) ** 0.5
            assert abs(result.sigma - closed_form) <= 1e-10 * closed_form

    def test_one_potential_pass(self, default_grid, monkeypatch):
        calls, original = [], variational.eval_F

        def counted(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(variational, "eval_F", counted)
        nehari_project(gaussian_field(default_grid), SPEC, 0.75)
        assert len(calls) == 1

    @pytest.mark.parametrize("scale", [2e-4, 1.0, 500.0, 1e120])
    def test_energy_is_the_projected_energy(self, default_grid, scale):
        result = nehari_project(scale * gaussian_field(default_grid), SPEC, 0.75)
        total = energy(result.projected, SPEC, 0.75).total
        assert abs(result.energy - total) <= 1e-14 * abs(total)

    def test_fixed_point_on_manifold(self, default_grid, rng):
        u = positive_random_field(default_grid, rng)
        first = nehari_project(u, SPEC, 0.75)
        second = nehari_project(first.projected, SPEC, 0.75)
        assert abs(second.sigma - 1.0) <= 1e-9

    def test_constraint_residual_small(self, default_grid, rng):
        for _ in range(5):
            u = positive_random_field(default_grid, rng)
            result = nehari_project(u, SPEC, 0.75)
            assert abs(result.constraint_residual) <= 1e-9

    def test_no_positive_part(self, default_grid):
        u = SpectralField.from_values(default_grid, -np.exp(-default_grid.nodes ** 2))
        with pytest.raises(NoPositivePartError):
            nehari_project(u, SPEC, 0.75)

    def test_flushed_potential_is_no_positive_part(self, default_grid):
        # at p = 1e20 every u_+^(p+1) / max^(p+1), even at the peak, flushes to 0
        spec = NonlinearitySpec(p=1e20, theta=4.0, p0=3.5)
        with pytest.raises(NoPositivePartError):
            nehari_project(gaussian_field(default_grid), spec, 0.75)

    def test_energy_dominates_fiber_samples(self, default_grid, rng):
        u = positive_random_field(default_grid, rng)
        result = nehari_project(u, SPEC, 0.75)
        sigmas = np.geomspace(result.sigma / 30, result.sigma * 30, 80)
        scan = fiber_map(u, SPEC, 0.75, sigmas)
        assert result.energy >= np.max(scan.values) - 1e-9

    def test_energy_positive_on_manifold(self, default_grid, rng):
        for _ in range(5):
            u = positive_random_field(default_grid, rng)
            assert nehari_project(u, SPEC, 0.75).energy > 0

    def test_projection_far_scales(self, default_grid):
        for scale in (1e-80, 2e-4, 500.0, 1e120):
            result = nehari_project(scale * gaussian_field(default_grid), SPEC, 0.75)
            assert abs(result.constraint_residual) <= 1e-9
        # ||u||_alpha^2 is subnormal, but the norm of u / 2^(e-1) is not, so
        # sigma lands on the manifold; the residual agrees with a fresh field
        # of the projected values
        result = nehari_project(1e-160 * gaussian_field(default_grid), SPEC, 0.75)
        fresh = SpectralField.from_values(default_grid, result.projected.values)
        f_vals = eval_f(SPEC, default_grid.nodes, fresh.values)
        pairing = default_grid.spacing * np.sum(f_vals * fresh.values)
        fresh_residual = 1.0 - pairing / h_alpha_norm_sq(fresh, 0.75)
        assert abs(result.constraint_residual) <= 1e-9
        assert abs(result.constraint_residual - fresh_residual) <= 1e-12
        # ||u||_alpha^2 underflows to zero, and the scaled norm still projects
        result = nehari_project(1e-300 * gaussian_field(default_grid), SPEC, 0.75)
        assert abs(result.constraint_residual) <= 1e-9
        # a subnormal peak: sigma itself exceeds the float range
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NoPositivePartError):
                nehari_project(1e-310 * gaussian_field(default_grid), SPEC, 0.75)


class TestTranslationInvariance:
    def test_autonomous_energy_shift_invariant(self, default_grid):
        u = gaussian_field(default_grid, center=3.0, width=1.5)
        base = energy(u, SPEC.autonomous(), 0.75).total
        for cells in (1, 57, 1024):
            moved = SpectralField(u.grid, np.roll(u.values, cells))
            shifted = energy(moved, SPEC.autonomous(), 0.75).total
            assert abs(shifted - base) <= 1e-12 * max(1.0, abs(base))
