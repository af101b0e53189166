import numpy as np
import pytest

from fracground import (
    NoPositivePartError,
    NonlinearitySpec,
    SpectralField,
    energy,
    estimate_level,
    eval_f,
    fiber_map,
    gaussian_field,
    gradient,
    h_alpha_norm_sq,
    inner,
    lp_norm,
    nehari_project,
    shift_cells,
    solve_ground_state,
    SolveConfig,
)
from fracground.checks import random_band_limited_field

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

    def test_positive_then_negative(self, default_grid, rng):
        u = positive_random_field(default_grid, rng)
        result = nehari_project(u, SPEC, 0.75)
        sigmas = np.geomspace(result.sigma / 50, result.sigma * 50, 60)
        scan = fiber_map(u, SPEC, 0.75, sigmas)
        assert scan.values[0] > 0
        assert scan.values[-1] < 0
        assert scan.derivative_sign_changes == 1

    def test_rejects_zero_field_and_bad_grid(self, default_grid):
        with pytest.raises(ValueError, match="nonzero"):
            fiber_map(zero_field(default_grid), SPEC, 0.75, [1.0])
        with pytest.raises(ValueError, match="positive"):
            fiber_map(gaussian_field(default_grid), SPEC, 0.75, [0.0, 1.0])


class TestNehariProjection:
    def test_pure_power_closed_form(self, default_grid, rng):
        for _ in range(10):
            u = positive_random_field(default_grid, rng)
            result = nehari_project(u, SPEC.autonomous(), 0.75)
            norm_sq = h_alpha_norm_sq(u, 0.75)
            quartic = default_grid.spacing * np.sum(np.maximum(u.values, 0.0) ** 4)
            closed_form = (norm_sq / quartic) ** 0.5
            assert abs(result.sigma - closed_form) <= 1e-10 * closed_form

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
        # ||u||_alpha^2 is subnormal, so sigma misses the manifold; the
        # residual must say so, as a fresh field of the projected values does
        result = nehari_project(1e-160 * gaussian_field(default_grid), SPEC, 0.75)
        fresh = SpectralField.from_values(default_grid, result.projected.values)
        f_vals = eval_f(SPEC, default_grid.nodes, fresh.values)
        pairing = default_grid.spacing * np.sum(f_vals * fresh.values)
        fresh_residual = 1.0 - pairing / h_alpha_norm_sq(fresh, 0.75)
        assert abs(result.constraint_residual - fresh_residual) <= 1e-12
        # ||u||_alpha^2 underflows to zero, so no finite fiber scale exists
        with pytest.raises(NoPositivePartError):
            nehari_project(1e-300 * gaussian_field(default_grid), SPEC, 0.75)


class TestTranslationInvariance:
    def test_autonomous_energy_shift_invariant(self, default_grid):
        u = gaussian_field(default_grid, center=3.0, width=1.5)
        base = energy(u, SPEC.autonomous(), 0.75).total
        for cells in (1, 57, 1024):
            shifted = energy(shift_cells(u, cells), SPEC.autonomous(), 0.75).total
            assert abs(shifted - base) <= 1e-12 * max(1.0, abs(base))


class TestEstimateLevel:
    def test_single_candidate(self, default_grid):
        u = gaussian_field(default_grid)
        proj = nehari_project(u, SPEC, 0.75)
        estimate = estimate_level(SPEC, 0.75, [u])
        assert estimate.level == pytest.approx(proj.energy)
        assert estimate.argmin_index == 0

    def test_more_candidates_never_increase(self, default_grid):
        pool = [
            gaussian_field(default_grid, width=w, center=c)
            for w, c in [(1.0, 0.0), (2.0, 1.0), (0.7, -2.0), (3.0, 0.5)]
        ]
        levels = [estimate_level(SPEC, 0.75, pool[: k + 1]).level for k in range(len(pool))]
        assert all(b <= a + 1e-15 for a, b in zip(levels, levels[1:]))

    def test_failures_reported_not_fatal(self, default_grid):
        bad = SpectralField.from_values(default_grid, -np.exp(-default_grid.nodes ** 2))
        good = gaussian_field(default_grid)
        estimate = estimate_level(SPEC, 0.75, [bad, good])
        assert estimate.argmin_index == 1
        assert len(estimate.failures) == 1 and estimate.failures[0][0] == 0

    def test_random_gaussians_bound_solver_level(self, default_grid):
        # Sharp comparison against the descent solver.  The best single
        # Gaussian shape sits 5.8% above the true level at this order, so the
        # achievable bound over 20 random bumps is ~6-9%.
        rng = np.random.default_rng(42)
        candidates = [
            gaussian_field(
                default_grid,
                center=rng.uniform(-5, 5),
                width=np.exp(rng.uniform(np.log(0.5), np.log(8.0))),
                amplitude=rng.uniform(0.5, 2.0),
            )
            for _ in range(20)
        ]
        estimate = estimate_level(SPEC.autonomous(), 0.75, candidates)
        report = solve_ground_state(
            SolveConfig(alpha=0.75, autonomous=True, residual_tol=1e-7)
        )
        assert estimate.level >= report.level - 1e-9
        assert estimate.level <= 1.10 * report.level
