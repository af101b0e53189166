import warnings

import numpy as np
import pytest

import fracground.nonlinearity as nl

from fracground import (
    NonlinearitySpec,
    Perturbation,
    energy,
    eval_F,
    eval_df,
    eval_f,
    gaussian_field,
    growth_constant,
    h_alpha_norm_sq,
    make_grid,
    validate_hypotheses,
)


def spec_with(**kwargs):
    pert = Perturbation(
        kind=kwargs.pop("kind", "gaussian"),
        amplitude=kwargs.pop("amplitude", 0.5),
        width=kwargs.pop("width", 1.0),
    )
    return NonlinearitySpec(perturbation=pert, **kwargs)


class TestEvaluation:
    def test_zero_for_nonpositive_argument(self):
        spec = NonlinearitySpec()
        assert eval_f(spec, 0.0, -2.0) == 0.0
        assert eval_f(spec, 3.0, 0.0) == 0.0
        assert eval_F(spec, 1.0, -5.0) == 0.0

    def test_pure_power_values(self):
        spec = spec_with(amplitude=0.0)
        assert eval_f(spec, 0.0, 2.0) == pytest.approx(8.0)
        assert eval_F(spec, 0.0, 2.0) == pytest.approx(4.0)

    def test_perturbed_value_at_origin(self):
        spec = spec_with(amplitude=0.5, width=1.0)
        assert eval_f(spec, 0.0, 1.0) == pytest.approx(1.5)
        assert eval_f(spec.autonomous(), 0.0, 1.0) == pytest.approx(1.0)

    def test_primitive_derivative_matches_f(self):
        spec = NonlinearitySpec()
        xi, h = 1.3, 1e-5
        fd = (eval_F(spec, 0.7, xi + h) - eval_F(spec, 0.7, xi - h)) / (2 * h)
        assert abs(fd - eval_f(spec, 0.7, xi)) < 1e-8

    def test_df_matches_finite_difference(self):
        spec = NonlinearitySpec()
        xi, h = 0.9, 1e-6
        fd = (eval_f(spec, 0.2, xi + h) - eval_f(spec, 0.2, xi - h)) / (2 * h)
        assert abs(fd - eval_df(spec, 0.2, xi)) < 1e-6

    def test_vectorized_evaluation(self):
        spec = NonlinearitySpec()
        t = np.linspace(-2, 2, 7)
        xi = np.linspace(-1, 1, 7)
        out = eval_f(spec, t, xi)
        assert out.shape == (7,)
        assert np.all(out >= 0)
        assert np.all(out[xi <= 0] == 0)

    def test_rational_perturbation_decays(self):
        pert = Perturbation("rational", 0.5, 2.0)
        assert pert.weight(0.0) == pytest.approx(0.5)
        assert pert.weight(1e6) < 1e-9

    def test_constructor_basic_validation(self):
        with pytest.raises(ValueError, match="p must be"):
            NonlinearitySpec(p=1.0)
        with pytest.raises(ValueError, match="theta"):
            NonlinearitySpec(theta=2.0)
        with pytest.raises(ValueError, match="amplitude"):
            Perturbation(amplitude=-0.1)
        with pytest.raises(ValueError, match="kind"):
            Perturbation(kind="sinusoidal")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["p", "theta", "p0"])
    def test_spec_rejects_non_finite(self, name, bad):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            NonlinearitySpec(**{name: bad})

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["amplitude", "width"])
    def test_perturbation_rejects_non_finite(self, name, bad):
        with pytest.raises(ValueError, match=name):
            Perturbation(**{name: bad})


TINY = np.finfo(float).tiny


def unflushed_f(spec, t, xi):
    """f and F as plain powers of max(xi, 0), subnormal results kept."""
    xi_plus = np.maximum(np.asarray(xi, dtype=float), 0.0)
    coeff = 1.0 + spec.perturbation.weight(t)
    return coeff * xi_plus ** spec.p, coeff * xi_plus ** (spec.p + 1.0) / (spec.p + 1.0)


class TestPowerFlush:
    MIXED = np.array([np.nan, -1.0, -0.0, 0.0, 1e-78, 1e-70, 2.0, np.inf])

    @pytest.mark.parametrize("which", ["tails", "mixed"])
    def test_flush_below_smallest_normal(self, default_grid, which):
        spec = NonlinearitySpec()
        if which == "tails":
            t, xi = default_grid, 1e-90 * gaussian_field(default_grid).values
            nodes = default_grid.nodes
        else:
            t, xi = np.linspace(-2.0, 2.0, self.MIXED.size), self.MIXED
            nodes = t
        # p = 3: f and F take the integer exponents 3 and 4, which are products
        xi_plus = np.maximum(xi, 0.0)
        coeff = 1.0 + spec.perturbation.weight(nodes)
        square = xi_plus * xi_plus
        plain = (coeff * (square * xi_plus), coeff * (square * square) / (spec.p + 1.0))
        for out, ref in zip((eval_f(spec, t, xi), eval_F(spec, t, xi)), plain):
            assert np.all(np.isnan(out) | (out == 0.0) | (out >= TINY))
            normal = ~(ref < TINY)
            assert np.array_equal(out[normal], ref[normal], equal_nan=True)
            assert np.array_equal(np.isnan(out), np.isnan(xi))
        # and the powers themselves stay within 1 and 2 ulp of ``**``
        for e, ulps in ((spec.p, 1), (spec.p + 1.0, 2)):
            out, ref = nl._power_plus(xi, e), xi_plus ** e
            normal = (ref >= TINY) & (ref < np.inf)
            assert np.all(np.abs(out[normal] - ref[normal]) <= ulps * np.spacing(ref[normal]))

    def test_grid_coefficient_is_cached_and_read_only(self, default_grid):
        spec = NonlinearitySpec()
        xi = gaussian_field(default_grid).values
        assert np.array_equal(eval_f(spec, default_grid, xi), eval_f(spec, default_grid.nodes, xi))
        same_grid = make_grid(default_grid.half_width, default_grid.n_points)
        assert nl._coefficient(spec, default_grid) is nl._coefficient(spec, same_grid)
        assert not nl._coefficient(spec, default_grid).flags.writeable

    def test_energy_of_gaussian_is_bit_identical(self, default_grid):
        spec, alpha = NonlinearitySpec(), 0.75
        u = gaussian_field(default_grid)
        _, F_vals = unflushed_f(spec, default_grid.nodes, u.values)
        quad = 0.5 * h_alpha_norm_sq(u, alpha)
        pot = float(default_grid.spacing * np.sum(F_vals))
        assert energy(u, spec, alpha).total == quad - pot


class TestIntegerPowers:
    """_power_plus at e = 2, 3, 4 is products of the flushed base, against the masked pow."""

    @staticmethod
    def masked_pow(xi, e):
        return np.power(xi, e, out=np.zeros_like(xi), where=~(xi <= TINY ** (1.0 / e)))

    @pytest.mark.parametrize("e, ulps", [(2.0, 0), (3.0, 1), (4.0, 2)])
    def test_within_ulps_of_pow(self, e, ulps):
        rng = np.random.default_rng(7)
        sweep = np.geomspace(1e-70, 1e70, 200_001) * (1.0 + 1e-3 * rng.random(200_001))
        edge = TINY ** (1.0 / e)
        steps = np.arange(-3, 4)
        boundary = np.concatenate(
            [edge + steps * np.spacing(edge), edge * (1.0 + 1e-12 * steps), [np.nextafter(edge, 1.0)]]
        )
        special = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, -1.0, -1e-300, -1e70, TINY, 1.0])
        xi = np.concatenate([sweep, -sweep[::997], boundary, special])
        out, ref = nl._power_plus(xi, e), self.masked_pow(xi, e)
        assert np.array_equal(np.isnan(out), np.isnan(ref))
        assert np.array_equal(out == 0.0, ref == 0.0)
        assert not np.any(np.signbit(out[out == 0.0]))
        assert np.array_equal(np.isinf(out), np.isinf(ref))
        finite = np.isfinite(ref) & (ref != 0.0)
        assert np.all(np.abs(out[finite] - ref[finite]) <= ulps * np.spacing(ref[finite]))
        assert np.all(np.isnan(out) | (out == 0.0) | (out >= TINY))


class TestHypothesisValidation:
    def test_default_spec_passes_everything(self):
        report = validate_hypotheses(NonlinearitySpec())
        assert report.all_passed
        assert len(report.checks) == 6
        assert report.c_epsilon > 0

    def test_unknown_check_name_raises_key_error(self):
        with pytest.raises(KeyError, match="nope"):
            validate_hypotheses(NonlinearitySpec())["nope"]

    def test_theta_too_large_fails_superquadratic(self):
        report = validate_hypotheses(spec_with(theta=4.5))
        check = report["superquadratic"]
        assert not check.passed
        assert check.margin < 0
        t_w, xi_w = check.witness
        assert xi_w > 0  # witness lives on the positive axis

    def test_zero_amplitude_fails_comparison(self):
        report = validate_hypotheses(spec_with(amplitude=0.0))
        check = report["autonomous_comparison"]
        assert not check.passed
        # every other hypothesis still holds for the autonomous family
        assert all(c.passed for c in report.checks if c.name != "autonomous_comparison")

    def test_growth_ceiling_detects_p0_below_p(self):
        report = validate_hypotheses(spec_with(p0=2.5))
        assert not report["growth_ceiling"].passed

    def test_positivity_and_monotonicity_of_family(self):
        spec = NonlinearitySpec()
        t = np.linspace(-5, 5, 11)
        xi = np.linspace(0, 10, 101)
        tt, xx = np.meshgrid(t, xi, indexing="ij")
        f_vals = eval_f(spec, tt, xx)
        F_vals = eval_F(spec, tt, xx)
        assert np.all(f_vals >= 0)
        assert np.all(F_vals >= 0)
        assert np.all(np.diff(F_vals, axis=1) >= 0)

    def test_growth_bound_with_reported_constant(self):
        # dense 1-D oracle for the family: C = sup_xi ((1+A) xi^p - eps xi) / xi^p0
        spec = NonlinearitySpec()
        report = validate_hypotheses(spec)
        xi_dense = np.geomspace(1e-8, 1e8, 200001)
        amp = 1.0 + spec.perturbation.amplitude
        dense_c = np.max((amp * xi_dense ** spec.p - report.epsilon * xi_dense).clip(min=0)
                         / xi_dense ** spec.p0)
        assert report.c_epsilon == pytest.approx(dense_c, rel=0.03)
        t = np.linspace(-6, 6, 17)
        xi = np.geomspace(1e-3, 1e3, 61)
        tt, xx = np.meshgrid(t, xi, indexing="ij")
        bound = report.epsilon * np.abs(xx) + dense_c * np.abs(xx) ** spec.p0
        assert np.all(np.abs(eval_f(spec, tt, xx)) <= bound * (1 + 1e-9))

    def test_growth_constant_closed_form_scale(self):
        # for the pure power, C_eps = max over xi of (xi^p - eps xi)/xi^p0, attained at
        # xi* = (eps (p0 - 1) / (p0 - p))^(1/(p-1)); no sample reaches above it
        spec = spec_with(amplitude=0.0)
        xi = np.geomspace(1e-4, 1e4, 2001)
        sampled = np.max((xi ** spec.p - 0.1 * xi).clip(min=0) / xi ** spec.p0)
        got = growth_constant(spec, 0.1)
        star = (0.1 * (spec.p0 - 1.0) / (spec.p0 - spec.p)) ** (1.0 / (spec.p - 1.0))
        assert got == pytest.approx((star ** spec.p - 0.1 * star) / star ** spec.p0, rel=1e-12)
        assert got >= sampled

    @pytest.mark.parametrize("epsilon", [0.0, -0.1, np.inf, np.nan])
    def test_growth_constant_rejects_bad_epsilon(self, epsilon):
        with pytest.raises(ValueError, match="epsilon"):
            growth_constant(NonlinearitySpec(), epsilon)

    def test_default_margins_are_exact(self):
        report = validate_hypotheses(NonlinearitySpec())
        margins = {c.name: c.margin for c in report.checks}
        assert margins == {
            "sign": 0.0,
            "superquadratic": 0.0,
            "small_at_zero": 2.0,
            "growth_ceiling": 0.5,
            "fiber_monotone": 2.0,
            "autonomous_comparison": 0.5,
        }
        assert not np.signbit(report["sign"].margin)
        # C = eps (p - 1)/(p0 - p) xi*^(1 - p0) with xi* = 3^(-1/2): 0.4 * 3^(5/4)
        assert report.c_epsilon == pytest.approx(0.4 * 3.0 ** 1.25, rel=1e-12)
        assert report.c_epsilon == pytest.approx(1.5792888155, abs=1e-10)

    @pytest.mark.parametrize("p", [53.0, 77.0, 100.0, 1e6])
    def test_large_p_family_passes(self, p):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = validate_hypotheses(NonlinearitySpec(p=p, theta=4.0, p0=p + 1.0))
        assert report.all_passed
        assert np.isfinite(report.c_epsilon) and report.c_epsilon > 0

    @pytest.mark.parametrize("p, p0", [(3.0, 3.5), (10.0, 11.0), (52.0, 53.0)])
    def test_certified_inequality_holds_and_is_tight(self, p, p0):
        # f <= eps xi + C_eps xi^p0 at t = 0, where a peaks, on a dense grid, and
        # C_eps is the least such constant: the bound is touched near xi*
        spec = NonlinearitySpec(p=p, theta=4.0, p0=p0)
        report = validate_hypotheses(spec)
        xi = np.geomspace(1e-3, 1e3, 200001)
        ratio = eval_f(spec, 0.0, xi) / (report.epsilon * xi + report.c_epsilon * xi ** p0)
        assert np.max(ratio) <= 1.0
        assert np.max(ratio) >= 1.0 - 1e-8

    def test_p0_below_p_has_no_growth_constant(self):
        report = validate_hypotheses(spec_with(p0=2.5))
        assert report.c_epsilon == np.inf
        for name in ("growth_ceiling", "autonomous_comparison"):
            assert not report[name].passed
            assert report[name].margin < 0
