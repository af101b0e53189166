import numpy as np
import pytest

from fracground import (
    NonlinearitySpec,
    Perturbation,
    SampleBox,
    eval_F,
    eval_df,
    eval_f,
    growth_constant,
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


class TestHypothesisValidation:
    def test_default_spec_passes_everything(self):
        report = validate_hypotheses(NonlinearitySpec())
        assert report.all_passed
        assert len(report.checks) == 6
        assert report.c_epsilon > 0

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
        # for the pure power, C_eps = max over xi of (xi^p - eps xi)/xi^p0
        spec = spec_with(amplitude=0.0)
        xi = np.geomspace(1e-4, 1e4, 2001)
        expected = np.max((xi ** spec.p - 0.1 * xi).clip(min=0) / xi ** spec.p0)
        got = growth_constant(spec, 0.1, np.array([0.0]), xi)
        assert got == pytest.approx(expected, rel=1e-6)

    def test_sample_box_validation(self):
        with pytest.raises(ValueError, match="finite"):
            SampleBox(t_max=np.inf)
        with pytest.raises(ValueError, match="samples"):
            SampleBox(n_samples=4)
