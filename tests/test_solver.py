import numpy as np
import pytest

from fracground import (
    DivergedError,
    EndpointNotNegativeError,
    InitSpec,
    NoPositivePartError,
    NonlinearitySpec,
    Perturbation,
    SolveConfig,
    SpectralField,
    compare_levels,
    gaussian_field,
    make_grid,
    mountain_pass_path,
    shift_cells,
    solve_ground_state,
    vanishing_diagnostic,
)
from fracground.grid import save_field_json
from fracground.variational import _best_translate


def autonomous_config(**kwargs):
    defaults = dict(alpha=0.75, autonomous=True, residual_tol=1e-7)
    defaults.update(kwargs)
    return SolveConfig(**defaults)


@pytest.fixture
def fft_calls(monkeypatch):
    """A list that grows by one on every numpy.fft.fft / ifft / rfft / irfft call."""
    calls = []
    for name in ("fft", "ifft", "rfft", "irfft"):
        original = getattr(np.fft, name)

        def counted(*args, _original=original, **kwargs):
            calls.append(1)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls


class TestVanishingDiagnostic:
    @pytest.mark.parametrize("cells", [1, 5])
    def test_periodic_window_sum(self, cells):
        grid = make_grid(8.0, 256)
        u = gaussian_field(grid, center=7.0, width=0.5)
        diag = vanishing_diagnostic(u, cells * grid.spacing)
        sq = u.values ** 2
        direct = grid.spacing * np.array([
            sum(sq[(i + j) % grid.n_points] for j in range(-cells, cells + 1))
            for i in range(grid.n_points)
        ])
        assert np.max(np.abs(diag.masses - direct)) <= 1e-14 * np.max(direct)
        assert np.argmax(diag.masses) == np.argmax(direct)

    def test_bump_location(self, default_grid):
        u = gaussian_field(default_grid, center=5.0, width=0.8)
        diag = vanishing_diagnostic(u, 1.0)
        assert abs(diag.argmax_y - 5.0) < 0.5

    def test_zero_field(self, default_grid):
        u = SpectralField.from_values(default_grid, np.zeros(default_grid.n_points))
        assert vanishing_diagnostic(u, 1.0).max_mass == 0.0

    def test_translates_track_exactly(self, default_grid):
        u = gaussian_field(default_grid, center=0.0, width=1.0)
        base = vanishing_diagnostic(u, 1.0)
        for cells in (64, 320, -512):
            moved = vanishing_diagnostic(shift_cells(u, cells), 1.0)
            assert moved.max_mass == pytest.approx(base.max_mass, rel=1e-12)
            expected = base.argmax_y + cells * default_grid.spacing
            assert moved.argmax_y == pytest.approx(expected)

    def test_window_smaller_than_cell_rejected(self, default_grid):
        u = gaussian_field(default_grid)
        with pytest.raises(ValueError, match="window radius"):
            vanishing_diagnostic(u, default_grid.spacing / 3)


class TestSolveGroundState:
    def test_classical_soliton(self):
        report = solve_ground_state(autonomous_config(alpha=1.0))
        assert report.converged
        assert abs(report.level - 4.0 / 3.0) <= 0.01 * (4.0 / 3.0)
        grid = make_grid(64.0, 4096)
        soliton = np.sqrt(2) / np.cosh(grid.nodes)
        errs = [
            np.sqrt(grid.spacing * np.sum((np.roll(report.field.values, k) - soliton) ** 2))
            for k in range(-64, 65)
        ]
        assert min(errs) <= 1e-2

    def test_report_invariants(self):
        report = solve_ground_state(autonomous_config())
        assert report.converged
        assert report.residual_history[-1] <= 1e-7
        assert abs(report.nehari_residual) <= 1e-9
        # accepted energies never increase (recentring only permutes values)
        diffs = np.diff(report.energy_history)
        assert np.all(diffs <= 1e-12)
        # converged run concentrates: the vanishing alternative fails
        assert report.max_mass > 0.1
        assert report.level == pytest.approx(report.energy_history[-1], abs=1e-9)

    def test_iterate_norm_bound(self):
        # (1/2 - 1/theta) ||u_k||_a^2 <= level + 1 + ||u_k||_a on the manifold;
        # with p = 3, theta = 4 the on-manifold energy is ||u||_a^2 / 4
        report = solve_ground_state(autonomous_config())
        theta = 4.0
        for e_k in report.energy_history:
            norm_sq = 4.0 * e_k
            assert (0.5 - 1.0 / theta) * norm_sq <= report.level + 1.0 + np.sqrt(norm_sq) + 1e-9

    def test_two_inits_same_level(self):
        first = solve_ground_state(autonomous_config())
        second = solve_ground_state(
            autonomous_config(init=InitSpec(center=3.0, width=1.2, amplitude=0.7))
        )
        assert first.converged and second.converged
        assert abs(first.level - second.level) <= 1e-6

    def test_recentring_tracks_offcentre_bump(self):
        config = autonomous_config(
            half_width=32.0,
            n_points=2048,
            init=InitSpec(center=20.0, width=1.5, amplitude=1.0),
        )
        report = solve_ground_state(config)
        assert report.converged
        # the off-centre bump concentrates past L/4, so it was pulled back
        assert report.recentred_shift != 0.0
        assert abs(report.argmax_y) <= 8.0

    def test_no_positive_part_init(self):
        config = autonomous_config(init=InitSpec(amplitude=-1.0))
        with pytest.raises(NoPositivePartError):
            solve_ground_state(config)

    def test_unreachable_tolerance_diverges(self):
        # far below the attainable energy-decrease floor: the line search
        # must eventually underflow and report divergence
        config = autonomous_config(
            half_width=32.0, n_points=1024, residual_tol=1e-12, max_iters=4000
        )
        with pytest.raises(DivergedError):
            solve_ground_state(config)

    @pytest.mark.parametrize("autonomous", [False, True])
    def test_two_transforms_per_iteration(self, monkeypatch, autonomous):
        # one fft for f(u), one ifft for its resolvent image; field arithmetic
        # and projection make none
        calls = []
        for name in ("fft", "ifft"):
            original = getattr(np.fft, name)

            def counted(*args, _original=original, **kwargs):
                calls.append(1)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)

        def transforms(max_iters):
            calls.clear()
            solve_ground_state(
                SolveConfig(half_width=32.0, n_points=1024, residual_tol=1e-12,
                            max_iters=max_iters, autonomous=autonomous)
            )
            return len(calls)

        assert transforms(12) - transforms(2) <= 2 * 10

    def test_custom_init_round_trip(self, tmp_path):
        grid = make_grid(64.0, 4096)
        seed = gaussian_field(grid, width=1.7)
        path = tmp_path / "seed.json"
        save_field_json(seed, str(path))
        config = autonomous_config(init=InitSpec(kind="custom", path=str(path)))
        report = solve_ground_state(config)
        assert report.converged

    def test_config_validation(self):
        with pytest.raises(ValueError, match="step"):
            SolveConfig(step=0.0)
        with pytest.raises(ValueError, match="residual_tol"):
            SolveConfig(residual_tol=1e-13)
        with pytest.raises(ValueError, match="alpha"):
            SolveConfig(alpha=0.4)
        with pytest.raises(ValueError, match="alpha"):
            SolveConfig(alpha=1.2)


class TestTranslationSearch:
    @pytest.mark.parametrize("center", [0.3, 0.7, 1.5])
    def test_shift_centres_the_bump(self, default_grid, center):
        # a(t) is a Gaussian bump at 0, so the best translate of a Gaussian centres it
        u = gaussian_field(default_grid, center=center)
        moved, shift = _best_translate(u, NonlinearitySpec())
        assert abs(shift + center) <= 1e-6
        assert np.max(np.abs(moved.values - gaussian_field(default_grid).values)) <= 1e-6

    def test_skipped_without_perturbation(self, default_grid):
        u = gaussian_field(default_grid, center=0.7)
        moved, shift = _best_translate(u, NonlinearitySpec().autonomous())
        assert moved is u and shift == 0.0

    def test_offcentre_iteration_budget(self):
        # without the search this start drifts onto the bump of a(t) for 329 iterations
        report = solve_ground_state(SolveConfig(init=InitSpec(center=1.5)))
        assert report.converged
        assert report.iterations <= 40

    @pytest.mark.parametrize("center", [-5.0, -12.0])
    def test_far_start_finds_the_perturbed_level(self, center):
        # descent from here used to slide toward the autonomous level c_bar
        # (centre -5: 2000 iterations, unconverged; centre -12: converged to c_bar)
        centred = solve_ground_state(SolveConfig())
        report = solve_ground_state(
            SolveConfig(init=InitSpec(center=center, width=3.0, amplitude=2.0))
        )
        assert report.converged
        assert report.iterations <= 40
        assert abs(report.level - centred.level) <= 1e-9 * centred.level


class TestMountainPass:
    def test_initial_node_energies_are_segment_values(self):
        report = mountain_pass_path(autonomous_config(), n_deform=0, n_nodes=9)
        assert report.node_energies == report.initial_node_energies
        assert report.initial_node_energies[0] == 0.0
        assert report.initial_node_energies[-1] < 0.0

    def test_path_max_bounds_level_after_short_run(self):
        config = autonomous_config()
        solve = solve_ground_state(config)
        report = mountain_pass_path(config, n_nodes=17, n_deform=30)
        assert report.path_max_energy >= solve.level - 1e-6
        # 30 sweeps already lands well inside the 2% band at this order
        assert report.path_max_energy <= 1.02 * solve.level

    def test_endpoint_auto_scaling(self):
        config = autonomous_config(init=InitSpec(amplitude=0.05, width=2.0))
        report = mountain_pass_path(config, n_deform=0)
        assert report.endpoint_scale > 1.0

    def test_transform_budget(self, fft_calls):
        # the path is held as fields: only the seed and the relax gradients
        # (two transforms each, at most n_nodes + 1 per sweep) transform
        config = SolveConfig(half_width=32.0, n_points=1024, autonomous=True)
        n_nodes = 9

        def transforms(n_deform):
            fft_calls.clear()
            mountain_pass_path(config, n_nodes=n_nodes, n_deform=n_deform)
            return len(fft_calls)

        assert transforms(0) == 1
        assert transforms(3) - transforms(1) <= 2 * 2 * (n_nodes + 1)

    @pytest.mark.parametrize("alpha", [0.75, 1.0])
    @pytest.mark.parametrize("autonomous", [False, True])
    def test_path_max_falls_with_sweeps(self, alpha, autonomous):
        config = SolveConfig(half_width=32.0, n_points=1024, alpha=alpha, autonomous=autonomous)
        maxima = [
            mountain_pass_path(config, n_nodes=17, n_deform=n).path_max_energy
            for n in (0, 2, 5, 10, 20)
        ]
        assert all(later <= earlier for earlier, later in zip(maxima, maxima[1:]))

    def test_endpoint_not_negative_error(self):
        grid_cfg = autonomous_config(
            half_width=32.0, n_points=1024, init=InitSpec(amplitude=1e-12, width=0.5)
        )
        with pytest.raises(EndpointNotNegativeError):
            mountain_pass_path(grid_cfg, n_deform=0)


class TestAutonomy:
    def test_nonlinearity_resolves_the_spec(self):
        spec = NonlinearitySpec(p=2.5, theta=3.5, p0=3.0)
        assert SolveConfig(spec=spec).nonlinearity() is spec
        resolved = SolveConfig(spec=spec, autonomous=True).nonlinearity()
        assert resolved.perturbation.kind == "zero"
        assert (resolved.p, resolved.theta, resolved.p0) == (spec.p, spec.theta, spec.p0)

    def test_flag_equals_autonomous_spec(self):
        # without recentring, autonomy is nothing but the a = 0 spec
        grid = dict(half_width=32.0, n_points=1024, recentre=False)
        by_flag = solve_ground_state(SolveConfig(autonomous=True, **grid))
        by_spec = solve_ground_state(
            SolveConfig(spec=NonlinearitySpec().autonomous(), autonomous=False, **grid)
        )
        assert by_flag.level == by_spec.level
        assert by_flag.iterations == by_spec.iterations


class TestCompareLevels:
    def test_zero_amplitude_matches_autonomous(self):
        spec = NonlinearitySpec(perturbation=Perturbation("gaussian", 0.0, 1.0))
        config = SolveConfig(alpha=0.75, spec=spec, residual_tol=1e-7)
        result = compare_levels(config)
        assert abs(result.c - result.c_bar) <= 1e-9
        assert not result.strict

    def test_active_perturbation_lowers_level(self):
        config = SolveConfig(alpha=0.75, residual_tol=1e-7)
        result = compare_levels(config)
        assert result.c < result.c_bar
        assert result.gap > 10 * config.residual_tol
        assert result.one_shot_strict
        assert result.one_shot_level < result.c_bar
