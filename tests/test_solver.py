import warnings
from collections import deque

import numpy as np
import pytest

from fracground import (
    InitSpec,
    NoPositivePartError,
    NonlinearitySpec,
    Perturbation,
    SolveConfig,
    SpectralField,
    compare_levels,
    eval_F,
    gaussian_field,
    make_grid,
    mountain_pass_path,
    solve_ground_state,
    vanishing_diagnostic,
)
from fracground import operators, solver as solver_module, variational as variational_module
from fracground.grid import field_to_csv
from fracground.variational import _best_translate, energy, gradient


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
            moved = vanishing_diagnostic(SpectralField(default_grid, np.roll(u.values, cells)), 1.0)
            assert moved.max_mass == pytest.approx(base.max_mass, rel=1e-12)
            expected = base.argmax_y + cells * default_grid.spacing
            assert moved.argmax_y == pytest.approx(expected)

    def test_window_smaller_than_cell_rejected(self, default_grid):
        u = gaussian_field(default_grid)
        with pytest.raises(ValueError, match="window radius"):
            vanishing_diagnostic(u, default_grid.spacing / 3)

    @pytest.mark.parametrize("radius", [np.nan, np.inf])
    def test_non_finite_window_rejected(self, default_grid, radius):
        with pytest.raises(ValueError, match="window radius"):
            vanishing_diagnostic(gaussian_field(default_grid), radius)


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
        # accepted energies never increase: a step must lower the energy strictly
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

    def test_offcentre_autonomous_start_stays_in_place(self):
        # with a = 0 translation is an exact symmetry of the box, which the
        # descent commutes with: the start at 20 solves as the centred one, moved
        common = dict(half_width=32.0, n_points=2048)
        centred = solve_ground_state(autonomous_config(**common))
        report = solve_ground_state(autonomous_config(init=InitSpec(center=20.0), **common))
        assert report.converged
        assert report.argmax_y == 20.0
        assert report.iterations == centred.iterations
        assert abs(report.level - centred.level) <= 1e-12 * centred.level
        moved = np.roll(centred.field.values, 640)
        assert np.max(np.abs(report.field.values - moved)) <= 1e-12

    def test_diagnostic_runs_once_for_the_report(self, monkeypatch):
        # on the result only, not on the start and not once per step
        calls = []

        def counted(u, r):
            calls.append(1)
            return vanishing_diagnostic(u, r)

        monkeypatch.setattr(solver_module, "vanishing_diagnostic", counted)
        report = solve_ground_state(autonomous_config(half_width=32.0, n_points=1024))
        assert report.converged and report.iterations > 2
        assert len(calls) == 1

    @pytest.mark.parametrize("autonomous, center", [(False, 0.0), (True, 0.0), (True, 20.0)])
    def test_start_amplitude_changes_neither_level_nor_location(self, autonomous, center):
        # the fiber scale reads u / 2^(e-1), where max(u) = m 2^e, so
        # ||u||_alpha^2 neither underflows nor overflows at these amplitudes
        common = dict(half_width=32.0, n_points=2048, autonomous=autonomous)
        base = solve_ground_state(SolveConfig(init=InitSpec(center=center), **common))
        assert base.converged
        for amplitude in (1e-200, 1e200):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                report = solve_ground_state(
                    SolveConfig(init=InitSpec(center=center, amplitude=amplitude), **common)
                )
            assert report.converged
            assert report.argmax_y == base.argmax_y
            assert abs(report.level - base.level) <= 1e-9 * base.level

    def test_no_positive_part_init(self):
        config = autonomous_config(init=InitSpec(amplitude=-1.0))
        with pytest.raises(NoPositivePartError):
            solve_ground_state(config)

    def test_unreachable_tolerance_diverges(self):
        # far below the attainable energy-decrease floor: the line search
        # must eventually underflow and return the report with that status
        config = autonomous_config(
            half_width=32.0, n_points=1024, residual_tol=1e-12, max_iters=4000
        )
        report = solve_ground_state(config)
        assert report.status == "step_underflow"
        assert not report.converged

    @pytest.mark.parametrize("autonomous", [False, True])
    def test_two_transforms_per_iteration(self, fft_calls, autonomous):
        # one rfft for f(u), one irfft for its resolvent image; field arithmetic,
        # the mixed iterate and projection make none.  The budgets stop short of
        # both convergence and the energy-resolution floor (11 iterations, a = 0)
        def transforms(max_iters):
            fft_calls.clear()
            report = solve_ground_state(
                SolveConfig(half_width=32.0, n_points=1024, residual_tol=1e-12,
                            max_iters=max_iters, autonomous=autonomous)
            )
            assert report.iterations == max_iters and not report.converged
            assert report.status == "max_iters"
            return len(fft_calls)

        counts = {k: transforms(k) for k in (2, 5, 8)}
        for j, k in [(2, 5), (5, 8), (2, 8)]:
            assert 0 < counts[k] - counts[j] <= 2 * (k - j)

    def test_a_trial_without_a_fiber_scale_halves_the_step(self, monkeypatch):
        # near p = 1 with a strong, wide bump a(t) the ground state is tiny (level
        # about 1e-182), while the narrow start projects to a field of peak about
        # 1e116.  The fiber scales of the first plain trials overflow, so their
        # projections raise; each such trial counts as no descent and halves the step
        raised = []
        real_project = solver_module.nehari_project

        def counted(*args):
            try:
                return real_project(*args)
            except NoPositivePartError:
                raised.append(1)
                raise

        monkeypatch.setattr(solver_module, "nehari_project", counted)
        spec = NonlinearitySpec(
            p=1.003, theta=2.003, p0=1.503, perturbation=Perturbation(amplitude=50.0, width=10.0)
        )
        config = SolveConfig(
            half_width=32.0, n_points=1024, alpha=0.9, spec=spec, init=InitSpec(width=0.05)
        )
        report = solve_ground_state(config)
        assert raised
        assert report.converged and report.iterations >= 1
        assert report.energy_history[-1] < report.energy_history[0]

    def test_a_trial_whose_projection_has_no_norm_halves_the_step(self, monkeypatch):
        # the same start under a narrower bump a(t): a trial's fiber scale is
        # finite, but sigma u is so small that its alpha-norm squared underflows
        # to 0.  Its projection raises NoPositivePartError, as a trial without a
        # fiber scale does, instead of dividing by the zero norm
        raised = []
        real_project = solver_module.nehari_project

        def recorded(*args):
            try:
                return real_project(*args)
            except NoPositivePartError as exc:
                raised.append(str(exc))
                raise

        monkeypatch.setattr(solver_module, "nehari_project", recorded)
        spec = NonlinearitySpec(p=1.003, theta=2.003, p0=1.503, perturbation=Perturbation(amplitude=50.0))
        config = SolveConfig(
            half_width=32.0, n_points=1024, alpha=0.9, spec=spec, init=InitSpec(width=0.05)
        )
        report = solve_ground_state(config)
        assert any("underflows" in text for text in raised)
        assert report.converged and report.iterations >= 1
        assert 0.0 < report.level < report.energy_history[0]

    def test_custom_init_round_trip(self, tmp_path):
        grid = make_grid(64.0, 4096)
        seed = gaussian_field(grid, width=1.7)
        path = tmp_path / "seed.csv"
        field_to_csv(seed, str(path))
        config = autonomous_config(init=InitSpec(path=str(path)))
        report = solve_ground_state(config)
        assert report.converged

    def test_custom_init_on_another_grid_rejected(self, tmp_path):
        path = tmp_path / "seed.csv"
        field_to_csv(gaussian_field(make_grid(64.0, 1024)), str(path))
        config = autonomous_config(init=InitSpec(path=str(path)))
        with pytest.raises(ValueError, match="does not match the run grid"):
            solve_ground_state(config)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="residual_tol"):
            SolveConfig(residual_tol=1e-13)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="residual_tol"):
                SolveConfig(residual_tol=bad)
        with pytest.raises(ValueError, match="alpha"):
            SolveConfig(alpha=0.4)
        with pytest.raises(ValueError, match="alpha"):
            SolveConfig(alpha=1.2)

    def test_empty_iteration_budget_rejected(self):
        with pytest.raises(ValueError, match="max_iters"):
            SolveConfig(max_iters=0)

    def test_coarse_grid_rejected_before_descent(self, monkeypatch):
        # the mass window spans at least one cell: a grid coarser than its radius
        # is refused before any projection, not when the report is made
        def no_descent(*args, **kwargs):
            pytest.fail("the solve started")

        monkeypatch.setattr(solver_module, "nehari_project", no_descent)
        with pytest.raises(ValueError, match="window radius"):
            solve_ground_state(SolveConfig(half_width=64.0, n_points=64))


class TestMixing:
    @pytest.mark.parametrize("center", [0.0, 1.2])
    @pytest.mark.parametrize("autonomous", [False, True])
    @pytest.mark.parametrize("alpha", [0.6, 0.75, 0.9, 1.0])
    def test_iteration_budget_and_strict_decrease(self, alpha, autonomous, center):
        # the plain Petviashvili iteration took 19 to 39 iterations on these starts
        report = solve_ground_state(
            SolveConfig(alpha=alpha, autonomous=autonomous, init=InitSpec(center=center))
        )
        assert report.converged
        assert report.iterations <= 15
        assert np.all(np.diff(report.energy_history) < 0.0)

    @staticmethod
    def _triple(u, spec):
        # what the descent keeps of an iterate: g, u - g and the spectrum of u - g as float pairs
        g = gradient(u, spec, 0.75).precond_gradient
        return g.values, u.values - g.values, (u.spectrum - g.spectrum).view(np.float64)

    @staticmethod
    def _diff(new, old):
        return tuple(a - b for a, b in zip(new, old))

    def test_singular_history_falls_back(self, small_grid):
        # the same iterate twice leaves a zero gradient difference: the Gram
        # system is singular, so there is no mixed iterate and no error
        spec = NonlinearitySpec()
        first = self._triple(gaussian_field(small_grid), spec)
        second = self._triple(gaussian_field(small_grid, width=1.5), spec)
        diffs = deque([self._diff(second, first), self._diff(second, second)], maxlen=3)
        assert solver_module._mixed_iterate(small_grid, second, diffs) is None
        assert solver_module._mixed_iterate(small_grid, second, deque(maxlen=3)) is None

    def test_clear_restarts_the_history(self, small_grid):
        # after a fallback, only the differences recorded since the clear are
        # mixed: a cleared deque given one difference mixes as a fresh one
        spec = NonlinearitySpec()
        triples = [self._triple(gaussian_field(small_grid, width=w), spec) for w in (1.5, 1.8, 2.1, 2.4)]
        restarted = deque((self._diff(b, a) for a, b in zip(triples[:2], triples[1:3])), maxlen=3)
        restarted.clear()
        restarted.append(self._diff(triples[3], triples[2]))
        fresh = deque([self._diff(triples[3], triples[2])], maxlen=3)
        mixed = [solver_module._mixed_iterate(small_grid, triples[3], d) for d in (restarted, fresh)]
        assert np.array_equal(mixed[0].values, mixed[1].values)
        assert np.array_equal(mixed[0].spectrum, mixed[1].spectrum)
        # the one-difference fit differs from the fit over the uncleared history
        full = deque((self._diff(b, a) for a, b in zip(triples, triples[1:])), maxlen=3)
        longer = solver_module._mixed_iterate(small_grid, triples[3], full)
        assert not np.array_equal(longer.values, mixed[0].values)


class TestTranslationSearch:
    @pytest.mark.parametrize("center", [0.3, 0.7, 1.5])
    def test_shift_centres_the_bump(self, default_grid, center):
        # a(t) is a Gaussian bump at 0, so the best translate of a Gaussian centres it
        u = gaussian_field(default_grid, center=center)
        moved, shift = _best_translate(u, NonlinearitySpec())
        assert abs(shift + center) <= 1e-6
        assert np.max(np.abs(moved.values - gaussian_field(default_grid).values)) <= 1e-6

    @pytest.mark.parametrize("autonomous, amplitude", [(True, 0.5), (False, 0.0), (False, 1e-17)])
    def test_a_zero_returns_the_input(self, autonomous, amplitude):
        # the flag, amplitude 0 and an amplitude that rounds away on the grid
        # are one a = 0 problem: every translate has the same energy, so none is taken
        spec = NonlinearitySpec(perturbation=Perturbation(amplitude=amplitude))
        config = SolveConfig(half_width=32.0, n_points=1024, spec=spec, autonomous=autonomous)
        u = gaussian_field(config.grid(), center=5.0)
        moved, shift = _best_translate(u, config.nonlinearity())
        assert moved is u and shift == 0.0

    def test_an_overflowed_potential_ends_the_search(self, monkeypatch):
        # at p = 4027 this narrow start off the nodes peaks above its largest
        # sample once shifted between nodes, so J overflows to inf there; the
        # vertex after it is NaN and ends the search, with no RuntimeWarning
        potentials = []
        real_potential = variational_module._potential

        def recorded(*args):
            potentials.append(real_potential(*args))
            return potentials[-1]

        monkeypatch.setattr(variational_module, "_potential", recorded)
        spec = NonlinearitySpec(p=4027.0, theta=4028.0, p0=4028.0)
        config = SolveConfig(
            half_width=32.0, n_points=1024, spec=spec, init=InitSpec(center=0.783, width=0.0345)
        )
        report = solve_ground_state(config)
        assert potentials[-1] == np.inf and len(potentials) < variational_module._TRANSLATE_EVALS
        assert report.converged

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

    @pytest.mark.parametrize(
        "alpha, amplitude, autonomous",
        [(0.6, 1.0, True), (0.75, 0.05, False), (0.9, 2.0, True), (1.0, 1e-7, False)],
    )
    def test_seed_energies_follow_from_the_endpoint(self, alpha, amplitude, autonomous):
        # one energy call on the endpoint gives every seed node by homogeneity
        config = SolveConfig(
            half_width=32.0, n_points=1024, alpha=alpha, autonomous=autonomous,
            init=InitSpec(amplitude=amplitude),
        )
        report = mountain_pass_path(config, n_nodes=9, n_deform=0)
        endpoint = report.endpoint_scale * config.init.build(config.grid())
        for lam, seeded in zip(np.linspace(0.0, 1.0, 9), report.initial_node_energies):
            part = energy(lam * endpoint, config.nonlinearity(), alpha)
            assert abs(seeded - part.total) <= 1e-14 * (part.quadratic + part.potential)

    def test_path_max_bounds_level_after_short_run(self):
        config = autonomous_config()
        solve = solve_ground_state(config)
        report = mountain_pass_path(config, n_nodes=17, n_deform=30)
        assert report.path_max_energy >= solve.level - 1e-6
        # 30 sweeps already lands well inside the 2% band at this order
        assert report.path_max_energy <= 1.02 * solve.level

    @pytest.mark.parametrize("n_nodes, n_deform, match", [(4, 0, "5 path nodes"), (5, -1, "sweep count")])
    def test_path_shape_rejected(self, n_nodes, n_deform, match):
        with pytest.raises(ValueError, match=match):
            mountain_pass_path(autonomous_config(), n_nodes=n_nodes, n_deform=n_deform)

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

    def test_sweep_max_and_segments_searched(self):
        config = SolveConfig(half_width=32.0, n_points=1024, autonomous=True)
        for n_deform in (0, 3):
            report = mountain_pass_path(config, n_nodes=9, n_deform=n_deform)
            assert len(report.sweep_max) == n_deform + 1
            assert report.sweep_max[0] == max(report.initial_node_energies)
            assert report.sweep_max[-1] == max(report.node_energies)
            assert 1 <= report.segments_searched <= 9 - 1

    @pytest.mark.parametrize("autonomous", [False, True])
    def test_pruned_search_equals_all_segments(self, monkeypatch, autonomous):
        config = SolveConfig(half_width=32.0, n_points=1024, autonomous=autonomous)
        pruned = mountain_pass_path(config, n_nodes=17, n_deform=5)
        true_bounds = solver_module._segment_bounds

        def run(loosen):
            # raising a bound keeps it a bound, so the maximum must not move
            def loosened(*args):
                return loosen(true_bounds(*args))

            monkeypatch.setattr(solver_module, "_segment_bounds", loosened)
            return mountain_pass_path(config, n_nodes=17, n_deform=5)

        every = run(lambda b: np.full_like(b, np.inf))
        origin_first = run(lambda b: np.where(np.arange(b.size) == 0, np.inf, b))
        assert every.segments_searched == 16
        assert pruned.segments_searched < 16
        assert pruned.path_max_energy == every.path_max_energy
        assert origin_first.path_max_energy == every.path_max_energy

    @pytest.mark.parametrize("amplitude", [1e-12, 0.05, 1.0, 50.0])
    def test_endpoint_is_the_least_power_of_two_past_zero(self, amplitude):
        # computed from the ray's closed form, with no cap either way: 1e-12 needs
        # 2^42, and 50.0 needs 2^-4
        config = autonomous_config(
            half_width=32.0, n_points=1024, init=InitSpec(amplitude=amplitude, width=0.5)
        )
        scale = mountain_pass_path(config, n_nodes=5, n_deform=0).endpoint_scale
        assert np.frexp(scale)[0] == 0.5
        u, spec = config.init.build(config.grid()), config.nonlinearity()
        assert energy(scale * u, spec, config.alpha).total < 0.0
        assert energy(0.5 * scale * u, spec, config.alpha).total >= 0.0

    def test_an_overflowing_start_bounds_the_level(self):
        # the start's potential overflows at amplitude 1e80; scaled down to its
        # endpoint, the path runs every sweep and its max stays an upper bound
        config = autonomous_config(half_width=32.0, n_points=1024, init=InitSpec(amplitude=1e80))
        level = solve_ground_state(config).level
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = mountain_pass_path(config, n_nodes=17, n_deform=20)
        assert report.endpoint_scale < 1.0
        assert report.path_max_energy >= level

    @pytest.mark.parametrize("alpha, autonomous", [(0.6, True), (0.75, False), (0.9, True)])
    def test_path_max_resolves_the_level(self, alpha, autonomous):
        # the min-max level equals the Nehari level, so a resolved segment
        # maximum reaches it to rounding once the path has settled
        config = SolveConfig(
            half_width=32.0, n_points=1024, alpha=alpha, autonomous=autonomous, residual_tol=5e-8
        )
        level = solve_ground_state(config).level
        report = mountain_pass_path(config, n_nodes=17, n_deform=80)
        assert abs(report.path_max_energy - level) <= 1e-12 * level


    @pytest.mark.parametrize(
        "alpha, autonomous, parent_max",
        [(0.6, True, 1.3198431718087158), (0.75, False, 0.9432572814801902), (0.9, True, 1.3454007964578225)],
        ids=["0.6-autonomous", "0.75-perturbed", "0.9-autonomous"],
    )
    def test_path_max_matches_recomputed_energies(self, alpha, autonomous, parent_max):
        # maxima of the sweep that recomputed every node's energy by ``energy``;
        # carried norms and potentials must reach the same path to rounding
        config = SolveConfig(half_width=32.0, n_points=1024, alpha=alpha, autonomous=autonomous)
        report = mountain_pass_path(config, n_nodes=17, n_deform=30)
        assert abs(report.path_max_energy - parent_max) <= 1e-12 * parent_max

    def test_relax_give_ups_per_sweep(self):
        config = SolveConfig(half_width=32.0, n_points=1024, autonomous=True)
        for n_deform in (0, 4):
            report = mountain_pass_path(config, n_nodes=9, n_deform=n_deform)
            assert len(report.relax_give_ups) == report.sweeps == n_deform
            assert report.stop == "max_sweeps"
            assert all(isinstance(n, int) and n >= 0 for n in report.relax_give_ups)

    def test_every_relax_gives_up_when_no_step_lowers_the_energy(self, monkeypatch):
        # a potential of -inf makes every trial energy +inf, which is never lower
        calls = []
        real_gradient = solver_module.gradient

        def counted(*args):
            calls.append(1)
            return real_gradient(*args)

        monkeypatch.setattr(solver_module, "gradient", counted)
        monkeypatch.setattr(solver_module, "_potential", lambda *args: -np.inf)
        config = SolveConfig(half_width=32.0, n_points=1024, autonomous=True)
        report = mountain_pass_path(config, n_nodes=9, n_deform=3)
        assert len(report.relax_give_ups) == 3
        assert all(n > 0 for n in report.relax_give_ups)
        assert sum(report.relax_give_ups) == len(calls)
        # after the first sweep every interior node reads +inf and is relaxed, the top one 3 times
        assert report.relax_give_ups[1:] == [3 + 7, 3 + 7]

    def test_default_cell_stalls_before_its_sweep_cap(self):
        # criterion 6's cell: the default grid and 33 nodes x 200 sweeps at alpha = 0.75, a = 0
        config = autonomous_config()
        level = solve_ground_state(config).level
        report = mountain_pass_path(config, n_nodes=33, n_deform=200)
        assert report.stop == "stalled" and report.sweeps < 200
        assert len(report.relax_give_ups) == report.sweeps == len(report.sweep_max) - 1
        # it ends at the first sweep that moved sweep_max by at most 1e-10 of it
        moves = [abs(b - a) / abs(b) for a, b in zip(report.sweep_max, report.sweep_max[1:])]
        assert moves[-1] <= solver_module._STALL_RTOL < min(moves[:-1])
        assert level - 1e-6 <= report.path_max_energy <= 1.02 * level

    @pytest.mark.parametrize("alpha", [0.6, 0.75, 0.9])
    @pytest.mark.parametrize("autonomous", [True, False])
    def test_bench_cells_run_every_sweep(self, alpha, autonomous):
        # the mountain_pass benchmark's grid and path (33 nodes x 25 sweeps) at the
        # narrow, low corner of its start range, where sweep_max moves least: every
        # sweep still moves it by over a thousand times the stall rule, so the
        # benchmark's tasks run all their sweeps
        config = SolveConfig(alpha=alpha, autonomous=autonomous, init=InitSpec(width=1.0, amplitude=0.5))
        report = mountain_pass_path(config, n_nodes=33, n_deform=25)
        assert report.stop == "max_sweeps" and report.sweeps == 25
        sweep_max = np.array(report.sweep_max)
        moves = np.abs(np.diff(sweep_max)) / np.abs(sweep_max[1:])
        assert np.min(moves) > 1e3 * solver_module._STALL_RTOL

    @pytest.mark.parametrize("p", [1.01, 1.1])
    def test_near_one_p_stops_collapsed_or_reaches_the_level(self, p):
        # at p = 1.01 the endpoint scale is 2^26: after three sweeps every interior
        # node is at or below zero energy, the top node is node 0, and the
        # deformation ends with the path max still an upper bound far above the
        # level; at p = 1.1 all 200 sweeps run and the path max meets the level
        spec = NonlinearitySpec(p=p, theta=p + 1.0, p0=p + 0.5)
        config = SolveConfig(half_width=32.0, n_points=1024, autonomous=True, spec=spec)
        level = solve_ground_state(config).level
        report = mountain_pass_path(config, n_nodes=33, n_deform=200)
        assert len(report.relax_give_ups) == report.sweeps == len(report.sweep_max) - 1
        assert report.path_max_energy >= level
        if p == 1.01:
            assert report.stop == "collapsed" and report.sweeps == 3
            assert report.sweep_max[-1] == max(report.node_energies) == 0.0
            assert report.path_max_energy > 1e8
        else:
            assert report.stop == "max_sweeps" and report.sweeps == 200
            assert report.path_max_energy - level <= 1e-7 * level


class TestAutonomy:
    def test_nonlinearity_resolves_the_spec(self):
        spec = NonlinearitySpec(p=2.5, theta=3.5, p0=3.0)
        assert SolveConfig(spec=spec).nonlinearity() is spec
        resolved = SolveConfig(spec=spec, autonomous=True).nonlinearity()
        assert resolved.perturbation.amplitude == 0.0
        assert (resolved.p, resolved.theta, resolved.p0) == (spec.p, spec.theta, spec.p0)

    def test_flag_equals_autonomous_spec(self):
        # autonomy is nothing but the a = 0 spec
        grid = dict(half_width=32.0, n_points=1024)
        by_flag = solve_ground_state(SolveConfig(autonomous=True, **grid))
        by_spec = solve_ground_state(
            SolveConfig(spec=NonlinearitySpec().autonomous(), autonomous=False, **grid)
        )
        assert by_flag.level == by_spec.level
        assert by_flag.iterations == by_spec.iterations

    def test_far_start_is_the_same_under_either_spelling(self):
        # autonomous=True and an amplitude that is 0 or rounds away on the grid
        # (1 + a(t) == 1 at every node) are the same a = 0 problem: none moves the start
        common = dict(half_width=32.0, n_points=2048, init=InitSpec(center=20.0))
        by_flag = solve_ground_state(SolveConfig(autonomous=True, **common))
        assert by_flag.argmax_y == 20.0
        for amplitude in (0.0, 1e-17):
            spec = NonlinearitySpec(perturbation=Perturbation(amplitude=amplitude))
            by_spec = solve_ground_state(SolveConfig(spec=spec, **common))
            assert by_spec.argmax_y == 20.0
            assert (by_spec.level, by_spec.iterations) == (by_flag.level, by_flag.iterations)
            assert np.array_equal(by_flag.field.values, by_spec.field.values)


class TestCompareLevels:
    def test_first_order_gap_law(self):
        # a = eps a1 gives c = c_bar - eps S + O(eps^2), S = max_y h sum a1(t) F_bar(Q(t - y))
        results = {}
        for eps in (1e-2, 1e-3):
            spec = NonlinearitySpec(perturbation=Perturbation(amplitude=eps))
            results[eps] = compare_levels(SolveConfig(alpha=0.75, spec=spec))
        ground = results[1e-3].autonomous.field
        grid = ground.grid
        a1 = Perturbation(amplitude=1.0).weight(grid.nodes)
        f_bar = eval_F(NonlinearitySpec().autonomous(), grid, ground.values)
        translates = [grid.spacing * np.sum(a1 * np.roll(f_bar, k)) for k in range(-8, 9)]
        slope = translates[8]
        assert slope == max(translates)
        deviation = {eps: abs((r.c_bar - r.c) / eps - slope) / slope for eps, r in results.items()}
        assert deviation[1e-3] <= 2e-3
        assert 9.0 <= deviation[1e-2] / deviation[1e-3] <= 11.0
        for eps, r in results.items():
            assert r.one_shot_level - r.c <= 0.1 * eps ** 2

    def test_zero_amplitude_matches_autonomous(self):
        spec = NonlinearitySpec(perturbation=Perturbation("gaussian", 0.0, 1.0))
        config = SolveConfig(alpha=0.75, spec=spec, residual_tol=1e-7)
        result = compare_levels(config)
        assert abs(result.c - result.c_bar) <= 1e-9
        assert not result.strict
        # the one-shot level is c_bar up to rounding, no bound below it
        assert not result.one_shot_strict

    def test_active_perturbation_lowers_level(self):
        config = SolveConfig(alpha=0.75, residual_tol=1e-7)
        result = compare_levels(config)
        assert result.c < result.c_bar
        assert result.gap > 10 * config.residual_tol
        assert result.one_shot_strict
        assert result.one_shot_level < result.c_bar

    @pytest.mark.parametrize("center", [0.0, 3.0, -7.0, 20.0])
    def test_one_shot_is_near_c_from_any_start(self, center):
        # the one-shot field is the autonomous ground state's best translate,
        # wherever the autonomous solve left it
        config = SolveConfig(half_width=32.0, n_points=1024, init=InitSpec(center=center))
        result = compare_levels(config)
        assert result.one_shot_level - result.c <= 0.01 * result.c
        assert result.one_shot_strict


class TestBoxLevel:
    """The level is that of the box [-L, L): Q decays like |t|^-(1 + 2 alpha), so the
    box error falls like L^-(1 + 2 alpha) (Frank & Lenzmann, Acta Math. 210, 2013)."""

    @staticmethod
    def box_levels(half_widths, **kwargs):
        # h = 1/32 on every box
        return [
            solve_ground_state(
                autonomous_config(half_width=L, n_points=int(64 * L), residual_tol=5e-8, **kwargs)
            ).level
            for L in half_widths
        ]

    @pytest.mark.parametrize("alpha", [0.6, 0.75, 0.9])
    def test_level_error_falls_like_a_power_of_the_box(self, alpha):
        c32, c64, c128 = self.box_levels((32.0, 64.0, 128.0), alpha=alpha)
        ratio = (c32 - c64) / (c64 - c128)
        assert abs(ratio / 2.0 ** (1.0 + 2.0 * alpha) - 1.0) <= 0.02

    def test_benjamin_ono_level_extrapolates_to_pi_over_2(self, monkeypatch):
        # |D|Q + Q = Q^2 is solved by Q = 2 / (1 + t^2), of level pi/2 (Benjamin 1967;
        # Ono 1975); alpha = 1/2 is admitted here only
        _, closed, text = operators._ORDER_RANGES["variational"]
        monkeypatch.setitem(operators._ORDER_RANGES, "variational", (0.25, closed, text))
        c32, c64 = self.box_levels(
            (32.0, 64.0),
            alpha=0.5,
            spec=NonlinearitySpec(p=2.0, theta=3.0, p0=2.5),
            init=InitSpec(width=1.0, amplitude=2.0),
        )
        # the box error falls like L^-2 at alpha = 1/2: one Richardson step
        assert abs((4.0 * c64 - c32) / 3.0 - np.pi / 2.0) <= 1e-12
