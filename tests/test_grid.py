import threading
import time
import warnings

import numpy as np
import pytest

from fracground import (
    SolveConfig,
    SpectralField,
    field_from_csv,
    field_to_csv,
    gaussian_field,
    gl_oracle,
    inner,
    lp_norm,
    make_grid,
    solve_ground_state,
    spectral_l2_norm,
    translate,
)
from fracground import grid as grid_module
from fracground.checks import random_band_limited_field
from fracground.grid import Grid1D, _run_pair, values_from_spectrum
from fracground.operators import h_alpha_norm_sq, multiplier_symbol


class TestMakeGrid:
    def test_pi_domain_layout(self):
        grid = make_grid(np.pi, 16)
        assert grid.spacing == 2 * np.pi / 16
        # with L = pi the angular frequencies are the integers 0..8
        assert np.allclose(grid.frequencies, np.arange(9), atol=1e-14)
        assert grid.frequencies[0] == 0.0

    def test_default_spacing(self):
        grid = make_grid(64, 4096)
        assert grid.spacing == 0.03125
        assert grid.spacing * grid.n_points == 2 * grid.half_width

    def test_frequencies_are_pi_k_over_l(self):
        grid = make_grid(5.0, 64)
        k = np.arange(grid.nyquist_index + 1)
        assert grid.frequencies.shape == k.shape
        assert np.allclose(grid.frequencies, np.pi * k / 5.0, rtol=1e-15, atol=0.0)
        assert grid.frequencies[-1] > 0  # the Nyquist frequency is +pi N / (2L)

    @pytest.mark.parametrize(
        "half_width, n_points",
        [(np.pi, 16), (5.0, 64), (50.0, 1000), (64.0, 4096), (1024.0, 2 ** 18 + 2), (0.3, 2 ** 21)],
    )
    def test_frequencies_are_the_bits_of_rfftfreq(self, half_width, n_points):
        grid = make_grid(half_width, n_points)
        expected = np.fft.rfftfreq(n_points, grid.spacing) * (2.0 * np.pi)
        assert grid.frequencies.tobytes() == expected.tobytes()

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

    def test_grids_are_equal_and_hashed_by_l_and_n(self):
        first, second = make_grid(8.0, 64), make_grid(8.0, 64)
        assert first is not second
        assert first == second and not first != second
        assert hash(first) == hash(second)
        assert len({first, second}) == 1
        assert make_grid(8.0, 128) != first
        assert make_grid(4.0, 64) != first
        assert make_grid(8.0, 64) != "grid"

    def test_the_tables_follow_from_l_and_n_alone(self):
        # no spacing or frequencies can be handed in, so no grid equal to
        # make_grid(64, 4096) can hold other tables and poison the caches keyed on it
        with pytest.raises(TypeError):
            Grid1D(64.0, 4096, 1.0, np.zeros(2049))
        grid = Grid1D(64.0, 4096)
        assert grid == make_grid(64, 4096)
        assert grid.spacing == 2.0 * 64.0 / 4096
        expected = 2.0 * np.pi * np.fft.rfftfreq(4096, d=grid.spacing)
        assert grid.frequencies.tobytes() == expected.tobytes()
        assert not grid.frequencies.flags.writeable
        composed = multiplier_symbol(make_grid(64.0, 4096), 0.75, "composed")
        assert np.array_equal(composed, grid.frequencies ** 1.5)

    @pytest.mark.parametrize(
        "half_width, n_points, match",
        [
            (np.inf, 64, "positive"), (np.nan, 64, "positive"), (0.0, 64, "positive"),
            (1.0, 19, "even"), (1.0, 8, ">= 16"),
        ],
    )
    def test_the_constructor_checks_l_and_n(self, half_width, n_points, match):
        with pytest.raises(ValueError, match=match):
            Grid1D(half_width, n_points)

    @pytest.mark.parametrize("half_width, n_points", [(256.0, 2 ** 16), (50.0, 1000)])
    def test_nodes_are_made_on_first_read(self, half_width, n_points):
        grid, twin = make_grid(half_width, n_points), make_grid(half_width, n_points)
        assert "nodes" not in grid.__dict__
        key = hash(grid)
        nodes = grid.nodes
        assert grid.nodes is nodes and not nodes.flags.writeable
        expected = -half_width + grid.spacing * np.arange(n_points)
        assert nodes.tobytes() == expected.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            nodes[0] = 0.0
        # reading the nodes changes neither equality nor the hash
        assert hash(grid) == key == hash(twin)
        assert grid == twin and len({grid, twin}) == 1


class TestTransform:
    def test_pure_mode_spectrum_support(self, small_grid):
        k0 = 7
        w0 = np.pi * k0 / small_grid.half_width
        u = SpectralField.from_values(small_grid, np.cos(w0 * small_grid.nodes))
        mags = np.abs(u.spectrum)
        hot = np.nonzero(mags > 1e-8 * mags.max())[0]
        assert set(hot) == {k0}

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
        back, _ = values_from_spectrum(default_grid, u.spectrum)
        rel = np.max(np.abs(back - u.values)) / np.max(np.abs(u.values))
        assert rel < 1e-12
        # the phase exp(i w_k L) is exactly (-1)^k and the spectrum holds k <= N/2
        signs = (-1.0) ** np.arange(default_grid.nyquist_index + 1)
        expected = default_grid.spacing * (signs * np.fft.rfft(u.values))
        assert np.array_equal(SpectralField.from_values(default_grid, u.values).spectrum, expected)

    def test_values_and_residue_match_the_complex_inverse(self, default_grid, rng):
        u = random_band_limited_field(default_grid, rng)
        n, m, h = default_grid.n_points, default_grid.nyquist_index, default_grid.spacing
        size = np.max(np.abs(u.spectrum))
        # an interior mode stands for itself and its mirror; modes 0 and N/2 only for themselves
        kicks = {7: 1e-3 * (1.0 + 2.0j) * size, 0: 3e-4j * size, m: -5e-4j * size}
        spectrum = u.spectrum.copy()
        signs = (-1.0) ** np.arange(n)
        full = h * signs * np.fft.fft(u.values)
        for k, kick in kicks.items():
            spectrum[k] += kick
            full[k] += kick
            if 0 < k < m:
                full[n - k] += np.conj(kick)
        values, imag_l2 = values_from_spectrum(default_grid, spectrum)
        complex_values = np.fft.ifft(signs * full / h)
        expected_imag = np.sqrt(default_grid.spacing * np.sum(complex_values.imag ** 2))
        assert np.max(np.abs(values - complex_values.real)) <= 1e-15 * np.max(np.abs(values))
        assert abs(imag_l2 - expected_imag) <= 1e-12 * expected_imag

    def test_full_length_spectrum_rejected(self, small_grid, rng):
        u = random_band_limited_field(small_grid, rng)
        full = np.concatenate((u.spectrum, np.conj(u.spectrum[-2:0:-1])))
        assert full.shape == (small_grid.n_points,)
        with pytest.raises(ValueError, match="shape"):
            values_from_spectrum(small_grid, full)

    def test_plancherel(self, default_grid, rng):
        u = random_band_limited_field(default_grid, rng)
        l2 = lp_norm(u, 2)
        assert abs(l2 - spectral_l2_norm(u)) < 1e-12 * l2

    @pytest.mark.parametrize("kind", ["noise", "zero_and_nyquist"])
    def test_plancherel_counts_modes_zero_and_nyquist_once(self, default_grid, rng, kind):
        # white noise fills every mode; (-1)^j + 0.5 fills only modes 0 and N/2
        n = default_grid.n_points
        values = rng.standard_normal(n) if kind == "noise" else (-1.0) ** np.arange(n) + 0.5
        u = SpectralField.from_values(default_grid, values)
        l2 = lp_norm(u, 2)
        assert abs(l2 - spectral_l2_norm(u)) < 1e-12 * l2

    def test_nonfinite_rejected(self, small_grid):
        vals = np.zeros(small_grid.n_points)
        vals[3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            SpectralField.from_values(small_grid, vals)


class TestLazySpectrum:
    @pytest.fixture
    def rfft_calls(self, monkeypatch):
        """A list that grows by one on every numpy.fft.rfft call."""
        calls = []
        original = np.fft.rfft

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", counted)
        return calls

    def test_spectrum_is_made_on_first_read_and_kept(self, default_grid, rfft_calls):
        values = np.exp(-((default_grid.nodes - 3.0) ** 2))
        u = SpectralField.from_values(default_grid, values)
        assert rfft_calls == []
        first = u.spectrum
        assert len(rfft_calls) == 1
        second = u.spectrum
        assert second is first and not first.flags.writeable
        # a field built from a spectrum transforms nothing either
        translate(u, 0.5)
        assert len(rfft_calls) == 1
        signs = (-1.0) ** np.arange(default_grid.nyquist_index + 1)
        assert np.array_equal(first, default_grid.spacing * (signs * np.fft.rfft(values)))

    def test_oracle_transforms_neither_its_input_nor_its_output(self, default_grid, rfft_calls):
        u = gaussian_field(default_grid, width=1.0)
        out = gl_oracle(u, 0.7, "left")
        in_oracle = len(rfft_calls)  # the convolution's own transforms
        _ = out.spectrum, u.spectrum  # each first read makes one transform
        assert len(rfft_calls) == in_oracle + 2


def _single_call(grid, values):
    """The calibrated spectrum by one rfft and the values back by one irfft."""
    signs = (-1.0) ** np.arange(grid.nyquist_index + 1)
    spectrum = grid.spacing * (signs * np.fft.rfft(values))
    scaled = spectrum / grid.spacing
    scaled[1::2] *= -1.0
    return spectrum, np.fft.irfft(scaled, grid.n_points)


class TestSplitTransforms:
    """From SPLIT_TRANSFORM_MIN_LENGTH points, when 4 divides N, each transform is two halves on two threads."""

    @pytest.mark.parametrize("n_points", [2 ** 18, 2 ** 19])
    def test_split_transforms_match_the_single_calls(self, rng, n_points):
        grid = make_grid(1024.0, n_points)
        values = rng.standard_normal(n_points)  # white noise fills every mode
        spectrum, back = _single_call(grid, values)
        split = SpectralField.from_values(grid, values).spectrum
        assert np.max(np.abs(split - spectrum)) <= 2e-15 * np.max(np.abs(spectrum))
        split_back, imag_l2 = values_from_spectrum(grid, spectrum)
        assert np.max(np.abs(split_back - back)) <= 2e-15 * np.max(np.abs(back))
        assert imag_l2 == 0.0

    def test_split_inverse_drops_the_imaginary_parts_of_modes_zero_and_nyquist(self, rng, monkeypatch):
        grid = make_grid(1024.0, 2 ** 18)
        m = grid.nyquist_index
        spectrum = SpectralField.from_values(grid, rng.standard_normal(grid.n_points)).spectrum.copy()
        plain, _ = values_from_spectrum(grid, spectrum)
        spectrum[0] += 3e-4j * np.max(np.abs(spectrum))
        spectrum[m] -= 5e-4j * np.max(np.abs(spectrum))
        values, imag_l2 = values_from_spectrum(grid, spectrum)
        assert np.array_equal(values, plain)
        monkeypatch.setattr(grid_module, "SPLIT_TRANSFORM_MIN_LENGTH", 2 * grid.n_points)
        single, single_imag_l2 = values_from_spectrum(grid, spectrum)
        assert imag_l2 == single_imag_l2 > 0.0
        assert np.max(np.abs(values - single)) <= 2e-15 * np.max(np.abs(single))

    def test_length_not_divisible_by_four_takes_the_single_calls_bit_for_bit(self, rng):
        grid = make_grid(1024.0, 2 ** 18 + 2)
        values = rng.standard_normal(grid.n_points)
        spectrum, back = _single_call(grid, values)
        assert np.array_equal(SpectralField.from_values(grid, values).spectrum, spectrum)
        assert np.array_equal(values_from_spectrum(grid, spectrum)[0], back)

    def test_split_inverse_is_the_interleave_of_its_two_rows(self, rng, monkeypatch):
        # the half inverses write the rows of one (2, N/2) array; the values are
        # its transpose flattened, bit for bit
        grid = make_grid(1024.0, 2 ** 18)
        spectrum = SpectralField.from_values(grid, rng.standard_normal(grid.n_points)).spectrum
        rows, original = [], np.fft.irfft

        def irfft(*args, out=None, **kwargs):
            rows.append(out)
            return original(*args, out=out, **kwargs)

        monkeypatch.setattr(np.fft, "irfft", irfft)
        values, _ = values_from_spectrum(grid, spectrum)
        samples = rows[0].base
        assert len(rows) == 2 and rows[1].base is samples and samples.shape == (2, grid.n_points // 2)
        assert values.tobytes() == samples.T.reshape(-1).tobytes()

    def test_two_calls_give_the_same_bits(self, rng):
        grid = make_grid(1024.0, 2 ** 18)
        values = rng.standard_normal(grid.n_points)
        first = SpectralField.from_values(grid, values).spectrum
        second = SpectralField.from_values(grid, values).spectrum
        assert np.array_equal(first, second)
        assert np.array_equal(values_from_spectrum(grid, first)[0], values_from_spectrum(grid, second)[0])

    def test_a_transform_error_on_the_worker_reaches_the_caller(self, rng, monkeypatch):
        caller, original = threading.get_ident(), np.fft.rfft

        def rfft(*args, **kwargs):
            if threading.get_ident() != caller:
                raise FloatingPointError("worker transform")
            return original(*args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", rfft)
        u = SpectralField.from_values(make_grid(1024.0, 2 ** 18), rng.standard_normal(2 ** 18))
        before = set(threading.enumerate())
        with pytest.raises(FloatingPointError, match="worker transform"):
            u.spectrum
        assert set(threading.enumerate()) == before


class TestRunPair:
    def test_the_second_callable_runs_on_another_thread(self):
        here, there = _run_pair(threading.get_ident, threading.get_ident)
        assert here == threading.get_ident() != there

    def test_a_worker_error_is_raised_in_the_caller_and_no_thread_outlives_the_call(self):
        def fail():
            raise KeyError("worker")

        before = set(threading.enumerate())
        with pytest.raises(KeyError, match="worker"):
            _run_pair(lambda: None, fail)
        assert set(threading.enumerate()) == before

    def test_the_callers_error_waits_for_the_worker(self):
        finished = threading.Event()

        def slow():
            time.sleep(0.05)
            finished.set()

        def fail():
            raise ValueError("caller")

        before = set(threading.enumerate())
        with pytest.raises(ValueError, match="caller"):
            _run_pair(fail, slow)
        assert finished.is_set()
        assert set(threading.enumerate()) == before


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

    @pytest.mark.parametrize("p", [1.0, 1.9, 0.5, np.nan, -np.inf])
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

    def test_inner_product(self, small_grid):
        u = gaussian_field(small_grid, width=1.0)
        assert abs(inner(u, u) - lp_norm(u, 2) ** 2) < 1e-14

    def test_gaussian_below_the_spacing_is_one_node(self, small_grid):
        # (t - c)^2 / (2 width^2) overflows off the centre node, where exp(-inf) = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u = gaussian_field(small_grid, width=1e-160, amplitude=3.0)
        centre = small_grid.nodes == 0.0
        assert np.count_nonzero(centre) == 1
        assert np.all(u.values[centre] == 3.0) and np.all(u.values[~centre] == 0.0)


class TestTranslate:
    def test_nyquist_mode_is_scaled_by_its_cosine(self, small_grid):
        nyquist = (-1.0) ** np.arange(small_grid.n_points)
        u = SpectralField.from_values(small_grid, nyquist)
        shift = 0.3
        factor = np.cos(small_grid.frequencies[-1] * shift)
        assert np.max(np.abs(translate(u, shift).values - factor * nyquist)) <= 1e-12

    @pytest.mark.parametrize("cells", [1, -7, 100, 511, -512])
    def test_whole_cells_match_np_roll(self, small_grid, rng, cells):
        u = random_band_limited_field(small_grid, rng)
        moved = translate(u, cells * small_grid.spacing)
        assert np.max(np.abs(moved.values - np.roll(u.values, cells))) <= 1e-12

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


class TestRejectedInputs:
    def test_values_of_the_wrong_shape(self, small_grid):
        with pytest.raises(ValueError, match="shape"):
            SpectralField.from_values(small_grid, np.zeros(small_grid.n_points + 1))

    @pytest.mark.parametrize(
        "make, match",
        [
            (lambda n: np.where(np.arange(n) == 3, np.nan, 0.0), "finite"),
            (lambda n: np.where(np.arange(n) == 3, -np.inf, 0.0), "finite"),
            (lambda n: np.zeros(7), "shape"),
            (lambda n: np.zeros((n, 1)), "shape"),
            (lambda n: np.zeros(n, dtype=np.float32), "float64"),
            (lambda n: np.zeros(n, dtype=np.complex128), "float64"),
            (lambda n: [0.0] * n, "float64"),
        ],
        ids=["nan", "inf", "short", "column", "float32", "complex", "list"],
    )
    def test_the_constructor_checks_its_values(self, small_grid, make, match):
        with pytest.raises(ValueError, match=match):
            SpectralField(small_grid, make(small_grid.n_points))

    def test_the_constructor_freezes_what_it_accepts(self, small_grid):
        values = np.linspace(-1.0, 1.0, small_grid.n_points)
        strided = np.zeros(2 * small_grid.n_points)[::2]
        for array in (values, strided):
            fld = SpectralField(small_grid, array)
            assert fld.values is array and not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0
        # from_values copies, so the caller's array stays writable
        kept = np.ones(small_grid.n_points)
        assert not SpectralField.from_values(small_grid, kept).values.flags.writeable
        assert kept.flags.writeable

    def test_non_finite_spectrum(self, small_grid):
        spectrum = np.zeros(small_grid.nyquist_index + 1, dtype=complex)
        spectrum[3] = complex(0.0, np.inf)
        with pytest.raises(ValueError, match="finite"):
            values_from_spectrum(small_grid, spectrum)


class TestSerialization:
    @pytest.mark.parametrize(
        "text, match",
        [("x,u\n-8.0,0.0\n0.0,0.0\n", "header"), ("t,u\n-8.0,0.0\n", "at least two rows"), ("", "header")],
    )
    def test_malformed_csv_is_rejected(self, tmp_path, text, match):
        path = tmp_path / "field.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=match):
            field_from_csv(str(path))

    def test_blank_lines_are_skipped(self, tmp_path, small_grid, rng):
        u = random_band_limited_field(small_grid, rng)
        path = tmp_path / "field.csv"
        field_to_csv(u, str(path))
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:3] + ["\n", "  \n"] + lines[3:] + ["\n"]))
        assert np.array_equal(field_from_csv(str(path)).values, u.values)

    def test_csv_round_trip(self, tmp_path, small_grid, rng):
        u = random_band_limited_field(small_grid, rng)
        path = tmp_path / "field.csv"
        field_to_csv(u, str(path))
        back = field_from_csv(str(path))
        assert back.grid == small_grid
        assert np.array_equal(back.values, u.values)

    def test_csv_with_wrong_row_spacing_is_rejected(self, tmp_path):
        # starts at -L = -8 with 16 rows, so the grid spacing is 1; the rows step by 0.9
        path = tmp_path / "field.csv"
        path.write_text("t,u\n" + "".join(f"{-8.0 + 0.9 * j!r},0.0\n" for j in range(16)))
        with pytest.raises(ValueError, match="not a uniform"):
            field_from_csv(str(path))

    def test_csv_bytes_match_row_by_row_format(self, tmp_path, rng):
        # the default solve's field, and a field on a grid whose spacing 20/96 is
        # not dyadic; a second write of each gives the same bytes
        fields = [
            solve_ground_state(SolveConfig()).field,
            random_band_limited_field(make_grid(10.0, 96), rng),
        ]
        for u in fields:
            rows = "".join(f"{float(t)!r},{float(x)!r}\n" for t, x in zip(u.grid.nodes, u.values))
            for _ in range(2):
                path = tmp_path / "field.csv"
                field_to_csv(u, str(path))
                assert path.read_bytes() == ("t,u\n" + rows).encode("utf-8")
