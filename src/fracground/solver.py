"""Ground-state solver, mountain-pass path deformation, and level comparison.

The solver minimizes the energy over the stationarity manifold.  Its base
step is the Petviashvili iteration: the full preconditioned descent step,
reprojected onto the manifold so that iterates never collapse to zero.
That map converges only linearly, so each iteration first tries an
Anderson-mixed iterate of depth 3 (Walker & Ni, SIAM J. Numer. Anal. 49,
2011), kept only if it lowers the energy by more than a rounding margin;
otherwise the history is cleared and the base step is halved until it
strictly lowers the energy.  So accepted energies strictly decrease.  When
a(t) is not zero on the grid, the start is first moved to its translate of
least projected energy: the perturbed level lies strictly below the
autonomous one, and translation is the one direction along which descent
from an off-centre start would crawl.  A sliding-window mass diagnostic
locates where a field concentrates; when a = 0 the start is recentred once,
before descent, if it concentrates too far out, mirroring the translation
normalization that restores compactness in the underlying analysis.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NoPositivePartError
from .grid import Grid1D, SpectralField, field_from_csv, gaussian_field, make_grid, shift_cells
from .nonlinearity import NonlinearitySpec
# h_alpha_norm_sq is unused here: it is bound by name so that bench/tracer.py can rebind it
from .operators import _pairing, h_alpha_norm_sq, validate_order
from .variational import (
    NehariResult,
    _best_translate,
    _fiber_scale,
    _potential,
    _segment_bounds,
    _segment_energies,
    _segment_norms,
    _translation_invariant,
    energy,
    gradient,
    nehari_project,
)

__all__ = [
    "InitSpec",
    "SolveConfig",
    "SolveReport",
    "VanishingProfile",
    "MountainPassReport",
    "LevelComparison",
    "solve_ground_state",
    "mountain_pass_path",
    "vanishing_diagnostic",
    "compare_levels",
]

#: radius of the mass window that recentres a start with a = 0, once, before
#: descent, and that the report reads
WINDOW_RADIUS = 1.0

#: descent step size below which the line search gives up
_STEP_UNDERFLOW = 1e-8

#: number of past differences an Anderson-mixed iterate combines
_DEPTH = 3

#: a mixed iterate is accepted only if it lowers the energy by more than this
#: many |E|, a few ulp: a decrease at the rounding level is not progress
_MIX_MARGIN = 16.0 * np.finfo(np.float64).eps

#: relative margin by which a segment's bound must fall short of the best
#: sampled energy before the segment is skipped; it covers the rounding of both
_BOUND_MARGIN = 1e-12


@dataclass(frozen=True)
class InitSpec:
    """The start of a solve: the field in the CSV at ``path`` when that is not empty, else the Gaussian."""

    center: float = 0.0
    width: float = 2.0
    amplitude: float = 1.0
    path: str = ""

    def build(self, grid: Grid1D) -> SpectralField:
        if not self.path:
            return gaussian_field(grid, self.center, self.width, self.amplitude)
        fld = field_from_csv(self.path)
        if fld.grid != grid:
            raise ValueError(
                f"{self.path}: grid (L={fld.grid.half_width}, N={fld.grid.n_points}) "
                f"does not match the run grid (L={grid.half_width}, N={grid.n_points})"
            )
        return fld


@dataclass(frozen=True)
class SolveConfig:
    """Settings of one solve."""

    half_width: float = 64.0
    n_points: int = 4096
    alpha: float = 0.75
    spec: NonlinearitySpec = field(default_factory=NonlinearitySpec)
    autonomous: bool = False
    init: InitSpec = field(default_factory=InitSpec)
    max_iters: int = 2000
    residual_tol: float = 1e-7

    def __post_init__(self) -> None:
        if not 1e-12 <= self.residual_tol < np.inf:
            raise ValueError(f"residual_tol must be in [1e-12, inf), got {self.residual_tol}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        validate_order(self.alpha, within="variational")

    def grid(self) -> Grid1D:
        return make_grid(self.half_width, self.n_points)

    def nonlinearity(self) -> NonlinearitySpec:
        """The spec the run evaluates: ``spec.autonomous()`` when autonomous, else ``spec``."""
        return self.spec.autonomous() if self.autonomous else self.spec


@dataclass(frozen=True)
class VanishingProfile:
    masses: np.ndarray
    max_mass: float
    argmax_y: float


def vanishing_diagnostic(u: SpectralField, r: float) -> VanishingProfile:
    """Sliding-window mass integral of u^2 over [y - r, y + r], ``masses[i]`` at y = ``grid.nodes[i]``.

    The window radius must be finite and at least one cell.  The argmax
    locates the concentration point; a max mass bounded away from zero is the
    numerical negation of the vanishing alternative for bounded sequences.
    """
    grid = u.grid
    r = float(r)
    if not grid.spacing <= r < np.inf:
        raise ValueError(f"window radius must be in [h, inf), h = {grid.spacing}, got {r}")
    half_cells = int(round(r / grid.spacing))
    kernel = np.ones(2 * half_cells + 1)
    wrapped = np.pad(u.values ** 2, half_cells, mode="wrap")
    masses = grid.spacing * np.convolve(wrapped, kernel, mode="valid")
    idx = int(np.argmax(masses))
    return VanishingProfile(masses, float(masses[idx]), float(grid.nodes[idx]))


@dataclass(frozen=True)
class SolveReport:
    field: SpectralField
    level: float
    residual_history: list[float]
    sigma_history: list[float]
    energy_history: list[float]
    iterations: int
    status: str
    max_mass: float
    argmax_y: float
    recentred_shift: float
    nehari_residual: float

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def solve_ground_state(config: SolveConfig) -> SolveReport:
    """Anderson-mixed preconditioned descent with reprojection onto the manifold.

    With K = 1 + |w|^(2 alpha) the preconditioned gradient is
    g = u - K^-1 f(u), and the projection of u - g is the Petviashvili
    step.  Each iteration first tries the type-II Anderson iterate
    u - g - sum_j gamma_j (dU_j - dG_j), where dU_j, dG_j are the last
    ``_DEPTH`` = 3 differences of accepted iterates and of their gradients
    and gamma is the least-squares fit of g by the dG_j.  Its values and
    spectrum are one small matvec each, so an iteration still makes two
    transforms, both in ``gradient``.  The projected mixed iterate is
    accepted only if its energy is below the current one by more than
    16 eps |E|; a decrease at the rounding level would walk through the
    energy-resolution floor.  Otherwise, or if the fit's Gram system is
    singular, the history is cleared and the plain step u - s g is taken:
    s = 1, halved until the projection lowers the energy strictly.  The
    loop's one state is the accepted projection, and ``iterations`` is
    len(energy_history) - 1.  The report's ``status`` names how the run
    ended, and every end returns the report up to the last accepted iterate:
    ``converged`` once the residual is at most residual_tol and
    ``max_iters`` once max_iters steps are accepted, both tested at the head
    of an iteration; ``step_underflow`` when the step falls below 1e-8.  That
    is the energy-resolution floor, where no step lowers the energy: at
    L = 32, N = 1024 it is reached at residual 4.196e-09 after 12
    iterations, so a residual_tol below it ends there.  The level is that of
    the box [-L, L), with an error of about K L^-(1 + 2 alpha) to the real
    line's.

    When 1 + a(t) is not exactly 1 on the grid, the start is first moved to
    its translate of least projected energy (``variational._best_translate``).
    When it is (``autonomous``, amplitude 0 or an amplitude that rounds
    away), every translate has the same energy, and a start that
    concentrates beyond L/4 is instead recentred by whole cells; the
    iteration commutes with such shifts.
    """
    grid = config.grid()
    if grid.spacing > WINDOW_RADIUS:
        raise ValueError(
            f"grid spacing 2L/N = {grid.spacing} exceeds the window radius {WINDOW_RADIUS}"
        )
    spec, alpha = config.nonlinearity(), config.alpha
    u0 = config.init.build(grid)
    if float(np.max(u0.values)) <= 0.0:
        raise NoPositivePartError("initial field has no positive part")
    cells = 0
    if _translation_invariant(spec, grid):
        # of u0 / 2^(e - 1), where max(u0) = m 2^e: the exact scaling keeps u0^2 from
        # underflowing or overflowing, and the field's spectrum is never made
        unit = SpectralField(grid, np.ldexp(u0.values, 1 - np.frexp(np.max(u0.values))[1]))
        centre = vanishing_diagnostic(unit, WINDOW_RADIUS).argmax_y
        if abs(centre) > grid.half_width / 4.0:
            cells = int(round(centre / grid.spacing))
            u0 = shift_cells(u0, -cells)
    else:
        u0, _ = _best_translate(u0, spec)

    accepted = nehari_project(u0, spec, alpha)
    sigma_history = [accepted.sigma]
    energy_history = [accepted.energy]
    residual_history: list[float] = []
    # the Anderson history: the last iterate's triple and the last _DEPTH triple differences
    last = None
    diffs: deque[tuple[np.ndarray, ...]] = deque(maxlen=_DEPTH)

    def report(status: str) -> SolveReport:
        diag = vanishing_diagnostic(accepted.projected, WINDOW_RADIUS)
        return SolveReport(
            field=accepted.projected,
            level=accepted.energy,
            residual_history=residual_history,
            sigma_history=sigma_history,
            energy_history=energy_history,
            iterations=len(energy_history) - 1,
            status=status,
            max_mass=diag.max_mass,
            argmax_y=diag.argmax_y,
            recentred_shift=cells * grid.spacing,
            nehari_residual=accepted.constraint_residual,
        )

    while True:
        u, level = accepted.projected, accepted.energy
        grad = gradient(u, spec, alpha)
        residual_history.append(grad.residual_norm)
        if grad.residual_norm <= config.residual_tol:
            return report("converged")
        if len(energy_history) > config.max_iters:
            return report("max_iters")
        g = grad.precond_gradient
        current = (g.values, u.values - g.values, (u.spectrum - g.spectrum).view(np.float64))
        if last is not None:
            diffs.append(tuple(new - old for new, old in zip(current, last)))
        last = current
        mixed = _mixed_iterate(grid, last, diffs)
        trial = None if mixed is None else _project_or_none(mixed, spec, alpha)
        if trial is None or not trial.energy < level - _MIX_MARGIN * abs(level):
            diffs.clear()
            step = 1.0
            while True:
                trial = _project_or_none(u - step * g, spec, alpha)
                if trial is not None and trial.energy < level:
                    break
                step *= 0.5
                if step < _STEP_UNDERFLOW:
                    return report("step_underflow")
        accepted = trial
        sigma_history.append(accepted.sigma)
        energy_history.append(accepted.energy)


def _project_or_none(trial: SpectralField, spec: NonlinearitySpec, alpha: float) -> NehariResult | None:
    """The Nehari projection of a trial field; None where it raises NoPositivePartError."""
    try:
        return nehari_project(trial, spec, alpha)
    except NoPositivePartError:
        return None


def _mixed_iterate(grid: Grid1D, last: tuple, diffs: deque) -> SpectralField | None:
    """The mixed iterate u - g - sum_j gamma_j (dU_j - dG_j) at the last iterate (u, g).

    ``last`` is (g, u - g, the spectrum of u - g as float pairs) and each of
    ``diffs`` is the difference of two such triples: dG_j, dU_j - dG_j and its
    spectrum.  gamma is the least-squares fit of g by the dG_j.  None when
    there are no differences or their Gram system is singular.
    """
    if not diffs:
        return None
    grad, image_values, image_spectrum = last
    grad_diffs, image_diffs, image_spectrum_diffs = (np.array(rows) for rows in zip(*diffs))
    try:
        gamma = np.linalg.solve(grad_diffs @ grad_diffs.T, grad_diffs @ grad)
    except np.linalg.LinAlgError:
        return None
    values = image_values - gamma @ image_diffs
    spectrum = image_spectrum - gamma @ image_spectrum_diffs
    return SpectralField._join(grid, values, spectrum.view(np.complex128))


# -- mountain-pass path --------------------------------------------------------


@dataclass(frozen=True)
class MountainPassReport:
    path_max_energy: float
    node_energies: list[float]
    initial_node_energies: list[float]
    endpoint_scale: float
    sweeps: int
    stop: str
    sweep_max: list[float]
    segments_searched: int
    relax_give_ups: list[int]


#: halvings after which a relax line search gives up and leaves its node as it is
_RELAX_HALVINGS = 25

#: the deformation has stalled once a sweep moves the highest node energy by at
#: most this fraction of it
_STALL_RTOL = 1e-10


def mountain_pass_path(
    config: SolveConfig, n_nodes: int = 33, n_deform: int = 200
) -> MountainPassReport:
    """Deform a segment path from 0 to a negative-energy endpoint downhill.

    The endpoint is the seed scaled by the least power of two >= 1 past which
    E < 0 on its ray, computed from the fiber scale.  Each sweep relaxes the
    interior nodes by preconditioned descent with displacement capped by the
    distance to the neighbouring nodes, skips nodes already below zero energy
    (they cannot carry the path maximum, which is positive), and
    redistributes the nodes by arclength so the crossing region stays
    resolved.  Endpoints are pinned, so the polyline remains an admissible
    path throughout, and its maximal energy is an upper bound for the min-max
    level that decreases with the sweep count; ``sweep_max`` records the
    highest node energy at the start of each sweep and after the last, and
    ``relax_give_ups`` the line searches of each sweep that found no lower
    energy in 25 halvings.  ``n_deform`` caps the sweeps, and ``sweeps``
    counts those run.  ``stop`` names how the deformation ended:
    - ``collapsed``: a sweep that would start with its highest node at an
      endpoint is not run.  Every interior node is then at or below zero
      energy, so the mountain lies inside a segment that no relax moves, and
      the path maximum stays an upper bound.
    - ``stalled``: a sweep moved ``sweep_max`` by at most 1e-10 of its new
      value, and both values are finite.
    - ``max_sweeps``: all ``n_deform`` sweeps ran.

    Each node carries N(u) = ||u||_alpha^2 and P(u) = h sum F(t, u), and its
    energy is read as N(u) / 2 - P(u).  By homogeneity the seed node lam e
    has N = lam^2 N(e) and P = lam^(p+1) P(e), so one ``energy`` call, on the
    endpoint e, serves the seed.  Three identities give the rest:
    - along a relax step, N(u - s g) = N(u) - 2 s <u, g>_alpha + s^2 ||g||_alpha^2,
      where ||g||_alpha is the gradient's residual norm;
    - <u, g>_alpha = N(u) - (p + 1) P(u), since g = u - K^-1 f(u), the pairing
      of u with K^-1 f(u) is the L2 pairing of u with f(u) (discrete
      Parseval), and f(t, xi) xi = (p + 1) F(t, xi);
    - a node resampled at (1 - lam) a + lam b has
      N = (1 - lam) N(a) + lam N(b) - lam (1 - lam) ||b - a||_alpha^2, with
      ||b - a||_alpha the segment's arclength (``variational._segment_norms``).
    So a trial step or a resampled node costs one potential (``_potential``,
    one dot) on its values, and only an accepted step or a resampled node is
    made into a field, once, with its spectrum combined linearly.

    The maximum on a segment is located by nine nested levels of 17 samples
    (to 16^-9 in its parameter, where E is the same closed-form quadratic in
    the carried norms and the chord ||b - a||_alpha^2 minus one stacked
    potential evaluation per level).  The chords of the final path are
    computed once.  Segments are sampled in order of a falling upper bound of
    E on them (``variational._segment_bounds``, which reads the carried norms,
    potentials and chords), and the search stops at the first bound below the
    best sampled energy less a 1e-12 relative margin: no later segment can
    hold a larger sample, so the maximum is the one over all segments.  The
    path is held as fields, whose arithmetic carries the spectrum, so only
    the seed and the gradients (two transforms each) make transforms; norms
    and distances read only the half spectrum k <= N/2.
    """
    if n_nodes < 5:
        raise ValueError(f"need at least 5 path nodes, got {n_nodes}")
    if n_deform < 0:
        raise ValueError(f"sweep count must be >= 0, got {n_deform}")
    spec, alpha = config.nonlinearity(), config.alpha
    grid = config.grid()
    u_init = config.init.build(grid)
    sigma, _ = _fiber_scale(u_init, spec, alpha)
    # E(s u) < 0 exactly for s > s0 = sigma ((p + 1) / 2)^(1/(p-1)), and s0 < 2^exponent
    _, exponent = np.frexp(sigma * (0.5 * (spec.p + 1.0)) ** (1.0 / (spec.p - 1.0)))
    scale = 2.0 ** max(0, int(exponent))
    endpoint = scale * u_init

    def distance_sq(a: SpectralField, b: SpectralField) -> float:
        diff = b.spectrum - a.spectrum
        return _pairing(grid, diff, diff, alpha)

    lams = np.linspace(0.0, 1.0, n_nodes)
    path = [lam * endpoint for lam in lams]
    end = energy(endpoint, spec, alpha)
    norms = (lams ** 2 * (2.0 * end.quadratic)).tolist()
    potentials = (lams ** (spec.p + 1.0) * end.potential).tolist()

    def energies() -> list[float]:
        return [0.5 * norm - potential for norm, potential in zip(norms, potentials)]

    def relax(i: int) -> int:
        """One line search on node i; 1 if it gave up, else 0."""
        grad = gradient(path[i], spec, alpha)
        g, g_norm = grad.precond_gradient, grad.residual_norm
        if g_norm == 0.0:
            return 0
        gap = float(np.sqrt(min(distance_sq(path[i - 1], path[i]), distance_sq(path[i], path[i + 1]))))
        step = min(0.3, 0.5 * gap / g_norm)
        u, norm = path[i], norms[i]
        current = 0.5 * norm - potentials[i]
        cross = norm - (spec.p + 1.0) * potentials[i]
        for _ in range(_RELAX_HALVINGS):
            values = u.values - step * g.values
            potential = _potential(spec, grid, values)
            trial_norm = norm - 2.0 * step * cross + step * step * g_norm * g_norm
            if 0.5 * trial_norm - potential < current:
                path[i] = SpectralField._join(grid, values, u.spectrum - step * g.spectrum)
                norms[i], potentials[i] = trial_norm, potential
                return 0
            step *= 0.5
        return 1

    def reparametrize() -> None:
        chords = [distance_sq(path[i], path[i + 1]) for i in range(len(path) - 1)]
        cum = np.concatenate([[0.0], np.cumsum(np.sqrt(chords))])
        if cum[-1] == 0.0:
            return
        targets = np.linspace(0.0, cum[-1], len(path))
        # cum[seg] < s <= cum[seg + 1] for every inner target s, so no segment has width 0
        segs = np.searchsorted(cum, targets[1:-1]) - 1
        lams = (targets[1:-1] - cum[segs]) / (cum[segs + 1] - cum[segs])
        nodes, node_norms = list(path), list(norms)
        for i, seg, lam in zip(range(1, len(path) - 1), segs.tolist(), lams.tolist()):
            a, b = nodes[seg], nodes[seg + 1]
            values = (1.0 - lam) * a.values + lam * b.values
            path[i] = SpectralField._join(grid, values, (1.0 - lam) * a.spectrum + lam * b.spectrum)
            norms[i] = _segment_norms(lam, node_norms[seg], chords[seg], node_norms[seg + 1])
            potentials[i] = _potential(spec, grid, values)

    initial_energies = energies()
    sweep_max = [max(initial_energies)]
    give_ups = []
    stop = "max_sweeps"
    for _ in range(n_deform):
        top = int(np.argmax(energies()))
        if not 0 < top < n_nodes - 1:
            stop = "collapsed"
            break
        gave_up = sum(relax(top) for _ in range(3))
        for i in range(1, n_nodes - 1):
            if 0.5 * norms[i] > potentials[i]:
                gave_up += relax(i)
        give_ups.append(gave_up)
        reparametrize()
        sweep_max.append(max(energies()))
        before, latest = sweep_max[-2:]
        if np.isfinite([before, latest]).all() and abs(latest - before) <= _STALL_RTOL * abs(latest):
            stop = "stalled"
            break

    chords = [distance_sq(a, b) for a, b in zip(path, path[1:])]
    bounds = _segment_bounds(path, norms, potentials, chords, spec)
    path_max, searched = -np.inf, 0
    for i in np.argsort(-bounds, kind="stable"):
        if bounds[i] < path_max - _BOUND_MARGIN * abs(path_max):
            break
        lo, hi, segment = 0.0, 1.0, (norms[i], chords[i], norms[i + 1])
        for _ in range(9):
            samples = np.linspace(lo, hi, 17)
            vals = _segment_energies(path[i], path[i + 1], segment, spec, samples)
            j = int(np.argmax(vals))
            path_max = max(path_max, vals[j])
            lo, hi = max(0.0, samples[j] - (hi - lo) / 16), min(1.0, samples[j] + (hi - lo) / 16)
        searched += 1
    return MountainPassReport(
        path_max_energy=float(path_max),
        node_energies=energies(),
        initial_node_energies=initial_energies,
        endpoint_scale=scale,
        sweeps=len(give_ups),
        stop=stop,
        sweep_max=sweep_max,
        segments_searched=searched,
        relax_give_ups=give_ups,
    )


# -- perturbed vs autonomous comparison ----------------------------------------


@dataclass(frozen=True)
class LevelComparison:
    c: float
    c_bar: float
    gap: float
    strict: bool
    one_shot_level: float
    one_shot_strict: bool
    perturbed: SolveReport
    autonomous: SolveReport


def compare_levels(config: SolveConfig) -> LevelComparison:
    """Solve the perturbed and autonomous problems on one grid and compare levels.

    Also reports the one-shot bound: the autonomous ground state reprojected
    under the perturbed functional already has energy below the autonomous
    level whenever the perturbation is active somewhere.
    """
    perturbed = solve_ground_state(replace(config, autonomous=False))
    autonomous = solve_ground_state(replace(config, autonomous=True))
    gap = autonomous.level - perturbed.level
    strict = gap > 10.0 * config.residual_tol
    one_shot = nehari_project(autonomous.field, config.spec, config.alpha)
    one_shot_strict = one_shot.energy < autonomous.level
    return LevelComparison(
        c=perturbed.level,
        c_bar=autonomous.level,
        gap=gap,
        strict=strict,
        one_shot_level=one_shot.energy,
        one_shot_strict=one_shot_strict,
        perturbed=perturbed,
        autonomous=autonomous,
    )
