"""Ground-state solver, mountain-pass path deformation, and level comparison.

The solver runs preconditioned descent with reprojection onto the
stationarity manifold after every step, so iterates never collapse to zero.
The default step is the full one, which makes the descent the Petviashvili
iteration; a step is accepted only if it strictly lowers the energy, so
accepted energies strictly decrease and a bad full step is halved.  When the
perturbation a(t) is not identically zero, the initial field is first moved
to its translate of least projected energy: the perturbed level lies strictly
below the autonomous one, and translation is the one direction along which
descent from an off-centre start would crawl.  A sliding-window mass
diagnostic locates where the iterate concentrates; in the
translation-invariant (autonomous) case the iterate is recentred when the
concentration point drifts too far, mirroring the translation normalization
that restores compactness in the underlying analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DivergedError, EndpointNotNegativeError, NoPositivePartError
from .grid import Grid1D, SpectralField, gaussian_field, load_field_json, make_grid, shift_cells
from .nonlinearity import NonlinearitySpec
# h_alpha_norm_sq is unused here: it is bound by name so that bench/tracer.py can rebind it
from .operators import _spectrum_norm_sq, h_alpha_norm_sq
from .variational import (
    _best_translate,
    _segment_energies,
    _validate_solver_order,
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

#: descent step size below which the line search gives up
_STEP_UNDERFLOW = 1e-8


@dataclass(frozen=True)
class InitSpec:
    kind: str = "gaussian"
    center: float = 0.0
    width: float = 2.0
    amplitude: float = 1.0
    path: str = ""

    def build(self, grid: Grid1D) -> SpectralField:
        if self.kind == "gaussian":
            return gaussian_field(grid, self.center, self.width, self.amplitude)
        if self.kind == "custom":
            fld = load_field_json(self.path)
            if fld.grid != grid:
                raise ValueError(
                    f"custom init grid (L={fld.grid.half_width}, N={fld.grid.n_points}) "
                    f"does not match the run grid (L={grid.half_width}, N={grid.n_points})"
                )
            return fld
        raise ValueError(f"init kind must be gaussian|custom, got {self.kind!r}")


@dataclass(frozen=True)
class SolveConfig:
    half_width: float = 64.0
    n_points: int = 4096
    alpha: float = 0.75
    spec: NonlinearitySpec = field(default_factory=NonlinearitySpec)
    autonomous: bool = False
    init: InitSpec = field(default_factory=InitSpec)
    step: float = 1.0
    max_iters: int = 2000
    residual_tol: float = 1e-7
    recentre: bool = True
    window_radius: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.step <= 1.0:
            raise ValueError(f"step must lie in (0, 1], got {self.step}")
        if self.residual_tol < 1e-12:
            raise ValueError(f"residual_tol must be >= 1e-12, got {self.residual_tol}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        _validate_solver_order(self.alpha)

    def grid(self) -> Grid1D:
        return make_grid(self.half_width, self.n_points)

    def nonlinearity(self) -> NonlinearitySpec:
        """The spec the run evaluates: ``spec.autonomous()`` when autonomous, else ``spec``."""
        return self.spec.autonomous() if self.autonomous else self.spec


@dataclass(frozen=True)
class VanishingProfile:
    centers: np.ndarray
    masses: np.ndarray
    max_mass: float
    argmax_y: float

    def pairs(self) -> list[tuple[float, float]]:
        return [(float(y), float(m)) for y, m in zip(self.centers, self.masses)]


def vanishing_diagnostic(u: SpectralField, r: float) -> VanishingProfile:
    """Sliding-window mass integral of u^2 over [y - r, y + r] for every grid center.

    The window radius must be at least one cell.  The argmax locates the
    concentration point; a max mass bounded away from zero is the numerical
    negation of the vanishing alternative for bounded sequences.
    """
    grid = u.grid
    r = float(r)
    if r < grid.spacing:
        raise ValueError(f"window radius must be >= h = {grid.spacing}, got {r}")
    half_cells = int(round(r / grid.spacing))
    kernel = np.ones(2 * half_cells + 1)
    wrapped = np.pad(u.values ** 2, half_cells, mode="wrap")
    masses = grid.spacing * np.convolve(wrapped, kernel, mode="valid")
    idx = int(np.argmax(masses))
    return VanishingProfile(grid.nodes, masses, float(masses[idx]), float(grid.nodes[idx]))


@dataclass(frozen=True)
class SolveReport:
    field: SpectralField
    level: float
    residual_history: list[float]
    sigma_history: list[float]
    energy_history: list[float]
    iterations: int
    converged: bool
    vanishing_profile: list[tuple[float, float]]
    max_mass: float
    argmax_y: float
    recentred_shift: float
    nehari_residual: float


def solve_ground_state(config: SolveConfig) -> SolveReport:
    """Preconditioned descent with reprojection: u <- project(u - tau * grad).

    With K = 1 + |w|^(2 alpha) the preconditioned gradient is u - K^-1 f(u),
    so the default full step tau = 1 tries K^-1 f(u), scaled onto the
    manifold by the projection: the Petviashvili iteration.  When a(t) is
    not identically zero, the initial field is first moved to the translate
    of least projected energy (``variational._best_translate``), so the
    descent does not crawl along the near-neutral translation mode; with
    a = 0 every translate has the same energy and the field is left as it is.

    Stops when the preconditioned residual norm drops below the configured
    tolerance or the iteration budget runs out.  The step is halved whenever
    a trial projection fails to lower the energy strictly and restored after
    every accepted step; underflow of the step below 1e-8 raises DivergedError,
    which carries the report up to the last accepted iterate.
    A trial whose energy merely equals the current one (a null step, as when
    tau * gradient is below the rounding of u) is not progress, so a
    residual_tol below the energy-resolution floor (about 2e-8 at L = 32,
    N = 1024) ends in DivergedError rather than in spent max_iters.
    Recentring (autonomous runs only) shifts the iterate by whole cells when
    the concentration point drifts beyond L/4.
    """
    grid = config.grid()
    spec, alpha = config.nonlinearity(), config.alpha
    u0 = config.init.build(grid)
    if float(np.max(u0.values)) <= 0.0:
        raise NoPositivePartError("initial field has no positive part")
    u0, _ = _best_translate(u0, spec)

    proj = nehari_project(u0, spec, alpha)
    u = proj.projected
    current_energy = proj.energy
    nehari_residual = proj.constraint_residual
    sigma_history = [proj.sigma]
    residual_history: list[float] = []
    energy_history = [current_energy]
    tau = config.step
    total_shift = 0.0
    iterations = 0

    def report(converged: bool) -> SolveReport:
        diag = vanishing_diagnostic(u, config.window_radius)
        return SolveReport(
            field=u,
            level=energy(u, spec, alpha).total,
            residual_history=residual_history,
            sigma_history=sigma_history,
            energy_history=energy_history,
            iterations=iterations,
            converged=converged,
            vanishing_profile=diag.pairs(),
            max_mass=diag.max_mass,
            argmax_y=diag.argmax_y,
            recentred_shift=total_shift,
            nehari_residual=nehari_residual,
        )

    for _ in range(config.max_iters):
        grad = gradient(u, spec, alpha)
        residual_history.append(grad.residual_norm)
        if grad.residual_norm <= config.residual_tol:
            return report(True)
        while True:
            trial = u - tau * grad.precond_gradient
            try:
                proj = nehari_project(trial, spec, alpha)
            except NoPositivePartError:
                proj = None
            if proj is not None and proj.energy < current_energy:
                u = proj.projected
                current_energy = proj.energy
                nehari_residual = proj.constraint_residual
                sigma_history.append(proj.sigma)
                tau = config.step
                break
            tau *= 0.5
            if tau < _STEP_UNDERFLOW:
                raise DivergedError(
                    f"descent step underflowed below {_STEP_UNDERFLOW:.0e} without a "
                    f"strict energy decrease: energy-resolution floor at residual "
                    f"{grad.residual_norm:.3e}, last accepted energy {current_energy!r}",
                    report(False),
                )
        iterations += 1
        if config.recentre and config.autonomous:
            diag = vanishing_diagnostic(u, config.window_radius)
            if abs(diag.argmax_y) > grid.half_width / 4.0:
                cells = int(round(diag.argmax_y / grid.spacing))
                u = shift_cells(u, -cells)
                total_shift += cells * grid.spacing
                current_energy = energy(u, spec, alpha).total
        energy_history.append(current_energy)

    # max_iters exhausted; record the final residual for the report
    residual_history.append(gradient(u, spec, alpha).residual_norm)
    return report(False)


# -- mountain-pass path --------------------------------------------------------


@dataclass(frozen=True)
class MountainPassReport:
    path_max_energy: float
    node_energies: list[float]
    initial_node_energies: list[float]
    endpoint_scale: float
    sweeps: int


def mountain_pass_path(
    config: SolveConfig,
    endpoint_scale: float = 1.0,
    n_nodes: int = 33,
    n_deform: int = 200,
) -> MountainPassReport:
    """Deform a segment path from 0 to a negative-energy endpoint downhill.

    The endpoint scale is doubled until the endpoint energy is negative
    (EndpointNotNegativeError past 1e6).  Each sweep relaxes the interior
    nodes by preconditioned descent with displacement capped by the distance
    to the neighbouring nodes, skips nodes already below zero energy (they
    cannot carry the path maximum, which is positive), and redistributes the
    nodes by arclength so the crossing region stays resolved.  Endpoints are
    pinned, so the polyline remains an admissible path throughout, and its
    maximal energy is an upper bound for the min-max level that decreases
    with the sweep count.  It is located by nested sampling on every segment,
    where the quadratic part is a closed-form quadratic in the segment
    parameter and the potential at all samples of one level is one
    evaluation on a stacked array.  The path is held as fields, whose
    arithmetic carries the spectrum, so only the seed and the gradients (two
    transforms each) make transforms.
    """
    if n_nodes < 5:
        raise ValueError(f"need at least 5 path nodes, got {n_nodes}")
    if n_deform < 0:
        raise ValueError(f"sweep count must be >= 0, got {n_deform}")
    spec, alpha = config.nonlinearity(), config.alpha
    u_init = config.init.build(config.grid())
    if float(np.max(u_init.values)) <= 0.0:
        raise NoPositivePartError("path seed has no positive part")

    def node_energy(u: SpectralField) -> float:
        return energy(u, spec, alpha).total

    def distance(a: SpectralField, b: SpectralField) -> float:
        return float(np.sqrt(_spectrum_norm_sq(a.grid, b.spectrum - a.spectrum, alpha)))

    scale = float(endpoint_scale)
    while node_energy(scale * u_init) >= 0.0:
        scale *= 2.0
        if scale > 1e6:
            raise EndpointNotNegativeError("endpoint scale exceeded 1e6 without negative energy")
    endpoint = scale * u_init

    path = [lam * endpoint for lam in np.linspace(0.0, 1.0, n_nodes)]
    initial_energies = [node_energy(u) for u in path]

    def relax(i: int, energies: list[float]) -> None:
        grad = gradient(path[i], spec, alpha)
        g, g_norm = grad.precond_gradient, grad.residual_norm
        if g_norm == 0.0:
            return
        d_prev = distance(path[i - 1], path[i])
        d_next = distance(path[i], path[i + 1])
        step = min(0.3, 0.5 * min(d_prev, d_next) / g_norm)
        for _ in range(25):
            candidate = path[i] - step * g
            e_cand = node_energy(candidate)
            if e_cand < energies[i]:
                path[i] = candidate
                energies[i] = e_cand
                return
            step *= 0.5

    def reparametrize() -> None:
        lengths = [distance(path[i], path[i + 1]) for i in range(len(path) - 1)]
        cum = np.concatenate([[0.0], np.cumsum(lengths)])
        if cum[-1] == 0.0:
            return
        targets = np.linspace(0.0, cum[-1], len(path))
        resampled = [path[0]]
        seg = 0
        for s in targets[1:-1]:
            while cum[seg + 1] < s:
                seg += 1
            width = cum[seg + 1] - cum[seg]
            lam = (s - cum[seg]) / width if width > 0 else 0.0
            resampled.append((1.0 - lam) * path[seg] + lam * path[seg + 1])
        resampled.append(path[-1])
        path[:] = resampled

    for _ in range(n_deform):
        energies = [node_energy(u) for u in path]
        top = int(np.argmax(energies))
        if 0 < top < n_nodes - 1:
            for _ in range(3):
                relax(top, energies)
        for i in range(1, n_nodes - 1):
            if energies[i] <= 0.0:
                continue
            relax(i, energies)
        reparametrize()

    def segment_max(a: SpectralField, b: SpectralField, n_sub: int = 17, depth: int = 4) -> float:
        lo, hi = 0.0, 1.0
        best = -np.inf
        for _ in range(depth):
            lams = np.linspace(lo, hi, n_sub)
            vals = _segment_energies(a, b, spec, alpha, lams)
            j = int(np.argmax(vals))
            best = max(best, vals[j])
            span = (hi - lo) / (n_sub - 1)
            lo, hi = max(0.0, lams[j] - span), min(1.0, lams[j] + span)
        return best

    node_energies = [node_energy(u) for u in path]
    path_max = max(segment_max(path[i], path[i + 1]) for i in range(len(path) - 1))
    return MountainPassReport(
        path_max_energy=float(path_max),
        node_energies=node_energies,
        initial_node_energies=initial_energies,
        endpoint_scale=scale,
        sweeps=n_deform,
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
    perturbed_cfg = replace(config, autonomous=False, recentre=False)
    autonomous_cfg = replace(config, autonomous=True)
    perturbed = solve_ground_state(perturbed_cfg)
    autonomous = solve_ground_state(autonomous_cfg)
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
