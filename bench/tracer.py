"""Per-layer spans recorded from outside the program.

The package's modules import names directly (``from .variational import
gradient``), so a layer is traced by rebinding its function in the module
that defines it and in every module that imported it.  Each binding in
``BINDINGS`` must exist and still hold the original function, and after
installation no module of the package may hold an unwrapped original; either
failure raises ``TraceError``, so a rename cannot silently zero a layer.

Spans (name, start, end, parent) stay in memory until the run ends.
``numpy.fft`` and ``scipy.fft`` transforms are spans too, with their length
and the bytes of their input and output arrays.  Those bytes are computed
from array sizes, not measured: they ignore caches.
"""

from __future__ import annotations

import contextlib
import importlib
import math
import sys
import time

#: span name -> (defining module, attribute, modules that import it by name)
BINDINGS = {
    "cli.run": ("fracground.cli", "run", ()),
    "solver.solve_ground_state": (
        "fracground.solver", "solve_ground_state", ("fracground", "fracground.cli"),
    ),
    "solver.mountain_pass_path": ("fracground.solver", "mountain_pass_path", ("fracground",)),
    "solver.vanishing_diagnostic": ("fracground.solver", "vanishing_diagnostic", ("fracground",)),
    "variational.energy": ("fracground.variational", "energy", ("fracground", "fracground.solver")),
    "variational.gradient": ("fracground.variational", "gradient", ("fracground", "fracground.solver")),
    "variational.nehari_project": (
        "fracground.variational", "nehari_project", ("fracground", "fracground.solver"),
    ),
    "nonlinearity.eval_f": ("fracground.nonlinearity", "eval_f", ("fracground", "fracground.variational")),
    "nonlinearity.eval_F": ("fracground.nonlinearity", "eval_F", ("fracground", "fracground.variational")),
    "nonlinearity.eval_df": ("fracground.nonlinearity", "eval_df", ("fracground", "fracground.variational")),
    "operators.h_alpha_norm_sq": (
        "fracground.operators", "h_alpha_norm_sq",
        ("fracground", "fracground.solver", "fracground.variational"),
    ),
    "operators.apply_multiplier": ("fracground.operators", "apply_multiplier", ("fracground.variational",)),
    "operators.multiplier_symbol": (
        "fracground.operators", "multiplier_symbol",
        ("fracground", "fracground.checks", "fracground.variational"),
    ),
    "operators.fractional_derivative": (
        "fracground.operators", "fractional_derivative", ("fracground", "fracground.checks"),
    ),
    "operators.gl_oracle": ("fracground.operators", "gl_oracle", ("fracground",)),
    "operators.gl_weights": ("fracground.operators", "gl_weights", ()),
    "operators.fftconvolve": ("fracground.operators", "fftconvolve", ()),
    "grid.values_from_spectrum": ("fracground.grid", "values_from_spectrum", ("fracground.operators",)),
}

#: span name -> (defining module, class, method); the class attribute is rebound
METHODS = {
    "grid.from_values": ("fracground.grid", "SpectralField", "from_values"),
    "nonlinearity.weight": ("fracground.nonlinearity", "Perturbation", "weight"),
}

FFT_MODULES = ("numpy.fft", "scipy.fft")
FFT_FUNCS = ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn")
FFT_SPAN = "grid.fft"

_MARK = "_bench_span"


class TraceError(RuntimeError):
    """A binding the tracer needs is missing, or one was left unwrapped."""


def _module(name: str):
    try:
        return importlib.import_module(name)
    except ImportError as exc:
        raise TraceError(f"cannot import {name}: {exc}") from exc


def _package_modules():
    return [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "fracground"]


def _transform_points(name: str, args: tuple, kwargs: dict, out) -> int:
    """Logical transform length: the requested n/s if given, else the data's."""
    size = kwargs.get("n", kwargs.get("s", args[1] if len(args) > 1 else None))
    if size is None:
        return 2 * (out.size - 1) if name.startswith("irfft") else max(out.size, getattr(args[0], "size", 0))
    return math.prod(size) if isinstance(size, (tuple, list)) else int(size)


class Tracer:
    """Install span-recording wrappers, record spans, restore the originals."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name_of: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.fft: list[tuple[int, int, int, int]] = []  # span, points, bytes, largest array bytes
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def open(self, name_id: int) -> int:
        i = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, such as one whole task."""
        i = self.open(self._name_id(name))
        try:
            yield
        finally:
            self.close(i)

    def wrap(self, name: str, fn):
        name_id, open_, close = self._name_id(name), self.open, self.close

        def traced(*args, **kwargs):
            i = open_(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                close(i)

        traced.__wrapped__ = fn
        setattr(traced, _MARK, name)
        return traced

    def wrap_fft(self, fname: str, fn):
        name_id, open_, close, fft = self._name_id(FFT_SPAN), self.open, self.close, self.fft

        def traced(*args, **kwargs):
            i = open_(name_id)
            try:
                out = fn(*args, **kwargs)
            finally:
                close(i)
            src = args[0] if args else kwargs.get("x", kwargs.get("a"))
            in_bytes = getattr(src, "nbytes", 0)
            fft.append((i, _transform_points(fname, args, kwargs, out), in_bytes + out.nbytes,
                        max(in_bytes, out.nbytes)))
            return out

        traced.__wrapped__ = fn
        setattr(traced, _MARK, FFT_SPAN)
        return traced

    # -- installation --------------------------------------------------------

    def _rebind(self, owner, attr: str, new) -> None:
        # a class keeps its raw attribute, so a classmethod is restored as one
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, new)

    def install(self) -> None:
        originals = {}
        try:
            for name, (mod_name, attr, consumers) in BINDINGS.items():
                mod = _module(mod_name)
                if not hasattr(mod, attr):
                    raise TraceError(f"{mod_name}.{attr} does not exist (layer {name})")
                fn = getattr(mod, attr)
                originals[id(fn)] = f"{mod_name}.{attr}"
                wrapped = self.wrap(name, fn)
                for owner_name in (mod_name,) + consumers:
                    owner = _module(owner_name)
                    if getattr(owner, attr, None) is not fn:
                        raise TraceError(f"{owner_name}.{attr} is not {mod_name}.{attr} (layer {name})")
                    self._rebind(owner, attr, wrapped)
            for name, (mod_name, cls_name, attr) in METHODS.items():
                cls = getattr(_module(mod_name), cls_name, None)
                raw = getattr(cls, "__dict__", {}).get(attr)
                if raw is None:
                    raise TraceError(f"{mod_name}.{cls_name}.{attr} does not exist (layer {name})")
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(name, raw.__func__))
                else:
                    new = self.wrap(name, raw)
                self._rebind(cls, attr, new)
            for mod_name in FFT_MODULES:
                mod = _module(mod_name)
                for fname in FFT_FUNCS:
                    if not hasattr(mod, fname):
                        raise TraceError(f"{mod_name}.{fname} does not exist")
                    self._rebind(mod, fname, self.wrap_fft(fname, getattr(mod, fname)))
            for mod in _package_modules():
                for attr, value in vars(mod).items():
                    if id(value) in originals:
                        raise TraceError(
                            f"{mod.__name__}.{attr} still binds unwrapped {originals[id(value)]}; "
                            "add it to the consumers in BINDINGS"
                        )
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def assert_untraced() -> None:
    """Raise TraceError if any tracer wrapper is still bound anywhere it installs them."""
    owners = _package_modules() + [_module(m) for m in FFT_MODULES]
    owners += [getattr(_module(m), c) for m, c, _ in METHODS.values()]
    for owner in owners:
        for attr, value in vars(owner).items():
            value = getattr(value, "__func__", value)
            if hasattr(value, _MARK):
                raise TraceError(f"{getattr(owner, '__name__', owner)}.{attr} is still traced")


# -- per-layer metrics ----------------------------------------------------------


def layer_metrics(tracer: Tracer, n_tasks: int, solver_iterations: int) -> dict[str, float]:
    """Reduce the spans of a traced pass of ``n_tasks`` tasks to per-task layer metrics.

    Self time is a span's duration minus the durations of its direct
    children.  Per-iteration ratios divide by ``solver_iterations``, the
    descent iterations the solves of the pass reported.
    """
    n = len(tracer.start)
    ids = tracer.name_ids
    name_of, parent = tracer.name_of, tracer.parent
    dur = [tracer.end[i] - tracer.start[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        if parent[i] >= 0:
            child[parent[i]] += dur[i]

    def inside(span: str) -> list[bool]:
        # spans are numbered in opening order, so a parent precedes its children
        target = ids.get(span, -1)
        flags = [False] * n
        for i in range(n):
            p = parent[i]
            flags[i] = p >= 0 and (flags[p] or name_of[p] == target)
        return flags

    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for i in range(n):
        name = tracer.names[name_of[i]]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + dur[i] - child[i]

    def count_where(name: str, flags: list[bool]) -> int:
        target = ids.get(name, -1)
        return sum(1 for i in range(n) if flags[i] and name_of[i] == target)

    in_solve = inside("solver.solve_ground_state")
    in_nehari = inside("variational.nehari_project")
    in_mp = inside("solver.mountain_pass_path")
    solve_id = ids.get("solver.solve_ground_state", -1)
    solve_s = sum(dur[i] for i in range(n) if name_of[i] == solve_id)

    def per_task(x: float) -> float:
        return x / n_tasks

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m: dict[str, float] = {}
    for name in (
        "grid.from_values", "grid.values_from_spectrum", "operators.multiplier_symbol",
        "operators.apply_multiplier", "operators.h_alpha_norm_sq", "operators.gl_weights",
        "operators.fftconvolve", "operators.fractional_derivative", "nonlinearity.eval_f",
        "nonlinearity.weight", "nonlinearity.eval_F", "variational.energy",
        "variational.nehari_project", "variational.gradient",
    ):
        m[f"{name}.calls"] = per_task(calls.get(name, 0))
        m[f"{name}.self_ms"] = per_task(1e3 * self_s.get(name, 0.0))
    m["nonlinearity.eval_df.calls"] = per_task(calls.get("nonlinearity.eval_df", 0))
    m["grid.fft.calls"] = per_task(len(tracer.fft))
    m["grid.fft.points"] = per_task(sum(f[1] for f in tracer.fft))
    m["grid.fft.bytes_computed_mb"] = per_task(sum(f[2] for f in tracer.fft) / 2 ** 20)
    m["grid.fft.max_array_mb"] = max((f[3] for f in tracer.fft), default=0) / 2 ** 20
    fft_in_solve = sum(1 for f in tracer.fft if in_solve[f[0]])
    m["solver.fft_per_iter"] = ratio(fft_in_solve, solver_iterations)
    m["solver.iterations"] = per_task(solver_iterations)
    m["solver.ms_per_iter"] = ratio(1e3 * solve_s, solver_iterations)
    m["solver.projections_per_iter"] = ratio(
        count_where("variational.nehari_project", in_solve), solver_iterations
    )
    m["solver.vanishing_diagnostic.self_ms"] = per_task(1e3 * self_s.get("solver.vanishing_diagnostic", 0.0))
    m["solver.mountain_pass.self_ms"] = per_task(1e3 * self_s.get("solver.mountain_pass_path", 0.0))
    m["solver.mountain_pass.energy_calls"] = per_task(count_where("variational.energy", in_mp))
    m["variational.nehari_project.root_evals_per_call"] = ratio(
        count_where("nonlinearity.eval_f", in_nehari), calls.get("variational.nehari_project", 0)
    )
    m["cli.self_ms"] = per_task(1e3 * self_s.get("cli.run", 0.0))
    return m
