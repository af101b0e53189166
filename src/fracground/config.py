"""Flat `key = value` run configuration with dotted keys.

The format is deliberately plain text: one assignment per line, `#` starts a
comment, booleans are true/false.  Unknown keys are rejected so typos cannot
silently fall back to defaults, and the fully resolved mapping (defaults
included) is echoed into every run manifest.
"""

from __future__ import annotations

from typing import Any

from .nonlinearity import NonlinearitySpec, Perturbation, SampleBox
from .solver import InitSpec, SolveConfig

__all__ = [
    "ConfigError",
    "DEFAULTS",
    "parse_config_text",
    "load_config",
    "build_spec",
    "build_sample_box",
    "build_solve_config",
]


class ConfigError(ValueError):
    """Malformed configuration; the message names the offending key."""


def _as_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


# key -> (default, converter); each default is read from the dataclass that owns it
DEFAULTS: dict[str, tuple[Any, Any]] = {
    "L": (SolveConfig.half_width, float),
    "N": (SolveConfig.n_points, int),
    "alpha": (SolveConfig.alpha, float),
    "autonomous": (SolveConfig.autonomous, _as_bool),
    "p": (NonlinearitySpec.p, float),
    "theta": (NonlinearitySpec.theta, float),
    "p0": (NonlinearitySpec.p0, float),
    "a.kind": (Perturbation.kind, str),
    "a.amplitude": (Perturbation.amplitude, float),
    "a.width": (Perturbation.width, float),
    "init.kind": (InitSpec.kind, str),
    "init.center": (InitSpec.center, float),
    "init.width": (InitSpec.width, float),
    "init.amplitude": (InitSpec.amplitude, float),
    "init.path": (InitSpec.path, str),
    "tau": (SolveConfig.step, float),
    "max_iters": (SolveConfig.max_iters, int),
    "residual_tol": (SolveConfig.residual_tol, float),
    "recentre": (SolveConfig.recentre, _as_bool),
    "window_radius": (SolveConfig.window_radius, float),
    "seed": (0, int),
    "fiber.sigma_min": (0.01, float),
    "fiber.sigma_max": (10.0, float),
    "fiber.count": (200, int),
    "hyp.t_max": (SampleBox.t_max, float),
    "hyp.xi_max": (SampleBox.xi_max, float),
    "hyp.n_samples": (SampleBox.n_samples, int),
}


def parse_config_text(text: str, source: str = "<config>") -> dict[str, Any]:
    """Parse assignments into typed values, rejecting unknown keys."""
    out: dict[str, Any] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw_line!r}")
        key, raw_value = (part.strip() for part in line.split("=", 1))
        if key not in DEFAULTS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        _, convert = DEFAULTS[key]
        try:
            out[key] = convert(raw_value)
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key!r}: {exc}") from exc
    return out


def load_config(path: str | None, overrides: list[str]) -> dict[str, Any]:
    """Merge defaults, an optional config file, and --set overrides."""
    resolved = {key: default for key, (default, _) in DEFAULTS.items()}
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            resolved.update(parse_config_text(fh.read(), source=path))
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        resolved.update(parse_config_text(item, source="--set"))
    return resolved


def build_spec(values: dict[str, Any]) -> NonlinearitySpec:
    try:
        perturbation = Perturbation(
            kind=values["a.kind"],
            amplitude=values["a.amplitude"],
            width=values["a.width"],
        )
    except ValueError as exc:
        raise ConfigError(f"a.*: {exc}") from exc
    try:
        return NonlinearitySpec(
            p=values["p"], theta=values["theta"], p0=values["p0"], perturbation=perturbation
        )
    except ValueError as exc:
        raise ConfigError(f"p/theta/p0: {exc}") from exc


def build_sample_box(values: dict[str, Any]) -> SampleBox:
    try:
        return SampleBox(
            t_max=values["hyp.t_max"],
            xi_max=values["hyp.xi_max"],
            n_samples=values["hyp.n_samples"],
        )
    except ValueError as exc:
        raise ConfigError(f"hyp.*: {exc}") from exc


def build_solve_config(values: dict[str, Any]) -> SolveConfig:
    spec = build_spec(values)
    init = InitSpec(
        kind=values["init.kind"],
        center=values["init.center"],
        width=values["init.width"],
        amplitude=values["init.amplitude"],
        path=values["init.path"],
    )
    try:
        return SolveConfig(
            half_width=values["L"],
            n_points=values["N"],
            alpha=values["alpha"],
            spec=spec,
            autonomous=values["autonomous"],
            init=init,
            step=values["tau"],
            max_iters=values["max_iters"],
            residual_tol=values["residual_tol"],
            recentre=values["recentre"],
            window_radius=values["window_radius"],
        )
    except ValueError as exc:
        raise ConfigError(f"alpha/grid/solver: {exc}") from exc
