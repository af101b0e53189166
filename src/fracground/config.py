"""Flat `key = value` run configuration with dotted keys.

The format is deliberately plain text: one assignment per line, `#` starts a
comment, booleans are true/false.  Unknown keys are rejected so typos cannot
silently fall back to defaults, and the fully resolved mapping (defaults
included) is echoed into every run manifest.
"""

from __future__ import annotations

from typing import Any

from .nonlinearity import NonlinearitySpec, Perturbation
from .solver import InitSpec, SolveConfig

__all__ = [
    "ConfigError",
    "DEFAULTS",
    "parse_config_text",
    "load_config",
    "build_spec",
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


# key -> (owner dataclass, field, converter): the one table of keys
_KEYS: dict[str, tuple[type, str, Any]] = {
    "L": (SolveConfig, "half_width", float),
    "N": (SolveConfig, "n_points", int),
    "alpha": (SolveConfig, "alpha", float),
    "autonomous": (SolveConfig, "autonomous", _as_bool),
    "p": (NonlinearitySpec, "p", float),
    "theta": (NonlinearitySpec, "theta", float),
    "p0": (NonlinearitySpec, "p0", float),
    "a.kind": (Perturbation, "kind", str),
    "a.amplitude": (Perturbation, "amplitude", float),
    "a.width": (Perturbation, "width", float),
    "init.center": (InitSpec, "center", float),
    "init.width": (InitSpec, "width", float),
    "init.amplitude": (InitSpec, "amplitude", float),
    "init.path": (InitSpec, "path", str),
    "max_iters": (SolveConfig, "max_iters", int),
    "residual_tol": (SolveConfig, "residual_tol", float),
}

# key -> (default, converter), each default read from the field that owns the key
DEFAULTS: dict[str, tuple[Any, Any]] = {
    key: (getattr(owner, name), convert) for key, (owner, name, convert) in _KEYS.items()
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


def _build(owner: type, values: dict[str, Any], **parts: Any) -> Any:
    """The owner dataclass made from its keys' values and the nested parts it holds."""
    fields = {name: values[key] for key, (cls, name, _) in _KEYS.items() if cls is owner}
    return owner(**fields, **parts)


def build_spec(values: dict[str, Any]) -> NonlinearitySpec:
    return _build(NonlinearitySpec, values, perturbation=_build(Perturbation, values))


def build_solve_config(values: dict[str, Any]) -> SolveConfig:
    return _build(SolveConfig, values, spec=build_spec(values), init=_build(InitSpec, values))
