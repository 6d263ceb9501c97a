"""Flat key=value override handling shared by problem and optimizer configs.

Overrides arrive either as a mapping or as ``key=value`` strings (from the
CLI or a config file) and are applied onto dataclass-style config objects
with per-field type coercion.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Iterable, Mapping

from dynopt.errors import ConfigError

_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def parse_kv_pairs(pairs: Iterable[str]) -> dict[str, str]:
    """Parse ``key=value`` strings into a dict, rejecting malformed entries."""
    out: dict[str, str] = {}
    for raw in pairs:
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        if "=" not in text:
            raise ConfigError(f"expected key=value, got {raw!r}")
        key, value = text.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"empty key in override {raw!r}")
        out[key] = value.strip()
    return out


def parse_config_text(text: str) -> dict[str, str]:
    """Parse a flat key=value config file body (blank lines and # comments ok)."""
    return parse_kv_pairs(text.splitlines())


def coerce(value: Any, target_type: type) -> Any:
    """Coerce a raw override value to the type of a config field."""
    if isinstance(value, target_type) and not (
        target_type is int and isinstance(value, bool)
    ):
        return value
    if target_type is tuple:
        # a comma-separated string, or any sequence
        if isinstance(value, str):
            return tuple(part.strip() for part in value.split(",") if part.strip())
        return tuple(value)
    text = str(value).strip()
    if target_type is bool:
        low = text.lower()
        if low in _TRUE:
            return True
        if low in _FALSE:
            return False
        raise ConfigError(f"cannot interpret {value!r} as a boolean")
    try:
        if target_type is int:
            # tolerate float-shaped ints from config files, e.g. "10.0"
            as_float = float(text)
            as_int = int(as_float)
            if as_int != as_float:
                raise ValueError
            return as_int
        if target_type is float:
            return float(text)
    except (ValueError, OverflowError):  # int() of an infinity overflows
        raise ConfigError(f"cannot interpret {value!r} as {target_type.__name__}") from None
    if target_type is str:
        return text
    raise ConfigError(f"unsupported override type {target_type.__name__}")


def apply_overrides(config: Any, overrides: Mapping[str, Any] | None) -> Any:
    """Return a copy of a dataclass config with overrides applied.

    Unknown keys are rejected so that typos surface instead of silently
    running a different experiment.
    """
    if not overrides:
        return config
    fields = {f.name for f in dataclasses.fields(config)}
    changes: dict[str, Any] = {}
    for key, value in overrides.items():
        if key not in fields:
            raise ConfigError(
                f"unknown override {key!r} for {type(config).__name__}"
            )
        # every field has a non-None default, whose type is the target
        changes[key] = coerce(value, type(getattr(config, key)))
    return dataclasses.replace(config, **changes)
