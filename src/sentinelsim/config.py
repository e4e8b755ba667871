"""Simulation configuration: defaults, parsing and validation.

Precedence, lowest to highest: built-in defaults, config file, scenario
``set`` lines, command-line overrides, as ``engine.resolve_run_config``
layers them. Values arriving as text (scenario lines, --set flags) are
coerced per key; a config file is a flat JSON object and may use native JSON
types or strings.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from typing import Dict, Mapping

from . import pulselock

CLIP_DURATION_MIN_MS = 5000
CLIP_DURATION_MAX_MS = 10000


class ConfigError(ValueError):
    """A configuration key, value or combination is invalid."""


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


@dataclass(frozen=True)
class SimConfig:
    """Every tunable of a run. Defaults describe the reference deployment."""

    # ultrasonic ranging
    threshold_m: float = 1.0
    max_range_m: float = 4.0
    speed_of_sound: float = 343.0
    retrigger_cooldown_ms: int = 5000
    # pulse password
    password: str = "1100101"
    pulse_period_ms: int = 1000
    press_window_ms: int = 500
    # recording
    clip_duration_ms: int = 5000
    clip_bytes: int = 1024
    # wireless link
    drop_probability: float = 0.0
    latency_ms: int = 0
    max_retries: int = 2
    # notifications
    presence_to_authorities: bool = False
    maildir: bool = False
    owner_email: str = "owner@example.com"
    authorities_email: str = "authorities@example.com"

    def validate(self) -> None:
        """Check every rule on config values. Each rule states what must hold,
        so a NaN, which fails every comparison, breaks it."""
        rules = (
            (self.threshold_m > 0, "threshold_m must be > 0"),
            (self.max_range_m >= self.threshold_m, "max_range_m must be >= threshold_m"),
            (self.speed_of_sound > 0, "speed_of_sound must be > 0"),
            (self.retrigger_cooldown_ms >= 0, "retrigger_cooldown_ms must be >= 0"),
            (
                CLIP_DURATION_MIN_MS <= self.clip_duration_ms <= CLIP_DURATION_MAX_MS,
                f"clip_duration_ms must be in [{CLIP_DURATION_MIN_MS}, "
                f"{CLIP_DURATION_MAX_MS}], got {self.clip_duration_ms}",
            ),
            (self.clip_bytes >= 0, "clip_bytes must be >= 0"),
            (0.0 <= self.drop_probability <= 1.0, "drop_probability must be in [0, 1]"),
            (self.latency_ms >= 0, "latency_ms must be >= 0"),
            (self.max_retries >= 0, "max_retries must be >= 0"),
        )
        problems = [message for holds, message in rules if not holds]
        try:
            pulselock.PasswordSpec.from_string(
                self.password, self.pulse_period_ms, self.press_window_ms
            )
        except ValueError as exc:
            problems.append(str(exc))
        if problems:
            raise ConfigError("; ".join(problems))

    def addresses(self) -> Dict[str, str]:
        return {"owner": self.owner_email, "authorities": self.authorities_email}


# key -> caster applied to values arriving as text
_CASTERS = {
    "threshold_m": float,
    "max_range_m": float,
    "speed_of_sound": float,
    "retrigger_cooldown_ms": int,
    "password": str,
    "pulse_period_ms": int,
    "press_window_ms": int,
    "clip_duration_ms": int,
    "clip_bytes": int,
    "drop_probability": float,
    "latency_ms": int,
    "max_retries": int,
    "presence_to_authorities": _parse_bool,
    "maildir": _parse_bool,
    "owner_email": str,
    "authorities_email": str,
}


def coerce_value(key: str, value):
    """Check a key is known and convert its value to the configured type."""
    if key not in _CASTERS:
        raise ConfigError(f"unknown config key {key!r}")
    caster = _CASTERS[key]
    if isinstance(value, str) and caster is not str:
        try:
            value = caster(value)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}") from None
    else:
        expected = bool if caster is _parse_bool else caster
        if expected is float and isinstance(value, int) and not isinstance(value, bool):
            try:
                value = float(value)
            except OverflowError:
                raise ConfigError(f"bad value for {key!r}: not a finite float") from None
        elif not isinstance(value, expected) or (
            expected in (int, float) and isinstance(value, bool)
        ):
            raise ConfigError(
                f"bad value for {key!r}: expected {expected.__name__}, got {value!r}"
            )
    # nan and inf pass every range check downstream, so stop them here
    if caster is float and not math.isfinite(value):
        raise ConfigError(f"bad value for {key!r}: must be finite, got {value!r}")
    return value


def apply_overrides(base: SimConfig, overrides: Mapping) -> SimConfig:
    """Layer a mapping of key -> value (text or typed) over a config."""
    coerced = {k: coerce_value(k, v) for k, v in overrides.items()}
    return dataclasses.replace(base, **coerced)


def load_config_file(path) -> Dict[str, object]:
    """Read a flat JSON object of overrides, validating keys and values."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config file must be a JSON object")
    return {k: coerce_value(k, v) for k, v in raw.items()}

