"""Simulation configuration: defaults, parsing and validation.

Precedence, lowest to highest: built-in defaults, config file, scenario
``set`` lines, command-line overrides, as ``engine.resolve_run_config``
layers them. Each key is a SimConfig field, declared nowhere else. Values
arriving as text (scenario lines, --set flags, strings in a config file) are
cast to the type of the field's default; other values keep their type, which
SimConfig.validate checks against the key's. The password is a config value
too: its four rules, and the length of an attempt (``SimConfig.attempt_ms``),
live here, and ``pulselock`` runs an attempt against a validated config.
"""

from __future__ import annotations

import json
import math
from typing import Dict, Mapping, NamedTuple

CLIP_DURATION_MIN_MS = 5000
CLIP_DURATION_MAX_MS = 10000
MAX_BITS = 32  # the longest password, in pulses


class ConfigError(ValueError):
    """A configuration key, value or combination is invalid."""


def integer(text: str) -> int:
    """The one integer grammar of text input: an optional ``-`` then ASCII digits
    (``int()`` alone also takes ``1_000``, ``+5``, padding and non-ASCII digits)."""
    # str methods, in C, and one test of an unsigned text: times are parsed per line
    if (text.isdigit() or text[:1] == "-" and text[1:].isdigit()) and text.isascii():
        return int(text)
    raise ValueError(f"expected an integer, got {text!r}")


def decimal(text: str) -> float:
    """The one decimal grammar of text input: what ``float()`` reads, in ASCII with no
    ``_`` and no padding (``float()`` alone also takes all three, as ``int()`` does)."""
    if text.isascii() and "_" not in text and text == text.strip():
        return float(text)
    raise ValueError(f"expected a number, got {text!r}")


def one_line(text: str) -> bool:
    """Whether ``text`` holds no character that ``str.splitlines`` breaks on."""
    return "".join(text.splitlines()) == text


def shown(path) -> str:
    """A path as an error message shows it: as is, or as its repr if it holds a line break."""
    return str(path) if one_line(str(path)) else repr(str(path))


def read_text(path) -> str:
    """A UTF-8 input file's text; a bad byte is a ValueError naming the file and line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:  # name the bad byte's line as the parser counts lines
        line = len((data[: exc.start].decode("utf-8") + "x").splitlines())
        raise ValueError(f"{shown(path)}: line {line}: not UTF-8 text ({exc.reason})") from None


def _parse_bool(text: str) -> bool:
    lowered = text.lower()  # the words in any case, but like a number's, with no padding
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


class SimConfig(NamedTuple):
    """Every tunable of a run. Defaults describe the reference deployment."""

    # ultrasonic ranging
    threshold_m: float = 1.0
    max_range_m: float = 4.0
    speed_of_sound: float = 343.0  # m/s, dry air at 20 C
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
        """Check every rule on config values. Each key's exact type is
        checked first (_KEYS; a bool is not a number). Each range rule states
        what must hold, so a NaN, which fails every comparison, breaks it; the
        float rules also bound their key below infinity, so ±inf does too."""
        mistyped = [
            f"{key} must be {name}, got {getattr(self, key)!r}"
            for key, (_, types, name) in _KEYS.items()
            if type(getattr(self, key)) not in types
        ]
        if mistyped:
            raise ConfigError("; ".join(mistyped))
        rules = (
            (0 < self.threshold_m < math.inf, "threshold_m must be > 0 and finite"),
            (
                self.threshold_m <= self.max_range_m < math.inf,
                "max_range_m must be >= threshold_m and finite",
            ),
            (0 < self.speed_of_sound < math.inf, "speed_of_sound must be > 0 and finite"),
            (self.retrigger_cooldown_ms >= 0, "retrigger_cooldown_ms must be >= 0"),
            (
                CLIP_DURATION_MIN_MS <= self.clip_duration_ms <= CLIP_DURATION_MAX_MS,
                f"clip_duration_ms must be in [{CLIP_DURATION_MIN_MS}, "
                f"{CLIP_DURATION_MAX_MS}], got {self.clip_duration_ms}",
            ),
            (0 <= self.clip_bytes < 2**63, "clip_bytes must be a file size in [0, 2^63)"),
            (0.0 <= self.drop_probability <= 1.0, "drop_probability must be in [0, 1]"),
            (self.latency_ms >= 0, "latency_ms must be >= 0"),
            (self.max_retries >= 0, "max_retries must be >= 0"),
            # each door opening makes up to max_retries + 1 link draws
            (self.max_retries <= 255, "max_retries must be <= 255"),
            # a line break in an address would start a new mail header
            (one_line(self.owner_email), "owner_email must hold no line break"),
            (one_line(self.authorities_email), "authorities_email must hold no line break"),
        )
        problems = [message for holds, message in rules if not holds]
        # the password's rules report only their first failure: a bad
        # password hides the messages of the pulse timing rules after it
        if self.password == "" or not set(self.password) <= {"0", "1"}:
            problems.append(f"password must be a non-empty string of 0/1, got {self.password!r}")
        elif len(self.password) > MAX_BITS:
            problems.append(f"password length must be in [1, {MAX_BITS}], got {len(self.password)}")
        elif not self.pulse_period_ms > 0:
            problems.append("pulse_period_ms must be > 0")
        elif not 0 < self.press_window_ms <= self.pulse_period_ms:
            problems.append(
                "press_window_ms must satisfy 0 < window <= period, got "
                f"window={self.press_window_ms} period={self.pulse_period_ms}"
            )
        if problems:
            raise ConfigError("; ".join(problems))

    @property
    def attempt_ms(self) -> int:
        """Length of a password attempt: its start to the end of the last pulse's window."""
        return (len(self.password) - 1) * self.pulse_period_ms + self.press_window_ms

    def addresses(self) -> Dict[str, str]:
        return {"owner": self.owner_email, "authorities": self.authorities_email}


# type of a field's default -> (caster for a value arriving as text, the exact
# types a value of that field may have, their name in messages). SimConfig's
# fields are the key table: each key is declared once, as a field with a default.
_BY_TYPE = {
    int: (integer, (int,), "an integer"),
    float: (decimal, (float, int), "a number"),
    bool: (_parse_bool, (bool,), "a boolean"),
    str: (str, (str,), "a string"),
}
_KEYS = {key: _BY_TYPE[type(value)] for key, value in SimConfig._field_defaults.items()}


def coerce_value(key: str, value):
    """Check a key is known and cast a text value to its key's type."""
    if key not in _KEYS:
        raise ConfigError(f"unknown config key {key!r}")
    caster = _KEYS[key][0]
    if isinstance(value, str) and caster is not str:
        try:
            value = caster(value)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}") from None
    elif caster is decimal and type(value) is int:
        try:
            value = float(value)
        except OverflowError:
            raise ConfigError(f"bad value for {key!r}: not a finite float") from None
    # SimConfig.validate rejects nan and inf too; stopping them here lets a
    # scenario parse error name the bad set line
    if type(value) is float and not math.isfinite(value):
        raise ConfigError(f"bad value for {key!r}: must be finite, got {value!r}")
    return value


def apply_overrides(base: SimConfig, overrides: Mapping) -> SimConfig:
    """Layer a mapping of key -> value (text or typed) over a config."""
    coerced = {k: coerce_value(k, v) for k, v in overrides.items()}
    return base._replace(**coerced)


def load_config_file(path) -> Dict[str, object]:
    """Read a flat JSON object of overrides for apply_overrides."""
    text = read_text(path)
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too deep, or an int past int()'s digit limit
        raise ConfigError(f"{shown(path)}: not valid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{shown(path)}: config file must be a JSON object")
    return raw

