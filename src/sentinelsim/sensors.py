"""Detector model: ultrasonic time-of-flight ranging.

The ultrasonic model converts echo round-trip times to distances (d = c*t/2)
and applies threshold-plus-cooldown presence detection. The door beam needs
no model of its own: the controller treats an open door as a broken beam.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .events import Instant


@dataclass(frozen=True)
class UltrasonicConfig:
    """Ranging parameters for one ultrasonic sensor.

    speed_of_sound defaults to dry air at 20 C. Echoes that imply a distance
    beyond max_range clamp to max_range, modeling a sensor timeout with
    nothing in range. retrigger_cooldown_ms suppresses repeat triggers from
    someone loitering in front of the sensor. Built from a validated
    ``SimConfig``, which holds the rules on these values.
    """

    speed_of_sound: float = 343.0
    threshold_distance: float = 1.0
    max_range: float = 4.0
    retrigger_cooldown_ms: int = 5000


def distance_from_echo(echo_duration_s: float, cfg: UltrasonicConfig) -> float:
    """Distance in meters for a round-trip echo time, clamped to max_range."""
    return min(cfg.speed_of_sound * echo_duration_s / 2.0, cfg.max_range)


def echo_from_distance(distance_m: float, cfg: UltrasonicConfig) -> float:
    """Round-trip echo time in seconds that ranges back to distance_m.

    Inverse of distance_from_echo on [0, max_range]; used when turning
    scripted distances into sensor measurements, which
    ``engine.validate_events`` has already checked against max_range.
    """
    return 2.0 * distance_m / cfg.speed_of_sound


def presence_detect(
    distance_m: float,
    cfg: UltrasonicConfig,
    last_trigger: Optional[Instant],
    now: Instant,
) -> bool:
    """True when distance_m crosses below the threshold and the cooldown allows it."""
    if distance_m >= cfg.threshold_distance:
        return False
    return last_trigger is None or now - last_trigger >= cfg.retrigger_cooldown_ms

