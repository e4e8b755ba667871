"""Detector model: ultrasonic time-of-flight ranging.

The ultrasonic model converts echo round-trip times to distances (d = c*t/2)
and applies threshold-plus-cooldown presence detection. The functions read
their parameters from a validated ``SimConfig``, which holds the rules on
them. An echo that implies a distance beyond max_range_m clamps to
max_range_m, modeling a sensor timeout with nothing in range, and
retrigger_cooldown_ms suppresses repeat triggers from someone loitering in
front of the sensor. The door beam needs no model of its own: the
controller treats an open door as a broken beam.
"""

from __future__ import annotations

from typing import Optional

from .config import SimConfig
from .events import Instant


def distance_from_echo(echo_duration_s: float, cfg: SimConfig) -> float:
    """Distance in meters for a round-trip echo time, clamped to max_range_m."""
    return min(cfg.speed_of_sound * echo_duration_s / 2.0, cfg.max_range_m)


def echo_from_distance(distance_m: float, cfg: SimConfig) -> float:
    """Round-trip echo time in seconds that ranges back to distance_m.

    Inverse of distance_from_echo on [0, max_range_m]; used when turning
    scripted distances into sensor measurements, which
    ``engine.validate_events`` has already checked against max_range_m.
    """
    return 2.0 * distance_m / cfg.speed_of_sound


def presence_detect(
    distance_m: float,
    cfg: SimConfig,
    last_trigger: Optional[Instant],
    now: Instant,
) -> bool:
    """True when distance_m crosses below threshold_m and the cooldown allows it."""
    if distance_m >= cfg.threshold_m:
        return False
    return last_trigger is None or now - last_trigger >= cfg.retrigger_cooldown_ms
