"""Deterministic discrete-event simulator for a home trespasser detection
and alert system: ultrasonic presence sensing with clip recording, a
laser-beam door sensor behind a lossy wireless link, a pulse-sequence
deactivation password, and a mocked email notification pipeline.

The package root holds the library's three entry points; everything else is
reached through its submodule (``sentinelsim.notify``, ``sentinelsim.config``...).
"""

__version__ = "0.1.0"

from .engine import run
from .report import render_report
from .scenario import parse_scenario
