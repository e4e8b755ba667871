"""Scenario runner: run() is prepare() then simulate().

prepare() layers the config and makes every check that must pass before the
first event, so an exception raised in simulate() is an internal fault.
simulate() touches no wall clock and no filesystem: identical (scenario,
seed, config) give byte-identical reports. The report is a run's only output:
the run counts its notifications, controller.notifications() builds them from
the report, and the CLI writes the --out files from them.

Dispatch order: scenario events in time order (ties keep scenario order),
merged with the controller's follow-ups (clip ends, attempt deadlines, frame
arrivals). At the same millisecond a scenario event precedes a follow-up,
and follow-ups keep the order in which they were scheduled. Controller.run
is that merge and dispatch, less the events that cannot act.

simulate() runs with the cyclic collector paused (events.collector_paused),
as parse_scenario and render_report do: a run makes no reference cycles.
"""

from __future__ import annotations

from itertools import compress, repeat
from operator import is_
from typing import Mapping, Optional

from . import rng
from .config import ConfigError, SimConfig, apply_overrides
from .controller import Controller
from .events import EventKind, collector_paused
from .report import RunReport
from .scenario import Scenario

# bound once: see events.py
_MODE_BUTTON = EventKind.MODE_BUTTON


def resolve_run_config(
    scenario: Scenario,
    base: Optional[SimConfig] = None,
    cli_overrides: Mapping = (),
) -> SimConfig:
    """Layer scenario ``set`` lines and CLI overrides over a base config."""
    cfg = base if base is not None else SimConfig()
    if scenario.overrides:
        cfg = apply_overrides(cfg, scenario.overrides)
    if cli_overrides:
        cfg = apply_overrides(cfg, cli_overrides)
    cfg.validate()
    return cfg


def validate_events(scenario: Scenario, cfg: SimConfig) -> None:
    """Check a scenario against its config: distances within max_range_m, and
    no mode_button while the previous password attempt still runs."""
    events = scenario.events
    times, meters = events.times, events.meters
    limit = cfg.max_range_m
    problems = []
    if max(filter(None, meters), default=0) > limit:  # in C; a zero cannot exceed the limit
        problems += [
            f"distance {m} m at t={t} exceeds max_range_m={limit}"
            for t, m in zip(times, meters)
            if m is not None and m > limit
        ]
    buttons = list(compress(times, map(is_, events.kinds, repeat(_MODE_BUTTON))))
    span = cfg.attempt_ms
    problems += [
        f"mode_button at t={t} comes while the attempt begun at t={s} runs until t={s + span}"
        for s, t in zip(buttons, buttons[1:])
        if t < s + span
    ]
    if problems:
        raise ConfigError("; ".join(problems))


def build_controller(cfg: SimConfig, seed: int) -> Controller:
    """The run's controller, built in a named step that per-layer timing sees."""
    return Controller(cfg, seed)


def prepare(
    scenario: Scenario,
    base: Optional[SimConfig] = None,
    cli_overrides: Mapping = (),
) -> SimConfig:
    """The validated config of a run, checked against its scenario."""
    cfg = resolve_run_config(scenario, base, cli_overrides)
    validate_events(scenario, cfg)
    return cfg


@collector_paused
def simulate(scenario: Scenario, cfg: SimConfig, seed: int = 0) -> RunReport:
    """Execute a prepared scenario to completion and return its report.

    The returned report owns everything observable about the run: the final
    mode, the action log, notification counts per kind and the clip
    manifest. The run's notifications are a function of it.
    """
    controller = build_controller(cfg, seed)

    # The controller's queue holds only its follow-ups; the scenario's event
    # columns, which Scenario keeps in time order, stream past it.
    events = scenario.events
    controller.run(events.times, events.kinds, events.meters)

    return RunReport(
        scenario=scenario.name,
        seed=seed,
        rng_algorithm=rng.ALGORITHM,
        final_mode=controller.mode.value,
        actions=tuple(controller.action_log),
        outbox_counts=controller.counts,
        clips=tuple(controller.clips),
        clip_bytes=cfg.clip_bytes,
    )


def run(
    scenario: Scenario,
    seed: int = 0,
    base_config: Optional[SimConfig] = None,
    *,
    cli_overrides: Mapping = (),
) -> RunReport:
    """Prepare a scenario, then simulate it."""
    return simulate(scenario, prepare(scenario, base_config, cli_overrides), seed)
