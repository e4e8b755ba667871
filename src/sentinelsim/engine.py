"""Scenario runner: wires sensors, link, controller and notifications together.

run() is referentially transparent in (scenario, seed, config): it touches
no wall clock and no filesystem, so identical inputs give byte-identical
rendered reports. File outputs (report, outbox log, clip placeholders) are
the CLI layer's job.

Dispatch order: scenario events in time order (ties keep scenario order),
merged with the controller's follow-ups (clip ends, attempt deadlines, frame
arrivals). At the same millisecond a scenario event precedes a follow-up,
and follow-ups keep the order in which they were scheduled.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Mapping, Optional, Sequence

from . import rng
from .airframe import LinkModel
from .config import ConfigError, SimConfig, apply_overrides
from .controller import Controller
from .events import EventKind, EventQueue
from .notify import Dispatcher
from .pulselock import PasswordSpec
from .report import RunReport
from .scenario import Scenario
from .sensors import UltrasonicConfig


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
    problems = []
    buttons = []
    for ev in scenario.events:
        if ev.kind is EventKind.MODE_BUTTON:
            buttons.append(ev.at)
        elif ev.kind is EventKind.DISTANCE_SAMPLE and ev.meters > cfg.max_range_m:
            problems.append(
                f"distance {ev.meters} m at t={ev.at} exceeds max_range_m={cfg.max_range_m}"
            )
    password = PasswordSpec.from_string(cfg.password, cfg.pulse_period_ms, cfg.press_window_ms)
    span = password.attempt_ms
    buttons.sort()  # run dispatches in time order
    problems += [
        f"mode_button at t={t} comes while the attempt begun at t={s} runs until t={s + span}"
        for s, t in zip(buttons, buttons[1:])
        if t < s + span
    ]
    if problems:
        raise ConfigError("; ".join(problems))


def build_controller(cfg: SimConfig, seed: int, dispatcher: Dispatcher) -> Controller:
    ultrasonic = UltrasonicConfig(
        speed_of_sound=cfg.speed_of_sound,
        threshold_distance=cfg.threshold_m,
        max_range=cfg.max_range_m,
        retrigger_cooldown_ms=cfg.retrigger_cooldown_ms,
    )
    password = PasswordSpec.from_string(
        cfg.password, cfg.pulse_period_ms, cfg.press_window_ms
    )
    link = LinkModel(
        drop_probability=cfg.drop_probability,
        latency_ms=cfg.latency_ms,
        max_retries=cfg.max_retries,
        rng_seed=seed,
    )
    return Controller(
        ultrasonic=ultrasonic,
        password=password,
        link=link,
        dispatcher=dispatcher,
        clip_duration_ms=cfg.clip_duration_ms,
        presence_to_authorities=cfg.presence_to_authorities,
    )


def run(
    scenario: Scenario,
    seed: int = 0,
    base_config: Optional[SimConfig] = None,
    *,
    cli_overrides: Mapping = (),
    extra_sinks: Sequence = (),
) -> RunReport:
    """Execute a scenario to completion and return its report.

    The returned report owns everything observable about the run: the final
    mode, the action log, outbox tallies and the clip manifest. extra_sinks
    receive every notification; the dispatcher's outbox records each one
    whether or not any sink is given.
    """
    cfg = resolve_run_config(scenario, base_config, cli_overrides)
    validate_events(scenario, cfg)

    dispatcher = Dispatcher(extra_sinks)
    controller = build_controller(cfg, seed, dispatcher)

    # The queue holds only follow-ups; the scenario streams past it. The
    # stable sort is linear on parse_scenario's already-sorted events and
    # keeps hand-built scenarios with out-of-order events working.
    queue = EventQueue()
    for item in queue.merge(sorted(scenario.events, key=attrgetter("at"))):
        for followup in controller.dispatch(item):
            queue.push(followup)

    return RunReport(
        scenario=scenario.name,
        seed=seed,
        rng_algorithm=rng.ALGORITHM,
        final_mode=controller.state.mode.value,
        actions=tuple(controller.state.action_log),
        outbox_counts=dispatcher.outbox.counts(),
        clips=tuple(controller.clips),
        clip_bytes=cfg.clip_bytes,
    )
