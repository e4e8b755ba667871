"""Shared helpers: canned scenarios, a randomized scenario generator, and
helpers that only tests call (press patterns, scenario rendering, the
token-only reference parser, the one-item dispatch reference)."""

from __future__ import annotations

import random
import time
from typing import List

import pytest

_SUITE_T0 = time.perf_counter()

# acceptance tests append "<criterion>: PASS" lines here; the terminal
# summary prints them even when output capture is on
ACCEPTANCE_RESULTS = []


def pytest_terminal_summary(terminalreporter):
    for line in ACCEPTANCE_RESULTS:
        terminalreporter.write_line(f"ACCEPTANCE {line}")
    elapsed = time.perf_counter() - _SUITE_T0
    terminalreporter.write_line(
        f"total suite wall time: {elapsed:.1f}s (acceptance budget: 60s)"
    )

from sentinelsim.config import ConfigError, SimConfig, coerce_value, decimal, integer
from sentinelsim.controller import Controller, SimulationOrderError
from sentinelsim.events import EventKind, Instant, ScenarioEvent
from sentinelsim.pulselock import AttemptOutcome, AttemptSession
from sentinelsim.scenario import Scenario, ScenarioError

# characters str.splitlines breaks on, beyond the plain line feed: no mail
# address or scenario name may hold one
LINE_BREAKS = ["\n", "\r", "\x85", "\u2028"]

BREAKIN_TEXT = """\
set threshold_m 1.0
0 arm
1000 distance 3.5
2000 distance 0.8
5000 door open
"""

# presses land mid-window for "1100101" started at t=1000 (pulses 1, 2, 5, 7)
DEACTIVATE_TEXT = """\
0 arm
1000 mode_button
1250 press_down
1300 press_up
2250 press_down
2300 press_up
5250 press_down
7250 press_down
9000 door open
"""


@pytest.fixture
def breakin_scenario():
    from sentinelsim.scenario import parse_scenario

    return parse_scenario(BREAKIN_TEXT, name="breakin")


@pytest.fixture
def deactivate_scenario():
    from sentinelsim.scenario import parse_scenario

    return parse_scenario(DEACTIVATE_TEXT, name="deactivate")


def random_scenario(seed: int, n_events: int = 40, max_range: float = 4.0) -> Scenario:
    """A structurally valid random event stream.

    Times strictly increase and mode_button is only pressed when no attempt
    can still be running, so generated scenarios never hit state errors.
    """
    rnd = random.Random(seed)
    t = 0
    door_open = False
    attempt_end = -1
    events = []
    for _ in range(n_events):
        t += rnd.randint(1, 2500)
        kinds = ["arm", "distance", "distance", "door", "press_down", "press_up"]
        if t > attempt_end:
            kinds.append("mode_button")
        kind = rnd.choice(kinds)
        if kind == "arm":
            events.append(ScenarioEvent(at=t, kind=EventKind.ARM))
        elif kind == "distance":
            meters = round(rnd.uniform(0.0, max_range), 3)
            events.append(
                ScenarioEvent(at=t, kind=EventKind.DISTANCE_SAMPLE, meters=meters)
            )
        elif kind == "door":
            door_open = not door_open
            ek = EventKind.DOOR_OPEN if door_open else EventKind.DOOR_CLOSE
            events.append(ScenarioEvent(at=t, kind=ek))
        elif kind == "mode_button":
            events.append(ScenarioEvent(at=t, kind=EventKind.MODE_BUTTON))
            attempt_end = t + 6 * 1000 + 500
        elif kind == "press_down":
            events.append(ScenarioEvent(at=t, kind=EventKind.PRESS_DOWN))
        else:
            events.append(ScenarioEvent(at=t, kind=EventKind.PRESS_UP))
    return Scenario(name=f"fuzz-{seed}", events=tuple(events))


def columns(events):
    """The (times, kinds, meters) columns of ``ScenarioEvent``s, in their given order,
    for ``Controller.run``."""
    events = list(events)
    return [e.at for e in events], [e.kind for e in events], [e.meters for e in events]


def event_rows(scenario: Scenario):
    """A scenario's events as ``ScenarioEvent``s, in time order, read off its columns."""
    events = scenario.events
    return list(map(ScenarioEvent, events.times, events.kinds, events.meters))


def dispatch_one(controller: Controller, item):
    """The one-item reference for ``Controller.run``'s steps. A ``ScenarioEvent`` gets the
    order check, then its kind's handler (press_up has none); a follow-up goes to
    ``controller.dispatch``. Returns what the handler returns."""
    if type(item) is not ScenarioEvent:
        return controller.dispatch(item)
    t = item.at
    if t < controller._last_time:
        raise SimulationOrderError(f"event at t={t} dispatched after t={controller._last_time}")
    controller._last_time = t
    if item.kind is not EventKind.PRESS_UP:
        return Controller._HANDLERS[item.kind](controller, t, item.meters)


def password_config(
    password: str = "1100101", period: int = 1000, window: int = 500
) -> SimConfig:
    """A validated config with this password and pulse timing."""
    cfg = SimConfig(password=password, pulse_period_ms=period, press_window_ms=window)
    cfg.validate()
    return cfg


def mid_window_press_times(
    cfg: SimConfig, pattern: int, start: Instant = 0
) -> List[Instant]:
    """Press times for a candidate entry, pressing mid-window for each 1 bit.

    Bit k of ``pattern`` (value ``1 << k``) corresponds to pulse k.
    """
    half = cfg.press_window_ms // 2
    return [
        start + k * cfg.pulse_period_ms + half
        for k in range(len(cfg.password))
        if pattern >> k & 1
    ]


def run_pattern(cfg: SimConfig, pattern: int, start: Instant = 0) -> AttemptOutcome:
    """Drive a full attempt for one mid-window press pattern."""
    session = AttemptSession(cfg, start)
    for t in mid_window_press_times(cfg, pattern, start):
        session.record_press(t)
    return session.finalize(session.end)


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_scenario(scenario: Scenario) -> str:
    """Normalized dump that parses back to an equal Scenario."""
    lines = [f"# scenario: {scenario.name}"]
    for key, value in scenario.overrides.items():
        lines.append(f"set {key} {_format_value(value)}")
    events = scenario.events
    for at, kind, meters in zip(events.times, events.kinds, events.meters):
        if kind is EventKind.DISTANCE_SAMPLE:
            lines.append(f"{at} distance {repr(meters)}")
        elif kind is EventKind.DOOR_OPEN:
            lines.append(f"{at} door open")
        elif kind is EventKind.DOOR_CLOSE:
            lines.append(f"{at} door close")
        else:
            lines.append(f"{at} {kind.value}")
    return "\n".join(lines) + "\n"


_REFERENCE_SIMPLE = {
    "arm": EventKind.ARM,
    "mode_button": EventKind.MODE_BUTTON,
    "press_down": EventKind.PRESS_DOWN,
    "press_up": EventKind.PRESS_UP,
}
_REFERENCE_DOOR = {"open": EventKind.DOOR_OPEN, "close": EventKind.DOOR_CLOSE}


def _reference_event(tokens: List[str]) -> ScenarioEvent:
    try:
        at = integer(tokens[0])
    except ValueError:
        raise ValueError(f"malformed time {tokens[0]!r}") from None
    word, args = tokens[1], tokens[2:]
    if word in _REFERENCE_SIMPLE:
        if args:
            raise ValueError(f"{word} takes no arguments")
        return ScenarioEvent(at=at, kind=_REFERENCE_SIMPLE[word])
    if word == "distance":
        if len(args) != 1:
            raise ValueError("distance takes exactly one value in meters")
        try:
            meters = decimal(args[0])
        except ValueError:
            raise ValueError(f"malformed number {args[0]!r}") from None
        return ScenarioEvent(at=at, kind=EventKind.DISTANCE_SAMPLE, meters=meters)
    if word == "door":
        if len(args) == 1 and args[0] in _REFERENCE_DOOR:
            return ScenarioEvent(at=at, kind=_REFERENCE_DOOR[args[0]])
        raise ValueError("door takes exactly one of: open, close")
    raise ValueError(f"unknown event {word!r}")


def reference_parse_scenario(text: str, name: str = "scenario") -> Scenario:
    """scenario.parse_scenario as it was with every line on the token path."""
    overrides = {}
    events = []
    errors = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        if tokens[0] == "set":
            if len(tokens) < 3:
                errors.append((lineno, "set requires a key and a value"))
                continue
            key, value = tokens[1], " ".join(tokens[2:])
            try:
                overrides[key] = coerce_value(key, value)
            except ConfigError as exc:
                errors.append((lineno, str(exc)))
            continue
        if len(tokens) < 2:
            errors.append((lineno, f"unknown directive {tokens[0]!r}"))
            continue
        try:
            events.append(_reference_event(tokens))
        except ValueError as exc:
            errors.append((lineno, str(exc)))
    if errors:
        raise ScenarioError(errors)
    return Scenario(name=name, overrides=overrides, events=events)
