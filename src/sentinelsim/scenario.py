"""Scenario file parsing and normalized rendering.

Grammar, one directive per line with ``#`` comments:

    set <key> <value>                 config override
    <t_ms> arm
    <t_ms> distance <meters>
    <t_ms> door open|close
    <t_ms> mode_button
    <t_ms> press_down
    <t_ms> press_up

Events are stably sorted by time after parsing, so same-time events keep
their file order. Parse errors are collected for the whole file and carry
1-based line numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .config import coerce_value, ConfigError
from .events import EventKind, ScenarioEvent


class ScenarioError(ValueError):
    """One or more scenario lines failed to parse."""

    def __init__(self, errors: List[Tuple[int, str]]):
        self.errors = list(errors)
        super().__init__(
            "; ".join(f"line {line}: {msg}" for line, msg in self.errors)
        )


@dataclass(frozen=True, eq=True)
class Scenario:
    name: str = "scenario"
    overrides: Dict[str, object] = field(default_factory=dict)
    events: Tuple[ScenarioEvent, ...] = ()


_SIMPLE_EVENTS = {
    "arm": EventKind.ARM,
    "mode_button": EventKind.MODE_BUTTON,
    "press_down": EventKind.PRESS_DOWN,
    "press_up": EventKind.PRESS_UP,
}


def _parse_event_line(tokens: List[str]) -> ScenarioEvent:
    try:
        at = int(tokens[0])
    except ValueError:
        raise ValueError(f"malformed time {tokens[0]!r}") from None
    word = tokens[1]
    args = tokens[2:]
    if word in _SIMPLE_EVENTS:
        if args:
            raise ValueError(f"{word} takes no arguments")
        return ScenarioEvent(at=at, kind=_SIMPLE_EVENTS[word])
    if word == "distance":
        if len(args) != 1:
            raise ValueError("distance takes exactly one value in meters")
        try:
            meters = float(args[0])
        except ValueError:
            raise ValueError(f"malformed number {args[0]!r}") from None
        return ScenarioEvent(at=at, kind=EventKind.DISTANCE_SAMPLE, meters=meters)
    if word == "door":
        if args == ["open"]:
            return ScenarioEvent(at=at, kind=EventKind.DOOR_OPEN)
        if args == ["close"]:
            return ScenarioEvent(at=at, kind=EventKind.DOOR_CLOSE)
        raise ValueError("door takes exactly one of: open, close")
    raise ValueError(f"unknown event {word!r}")


def parse_scenario(text: str, name: str = "scenario") -> Scenario:
    """Parse scenario text, reporting every bad line rather than the first."""
    overrides: Dict[str, object] = {}
    events: List[ScenarioEvent] = []
    errors: List[Tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
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
            errors.append((lineno, f"unknown directive {line!r}"))
            continue
        try:
            events.append(_parse_event_line(tokens))
        except ValueError as exc:
            errors.append((lineno, str(exc)))
    if errors:
        raise ScenarioError(errors)
    events.sort(key=lambda ev: ev.at)  # stable: same-time events keep file order
    return Scenario(name=name, overrides=overrides, events=tuple(events))


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
    for ev in scenario.events:
        if ev.kind is EventKind.DISTANCE_SAMPLE:
            lines.append(f"{ev.at} distance {repr(ev.meters)}")
        elif ev.kind is EventKind.DOOR_OPEN:
            lines.append(f"{ev.at} door open")
        elif ev.kind is EventKind.DOOR_CLOSE:
            lines.append(f"{ev.at} door close")
        else:
            lines.append(f"{ev.at} {ev.kind.value}")
    return "\n".join(lines) + "\n"
