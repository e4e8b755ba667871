"""Scenario file parsing.

Grammar, one directive per line with ``#`` comments:

    set <key> <value>                 config override
    <t_ms> arm
    <t_ms> distance <meters>
    <t_ms> door open|close
    <t_ms> mode_button
    <t_ms> press_down
    <t_ms> press_up

A ``Scenario`` is immutable and compares by value. It stably sorts its
events by time when it is constructed, whether parsed or built by hand, so
same-time events keep their given (file) order, and it keeps a read-only
copy of its overrides. Its name must hold no line break (a ``ValueError``
otherwise). Parse errors are collected for the whole file and carry 1-based
line numbers.

One compiled match takes the plain event lines: a time of 1 to 18 ASCII
digits and an event word, ``distance`` with a plain decimal (``5``, ``5.``,
``.5``), and only spaces and tabs as blanks. Every other line (comments,
``set`` lines, other blanks, signs, underscores, exponents, longer times and
every error) takes the token path, which defines the grammar and words
every message.
"""

from __future__ import annotations

import re
from operator import attrgetter
from types import MappingProxyType
from typing import Dict, List, Mapping, NamedTuple, Tuple

from .config import coerce_value, ConfigError, integer, one_line
from .events import EventKind, ScenarioEvent, collector_paused


class ScenarioError(ValueError):
    """One or more scenario lines failed to parse."""

    def __init__(self, errors: List[Tuple[int, str]]):
        self.errors = list(errors)
        super().__init__(
            "; ".join(f"line {line}: {msg}" for line, msg in self.errors)
        )


class _ScenarioFields(NamedTuple):
    name: str
    overrides: Mapping[str, object]
    events: Tuple[ScenarioEvent, ...]


class Scenario(_ScenarioFields):
    __slots__ = ()

    def __new__(cls, name="scenario", overrides=(), events=()):
        # the report's one-line header carries the name: a line break would forge lines
        if not one_line(str(name)):
            raise ValueError(f"scenario name must hold no line break, got {name!r}")
        # the one home of time order: stable, so same-time events keep their order;
        # and a read-only copy: writing to the caller's dict or to s.overrides changes nothing
        events = tuple(sorted(events, key=attrgetter("at")))
        return tuple.__new__(cls, (name, MappingProxyType(dict(overrides)), events))

    @classmethod
    def _make(cls, iterable):
        # namedtuple's _make, and _replace through it, would skip __new__'s rules
        return cls(*iterable)


_SIMPLE_EVENTS = {
    "arm": EventKind.ARM,
    "mode_button": EventKind.MODE_BUTTON,
    "press_down": EventKind.PRESS_DOWN,
    "press_up": EventKind.PRESS_UP,
}
_DOOR_EVENTS = {"open": EventKind.DOOR_OPEN, "close": EventKind.DOOR_CLOSE}
_DISTANCE_SAMPLE = EventKind.DISTANCE_SAMPLE  # bound once: see events.py
# A line this matches means exactly what the token path makes of it. At most
# 18 digits keep int() under its digit limit: a longer time takes the token
# path, which words its error.
_PLAIN_EVENT = re.compile(
    r"[ \t]*(\d{1,18})[ \t]+(?:(arm|mode_button|press_down|press_up)"
    r"|door[ \t]+(open|close)|distance[ \t]+(\d+\.?\d*|\.\d+))[ \t]*",
    re.ASCII,
).fullmatch


def _parse_event_line(tokens: List[str]) -> ScenarioEvent:
    try:
        at = integer(tokens[0])
    except ValueError:
        raise ValueError(f"malformed time {tokens[0]!r}") from None
    word = tokens[1]
    if word in _SIMPLE_EVENTS:
        if len(tokens) > 2:
            raise ValueError(f"{word} takes no arguments")
        return ScenarioEvent(at, _SIMPLE_EVENTS[word])
    args = tokens[2:]  # sliced only for the events that take arguments
    if word == "distance":
        if len(args) != 1:
            raise ValueError("distance takes exactly one value in meters")
        try:
            meters = float(args[0])
        except ValueError:
            raise ValueError(f"malformed number {args[0]!r}") from None
        return ScenarioEvent(at, _DISTANCE_SAMPLE, meters)
    if word == "door":
        if len(args) == 1 and args[0] in _DOOR_EVENTS:
            return ScenarioEvent(at, _DOOR_EVENTS[args[0]])
        raise ValueError("door takes exactly one of: open, close")
    raise ValueError(f"unknown event {word!r}")


@collector_paused
def parse_scenario(text: str, name: str = "scenario") -> Scenario:
    """Parse scenario text, reporting every bad line rather than the first."""
    overrides: Dict[str, object] = {}
    events: List[ScenarioEvent] = []
    errors: List[Tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        plain = _PLAIN_EVENT(raw)
        if plain is not None:
            at, word, door, meters = plain.groups()
            if word is not None:
                events.append(ScenarioEvent(int(at), _SIMPLE_EVENTS[word]))
            elif door is not None:
                events.append(ScenarioEvent(int(at), _DOOR_EVENTS[door]))
            else:
                events.append(ScenarioEvent(int(at), _DISTANCE_SAMPLE, float(meters)))
            continue
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
            events.append(_parse_event_line(tokens))
        except ValueError as exc:
            errors.append((lineno, str(exc)))
    if errors:
        raise ScenarioError(errors)
    return Scenario(name=name, overrides=overrides, events=events)
