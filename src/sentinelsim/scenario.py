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

Text is parsed in blocks of about 64 KiB that end at a ``"\n"``, with one
``findall`` of plain event lines each: a time of 1 to 18 ASCII digits, an event word,
``distance`` with a plain decimal, spaces and tabs as blanks, and a ``"\n"``. A block
of such lines alone becomes events without ``ScenarioEvent``'s checks, which the match
ensures. Other blocks (a comment, ``set`` line, other blank or line end, any error),
and a last line with no ``"\n"``, take the line loop, which reads every line by tokens.
"""

from __future__ import annotations

import re
from operator import add, attrgetter
from types import MappingProxyType
from typing import Dict, List, Mapping, NamedTuple, Tuple

from .config import coerce_value, ConfigError, integer, one_line
from .events import EventKind, ScenarioEvent, collector_paused, _unchecked_events


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

    def __reduce__(self):  # copy and pickle, any protocol, rebuild through __new__'s rules
        return type(self), (self.name, dict(self.overrides), self.events)


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
# path, which words its error. A digit run matches one way only: no quadratic retry. A row
# runs from a line start (^) through its "\n", with no other splitlines separator.
_PLAIN_ROW = re.compile(
    r"^[ \t]*(\d{1,18})[ \t]+(?:(arm|mode_button|press_down|press_up)"
    r"|door[ \t]+(open|close)|distance[ \t]+(\d+(?:\.\d*)?|\.\d+))[ \t]*\n",
    re.ASCII | re.MULTILINE,
)
_BLOCK = 1 << 16  # characters: beside the text, parsing holds one block's rows
_KIND_OF = {**_SIMPLE_EVENTS, **_DOOR_EVENTS, "": _DISTANCE_SAMPLE}  # by event + door word


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
    start, first = 0, 1  # a block's offset and its first line's number
    body = text.rfind("\n") + 1  # a last line with no "\n" is a block of its own
    while start < len(text):
        end = text.find("\n", min(start + _BLOCK, body) - 1) + 1 if start < body else len(text)
        rows = _PLAIN_ROW.findall(text, start, end) if end <= body else None
        if rows is not None and len(rows) == text.count("\n", start, end):  # each line a row
            start, first = end, first + len(rows)
            ats, words, doors, meters = zip(*rows)  # the match made every check __init__ would
            kinds = map(_KIND_OF.__getitem__, map(add, words, doors))
            events += _unchecked_events(list(map(int, ats)), kinds, meters)
            # freed first (kinds holds words, doors): the next findall reuses it; events stay packed
            del rows, ats, words, doors, meters, kinds
            continue
        lines = text[start:end].splitlines()
        for lineno, raw in enumerate(lines, start=first):
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
        start, first = end, first + len(lines)
    if errors:
        raise ScenarioError(errors)
    return Scenario(name=name, overrides=overrides, events=events)
