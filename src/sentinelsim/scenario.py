"""Scenario file parsing.

Grammar, one directive per line with ``#`` comments:

    set <key> <value>                 config override
    <t_ms> arm
    <t_ms> distance <meters>
    <t_ms> door open|close
    <t_ms> mode_button
    <t_ms> press_down
    <t_ms> press_up

A ``Scenario`` is immutable and compares by value. It keeps its events as
three parallel tuples, an ``EventColumns``: ``times`` (ints), ``kinds``
(``EventKind`` members) and ``meters`` (a distance sample's meters, ``None``
for other events), each event checked once, when the columns are built. They
are in time order: a stable sort runs when the columns are built, parsed or by
hand, and only if the times go back, so same-time events keep their given
(file) order. Read as a sequence, ``Scenario.events`` builds ``ScenarioEvent``s
on demand; its length costs nothing. A scenario keeps a read-only copy of its
overrides. Its name must be a ``str`` with no line break (a ``ValueError``
otherwise). Parse errors are collected for the whole file and carry 1-based line numbers.

Text is parsed in blocks of about 64 KiB that end at a ``"\n"``, with one
``findall`` of plain event lines each: a time of 1 to 18 ASCII digits, an event word,
``distance`` with a plain decimal, spaces and tabs as blanks, and a ``"\n"``. A block
of such lines alone extends the columns straight from the match's groups, in C; the
match admits only what ``events.check_event`` accepts. Other blocks (a comment, ``set``
line, other blank or line end, any error), and a last line with no ``"\n"``, take the
line loop, which reads every line by tokens and appends checked values.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from operator import add
from types import MappingProxyType
from typing import Dict, List, Mapping, NamedTuple, Optional, Tuple

from .config import coerce_value, ConfigError, integer, one_line
from .events import CheckedRecord, EventKind, ScenarioEvent, check_event, collector_paused


class ScenarioError(ValueError):
    """One or more scenario lines failed to parse."""

    def __init__(self, errors: List[Tuple[int, str]]):
        self.errors = list(errors)
        super().__init__(
            "; ".join(f"line {line}: {msg}" for line, msg in self.errors)
        )


class EventColumns(Sequence):
    """A scenario's events as parallel tuples in time order, each checked by ``check_event``
    when built; read as a sequence of ``ScenarioEvent``s built on demand. Equal to another
    with the same columns, or to a tuple of the same events."""

    __slots__ = ("times", "kinds", "meters")

    def __new__(cls, times, kinds, meters):
        times, kinds, meters = list(times), list(kinds), list(meters)
        if not len(times) == len(kinds) == len(meters):
            raise ValueError("event columns must have one length")
        for event in zip(times, kinds, meters):
            check_event(*event)
        return _sorted_columns(times, kinds, meters)

    def __len__(self) -> int:
        return len(self.times)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(ScenarioEvent, self.times[index], self.kinds[index], self.meters[index]))
        return ScenarioEvent(self.times[index], self.kinds[index], self.meters[index])

    def __iter__(self):
        return map(ScenarioEvent, self.times, self.kinds, self.meters)

    def __eq__(self, other):
        if type(other) is EventColumns:
            return (self.times, self.kinds, self.meters) == (other.times, other.kinds, other.meters)
        if type(other) is tuple:
            return tuple(self) == other
        return NotImplemented

    __hash__ = None

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete column {name!r}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        return repr(tuple(self))

    def __reduce__(self):  # pickle rebuilds the columns through __new__'s checks
        return EventColumns, (self.times, self.kinds, self.meters)

    def __deepcopy__(self, memo=None):  # immutable all through: a copy is the object itself
        return self

    __copy__ = __deepcopy__


def _sorted_columns(times: list, kinds: list, meters: list) -> EventColumns:
    """Columns of checked events, stored as tuples; the parser's come straight here."""
    # the one home of time order: stable, so same-time events keep their order,
    # and run only when the times go back (a sorted copy is the cheapest test, in C)
    if times != sorted(times):
        order = sorted(range(len(times)), key=times.__getitem__)
        times, kinds, meters = (list(map(col.__getitem__, order)) for col in (times, kinds, meters))
    columns = object.__new__(EventColumns)
    for name, column in zip(EventColumns.__slots__, (times, kinds, meters)):
        object.__setattr__(columns, name, tuple(column))  # __setattr__ refuses every write
    return columns


class _ScenarioFields(NamedTuple):
    name: str
    overrides: Mapping[str, object]
    events: EventColumns


class Scenario(CheckedRecord, _ScenarioFields):
    __slots__ = ()

    def __new__(cls, name="scenario", overrides=(), events=()):
        # the report's one-line header carries the name: a line break would forge lines
        if type(name) is not str:
            raise ValueError(f"scenario name must be a str, got {name!r}")
        if not one_line(name):
            raise ValueError(f"scenario name must hold no line break, got {name!r}")
        if type(events) is not EventColumns:  # (at, kind, meters) rows built by hand
            rows = tuple(events)
            for i, row in enumerate(rows):
                if len(row) != 3:
                    raise ValueError(f"event {i} must be an (at, kind, meters) row, got {row!r}")
            events = EventColumns(*zip(*rows)) if rows else EventColumns((), (), ())
        # a read-only copy: writing to the caller's dict or to s.overrides changes nothing
        return tuple.__new__(cls, (name, MappingProxyType(dict(overrides)), events))

    def __reduce__(self):  # the overrides as a dict: a mapping proxy does not pickle
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


def _parse_event_line(tokens: List[str]) -> Tuple[int, EventKind, Optional[float]]:
    try:
        at = integer(tokens[0])
    except ValueError:
        raise ValueError(f"malformed time {tokens[0]!r}") from None
    word = tokens[1]
    if word in _SIMPLE_EVENTS:
        if len(tokens) > 2:
            raise ValueError(f"{word} takes no arguments")
        kind, meters = _SIMPLE_EVENTS[word], None
    elif word == "distance":
        if len(tokens) != 3:
            raise ValueError("distance takes exactly one value in meters")
        try:
            meters = float(tokens[2])
        except ValueError:
            raise ValueError(f"malformed number {tokens[2]!r}") from None
        kind = _DISTANCE_SAMPLE
    elif word == "door":
        if len(tokens) != 3 or tokens[2] not in _DOOR_EVENTS:
            raise ValueError("door takes exactly one of: open, close")
        kind, meters = _DOOR_EVENTS[tokens[2]], None
    else:
        raise ValueError(f"unknown event {word!r}")
    check_event(at, kind, meters)
    return at, kind, meters


@collector_paused
def parse_scenario(text: str, name: str = "scenario") -> Scenario:
    """Parse scenario text, reporting every bad line rather than the first."""
    overrides: Dict[str, object] = {}
    times: List[int] = []
    kinds: List[EventKind] = []
    meters: List[Optional[float]] = []
    floats: Dict[str, Optional[float]] = {"": None}  # meters text -> value, one object each
    errors: List[Tuple[int, str]] = []
    start, first = 0, 1  # a block's offset and its first line's number
    body = text.rfind("\n") + 1  # a last line with no "\n" is a block of its own
    while start < len(text):
        end = text.find("\n", min(start + _BLOCK, body) - 1) + 1 if start < body else len(text)
        rows = _PLAIN_ROW.findall(text, start, end) if end <= body else None
        if rows is not None and len(rows) == text.count("\n", start, end):  # each line a row
            start, first = end, first + len(rows)
            ats, words, doors, texts = zip(*rows)  # the match admits only what check_event accepts
            times += map(int, ats)
            kinds += map(_KIND_OF.__getitem__, map(add, words, doors))
            new = set(texts).difference(floats)
            floats.update(zip(new, map(float, new)))
            meters += map(floats.__getitem__, texts)
            del rows, ats, words, doors, texts, new  # freed first: the next findall reuses it
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
                at, kind, value = _parse_event_line(tokens)
            except ValueError as exc:
                errors.append((lineno, str(exc)))
                continue
            times.append(at)
            kinds.append(kind)
            meters.append(value)
        start, first = end, first + len(lines)
    if errors:
        raise ScenarioError(errors)
    return Scenario(name, overrides, _sorted_columns(times, kinds, meters))
