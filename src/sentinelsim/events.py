"""Simulation clock units, external stimulus events and the ordered event queue.

All simulation time is integer milliseconds since scenario start. Items are
dispatched in ascending time order, and ties break by a fixed rule, which is
what makes runs replayable: a scenario event precedes a controller follow-up
at the same millisecond, scenario events at one millisecond keep their
scenario order, and follow-ups at one millisecond keep the order in which
they were scheduled.

A stimulus is a time, a kind and, for a distance sample, meters. Each kind
has one fixed origin (the door-beam node, the ultrasonic sensor), so no
event carries a source.
"""

from __future__ import annotations

import functools
import gc
import heapq
from enum import Enum
from typing import NamedTuple, Optional

# Milliseconds since scenario start. Plain ints so the clock never drifts.
Instant = int


def collector_paused(fn):
    """Run ``fn`` with the process-wide cyclic collector off, then restore the caller's
    state: ``fn`` makes no reference cycles, so a collection inside it frees nothing."""

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()

    return paused


class EventKind(Enum):
    """The closed vocabulary of external stimuli a scenario can produce."""

    ARM = "arm"
    DISTANCE_SAMPLE = "distance"
    DOOR_OPEN = "door_open"
    DOOR_CLOSE = "door_close"
    MODE_BUTTON = "mode_button"
    PRESS_DOWN = "press_down"
    PRESS_UP = "press_up"

    # Members are singletons compared by identity, so identity hashing agrees
    # with equality. It runs in C, where Enum's own hash(name) is a Python
    # call paid on every handler lookup in Controller.run. Neither hash
    # is the same from one process to the next, so nothing may depend on the
    # order of a set of kinds.
    __hash__ = object.__hash__


# Python 3.11's EnumType.__getattr__ slows every EventKind.X, and .value is a Python
# property, so per-event code binds members once and reads the plain _value_.
_DISTANCE_SAMPLE = EventKind.DISTANCE_SAMPLE


def check_event(at: Instant, kind: EventKind, meters: Optional[float]) -> None:
    """The one home of an event's shape rules: raise ValueError unless (at, kind,
    meters) is an event. ``EventColumns``, the line loop and ``ScenarioEvent`` call it."""
    if type(at) is not int:  # not isinstance: a bool is an int
        raise ValueError(f"time must be an integer, got {at!r}")
    if at < 0:
        raise ValueError(f"negative time {at}")
    if type(kind) is not EventKind:
        raise ValueError(f"kind must be an EventKind, got {kind!r}")
    if kind is _DISTANCE_SAMPLE:
        if meters is None:
            raise ValueError("distance sample requires a meters value")
        if type(meters) not in (float, int):  # not isinstance: a bool is an int
            raise ValueError(f"meters must be a number, got {meters!r}")
        if not meters >= 0:  # NaN fails too
            raise ValueError(f"distance must be >= 0, got {meters}")
    elif meters is not None:
        raise ValueError(f"{kind._value_} event does not take a distance")


class CheckedRecord(tuple):
    """The base of a named tuple whose ``__new__`` checks its fields: ``_make``,
    ``_replace``, copies and pickles of every protocol all build it through them."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):  # namedtuple's own, and _replace through it, skip __new__
        return cls(*iterable)

    def __reduce__(self):  # else protocols 0 and 1 rebuild a tuple subclass without __new__
        return type(self), tuple(self)


class _ScenarioEventFields(NamedTuple):
    at: Instant
    kind: EventKind
    meters: Optional[float] = None


class ScenarioEvent(CheckedRecord, _ScenarioEventFields):
    """A checked ``(at, kind, meters)`` row for a hand-built ``Scenario``, which keeps
    only columns; construction checks it with ``check_event``. Equal and hashed by value."""

    __slots__ = ()

    def __new__(cls, at, kind, meters=None):
        check_event(at, kind, meters)
        return tuple.__new__(cls, (at, kind, meters))


class EventQueue:
    """Time-ordered queue over anything with an integer ``at`` attribute.

    Ties dequeue in insertion order, so a run is fully determined by what
    was pushed and when.
    """

    def __init__(self) -> None:
        self._heap: list = []
        self._seq = 0

    def push(self, item) -> None:
        heapq.heappush(self._heap, (item.at, self._seq, item))
        self._seq += 1

    def pop(self):
        """Remove and return the earliest item; the queue must not be empty."""
        return heapq.heappop(self._heap)[2]

    def __len__(self) -> int:
        return len(self._heap)
