"""Simulation clock units, external stimulus events and the ordered event queue.

All simulation time is integer milliseconds since scenario start. Items are
dispatched in ascending time order, and ties break by a fixed rule, which is
what makes runs replayable: a scenario event precedes a controller follow-up
at the same millisecond, scenario events at one millisecond keep their
scenario order, and follow-ups at one millisecond keep the order in which
they were scheduled.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Optional

# Milliseconds since scenario start. Plain ints so the clock never drifts.
Instant = int


class EventKind(Enum):
    """The closed vocabulary of external stimuli a scenario can produce."""

    ARM = "arm"
    DISTANCE_SAMPLE = "distance"
    DOOR_OPEN = "door_open"
    DOOR_CLOSE = "door_close"
    MODE_BUTTON = "mode_button"
    PRESS_DOWN = "press_down"
    PRESS_UP = "press_up"


# Default originating node per stimulus kind; the scenario grammar does not
# carry an explicit source column.
DEFAULT_SOURCES = {
    EventKind.ARM: "operator",
    EventKind.DISTANCE_SAMPLE: "ultrasonic",
    EventKind.DOOR_OPEN: "door",
    EventKind.DOOR_CLOSE: "door",
    EventKind.MODE_BUTTON: "console",
    EventKind.PRESS_DOWN: "console",
    EventKind.PRESS_UP: "console",
}


@dataclass(frozen=True)
class ScenarioEvent:
    """A timestamped external stimulus; construction checks its shape."""

    at: Instant
    kind: EventKind
    meters: Optional[float] = None
    source: str = ""

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError(f"negative time {self.at}")
        if self.kind is EventKind.DISTANCE_SAMPLE:
            if self.meters is None:
                raise ValueError("distance sample requires a meters value")
            if not self.meters >= 0:  # NaN fails too
                raise ValueError(f"distance must be >= 0, got {self.meters}")
        elif self.meters is not None:
            raise ValueError(f"{self.kind.value} event does not take a distance")
        if not self.source:
            object.__setattr__(self, "source", DEFAULT_SOURCES[self.kind])


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
        """Remove and return the earliest item, or None when empty."""
        if not self._heap:
            return None
        return heapq.heappop(self._heap)[2]

    def drain(self) -> Iterator:
        """Yield items in dispatch order until the queue is empty."""
        while self._heap:
            yield self.pop()

    def merge(self, stream: Iterable) -> Iterator:
        """Yield ``stream`` interleaved with this queue's items, then drain it.

        ``stream`` must already be in time order. Before each stream item the
        queued items due strictly earlier are yielded, so a stream item
        precedes queued items at the same time. Items pushed while the
        merge is being consumed are merged too.
        """
        heap = self._heap
        for item in stream:
            at = item.at
            while heap and heap[0][0] < at:
                yield self.pop()
            yield item
        yield from self.drain()

    def __len__(self) -> int:
        return len(self._heap)
