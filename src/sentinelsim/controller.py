"""Coordinator state machine.

``Controller.run`` takes a run's scenario stimuli in time order, as the
columns of times, kinds and meters, merged with the follow-ups the
controller pushes onto ``Controller.followups``; ``Controller.dispatch``
takes one item. The controller holds the run's state: the arming mode, the
clip being recorded on presence, the pending pulse-password attempt, and an
action log of every externally visible action, each logged as its rendered
line, which only ``action_fields`` reads back:

    <t_ms>\\t<component>\\t<action>\\t<details>

A run builds no notification but counts them per kind; ``notifications``
builds them from the action log and the clips after the run. An open door
sends DOOR_ALERT over the lossy link. A delivered alert comes back as a
``FrameArrival(at, attempts)`` follow-up, logged as RX and then as an
intrusion or, while disarmed, a suppression. Its bytes never vary, so the
coordinator's checksum check, a decode of those bytes, runs once, at import.
"""

from __future__ import annotations

from enum import Enum
from heapq import heappop
from itertools import repeat
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence

from . import pulselock
from .airframe import Frame, FrameType, decode_frame, encode_frame, hex_dump, transmit
from .config import SimConfig
from .events import EventKind, EventQueue, Instant, ScenarioEvent
from .notify import NotificationKind, build_notification, recipients_for
from .rng import SplitMix64
from .sensors import distance_from_echo, echo_from_distance, presence_detect

# The door-beam node is the only sensor on the radio, and its one frame is
# an empty intruder alert. Its source id 0x02 makes the wire bytes
# 7E 02 01 02 FC, an easy frame to eyeball in logs.
DOOR_FRAME = Frame(FrameType.INTRUDER_ALERT, 0x02)
DOOR_ALERT = encode_frame(DOOR_FRAME)
DOOR_ALERT_HEX = hex_dump(DOOR_ALERT)

# The coordinator's checksum check: a frame that fails it stops the import
# rather than a run.
if decode_frame(DOOR_ALERT) != DOOR_FRAME:
    raise RuntimeError(f"door alert {DOOR_ALERT_HEX} does not decode to {DOOR_FRAME}")

# Log details that never vary, built once; RX and DROP lines add the attempt count.
_TX_DETAILS = f"src=door frame={DOOR_ALERT_HEX}"
_ATTEMPTS_PREFIX = f"frame={DOOR_ALERT_HEX} attempts="
_INTRUSION_DETAILS = "recipients=" + ",".join(recipients_for(NotificationKind.INTRUSION))


class SimulationOrderError(RuntimeError):
    """An event was dispatched with a timestamp earlier than its predecessor."""


class SystemMode(Enum):
    ARMED = "ARMED"
    DISARMED = "DISARMED"


# bound once: see events.py
_ARMED, _DISARMED = SystemMode.ARMED, SystemMode.DISARMED
_DISTANCE_SAMPLE, _PRESS_UP = EventKind.DISTANCE_SAMPLE, EventKind.PRESS_UP
_PRESENCE = NotificationKind.PRESENCE
_KIND_OF = {kind._value_: kind for kind in NotificationKind}  # counts and actions use the value


class RecordingJob(NamedTuple):
    clip_id: str
    started_at: Instant
    duration_ms: int
    stored_ref: str


# namedtuple's generated __new__ is a Python function; tuple.__new__ builds the same object in C.
_new_tuple = tuple.__new__


def action_fields(lines: Iterable[str]) -> Iterator[List[str]]:
    """Each action line's fields ``[t, component, action, details]``, all strings,
    ``t`` in the decimal digits the handler wrote (``str(int)`` is ``int.__repr__``)."""
    return map(str.split, lines, repeat("\t"), repeat(3))


# Internal followup events the controller pushes onto its own followups
# queue, which run() hands back to the handlers among scenario events.


class ClipDone(NamedTuple):
    at: Instant
    clip_id: str


class AttemptDeadline(NamedTuple):
    """Guarantees an item at the attempt's end, where dispatch decides it."""

    at: Instant


class FrameArrival(NamedTuple):
    """The door alert reaching the coordinator after ``attempts`` sends."""

    at: Instant
    attempts: int


class Controller:
    """The coordinator plus the simulated sensor nodes feeding it.

    ``cfg`` must have passed ``SimConfig.validate``; ``seed`` seeds the
    link's loss draws. ``run`` and ``dispatch`` are the only public methods.
    ``counts`` maps each notification kind's value to how many were sent.
    """

    def __init__(self, cfg: SimConfig, seed: int):
        self.cfg = cfg
        self.counts: Dict[str, int] = dict.fromkeys(_KIND_OF, 0)
        to = recipients_for(_PRESENCE, cfg.presence_to_authorities)
        self._presence_details = " recipients=" + ",".join(to)
        self.mode = _DISARMED
        self.active_recording: Optional[RecordingJob] = None
        self.pending_attempt: Optional[pulselock.AttemptSession] = None
        self.last_presence_trigger: Optional[Instant] = None
        self.action_log: List[str] = []
        self._append = self.action_log.append  # bound to the list, so no cycle through self
        self.clips: List[RecordingJob] = []
        self.followups = EventQueue()
        self._rng = SplitMix64(seed)
        self._door_open = False
        self._last_time: Instant = -1  # before every item: instants are >= 0

    def dispatch(self, item) -> None:
        """Process one timestamped item, pushing any follow-up onto ``followups``.

        Items must arrive in non-decreasing time order; anything else is a
        simulation bug and fails fast.
        """
        t = item.at
        if t < self._last_time:
            raise SimulationOrderError(
                f"event at t={t} dispatched after t={self._last_time}"
            )
        self._last_time = t

        # The one point where an attempt is decided: by the first item at or
        # after its end, at that end, so the log stays in order. Its own
        # deadline is such an item; a stale deadline never is, because an
        # attempt begun at or after it ends strictly later (attempt_ms > 0).
        pending = self.pending_attempt
        if pending is not None and t >= pending.end:
            self._decide_attempt(pending)

        if type(item) is ScenarioEvent:
            key, data = item.kind, item.meters
        else:
            key, data = type(item), item
        try:
            handler = self._HANDLERS[key]
        except KeyError:
            raise TypeError(f"cannot dispatch {type(item).__name__}") from None
        handler(self, t, data)

    def run(
        self,
        times: Sequence[Instant],
        kinds: Sequence[EventKind],
        meters: Sequence[Optional[float]],
    ) -> None:
        """Dispatch time-ordered scenario events and every follow-up, in one loop.

        The events are three parallel columns: each event's time, kind and
        meters (None but for a distance sample). Before each event come the
        follow-ups due strictly earlier, so at the same millisecond a scenario
        event precedes a follow-up; those left after the last event go through
        ``dispatch``. Per item, the order check, the decision of a due attempt
        and the handler are dispatch's.

        The events that cannot act are skipped: every press_up, and every
        distance sample whose round-tripped range is not below threshold_m,
        tested with the handler's own sensor functions once per distinct
        meters value. Neither logs anything, and an attempt one of them would
        have decided is decided at its own end by its AttemptDeadline, with
        no log line in between, so the report is that of dispatching each.
        """
        cfg = self.cfg
        threshold = cfg.threshold_m
        below = {}  # meters -> whether its round-tripped range is below threshold_m
        handlers = self._HANDLERS  # read per run, not per item
        heap = self.followups._heap
        last = self._last_time
        for t, kind, m in zip(times, kinds, meters):
            if t < last:
                raise SimulationOrderError(f"event at t={t} dispatched after t={last}")
            last = t
            if kind is _PRESS_UP:
                continue
            if kind is _DISTANCE_SAMPLE:
                hit = below.get(m)
                if hit is None:
                    distance = distance_from_echo(echo_from_distance(m, cfg), cfg)
                    hit = below[m] = distance < threshold
                if not hit:
                    continue
            while heap and heap[0][0] < t:
                at, _, item = heappop(heap)
                pending = self.pending_attempt
                if pending is not None and at >= pending.end:
                    self._decide_attempt(pending)
                handlers[type(item)](self, at, item)
            pending = self.pending_attempt
            if pending is not None and t >= pending.end:
                self._decide_attempt(pending)
            handlers[kind](self, t, m)
        # the follow-ups still queued may be due before a skipped last event
        self._last_time = min(last, heap[0][0]) if heap else last
        while heap:
            self.dispatch(heappop(heap)[2])
        self._last_time = max(self._last_time, last)

    # Handlers take the item's time and its data: a scenario event's meters
    # (None but for a distance sample), or the follow-up itself.

    def _on_arm(self, t: Instant, meters: None) -> None:
        self.mode = _ARMED
        self._append(f"{t}\tcontroller\tARMED\tmode=armed")

    def _on_door_open(self, t: Instant, meters: None) -> None:
        if self._door_open:
            return
        self._door_open = True
        result = transmit(self.cfg, t, self._rng)
        self._append(f"{t}\tlink\tTX\t{_TX_DETAILS}")
        if result.delivered:
            self.followups.push(_new_tuple(FrameArrival, (result.delivered_at, result.attempts)))
        else:
            self._append(f"{t}\tlink\tDROP\t{_ATTEMPTS_PREFIX}{result.attempts}")

    def _on_door_close(self, t: Instant, meters: None) -> None:
        self._door_open = False

    def _on_press_down(self, t: Instant, meters: None) -> None:
        if self.pending_attempt is not None:
            self.pending_attempt.record_press(t)

    def _dispatch_distance(self, t: Instant, meters: float) -> None:
        # The echo round trip stays because it is not an identity: 68 of the
        # 401 centimetre distances from 0.00 to 4.00 m come back one ulp off.
        # With threshold_m=0.1, a 0.10 m sample ranges to 0.0999... and
        # triggers, so dropping the round trip would change reports.
        echo = echo_from_distance(meters, self.cfg)
        distance = distance_from_echo(echo, self.cfg)
        if not presence_detect(distance, self.cfg, self.last_presence_trigger, t):
            return
        self.last_presence_trigger = t
        self._append(f"{t}\tsensor\tPRESENCE_TRIGGER\t"
                     f"source=ultrasonic distance_m={distance + 0.0:.3f}")  # -0.0 + 0.0 is 0.0
        if self.active_recording is not None:
            return
        clip_id = f"clip-{len(self.clips) + 1:04d}"
        ref = f"clips/{clip_id}.bin"
        job = _new_tuple(RecordingJob, (clip_id, t, self.cfg.clip_duration_ms, ref))
        self.active_recording = job
        self.clips.append(job)
        self._append(f"{t}\tcontroller\tSTART_RECORDING\t"
                     f"clip={clip_id} duration_ms={job.duration_ms}")
        self.followups.push(_new_tuple(ClipDone, (t + job.duration_ms, clip_id)))

    def _dispatch_arrival(self, t: Instant, arrival: FrameArrival) -> None:
        # the frame is always DOOR_ALERT, whose checksum was checked at import
        self._append(f"{t}\tlink\tRX\t{_ATTEMPTS_PREFIX}{arrival.attempts}")
        if self.mode is _ARMED:
            self.counts["INTRUSION"] += 1
            self._append(f"{t}\tcontroller\tINTRUSION\t{_INTRUSION_DETAILS}")
        else:
            self._append(f"{t}\tcontroller\tSUPPRESSED\tevent=intruder_alert reason=disarmed")

    def _ignore(self, t: Instant, data) -> None:
        """A press release changes nothing; a deadline only lets dispatch see an attempt's end."""

    def _dispatch_clip_done(self, t: Instant, done: ClipDone) -> None:
        job = self.active_recording
        if job is None or job.clip_id != done.clip_id:
            return
        self.active_recording = None
        self.counts["PRESENCE"] += 1
        self._append(f"{t}\tcontroller\tPRESENCE\tclip={job.clip_id}{self._presence_details}")

    def _on_mode_button(self, t: Instant, meters: None) -> None:
        if self.pending_attempt is not None:
            raise pulselock.AttemptStateError(
                f"mode button at t={t}: a password attempt is already in progress"
            )
        session = pulselock.begin_attempt(self.cfg, t)
        self.pending_attempt = session
        self._append(f"{t}\tcontroller\tATTEMPT_BEGIN\t"
                     f"n={len(self.cfg.password)} end_ms={session.end}")
        self.followups.push(_new_tuple(AttemptDeadline, (session.end,)))

    def _decide_attempt(self, session: pulselock.AttemptSession) -> None:
        """Decide an ended attempt at its end and notify the owner either way."""
        t = session.end
        outcome = session.finalize(t)
        self.pending_attempt = None
        if outcome.accepted:
            self.mode = _DISARMED
            kind = "DEACTIVATION_SUCCEEDED"
        else:
            kind = "DEACTIVATION_FAILED"
        self.counts[kind] += 1
        self._append(f"{t}\tcontroller\t{kind}\ttrace={outcome.trace}")

    # One handler table of plain functions, keyed by a scenario event's kind
    # or a follow-up's type and shared by every controller. Keeping it on the
    # class (not bound methods on the instance) means a controller holds no
    # reference cycle and is freed as soon as a run ends.
    _HANDLERS = {
        EventKind.ARM: _on_arm,
        EventKind.DISTANCE_SAMPLE: _dispatch_distance,
        EventKind.DOOR_OPEN: _on_door_open,
        EventKind.DOOR_CLOSE: _on_door_close,
        EventKind.MODE_BUTTON: _on_mode_button,
        EventKind.PRESS_DOWN: _on_press_down,
        EventKind.PRESS_UP: _ignore,
        FrameArrival: _dispatch_arrival,
        ClipDone: _dispatch_clip_done,
        AttemptDeadline: _ignore,
    }


def notifications(actions: Iterable[str], clips: Sequence[RecordingJob], cfg: SimConfig) -> list:
    """The notifications a run sent, in order: one per INTRUSION, PRESENCE and
    DEACTIVATION_* action line, the k-th PRESENCE carrying the k-th clip."""
    clip_ids = iter([job.clip_id for job in clips])
    to_authorities = cfg.presence_to_authorities
    return [
        build_notification(kind, int(t), next(clip_ids) if kind is _PRESENCE else None,
                           presence_to_authorities=to_authorities)
        for t, _, action, _ in action_fields(actions) if (kind := _KIND_OF.get(action)) is not None
    ]
