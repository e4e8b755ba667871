"""Coordinator state machine.

Consumes scenario stimuli and link deliveries, keeps the arming mode,
starts recording jobs on presence detection, raises intrusion alerts on
beam breaks while armed, and applies pulse-password outcomes. Every
externally visible action is appended to a timestamped action log whose
rendered form is one tab-separated line per action:

    <t_ms>\\t<component>\\t<action>\\t<details>
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional

from . import pulselock
from .airframe import Frame, FrameType, LinkModel, decode_frame, encode_frame, hex_dump, transmit
from .config import CLIP_DURATION_MIN_MS
from .events import EventKind, Instant, ScenarioEvent
from .notify import Dispatcher, NotificationKind, build_notification
from .pulselock import AttemptOutcome, AttemptSession, PasswordSpec
from .rng import SplitMix64
from .sensors import UltrasonicConfig, distance_from_echo, echo_from_distance, presence_detect

# Wire source ids for the simulated nodes. The door node deliberately gets
# 0x02 so its empty intruder alert encodes to 7E 02 01 02 FC, an easy frame
# to eyeball in logs.
NODE_IDS = {"door": 0x02, "ultrasonic": 0x03, "console": 0x04, "operator": 0x05}
UNKNOWN_NODE_ID = 0x01


class SimulationOrderError(RuntimeError):
    """An event was dispatched with a timestamp earlier than its predecessor."""


class SystemMode(Enum):
    ARMED = "ARMED"
    DISARMED = "DISARMED"


@dataclass(frozen=True)
class RecordingJob:
    clip_id: str
    started_at: Instant
    duration_ms: int
    stored_ref: str


@dataclass(frozen=True)
class Action:
    at: Instant
    component: str
    action: str
    details: str

    def line(self) -> str:
        return f"{self.at}\t{self.component}\t{self.action}\t{self.details}"


@dataclass
class SystemState:
    mode: SystemMode = SystemMode.DISARMED
    active_recording: Optional[RecordingJob] = None
    pending_attempt: Optional[AttemptSession] = None
    last_presence_trigger: Optional[Instant] = None
    action_log: List[Action] = field(default_factory=list)


# Internal followup events the controller schedules for itself. The engine
# feeds them back through dispatch() in time order alongside scenario events.


@dataclass(frozen=True)
class ClipDone:
    at: Instant
    clip_id: str


@dataclass(frozen=True)
class AttemptDeadline:
    at: Instant
    token: int


@dataclass(frozen=True)
class FrameArrival:
    at: Instant
    data: bytes
    attempts: int


class Controller:
    """The coordinator plus the simulated sensor nodes feeding it."""

    def __init__(
        self,
        ultrasonic: UltrasonicConfig,
        password: PasswordSpec,
        link: LinkModel,
        dispatcher: Dispatcher,
        clip_duration_ms: int = CLIP_DURATION_MIN_MS,
        presence_to_authorities: bool = False,
    ):
        self.ultrasonic = ultrasonic
        self.password = password
        self.link = link
        self.dispatcher = dispatcher
        self.clip_duration_ms = clip_duration_ms
        self.presence_to_authorities = presence_to_authorities
        self.state = SystemState()
        self.clips: List[RecordingJob] = []
        self._rng = SplitMix64(link.rng_seed)
        self._door_open = False
        self._clip_seq = 0
        self._attempt_token = 0
        self._last_time: Optional[Instant] = None
        # source -> (frame, wire bytes, hex text), built on a node's first send
        self._node_frames: Dict[str, tuple] = {}
        self._frame_hex: Dict[bytes, str] = {}

    # -- event routing ----------------------------------------------------

    def dispatch(self, item) -> list:
        """Process one timestamped item; returns followups to schedule.

        Items must arrive in non-decreasing time order; anything else is a
        simulation bug and fails fast.
        """
        t = item.at
        if self._last_time is not None and t < self._last_time:
            raise SimulationOrderError(
                f"event at t={t} dispatched after t={self._last_time}"
            )
        self._last_time = t

        pending = self.state.pending_attempt
        if (
            pending is not None
            and t >= pending.end
            and type(item) is not AttemptDeadline
        ):
            # The schedule ran out before this event; decide the attempt at
            # its true end time so the log stays in order.
            self._finalize_pending()

        handler = self._ITEM_HANDLERS.get(type(item))
        if handler is None:
            raise TypeError(f"cannot dispatch {type(item).__name__}")
        return handler(self, item)

    def _dispatch_scenario(self, ev: ScenarioEvent) -> list:
        return self._KIND_HANDLERS[ev.kind](self, ev)

    def _on_arm(self, ev: ScenarioEvent) -> list:
        self.state.mode = SystemMode.ARMED
        self._log(ev.at, "controller", "ARMED", "mode=armed")
        return []

    def _on_door_open(self, ev: ScenarioEvent) -> list:
        if self._door_open:
            return []
        self._door_open = True
        return self._node_send_alert(ev.source, ev.at)

    def _on_door_close(self, ev: ScenarioEvent) -> list:
        self._door_open = False
        return []

    def _on_press_down(self, ev: ScenarioEvent) -> list:
        if self.state.pending_attempt is not None:
            self.state.pending_attempt.record_press(ev.at)
        return []

    def _on_press_up(self, ev: ScenarioEvent) -> list:
        return []

    def _dispatch_distance(self, ev: ScenarioEvent) -> list:
        t = ev.at
        # The echo round trip stays because it is not an identity: 68 of the
        # 401 centimetre distances from 0.00 to 4.00 m come back one ulp off.
        # With threshold_m=0.1, a 0.10 m sample ranges to 0.0999... and
        # triggers, so dropping the round trip would change reports.
        echo = echo_from_distance(ev.meters, self.ultrasonic)
        distance = distance_from_echo(echo, self.ultrasonic)
        if presence_detect(distance, self.ultrasonic, self.state.last_presence_trigger, t):
            self.state.last_presence_trigger = t
            self._log(
                t, "sensor", "PRESENCE_TRIGGER",
                f"source={ev.source} distance_m={distance:.3f}",
            )
            return self.on_presence(t)
        return []

    def _node_frame(self, source: str) -> tuple:
        """The constant alert frame of a node, its wire bytes and their hex."""
        node = self._node_frames.get(source)
        if node is None:
            frame = Frame(FrameType.INTRUDER_ALERT, NODE_IDS.get(source, UNKNOWN_NODE_ID))
            data = encode_frame(frame)
            node = self._node_frames[source] = (frame, data, hex_dump(data))
            self._frame_hex[data] = node[2]
        return node

    def _node_send_alert(self, source: str, t: Instant) -> list:
        frame, data, shown = self._node_frame(source)
        result = transmit(self.link, frame, t, self._rng)
        self._log(t, "link", "TX", f"src={source} frame={shown}")
        if result.delivered:
            return [FrameArrival(result.delivered_at, data, result.attempts)]
        self._log(t, "link", "DROP", f"frame={shown} attempts={result.attempts}")
        return []

    def _dispatch_arrival(self, arrival: FrameArrival) -> list:
        # decoding is the coordinator's checksum check, so it runs on every arrival
        frame = decode_frame(arrival.data)
        shown = self._frame_hex.get(arrival.data)
        if shown is None:
            shown = hex_dump(arrival.data)
        self._log(
            arrival.at, "link", "RX", f"frame={shown} attempts={arrival.attempts}"
        )
        if frame.frame_type is FrameType.INTRUDER_ALERT:
            self.on_beam_break(arrival.at)
        return []

    def _dispatch_deadline(self, deadline: AttemptDeadline) -> list:
        if self.state.pending_attempt is not None and deadline.token == self._attempt_token:
            self._finalize_pending()
        return []

    def _dispatch_clip_done(self, done: ClipDone) -> list:
        job = self.state.active_recording
        if job is None or job.clip_id != done.clip_id:
            return []
        self.state.active_recording = None
        notification = build_notification(
            NotificationKind.PRESENCE,
            done.at,
            attachment=job.clip_id,
            presence_to_authorities=self.presence_to_authorities,
        )
        self.dispatcher.dispatch(notification)
        recipients = ",".join(notification.ordered_recipients())
        self._log(
            done.at, "controller", "PRESENCE",
            f"clip={job.clip_id} recipients={recipients}",
        )
        return []

    def _on_mode_button(self, ev: ScenarioEvent) -> list:
        t = ev.at
        if self.state.pending_attempt is not None:
            raise pulselock.AttemptStateError(
                f"mode button at t={t}: a password attempt is already in progress"
            )
        session = pulselock.begin_attempt(self.password, t)
        self.state.pending_attempt = session
        self._attempt_token += 1
        self._log(
            t, "controller", "ATTEMPT_BEGIN",
            f"n={len(self.password)} end_ms={session.end}",
        )
        return [AttemptDeadline(session.end, self._attempt_token)]

    def _finalize_pending(self) -> None:
        session = self.state.pending_attempt
        outcome = session.finalize(session.end)
        self.on_attempt_outcome(outcome, session.end)

    # -- state transitions -------------------------------------------------

    def on_presence(self, t: Instant) -> list:
        """Start a recording job unless one is already running."""
        if self.state.active_recording is not None:
            return []
        self._clip_seq += 1
        clip_id = f"clip-{self._clip_seq:04d}"
        job = RecordingJob(
            clip_id=clip_id,
            started_at=t,
            duration_ms=self.clip_duration_ms,
            stored_ref=f"clips/{clip_id}.bin",
        )
        self.state.active_recording = job
        self.clips.append(job)
        self._log(
            t, "controller", "START_RECORDING",
            f"clip={clip_id} duration_ms={job.duration_ms}",
        )
        return [ClipDone(t + job.duration_ms, clip_id)]

    def on_beam_break(self, t: Instant) -> None:
        """React to an intruder alert: mail while armed, suppress otherwise."""
        if self.state.mode is SystemMode.ARMED:
            notification = build_notification(NotificationKind.INTRUSION, t)
            self.dispatcher.dispatch(notification)
            recipients = ",".join(notification.ordered_recipients())
            self._log(t, "controller", "INTRUSION", f"recipients={recipients}")
        else:
            self._log(
                t, "controller", "SUPPRESSED", "event=intruder_alert reason=disarmed"
            )

    def on_attempt_outcome(self, outcome: AttemptOutcome, t: Instant) -> None:
        """Apply a finalized password attempt and notify the owner either way."""
        self.state.pending_attempt = None
        if outcome.accepted:
            self.state.mode = SystemMode.DISARMED
            kind = NotificationKind.DEACTIVATION_SUCCEEDED
        else:
            kind = NotificationKind.DEACTIVATION_FAILED
        notification = build_notification(kind, t)
        self.dispatcher.dispatch(notification)
        trace = "".join(str(b) for b in outcome.trace)
        self._log(t, "controller", kind.value, f"trace={trace}")

    def _log(self, at: Instant, component: str, action: str, details: str) -> None:
        self.state.action_log.append(
            Action(at=at, component=component, action=action, details=details)
        )

    # Handler tables of plain functions, shared by every controller. Keeping
    # them on the class (not bound methods on the instance) means a
    # controller holds no reference cycle and is freed as soon as a run ends.
    _ITEM_HANDLERS = {
        ScenarioEvent: _dispatch_scenario,
        FrameArrival: _dispatch_arrival,
        ClipDone: _dispatch_clip_done,
        AttemptDeadline: _dispatch_deadline,
    }
    _KIND_HANDLERS = {
        EventKind.ARM: _on_arm,
        EventKind.DISTANCE_SAMPLE: _dispatch_distance,
        EventKind.DOOR_OPEN: _on_door_open,
        EventKind.DOOR_CLOSE: _on_door_close,
        EventKind.MODE_BUTTON: _on_mode_button,
        EventKind.PRESS_DOWN: _on_press_down,
        EventKind.PRESS_UP: _on_press_up,
    }
