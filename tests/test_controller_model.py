"""Stateful oracle: Controller.dispatch against a small reference model.

A Hypothesis state machine feeds scenario events to a controller one at a
time, taking follow-ups off its queue by the engine's own tie rule: follow-ups
due strictly before a scenario event are dispatched first, and a scenario
event precedes the follow-ups at its own millisecond. After every step the
controller's mode, recording, pending attempt, presence cooldown, door
alerts and notification counts must match the model's. With latency_ms=0
and drop_probability=0 every door alert arrives, at its own send time.
"""

import heapq

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from sentinelsim.config import SimConfig
from sentinelsim.controller import Controller, SystemMode, action_fields
from sentinelsim.events import EventKind, ScenarioEvent
from sentinelsim.notify import NotificationKind

CFG = SimConfig(
    password="10",
    retrigger_cooldown_ms=2000,
    clip_duration_ms=5000,
    latency_ms=0,
    drop_probability=0.0,
)
CFG.validate()
ATTEMPT_MS = CFG.pulse_period_ms + CFG.press_window_ms


class Tick:
    """A stream item that is never dispatched: it only lets time pass."""

    def __init__(self, at):
        self.at = at


class Model:
    """What the controller should hold, from the rules the README states."""

    def __init__(self):
        self.mode = SystemMode.DISARMED
        self.recording = None  # (clip_id, started_at)
        self.attempt = None  # [started_at, bits as "0"/"1" characters, extraneous]
        self.last_trigger = None
        self.door_open = False
        self.alerts_sent = 0
        self.clips = 0
        self.counts = {kind.value: 0 for kind in NotificationKind}
        self._followups = []  # heap of (at, seq, kind, clip_id)
        self._seq = 0

    def _schedule(self, at, kind, clip_id=None):
        heapq.heappush(self._followups, (at, self._seq, kind, clip_id))
        self._seq += 1

    def _decide(self, t):
        """Decide a pending attempt once an item at or after its end comes."""
        if self.attempt is None or t < self.attempt[0] + ATTEMPT_MS:
            return
        _, bits, extraneous = self.attempt
        self.attempt = None
        if not extraneous and "".join(bits) == CFG.password:
            self.mode = SystemMode.DISARMED
            self.counts[NotificationKind.DEACTIVATION_SUCCEEDED.value] += 1
        else:
            self.counts[NotificationKind.DEACTIVATION_FAILED.value] += 1

    def advance(self, t):
        """Apply every follow-up due strictly before t."""
        while self._followups and self._followups[0][0] < t:
            at, _, kind, clip_id = heapq.heappop(self._followups)
            self._decide(at)
            if kind == "clip_done" and self.recording and self.recording[0] == clip_id:
                self.recording = None
                self.counts[NotificationKind.PRESENCE.value] += 1
            elif kind == "arrival" and self.mode is SystemMode.ARMED:
                self.counts[NotificationKind.INTRUSION.value] += 1

    def event(self, t, kind, meters=None):
        self.advance(t)
        self._decide(t)
        if kind is EventKind.ARM:
            self.mode = SystemMode.ARMED
        elif kind is EventKind.DISTANCE_SAMPLE:
            cooled = self.last_trigger is None or t - self.last_trigger >= CFG.retrigger_cooldown_ms
            if meters < CFG.threshold_m and cooled:
                self.last_trigger = t
                if self.recording is None:
                    self.clips += 1
                    self.recording = (f"clip-{self.clips:04d}", t)
                    self._schedule(t + CFG.clip_duration_ms, "clip_done", self.recording[0])
        elif kind is EventKind.DOOR_OPEN:
            if not self.door_open:
                self.door_open = True
                self.alerts_sent += 1
                self._schedule(t, "arrival")
        elif kind is EventKind.DOOR_CLOSE:
            self.door_open = False
        elif kind is EventKind.MODE_BUTTON:
            self.attempt = [t, ["0"] * len(CFG.password), False]
            self._schedule(t + ATTEMPT_MS, "deadline")
        elif kind is EventKind.PRESS_DOWN and self.attempt is not None:
            k, offset = divmod(t - self.attempt[0], CFG.pulse_period_ms)
            if k < len(CFG.password) and offset < CFG.press_window_ms:
                self.attempt[1][k] = "1"
            else:
                self.attempt[2] = True

    def attempt_runs_past(self, t):
        return self.attempt is not None and self.attempt[0] + ATTEMPT_MS > t


class ControllerMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.controller = Controller(CFG, 0)
        self.model = Model()
        self.now = 0

    def _feed(self, item):
        """Dispatch the follow-ups due before item, then item unless a tick."""
        queue = self.controller.followups
        while queue and queue._heap[0][0] < item.at:
            self.controller.dispatch(queue.pop())
        if not isinstance(item, Tick):
            self.controller.dispatch(item)

    def _event(self, kind, meters=None):
        self._feed(ScenarioEvent(at=self.now, kind=kind, meters=meters))
        self.model.event(self.now, kind, meters)

    # window edges and pulse periods, multiples of 250 (which every
    # follow-up delay is, so ties are common), and anything up to a second
    @rule(delta=st.one_of(
        st.sampled_from([0, 1, 499, 500, 1000, 2500, 5000]),
        st.integers(0, 24).map(lambda k: k * 250),
        st.integers(0, 1000),
    ))
    def advance_time(self, delta):
        self.now += delta
        self._feed(Tick(self.now))
        self.model.advance(self.now)

    @rule()
    def arm(self):
        self._event(EventKind.ARM)

    @rule(meters=st.sampled_from([0.25, 0.5, 0.99, 1.5, 3.0]))
    def distance(self, meters):
        self._event(EventKind.DISTANCE_SAMPLE, meters)

    @rule()
    def door_open(self):
        self._event(EventKind.DOOR_OPEN)

    @rule()
    def door_close(self):
        self._event(EventKind.DOOR_CLOSE)

    @precondition(lambda self: not self.model.attempt_runs_past(self.now))
    @rule()
    def mode_button(self):
        self._event(EventKind.MODE_BUTTON)

    @rule()
    def press_down(self):
        self._event(EventKind.PRESS_DOWN)

    @invariant()
    def matches_model(self):
        c, m = self.controller, self.model
        assert c.mode is m.mode
        job = c.active_recording
        assert (job and (job.clip_id, job.started_at)) == m.recording
        session = c.pending_attempt
        assert (session and [
            session.started_at, session.observed, session.extraneous_press
        ]) == m.attempt
        assert c.last_presence_trigger == m.last_trigger
        assert [a for _, _, a, _ in action_fields(c.action_log)].count("TX") == m.alerts_sent
        assert len(c.clips) == m.clips
        assert c.counts == m.counts


ControllerMachine.TestCase.settings = settings(
    max_examples=300, stateful_step_count=40, deadline=None
)
test_controller_matches_model = ControllerMachine.TestCase
