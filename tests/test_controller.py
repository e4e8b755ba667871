"""Coordinator state machine transitions and full dispatch traces."""

import re
import sys
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import columns, dispatch_one
from sentinelsim.config import ConfigError, SimConfig
from sentinelsim.controller import (
    DOOR_ALERT,
    AttemptDeadline,
    ClipDone,
    Controller,
    FrameArrival,
    SimulationOrderError,
    SystemMode,
    action_fields,
    notifications,
)
from sentinelsim.engine import run
from sentinelsim.events import EventKind, ScenarioEvent
from sentinelsim.notify import NotificationKind
from sentinelsim.pulselock import AttemptStateError
from sentinelsim.scenario import parse_scenario


class Sent:
    """The notifications a controller has sent so far, as a sink given them after the run reads them."""

    def __init__(self, controller):
        self.controller = controller

    @property
    def messages(self):
        c = self.controller
        return notifications(c.action_log, c.clips, c.cfg)


def make_controller(**kw):
    controller = Controller(SimConfig(**kw), 0)
    return controller, Sent(controller)


def scheduled(controller):
    """The follow-ups the controller has scheduled, taken off its queue in time order."""
    queue = controller.followups
    return [queue.pop() for _ in range(len(queue))]


def ev(at, kind, **kw):
    return ScenarioEvent(at=at, kind=kind, **kw)


def log_actions(controller):
    return [(int(t), action) for t, _, action, _ in action_fields(controller.action_log)]


def names(controller):
    return [action for _, _, action, _ in action_fields(controller.action_log)]


def attempt(c, presses, start=1000):
    """Begin an attempt at start, press at each time, then dispatch its deadline."""
    dispatch_one(c, ev(start, EventKind.MODE_BUTTON))
    [deadline] = scheduled(c)
    for t in presses:
        dispatch_one(c, ev(t, EventKind.PRESS_DOWN))
    c.dispatch(deadline)


class TestPresence:
    def test_starts_recording_and_schedules_completion(self):
        c, _ = make_controller()
        dispatch_one(c, ev(0, EventKind.ARM))
        dispatch_one(c, ev(2000, EventKind.DISTANCE_SAMPLE, meters=0.5))
        job = c.active_recording
        assert job is not None and job.started_at == 2000
        assert scheduled(c) == [ClipDone(2000 + job.duration_ms, job.clip_id)]
        assert log_actions(c)[1:] == [(2000, "PRESENCE_TRIGGER"), (2000, "START_RECORDING")]

    def test_second_presence_keeps_single_job(self):
        c, _ = make_controller(retrigger_cooldown_ms=0)
        dispatch_one(c, ev(2000, EventKind.DISTANCE_SAMPLE, meters=0.5))
        assert len(c.followups) == 1
        dispatch_one(c, ev(2100, EventKind.DISTANCE_SAMPLE, meters=0.5))
        assert len(c.followups) == 1
        assert log_actions(c)[-1] == (2100, "PRESENCE_TRIGGER")
        assert len(c.clips) == 1

    def test_records_even_while_disarmed(self):
        c, _ = make_controller()
        assert c.mode is SystemMode.DISARMED
        dispatch_one(c, ev(500, EventKind.DISTANCE_SAMPLE, meters=0.5))
        assert c.active_recording is not None


class TestBeamBreak:
    def test_armed_break_notifies_owner_and_authorities(self):
        c, sink = make_controller()
        dispatch_one(c, ev(0, EventKind.ARM))
        dispatch_one(c, ev(5000, EventKind.DOOR_OPEN))
        [arrival] = scheduled(c)
        c.dispatch(arrival)
        assert len(sink.messages) == 1
        n = sink.messages[0]
        assert n.kind is NotificationKind.INTRUSION
        assert n.recipients == ("owner", "authorities")
        assert n.created_at == 5000
        assert c.action_log[-1] == "5000\tcontroller\tINTRUSION\trecipients=owner,authorities"

    def test_disarmed_break_is_suppressed(self):
        c, sink = make_controller()
        c.dispatch(FrameArrival(at=5000, attempts=1))
        assert sink.messages == []
        assert log_actions(c) == [(5000, "RX"), (5000, "SUPPRESSED")]


class TestAttemptOutcome:
    def test_accepted_disarms_and_mails_owner(self):
        c, sink = make_controller(password="10")
        dispatch_one(c, ev(0, EventKind.ARM))
        attempt(c, [1250])
        assert c.mode is SystemMode.DISARMED
        assert c.pending_attempt is None
        assert sink.messages[-1].kind is NotificationKind.DEACTIVATION_SUCCEEDED
        assert sink.messages[-1].recipients == ("owner",)
        assert log_actions(c)[-1] == (2500, "DEACTIVATION_SUCCEEDED")

    def test_rejected_keeps_mode_and_mails_owner(self):
        c, sink = make_controller(password="10")
        dispatch_one(c, ev(0, EventKind.ARM))
        attempt(c, [])
        assert c.mode is SystemMode.ARMED
        assert sink.messages[-1].kind is NotificationKind.DEACTIVATION_FAILED

    def test_accept_while_disarmed_stays_disarmed(self):
        c, sink = make_controller(password="1")
        attempt(c, [1250])
        assert c.mode is SystemMode.DISARMED
        assert sink.messages[-1].kind is NotificationKind.DEACTIVATION_SUCCEEDED


class TestDispatchTraces:
    def test_breakin_pipeline(self):
        c, sink = make_controller()
        c.run(*columns([
            ev(0, EventKind.ARM),
            ev(2000, EventKind.DISTANCE_SAMPLE, meters=0.8),
            ev(5000, EventKind.DOOR_OPEN),
        ]))
        assert names(c) == [
            "ARMED",
            "PRESENCE_TRIGGER",
            "START_RECORDING",
            "TX",
            "RX",
            "INTRUSION",
            "PRESENCE",
        ]
        presence = sink.messages[-1]
        assert presence.kind is NotificationKind.PRESENCE
        assert presence.created_at == 2000 + c.cfg.clip_duration_ms
        assert presence.attachment == c.clips[0].clip_id

    def test_arm_only_scenario(self):
        c, sink = make_controller()
        c.run(*columns([ev(0, EventKind.ARM)]))
        assert log_actions(c) == [(0, "ARMED")]
        assert sink.messages == []

    def test_deactivation_then_door_open_is_suppressed(self):
        c, sink = make_controller()
        presses = [1250, 2250, 5250, 7250]  # pulses 1, 2, 5, 7 from t=1000
        events = [ev(0, EventKind.ARM), ev(1000, EventKind.MODE_BUTTON)]
        events += [ev(t, EventKind.PRESS_DOWN) for t in presses]
        events.append(ev(9000, EventKind.DOOR_OPEN))
        c.run(*columns(events))
        kinds = [n.kind for n in sink.messages]
        assert kinds == [NotificationKind.DEACTIVATION_SUCCEEDED]
        assert c.mode is SystemMode.DISARMED
        assert names(c).count("SUPPRESSED") == 1

    def test_wrong_password_keeps_system_armed(self):
        c, sink = make_controller()
        events = [
            ev(0, EventKind.ARM),
            ev(1000, EventKind.MODE_BUTTON),
            ev(1250, EventKind.PRESS_DOWN),  # only pulse 1
        ]
        c.run(*columns(events))
        assert sink.messages[-1].kind is NotificationKind.DEACTIVATION_FAILED
        assert c.mode is SystemMode.ARMED

    def test_door_close_never_alerts(self):
        c, sink = make_controller()
        c.run(*columns([
            ev(0, EventKind.ARM),
            ev(100, EventKind.DOOR_OPEN),
            ev(200, EventKind.DOOR_CLOSE),
        ]))
        assert [n.kind for n in sink.messages] == [NotificationKind.INTRUSION]

    def test_counts_include_zeros(self):
        c, sink = make_controller()
        c.run(*columns([ev(0, EventKind.ARM), ev(100, EventKind.DOOR_OPEN)]))
        assert [n.kind for n in sink.messages] == [NotificationKind.INTRUSION]
        assert list(c.counts.items()) == [
            ("PRESENCE", 0),
            ("INTRUSION", 1),
            ("DEACTIVATION_FAILED", 0),
            ("DEACTIVATION_SUCCEEDED", 0),
        ]

    def test_double_door_open_alerts_once(self):
        c, sink = make_controller()
        c.run(*columns([
            ev(0, EventKind.ARM),
            ev(100, EventKind.DOOR_OPEN),
            ev(200, EventKind.DOOR_OPEN),
        ]))
        assert len(sink.messages) == 1

    def test_reopening_after_close_alerts_again(self):
        c, sink = make_controller()
        c.run(*columns([
            ev(0, EventKind.ARM),
            ev(100, EventKind.DOOR_OPEN),
            ev(5000, EventKind.DOOR_CLOSE),
            ev(9000, EventKind.DOOR_OPEN),
        ]))
        assert len(sink.messages) == 2

    def test_dropped_alert_produces_no_notification(self):
        c, sink = make_controller(drop_probability=1.0, max_retries=2)
        c.run(*columns([ev(0, EventKind.ARM), ev(100, EventKind.DOOR_OPEN)]))
        assert sink.messages == []
        drop = [details for _, _, action, details in action_fields(c.action_log) if action == "DROP"]
        assert len(drop) == 1
        assert "attempts=3" in drop[0]

    def test_link_latency_delays_the_alert(self):
        c, sink = make_controller(latency_ms=40)
        c.run(*columns([ev(0, EventKind.ARM), ev(100, EventKind.DOOR_OPEN)]))
        assert sink.messages[0].created_at == 140

    def test_stray_press_is_ignored(self):
        c, sink = make_controller()
        c.run(*columns([ev(0, EventKind.ARM), ev(50, EventKind.PRESS_DOWN)]))
        assert sink.messages == []

    def test_press_up_is_accepted_and_ignored(self):
        c, _ = make_controller()
        c.run(*columns([
            ev(1000, EventKind.MODE_BUTTON),
            ev(1250, EventKind.PRESS_UP),
            ev(1300, EventKind.PRESS_DOWN),
        ]))
        # only the press_down registered: pulse 1 got its bit, nothing else
        finalized = [
            details for _, _, action, details in action_fields(c.action_log)
            if action.startswith("DEACTIVATION")
        ]
        assert finalized[-1] == "trace=1000000"

    def test_mode_button_during_attempt_is_state_error(self):
        c, _ = make_controller()
        with pytest.raises(AttemptStateError):
            c.run(*columns([
                ev(1000, EventKind.MODE_BUTTON),
                ev(1500, EventKind.MODE_BUTTON),
            ]))

    def test_press_at_schedule_end_finalizes_first(self):
        c, sink = make_controller(password="0")
        # schedule for "0" started at 1000 ends at 1500; the press at 1500
        # must not blow up, the attempt is decided first
        c.run(*columns([
            ev(1000, EventKind.MODE_BUTTON),
            ev(1500, EventKind.PRESS_DOWN),
        ]))
        assert sink.messages[-1].kind is NotificationKind.DEACTIVATION_SUCCEEDED

    @pytest.mark.parametrize("later, trace", [("", "1000000"), ("7500 press_down\n", "1100000")])
    def test_stale_deadline_does_not_decide_the_next_attempt(self, later, trace):
        # The first attempt ends at 6500, where a new one begins. Its deadline,
        # dispatched after the 6500 scenario events, must leave the second
        # attempt running until its own end at 13000, so a later press counts.
        report = run(parse_scenario(
            "0 arm\n0 mode_button\n250 press_down\n6500 mode_button\n6500 press_down\n" + later
        ))
        lines = [(int(t), action, details) for t, _, action, details in action_fields(report.actions)]
        assert lines[1:] == [
            (0, "ATTEMPT_BEGIN", "n=7 end_ms=6500"),
            (6500, "DEACTIVATION_FAILED", "trace=1000000"),
            (6500, "ATTEMPT_BEGIN", "n=7 end_ms=13000"),
            (13000, "DEACTIVATION_FAILED", f"trace={trace}"),
        ]

    def test_out_of_order_dispatch_fails_fast(self):
        c, _ = make_controller()
        c.dispatch(ClipDone(100, "clip-9999"))
        with pytest.raises(SimulationOrderError):
            c.dispatch(ClipDone(99, "clip-9999"))

    @pytest.mark.parametrize("kind", [EventKind.ARM, EventKind.PRESS_UP])
    def test_out_of_order_run_fails_fast(self, kind):
        # an event run skips is still checked, as dispatch would check it
        c, _ = make_controller()
        with pytest.raises(SimulationOrderError, match="t=99 dispatched after t=100"):
            c.run(*columns([ev(100, EventKind.ARM), ev(99, kind)]))

    def test_run_continues_from_the_last_dispatched_item(self):
        c, _ = make_controller()
        c.dispatch(ClipDone(100, "clip-9999"))
        with pytest.raises(SimulationOrderError):
            c.run(*columns([ev(99, EventKind.ARM)]))
        c.run(*columns([ev(100, EventKind.DOOR_OPEN)]))
        with pytest.raises(SimulationOrderError):
            c.dispatch(ClipDone(99, "clip-9999"))  # the alert's arrival at 100 was the last item

    def test_follow_ups_due_before_a_skipped_last_event_run_in_order(self):
        c, _ = make_controller(latency_ms=10)
        c.run(*columns([ev(0, EventKind.ARM), ev(0, EventKind.DOOR_OPEN), ev(50, EventKind.PRESS_UP)]))
        assert log_actions(c) == [(0, "ARMED"), (0, "TX"), (10, "RX"), (10, "INTRUSION")]
        with pytest.raises(SimulationOrderError, match="after t=50"):
            c.dispatch(ClipDone(49, "clip-9999"))

    def test_run_puts_scenario_events_before_follow_up_ties(self):
        c, _ = make_controller()
        for at, attempts in ((5, 3), (0, 1), (3, 2)):
            c.followups.push(FrameArrival(at, attempts))
        c.run(*columns([ev(0, EventKind.ARM), ev(5, EventKind.ARM)]))
        assert [(t, action) for t, action in log_actions(c) if action != "INTRUSION"] == [
            (0, "ARMED"), (0, "RX"), (3, "RX"), (5, "ARMED"), (5, "RX"),
        ]
        rx = [details[-1] for _, _, action, details in action_fields(c.action_log) if action == "RX"]
        assert rx == ["1", "2", "3"]
        assert not c.followups

    def test_run_takes_follow_ups_scheduled_during_the_run(self):
        c, _ = make_controller(latency_ms=4, drop_probability=0.0)
        c.run(*columns([
            ev(0, EventKind.ARM),
            ev(0, EventKind.DOOR_OPEN),
            ev(10, EventKind.DOOR_CLOSE),
            ev(10, EventKind.DOOR_OPEN),
        ]))
        assert log_actions(c) == [
            (0, "ARMED"), (0, "TX"), (4, "RX"), (4, "INTRUSION"),
            (10, "TX"), (14, "RX"), (14, "INTRUSION"),
        ]
        assert not c.followups

    def test_presence_cooldown_limits_triggers(self):
        c, _ = make_controller(retrigger_cooldown_ms=5000)
        c.run(*columns([
            ev(0, EventKind.DISTANCE_SAMPLE, meters=0.5),
            ev(1000, EventKind.DISTANCE_SAMPLE, meters=0.5),
            ev(6000, EventKind.DISTANCE_SAMPLE, meters=0.5),
        ]))
        assert [t for t, action in log_actions(c) if action == "PRESENCE_TRIGGER"] == [0, 6000]

    def test_cooldown_zero_still_single_recording(self):
        c, sink = make_controller(retrigger_cooldown_ms=0)
        c.run(*columns([
            ev(2000, EventKind.DISTANCE_SAMPLE, meters=0.5),
            ev(2100, EventKind.DISTANCE_SAMPLE, meters=0.5),
        ]))
        assert len(c.clips) == 1
        assert len([n for n in sink.messages]) == 1


class TestInternalItems:
    def test_stale_clip_done_is_ignored(self):
        c, sink = make_controller()
        c.dispatch(ClipDone(at=100, clip_id="clip-9999"))
        assert sink.messages == []
        # another clip's ClipDone must not end the recording that runs
        dispatch_one(c, ev(2000, EventKind.DISTANCE_SAMPLE, meters=0.5))
        [done] = scheduled(c)
        c.dispatch(ClipDone(at=3000, clip_id="clip-9999"))
        assert c.active_recording.clip_id == done.clip_id
        assert names(c) == ["PRESENCE_TRIGGER", "START_RECORDING"]
        assert sink.messages == []

    def test_door_alert_is_checked_at_import(self):
        # every FrameArrival carries DOOR_ALERT, so its decode runs once, at
        # import; rejecting unknown types is the codec's own test
        from sentinelsim.airframe import Frame, FrameType, decode_frame

        assert decode_frame(DOOR_ALERT) == Frame(FrameType.INTRUDER_ALERT, 0x02)

    def test_a_door_alert_that_does_not_decode_stops_the_import(self, monkeypatch):
        # the module's source runs into a throwaway module, with a decode that gives
        # another frame: sentinelsim.controller itself is never reloaded
        from sentinelsim import airframe, controller

        other = airframe.Frame(airframe.FrameType.INTRUDER_ALERT, 0x03)
        monkeypatch.setattr(airframe, "decode_frame", lambda data: other)
        probe = types.ModuleType("sentinelsim._import_guard_probe")
        probe.__package__ = "sentinelsim"
        with open(controller.__file__, encoding="utf-8") as fh:
            code = compile(fh.read(), controller.__file__, "exec")
        door = re.escape(repr(controller.DOOR_FRAME))
        with pytest.raises(RuntimeError, match=rf"^door alert 7E 02 01 02 FC does not decode to {door}$"):
            exec(code, vars(probe))
        assert sys.modules["sentinelsim.controller"] is controller
        assert controller.decode_frame is not airframe.decode_frame  # the real one, bound at import

    def test_dispatch_and_run_are_the_only_public_methods(self):
        public = [n for n in vars(Controller) if not n.startswith("_")]
        assert public == ["dispatch", "run"]

    def test_unknown_item_type_rejected(self):
        from types import SimpleNamespace

        c, _ = make_controller()
        with pytest.raises(TypeError):
            c.dispatch(SimpleNamespace(at=5))
        # scenario events reach the controller only as run's columns
        with pytest.raises(TypeError, match="^cannot dispatch ScenarioEvent$"):
            c.dispatch(ev(5, EventKind.ARM))


_ITEM_KINDS = [*EventKind, ClipDone, AttemptDeadline, FrameArrival]


def _item(at, kind, n):
    """A scenario event or a follow-up at ``at``; ``n`` picks its meters or clip id."""
    if kind is EventKind.DISTANCE_SAMPLE:
        return ev(at, kind, meters=(0.25, 0.5, 3.0)[n])
    if isinstance(kind, EventKind):
        return ev(at, kind)
    if kind is ClipDone:
        return ClipDone(at, f"clip-{n:04d}")
    if kind is FrameArrival:
        return FrameArrival(at, n + 1)
    return AttemptDeadline(at)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(
    st.one_of(st.integers(0, 12).map(lambda k: k * 250), st.integers(0, 3000)),
    st.sampled_from(_ITEM_KINDS),
    st.integers(0, 2),
), max_size=40))
def test_dispatch_returns_none_and_schedules_at_most_one_item(steps):
    c, _ = make_controller(password="10", retrigger_cooldown_ms=0, latency_ms=40)
    t = 0
    for gap, kind, n in steps:
        t += gap
        pending = c.pending_attempt
        if kind is AttemptDeadline:
            if pending is None:
                continue  # only an attempt's own button queues its deadline
        elif pending is not None and (kind is EventKind.MODE_BUTTON or t >= pending.end):
            continue  # an overlapping attempt is refused, and the deadline precedes its end
        before = len(c.followups)
        assert dispatch_one(c, _item(t, kind, n)) is None
        assert len(c.followups) - before in (0, 1)


class TestRecordingJob:
    def test_duration_bounds(self):
        # SimConfig.validate holds the bounds; a run records at either one
        scenario = parse_scenario("0 distance 0.5")
        for duration in ("5000", "10000"):
            report = run(scenario, cli_overrides={"clip_duration_ms": duration})
            assert report.clips[0].duration_ms == int(duration)
        for duration in ("4999", "10001"):
            with pytest.raises(ConfigError, match="clip_duration_ms"):
                run(scenario, cli_overrides={"clip_duration_ms": duration})
