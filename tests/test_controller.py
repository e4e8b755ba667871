"""Coordinator state machine transitions and full dispatch traces."""

import pytest

from sentinelsim.airframe import LinkModel
from sentinelsim.config import ConfigError
from sentinelsim.controller import (
    AttemptDeadline,
    ClipDone,
    Controller,
    FrameArrival,
    SimulationOrderError,
    SystemMode,
)
from sentinelsim.engine import run
from sentinelsim.events import EventKind, EventQueue, ScenarioEvent
from sentinelsim.notify import Dispatcher, MemorySink, NotificationKind
from sentinelsim.pulselock import AttemptOutcome, AttemptStateError, PasswordSpec
from sentinelsim.scenario import parse_scenario
from sentinelsim.sensors import UltrasonicConfig


def make_controller(**kw):
    sink = MemorySink()
    controller = Controller(
        ultrasonic=kw.pop("ultrasonic", UltrasonicConfig()),
        password=kw.pop("password", PasswordSpec.from_string("1100101")),
        link=kw.pop("link", LinkModel()),
        dispatcher=Dispatcher([sink]),
        **kw,
    )
    return controller, sink


def drive(controller, events):
    """Run a full event loop over scenario events plus controller followups."""
    queue = EventQueue()
    for e in events:
        queue.push(e)
    for item in queue.drain():
        for followup in controller.dispatch(item):
            queue.push(followup)


def ev(at, kind, **kw):
    return ScenarioEvent(at=at, kind=kind, **kw)


def log_actions(controller):
    return [(a.at, a.action) for a in controller.state.action_log]


class TestOnPresence:
    def test_starts_recording_and_schedules_completion(self):
        c, _ = make_controller()
        c.state.mode = SystemMode.ARMED
        followups = c.on_presence(2000)
        job = c.state.active_recording
        assert job is not None and job.started_at == 2000
        assert followups == [ClipDone(2000 + job.duration_ms, job.clip_id)]
        assert log_actions(c) == [(2000, "START_RECORDING")]

    def test_second_presence_keeps_single_job(self):
        c, _ = make_controller()
        c.on_presence(2000)
        assert c.on_presence(2100) == []
        assert len(c.clips) == 1

    def test_records_even_while_disarmed(self):
        c, _ = make_controller()
        assert c.state.mode is SystemMode.DISARMED
        c.on_presence(500)
        assert c.state.active_recording is not None


class TestOnBeamBreak:
    def test_armed_break_notifies_owner_and_authorities(self):
        c, sink = make_controller()
        c.state.mode = SystemMode.ARMED
        c.on_beam_break(5000)
        assert len(sink.messages) == 1
        n = sink.messages[0]
        assert n.kind is NotificationKind.INTRUSION
        assert n.recipients == {"owner", "authorities"}
        assert n.created_at == 5000
        line = c.state.action_log[-1].line()
        assert line == "5000\tcontroller\tINTRUSION\trecipients=owner,authorities"

    def test_disarmed_break_is_suppressed(self):
        c, sink = make_controller()
        c.on_beam_break(5000)
        assert sink.messages == []
        assert log_actions(c) == [(5000, "SUPPRESSED")]


class TestOnAttemptOutcome:
    def test_accepted_disarms_and_mails_owner(self):
        c, sink = make_controller()
        c.state.mode = SystemMode.ARMED
        c.on_attempt_outcome(AttemptOutcome(True, (1, 0)), 7500)
        assert c.state.mode is SystemMode.DISARMED
        assert sink.messages[-1].kind is NotificationKind.DEACTIVATION_SUCCEEDED
        assert sink.messages[-1].recipients == {"owner"}

    def test_rejected_keeps_mode_and_mails_owner(self):
        c, sink = make_controller()
        c.state.mode = SystemMode.ARMED
        c.on_attempt_outcome(AttemptOutcome(False, (0, 0)), 7500)
        assert c.state.mode is SystemMode.ARMED
        assert sink.messages[-1].kind is NotificationKind.DEACTIVATION_FAILED

    def test_accept_while_disarmed_stays_disarmed(self):
        c, sink = make_controller()
        c.on_attempt_outcome(AttemptOutcome(True, (1,)), 100)
        assert c.state.mode is SystemMode.DISARMED
        assert sink.messages[-1].kind is NotificationKind.DEACTIVATION_SUCCEEDED


class TestDispatchTraces:
    def test_breakin_pipeline(self):
        c, sink = make_controller()
        drive(
            c,
            [
                ev(0, EventKind.ARM),
                ev(2000, EventKind.DISTANCE_SAMPLE, meters=0.8),
                ev(5000, EventKind.DOOR_OPEN),
            ],
        )
        names = [a.action for a in c.state.action_log]
        assert names == [
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
        assert presence.created_at == 2000 + c.clip_duration_ms
        assert presence.attachment == c.clips[0].clip_id

    def test_arm_only_scenario(self):
        c, sink = make_controller()
        drive(c, [ev(0, EventKind.ARM)])
        assert log_actions(c) == [(0, "ARMED")]
        assert sink.messages == []

    def test_deactivation_then_door_open_is_suppressed(self):
        c, sink = make_controller()
        presses = [1250, 2250, 5250, 7250]  # pulses 1, 2, 5, 7 from t=1000
        events = [ev(0, EventKind.ARM), ev(1000, EventKind.MODE_BUTTON)]
        events += [ev(t, EventKind.PRESS_DOWN) for t in presses]
        events.append(ev(9000, EventKind.DOOR_OPEN))
        drive(c, events)
        kinds = [n.kind for n in sink.messages]
        assert kinds == [NotificationKind.DEACTIVATION_SUCCEEDED]
        assert c.state.mode is SystemMode.DISARMED
        assert [a.action for a in c.state.action_log].count("SUPPRESSED") == 1

    def test_wrong_password_keeps_system_armed(self):
        c, sink = make_controller()
        events = [
            ev(0, EventKind.ARM),
            ev(1000, EventKind.MODE_BUTTON),
            ev(1250, EventKind.PRESS_DOWN),  # only pulse 1
        ]
        drive(c, events)
        assert sink.messages[-1].kind is NotificationKind.DEACTIVATION_FAILED
        assert c.state.mode is SystemMode.ARMED

    def test_door_close_never_alerts(self):
        c, sink = make_controller()
        drive(
            c,
            [
                ev(0, EventKind.ARM),
                ev(100, EventKind.DOOR_OPEN),
                ev(200, EventKind.DOOR_CLOSE),
            ],
        )
        assert [n.kind for n in sink.messages] == [NotificationKind.INTRUSION]

    def test_double_door_open_alerts_once(self):
        c, sink = make_controller()
        drive(
            c,
            [
                ev(0, EventKind.ARM),
                ev(100, EventKind.DOOR_OPEN),
                ev(200, EventKind.DOOR_OPEN),
            ],
        )
        assert len(sink.messages) == 1

    def test_reopening_after_close_alerts_again(self):
        c, sink = make_controller()
        drive(
            c,
            [
                ev(0, EventKind.ARM),
                ev(100, EventKind.DOOR_OPEN),
                ev(5000, EventKind.DOOR_CLOSE),
                ev(9000, EventKind.DOOR_OPEN),
            ],
        )
        assert len(sink.messages) == 2

    def test_dropped_alert_produces_no_notification(self):
        c, sink = make_controller(link=LinkModel(drop_probability=1.0, max_retries=2))
        drive(c, [ev(0, EventKind.ARM), ev(100, EventKind.DOOR_OPEN)])
        assert sink.messages == []
        drop = [a for a in c.state.action_log if a.action == "DROP"]
        assert len(drop) == 1
        assert "attempts=3" in drop[0].details

    def test_link_latency_delays_the_alert(self):
        c, sink = make_controller(link=LinkModel(latency_ms=40))
        drive(c, [ev(0, EventKind.ARM), ev(100, EventKind.DOOR_OPEN)])
        assert sink.messages[0].created_at == 140

    def test_stray_press_is_ignored(self):
        c, sink = make_controller()
        drive(c, [ev(0, EventKind.ARM), ev(50, EventKind.PRESS_DOWN)])
        assert sink.messages == []

    def test_press_up_is_accepted_and_ignored(self):
        c, _ = make_controller()
        drive(
            c,
            [
                ev(1000, EventKind.MODE_BUTTON),
                ev(1250, EventKind.PRESS_UP),
                ev(1300, EventKind.PRESS_DOWN),
            ],
        )
        # only the press_down registered: pulse 1 got its bit, nothing else
        finalized = [a for a in c.state.action_log if a.action.startswith("DEACTIVATION")]
        assert finalized[-1].details == "trace=1000000"

    def test_mode_button_during_attempt_is_state_error(self):
        c, _ = make_controller()
        with pytest.raises(AttemptStateError):
            drive(
                c,
                [
                    ev(1000, EventKind.MODE_BUTTON),
                    ev(1500, EventKind.MODE_BUTTON),
                ],
            )

    def test_press_at_schedule_end_finalizes_first(self):
        c, sink = make_controller(password=PasswordSpec.from_string("0"))
        # schedule for "0" started at 1000 ends at 1500; the press at 1500
        # must not blow up, the attempt is decided first
        drive(
            c,
            [
                ev(1000, EventKind.MODE_BUTTON),
                ev(1500, EventKind.PRESS_DOWN),
            ],
        )
        assert sink.messages[-1].kind is NotificationKind.DEACTIVATION_SUCCEEDED

    def test_out_of_order_dispatch_fails_fast(self):
        c, _ = make_controller()
        c.dispatch(ev(100, EventKind.ARM))
        with pytest.raises(SimulationOrderError):
            c.dispatch(ev(99, EventKind.ARM))

    def test_presence_cooldown_limits_triggers(self):
        c, _ = make_controller(
            ultrasonic=UltrasonicConfig(retrigger_cooldown_ms=5000)
        )
        drive(
            c,
            [
                ev(0, EventKind.DISTANCE_SAMPLE, meters=0.5),
                ev(1000, EventKind.DISTANCE_SAMPLE, meters=0.5),
                ev(6000, EventKind.DISTANCE_SAMPLE, meters=0.5),
            ],
        )
        triggers = [a for a in c.state.action_log if a.action == "PRESENCE_TRIGGER"]
        assert [a.at for a in triggers] == [0, 6000]

    def test_cooldown_zero_still_single_recording(self):
        c, sink = make_controller(
            ultrasonic=UltrasonicConfig(retrigger_cooldown_ms=0)
        )
        drive(
            c,
            [
                ev(2000, EventKind.DISTANCE_SAMPLE, meters=0.5),
                ev(2100, EventKind.DISTANCE_SAMPLE, meters=0.5),
            ],
        )
        assert len(c.clips) == 1
        assert len([n for n in sink.messages]) == 1


class TestInternalItems:
    def test_stale_clip_done_is_ignored(self):
        c, sink = make_controller()
        c.dispatch(ClipDone(at=100, clip_id="clip-9999"))
        assert sink.messages == []

    def test_stale_attempt_deadline_is_ignored(self):
        c, _ = make_controller()
        c.dispatch(AttemptDeadline(at=100, token=42))
        assert c.state.action_log == []

    def test_frame_arrival_for_heartbeat_only_logs(self):
        from sentinelsim.airframe import Frame, FrameType, encode_frame

        c, sink = make_controller()
        c.state.mode = SystemMode.ARMED
        data = encode_frame(Frame(FrameType.HEARTBEAT, 0x03))
        c.dispatch(FrameArrival(at=10, data=data, attempts=1))
        assert sink.messages == []
        assert log_actions(c) == [(10, "RX")]

    def test_unknown_item_type_rejected(self):
        from types import SimpleNamespace

        c, _ = make_controller()
        with pytest.raises(TypeError):
            c.dispatch(SimpleNamespace(at=5))


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
