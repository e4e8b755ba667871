"""The data-only records: their contract as values, and the action log's type and lines."""

import copy
import pickle
from types import MappingProxyType

import pytest

from conftest import BREAKIN_TEXT, DEACTIVATE_TEXT, dispatch_one, event_rows
from sentinelsim.airframe import DeliveryResult, Frame, FrameType, transmit
from sentinelsim.config import SimConfig
from sentinelsim.controller import (
    AttemptDeadline,
    ClipDone,
    Controller,
    FrameArrival,
    RecordingJob,
    action_fields,
)
from sentinelsim.engine import run
from sentinelsim.events import EventKind, ScenarioEvent
from sentinelsim.notify import (
    AUTHORITIES, OWNER, Notification, NotificationKind, Receipt,
)
from sentinelsim.pulselock import AttemptOutcome
from sentinelsim.report import RunReport, render_report
from sentinelsim.rng import SplitMix64
from sentinelsim.scenario import EventColumns, Scenario, parse_scenario

# (record, its fields in order, its repr as the frozen dataclasses printed it)
RECORDS = [
    (SimConfig(),
     ("threshold_m", "max_range_m", "speed_of_sound", "retrigger_cooldown_ms", "password",
      "pulse_period_ms", "press_window_ms", "clip_duration_ms", "clip_bytes", "drop_probability",
      "latency_ms", "max_retries", "presence_to_authorities", "maildir", "owner_email",
      "authorities_email"),
     "SimConfig(threshold_m=1.0, max_range_m=4.0, speed_of_sound=343.0, "
     "retrigger_cooldown_ms=5000, password='1100101', pulse_period_ms=1000, "
     "press_window_ms=500, clip_duration_ms=5000, clip_bytes=1024, drop_probability=0.0, "
     "latency_ms=0, max_retries=2, presence_to_authorities=False, maildir=False, "
     "owner_email='owner@example.com', authorities_email='authorities@example.com')"),
    (Scenario("breakin", {"latency_ms": 20},
              [ScenarioEvent(5000, EventKind.DOOR_OPEN), ScenarioEvent(0, EventKind.ARM)]),
     ("name", "overrides", "events"),
     "Scenario(name='breakin', overrides=mappingproxy({'latency_ms': 20}), "
     "events=EventColumns(times=(0, 5000), "
     "kinds=(<EventKind.ARM: 'arm'>, <EventKind.DOOR_OPEN: 'door_open'>), meters=(None, None)))"),
    (RunReport("breakin", 7, "splitmix64", "ARMED", ("0\tcontroller\tARMED\tmode=armed",),
               {"INTRUSION": 1},
               (RecordingJob("clip-0001", 2000, 5000, "clips/clip-0001.bin"),), 1024),
     ("scenario", "seed", "rng_algorithm", "final_mode", "actions", "outbox_counts", "clips",
      "clip_bytes"),
     "RunReport(scenario='breakin', seed=7, rng_algorithm='splitmix64', final_mode='ARMED', "
     "actions=('0\\tcontroller\\tARMED\\tmode=armed',), "
     "outbox_counts={'INTRUSION': 1}, clips=(RecordingJob(clip_id='clip-0001', "
     "started_at=2000, duration_ms=5000, stored_ref='clips/clip-0001.bin'),), clip_bytes=1024)"),
    (ScenarioEvent(2000, EventKind.DISTANCE_SAMPLE, 0.5), ("at", "kind", "meters"),
     "ScenarioEvent(at=2000, kind=<EventKind.DISTANCE_SAMPLE: 'distance'>, meters=0.5)"),
    (Frame(FrameType.INTRUDER_ALERT, 2, b"ab"), ("frame_type", "source_id", "payload"),
     "Frame(frame_type=<FrameType.INTRUDER_ALERT: 1>, source_id=2, payload=b'ab')"),
    (Receipt("linefile", False, "disk full"), ("sink", "ok", "error"),
     "Receipt(sink='linefile', ok=False, error='disk full')"),
    (ClipDone(7000, "clip-0001"), ("at", "clip_id"),
     "ClipDone(at=7000, clip_id='clip-0001')"),
    (AttemptDeadline(6500), ("at",), "AttemptDeadline(at=6500)"),
    (FrameArrival(5020, 2), ("at", "attempts"), "FrameArrival(at=5020, attempts=2)"),
    (DeliveryResult(True, 5020, 2), ("delivered", "delivered_at", "attempts"),
     "DeliveryResult(delivered=True, delivered_at=5020, attempts=2)"),
    (DeliveryResult(False, None, 3), ("delivered", "delivered_at", "attempts"),
     "DeliveryResult(delivered=False, delivered_at=None, attempts=3)"),
    (AttemptOutcome(True, "101"), ("accepted", "trace"),
     "AttemptOutcome(accepted=True, trace='101')"),
    (RecordingJob("clip-0001", 2000, 5000, "clips/clip-0001.bin"),
     ("clip_id", "started_at", "duration_ms", "stored_ref"),
     "RecordingJob(clip_id='clip-0001', started_at=2000, duration_ms=5000, "
     "stored_ref='clips/clip-0001.bin')"),
    (Notification(NotificationKind.INTRUSION, (OWNER, AUTHORITIES), None, 5000),
     ("kind", "recipients", "attachment", "created_at"),
     "Notification(kind=<NotificationKind.INTRUSION: 'INTRUSION'>, "
     "recipients=('owner', 'authorities'), attachment=None, created_at=5000)"),
]


# a last field unequal to the row's, of a type its record accepts; the rest take "other"
OTHER_LAST = {Scenario: (), ScenarioEvent: 0.75, Frame: b"other"}
UNHASHABLE = (Scenario, RunReport)  # they hold a mapping


@pytest.mark.parametrize(
    "record, fields, text", RECORDS, ids=[type(r).__name__ for r, _, _ in RECORDS]
)
class TestRecordContract:
    def test_fields_in_order(self, record, fields, text):
        assert type(record)._fields == fields

    def test_repr(self, record, fields, text):
        assert repr(record) == text

    def test_equal_and_hashed_by_value(self, record, fields, text):
        twin = type(record)(*record)
        assert twin == record and twin is not record
        if not isinstance(record, UNHASHABLE):
            assert hash(twin) == hash(record)
        other = type(record)(*record[:-1], OTHER_LAST.get(type(record), "other"))
        assert other != record

    def test_fields_cannot_be_assigned(self, record, fields, text):
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)

    @pytest.mark.parametrize("protocol", [0, pickle.DEFAULT_PROTOCOL, pickle.HIGHEST_PROTOCOL])
    def test_pickle_and_deepcopy_round_trips(self, record, fields, text, protocol):
        # a record can go to a process pool; a Scenario's copy gets a fresh read-only mapping
        for twin in (pickle.loads(pickle.dumps(record, protocol)), copy.deepcopy(record)):
            assert twin == record and type(twin) is type(record)
            if isinstance(record, Scenario):
                assert type(twin.overrides) is MappingProxyType
                assert twin.overrides is not record.overrides


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_a_forged_frame_is_refused_by_every_pickle_protocol(protocol):
    # built past __new__, as only a tampered pickle could hold it; protocols 0 and 1
    # would otherwise rebuild a tuple subclass without calling __new__
    frame = tuple.__new__(Frame, (FrameType.INTRUDER_ALERT, 300, b""))
    with pytest.raises(ValueError, match="^source_id must be a one-byte integer, got 300$"):
        pickle.loads(pickle.dumps(frame, protocol))


def test_action_log_holds_lines_of_four_fields_led_by_a_time():
    scenario = parse_scenario(BREAKIN_TEXT + DEACTIVATE_TEXT.replace("0 arm\n", "", 1))
    cfg = SimConfig(threshold_m=1.0)
    controller = Controller(cfg, 0)
    events = scenario.events
    controller.run(events.times, events.kinds, events.meters)
    log = controller.action_log
    assert all(type(line) is str for line in log)
    fields = list(action_fields(log))
    assert {action for _, _, action, _ in fields} >= {
        "ARMED", "PRESENCE_TRIGGER", "START_RECORDING", "TX", "RX", "INTRUSION",
        "PRESENCE", "ATTEMPT_BEGIN", "DEACTIVATION_SUCCEEDED",
    }
    for line, split in zip(log, fields):
        assert len(split) == 4 and "\t".join(split) == line
        t = split[0]
        assert t.isascii() and t.isdigit() and str(int(t)) == t  # a non-negative int's digits


def test_equal_follow_ups_of_two_types_reach_their_own_handlers():
    controller = Controller(SimConfig(), 0)
    dispatch_one(controller, ScenarioEvent(2000, EventKind.DISTANCE_SAMPLE, 0.5))
    done = controller.followups.pop()
    assert not controller.followups
    twin = FrameArrival(done.at, done.clip_id)
    assert twin == done and hash(twin) == hash(done)
    controller.dispatch(twin)
    assert [action for _, _, action, _ in action_fields(controller.action_log[-2:])] == [
        "RX", "SUPPRESSED",
    ]
    assert controller.active_recording is not None
    controller.dispatch(done)
    assert [action for _, _, action, _ in action_fields(controller.action_log[-1:])] == ["PRESENCE"]
    assert controller.active_recording is None


class TestNegativeZeroDistance:
    # -0.0 >= 0 holds, so a negative zero is a valid sample; it logs as 0.000
    TRIGGER = "100\tsensor\tPRESENCE_TRIGGER\tsource=ultrasonic distance_m=0.000"

    @pytest.mark.parametrize("meters", ["-0", "-0.0", "-0.000"])
    def test_parsed(self, meters):
        report = run(parse_scenario(f"100 distance {meters}"))
        assert report.actions[0] == self.TRIGGER
        for fmt in ("text", "structured"):
            assert b"-0.000" not in render_report(report, fmt)

    def test_hand_built(self):
        controller = Controller(SimConfig(), 0)
        controller.run([100], [EventKind.DISTANCE_SAMPLE], [-0.0])
        assert controller.action_log[0] == self.TRIGGER


def test_link_records_are_built_as_their_own_types():
    # transmit and the door handler build these with tuple.__new__, not the class call
    for p in (0.0, 1.0):
        result = transmit(SimConfig(drop_probability=p), 100, SplitMix64(0))
        assert type(result) is DeliveryResult
    assert result == DeliveryResult(False, None, 3)
    controller = Controller(SimConfig(latency_ms=20), 0)
    dispatch_one(controller, ScenarioEvent(100, EventKind.DOOR_OPEN))
    arrival = controller.followups.pop()
    assert not controller.followups
    assert type(arrival) is FrameArrival and arrival == FrameArrival(120, 1)


def test_per_event_records_are_built_as_their_own_types():
    # the handlers and finalize build these with tuple.__new__ too: same types, same values
    controller = Controller(SimConfig(password="1"), 0)
    dispatch_one(controller, ScenarioEvent(2000, EventKind.DISTANCE_SAMPLE, 0.5))
    [job] = controller.clips
    assert type(job) is RecordingJob
    assert job == RecordingJob("clip-0001", 2000, 5000, "clips/clip-0001.bin")
    done = controller.followups.pop()
    assert type(done) is ClipDone and done == ClipDone(7000, "clip-0001")
    dispatch_one(controller, ScenarioEvent(3000, EventKind.MODE_BUTTON))
    session = controller.pending_attempt
    deadline = controller.followups.pop()
    assert type(deadline) is AttemptDeadline and deadline == AttemptDeadline(session.end)
    outcome = session.finalize(session.end)
    assert type(outcome) is AttemptOutcome and outcome == AttemptOutcome(False, "0")
    assert (outcome.accepted, outcome.trace) == (False, "0")


def test_replace_checks_the_new_fields():
    # _replace builds through the checking __new__: events are sorted again, an event or
    # a frame checked
    scenario = Scenario("s", {}, [ScenarioEvent(5, EventKind.ARM)])
    later = scenario._replace(events=[ScenarioEvent(9, EventKind.ARM), *event_rows(scenario)])
    assert type(later) is Scenario and later.events.times == (5, 9)
    assert type(later.events) is EventColumns
    with pytest.raises(ValueError, match="no line break"):
        scenario._replace(name="a\nb")
    event = ScenarioEvent(4, EventKind.DISTANCE_SAMPLE, 2.5)
    assert event._replace(at=6) == ScenarioEvent(6, EventKind.DISTANCE_SAMPLE, 2.5)
    assert ScenarioEvent._make(event) == event
    with pytest.raises(ValueError, match="requires a meters value"):
        event._replace(meters=None)
    with pytest.raises(ValueError, match="time must be an integer"):
        event._replace(at=0.5)
    frame = Frame(FrameType.INTRUDER_ALERT, 2)
    assert frame._replace(source_id=3) == Frame(FrameType.INTRUDER_ALERT, 3)
    for bad in (256, -1, 2.0, True):
        with pytest.raises(ValueError, match="source_id"):
            frame._replace(source_id=bad)
    with pytest.raises(ValueError, match="payload"):
        frame._replace(payload="ab")

