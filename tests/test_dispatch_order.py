"""engine.run's dispatch order against the all-in-heap reference loop.

engine.run streams the time-sorted scenario past a queue that holds only the
controller's follow-ups, and skips the events that cannot act. The reference
below pushes every scenario event onto the controller's follow-up queue
first, drains it and dispatches every item one at a time (conftest's
``dispatch_one``), so insertion order makes a scenario event precede any
follow-up at the same millisecond. Both must give the same bytes.
"""

import gc
import math
import os
import sys

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import dispatch_one, event_rows, random_scenario, render_scenario
from sentinelsim import rng
from sentinelsim.config import ConfigError, SimConfig
from sentinelsim.controller import Controller, action_fields
from sentinelsim.engine import build_controller, resolve_run_config, run, validate_events
from sentinelsim.events import EventKind, ScenarioEvent
from sentinelsim.pulselock import AttemptStateError
from sentinelsim.report import RunReport, render_report
from sentinelsim.scenario import Scenario, parse_scenario

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def reference_run(scenario, seed, overrides):
    """engine.run as it was with every scenario event in the heap."""
    cfg = resolve_run_config(scenario, None, overrides)
    validate_events(scenario, cfg)
    controller = build_controller(cfg, seed)
    queue = controller.followups
    for ev in event_rows(scenario):
        queue.push(ev)
    while queue:
        dispatch_one(controller, queue.pop())
    return RunReport(
        scenario=scenario.name,
        seed=seed,
        rng_algorithm=rng.ALGORITHM,
        final_mode=controller.mode.value,
        actions=tuple(controller.action_log),
        outbox_counts=controller.counts,
        clips=tuple(controller.clips),
        clip_bytes=cfg.clip_bytes,
    )


def outcome(runner, scenario, seed, overrides):
    """Both report renderings, or the error a run stopped with."""
    try:
        report = runner(scenario, seed, overrides)
    except (ConfigError, RuntimeError) as exc:  # e.g. overlapping password attempts
        return type(exc), str(exc)
    return render_report(report, "text"), render_report(report, "structured")


def engine_run(scenario, seed, overrides):
    return run(scenario, seed=seed, cli_overrides=overrides)


# Every time is a multiple of 250 ms, and so is every follow-up: clip ends
# (5000 ms later), attempt ends (500 or 1500 ms later) and frame arrivals
# (0 or 250 ms per attempt). Follow-ups therefore keep landing on scenario
# event times, and latency_ms=0 puts arrivals on their own send time.
times = st.integers(0, 48).map(lambda k: k * 250)

events = st.one_of(
    st.builds(ScenarioEvent, at=times, kind=st.sampled_from([
        EventKind.ARM, EventKind.DOOR_OPEN, EventKind.DOOR_CLOSE,
        EventKind.MODE_BUTTON, EventKind.PRESS_DOWN, EventKind.PRESS_UP,
    ]), meters=st.none()),
    st.builds(
        ScenarioEvent, at=times, kind=st.just(EventKind.DISTANCE_SAMPLE),
        meters=st.sampled_from([0.5, 0.99, 3.0]),
    ),
)

configs = st.fixed_dictionaries({
    "latency_ms": st.sampled_from(["0", "250"]),
    "drop_probability": st.sampled_from(["0", "0.5"]),
    "password": st.sampled_from(["1", "10"]),
    "retrigger_cooldown_ms": st.sampled_from(["0", "5000"]),
})


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    # a hand-built scenario whose events are in whatever order was drawn
    event_list=st.lists(events, max_size=30),
    seed=st.integers(0, 3),
    overrides=configs,
)
def test_run_matches_all_in_heap_reference(event_list, seed, overrides):
    scenario = Scenario(name="ties", events=tuple(event_list))
    assert outcome(engine_run, scenario, seed, overrides) == outcome(
        reference_run, scenario, seed, overrides
    )


# Thresholds whose own value ranges one ulp below itself (0.05, 0.1), one ulp
# above (0.11, 0.44) or exactly (1.0) after the echo round trip.
THRESHOLDS = (0.05, 0.1, 0.11, 0.44, 1.0)


@st.composite
def edge_runs(draw):
    """Scenarios crowded where engine.simulate's skipping could go wrong:
    press_up at an attempt's end and a millisecond either side of it, and
    distance samples at threshold_m and one ulp either side of it."""
    threshold = draw(st.sampled_from(THRESHOLDS))
    password = draw(st.sampled_from(["1", "10"]))
    span = SimConfig(password=password).attempt_ms
    near = st.sampled_from([
        math.nextafter(threshold, 0.0), threshold, math.nextafter(threshold, math.inf),
        threshold / 2, 3.0,
    ])
    event_list = draw(st.lists(events, max_size=8))
    # at most one attempt per 4 s slot, so none overlaps the next
    for slot in range(draw(st.integers(0, 3))):
        begin = slot * 4000 + draw(st.sampled_from([0, 250]))
        end = begin + span
        event_list.append(ScenarioEvent(begin, EventKind.MODE_BUTTON))
        for at in draw(st.lists(st.sampled_from([begin, begin + 1000]), max_size=2)):
            event_list.append(ScenarioEvent(at, EventKind.PRESS_DOWN))
        for at in draw(st.lists(st.sampled_from([end - 1, end, end + 1]), max_size=3)):
            event_list.append(ScenarioEvent(at, EventKind.PRESS_UP))
        samples = st.tuples(st.sampled_from([begin, end, end + 1]), near)
        for at, meters in draw(st.lists(samples, max_size=3)):
            event_list.append(ScenarioEvent(at, EventKind.DISTANCE_SAMPLE, meters=meters))
    for at, meters in draw(st.lists(st.tuples(times, near), max_size=4)):
        event_list.append(ScenarioEvent(at, EventKind.DISTANCE_SAMPLE, meters=meters))
    overrides = dict(draw(configs), threshold_m=repr(threshold), password=password)
    return Scenario(name="edges", events=tuple(event_list)), overrides


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=edge_runs(), seed=st.integers(0, 3))
def test_skipped_events_change_no_report_byte(case, seed):
    scenario, overrides = case
    assert outcome(engine_run, scenario, seed, overrides) == outcome(
        reference_run, scenario, seed, overrides
    )


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(event_list=st.lists(events, max_size=30), seed=st.integers(0, 3), overrides=configs)
# a frame arrival due at an attempt's end, after its deadline: the deadline decides it first
@example(
    event_list=[ScenarioEvent(0, EventKind.ARM), ScenarioEvent(1000, EventKind.MODE_BUTTON),
                ScenarioEvent(1250, EventKind.DOOR_OPEN), ScenarioEvent(2000, EventKind.ARM)],
    seed=0,
    overrides={"latency_ms": "250", "drop_probability": "0", "password": "1",
               "retrigger_cooldown_ms": "0"},
)
def test_controller_run_matches_dispatch_of_each_item(event_list, seed, overrides):
    # Controller.run holds its own copy of the per-item rule that dispatch_one
    # restates: the order check, then the handler.
    scenario = Scenario(name="ties", events=tuple(event_list))
    cfg = resolve_run_config(scenario, None, overrides)

    def final_state(drive):
        controller = Controller(cfg, seed)
        try:
            drive(controller)
        except AttemptStateError as exc:  # overlapping password attempts
            return str(exc), controller.action_log
        return controller.action_log, controller.clips, controller.mode, controller.counts

    def dispatch_each(controller):
        queue = controller.followups
        for ev in event_rows(scenario):
            queue.push(ev)
        while queue:
            dispatch_one(controller, queue.pop())

    events = scenario.events
    run_columns = lambda c: c.run(events.times, events.kinds, events.meters)
    assert final_state(run_columns) == final_state(dispatch_each)


def test_run_matches_reference_on_random_streams():
    for seed in range(6):
        scenario = random_scenario(seed, n_events=300)
        overrides = {"drop_probability": "0.3", "latency_ms": "15"}
        assert outcome(engine_run, scenario, seed, overrides) == outcome(
            reference_run, scenario, seed, overrides
        )


def test_scenario_event_precedes_follow_up_at_same_millisecond():
    # The alert sent at t=0 arrives at t=0; arming, also at t=0, comes first.
    scenario = parse_scenario("0 door open\n0 arm\n")
    report = run(scenario, cli_overrides={"latency_ms": "0"})
    actions = [action for _, _, action, _ in action_fields(report.actions)]
    assert actions == ["TX", "ARMED", "RX", "INTRUSION"]


def test_run_leaves_no_reference_cycle():
    # A cycle through the controller would keep each run's action log and
    # outbox alive until a full collection, raising peak memory. Parse and
    # render make none either, so the collector paused around each of them
    # defers no garbage.
    scenario = random_scenario(5, n_events=400)
    overrides = {"drop_probability": "0.3", "latency_ms": "15"}
    text = render_scenario(scenario)
    report = run(scenario, seed=5, cli_overrides=overrides)
    steps = {
        "run": lambda: run(scenario, seed=5, cli_overrides=overrides),
        "parse": lambda: parse_scenario(text),
        "render text": lambda: render_report(report, "text"),
        "render structured": lambda: render_report(report, "structured"),
    }
    for name, step in steps.items():
        gc.collect()
        gc.disable()
        try:
            step()
            assert gc.collect() == 0, name
        finally:
            gc.enable()


def test_reports_match_golden_digests():
    """The benchmark's 108-cell byte-identity gate, run with the unit tests."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        import golden
    finally:
        sys.path.pop(0)
    cells, problems = golden.check(ROOT)
    assert cells == 108
    assert problems == []
