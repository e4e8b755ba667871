"""engine.run's dispatch order against the all-in-heap reference loop.

engine.run streams the time-sorted scenario past a queue that holds only the
controller's follow-ups. The reference below pushes every scenario event into
one queue first and then drains it, so insertion order makes a scenario event
precede any follow-up at the same millisecond. Both must give the same bytes.
"""

import gc
import os
import sys

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import random_scenario
from sentinelsim import rng
from sentinelsim.config import ConfigError
from sentinelsim.engine import build_controller, resolve_run_config, run, validate_events
from sentinelsim.events import EventKind, EventQueue, ScenarioEvent
from sentinelsim.notify import Dispatcher, MemorySink
from sentinelsim.report import RunReport, render_report
from sentinelsim.scenario import Scenario, parse_scenario

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def reference_run(scenario, seed, overrides):
    """engine.run as it was with every scenario event in the heap."""
    cfg = resolve_run_config(scenario, None, overrides)
    validate_events(scenario, cfg)
    dispatcher = Dispatcher([MemorySink()])
    controller = build_controller(cfg, seed, dispatcher)
    queue = EventQueue()
    for ev in scenario.events:
        queue.push(ev)
    for item in queue.drain():
        for followup in controller.dispatch(item):
            queue.push(followup)
    return RunReport(
        scenario=scenario.name,
        seed=seed,
        rng_algorithm=rng.ALGORITHM,
        final_mode=controller.state.mode.value,
        actions=tuple(controller.state.action_log),
        outbox_counts=dispatcher.outbox.counts(),
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
        EventKind.ARM, EventKind.DOOR_CLOSE, EventKind.MODE_BUTTON,
        EventKind.PRESS_DOWN, EventKind.PRESS_UP,
    ])),
    st.builds(
        ScenarioEvent, at=times, kind=st.just(EventKind.DOOR_OPEN),
        source=st.sampled_from(["", "door-2"]),
    ),
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
    actions = [a.action for a in report.actions]
    assert actions == ["TX", "ARMED", "RX", "INTRUSION"]


def test_run_leaves_no_reference_cycle():
    # A cycle through the controller would keep each run's action log and
    # outbox alive until a full collection, raising peak memory.
    scenario = random_scenario(5, n_events=400)
    overrides = {"drop_probability": "0.3", "latency_ms": "15"}
    gc.collect()
    gc.disable()
    try:
        run(scenario, seed=5, cli_overrides=overrides)
        assert gc.collect() == 0
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
