"""Report bytes and notifications against the independent model in tests/oracle.py.

The model shares no code with the controller's handlers, its run loop, the
notifications or the renderer, so a change to how events reach the handlers,
or to how notifications are made, is checked against rules written down
apart from it.
"""

import json
import os
import random
import sys

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import oracle
from sentinelsim.config import ConfigError, SimConfig
from sentinelsim.controller import notifications
from sentinelsim.engine import prepare, resolve_run_config, run, simulate
from sentinelsim.events import EventKind, ScenarioEvent
from sentinelsim.notify import format_outbox_line
from sentinelsim.report import render_report
from sentinelsim.scenario import Scenario, parse_scenario

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Times on a 250 ms grid land on one another and on follow-up times; the odd
# ones fall between.
times = st.one_of(st.integers(0, 40).map(lambda k: k * 250), st.integers(0, 10_000))
plain_kinds = st.sampled_from([
    EventKind.ARM, EventKind.DOOR_OPEN, EventKind.DOOR_CLOSE, EventKind.MODE_BUTTON,
    EventKind.PRESS_DOWN, EventKind.PRESS_UP,
])
events = st.one_of(
    st.builds(ScenarioEvent, at=times, kind=plain_kinds, meters=st.none()),
    st.builds(
        ScenarioEvent, at=times, kind=st.just(EventKind.DISTANCE_SAMPLE),
        meters=st.one_of(
            st.sampled_from([0, 0.1, 0.5, 0.99, 1.0, 3.0, 4.0, 4.5]),  # 4.5: past max_range_m
            st.floats(0.0, 4.0),
        ),
    ),
)


def on_grid_or(values, other):
    """Often a value on the 250 ms grid, so follow-ups, attempt ends and pulse windows
    land on event times; otherwise any value ``other`` draws."""
    return st.one_of(st.sampled_from(values), other)


@st.composite
def configs(draw):
    period = draw(on_grid_or([250, 500, 1000], st.integers(1, 1500)))
    cfg = SimConfig(
        threshold_m=draw(st.sampled_from([0.1, 0.5, 1.0, 2.0])),
        retrigger_cooldown_ms=draw(st.sampled_from([0, 1000, 5000])),
        password=draw(st.text("01", min_size=1, max_size=6)),
        pulse_period_ms=period,
        press_window_ms=draw(on_grid_or([min(250, period), period], st.integers(1, period))),
        clip_duration_ms=draw(on_grid_or([5000, 7500, 10000], st.integers(5000, 10000))),
        drop_probability=draw(st.floats(0.0, 1.0, exclude_max=True)),
        latency_ms=draw(on_grid_or([0, 250, 500], st.integers(0, 3000))),
        max_retries=draw(st.integers(0, 255)),
        presence_to_authorities=draw(st.booleans()),
    )
    cfg.validate()
    return cfg


def engine_bytes(scenario, seed, cfg, fmt):
    try:
        return render_report(run(scenario, seed=seed, base_config=cfg), fmt)
    except ConfigError:
        return "refused"


def oracle_bytes(scenario, seed, cfg, fmt):
    try:
        return oracle.report(scenario, seed, cfg, fmt)
    except oracle.Refused:
        return "refused"


def engine_outbox(scenario, seed, cfg):
    """The outbox lines of the notifications built from a run's report, in order."""
    try:
        cfg = prepare(scenario, cfg)
    except ConfigError:
        return "refused"
    report = simulate(scenario, cfg, seed)
    return [format_outbox_line(n) for n in notifications(report.actions, report.clips, cfg)]


def oracle_outbox(scenario, seed, cfg):
    try:
        notes = oracle.simulate(scenario, seed, cfg)[4]
    except oracle.Refused:
        return "refused"
    return [oracle.outbox_line(note) for note in notes]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    event_list=st.lists(events, min_size=8, max_size=40),  # about 16 events on average
    seed=st.integers(0, 2**64 - 1),
    cfg=configs(),
)
# Ties the draws can miss: an event at an attempt's end (the attempt is decided
# first), a press at a window's end (a stray press) and a frame arrival at its
# own send time (after the scenario events of that millisecond).
@example(
    event_list=[ScenarioEvent(0, EventKind.MODE_BUTTON), ScenarioEvent(250, EventKind.ARM)],
    seed=0, cfg=SimConfig(password="1", pulse_period_ms=250, press_window_ms=250),
)
@example(
    event_list=[ScenarioEvent(0, EventKind.MODE_BUTTON), ScenarioEvent(250, EventKind.PRESS_DOWN)],
    seed=0, cfg=SimConfig(password="11", pulse_period_ms=500, press_window_ms=250),
)
@example(
    event_list=[ScenarioEvent(0, EventKind.DOOR_OPEN), ScenarioEvent(0, EventKind.ARM)],
    seed=0, cfg=SimConfig(latency_ms=0),
)
def test_engine_matches_the_oracle(event_list, seed, cfg):
    scenario = Scenario(name="oracle", events=event_list)
    assert engine_bytes(scenario, seed, cfg, "text") == oracle_bytes(scenario, seed, cfg, "text")
    assert engine_outbox(scenario, seed, cfg) == oracle_outbox(scenario, seed, cfg)


# At 255 retries every block is 256 draws long; at 2 the blocks grow from 8 to 64.
@pytest.mark.parametrize("drop, retries", [(0.9, 255), (0.5, 2)])
def test_a_long_lossy_run_matches_the_oracle(drop, retries):
    """About 2,000 door openings on a lossy link: the link decides its draws a
    block at a time, over many blocks, where the oracle draws them one by one."""
    rnd = random.Random(2014)
    event_list, t = [ScenarioEvent(0, EventKind.ARM)], 0
    for _ in range(2000):
        t += rnd.randint(1, 400)
        event_list.append(ScenarioEvent(t, EventKind.DOOR_OPEN))
        if rnd.random() < 0.2:
            event_list.append(ScenarioEvent(t, EventKind.DISTANCE_SAMPLE, rnd.uniform(0, 2)))
        t += rnd.randint(0, 400)
        event_list.append(ScenarioEvent(t, EventKind.DOOR_CLOSE))
    scenario = Scenario(name="lossy", events=event_list)
    cfg = SimConfig(drop_probability=drop, max_retries=retries, latency_ms=15)
    cfg.validate()
    text = engine_bytes(scenario, 28, cfg, "text")
    assert text.count(b"\tlink\tTX\t") == 2000
    assert text == oracle_bytes(scenario, 28, cfg, "text")
    assert engine_outbox(scenario, 28, cfg) == oracle_outbox(scenario, 28, cfg)


def test_oracle_matches_the_golden_cells():
    """Each of the benchmark's 108 golden cells, rebuilt by the oracle alone."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        import golden
    finally:
        sys.path.pop(0)
    with open(golden.GOLDEN_PATH, encoding="utf-8") as fh:
        expected = json.load(fh)
    got = {}
    for name, text in golden.grid_scenarios(ROOT):
        scenario = parse_scenario(text, name=name)
        for seed in golden.SEEDS:
            for cfg_name, overrides in golden.CONFIGS.items():
                cfg = resolve_run_config(scenario, None, overrides)
                for fmt in golden.FORMATS:
                    data = oracle.report(scenario, seed, cfg, fmt)
                    got[f"{name}|{seed}|{cfg_name}|{fmt}"] = golden.digest(data)
    assert len(got) == 108
    assert got == expected
