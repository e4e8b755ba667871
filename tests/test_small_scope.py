"""Every small scenario on a grid, checked against the model in tests/oracle.py.

Where the Hypothesis property in test_oracle.py samples scenarios, this runs
every time-ordered scenario of up to a few events whose times and events
come from a small grid (the "small scope hypothesis": most faults show on
some small input). Each runs through ``engine.prepare``, ``engine.simulate``
and both renders, and its report bytes and outbox.log lines must equal the
model's. A scenario that ``prepare`` refuses must be refused with
``ConfigError``, as the model refuses it, and never fail inside ``simulate``.

Tier-1 runs up to 3 events on one config. ``check`` takes any event count
and config, for a longer run over a wider config grid.
"""

from itertools import combinations_with_replacement, product

import oracle
from sentinelsim.config import ConfigError, SimConfig
from sentinelsim.controller import notifications
from sentinelsim.engine import prepare, simulate
from sentinelsim.events import EventKind, ScenarioEvent
from sentinelsim.notify import format_outbox_line
from sentinelsim.report import FORMATS, render_report
from sentinelsim.scenario import Scenario

# Times on and between the 250 ms pulse grid, and one past every attempt and clip
TIMES = (0, 125, 250, 5000)
# Each kind of event, with one distance inside threshold_m and one outside it
SHAPES = (
    *((kind, None) for kind in (
        EventKind.ARM, EventKind.DOOR_OPEN, EventKind.DOOR_CLOSE,
        EventKind.MODE_BUTTON, EventKind.PRESS_DOWN, EventKind.PRESS_UP,
    )),
    (EventKind.DISTANCE_SAMPLE, 0.5),
    (EventKind.DISTANCE_SAMPLE, 2.0),
)
CONFIG = SimConfig(
    threshold_m=1.0, password="01", pulse_period_ms=250, press_window_ms=125,
    latency_ms=125, drop_probability=0.5, max_retries=1,
)
SEEDS = (0, 1)


def scenarios(n_events):
    """Every time-ordered scenario of ``n_events`` events on the grid."""
    for times in combinations_with_replacement(TIMES, n_events):
        for shapes in product(SHAPES, repeat=n_events):
            events = [ScenarioEvent(t, kind, meters) for t, (kind, meters) in zip(times, shapes)]
            yield Scenario(name="small", events=events)


def check(n_events, cfg=CONFIG, seeds=SEEDS):
    """(runs, refused scenarios, mismatches, actions seen) over every scenario of
    ``n_events`` events, each run on each seed."""
    runs, refused, mismatches, seen = 0, 0, [], set()
    for scenario in scenarios(n_events):
        try:
            prepared = prepare(scenario, cfg)
        except ConfigError:
            refused += 1
            try:
                oracle.simulate(scenario, 0, cfg)
            except oracle.Refused:
                continue
            mismatches.append((scenario.events, "refused; the model runs it"))
            continue
        for seed in seeds:
            runs += 1
            report = simulate(scenario, prepared, seed)
            for fmt in FORMATS:
                if render_report(report, fmt) != oracle.report(scenario, seed, cfg, fmt):
                    mismatches.append((scenario.events, seed, fmt))
            sent = notifications(report.actions, report.clips, prepared)
            outbox = "".join(format_outbox_line(n) + "\n" for n in sent).encode("utf-8")
            if outbox != oracle.outbox(scenario, seed, cfg):
                mismatches.append((scenario.events, seed, "outbox"))
            seen.update(line.split("\t", 3)[2] for line in report.actions)
    return runs, refused, mismatches, seen


def test_every_scenario_of_up_to_three_events_matches_the_oracle():
    seen = set()
    for n_events in range(4):
        runs, refused, mismatches, actions = check(n_events)
        assert mismatches == []
        seen |= actions
    assert (runs, refused) == (19_852, 314)  # 3 events: 10,240 scenarios on 2 seeds
    # the grid reaches every action the controller logs
    assert seen == {
        "ARMED", "ATTEMPT_BEGIN", "DEACTIVATION_FAILED", "DEACTIVATION_SUCCEEDED", "DROP",
        "INTRUSION", "PRESENCE", "PRESENCE_TRIGGER", "RX", "START_RECORDING", "SUPPRESSED", "TX",
    }


def test_a_follow_up_on_an_attempts_last_millisecond_comes_before_its_decision():
    # With a 126 ms window, attempts end at 126 or 251, and the 125 ms latency lands
    # a frame arrival on end - 1, pushed after the button queued the attempt's deadline
    # there: the deadline must still be that millisecond's last item.
    runs, refused, mismatches, actions = check(2, CONFIG._replace(password="1", press_window_ms=126))
    assert mismatches == []
    assert (runs, refused) == (1_268, 6)
    assert {"RX", "DEACTIVATION_SUCCEEDED", "DEACTIVATION_FAILED"} <= actions
