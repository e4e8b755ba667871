"""Every small scenario on a grid, checked against the model in tests/oracle.py.

Where the Hypothesis property in test_oracle.py samples scenarios, this runs
every time-ordered scenario of up to a few events whose times and events
come from a small grid (the "small scope hypothesis": most faults show on
some small input). Each runs through ``engine.prepare``, ``engine.simulate``
and both renders, and its report bytes and outbox.log lines must equal the
model's. A scenario that ``prepare`` refuses must be refused with
``ConfigError``, as the model refuses it, and never fail inside ``simulate``.
``check_tree`` runs each one through ``cli.main`` with ``--out`` instead, and
the whole tree it writes (report, outbox.log, clips and maildir) must equal
the model's, file for file and byte for byte.

Tier-1 runs up to 3 events on one config, and the trees of up to 2 events
with maildir on. ``check`` and ``check_tree`` take any event count and
config, for a longer run over a wider config grid.
"""

import contextlib
import io
import json
import os
import re
import tempfile
from itertools import combinations_with_replacement, product

import pytest

import oracle
from sentinelsim import cli
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
TREE_CONFIG = CONFIG._replace(maildir=True)
# each event as a scenario file line
WORDS = {
    EventKind.ARM: "arm", EventKind.DOOR_OPEN: "door open", EventKind.DOOR_CLOSE: "door close",
    EventKind.MODE_BUTTON: "mode_button", EventKind.PRESS_DOWN: "press_down",
    EventKind.PRESS_UP: "press_up", EventKind.DISTANCE_SAMPLE: "distance",
}


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


def read_tree(root):
    """Each file under ``root`` by its path with its bytes, and each directory with None."""
    found = {}
    for here, dirs, files in os.walk(root):
        for name in dirs + files:
            path = os.path.join(here, name)
            key = os.path.relpath(path, root).replace(os.sep, "/")
            if name in dirs:
                found[key] = None
            else:
                with open(path, "rb") as fh:
                    found[key] = fh.read()
    return found


def check_tree(n_events, cfg=TREE_CONFIG, seeds=SEEDS):
    """(runs, refused scenarios, mismatches, paths seen with each number as N) of
    ``sentinelsim run --out`` over every scenario of ``n_events`` events, each run on
    each seed; an odd seed's run is structured, an even one's text."""
    runs, refused, mismatches, seen = 0, 0, [], set()
    with tempfile.TemporaryDirectory() as tmp:
        path, config = os.path.join(tmp, "small.scn"), os.path.join(tmp, "config.json")
        out = os.path.join(tmp, "out")  # each run first removes what the last one wrote
        with open(config, "w", encoding="utf-8") as fh:
            json.dump(cfg._asdict(), fh)
        for scenario in scenarios(n_events):
            events = scenario.events
            with open(path, "w", encoding="utf-8") as fh:
                for at, kind, meters in zip(events.times, events.kinds, events.meters):
                    fh.write(f"{at} {WORDS[kind]}{'' if meters is None else f' {meters}'}\n")
            for seed in seeds:
                fmt = FORMATS[seed % 2]
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(["run", path, "--seed", str(seed), "--config", config,
                                     "--format", fmt, "--out", out])
                try:
                    want = oracle.tree(scenario, seed, cfg, fmt)
                except oracle.Refused:
                    refused += 1
                    if code != 1 or stdout.getvalue():
                        mismatches.append((events, "refused by the model; exit", code))
                    break
                runs += 1
                got = read_tree(out)
                report = want["report.json" if fmt == "structured" else "report.txt"]
                if code != 0 or got != want:
                    mismatches.append((events, seed, code, set(got.items()) ^ set(want.items())))
                elif stdout.getvalue().encode("utf-8") != report:
                    mismatches.append((events, seed, "stdout"))
                seen.update(re.sub(r"\d+", "N", key) for key in got)
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


@pytest.mark.parametrize("presence_to_authorities", [False, True])
def test_every_out_tree_of_up_to_two_events_matches_the_oracle(presence_to_authorities):
    cfg = TREE_CONFIG._replace(presence_to_authorities=presence_to_authorities)
    totals, seen = [0, 0], set()
    for n_events in range(3):
        runs, refused, mismatches, paths = check_tree(n_events, cfg)
        assert mismatches == []
        totals[0] += runs
        totals[1] += refused
        seen |= paths
    assert totals == [1_332, 7]  # 673 scenarios, 7 refused; 2 seeds each
    # every name --out writes, and a mail file of each kind
    assert seen == {
        "report.txt", "report.json", "outbox.log", "clips", "clips/clip-N.bin",
        "maildir", "maildir/tmp", "maildir/new", "maildir/cur",
        "maildir/new/N.presence.eml", "maildir/new/N.intrusion.eml",
        "maildir/new/N.deactivation_failed.eml", "maildir/new/N.deactivation_succeeded.eml",
    }
