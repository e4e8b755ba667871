"""Python calls per event, held to the per-function table committed here.

A 10^4-event slice of the benchmark's long_stream scenario is run once to
warm up (``rng._lanes``' cache fills on a process's first blocks), then run
and rendered once more under ``sys.setprofile``, counting each ``call`` event
whose code lives under src/sentinelsim/, keyed by file and function name.
Names that start with ``<`` (comprehensions, inlined from 3.12 on, and
genexprs) are not counted, so the table is the same on every supported
Python. A change that moves a count updates CALLS in the same commit and says
why in CHANGES.md. It counts calls, not time.
"""

import collections
import os
import sys

from sentinelsim import engine
from sentinelsim.report import render_report
from sentinelsim.scenario import parse_scenario

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "sentinelsim") + os.sep
EVENTS = 10_000

# 18,999 calls, 1.90 per event
CALLS = {
    "airframe.py:transmit": 988,
    "config.py:apply_overrides": 1,
    "config.py:attempt_ms": 572,
    "config.py:coerce_value": 2,
    "config.py:integer": 1,
    "config.py:one_line": 2,
    "config.py:validate": 1,
    "controller.py:__init__": 1,
    "controller.py:_decide_attempt": 571,
    "controller.py:_dispatch_arrival": 956,
    "controller.py:_dispatch_clip_done": 367,
    "controller.py:_dispatch_distance": 438,
    "controller.py:_ignore": 571,
    "controller.py:_on_arm": 269,
    "controller.py:_on_door_close": 988,
    "controller.py:_on_door_open": 988,
    "controller.py:_on_mode_button": 571,
    "controller.py:_on_press_down": 2708,
    "controller.py:dispatch": 1,
    "controller.py:run": 1,
    "engine.py:build_controller": 1,
    "engine.py:prepare": 1,
    "engine.py:resolve_run_config": 1,
    "engine.py:run": 1,
    "engine.py:simulate": 1,
    "engine.py:validate_events": 1,
    "events.py:__init__": 1,
    "events.py:paused": 2,
    "events.py:push": 1894,
    "notify.py:recipients_for": 1,
    "pulselock.py:__init__": 571,
    "pulselock.py:begin_attempt": 571,
    "pulselock.py:finalize": 571,
    "pulselock.py:record_press": 2250,
    "report.py:render_report": 1,
    "report.py:summary_lines": 1,
    "rng.py:__init__": 1,
    "rng.py:_decide_block": 25,
    "rng.py:_threshold": 25,
    "rng.py:first_at_least": 988,
    "sensors.py:distance_from_echo": 828,
    "sensors.py:echo_from_distance": 828,
    "sensors.py:presence_detect": 438,
}


def counted_calls():
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        import gen
    finally:
        sys.path.pop(0)
    scenario = parse_scenario(gen.scenario_text(gen.derive(11, 2), EVENTS), name="stream")
    seed = gen.run_seed(11, 0)

    def op():
        render_report(engine.run(scenario, seed=seed, cli_overrides=gen.STREAM_OVERRIDES), "text")

    op()
    calls = collections.Counter()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(SRC) and not code.co_name.startswith("<"):
                calls[f"{code.co_filename[len(SRC):]}:{code.co_name}"] += 1

    sys.setprofile(profile)
    try:
        op()
    finally:
        sys.setprofile(None)
    return dict(calls)


def test_a_long_stream_slice_makes_its_committed_calls():
    calls = counted_calls()
    assert calls == CALLS, f"{sum(calls.values())} calls over {EVENTS} events; update CALLS and say why"
