"""Python calls and file opens of one CLI run, held to the tables committed here.

The run is the benchmark's first alert_storm operation (``storm-00`` of seed
7) given to ``cli.main`` as a user would give it, with a JSON config that turns
maildir on, ``--format structured`` and ``--out``. It is run once to warm up
(the parser is built and ``rng._lanes``' cache fills on a process's first
run), then once more under ``sys.setprofile``, counting each ``call`` event
whose code lives under src/sentinelsim/, keyed by file and function name, on
``test_call_budget``'s rules: names that start with ``<`` are not counted.

Calls into the standard library are reported (``pytest -s`` prints them) but
not pinned: they differ from one Python version to the next. The files the
run opens through ``open`` in ``cli`` and ``notify`` are pinned, by name
under ``--out``. A change that moves a count updates the table in the same
commit and says why in CHANGES.md. It counts calls and opens, not time.
"""

import builtins
import collections
import contextlib
import io
import itertools
import json
import os
import re
import sys

from sentinelsim import cli, notify

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "sentinelsim") + os.sep
SEED = 7

# 2,230 calls under src/
CALLS = {
    "airframe.py:transmit": 146,
    "cli.py:_clear_out_dir": 1,
    "cli.py:_cmd_run": 1,
    "cli.py:_load_scenario": 1,
    "cli.py:_parse_cli_overrides": 1,
    "cli.py:_write_out": 1,
    "cli.py:main": 1,
    "cli.py:seed": 1,
    "config.py:addresses": 1,
    "config.py:apply_overrides": 1,
    "config.py:attempt_ms": 7,
    "config.py:coerce_value": 5,
    "config.py:integer": 1,
    "config.py:load_config_file": 1,
    "config.py:one_line": 4,
    "config.py:read_text": 2,
    "config.py:validate": 1,
    "controller.py:__init__": 1,
    "controller.py:_dispatch_arrival": 142,
    "controller.py:_dispatch_clip_done": 4,
    "controller.py:_dispatch_deadline": 6,
    "controller.py:_dispatch_distance": 4,
    "controller.py:_on_arm": 14,
    "controller.py:_on_door_close": 146,
    "controller.py:_on_door_open": 146,
    "controller.py:_on_mode_button": 6,
    "controller.py:_on_press_down": 29,
    "controller.py:action_fields": 2,
    "controller.py:notifications": 1,
    "controller.py:run": 1,
    "engine.py:build_controller": 1,
    "engine.py:prepare": 1,
    "engine.py:resolve_run_config": 1,
    "engine.py:simulate": 1,
    "engine.py:validate_events": 1,
    "events.py:__init__": 1,
    "events.py:paused": 3,
    "events.py:push": 146,
    "notify.py:__init__": 2,
    "notify.py:body": 138,
    "notify.py:build_notification": 138,
    "notify.py:deliver": 276,
    "notify.py:format_outbox_line": 138,
    "notify.py:recipients_for": 139,
    "notify.py:subject": 276,
    "pulselock.py:__init__": 6,
    "pulselock.py:begin_attempt": 6,
    "pulselock.py:finalize": 6,
    "pulselock.py:record_press": 25,
    "report.py:_container": 3,
    "report.py:_render_structured": 1,
    "report.py:render_report": 1,
    "rng.py:__init__": 2,
    "rng.py:_decide_block": 7,
    "rng.py:_threshold": 7,
    "rng.py:first_at_least": 146,
    "scenario.py:__new__": 3,
    "scenario.py:_sorted_columns": 2,
    "scenario.py:parse_scenario": 1,
    "sensors.py:distance_from_echo": 35,
    "sensors.py:echo_from_distance": 35,
    "sensors.py:presence_detect": 4,
}

# files opened per run, by their name under --out with each number as N
OPENS = {
    "report.json": 1,
    "outbox.log": 139,  # truncated once, then reopened for each of the 138 mails
    "maildir/new/N.deactivation_failed.eml": 1,
    "maildir/new/N.deactivation_succeeded.eml": 5,
    "maildir/new/N.intrusion.eml": 128,
    "maildir/new/N.presence.eml": 4,
    "clips/clip-N.bin": 4,
}


def storm_run(tmp_path):
    """A function that runs storm-00 through ``cli.main`` into a fresh --out directory."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        import gen
    finally:
        sys.path.pop(0)
    name, text = gen.inputs("alert_storm", SEED, ROOT)[0]
    scenario = tmp_path / f"{name}.scn"
    scenario.write_text(text, encoding="utf-8")
    config = tmp_path / gen.STORM_CONFIG_FILE
    config.write_text(json.dumps(gen.STORM_CONFIG), encoding="utf-8")
    assert gen.STORM_CONFIG["maildir"] is True
    runs = itertools.count(1)

    def op():
        out = tmp_path / f"out-{next(runs)}"
        argv = ["run", str(scenario), "--seed", str(gen.run_seed(SEED, 0)),
                "--config", str(config), "--format", "structured", "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        return str(out)

    return op


def test_a_cli_run_with_out_makes_its_committed_calls_and_opens(tmp_path, monkeypatch):
    op = storm_run(tmp_path)
    op()
    opened = []

    def counting_open(file, *args, **kwargs):
        opened.append(os.fspath(file))
        return builtins.open(file, *args, **kwargs)

    for module in (cli, notify):
        monkeypatch.setattr(module, "open", counting_open, raising=False)
    calls, others = collections.Counter(), collections.Counter()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_name.startswith("<") or code.co_filename == __file__:
                return
            if code.co_filename.startswith(SRC):
                calls[f"{code.co_filename[len(SRC):]}:{code.co_name}"] += 1
            else:
                others[f"{os.path.basename(code.co_filename)}:{code.co_name}"] += 1

    sys.setprofile(profile)
    try:
        out = op()
    finally:
        sys.setprofile(None)
    opens = collections.Counter(
        re.sub(r"\d+", "N", os.path.relpath(path, out)) for path in opened
    )
    print(f"\n{sum(calls.values())} calls under src/, {sum(others.values())} other calls, most:")
    for name, count in others.most_common(15):
        print(f"  {count:6d}  {name}")
    assert dict(calls) == CALLS, f"{sum(calls.values())} calls under src/; update CALLS and say why"
    assert dict(opens) == OPENS, f"{len(opened)} files opened; update OPENS and say why"
