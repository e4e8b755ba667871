"""The cyclic collector's pause around parse_scenario, simulate and render_report.

Each call turns the process-wide collector off for its length and gives the
caller back the state it had, whether the call returns or raises, and
whichever of several threads ends its pause first.
"""

import gc
import os
import sys
import threading

import pytest

from conftest import BREAKIN_TEXT
from sentinelsim import controller, engine, report, scenario
from sentinelsim.events import EventKind, collector_paused
from sentinelsim.report import FORMATS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _parse(raises, monkeypatch):
    text = "0 arm\nbogus\n" if raises else BREAKIN_TEXT
    return lambda: scenario.parse_scenario(text), scenario.ScenarioError


def _simulate(raises, monkeypatch):
    parsed = scenario.parse_scenario(BREAKIN_TEXT)
    cfg = engine.prepare(parsed)
    if raises:  # an internal fault inside the dispatch loop
        def broken_arm(self, t, meters):
            raise KeyError("arm")

        handlers = {**controller.Controller._HANDLERS, EventKind.ARM: broken_arm}
        monkeypatch.setattr(controller.Controller, "_HANDLERS", handlers)
    return lambda: engine.simulate(parsed, cfg, 3), KeyError


def _render(raises, monkeypatch):
    result = engine.run(scenario.parse_scenario(BREAKIN_TEXT), seed=3)
    fmt = "bogus" if raises else "text"
    return lambda: report.render_report(result, fmt), ValueError


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("raises", [False, True], ids=["returns", "raises"])
@pytest.mark.parametrize("case", [_parse, _simulate, _render], ids=["parse", "simulate", "render"])
def test_the_callers_collector_state_is_restored(case, raises, enabled, monkeypatch):
    call, error = case(raises, monkeypatch)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if raises:
            with pytest.raises(error):
                call()
        else:
            call()
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_a_paused_function_runs_with_the_collector_off_and_keeps_its_identity():
    def probe(x, *, y=1):
        """Doc."""
        return gc.isenabled(), x + y

    paused = collector_paused(probe)
    assert gc.isenabled()
    assert paused(1, y=2) == (False, 3)
    assert gc.isenabled()
    assert (paused.__name__, paused.__doc__, paused.__wrapped__) == ("probe", "Doc.", probe)
    for fn in (scenario.parse_scenario, engine.simulate, report.render_report):
        assert fn.__wrapped__.__name__ == fn.__name__


def _round(name, text, seed, fmt):
    parsed = scenario.parse_scenario(text, name=name)
    return report.render_report(engine.run(parsed, seed=seed), fmt)


def test_threads_sharing_the_collector_switch_leave_it_on_and_reports_unchanged():
    shipped = []
    for name in sorted(os.listdir(os.path.join(ROOT, "scenarios"))):
        with open(os.path.join(ROOT, "scenarios", name), encoding="utf-8") as fh:
            shipped.append((name, fh.read()))
    threads_n, rounds = 4, 50

    def rounds_of(k):  # thread k's rounds: every shipped scenario at each of its seeds
        for seed in range(k * rounds, (k + 1) * rounds):
            for name, text in shipped:
                yield name, text, seed, FORMATS[seed % 2]

    serial = {
        (name, seed): _round(name, text, seed, fmt)
        for k in range(threads_n)
        for name, text, seed, fmt in rounds_of(k)
    }
    got = {}
    errors = []

    def worker(k):
        try:
            for name, text, seed, fmt in rounds_of(k):
                got[name, seed] = _round(name, text, seed, fmt)
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    assert gc.isenabled()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert got == serial
    assert gc.isenabled() is True
