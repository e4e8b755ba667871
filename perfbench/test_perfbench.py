"""Tests of the benchmark itself: input generation and span self time.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gen  # noqa: E402
import spans  # noqa: E402


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_workload_seed_gives_same_scenario_text(workload):
    first = gen.inputs(workload, 7, ROOT)
    assert first == gen.inputs(workload, 7, ROOT)
    assert first != gen.inputs(workload, 8, ROOT)


def test_generator_is_pinned_to_its_own_stream():
    # A change here changes every workload's inputs and the golden grid.
    assert gen.Stream(0).next_u64() == 0xE220A8397B1DCDAF
    assert gen.scenario_text(101, 3) == "2290 door open\n5173 door close\n6731 distance 3.81\n"


def test_generated_scenarios_pass_the_programs_validation():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from sentinelsim import engine, scenario

    for workload, overrides in (("seed_sweep", gen.SWEEP_OVERRIDES), ("alert_storm", gen.STORM_CONFIG)):
        for name, text in gen.inputs(workload, 3, ROOT):
            parsed = scenario.parse_scenario(text, name=name)
            engine.validate_events(parsed, engine.resolve_run_config(parsed, None, overrides))


def test_self_time_is_span_minus_child_spans_on_a_hand_built_tree():
    # root [0, 10) holds a [1, 4) and b [5, 7); a holds c [2, 3)
    tree = [
        (0, -1, 0, "root", 0.0, 10.0),
        (1, 0, 0, "a", 1.0, 4.0),
        (2, 1, 0, "c", 2.0, 3.0),
        (3, 0, 0, "b", 5.0, 7.0),
    ]
    assert spans.self_times(tree) == {"root": 5.0, "a": 2.0, "c": 1.0, "b": 2.0}


def test_tracer_aggregates_agree_with_its_span_records():
    ticks = iter(range(1000))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    tracer.stats.update({name: [0, 0.0, 0.0] for name in ("outer", "inner")})
    inner = tracer.wrap("inner", lambda x: x + 1)

    def body(x):
        return inner(inner(x))

    outer = tracer.wrap("outer", body)
    assert outer(1) == 3
    assert outer(5) == 7
    recorded = spans.self_times(tracer.spans)
    for name in ("outer", "inner"):
        calls, _total, self_s = tracer.stats[name]
        assert self_s == recorded[name]
    assert tracer.stats["outer"][0] == 2 and tracer.stats["inner"][0] == 4
    # each inner span lasts one tick; each outer span lasts five
    assert recorded == {"outer": 2 * (5 - 2), "inner": 4 * 1}
    assert all(parent == -1 for _id, parent, _op, name, _s, _e in tracer.spans if name == "outer")


def test_install_wraps_layer_functions_and_uninstall_restores():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from sentinelsim import controller, engine

    original = (engine.run, controller.transmit, controller.Controller.dispatch)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert engine.run is not original[0]
        assert controller.transmit.__wrapped__ is original[1]
    finally:
        tracer.uninstall()
    assert (engine.run, controller.transmit, controller.Controller.dispatch) == original
