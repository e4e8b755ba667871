"""End-to-end runs: determinism, outbox consistency and fuzzed invariants."""

import dataclasses
import json
from itertools import accumulate
from operator import attrgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_scenario
from sentinelsim.config import ConfigError, SimConfig
from sentinelsim.engine import build_controller, resolve_run_config, run, validate_events
from sentinelsim.events import EventKind, EventQueue, ScenarioEvent
from sentinelsim.notify import Dispatcher, MemorySink, NotificationKind
from sentinelsim.pulselock import AttemptStateError
from sentinelsim.report import render_report
from sentinelsim.scenario import Scenario, parse_scenario

FLOAT_KEYS = [f.name for f in dataclasses.fields(SimConfig) if f.type == "float"]


def run_with_probe(scenario, seed=0, **kw):
    probe = MemorySink("probe")
    report = run(scenario, seed=seed, extra_sinks=[probe], **kw)
    return report, probe


class TestBreakinScenario:
    def test_outbox_contents(self, breakin_scenario):
        report, probe = run_with_probe(breakin_scenario)
        kinds = [n.kind for n in probe.messages]
        assert kinds == [NotificationKind.INTRUSION, NotificationKind.PRESENCE]
        presence = probe.messages[1]
        assert presence.attachment == "clip-0001"
        assert report.outbox_counts["INTRUSION"] == 1
        assert report.outbox_counts["PRESENCE"] == 1

    def test_clip_duration_within_bounds(self, breakin_scenario):
        report, _ = run_with_probe(breakin_scenario)
        (clip,) = report.clips
        assert 5000 <= clip.duration_ms <= 10000
        assert clip.started_at == 2000

    def test_final_mode_stays_armed(self, breakin_scenario):
        report, _ = run_with_probe(breakin_scenario)
        assert report.final_mode == "ARMED"

    def test_replay_is_byte_identical(self, breakin_scenario):
        a = render_report(run(breakin_scenario, seed=7), "structured")
        b = render_report(run(breakin_scenario, seed=7), "structured")
        assert a == b

    def test_different_wire_of_text_and_structured(self, breakin_scenario):
        report, _ = run_with_probe(breakin_scenario)
        text = render_report(report, "text").decode()
        assert "INTRUSION\trecipients=owner,authorities" in text
        assert text.count("\n") == len(report.actions) + len(report.summary_lines())
        doc = json.loads(render_report(report, "structured"))
        assert doc["outbox"] == report.outbox_counts
        assert doc["scenario"] == "breakin"

    def test_rendering_is_pure(self, breakin_scenario):
        report, _ = run_with_probe(breakin_scenario)
        for fmt in ("text", "structured"):
            assert render_report(report, fmt) == render_report(report, fmt)

    def test_unknown_format_rejected(self, breakin_scenario):
        report, _ = run_with_probe(breakin_scenario)
        with pytest.raises(ValueError):
            render_report(report, "yaml")


class TestDeactivateScenario:
    def test_disarm_suppresses_door_alert(self, deactivate_scenario):
        report, probe = run_with_probe(deactivate_scenario)
        kinds = [n.kind for n in probe.messages]
        assert kinds == [NotificationKind.DEACTIVATION_SUCCEEDED]
        assert report.final_mode == "DISARMED"
        suppressed = [a for a in report.actions if a.action == "SUPPRESSED"]
        assert len(suppressed) == 1

    def test_wrong_password_fails_and_door_alerts(self):
        text = (
            "0 arm\n1000 mode_button\n1250 press_down\n9000 door open\n"
        )
        report, probe = run_with_probe(parse_scenario(text))
        kinds = [n.kind for n in probe.messages]
        assert kinds == [
            NotificationKind.DEACTIVATION_FAILED,
            NotificationKind.INTRUSION,
        ]
        assert report.final_mode == "ARMED"


class TestEmptyAndEdgeScenarios:
    def test_empty_scenario(self):
        report, probe = run_with_probe(parse_scenario(""))
        assert probe.messages == []
        assert report.final_mode == "DISARMED"
        assert report.actions == ()
        assert set(report.outbox_counts.values()) == {0}

    def test_distance_beyond_max_range_rejected(self):
        sc = parse_scenario("0 distance 9.5")
        with pytest.raises(ConfigError, match="max_range"):
            run(sc)

    def test_scenario_overrides_reach_the_run(self):
        sc = parse_scenario("set threshold_m 2.0\n0 distance 1.5")
        report, probe = run_with_probe(sc)
        assert [n.kind for n in probe.messages] == [NotificationKind.PRESENCE]

    def test_cli_overrides_beat_scenario(self):
        sc = parse_scenario("set threshold_m 2.0\n0 distance 1.5")
        report, probe = run_with_probe(sc, cli_overrides={"threshold_m": "1.0"})
        assert probe.messages == []

    def test_presence_to_authorities_flag(self):
        sc = parse_scenario(
            "set presence_to_authorities true\n0 distance 0.5"
        )
        _, probe = run_with_probe(sc)
        assert probe.messages[0].recipients == {"owner", "authorities"}

    def test_configured_clip_duration_used(self):
        sc = parse_scenario("set clip_duration_ms 10000\n0 distance 0.5")
        report, probe = run_with_probe(sc)
        assert report.clips[0].duration_ms == 10000
        assert probe.messages[0].created_at == 10000

    def test_total_drop_produces_no_intrusion(self, breakin_scenario):
        report, probe = run_with_probe(
            breakin_scenario, cli_overrides={"drop_probability": "1.0"}
        )
        kinds = [n.kind for n in probe.messages]
        assert kinds == [NotificationKind.PRESENCE]
        assert any(a.action == "DROP" for a in report.actions)

    def test_validate_events_passes_good_scenario(self, breakin_scenario):
        cfg = resolve_run_config(breakin_scenario)
        validate_events(breakin_scenario, cfg)


class TestRunReportConsistency:
    def test_counts_match_probe_tallies(self, breakin_scenario, deactivate_scenario):
        for sc in (breakin_scenario, deactivate_scenario):
            report, probe = run_with_probe(sc)
            for kind in NotificationKind:
                expected = sum(1 for n in probe.messages if n.kind is kind)
                assert report.outbox_counts[kind.value] == expected

    def test_rng_algorithm_recorded(self, breakin_scenario):
        report, _ = run_with_probe(breakin_scenario)
        assert report.rng_algorithm == "splitmix64"
        doc = json.loads(render_report(report, "structured"))
        assert doc["rng"] == "splitmix64"


class TestFuzzedInvariants:
    SEEDS = range(12)

    def test_action_log_times_non_decreasing(self):
        for seed in self.SEEDS:
            report, _ = run_with_probe(random_scenario(seed), seed=seed)
            times = [a.at for a in report.actions]
            assert times == sorted(times)

    def test_no_intrusion_while_disarmed(self):
        for seed in self.SEEDS:
            report, _ = run_with_probe(random_scenario(seed), seed=seed)
            armed = False
            for action in report.actions:
                if action.action == "ARMED":
                    armed = True
                elif action.action == "DEACTIVATION_SUCCEEDED":
                    armed = False
                elif action.action == "INTRUSION":
                    assert armed, f"seed {seed}: intrusion while disarmed"

    def test_presence_references_fresh_clips(self):
        for seed in self.SEEDS:
            report, probe = run_with_probe(random_scenario(seed), seed=seed)
            jobs = {c.clip_id: c for c in report.clips}
            triggers = [
                a.at for a in report.actions if a.action == "PRESENCE_TRIGGER"
            ]
            for n in probe.messages:
                if n.kind is NotificationKind.PRESENCE:
                    job = jobs[n.attachment]
                    assert job.started_at in triggers
                    assert n.created_at == job.started_at + job.duration_ms

    def test_presence_triggers_respect_cooldown(self):
        cfg = SimConfig()
        for seed in self.SEEDS:
            report, _ = run_with_probe(random_scenario(seed), seed=seed)
            triggers = [
                a.at for a in report.actions if a.action == "PRESENCE_TRIGGER"
            ]
            gaps = [b - a for a, b in zip(triggers, triggers[1:])]
            assert all(g >= cfg.retrigger_cooldown_ms for g in gaps)

    def test_no_notification_dispatched_twice(self):
        for seed in self.SEEDS:
            _, probe = run_with_probe(random_scenario(seed), seed=seed)
            triples = [(n.kind, n.created_at, n.attachment) for n in probe.messages]
            assert len(triples) == len(set(triples))

    def test_outbox_is_a_function_of_the_action_log(self):
        expected_by_action = {
            "INTRUSION": (NotificationKind.INTRUSION, {"owner", "authorities"}),
            "PRESENCE": (NotificationKind.PRESENCE, {"owner"}),
            "DEACTIVATION_FAILED": (NotificationKind.DEACTIVATION_FAILED, {"owner"}),
            "DEACTIVATION_SUCCEEDED": (
                NotificationKind.DEACTIVATION_SUCCEEDED,
                {"owner"},
            ),
        }
        for seed in self.SEEDS:
            report, probe = run_with_probe(random_scenario(seed), seed=seed)
            derived = [
                expected_by_action[a.action]
                for a in report.actions
                if a.action in expected_by_action
            ]
            actual = [(n.kind, set(n.recipients)) for n in probe.messages]
            assert derived == actual

    def test_replay_determinism_across_fuzz(self):
        for seed in (3, 8):
            sc = random_scenario(seed)
            first = render_report(run(sc, seed=seed), "structured")
            second = render_report(run(sc, seed=seed), "structured")
            assert first == second


class TestValidationBeforeDispatch:
    @given(key=st.sampled_from(FLOAT_KEYS), seed=st.integers(0, 50))
    def test_nan_config_value_is_rejected_naming_its_key(self, key, seed):
        base = SimConfig(**{key: float("nan")})
        with pytest.raises(ConfigError, match=key):
            run(random_scenario(seed, n_events=10), seed=seed, base_config=base)

    @settings(max_examples=200)
    @given(
        gaps=st.lists(
            st.tuples(
                st.sampled_from([EventKind.MODE_BUTTON] * 3 + [EventKind.PRESS_DOWN]),
                # every attempt length below is a multiple of 250 ms, so gaps
                # on that grid, and 1 ms short of it, hit attempt ends
                st.integers(0, 10).flatmap(lambda k: st.sampled_from([k * 250, k * 250 - 1])),
            ),
            max_size=8,
        ),
        order=st.randoms(use_true_random=False),
        overrides=st.fixed_dictionaries({
            "password": st.sampled_from(["1", "10", "011"]),
            "pulse_period_ms": st.sampled_from(["500", "1000"]),
            "press_window_ms": st.sampled_from(["250", "500"]),
        }),
    )
    def test_validate_rejects_exactly_what_the_controller_refuses(self, gaps, order, overrides):
        times = accumulate(max(gap, 0) for _kind, gap in gaps)
        events = [ScenarioEvent(at=t, kind=kind) for (kind, _gap), t in zip(gaps, times)]
        order.shuffle(events)  # a hand-built scenario need not be in time order
        scenario = Scenario(events=tuple(events))
        cfg = resolve_run_config(scenario, None, overrides)
        try:
            validate_events(scenario, cfg)
        except ConfigError:
            rejected = True
        else:
            rejected = False
        controller = build_controller(cfg, 0, Dispatcher([]))
        queue = EventQueue()
        try:
            for item in queue.merge(sorted(events, key=attrgetter("at"))):
                for followup in controller.dispatch(item):
                    queue.push(followup)
        except AttemptStateError:
            refused = True
        else:
            refused = False
        assert rejected == refused
