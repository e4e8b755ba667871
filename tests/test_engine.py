"""End-to-end runs: determinism, outbox consistency and fuzzed invariants."""

import json
import os
import subprocess
import sys
from itertools import accumulate
from operator import attrgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import columns, random_scenario
from sentinelsim import controller as controller_module
from sentinelsim.config import ConfigError, SimConfig
from sentinelsim.controller import action_fields
from sentinelsim.engine import (
    build_controller, prepare, resolve_run_config, run, simulate, validate_events,
)
from sentinelsim.events import EventKind, ScenarioEvent
from sentinelsim.notify import NotificationKind, build_notification
from sentinelsim.pulselock import AttemptStateError
from sentinelsim.report import render_report
from sentinelsim.scenario import Scenario, parse_scenario



def logged(report):
    """(t, action) of each action line, t as an int."""
    return [(int(t), action) for t, _, action, _ in action_fields(report.actions)]


FLOAT_KEYS = [k for k, v in SimConfig._field_defaults.items() if type(v) is float]
INT_KEYS = [k for k, v in SimConfig._field_defaults.items() if type(v) is int]


def render_fixed_fuzz() -> bytes:
    """Both reports of a fixed random scenario over a lossy link."""
    sc = random_scenario(11, n_events=200)
    report = run(sc, seed=11, cli_overrides={"drop_probability": "0.3"})
    return render_report(report, "text") + render_report(report, "structured")


def run_with_mail(scenario, seed=0, cli_overrides=()):
    """A run's report and the notifications built from it."""
    cfg = prepare(scenario, None, cli_overrides)
    report = simulate(scenario, cfg, seed)
    return report, controller_module.notifications(report.actions, report.clips, cfg)


class TestBreakinScenario:
    def test_outbox_contents(self, breakin_scenario):
        report, mail = run_with_mail(breakin_scenario)
        kinds = [n.kind for n in mail]
        assert kinds == [NotificationKind.INTRUSION, NotificationKind.PRESENCE]
        presence = mail[1]
        assert presence.attachment == "clip-0001"
        assert report.outbox_counts["INTRUSION"] == 1
        assert report.outbox_counts["PRESENCE"] == 1

    def test_clip_duration_within_bounds(self, breakin_scenario):
        report, _ = run_with_mail(breakin_scenario)
        (clip,) = report.clips
        assert 5000 <= clip.duration_ms <= 10000
        assert clip.started_at == 2000

    def test_final_mode_stays_armed(self, breakin_scenario):
        report, _ = run_with_mail(breakin_scenario)
        assert report.final_mode == "ARMED"

    def test_replay_is_byte_identical(self, breakin_scenario):
        a = render_report(run(breakin_scenario, seed=7), "structured")
        b = render_report(run(breakin_scenario, seed=7), "structured")
        assert a == b

    def test_different_wire_of_text_and_structured(self, breakin_scenario):
        report, _ = run_with_mail(breakin_scenario)
        text = render_report(report, "text").decode()
        assert "INTRUSION\trecipients=owner,authorities" in text
        assert text.count("\n") == len(report.actions) + len(report.summary_lines())
        doc = json.loads(render_report(report, "structured"))
        assert doc["outbox"] == report.outbox_counts
        assert doc["scenario"] == "breakin"

    def test_notifications_are_built_only_from_the_finished_report(self, breakin_scenario, monkeypatch):
        built = []

        def build(*args, **kwargs):
            built.append(args[0])
            return build_notification(*args, **kwargs)

        monkeypatch.setattr(controller_module, "build_notification", build)
        report = run(breakin_scenario)
        assert built == [] and report.outbox_counts["INTRUSION"] == report.outbox_counts["PRESENCE"] == 1
        mail = controller_module.notifications(report.actions, report.clips, SimConfig())
        assert built == [NotificationKind.INTRUSION, NotificationKind.PRESENCE]
        assert [n.kind for n in mail] == built

    def test_each_presence_mail_carries_its_clip_and_no_other_kind_one(self):
        # the one builder's rule, which no Notification constructor checks
        scenario = parse_scenario(
            "0 arm\n1000 distance 0.5\n3000 door open\n7000 distance 0.2\n8000 mode_button\n"
        )
        report = run(scenario)
        mail = controller_module.notifications(report.actions, report.clips, SimConfig())
        assert [(n.kind, n.attachment) for n in mail] == [
            (NotificationKind.INTRUSION, None),
            (NotificationKind.PRESENCE, "clip-0001"),
            (NotificationKind.PRESENCE, "clip-0002"),
            (NotificationKind.DEACTIVATION_FAILED, None),
        ]
        assert [job.clip_id for job in report.clips] == ["clip-0001", "clip-0002"]

    def test_rendering_is_pure(self, breakin_scenario):
        report, _ = run_with_mail(breakin_scenario)
        for fmt in ("text", "structured"):
            assert render_report(report, fmt) == render_report(report, fmt)

    def test_unknown_format_rejected(self, breakin_scenario):
        report, _ = run_with_mail(breakin_scenario)
        with pytest.raises(ValueError):
            render_report(report, "yaml")


class TestDeactivateScenario:
    def test_disarm_suppresses_door_alert(self, deactivate_scenario):
        report, mail = run_with_mail(deactivate_scenario)
        kinds = [n.kind for n in mail]
        assert kinds == [NotificationKind.DEACTIVATION_SUCCEEDED]
        assert report.final_mode == "DISARMED"
        assert [action for _, action in logged(report)].count("SUPPRESSED") == 1

    def test_wrong_password_fails_and_door_alerts(self):
        text = (
            "0 arm\n1000 mode_button\n1250 press_down\n9000 door open\n"
        )
        report, mail = run_with_mail(parse_scenario(text))
        kinds = [n.kind for n in mail]
        assert kinds == [
            NotificationKind.DEACTIVATION_FAILED,
            NotificationKind.INTRUSION,
        ]
        assert report.final_mode == "ARMED"


class TestEmptyAndEdgeScenarios:
    def test_empty_scenario(self):
        report, mail = run_with_mail(parse_scenario(""))
        assert mail == []
        assert report.final_mode == "DISARMED"
        assert report.actions == ()
        assert set(report.outbox_counts.values()) == {0}

    def test_distance_beyond_max_range_rejected(self):
        sc = parse_scenario("0 distance 9.5")
        with pytest.raises(ConfigError, match="max_range"):
            run(sc)

    def test_scenario_overrides_reach_the_run(self):
        sc = parse_scenario("set threshold_m 2.0\n0 distance 1.5")
        report, mail = run_with_mail(sc)
        assert [n.kind for n in mail] == [NotificationKind.PRESENCE]

    def test_cli_overrides_beat_scenario(self):
        sc = parse_scenario("set threshold_m 2.0\n0 distance 1.5")
        report, mail = run_with_mail(sc, cli_overrides={"threshold_m": "1.0"})
        assert mail == []

    def test_presence_to_authorities_flag(self):
        sc = parse_scenario(
            "set presence_to_authorities true\n0 distance 0.5"
        )
        _, mail = run_with_mail(sc)
        assert mail[0].recipients == ("owner", "authorities")

    def test_configured_clip_duration_used(self):
        sc = parse_scenario("set clip_duration_ms 10000\n0 distance 0.5")
        report, mail = run_with_mail(sc)
        assert report.clips[0].duration_ms == 10000
        assert mail[0].created_at == 10000

    def test_total_drop_produces_no_intrusion(self, breakin_scenario):
        report, mail = run_with_mail(
            breakin_scenario, cli_overrides={"drop_probability": "1.0"}
        )
        kinds = [n.kind for n in mail]
        assert kinds == [NotificationKind.PRESENCE]
        assert any(action == "DROP" for _, action in logged(report))

    def test_validate_events_passes_good_scenario(self, breakin_scenario):
        cfg = resolve_run_config(breakin_scenario)
        validate_events(breakin_scenario, cfg)

    @pytest.mark.parametrize("seed", [True, 7.0, 1.5])
    def test_a_seed_other_than_an_int_is_refused_before_the_run(self, breakin_scenario, seed):
        # True would print "seed: True" but write "seed": 1; 7.0 broke the structured render,
        # and 1.5 raised TypeError at the first door alert's link draw
        with pytest.raises(ValueError, match=f"got {seed!r}$"):
            run(breakin_scenario, seed=seed)


class TestRunReportConsistency:
    def test_counts_match_probe_tallies(self, breakin_scenario, deactivate_scenario):
        for sc in (breakin_scenario, deactivate_scenario):
            report, mail = run_with_mail(sc)
            for kind in NotificationKind:
                expected = sum(1 for n in mail if n.kind is kind)
                assert report.outbox_counts[kind.value] == expected

    def test_rng_algorithm_recorded(self, breakin_scenario):
        report, _ = run_with_mail(breakin_scenario)
        assert report.rng_algorithm == "splitmix64"
        doc = json.loads(render_report(report, "structured"))
        assert doc["rng"] == "splitmix64"


class TestFuzzedInvariants:
    SEEDS = range(12)

    def test_action_log_times_non_decreasing(self):
        for seed in self.SEEDS:
            report, _ = run_with_mail(random_scenario(seed), seed=seed)
            times = [t for t, _ in logged(report)]
            assert times == sorted(times)

    def test_no_intrusion_while_disarmed(self):
        for seed in self.SEEDS:
            report, _ = run_with_mail(random_scenario(seed), seed=seed)
            armed = False
            for _, action in logged(report):
                if action == "ARMED":
                    armed = True
                elif action == "DEACTIVATION_SUCCEEDED":
                    armed = False
                elif action == "INTRUSION":
                    assert armed, f"seed {seed}: intrusion while disarmed"

    def test_presence_references_fresh_clips(self):
        for seed in self.SEEDS:
            report, mail = run_with_mail(random_scenario(seed), seed=seed)
            jobs = {c.clip_id: c for c in report.clips}
            triggers = [t for t, action in logged(report) if action == "PRESENCE_TRIGGER"]
            for n in mail:
                if n.kind is NotificationKind.PRESENCE:
                    job = jobs[n.attachment]
                    assert job.started_at in triggers
                    assert n.created_at == job.started_at + job.duration_ms

    def test_presence_triggers_respect_cooldown(self):
        cfg = SimConfig()
        for seed in self.SEEDS:
            report, _ = run_with_mail(random_scenario(seed), seed=seed)
            triggers = [t for t, action in logged(report) if action == "PRESENCE_TRIGGER"]
            gaps = [b - a for a, b in zip(triggers, triggers[1:])]
            assert all(g >= cfg.retrigger_cooldown_ms for g in gaps)

    def test_no_notification_dispatched_twice(self):
        for seed in self.SEEDS:
            _, mail = run_with_mail(random_scenario(seed), seed=seed)
            triples = [(n.kind, n.created_at, n.attachment) for n in mail]
            assert len(triples) == len(set(triples))

    def test_outbox_is_a_function_of_the_action_log(self):
        expected_by_action = {
            "INTRUSION": (NotificationKind.INTRUSION, ("owner", "authorities")),
            "PRESENCE": (NotificationKind.PRESENCE, ("owner",)),
            "DEACTIVATION_FAILED": (NotificationKind.DEACTIVATION_FAILED, ("owner",)),
            "DEACTIVATION_SUCCEEDED": (
                NotificationKind.DEACTIVATION_SUCCEEDED,
                ("owner",),
            ),
        }
        for seed in self.SEEDS:
            report, mail = run_with_mail(random_scenario(seed), seed=seed)
            derived = [
                expected_by_action[action]
                for _, action in logged(report)
                if action in expected_by_action
            ]
            actual = [(n.kind, n.recipients) for n in mail]
            assert derived == actual

    def test_replay_determinism_across_fuzz(self):
        for seed in (3, 8):
            sc = random_scenario(seed)
            first = render_report(run(sc, seed=seed), "structured")
            second = render_report(run(sc, seed=seed), "structured")
            assert first == second

    def test_reports_do_not_depend_on_the_hash_seed(self):
        tests_dir = os.path.dirname(os.path.abspath(__file__))
        path = os.pathsep.join([os.path.join(tests_dir, os.pardir, "src"), tests_dir])

        def output(hash_seed, code):
            env = {**os.environ, "PYTHONHASHSEED": str(hash_seed), "PYTHONPATH": path}
            return subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, check=True
            ).stdout

        # Pair seed 0 with the first seed that iterates the recipient names
        # in another order, so a set-order dependence would show here.
        set_order = "print(list({'owner', 'authorities'}))"
        first = output(0, set_order)
        other = next((s for s in range(1, 33) if output(s, set_order) != first), None)
        assert other is not None, "no hash seed in 1..32 reorders the set"
        code = "import sys, test_engine; sys.stdout.buffer.write(test_engine.render_fixed_fuzz())"
        for hash_seed in (0, other):
            assert output(hash_seed, code) == render_fixed_fuzz()


class TestValidationBeforeDispatch:
    @given(
        key=st.sampled_from(FLOAT_KEYS),
        value=st.sampled_from([float("nan"), float("inf"), float("-inf")]),
        seed=st.integers(0, 50),
    )
    def test_nan_config_value_is_rejected_naming_its_key(self, key, value, seed):
        base = SimConfig(**{key: value})
        with pytest.raises(ConfigError, match=key):
            run(random_scenario(seed, n_events=10), seed=seed, base_config=base)

    @pytest.mark.parametrize("value", [5000.5, True])
    @pytest.mark.parametrize("key", INT_KEYS)
    def test_non_integer_int_key_is_rejected_naming_it(self, key, value):
        # a float here once reached the action log as a time like 6000.5
        base = SimConfig(**{key: value})
        with pytest.raises(ConfigError, match=f"{key} must be an integer"):
            run(parse_scenario("0 arm\n1000 distance 0.5"), base_config=base)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("presence_to_authorities", "false"),  # once ran and mailed the authorities
            ("owner_email", 3),
            ("threshold_m", "1"),  # this and the password once raised TypeError
            ("password", 1100101),
        ],
    )
    def test_wrongly_typed_key_is_rejected_naming_it(self, key, value):
        base = SimConfig(**{key: value})
        with pytest.raises(ConfigError, match=f"{key} must be a"):
            run(parse_scenario("0 distance 0.5"), base_config=base)

    def test_float_keys_take_an_int(self):
        SimConfig(threshold_m=1, max_range_m=4, speed_of_sound=343, drop_probability=0).validate()

    @pytest.mark.parametrize("key", ["latency_ms", "max_retries"])
    def test_link_key_takes_zero_but_not_minus_one(self, key):
        SimConfig(**{key: 0}).validate()
        with pytest.raises(ConfigError, match=f"{key} must be >= 0"):
            SimConfig(**{key: -1}).validate()

    def test_validate_message_names_every_problem_byte_for_byte(self):
        # distances first, in time order, then overlapping attempts; an int meters stays an int
        scenario = Scenario(events=(
            ScenarioEvent(3000, EventKind.MODE_BUTTON),
            ScenarioEvent(200, EventKind.DISTANCE_SAMPLE, 4.5),
            ScenarioEvent(100, EventKind.DISTANCE_SAMPLE, 5),
            ScenarioEvent(150, EventKind.DISTANCE_SAMPLE, 4.0),
            ScenarioEvent(1000, EventKind.MODE_BUTTON),
            ScenarioEvent(900, EventKind.DISTANCE_SAMPLE, 12.25),
        ))
        with pytest.raises(ConfigError) as info:
            validate_events(scenario, SimConfig())
        assert str(info.value) == (
            "distance 5 m at t=100 exceeds max_range_m=4.0; "
            "distance 4.5 m at t=200 exceeds max_range_m=4.0; "
            "distance 12.25 m at t=900 exceeds max_range_m=4.0; "
            "mode_button at t=3000 comes while the attempt begun at t=1000 runs until t=7500"
        )

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
        controller = build_controller(cfg, 0)
        try:
            controller.run(*columns(sorted(events, key=attrgetter("at"))))
        except AttemptStateError:
            refused = True
        else:
            refused = False
        assert rejected == refused


def test_package_root_holds_the_readme_entry_points():
    # everything else is reached through its submodule
    import sentinelsim
    from sentinelsim import engine, report, scenario

    names = {
        name for name, value in vars(sentinelsim).items()
        if not name.startswith("_") and not isinstance(value, type(sentinelsim))
    }
    assert names == {"parse_scenario", "run", "render_report"}
    assert sentinelsim.run is engine.run and sentinelsim.render_report is report.render_report
    assert sentinelsim.parse_scenario is scenario.parse_scenario
    assert isinstance(sentinelsim.__version__, str)


def test_readme_library_example_prints_the_report_then_each_mail():
    # the first Python block under "## Library use", run from the repo root
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    code = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```\n", 1)[0]
    env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=root, env=env, capture_output=True, check=True, text=True
    ).stdout
    with open(os.path.join(root, "scenarios", "breakin.scn"), encoding="utf-8") as fh:
        report = run(parse_scenario(fh.read(), name="breakin"), seed=0)
    assert out == render_report(report, "text").decode() + "\n" + (
        "INTRUSION ('owner', 'authorities') None\n"
        "PRESENCE ('owner',) clip-0001\n"
    )
