"""Scenario grammar, error reporting and config layering."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sentinelsim.config import (
    ConfigError,
    SimConfig,
    apply_overrides,
    coerce_value,
)
from sentinelsim.engine import resolve_run_config
from sentinelsim.events import EventKind
from sentinelsim.scenario import (
    Scenario,
    ScenarioError,
    parse_scenario,
    render_scenario,
)


class TestParse:
    def test_three_event_example(self):
        sc = parse_scenario("0 arm\n2000 distance 0.8\n5000 door open")
        assert len(sc.events) == 3
        assert [e.kind for e in sc.events] == [
            EventKind.ARM,
            EventKind.DISTANCE_SAMPLE,
            EventKind.DOOR_OPEN,
        ]
        assert sc.events[1].meters == 0.8

    def test_unknown_directive_reports_line_one(self):
        with pytest.raises(ScenarioError) as err:
            parse_scenario("abc foo")
        assert err.value.errors == [(1, "malformed time 'abc'")]

    def test_set_and_event(self):
        sc = parse_scenario("set threshold_m 1.0\n0 arm")
        assert sc.overrides == {"threshold_m": 1.0}
        assert len(sc.events) == 1

    def test_comments_and_blank_lines_skipped(self):
        sc = parse_scenario("# header\n\n0 arm  # trailing comment\n")
        assert len(sc.events) == 1

    def test_all_bad_lines_reported(self):
        text = "abc foo\nset nope 1\n-5 arm\n0 distance x\n0 door sideways"
        with pytest.raises(ScenarioError) as err:
            parse_scenario(text)
        lines = [line for line, _ in err.value.errors]
        assert lines == [1, 2, 3, 4, 5]

    def test_negative_time_rejected(self):
        with pytest.raises(ScenarioError, match="negative time"):
            parse_scenario("-1 arm")

    def test_malformed_distance_rejected(self):
        with pytest.raises(ScenarioError, match="malformed number"):
            parse_scenario("0 distance abc")

    def test_negative_distance_rejected(self):
        with pytest.raises(ScenarioError, match=">= 0"):
            parse_scenario("0 distance -3")

    def test_extra_arguments_rejected(self):
        with pytest.raises(ScenarioError, match="no arguments"):
            parse_scenario("0 arm now")

    def test_unknown_set_key_rejected(self):
        with pytest.raises(ScenarioError, match="unknown config key"):
            parse_scenario("set warp_factor 9")

    def test_bad_set_value_rejected(self):
        with pytest.raises(ScenarioError, match="bad value"):
            parse_scenario("set latency_ms soon")

    def test_events_sorted_stably(self):
        sc = parse_scenario("5 door open\n5 door close\n1 arm")
        assert [(e.at, e.kind) for e in sc.events] == [
            (1, EventKind.ARM),
            (5, EventKind.DOOR_OPEN),
            (5, EventKind.DOOR_CLOSE),
        ]

    def test_empty_text_is_empty_scenario(self):
        sc = parse_scenario("")
        assert sc == Scenario(name="scenario")


class TestRender:
    def test_round_trip_is_stable(self):
        text = (
            "set threshold_m 0.75\nset password 101\n"
            "0 arm\n2000 distance 0.8\n3000 mode_button\n"
            "3250 press_down\n3300 press_up\n5000 door open\n6000 door close"
        )
        first = parse_scenario(text, name="t")
        dumped = render_scenario(first)
        second = parse_scenario(dumped, name="t")
        assert first == second
        assert render_scenario(second) == dumped

    def test_float_values_survive_exactly(self):
        sc = parse_scenario("0 distance 0.30000000000000004")
        again = parse_scenario(render_scenario(sc))
        assert again.events[0].meters == sc.events[0].meters


# Scenario lines built from the grammar's own words, so that generated text
# reaches every branch of the parser and not only the time check.
distance_tokens = st.one_of(
    st.sampled_from(["nan", "inf", "-0.0", "1e999", "0.30000000000000004"]),
    st.floats(min_value=0.0).map(repr),
)
event_lines = st.one_of(
    st.builds("{} distance {}".format, st.integers(0, 10**6), distance_tokens),
    st.builds(
        "{} {}".format, st.integers(0, 10**6),
        st.sampled_from(["arm", "mode_button", "press_down", "press_up", "door open", "door close"]),
    ),
)
set_lines = st.sampled_from([
    "set threshold_m 1.5", "set latency_ms 20", "set password 0101", "set maildir off",
    "set owner_email a@b.c", "set drop_probability 0.25", "set latency_ms 007",
])
scenario_texts = st.lists(st.one_of(event_lines, set_lines), max_size=12).map("\n".join)
bad_tokens = st.sampled_from(["-1", "-nan", "x", "1e3", "1_000", "٣", "set", "door", "#", "nope"])
any_texts = st.one_of(
    st.text(),
    st.lists(
        st.one_of(
            event_lines,
            set_lines,
            st.lists(st.one_of(st.text(max_size=5), bad_tokens, distance_tokens), max_size=4)
            .map(" ".join),
        ),
        max_size=8,
    ).map("\n".join),
)


class TestProperties:
    @given(any_texts)
    def test_parser_raises_only_scenario_error(self, text):
        try:
            parse_scenario(text)
        except ScenarioError:
            pass

    @given(scenario_texts)
    def test_render_then_parse_gives_the_same_scenario(self, text):
        try:
            scenario = parse_scenario(text, name="t")
        except ScenarioError:
            return
        dumped = render_scenario(scenario)
        assert parse_scenario(dumped, name="t") == scenario
        assert render_scenario(parse_scenario(dumped, name="t")) == dumped


def resolve(file_overrides=(), scenario_overrides=(), cli_overrides=()):
    """The CLI's layering: a config file's values under scenario and --set ones."""
    base = apply_overrides(SimConfig(), dict(file_overrides))
    scenario = Scenario(overrides=dict(scenario_overrides))
    return resolve_run_config(scenario, base, cli_overrides)


class TestConfigLayering:
    def test_defaults_are_valid(self):
        SimConfig().validate()

    def test_precedence_chain(self):
        cfg = resolve(
            file_overrides={"threshold_m": 2.0, "latency_ms": 10},
            scenario_overrides={"threshold_m": "1.5", "max_retries": "5"},
            cli_overrides={"threshold_m": "0.5"},
        )
        assert cfg.threshold_m == 0.5  # cli wins
        assert cfg.max_retries == 5  # scenario wins over defaults
        assert cfg.latency_ms == 10  # file wins over defaults

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            apply_overrides(SimConfig(), {"nope": 1})

    def test_text_coercion(self):
        assert coerce_value("drop_probability", "0.25") == 0.25
        assert coerce_value("presence_to_authorities", "true") is True
        assert coerce_value("presence_to_authorities", "off") is False
        assert coerce_value("max_retries", "3") == 3

    def test_typed_values_pass_through(self):
        assert coerce_value("drop_probability", 0.25) == 0.25
        assert coerce_value("latency_ms", 10) == 10
        assert coerce_value("threshold_m", 2) == 2.0

    def test_wrong_json_type_rejected(self):
        with pytest.raises(ConfigError):
            coerce_value("latency_ms", 1.5)
        with pytest.raises(ConfigError):
            coerce_value("latency_ms", True)

    def test_cross_field_validation(self):
        with pytest.raises(ConfigError, match="max_range_m"):
            resolve(scenario_overrides={"threshold_m": "9.0"})

    def test_clip_duration_bounds(self):
        with pytest.raises(ConfigError, match="clip_duration_ms"):
            resolve(scenario_overrides={"clip_duration_ms": "4999"})
        with pytest.raises(ConfigError, match="clip_duration_ms"):
            resolve(scenario_overrides={"clip_duration_ms": "10001"})
        resolve(scenario_overrides={"clip_duration_ms": "10000"})

    def test_password_validated(self):
        with pytest.raises(ConfigError):
            resolve(scenario_overrides={"password": "2101"})

    def test_drop_probability_bounds(self):
        with pytest.raises(ConfigError):
            resolve(scenario_overrides={"drop_probability": "1.01"})
