"""Ultrasonic ranging and presence detection."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sentinelsim.config import ConfigError, SimConfig
from sentinelsim.engine import validate_events
from sentinelsim.scenario import ScenarioError, parse_scenario
from sentinelsim.sensors import distance_from_echo, echo_from_distance, presence_detect

CFG = SimConfig()  # 343 m/s, threshold 1 m, range 4 m, cooldown 5 s


class TestConfig:
    """The ranging parameters' rules live in SimConfig.validate."""

    def test_threshold_must_not_exceed_range(self):
        with pytest.raises(ConfigError, match="max_range_m must be >= threshold_m"):
            SimConfig(threshold_m=5.0, max_range_m=4.0).validate()

    def test_threshold_must_be_positive(self):
        with pytest.raises(ConfigError, match="threshold_m must be > 0"):
            SimConfig(threshold_m=0.0).validate()

    def test_speed_must_be_positive(self):
        with pytest.raises(ConfigError, match="speed_of_sound must be > 0"):
            SimConfig(speed_of_sound=0.0).validate()


class TestRanging:
    def test_zero_echo_is_zero_distance(self):
        assert distance_from_echo(0.0, CFG) == 0.0

    def test_hand_computed_distance(self):
        # d = c*t/2 = 343 * 0.01 / 2
        assert distance_from_echo(0.01, CFG) == pytest.approx(1.715)

    def test_clamps_to_max_range(self):
        # 343 * 10 / 2 = 1715 m, far beyond the 4 m range
        assert distance_from_echo(10.0, CFG) == 4.0

    def test_zero_distance_is_zero_echo(self):
        assert echo_from_distance(0.0, CFG) == 0.0

    def test_hand_computed_echo(self):
        # t = 2d/c = 2 * 1.715 / 343
        assert echo_from_distance(1.715, CFG) == pytest.approx(0.01)

    def test_out_of_range_distance_rejected(self):
        # ranging only sees distances the scenario checks have let through
        with pytest.raises(ConfigError, match="max_range_m"):
            validate_events(parse_scenario("0 distance 4.0001"), SimConfig())
        with pytest.raises(ScenarioError, match=">= 0"):
            parse_scenario("0 distance -0.1")

    def test_round_trip_identity(self):
        rnd = random.Random(99)
        for _ in range(1000):
            d = rnd.uniform(0.0, CFG.max_range_m)
            back = distance_from_echo(echo_from_distance(d, CFG), CFG)
            assert back == pytest.approx(d, rel=1e-9)

    @given(
        st.floats(min_value=0.0, max_value=0.02),
        st.floats(min_value=0.0, max_value=0.02),
    )
    def test_monotone_in_echo_duration(self, t1, t2):
        if t1 > t2:
            t1, t2 = t2, t1
        assert distance_from_echo(t1, CFG) <= distance_from_echo(t2, CFG)


class TestPresence:
    def test_far_object_ignored(self):
        assert presence_detect(3.5, CFG, None, 1000) is False

    def test_near_object_triggers(self):
        assert presence_detect(0.8, CFG, None, 1000) is True

    def test_at_threshold_does_not_trigger(self):
        assert presence_detect(CFG.threshold_m, CFG, None, 0) is False

    def test_cooldown_suppresses(self):
        assert presence_detect(0.8, CFG, 900, 1000) is False

    def test_cooldown_boundary_retriggers(self):
        assert presence_detect(0.8, CFG, 0, CFG.retrigger_cooldown_ms) is True

    def test_no_double_trigger_within_cooldown(self):
        rnd = random.Random(5)
        last = None
        triggers = []
        for now in range(0, 120_000, 75):
            d = rnd.uniform(0.0, CFG.max_range_m)
            if presence_detect(d, CFG, last, now):
                triggers.append(now)
                last = now
        assert triggers, "stream should trigger at least once"
        gaps = [b - a for a, b in zip(triggers, triggers[1:])]
        assert all(g >= CFG.retrigger_cooldown_ms for g in gaps)

