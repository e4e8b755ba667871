"""Pulse-password sessions, windows and the brute-force uniqueness oracle.

The password's own rules are SimConfig.validate's; tests/test_config.py holds them."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import mid_window_press_times, password_config, run_pattern
from sentinelsim.pulselock import (
    AttemptOutcome,
    AttemptSession,
    AttemptStateError,
    begin_attempt,
    search_space,
)


def assert_lit_window(cfg, start, k, lo, hi):
    """Pulse k is lit on [lo, hi): a press at lo or at hi - 1 sets bit k only,
    and a press at hi, the first millisecond after, is extraneous."""
    only_k = ["1" if i == k else "0" for i in range(len(cfg.password))]
    for at in (lo, hi - 1):
        s = begin_attempt(cfg, start)
        s.record_press(at)
        assert (s.observed, s.extraneous_press) == (only_k, False)
    s = begin_attempt(cfg, start)
    s.record_press(hi)
    assert (s.observed, s.extraneous_press) == (["0"] * len(cfg.password), True)


class TestWindows:
    def test_pulse_zero_edges(self):
        assert_lit_window(password_config(), 0, 0, 0, 500)
        assert begin_attempt(password_config(), start=0).end == 6500
        assert begin_attempt(password_config("1"), start=0).end == 500

    def test_later_pulse_edges(self):
        assert_lit_window(password_config(), 0, 4, 4000, 4500)

    def test_offset_start_edges(self):
        assert_lit_window(password_config("10", 1000, 500), 2500, 0, 2500, 3000)
        s = begin_attempt(password_config("10", 1000, 500), start=2500)
        assert s.end == 4000
        s.record_press(3500)
        s.record_press(3999)
        assert (s.observed, s.extraneous_press) == (["0", "1"], False)


class TestRecordPress:
    def test_session_is_built_from_config_and_start_alone(self):
        with pytest.raises(TypeError):
            AttemptSession(password_config(), 0, ["1"] * 7)
        s = AttemptSession(password_config(), 0)
        assert (s.observed, s.extraneous_press, s.finalized) == (["0"] * 7, False, False)

    def test_press_in_first_window(self):
        s = begin_attempt(password_config(), start=0)
        s.record_press(100)
        assert "".join(s.observed) == "1000000"
        assert not s.extraneous_press

    def test_repeat_press_debounces(self):
        s = begin_attempt(password_config(), start=0)
        s.record_press(100)
        s.record_press(300)
        assert "".join(s.observed) == "1000000"
        assert not s.extraneous_press

    def test_press_between_windows_is_extraneous(self):
        s = begin_attempt(password_config(), start=0)
        s.record_press(700)
        assert "".join(s.observed) == "0000000"
        assert s.extraneous_press

    def test_press_at_window_edge_is_extraneous(self):
        s = begin_attempt(password_config(), start=0)
        s.record_press(500)  # window is half-open
        assert s.extraneous_press

    def test_press_before_start_is_extraneous(self):
        s = begin_attempt(password_config(), start=1000)
        s.record_press(999)
        assert s.extraneous_press
        # a window as long as the period: 1 ms early must not wrap to the last pulse
        s = begin_attempt(password_config("10", period=1000, window=1000), start=1000)
        s.record_press(999)
        assert (s.observed, s.extraneous_press) == (["0", "0"], True)

    def test_press_after_schedule_end_is_state_error(self):
        s = begin_attempt(password_config(), start=0)
        with pytest.raises(AttemptStateError):
            s.record_press(6500)

    def test_press_after_finalize_is_state_error(self):
        s = begin_attempt(password_config("1"), start=0)
        s.finalize(500)
        with pytest.raises(AttemptStateError):
            s.record_press(100)

    def test_only_the_containing_window_changes(self):
        s = begin_attempt(password_config("11111111"), start=0)
        s.record_press(3000 + 250)
        assert "".join(s.observed) == "00010000"


class TestFinalize:
    def test_paper_password_accepts(self):
        # presses on pulses 1, 2, 5 and 7 for "1100101"
        s = begin_attempt(password_config(), start=0)
        for pulse in (1, 2, 5, 7):
            s.record_press((pulse - 1) * 1000 + 250)
        outcome = s.finalize(6500)
        assert outcome == AttemptOutcome(accepted=True, trace="1100101")

    def test_partial_entry_rejects(self):
        s = begin_attempt(password_config(), start=0)
        for pulse in (1, 2, 5):
            s.record_press((pulse - 1) * 1000 + 250)
        outcome = s.finalize(6500)
        assert not outcome.accepted
        assert outcome.trace == "1100100"

    def test_all_zero_password_accepts_silence(self):
        s = begin_attempt(password_config("0000000"), start=0)
        assert s.finalize(6500).accepted

    def test_extraneous_press_forces_rejection(self):
        s = begin_attempt(password_config("10"), start=0)
        s.record_press(250)
        s.record_press(600)  # between the two windows
        assert not s.finalize(s.end).accepted

    def test_finalize_before_end_is_state_error(self):
        s = begin_attempt(password_config(), start=0)
        with pytest.raises(AttemptStateError):
            s.finalize(6499)

    def test_double_finalize_is_state_error(self):
        s = begin_attempt(password_config("1"), start=0)
        s.finalize(500)
        with pytest.raises(AttemptStateError):
            s.finalize(500)


class TestSearchSpace:
    def test_single_pulse(self):
        assert search_space(1) == 2

    def test_matches_enumeration_oracle(self):
        for n in (7, 10):
            enumerated = len(list(itertools.product((0, 1), repeat=n)))
            assert search_space(n) == enumerated

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            search_space(0)
        with pytest.raises(ValueError):
            search_space(33)


class TestPatternEnumeration:
    def test_exactly_one_pattern_unlocks_the_paper_password(self):
        s = password_config()
        accepted = [
            pattern
            for pattern in range(2 ** len(s.password))
            if run_pattern(s, pattern).accepted
        ]
        packed = sum(int(bit) << k for k, bit in enumerate(s.password))
        assert accepted == [packed]

    def test_mid_window_times_follow_the_schedule(self):
        s = password_config()
        # pattern with bits 0 and 6 set, mid-window is +250
        assert mid_window_press_times(s, 0b1000001, start=2000) == [2250, 8250]

    @given(
        st.integers(min_value=0, max_value=2**7 - 1),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_time_translation_invariance(self, pattern, delta):
        s = password_config()
        base = run_pattern(s, pattern, start=0)
        shifted = run_pattern(s, pattern, start=delta)
        assert base == shifted
