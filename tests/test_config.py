"""SimConfig.validate range rules that no run-level test reaches, the password's
rules, and the integer grammar."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import LINE_BREAKS, run_pattern
from sentinelsim.config import MAX_BITS, ConfigError, SimConfig, integer


@pytest.mark.parametrize("size", [0, 1024, 2**63 - 1])
def test_clip_bytes_takes_any_file_size(size):
    SimConfig(clip_bytes=size).validate()


@pytest.mark.parametrize("size", [-1, 2**63, 10**20])
def test_clip_bytes_outside_a_file_size_is_rejected_naming_it(size):
    # 10**20 once passed and reached fh.truncate, which raised OverflowError
    with pytest.raises(ConfigError, match=r"clip_bytes must be a file size in \[0, 2\^63\)"):
        SimConfig(clip_bytes=size).validate()


def test_max_retries_is_bounded_above_naming_it():
    # each door opening makes up to max_retries + 1 link draws, so the bound caps a run
    SimConfig(max_retries=255).validate()
    for retries in (256, 10**6):
        with pytest.raises(ConfigError, match=r"^max_retries must be <= 255$"):
            SimConfig(max_retries=retries).validate()


@pytest.mark.parametrize("key", ["owner_email", "authorities_email"])
@pytest.mark.parametrize("brk", LINE_BREAKS)
def test_an_address_with_a_line_break_is_refused_naming_it(key, brk):
    # a line break in an address would start a new mail header, e.g. a Bcc
    SimConfig(**{key: "a@x Bcc: evil@x"}).validate()
    with pytest.raises(ConfigError, match=rf"^{key} must hold no line break$"):
        SimConfig(**{key: f"a@x{brk}Bcc: evil@x"}).validate()


@pytest.mark.parametrize(
    "values, message",
    [
        ({"password": "10x1"}, "password must be a non-empty string of 0/1, got '10x1'"),
        ({"password": ""}, "password must be a non-empty string of 0/1, got ''"),
        ({"password": "1" * 33}, "password length must be in [1, 32], got 33"),
        ({"pulse_period_ms": 0}, "pulse_period_ms must be > 0"),
        ({"pulse_period_ms": -3}, "pulse_period_ms must be > 0"),
        (
            {"press_window_ms": 1001},
            "press_window_ms must satisfy 0 < window <= period, got window=1001 period=1000",
        ),
        (
            {"press_window_ms": 0},
            "press_window_ms must satisfy 0 < window <= period, got window=0 period=1000",
        ),
        # the password's rules report only their first failure
        (
            {"password": "2", "pulse_period_ms": 0},
            "password must be a non-empty string of 0/1, got '2'",
        ),
        ({"password": "1" * 40, "press_window_ms": 0}, "password length must be in [1, 32], got 40"),
        # ... after every other rule's message
        (
            {"password": "1x", "pulse_period_ms": -3, "threshold_m": -1},
            "threshold_m must be > 0 and finite; "
            "password must be a non-empty string of 0/1, got '1x'",
        ),
    ],
)
def test_a_bad_password_or_pulse_timing_is_refused_with_its_message(values, message):
    with pytest.raises(ConfigError) as exc:
        SimConfig(**values).validate()
    assert str(exc.value) == message


@pytest.mark.parametrize("password", ["0", "1", "1100101", "0" * MAX_BITS, "1" * MAX_BITS])
def test_a_password_of_one_to_max_bits_is_accepted(password):
    SimConfig(password=password, press_window_ms=1000).validate()


def test_attempt_ms_ends_at_the_last_pulse_window():
    assert SimConfig().attempt_ms == 6500
    assert SimConfig(password="1").attempt_ms == 500
    assert SimConfig(password="10", pulse_period_ms=700, press_window_ms=700).attempt_ms == 1400


@given(
    password=st.one_of(st.text("01", max_size=MAX_BITS + 2), st.text("01x2 ", max_size=4)),
    period=st.integers(-2, 3000),
    window=st.integers(-2, 3000),
)
def test_validate_accepts_exactly_the_password_rules_and_the_password_unlocks(
    password, period, window
):
    cfg = SimConfig(password=password, pulse_period_ms=period, press_window_ms=window)
    holds = (
        password != ""
        and all(c in "01" for c in password)
        and len(password) <= MAX_BITS
        and period > 0
        and 0 < window <= period
    )
    if not holds:
        with pytest.raises(ConfigError) as exc:
            cfg.validate()
        assert "; " not in str(exc.value)  # one message: the first failed rule's
        return
    cfg.validate()
    # bit k of a press pattern is pulse k, as the password's character k is
    pattern = sum(int(bit) << k for k, bit in enumerate(password))
    assert run_pattern(cfg, pattern) == (True, password)
    for k in range(len(password)):
        flipped = run_pattern(cfg, pattern ^ 1 << k)
        assert not flipped.accepted
        assert flipped.trace != password


@pytest.mark.parametrize(
    "text, value", [("0", 0), ("007", 7), ("-5", -5), ("1" * 30, int("1" * 30))]
)
def test_integer_takes_an_optional_minus_then_ascii_digits(text, value):
    assert integer(text) == value


@pytest.mark.parametrize(
    "text",
    ["", "-", "--5", "+5", "1_000", "1_0", "٣", "1٣", "¹", " 5", "5 ", "0x10", "1e3", "5.0"],
)
def test_integer_rejects_every_other_spelling(text):
    with pytest.raises(ValueError, match="expected an integer"):
        integer(text)
