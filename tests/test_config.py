"""SimConfig.validate range rules that no run-level test reaches, and the integer grammar."""

import pytest

from conftest import LINE_BREAKS
from sentinelsim.config import ConfigError, SimConfig, integer


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
