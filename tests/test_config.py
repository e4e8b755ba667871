"""SimConfig.validate range rules that no run-level test reaches."""

import pytest

from sentinelsim.config import ConfigError, SimConfig


@pytest.mark.parametrize("size", [0, 1024, 2**63 - 1])
def test_clip_bytes_takes_any_file_size(size):
    SimConfig(clip_bytes=size).validate()


@pytest.mark.parametrize("size", [-1, 2**63, 10**20])
def test_clip_bytes_outside_a_file_size_is_rejected_naming_it(size):
    # 10**20 once passed and reached fh.truncate, which raised OverflowError
    with pytest.raises(ConfigError, match=r"clip_bytes must be a file size in \[0, 2\^63\)"):
        SimConfig(clip_bytes=size).validate()
