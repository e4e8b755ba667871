"""Every run tunable reaches the simulation under its own name.

The golden grid varies only the link keys and presence_to_authorities. Here
one small scenario runs once per key with that key moved off the baseline.
The text report must differ from the baseline report and match a recorded
SHA-256 digest, so a key that is dropped, defaulted or swapped with another
on its way from SimConfig to the controller fails. retrigger_cooldown_ms and
clip_duration_ms share the default 5000 and get different values here, so a
swap between them shows too. speed_of_sound and max_range_m are left out:
after validation they move the echo round trip by an ulp at most, and
test_sensors covers them.
"""

import hashlib

import pytest

from sentinelsim.config import SimConfig
from sentinelsim.engine import run
from sentinelsim.report import render_report
from sentinelsim.scenario import parse_scenario

DOOR_CYCLES = "".join(
    f"{t} door open\n{t + 100} door close\n" for t in range(9000, 10600, 200)
)

# A near (1.2 m) and two close samples 2200 ms apart, eight door cycles while
# armed, then a correct "1100101" attempt with presses mid-window.
SCENARIO = parse_scenario(
    "0 arm\n1000 distance 1.2\n1500 distance 0.5\n3700 distance 0.5\n"
    + DOOR_CYCLES
    + "12000 mode_button\n"
    "12250 press_down\n12260 press_up\n13250 press_down\n13260 press_up\n"
    "16250 press_down\n16260 press_up\n18250 press_down\n18260 press_up\n"
    "20000 door open\n",
    "wiring",
)
SEED = 5

# Defaults but for a lossy link, so max_retries and latency_ms show in the log.
BASE = SimConfig(drop_probability=0.5)
BASE_DIGEST = "26e4a0f3be97e73a1fc8b731d7645a02ac7439a7b8504432909f7f79c15d0ead"

CASES = {
    "threshold_m": (1.5, "526728ee82523194e59894e3ddb4a3a29e11a064eafe40b8e3056b83877da104"),
    "retrigger_cooldown_ms": (
        2000, "2556b1a70a82d52aba1fdab09b232be1c521ea6eefc46316399d72146270b84f"
    ),
    "password": ("101", "0d00915deb356eae70a3dccddc8b1d923a4a4f993b263bbdae1d898cf1ee0a16"),
    "pulse_period_ms": (800, "02dddd7da6a0ffac1b4ab9a82fa7fdadf73bf4d3feaeb7f16c06ba432319f2ae"),
    "press_window_ms": (200, "840498338080853247021063e6dddbe6455cbbb6d892388ebc0b5884c12f4a70"),
    "clip_duration_ms": (
        7000, "450b1f995ebb9314a460327c89334d9e11fe850e3d2be64cff0765f2f6b763e3"
    ),
    "clip_bytes": (4096, "3eef909e357838223038eaee6383b49a8250c312d7854c22ce289601c87dbdf6"),
    "drop_probability": (
        0.2, "b29774de5f4c15dbe8307cde266a843d64af2206fdd94706213ac580323cc7fb"
    ),
    "latency_ms": (40, "e574c202d953e208dbc3acfb9a5a42080940aeb57aedd84e054692f3885116c3"),
    "max_retries": (0, "61fd8ed8993ddb82222cd67744f5228e1333ec0cf025b2c751abba19172a1a75"),
    "presence_to_authorities": (
        True, "89c82f0abb048c1fd1bbe7ee2f582fbf006b8c81f032f4380491350b0e4eff35"
    ),
}


def digest(cfg: SimConfig) -> str:
    return hashlib.sha256(render_report(run(SCENARIO, SEED, cfg))).hexdigest()


def test_baseline_digest():
    assert digest(BASE) == BASE_DIGEST


@pytest.mark.parametrize("key", sorted(CASES))
def test_key_reaches_the_report(key):
    value, expected = CASES[key]
    got = digest(BASE._replace(**{key: value}))
    assert got != BASE_DIGEST, f"{key}={value!r} left the report unchanged"
    assert got == expected
