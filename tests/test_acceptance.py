"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time
from itertools import islice

import conftest
from conftest import (
    BREAKIN_TEXT, DEACTIVATE_TEXT, mid_window_press_times, password_config, run_pattern,
)
from oracle import uniforms
from sentinelsim.airframe import (
    MAX_PAYLOAD,
    ChecksumMismatch,
    Frame,
    FrameType,
    decode_frame,
    encode_frame,
    transmit,
)
from sentinelsim.config import SimConfig
from sentinelsim.controller import action_fields, notifications
from sentinelsim.engine import prepare, run
from sentinelsim.notify import NotificationKind
from sentinelsim.pulselock import AttemptSession
from sentinelsim.report import render_report
from sentinelsim.rng import SplitMix64
from sentinelsim.scenario import parse_scenario
from sentinelsim.sensors import distance_from_echo, echo_from_distance, presence_detect

_MODULE_T0 = time.perf_counter()


def _pack(bits):
    return sum(int(bit) << k for k, bit in enumerate(bits))


def _passed(name):
    print(f"ACCEPTANCE {name}: PASS")
    conftest.ACCEPTANCE_RESULTS.append(f"{name}: PASS")


def test_password_oracle_unique_acceptance():
    """Every password up to n=10 is unlocked by exactly one press pattern."""
    t0 = time.perf_counter()
    period, window = 1000, 500

    # observed bits depend only on press times, so each pattern is simulated
    # once per length through a real session and tallied against every password
    for n in range(1, 11):
        probe = password_config("0" * n, period, window)
        counts = [0] * (1 << n)
        matched = [-1] * (1 << n)
        for pattern in range(1 << n):
            session = AttemptSession(probe, 0)
            for t in mid_window_press_times(probe, pattern):
                session.record_press(t)
            assert not session.extraneous_press
            observed = _pack(session.observed)
            counts[observed] += 1
            if matched[observed] < 0:
                matched[observed] = pattern
        for value in range(1 << n):
            assert counts[value] == 1, f"n={n} value={value:0{n}b}"
            assert matched[value] == value

    # cross-check the tally against full sessions for every (password, pattern)
    # pair up to n=5, including the finalize decision
    for n in range(1, 6):
        for value in range(1 << n):
            password = "".join(str(value >> k & 1) for k in range(n))
            cfg = password_config(password, period, window)
            accepted = [
                p for p in range(1 << n) if run_pattern(cfg, p).accepted
            ]
            assert accepted == [value]

    # the documented 7-bit example: presses on pulses 1, 2, 5 and 7
    cfg = password_config("1100101", period, window)
    good = AttemptSession(cfg, 0)
    for pulse in (1, 2, 5, 7):
        good.record_press((pulse - 1) * period + 250)
    assert good.finalize(good.end).accepted

    bad = AttemptSession(cfg, 0)
    for pulse in (1, 2, 5):
        bad.record_press((pulse - 1) * period + 250)
    assert not bad.finalize(bad.end).accepted

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"password oracle took {elapsed:.2f}s"
    _passed(f"password-oracle ({elapsed:.2f}s)")


def test_breakin_scenario_end_to_end():
    """Break-in produces one clip-carrying presence mail and one intrusion mail."""
    scenario = parse_scenario(BREAKIN_TEXT, name="breakin")
    report = run(scenario, seed=42)
    mail = notifications(report.actions, report.clips, prepare(scenario))

    presence = [n for n in mail if n.kind is NotificationKind.PRESENCE]
    intrusion = [n for n in mail if n.kind is NotificationKind.INTRUSION]
    assert len(presence) == 1
    assert len(intrusion) == 1
    assert presence[0].attachment is not None
    (clip,) = report.clips
    assert clip.clip_id == presence[0].attachment
    assert 5000 <= clip.duration_ms <= 10000
    assert intrusion[0].recipients == ("owner", "authorities")

    rerun = run(scenario, seed=42)
    assert rerun.actions == report.actions  # the logged lines, byte for byte
    assert render_report(report, "structured") == render_report(rerun, "structured")
    _passed("breakin-end-to-end")


def test_disarm_suppression():
    """A door opened after successful deactivation never raises intrusion mail."""
    scenario = parse_scenario(DEACTIVATE_TEXT, name="deactivate")
    report = run(scenario, seed=0)
    mail = notifications(report.actions, report.clips, prepare(scenario))

    succeeded = [n for n in mail if n.kind is NotificationKind.DEACTIVATION_SUCCEEDED]
    assert len(succeeded) == 1
    assert not [n for n in mail if n.kind is NotificationKind.INTRUSION]
    suppressed = [a for _, _, a, _ in action_fields(report.actions) if a == "SUPPRESSED"]
    assert len(suppressed) == 1
    assert report.final_mode == "DISARMED"
    _passed("disarm-suppression")


def test_codec_round_trip_and_corruption():
    """10k random frames round-trip; corrupting covered bytes always trips the checksum."""
    t0 = time.perf_counter()
    rnd = random.Random(0xC0DEC)

    for _ in range(10_000):
        frame = Frame(
            frame_type=rnd.choice(list(FrameType)),
            source_id=rnd.randrange(256),
            payload=bytes(
                rnd.randrange(256) for _ in range(rnd.randrange(MAX_PAYLOAD + 1))
            ),
        )
        assert decode_frame(encode_frame(frame)) == frame

    for _ in range(1_000):
        frame = Frame(
            frame_type=rnd.choice(list(FrameType)),
            source_id=rnd.randrange(256),
            payload=bytes(rnd.randrange(256) for _ in range(rnd.randrange(32))),
        )
        data = encode_frame(frame)
        for idx in range(2, len(data)):  # every checksum-covered byte
            corrupted = bytearray(data)
            corrupted[idx] = (corrupted[idx] + rnd.randrange(1, 256)) % 256
            try:
                decode_frame(bytes(corrupted))
            except ChecksumMismatch:
                continue
            raise AssertionError(f"corruption at byte {idx} was not detected")

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"codec criterion took {elapsed:.2f}s"
    _passed(f"codec ({elapsed:.2f}s)")


def test_link_statistics():
    """Delivery fractions: ~0.7 at p=0.3, exactly 1.0 at p=0 and 0.0 at p=1."""
    link = SimConfig(drop_probability=0.3, max_retries=0)
    rng = SplitMix64(12345)
    delivered = sum(transmit(link, 0, rng).delivered for _ in range(10_000))
    fraction = delivered / 10_000
    assert abs(fraction - 0.70) <= 0.02, f"fraction {fraction}"

    # the tests' reference splitmix64, replaying the same stream, predicts the exact count
    assert delivered == sum(value >= 0.3 for value in islice(uniforms(12345), 10_000))

    sure = SimConfig(drop_probability=0.0, max_retries=0)
    rng = SplitMix64(1)
    assert all(transmit(sure, 0, rng).delivered for _ in range(10_000))

    never = SimConfig(drop_probability=1.0, max_retries=0)
    rng = SplitMix64(1)
    assert not any(transmit(never, 0, rng).delivered for _ in range(10_000))

    _passed(f"link-statistics (fraction={fraction})")


def test_sensor_round_trip_and_cooldown():
    """Echo/distance inversion within 1e-9 and cooldown-limited triggering."""
    cfg = SimConfig()
    rnd = random.Random(343)
    for _ in range(1_000):
        d = rnd.uniform(0.0, cfg.max_range_m)
        back = distance_from_echo(echo_from_distance(d, cfg), cfg)
        if d > 0:
            assert abs(back - d) / d <= 1e-9
        else:
            assert back == 0.0

    for stream_seed in range(5):
        stream = random.Random(stream_seed)
        last = None
        triggers = []
        for now in range(0, 90_000, 60):
            d = stream.uniform(0.0, cfg.max_range_m)
            if presence_detect(d, cfg, last, now):
                triggers.append(now)
                last = now
        gaps = [b - a for a, b in zip(triggers, triggers[1:])]
        assert all(g >= cfg.retrigger_cooldown_ms for g in gaps)

    _passed("sensor-model")


def test_acceptance_module_budget():
    """This module, the heaviest in the suite, stays far inside the 60 s budget."""
    elapsed = time.perf_counter() - _MODULE_T0
    assert elapsed < 60.0, f"acceptance module took {elapsed:.2f}s"
    _passed(f"suite-budget (acceptance module {elapsed:.2f}s)")
