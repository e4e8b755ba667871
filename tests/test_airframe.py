"""Frame codec round-trips, corruption detection and the lossy link."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sentinelsim.airframe import (
    DELIMITER,
    MAX_PAYLOAD,
    BadDelimiter,
    ChecksumMismatch,
    DeliveryResult,
    Frame,
    FrameDecodeError,
    FrameType,
    LengthMismatch,
    LinkModel,
    UnknownFrameType,
    checksum,
    decode_frame,
    encode_frame,
    hex_dump,
    transmit,
)
from sentinelsim.config import ConfigError, SimConfig
from sentinelsim.rng import SplitMix64

frames = st.builds(
    Frame,
    frame_type=st.sampled_from(list(FrameType)),
    source_id=st.integers(min_value=0, max_value=0xFF),
    payload=st.binary(max_size=MAX_PAYLOAD),
)


def random_frame(rnd):
    return Frame(
        frame_type=rnd.choice(list(FrameType)),
        source_id=rnd.randrange(256),
        payload=bytes(rnd.randrange(256) for _ in range(rnd.randrange(MAX_PAYLOAD + 1))),
    )


class TestEncode:
    def test_heartbeat_hand_example(self):
        # 0x00 + 0x01 = 1, checksum 0xFF - 1 = 0xFE
        data = encode_frame(Frame(FrameType.HEARTBEAT, 0x01))
        assert data == bytes([0x7E, 0x02, 0x00, 0x01, 0xFE])

    def test_intruder_alert_hand_example(self):
        # 0x01 + 0x02 = 3, checksum 0xFF - 3 = 0xFC
        data = encode_frame(Frame(FrameType.INTRUDER_ALERT, 0x02))
        assert data == bytes([0x7E, 0x02, 0x01, 0x02, 0xFC])

    def test_payload_length_in_length_byte(self):
        data = encode_frame(Frame(FrameType.PRESENCE_ALERT, 0x03, b"abc"))
        assert data[1] == 2 + 3

    def test_oversized_payload_rejected(self):
        with pytest.raises(ValueError, match="payload"):
            Frame(FrameType.HEARTBEAT, 0x01, b"\x00" * (MAX_PAYLOAD + 1))

    def test_source_id_must_be_one_byte(self):
        with pytest.raises(ValueError):
            Frame(FrameType.HEARTBEAT, 256)

    def test_hex_dump_format(self):
        data = encode_frame(Frame(FrameType.INTRUDER_ALERT, 0x02))
        assert hex_dump(data) == "7E 02 01 02 FC"


class TestDecode:
    def test_decodes_hand_example(self):
        frame = decode_frame(bytes([0x7E, 0x02, 0x00, 0x01, 0xFE]))
        assert frame == Frame(FrameType.HEARTBEAT, 0x01, b"")

    def test_checksum_mismatch(self):
        with pytest.raises(ChecksumMismatch):
            decode_frame(bytes([0x7E, 0x02, 0x00, 0x01, 0x00]))

    def test_bad_delimiter(self):
        with pytest.raises(BadDelimiter):
            decode_frame(bytes([0xFF, 0x02, 0x00, 0x01, 0xFE]))

    def test_empty_buffer(self):
        with pytest.raises(LengthMismatch):
            decode_frame(b"")

    def test_truncated_buffer(self):
        data = encode_frame(Frame(FrameType.HEARTBEAT, 0x01, b"xy"))
        with pytest.raises(LengthMismatch):
            decode_frame(data[:-1])

    def test_extra_byte(self):
        data = encode_frame(Frame(FrameType.HEARTBEAT, 0x01))
        with pytest.raises(LengthMismatch):
            decode_frame(data + b"\x00")

    def test_unknown_frame_type_with_valid_checksum(self):
        body = bytes([0x7F, 0x01])
        data = bytes([0x7E, 0x02]) + body + bytes([checksum(0x7F, 0x01, b"")])
        with pytest.raises(UnknownFrameType):
            decode_frame(data)

    @given(frames)
    def test_round_trip(self, frame):
        assert decode_frame(encode_frame(frame)) == frame

    @given(st.one_of(
        st.binary(max_size=300),
        # a delimiter and a matching length byte, so decoding reaches the checksum
        st.builds(
            lambda body, check: bytes([DELIMITER, len(body)]) + body + bytes([check]),
            st.binary(min_size=2, max_size=0xFF),
            st.integers(0, 0xFF),
        ),
    ))
    def test_arbitrary_bytes_raise_only_decode_errors(self, data):
        try:
            frame = decode_frame(data)
        except FrameDecodeError:
            return
        assert encode_frame(frame) == data

    def test_round_trip_fuzz(self):
        rnd = random.Random(2024)
        for _ in range(2000):
            frame = random_frame(rnd)
            assert decode_frame(encode_frame(frame)) == frame

    def test_any_covered_byte_corruption_is_checksum_mismatch(self):
        rnd = random.Random(77)
        for _ in range(200):
            frame = random_frame(rnd)
            data = bytearray(encode_frame(frame))
            # everything after the delimiter and length byte is covered
            idx = rnd.randrange(2, len(data))
            data[idx] = (data[idx] + rnd.randrange(1, 256)) % 256
            with pytest.raises(ChecksumMismatch):
                decode_frame(bytes(data))


class TestLinkModel:
    """The link parameters' rules live in SimConfig.validate."""

    def test_drop_probability_bounds(self):
        for bad in (1.5, -0.1, float("nan")):
            with pytest.raises(ConfigError, match="drop_probability"):
                SimConfig(drop_probability=bad).validate()
        SimConfig(drop_probability=0.0).validate()
        SimConfig(drop_probability=1.0).validate()


class TestTransmit:
    FRAME = Frame(FrameType.INTRUDER_ALERT, 0x02)

    def test_never_drops_at_probability_zero(self):
        link = LinkModel(drop_probability=0.0, latency_ms=20)
        rng = SplitMix64(3)
        result = transmit(link, self.FRAME, at=1000, rng=rng)
        assert result == DeliveryResult(True, 1020, 1)

    def test_always_drops_at_probability_one(self):
        link = LinkModel(drop_probability=1.0, max_retries=2)
        rng = SplitMix64(3)
        result = transmit(link, self.FRAME, at=0, rng=rng)
        assert result == DeliveryResult(False, None, 3)

    def test_retry_delays_accumulate(self):
        # first draw for seed 4 is below 0.9, so attempt 1 fails
        link = LinkModel(drop_probability=0.9, latency_ms=50, max_retries=10)
        result = transmit(link, self.FRAME, at=100, rng=SplitMix64(4))
        assert result.delivered
        assert result.delivered_at == 100 + result.attempts * 50
        assert result.attempts > 1

    def test_deterministic_for_same_seed(self):
        link = LinkModel(drop_probability=0.5, max_retries=3)
        results_a = [transmit(link, self.FRAME, t, SplitMix64(9)) for t in range(20)]
        results_b = [transmit(link, self.FRAME, t, SplitMix64(9)) for t in range(20)]
        assert results_a == results_b

    def test_delivery_fraction_matches_independent_replay(self):
        # one stream drives 10k transmissions; an independent replay of the
        # same splitmix64 stream predicts each outcome
        link = LinkModel(drop_probability=0.3, max_retries=0, rng_seed=12345)
        rng = SplitMix64(link.rng_seed)
        delivered = sum(
            transmit(link, self.FRAME, 0, rng).delivered for _ in range(10_000)
        )

        replay = SplitMix64(link.rng_seed)
        expected = sum(replay.random() >= 0.3 for _ in range(10_000))
        assert delivered == expected
        assert abs(delivered / 10_000 - 0.7) <= 0.02

    def test_attempts_bounded(self):
        link = LinkModel(drop_probability=0.8, max_retries=4)
        rng = SplitMix64(11)
        for _ in range(500):
            result = transmit(link, self.FRAME, 0, rng)
            assert 1 <= result.attempts <= 5
            if result.delivered:
                assert result.delivered_at >= 0 + link.latency_ms
