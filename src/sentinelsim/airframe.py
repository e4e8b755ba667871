"""Wireless frame codec and the lossy point-to-point link model.

Wire layout, chosen to be hand-checkable:

    [0x7E] [length] [frame_type] [source_id] [payload ...] [checksum]

length counts frame_type + source_id + payload (so 2 + payload size), and
checksum = 0xFF - ((frame_type + source_id + sum(payload)) mod 256). Frames
are parsed from exact-length buffers; 0x7E bytes inside payloads are not
escaped, which is fine because frames never share a stream.
"""

from __future__ import annotations

from enum import IntEnum
from typing import NamedTuple, Optional

from .config import SimConfig
from .events import CheckedRecord, Instant
from .rng import SplitMix64

DELIMITER = 0x7E

# length byte covers frame_type + source_id + payload and must fit in 8 bits
MAX_PAYLOAD = 0xFF - 2


# Only the frame types the simulation sends; other type bytes are unknown.
class FrameType(IntEnum):
    INTRUDER_ALERT = 0x01


class FrameDecodeError(ValueError):
    """Base class for all frame decode failures."""


class BadDelimiter(FrameDecodeError):
    pass


class LengthMismatch(FrameDecodeError):
    pass


class ChecksumMismatch(FrameDecodeError):
    pass


class UnknownFrameType(FrameDecodeError):
    pass


class _FrameFields(NamedTuple):
    frame_type: FrameType
    source_id: int
    payload: bytes


class Frame(CheckedRecord, _FrameFields):
    """One wireless message between a sensor node and the coordinator."""

    __slots__ = ()

    def __new__(cls, frame_type, source_id, payload=b""):
        if frame_type not in FrameType.__members__.values():
            raise ValueError(f"unknown frame type {frame_type!r}")
        # exact types, as encode_frame writes them: not isinstance, a bool is an int
        if type(source_id) is not int or not 0 <= source_id <= 0xFF:
            raise ValueError(f"source_id must be a one-byte integer, got {source_id!r}")
        if type(payload) is not bytes:
            raise ValueError(f"payload must be bytes, got {payload!r}")
        if len(payload) > MAX_PAYLOAD:
            raise ValueError(f"payload too long for the length byte: {len(payload)} > {MAX_PAYLOAD}")
        return tuple.__new__(cls, (frame_type, source_id, payload))


def checksum(frame_type: int, source_id: int, payload: bytes) -> int:
    """Additive complement over the checksum-covered bytes."""
    return 0xFF - ((frame_type + source_id + sum(payload)) % 256)


def encode_frame(frame: Frame) -> bytes:
    """Serialize a frame to its wire form."""
    body = bytes([frame.frame_type, frame.source_id]) + frame.payload
    return bytes([DELIMITER, len(body)]) + body + bytes(
        [checksum(frame.frame_type, frame.source_id, frame.payload)]
    )


def decode_frame(data: bytes) -> Frame:
    """Parse an exact-length buffer back into a Frame.

    Checksum verification happens before frame-type validation so that any
    corruption of a checksum-covered byte surfaces as ChecksumMismatch.
    """
    if len(data) == 0:
        raise LengthMismatch("empty buffer")
    if data[0] != DELIMITER:
        raise BadDelimiter(f"expected 0x7E, got 0x{data[0]:02X}")
    if len(data) < 2:
        raise LengthMismatch("buffer too short for a length byte")
    declared = data[1]
    if declared < 2:
        raise LengthMismatch(f"declared length {declared} cannot cover the header")
    if len(data) != declared + 3:
        raise LengthMismatch(
            f"declared length {declared} implies {declared + 3} bytes, got {len(data)}"
        )
    frame_type, source_id = data[2], data[3]
    payload = bytes(data[4 : 2 + declared])  # a bytearray's slice is not bytes
    stored = data[-1]
    expected = checksum(frame_type, source_id, payload)
    if stored != expected:
        raise ChecksumMismatch(f"stored 0x{stored:02X}, computed 0x{expected:02X}")
    try:
        ftype = FrameType(frame_type)
    except ValueError:
        raise UnknownFrameType(f"0x{frame_type:02X}") from None
    return Frame(frame_type=ftype, source_id=source_id, payload=payload)


def hex_dump(data: bytes) -> str:
    """Uppercase space-separated hex, the form frames take in event logs."""
    return " ".join(f"{b:02X}" for b in data)


class DeliveryResult(NamedTuple):
    delivered: bool
    delivered_at: Optional[Instant]
    attempts: int


def transmit(cfg: SimConfig, at: Instant, rng: SplitMix64) -> DeliveryResult:
    """Attempt delivery of one frame sent at ``at``; its bytes never matter.

    One uniform draw per attempt, consumed in attempt order: attempt k
    succeeds when its draw is >= drop_probability and then arrives at
    ``at + k * latency_ms``. All max_retries + 1 attempts exhausted means
    the frame is dropped. ``rng.first_at_least`` decides the attempts, a
    block of draws at a time, with the same draws as one ``random()`` per
    attempt.
    """
    attempts = cfg.max_retries + 1
    k = rng.first_at_least(cfg.drop_probability, attempts)
    if k:  # tuple.__new__ builds the record in C, not through namedtuple's __new__
        return tuple.__new__(DeliveryResult, (True, at + k * cfg.latency_ms, k))
    return tuple.__new__(DeliveryResult, (False, None, attempts))
