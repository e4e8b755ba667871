"""Wireless frame codec and the lossy point-to-point link model.

Wire layout, chosen to be hand-checkable:

    [0x7E] [length] [frame_type] [source_id] [payload ...] [checksum]

length counts frame_type + source_id + payload (so 2 + payload size), and
checksum = 0xFF - ((frame_type + source_id + sum(payload)) mod 256). Frames
are parsed from exact-length buffers; 0x7E bytes inside payloads are not
escaped, which is fine because frames never share a stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Optional

from .events import Instant
from .rng import SplitMix64

DELIMITER = 0x7E

# length byte covers frame_type + source_id + payload and must fit in 8 bits
MAX_PAYLOAD = 0xFF - 2


class FrameType(IntEnum):
    HEARTBEAT = 0x00
    INTRUDER_ALERT = 0x01
    PRESENCE_ALERT = 0x02
    DEACTIVATION_RESULT = 0x03


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


@dataclass(frozen=True)
class Frame:
    """One wireless message between a sensor node and the coordinator."""

    frame_type: FrameType
    source_id: int
    payload: bytes = b""

    def __post_init__(self) -> None:
        if self.frame_type not in FrameType.__members__.values():
            raise ValueError(f"unknown frame type {self.frame_type!r}")
        if not 0 <= self.source_id <= 0xFF:
            raise ValueError(f"source_id must be one byte, got {self.source_id}")
        if len(self.payload) > MAX_PAYLOAD:
            raise ValueError(
                f"payload too long for the length byte: {len(self.payload)} > {MAX_PAYLOAD}"
            )


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
    payload = data[4 : 2 + declared]
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


@dataclass(frozen=True)
class LinkModel:
    """Loss, latency and retry behaviour of the node-to-coordinator hop.

    Built from a validated ``SimConfig``, which holds the rules on these
    values.
    """

    drop_probability: float = 0.0
    latency_ms: int = 0
    max_retries: int = 2
    rng_seed: int = 0


@dataclass(frozen=True)
class DeliveryResult:
    delivered: bool
    delivered_at: Optional[Instant]
    attempts: int


def transmit(link: LinkModel, frame: Frame, at: Instant, rng: SplitMix64) -> DeliveryResult:
    """Attempt delivery of a frame sent at ``at``.

    One uniform draw per attempt, consumed in attempt order: attempt k
    succeeds when its draw is >= drop_probability and then arrives at
    ``at + k * latency``. All attempts exhausted means the frame is dropped.
    """
    attempts = link.max_retries + 1
    for k in range(1, attempts + 1):
        if rng.random() >= link.drop_probability:
            return DeliveryResult(True, at + k * link.latency_ms, k)
    return DeliveryResult(False, None, attempts)
