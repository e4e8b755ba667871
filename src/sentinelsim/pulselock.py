"""Pulse-sequence deactivation lock.

The password is an n-long bit string. During an attempt an indicator LED
pulses n times on a fixed period; pressing the button while pulse k is lit
records a 1 for position k, staying quiet records a 0. The attempt is
accepted only when the recorded bits equal the password exactly and no press
landed between pulses.

Timing model, all in integer milliseconds: pulse k (0-based) is lit during
the half-open window

    [start + k*period, start + k*period + press_window)

so with the defaults (period 1000, window 500) a 7-pulse attempt started at
t=0 ends at t=6500.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from .events import Instant

MAX_BITS = 32


class AttemptStateError(RuntimeError):
    """Raised when an attempt is driven outside its legal lifecycle."""


@dataclass(frozen=True)
class PasswordSpec:
    """The configured password and its pulse timing."""

    bits: Tuple[int, ...]
    pulse_period_ms: int = 1000
    press_window_ms: int = 500

    def __post_init__(self) -> None:
        if not 1 <= len(self.bits) <= MAX_BITS:
            raise ValueError(
                f"password length must be in [1, {MAX_BITS}], got {len(self.bits)}"
            )
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError(f"password bits must be 0 or 1, got {self.bits}")
        if not self.pulse_period_ms > 0:
            raise ValueError("pulse_period_ms must be > 0")
        if not 0 < self.press_window_ms <= self.pulse_period_ms:
            raise ValueError(
                "press_window_ms must satisfy 0 < window <= period, got "
                f"window={self.press_window_ms} period={self.pulse_period_ms}"
            )

    @classmethod
    def from_string(
        cls, text: str, pulse_period_ms: int = 1000, press_window_ms: int = 500
    ) -> "PasswordSpec":
        """Parse the config-file form, a string of '0'/'1' characters."""
        if not text or set(text) - {"0", "1"}:
            raise ValueError(f"password must be a non-empty string of 0/1, got {text!r}")
        bits = tuple(int(c) for c in text)
        return cls(bits, pulse_period_ms, press_window_ms)

    @property
    def attempt_ms(self) -> int:
        """Length of an attempt: its start to the end of the last pulse's window."""
        return (len(self.bits) - 1) * self.pulse_period_ms + self.press_window_ms

    def to_string(self) -> str:
        return "".join(str(b) for b in self.bits)

    def __len__(self) -> int:
        return len(self.bits)


@dataclass(frozen=True)
class AttemptOutcome:
    accepted: bool
    trace: Tuple[int, ...]


def evaluate(observed: Sequence[int], extraneous_press: bool, bits: Sequence[int]) -> bool:
    """The acceptance rule: exact bit match and no press outside a window."""
    return not extraneous_press and tuple(observed) == tuple(bits)


@dataclass
class AttemptSession:
    """One in-progress password entry against a pulse schedule."""

    spec: PasswordSpec
    started_at: Instant
    observed: List[int] = field(default_factory=list)
    extraneous_press: bool = False
    finalized: bool = False
    # First instant at which the outcome is decidable: the end of the last
    # pulse's window. Fixed by spec and start, so computed once.
    end: Instant = field(init=False)

    def __post_init__(self) -> None:
        if not self.observed:
            self.observed = [0] * len(self.spec)
        self.end = self.started_at + self.spec.attempt_ms

    @classmethod
    def begin(cls, spec: PasswordSpec, start: Instant) -> "AttemptSession":
        return cls(spec=spec, started_at=start)

    def window(self, k: int) -> Tuple[Instant, Instant]:
        """Half-open [lit, off) interval of pulse k, 0-based."""
        lo = self.started_at + k * self.spec.pulse_period_ms
        return lo, lo + self.spec.press_window_ms

    def record_press(self, at: Instant) -> None:
        """Register a button press at time ``at``.

        Presses inside pulse k's window set bit k (repeats in one window
        debounce to a single 1). Presses outside every window mark the
        attempt as extraneous, which forces rejection.
        """
        if self.finalized:
            raise AttemptStateError("attempt already finalized")
        if at >= self.end:
            raise AttemptStateError(
                f"press at t={at} is after the schedule end t={self.end}"
            )
        rel = at - self.started_at
        if rel < 0:
            self.extraneous_press = True
            return
        k, offset = divmod(rel, self.spec.pulse_period_ms)
        if k < len(self.spec) and offset < self.spec.press_window_ms:
            self.observed[k] = 1
        else:
            self.extraneous_press = True

    def finalize(self, now: Instant) -> AttemptOutcome:
        """Close the attempt and decide it. Only legal once the schedule ended."""
        if self.finalized:
            raise AttemptStateError("attempt already finalized")
        if now < self.end:
            raise AttemptStateError(
                f"cannot finalize at t={now}, schedule runs until t={self.end}"
            )
        self.finalized = True
        trace = tuple(self.observed)
        return AttemptOutcome(
            accepted=evaluate(trace, self.extraneous_press, self.spec.bits),
            trace=trace,
        )


def begin_attempt(spec: PasswordSpec, start: Instant) -> AttemptSession:
    """Start the password-entering mode at ``start``."""
    return AttemptSession.begin(spec, start)


def search_space(n: int) -> int:
    """Number of candidate passwords of length n."""
    if not 1 <= n <= MAX_BITS:
        raise ValueError(f"pulse count must be in [1, {MAX_BITS}], got {n}")
    return 2**n


def mid_window_press_times(
    spec: PasswordSpec, pattern: int, start: Instant = 0
) -> List[Instant]:
    """Press times for a candidate entry, pressing mid-window for each 1 bit.

    Bit k of ``pattern`` (value ``1 << k``) corresponds to pulse k.
    """
    half = spec.press_window_ms // 2
    return [
        start + k * spec.pulse_period_ms + half
        for k in range(len(spec))
        if pattern >> k & 1
    ]


def run_pattern(spec: PasswordSpec, pattern: int, start: Instant = 0) -> AttemptOutcome:
    """Drive a full attempt for one mid-window press pattern."""
    session = AttemptSession.begin(spec, start)
    for t in mid_window_press_times(spec, pattern, start):
        session.record_press(t)
    return session.finalize(session.end)
