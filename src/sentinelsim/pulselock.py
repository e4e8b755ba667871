"""Pulse-sequence deactivation lock.

The password is an n-long bit string. During an attempt an indicator LED
pulses n times on a fixed period; pressing the button while pulse k is lit
records a 1 for position k, staying quiet records a 0. The attempt is
accepted only when the recorded bits, a 0/1 string like the password itself,
equal the password exactly and no press landed between pulses. The password
and its pulse timing are config values: ``SimConfig.validate`` holds their
rules, and a session reads the validated config.

Timing model, all in integer milliseconds: pulse k (0-based) is lit during
the half-open window

    [start + k*period, start + k*period + press_window)

so with SimConfig's defaults (period 1000, window 500) a 7-pulse attempt
started at t=0 ends at t=6500.
"""

from __future__ import annotations

from typing import NamedTuple

from .config import MAX_BITS, SimConfig
from .events import Instant


class AttemptStateError(RuntimeError):
    """Raised when an attempt is driven outside its legal lifecycle."""


class AttemptOutcome(NamedTuple):
    accepted: bool
    trace: str  # the entered bits, a 0/1 string as long as the password


class AttemptSession:
    """One password entry against a pulse schedule, built from (cfg, started_at) alone."""

    def __init__(self, cfg: SimConfig, started_at: Instant) -> None:
        self.cfg = cfg
        self.started_at = started_at
        self.observed = ["0"] * len(cfg.password)
        self.extraneous_press = False
        self.finalized = False
        # record_press reads the timing per press: bound once, a config field read costs more
        self.period, self.window = cfg.pulse_period_ms, cfg.press_window_ms
        # First instant at which the outcome is decidable: the end of the last
        # pulse's window. Fixed by config and start, so computed once.
        self.end = started_at + cfg.attempt_ms

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
        k, offset = divmod(rel, self.period)
        if k < len(self.observed) and offset < self.window:
            self.observed[k] = "1"
        else:
            self.extraneous_press = True

    def finalize(self, now: Instant) -> AttemptOutcome:
        """Close the ended attempt; accept an exact bit match with no stray press."""
        if self.finalized:
            raise AttemptStateError("attempt already finalized")
        if now < self.end:
            raise AttemptStateError(
                f"cannot finalize at t={now}, schedule runs until t={self.end}"
            )
        self.finalized = True
        trace = "".join(self.observed)
        accepted = not self.extraneous_press and trace == self.cfg.password
        return tuple.__new__(AttemptOutcome, (accepted, trace))  # C, not namedtuple's __new__


def begin_attempt(cfg: SimConfig, start: Instant) -> AttemptSession:
    """Start the password-entering mode at ``start``."""
    return AttemptSession(cfg, start)


def search_space(n: int) -> int:
    """Number of candidate passwords of length n."""
    if not 1 <= n <= MAX_BITS:
        raise ValueError(f"pulse count must be in [1, {MAX_BITS}], got {n}")
    return 2**n
