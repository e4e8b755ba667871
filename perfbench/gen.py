"""Deterministic scenario-text generators for the benchmark workloads.

This module does not import sentinelsim: it only writes scenario text, so
the program under test receives nothing but that text, and a set-up probe
can generate its inputs before it starts timing the import of the program.

The generator carries its own splitmix64 stream instead of Python's
``random`` so that a workload seed maps to the same text on every Python
version and whatever the program's own RNG becomes.
"""

from __future__ import annotations

import json
import os
from typing import List

_MASK64 = 0xFFFFFFFFFFFFFFFF

# The shipped password is "1100101": pulses 0, 1, 4 and 6 must be pressed.
# Pulse k is lit during [start + k*1000, start + k*1000 + 500).
_PASSWORD_BITS = (1, 1, 0, 0, 1, 0, 1)
_PULSE_PERIOD_MS = 1000
_PRESS_WINDOW_MS = 500
# An attempt started at t is decided at t + 6500; leaving 7000 ms before the
# next event keeps a second mode_button out of a running attempt.
_ATTEMPT_SPAN_MS = 7000

# Highest distance the default config accepts (max_range_m).
_MAX_RANGE_M = 4.0


class Stream:
    """splitmix64, used only to draw benchmark inputs."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        return self.next_u64() % n

    def between(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi]."""
        return lo + self.below(hi - lo + 1)


def derive(seed: int, *labels: int) -> int:
    """A seed for a sub-stream, so inputs of one workload do not overlap."""
    stream = Stream(seed)
    for label in labels:
        stream = Stream(stream.next_u64() ^ (label & _MASK64))
    return stream.next_u64()


# Per-profile weights of the next block to emit:
# distance sample, door open+close, arm, password attempt, stray press.
PROFILES = {
    "mixed": (50, 22, 6, 12, 10),
    "doors": (12, 72, 10, 4, 2),
}


def _attempt_lines(stream: Stream, t: int) -> List[str]:
    """A password attempt at t: half exact entries, half wrong or noisy ones."""
    lines = [f"{t} mode_button"]
    bits = list(_PASSWORD_BITS)
    if stream.below(2):
        bits[stream.below(len(bits))] ^= 1
    for k, bit in enumerate(bits):
        if bit:
            down = t + k * _PULSE_PERIOD_MS + stream.between(0, _PRESS_WINDOW_MS - 60)
            lines.append(f"{down} press_down")
            lines.append(f"{down + stream.between(20, 50)} press_up")
    return lines


def scenario_text(seed: int, n_events: int, profile: str = "mixed", armed: bool = False) -> str:
    """Scenario text of at least ``n_events`` event lines, sorted by time.

    Every distance is within the default range and no attempt overlaps
    another, so the program accepts and runs every generated scenario.
    """
    weights = PROFILES[profile]
    total = sum(weights)
    stream = Stream(seed)
    lines: List[str] = []
    t = 0
    if armed:
        lines.append("0 arm")
    while len(lines) < n_events:
        t += stream.between(100, 3000)
        pick = stream.below(total)
        if pick < weights[0]:
            # a fifth of the samples fall inside the 1.0 m threshold
            if stream.below(5) == 0:
                meters = stream.between(10, 99) / 100
            else:
                meters = stream.between(100, int(_MAX_RANGE_M * 100)) / 100
            lines.append(f"{t} distance {meters:.2f}")
            continue
        pick -= weights[0]
        if pick < weights[1]:
            lines.append(f"{t} door open")
            t += stream.between(200, 4000)
            lines.append(f"{t} door close")
            continue
        pick -= weights[1]
        if pick < weights[2]:
            lines.append(f"{t} arm")
            continue
        pick -= weights[2]
        if pick < weights[3]:
            lines.extend(_attempt_lines(stream, t))
            t += _ATTEMPT_SPAN_MS
            continue
        lines.append(f"{t} press_down")
    return "\n".join(lines) + "\n"


WORKLOADS = ("seed_sweep", "long_stream", "alert_storm")

SWEEP_RANDOM = 48
SWEEP_EVENTS = 40
STREAM_EVENTS = 100_000
STORM_SCENARIOS = 48
STORM_EVENTS = 400

# The run config of each workload, given to the program the way a user
# would: --set style text overrides for the library workloads, a JSON
# config file for the CLI workload.
SWEEP_OVERRIDES = {"drop_probability": "0.3", "latency_ms": "20"}
STREAM_OVERRIDES = {"drop_probability": "0.3", "latency_ms": "15"}
STORM_CONFIG = {
    "drop_probability": 0.5,
    "max_retries": 4,
    "latency_ms": 25,
    "maildir": True,
    "presence_to_authorities": True,
}
STORM_CONFIG_FILE = "storm.json"


def run_seed(workload_seed: int, op: int) -> int:
    """The program seed of operation ``op``: it advances by one per operation."""
    return (workload_seed * 1_000_000 + op) & _MASK64


def inputs(workload: str, seed: int, root: str) -> List[tuple]:
    """(name, scenario text) pairs of a workload, in operation order."""
    if workload == "seed_sweep":
        out = []
        for name in ("breakin", "deactivate"):
            with open(f"{root}/scenarios/{name}.scn", encoding="utf-8") as fh:
                out.append((name, fh.read()))
        for i in range(SWEEP_RANDOM):
            out.append((f"sweep-{i:02d}", scenario_text(derive(seed, 1, i), SWEEP_EVENTS)))
        return out
    if workload == "long_stream":
        return [("stream", scenario_text(derive(seed, 2), STREAM_EVENTS))]
    if workload == "alert_storm":
        return [
            (f"storm-{i:02d}", scenario_text(derive(seed, 3, i), STORM_EVENTS, "doors", armed=True))
            for i in range(STORM_SCENARIOS)
        ]
    raise ValueError(f"unknown workload {workload!r}")


def prepare(workload: str, seed: int, root: str, workdir: str) -> List[tuple]:
    """Generate a workload's inputs and write the files the CLI reads."""
    texts = inputs(workload, seed, root)
    os.makedirs(workdir, exist_ok=True)
    if workload == "alert_storm":
        for name, text in texts:
            with open(os.path.join(workdir, f"{name}.scn"), "w", encoding="utf-8") as fh:
                fh.write(text)
        with open(os.path.join(workdir, STORM_CONFIG_FILE), "w", encoding="utf-8") as fh:
            json.dump(STORM_CONFIG, fh)
    return texts
