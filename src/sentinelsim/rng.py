"""Seeded deterministic random number generation.

The simulator uses splitmix64 throughout: it is tiny, fast, has a documented
reference algorithm, and produces bit-identical streams for a given seed on
any platform. Run reports carry the algorithm identifier so a replay can
verify it is drawing from the same generator.
"""

from __future__ import annotations

ALGORITHM = "splitmix64"

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15


class SplitMix64:
    """splitmix64 stream seeded with a 64-bit unsigned integer."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        if type(seed) is not int or not 0 <= seed <= _MASK64:  # not isinstance: a bool is an int
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed!r}")
        self._state = seed

    def random(self) -> float:
        """Uniform float in [0, 1) from the top 53 bits of one splitmix64 draw."""
        z = self._state = (self._state + _GOLDEN) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return ((z ^ (z >> 31)) >> 11) * 2.0**-53
