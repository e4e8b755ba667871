"""Seeded deterministic random number generation.

The simulator uses splitmix64 throughout: it is tiny, fast, has a documented
reference algorithm, and produces bit-identical streams for a given seed on
any platform. Run reports carry the algorithm identifier so a replay can
verify it is drawing from the same generator.

splitmix64 is counter-based: draw k after state ``s`` is a fixed mix of
``s + k * gamma`` (mod 2**64). So ``first_at_least`` decides a block of draws
in a few big-int operations, one 128-bit lane per draw (room for a 64-bit
value times a 64-bit constant). It and ``random()`` advance one counter, so
any interleaving of the two reads the one stream.
"""

from __future__ import annotations

import functools
import math

ALGORITHM = "splitmix64"

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1, _MIX2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB

# first_at_least decides its draws a block at a time: a stream's first block
# (and the first after a random() call) decides _FIRST draws, and each later
# block twice as many as the last, up to _LANES; no block is shorter than
# limit. So a short run decides few draws it never takes.
_FIRST = 8
_LANES = 64


@functools.lru_cache(maxsize=8)
def _lanes(n: int):
    """For n 128-bit lanes: 1 in each lane, 2**64 - 1 in each, and k * gamma in lane k = 1..n."""
    ones = int.from_bytes(b"\1".ljust(16, b"\0") * n, "little")
    ramp = int.from_bytes(b"".join(k.to_bytes(16, "little") for k in range(1, n + 1)), "little")
    return ones, ones * _MASK64, ramp * _GOLDEN


def _threshold(p) -> int:
    """The least m with ``m * 2**-53 >= p``: a draw's random() is >= p exactly when its
    top 53 bits are >= this. 0 for p <= 0; 2**53, above every draw, for p > 1, inf or NaN."""
    if p <= 0:
        return 0
    return math.ceil(p * 2**53) if p <= 1 else 1 << 53  # exact: a power-of-two scale


def _decide_block(state: int, t: int, n: int) -> bytes:
    """A byte per draw for the n draws after ``state``: 1 if its top 53 bits are >= t, else 0."""
    ones, mask, gammas = _lanes(n)
    z = (state * ones + gammas) & mask
    z = ((z ^ ((z >> 30) & mask)) * _MIX1) & mask
    z = ((z ^ ((z >> 27) & mask)) * _MIX2) & mask
    # + 2**64 - t * 2**11 carries into a lane's bit 64 exactly when its draw >> 11 is >= t
    z = (z ^ ((z >> 31) & mask)) + ((1 << 64) - (t << 11)) * ones
    return z.to_bytes(16 * n, "little")[8::16]


class SplitMix64:
    """splitmix64 stream seeded with a 64-bit unsigned integer."""

    __slots__ = ("_base", "_pos", "_end", "_p", "_flags")

    def __init__(self, seed: int):
        if type(seed) is not int or not 0 <= seed <= _MASK64:  # not isinstance: a bool is an int
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed!r}")
        # The counter is _base plus _pos draws: _flags[:_end] decide, against _p,
        # the _end draws after _base, and first_at_least has taken _pos of them.
        self._base = seed
        self._pos = self._end = 0
        self._p = self._flags = None

    def random(self) -> float:
        """Uniform float in [0, 1) from the top 53 bits of one splitmix64 draw."""
        z = self._base = (self._base + (self._pos + 1) * _GOLDEN) & _MASK64
        self._pos = self._end = 0  # no block starts at the counter; the next is _FIRST long
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return ((z ^ (z >> 31)) >> 11) * 2.0**-53

    def first_at_least(self, p, limit: int) -> int:
        """The 1-based index of the first of the next ``limit`` draws whose
        ``random()`` is >= p, or 0 if none is.

        Consumes that many draws, or ``limit`` if none qualifies, exactly as
        calling ``random()`` until one qualifies would.
        """
        pos = self._pos
        end = pos + limit
        if end > self._end or p != self._p:
            n = self._end = max(_FIRST, min(2 * self._end, _LANES), limit)
            self._base = (self._base + pos * _GOLDEN) & _MASK64
            self._flags = _decide_block(self._base, _threshold(p), n)
            self._p = p
            pos, end = 0, limit
        i = self._flags.find(1, pos, end)
        if i < 0:
            self._pos = end
            return 0
        self._pos = i + 1
        return i + 1 - pos
