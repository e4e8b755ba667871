"""splitmix64 stream correctness and determinism, against the reference in tests/oracle.py."""

import math
import random
import re
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import MASK64 as MASK
from oracle import splitmix64, uniforms
from sentinelsim import rng
from sentinelsim.rng import ALGORITHM, SplitMix64


def reference_random(seed, count):
    """The first ``count`` values of the reference stream: each draw's top 53 bits times 2**-53."""
    return list(islice(uniforms(seed), count))


def test_known_vector_seed_zero():
    # first outputs of splitmix64 seeded with 0, as published with the algorithm
    assert list(islice(splitmix64(0), 4)) == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
        0xF88BB8A8724C81EC,
    ]


@pytest.mark.parametrize("seed", [0, 1, 42, 0xDEADBEEF, MASK])
def test_matches_reference_transcription(seed):
    # each draw's value exactly: at least the reference's, and below the next float up
    at_least, below_next = SplitMix64(seed), SplitMix64(seed)
    for value in reference_random(seed, 64):
        assert at_least.first_at_least(value, 1) == 1
        assert below_next.first_at_least(math.nextafter(value, 1), 1) == 0


def test_same_seed_same_stream():
    a = SplitMix64(987654321)
    b = SplitMix64(987654321)
    assert [a.first_at_least(0.5, 3) for _ in range(100)] == [b.first_at_least(0.5, 3) for _ in range(100)]


def test_draws_are_uniform():
    # crude uniformity sanity check: about half the draws are >= 0.5
    r = SplitMix64(7)
    assert 0.45 < sum(r.first_at_least(0.5, 1) for _ in range(5000)) / 5000 < 0.55


def test_seed_bounds():
    # not an integer in [0, 2^64): a bool is an int, but its report would read "seed: True"
    for seed in (-1, 1 << 64, True, 1.5, 7.0):
        with pytest.raises(ValueError, match=re.escape(f"got {seed!r}") + "$"):
            SplitMix64(seed)


def test_algorithm_identifier():
    assert ALGORITHM == "splitmix64"


# Every kind of threshold: each end of [0, 1], the smallest floats above 0, the
# largest below 1, NaN, both infinities, values outside [0, 1] and the ints 0 and 1.
EDGE_PS = [0, 1, 0.0, -0.0, 1.0, 5e-324, 2**-53, math.nextafter(1, 0), math.nan,
           math.inf, -math.inf, -0.5, 1.5]


def reference_first_at_least(draws, start, p, limit):
    """(index of the first of draws[start:start + limit] that is >= p, or 0; draws used)."""
    for k in range(1, limit + 1):
        if draws[start + k - 1] >= p:
            return k, k
    return 0, limit


def replay(seed, calls):
    """Each call's result from one SplitMix64 and from a plain scan of the reference stream."""
    r = SplitMix64(seed)
    calls = [*calls, (0.5, 64)]  # and the counter ends where the reference's does
    draws = reference_random(seed, sum(limit for _p, limit in calls))
    got, expected, used = [], [], 0
    for call in calls:
        got.append(r.first_at_least(*call))
        k, n = reference_first_at_least(draws, used, *call)
        expected.append(k)
        used += n
    return got, expected


first_calls = st.tuples(
    st.one_of(st.sampled_from(EDGE_PS), st.floats(0, 1)),
    st.one_of(st.integers(1, 8), st.integers(1, 256)),
)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, MASK),
    calls=st.lists(first_calls, min_size=1, max_size=60),
    # a long run of draws first, so the calls that follow decide blocks and cross their edges
    # and leads of single draws that stop one short of the block edges at 8, 24 and 56 draws
    burn=st.sampled_from([(), ((1.5, 256),) * 4, ((math.nan, 97),) * 11,
                          ((1.5, 1),) * 7, ((1.5, 1),) * 23, ((1.5, 1),) * 55]),
)
def test_first_at_least_follows_a_scan_of_the_reference(seed, calls, burn):
    got, expected = replay(seed, [*burn, *calls])
    assert got == expected


def test_long_mixed_streams_follow_the_reference():
    # streams of thousands of draws: many blocks, every edge value, every limit shape
    rnd = random.Random(2014)
    for _ in range(25):
        ps = [*rnd.sample(EDGE_PS, 2), rnd.random(), 0.3, 0.9]
        calls = [
            (rnd.choice(ps), rnd.choice([1, 2, 3, 5, 64, 65, 255, 256, rnd.randint(1, 256)]))
            for _ in range(rnd.randint(200, 400))
        ]
        got, expected = replay(rnd.getrandbits(64), calls)
        assert got == expected


@pytest.mark.parametrize("p", EDGE_PS)
def test_the_threshold_decides_as_random_does(p):
    t = rng._threshold(p)
    assert 0 <= t <= 2**53
    # m * 2**-53 is each draw's random(); t is the least m that passes, if one does
    assert (t == 2**53 or t * 2.0**-53 >= p) and (t == 0 or not (t - 1) * 2.0**-53 >= p)


@pytest.mark.parametrize("n", [1, 64, 256])
def test_a_block_decides_each_draw_as_random_does(n):
    for seed, p in [(0, 0.3), (MASK, 0.5), (12345, 2**-53), (7, math.nextafter(1, 0))]:
        flags = rng._decide_block(seed, rng._threshold(p), n)
        assert list(flags) == [int(x >= p) for x in reference_random(seed, n)]


def test_blocks_grow_from_the_first_draw(monkeypatch):
    blocks, decide = [], rng._decide_block

    def counted(state, t, n):
        blocks.append(n)
        return decide(state, t, n)

    monkeypatch.setattr(rng, "_decide_block", counted)
    r = SplitMix64(1)
    for _ in range(8 + 16 + 32 + 64 + 1):
        assert r.first_at_least(1.5, 1) == 0
    assert blocks == [8, 16, 32, 64, 64]  # from the first draw, doubling up to 64
    r.first_at_least(1.5, 255)
    assert blocks[5:] == [255]  # never shorter than the limit
