"""splitmix64 stream correctness and determinism."""

import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sentinelsim import rng
from sentinelsim.rng import ALGORITHM, SplitMix64

MASK = (1 << 64) - 1


def reference_splitmix64(seed, count):
    """Straight transcription of the published splitmix64 algorithm."""
    out = []
    state = seed
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append(z ^ (z >> 31))
    return out


def reference_random(seed, count):
    """The reference stream as uniform floats: the top 53 bits of each draw."""
    return [(z >> 11) * 2.0**-53 for z in reference_splitmix64(seed, count)]


def test_known_vector_seed_zero():
    # first outputs of splitmix64 seeded with 0, as published with the algorithm
    assert reference_splitmix64(0, 4) == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
        0xF88BB8A8724C81EC,
    ]


@pytest.mark.parametrize("seed", [0, 1, 42, 0xDEADBEEF, MASK])
def test_matches_reference_transcription(seed):
    r = SplitMix64(seed)
    assert [r.random() for _ in range(64)] == reference_random(seed, 64)


def test_same_seed_same_stream():
    a = SplitMix64(987654321)
    b = SplitMix64(987654321)
    assert [a.random() for _ in range(100)] == [b.random() for _ in range(100)]


def test_random_unit_interval():
    r = SplitMix64(7)
    values = [r.random() for _ in range(5000)]
    assert all(0.0 <= v < 1.0 for v in values)
    # crude uniformity sanity check
    assert 0.4 < sum(values) / len(values) < 0.6


@given(st.integers(0, MASK))
def test_random_is_the_top_53_bits_of_the_reference(seed):
    r = SplitMix64(seed)
    assert [r.random() for _ in range(64)] == reference_random(seed, 64)


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
    """Each call's result from one SplitMix64 and from the reference transcription."""
    r = SplitMix64(seed)
    total = sum(1 if call == "random" else call[1] for call in calls)
    draws = reference_random(seed, total + 1)
    got, expected, used = [], [], 0
    for call in calls:
        if call == "random":
            got.append(r.random())
            expected.append(draws[used])
            used += 1
        else:
            got.append(r.first_at_least(*call))
            k, n = reference_first_at_least(draws, used, *call)
            expected.append(k)
            used += n
    got.append(r.random())  # the counter ends where the reference's does
    expected.append(draws[used])
    return got, expected


first_calls = st.tuples(
    st.one_of(st.sampled_from(EDGE_PS), st.floats(0, 1)),
    st.one_of(st.integers(1, 8), st.integers(1, 256)),
)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, MASK),
    calls=st.lists(st.one_of(st.just("random"), first_calls), min_size=1, max_size=60),
    # a long run of draws first, so the calls that follow decide blocks and cross their edges
    # and leads of single draws that stop one short of the block edges at 8, 24 and 56 draws
    burn=st.sampled_from([(), ((1.5, 256),) * 4, ((math.nan, 97),) * 11,
                          ((1.5, 1),) * 7, ((1.5, 1),) * 23, ((1.5, 1),) * 55]),
)
def test_first_at_least_interleaved_with_random_follows_the_reference(seed, calls, burn):
    got, expected = replay(seed, [*burn, *calls])
    assert got == expected


def test_long_mixed_streams_follow_the_reference():
    # streams of thousands of draws: many blocks, every edge value, every limit shape
    rnd = random.Random(2014)
    for _ in range(25):
        ps = [*rnd.sample(EDGE_PS, 2), rnd.random(), 0.3, 0.9]
        calls = [
            "random" if rnd.random() < 0.05
            else (rnd.choice(ps), rnd.choice([1, 2, 3, 5, 64, 65, 255, 256, rnd.randint(1, 256)]))
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


def test_blocks_grow_from_the_first_draw_and_restart_after_random(monkeypatch):
    blocks, decide = [], rng._decide_block

    def counted(state, t, n):
        blocks.append(n)
        return decide(state, t, n)

    monkeypatch.setattr(rng, "_decide_block", counted)
    r = SplitMix64(1)
    for _ in range(8 + 16 + 32 + 64 + 1):
        assert r.first_at_least(1.5, 1) == 0
    assert blocks == [8, 16, 32, 64, 64]  # from the first draw, doubling up to 64
    r.random()
    r.first_at_least(1.5, 1)
    assert blocks[5:] == [8]  # a random() call restarts the schedule
    r.first_at_least(1.5, 255)
    assert blocks[6:] == [255]  # never shorter than the limit
