"""splitmix64 stream correctness and determinism."""

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

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
