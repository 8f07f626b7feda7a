"""Tests for the deterministic RNG and the process-stable hashes."""

import os
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from repro.util.rng import DeterministicRng, content_hash, stable_hash


def test_same_seed_same_stream():
    a = DeterministicRng(42)
    b = DeterministicRng(42)
    assert [a.next_u32() for _ in range(50)] == [b.next_u32() for _ in range(50)]


def test_different_seeds_diverge():
    a = DeterministicRng(1)
    b = DeterministicRng(2)
    assert [a.next_u32() for _ in range(8)] != [b.next_u32() for _ in range(8)]


def test_from_name_is_stable():
    assert (
        DeterministicRng.from_name("compress").next_u32()
        == DeterministicRng.from_name("compress").next_u32()
    )
    assert (
        DeterministicRng.from_name("compress").next_u32()
        != DeterministicRng.from_name("jess").next_u32()
    )


def test_stable_hash_known_value():
    # FNV-1a of the empty string is the offset basis.
    assert stable_hash("") == 0xCBF29CE484222325
    assert stable_hash("a") != stable_hash("b")


def test_seed_derivation_is_pinned():
    # Workload programs and timer jitter are seeded through stable_hash,
    # so these values fix every generated program and digest; they must
    # not move when fingerprints change hash.
    assert stable_hash("compress") == 17220000483845604941
    assert DeterministicRng.from_name("compress").next_u32() == 222242527
    assert DeterministicRng.from_name("jess", salt=3).next_u32() == 1221151018


# A fingerprint-shaped input and its BLAKE2b-64 value (big-endian).
_CONTENT = "superblock|1|2"
_CONTENT_HASH = 0x5B9B63B085B6F11C


def test_content_hash_pinned_value():
    assert content_hash(_CONTENT) == _CONTENT_HASH
    assert content_hash("") != content_hash(" ")
    assert 0 <= content_hash("\x1f".join(["a", "é"])) < 1 << 64


def test_content_hash_is_stable_across_processes():
    # Engine workers share persisted caches keyed by these values, so a
    # spawned interpreter with a different string-hash salt must agree.
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="12345")
    proc = subprocess.run(
        [
            sys.executable, "-c",
            "from repro.util.rng import content_hash; "
            f"print(content_hash({_CONTENT!r}))",
        ],
        env=env, capture_output=True, text=True, check=True,
    )
    assert int(proc.stdout) == _CONTENT_HASH


@given(st.integers(min_value=-100, max_value=100), st.integers(min_value=0, max_value=200))
def test_randint_in_range(low, span):
    rng = DeterministicRng(7)
    high = low + span
    for _ in range(20):
        value = rng.randint(low, high)
        assert low <= value <= high


def test_randint_empty_range_raises():
    with pytest.raises(ValueError):
        DeterministicRng(0).randint(5, 4)


def test_random_in_unit_interval():
    rng = DeterministicRng(3)
    for _ in range(100):
        x = rng.random()
        assert 0.0 <= x < 1.0


def test_choice_and_empty_choice():
    rng = DeterministicRng(9)
    items = ["x", "y", "z"]
    for _ in range(20):
        assert rng.choice(items) in items
    with pytest.raises(ValueError):
        rng.choice([])


def test_shuffle_is_permutation():
    rng = DeterministicRng(11)
    items = list(range(30))
    shuffled = list(items)
    rng.shuffle(shuffled)
    assert sorted(shuffled) == items


def test_sample_weights_respects_zero_weight():
    rng = DeterministicRng(13)
    for _ in range(50):
        assert rng.sample_weights([0.0, 1.0, 0.0]) == 1


def test_sample_weights_requires_positive_total():
    with pytest.raises(ValueError):
        DeterministicRng(1).sample_weights([0.0, 0.0])


def test_sample_weights_distribution_roughly_proportional():
    rng = DeterministicRng(17)
    counts = [0, 0]
    for _ in range(2000):
        counts[rng.sample_weights([1.0, 3.0])] += 1
    assert counts[1] > counts[0] * 2  # expect ~3x


def test_split_streams_are_independent():
    parent = DeterministicRng(5)
    child_a = parent.split(1)
    child_b = parent.split(2)
    assert [child_a.next_u32() for _ in range(5)] != [
        child_b.next_u32() for _ in range(5)
    ]


def test_chance_extremes():
    rng = DeterministicRng(23)
    assert not any(rng.chance(0.0) for _ in range(50))
    assert all(rng.chance(1.0) for _ in range(50))
