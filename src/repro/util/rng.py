"""Deterministic pseudo-random number generation.

Every stochastic choice in the library (workload generation, adaptive-timer
jitter, random CFG construction) flows through :class:`DeterministicRng`, a
small, explicitly-seeded linear congruential generator.  We avoid the global
``random`` module so that two runs with the same seeds are bit-identical,
which the replay-compilation methodology (paper section 5) depends on.

The two process-stable hashes live here too: :func:`stable_hash` derives
RNG seeds from names, and :func:`content_hash` fingerprints the long
canonical texts that key the compilation cache and generated-code
artefacts.
"""

from __future__ import annotations

from typing import List, Sequence, TypeVar

T = TypeVar("T")

# Knuth's MMIX LCG constants: full period over 2**64.
_MULTIPLIER = 6364136223846793005
_INCREMENT = 1442695040888963407
_MASK64 = (1 << 64) - 1


def stable_hash(text: str) -> int:
    """Return a deterministic 64-bit hash of ``text``.

    ``hash()`` is salted per-process for strings, so it cannot be used to
    derive reproducible seeds.  This is FNV-1a, which is stable everywhere.
    """
    value = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        value ^= byte
        value = (value * 0x100000001B3) & _MASK64
    return value


def content_hash(text: str) -> int:
    """Return a deterministic 64-bit fingerprint of ``text``.

    BLAKE2b with an 8-byte digest, read big-endian.  It is stable across
    processes like :func:`stable_hash`, but native: fingerprints hash
    kilobytes of canonical disassembly per compile, where the
    pure-Python FNV loop costs milliseconds.  Seeds stay on
    :func:`stable_hash`, so generated programs never change.
    """
    # Imported on first use: hashlib loads OpenSSL (~6 ms), which a
    # process that never fingerprints should not pay at ``import repro``.
    from hashlib import blake2b

    digest = blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class DeterministicRng:
    """A seeded 64-bit linear congruential generator.

    The generator is deliberately minimal: the library needs reproducibility
    and speed, not cryptographic quality.  The high 32 bits of the state are
    used as output, which passes the statistical needs of workload shaping.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int = 0) -> None:
        self._state = (seed * _MULTIPLIER + _INCREMENT) & _MASK64
        # Warm up so that small seeds diverge quickly.
        self.next_u32()
        self.next_u32()

    @classmethod
    def from_name(cls, name: str, salt: int = 0) -> "DeterministicRng":
        """Build an RNG whose stream depends only on ``name`` and ``salt``."""
        return cls(stable_hash(name) ^ (salt * 0x9E3779B97F4A7C15))

    def next_u32(self) -> int:
        """Advance the state and return 32 uniform bits."""
        self._state = (self._state * _MULTIPLIER + _INCREMENT) & _MASK64
        return self._state >> 32

    def randint(self, low: int, high: int) -> int:
        """Return a uniform integer in the inclusive range [low, high]."""
        if high < low:
            raise ValueError(f"empty range [{low}, {high}]")
        span = high - low + 1
        return low + self.next_u32() % span

    def random(self) -> float:
        """Return a uniform float in [0, 1)."""
        return self.next_u32() / 4294967296.0

    def chance(self, probability: float) -> bool:
        """Return True with the given probability."""
        return self.random() < probability

    def choice(self, items: Sequence[T]) -> T:
        """Return a uniformly chosen element of a non-empty sequence."""
        if not items:
            raise ValueError("cannot choose from an empty sequence")
        return items[self.randint(0, len(items) - 1)]

    def shuffle(self, items: List[T]) -> None:
        """Shuffle ``items`` in place (Fisher-Yates)."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(0, i)
            items[i], items[j] = items[j], items[i]

    def sample_weights(self, weights: Sequence[float]) -> int:
        """Return an index drawn proportionally to non-negative weights."""
        total = float(sum(weights))
        if total <= 0.0:
            raise ValueError("weights must sum to a positive value")
        point = self.random() * total
        acc = 0.0
        for index, weight in enumerate(weights):
            acc += weight
            if point < acc:
                return index
        return len(weights) - 1

    def split(self, salt: int) -> "DeterministicRng":
        """Derive an independent child generator."""
        child = DeterministicRng(self._state ^ (salt * 0xD1B54A32D192ED03))
        return child
