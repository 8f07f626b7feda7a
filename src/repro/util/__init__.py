"""Shared utilities: deterministic RNG, statistics helpers, ASCII tables."""

from repro.util.rng import DeterministicRng, content_hash, stable_hash
from repro.util.stats import (
    geometric_mean,
    arithmetic_mean,
    median,
    normalize,
    percent,
    weighted_mean,
)
from repro.util.tables import AsciiTable, format_figure

__all__ = [
    "DeterministicRng",
    "stable_hash",
    "content_hash",
    "geometric_mean",
    "arithmetic_mean",
    "median",
    "normalize",
    "percent",
    "weighted_mean",
    "AsciiTable",
    "format_figure",
]
