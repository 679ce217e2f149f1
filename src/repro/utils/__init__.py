"""Shared utilities: seeding, timing and validation helpers."""

from repro.utils.seeding import seeded_rng, spawn_rngs
from repro.utils.timing import Timer
from repro.utils.validation import (
    ensure_fraction,
    ensure_positive_int,
    ensure_probability_vector,
)

__all__ = [
    "seeded_rng",
    "spawn_rngs",
    "Timer",
    "ensure_fraction",
    "ensure_positive_int",
    "ensure_probability_vector",
]
