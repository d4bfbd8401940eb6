"""Deterministic random-stream derivation.

Every random draw in the library flows from a single master seed in [0, 2**64).
Substreams are derived by hashing string labels (and optional integer
indices) into a ``numpy.random.SeedSequence`` that keys a Philox
counter-based generator, so corpora and seeded parameters are exactly
reproducible across runs, platforms, and any degree of parallelism.
"""

from __future__ import annotations

import hashlib

import numpy as np

GENERATOR_NAME = "philox4x64/seedsequence"

_MASK64 = (1 << 64) - 1


def _label_word(label) -> int:
    if isinstance(label, str):
        digest = hashlib.blake2s(label.encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "little")
    return int(label) & _MASK64


def checked_seed(seed) -> int:
    """`seed` as an int, or ValueError if it lies outside [0, 2**64)."""
    # refused, not folded: -1 and 2**64 - 1 would give one stream
    if not 0 <= int(seed) <= _MASK64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    return int(seed)


def _words(seed, labels) -> list:
    return [checked_seed(seed)] + [_label_word(lab) for lab in labels]


def stream(seed: int, *labels) -> np.random.Generator:
    """Return the Philox generator for (seed, labels).

    Labels may be strings or integers; the same tuple always yields an
    identical stream, and distinct tuples yield statistically independent
    ones.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(_words(seed, labels))))


def derive_seed(seed: int, *labels) -> int:
    """Collapse (seed, labels) into a fresh 64-bit seed for a child scope."""
    return int(np.random.SeedSequence(_words(seed, labels)).generate_state(1, np.uint64)[0])
