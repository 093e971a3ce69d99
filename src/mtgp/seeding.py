"""Deterministic RNGs and integer seeds derived from mixed integer/string keys."""

import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1


def seed_entropy(*parts) -> list[int]:
    """Map seed components (ints or tags) to SeedSequence entropy words.

    Strings are hashed with sha256 so the mapping is stable across runs and
    platforms; negative integers are masked to their unsigned 64-bit form.
    """
    words = []
    for part in parts:
        if isinstance(part, str):
            digest = hashlib.sha256(part.encode("utf-8")).digest()
            words.append(int.from_bytes(digest[:8], "little"))
        else:
            words.append(int(part) & _MASK64)
    return words


def make_rng(*parts) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed_entropy(*parts)))


def derive_seed(*parts) -> int:
    """One unsigned 64-bit integer seed derived from the seed components."""
    return int(np.random.SeedSequence(seed_entropy(*parts)).generate_state(1, np.uint64)[0])
