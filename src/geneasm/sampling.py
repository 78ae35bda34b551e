"""Seeded random generators for arrangements and legal strings.

Everything takes an explicit random.Random so the CLI cross-validation
runs and the test suite stay reproducible.
"""

from __future__ import annotations

import random

from . import pointers


def random_arrangement(rng: random.Random, kappa: int):
    if kappa < 2:
        raise ValueError("kappa must be >= 2")
    entries = list(range(1, kappa + 1))
    rng.shuffle(entries)
    return tuple(-k if rng.random() < 0.5 else k for k in entries)


def random_realistic_string(rng: random.Random, kappa: int):
    return pointers.encode_arrangement(random_arrangement(rng, kappa))


def random_legal_string(rng: random.Random, max_domain: int = 5, gaps: bool = True):
    """Legal string with 1..max_domain magnitudes, random bars, shuffled."""
    size = rng.randint(1, max_domain)
    if gaps and rng.random() < 0.3:
        mags = rng.sample(range(2, max_domain + 4), size)
    else:
        mags = list(range(2, size + 2))
    letters = []
    for m in mags:
        letters.append(-m if rng.random() < 0.5 else m)
        letters.append(-m if rng.random() < 0.5 else m)
    rng.shuffle(letters)
    return tuple(letters)
