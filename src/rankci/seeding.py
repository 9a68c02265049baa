"""Deterministic random-number streams.

All randomness in the package flows through numpy's default generator
(PCG64).  A stream is seeded with an integer sequence: the user-visible
master seed followed by a fixed integer path naming the unit of work
(resample index, repeat index, query index, ...).  Units that may run
concurrently each get their own derived stream, so results never depend on
execution order or worker count.
"""

from __future__ import annotations

import numpy as np


def stream(seed: int, *path: int) -> np.random.Generator:
    """A PCG64 generator derived from ``seed`` and an integer path."""
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    return np.random.default_rng([int(seed), *(int(p) for p in path)])


def child_seed(seed: int, *path: int) -> int:
    """A derived integer seed, for APIs that take a plain seed argument."""
    return int(stream(seed, *path).integers(0, 2**63))

