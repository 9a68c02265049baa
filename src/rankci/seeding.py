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


def index_blocks(seed: int, high: int, shape: tuple[int, int], entries: int):
    """The rows of ``stream(seed).integers(0, high, size=shape)``, the same values
    as one draw, drawn in turn in blocks of at most ``entries`` entries (one row at least)."""
    rng, (rows, cols) = stream(seed), shape
    step = max(1, entries // max(cols, 1))
    return (rng.integers(0, high, size=(min(step, rows - start), cols)) for start in range(0, rows, step))
