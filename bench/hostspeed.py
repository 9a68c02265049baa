"""A fixed reference computation, timed beside the workload to track host speed.

The benchmark runs on a few cores of a shared host whose speed drifts: the
same call on the same input takes 190 ms for a few seconds and 300 ms for the
next, and a busy minute slows every call of a run.  The CPU time of a call
drifts with its wall time, so the drift is the core's speed, not scheduling.

The reference is a fixed mix of interpreter work (dict walks and lookups) and
numpy work (gather, bincount, sort) on arrays both larger and much smaller
than the caches; it does not touch rankci.  ``run.py`` times it after every
workload call, on as many threads as the workload's workers, and after every
set-up, on one thread.  It scales the gated timings by
``NOMINAL_MS[threads] / median(reference times)``: a timing is reported as it
would read on a host that runs the reference in its nominal time.  A change to
rankci moves the adjusted timing by the same factor as the raw one; the host's
drift, which moves both the workload and the reference, cancels.  Raw timings
and the reference's own median are printed beside the adjusted ones.
"""

from __future__ import annotations

import statistics
import threading
import time

import numpy as np

# Median time of sample(threads) on an unloaded two-core 2.1 GHz Xeon host
# with Python 3.11 and numpy 2.4; it only sets the scale of the adjusted
# timings.
NOMINAL_MS = {1: 24.0, 2: 44.0}

_RNG = np.random.default_rng(20240702)
# Large part: arrays and a dict bigger than the core's caches.
_VALUES = _RNG.random(100_000)
_INDEX = _RNG.integers(0, _VALUES.size, 200_000)
_GROUPS = _RNG.integers(0, 1_000, 200_000)
_TABLE = {f"q{i}": float(v) for i, v in enumerate(_VALUES[:50_000])}
# Small part: many cheap numpy calls and dict lookups, as in rankci's
# per-query loops.
_SMALL = _VALUES[:256].copy()
_SMALL_GROUPS = _GROUPS[:256] % 16
_KEYS = list(_TABLE)[:64]


def reference_work() -> float:
    total = 0.0
    for _ in range(8):
        sums = np.bincount(_GROUPS, weights=_VALUES[_INDEX], minlength=1_000)
        total += float(np.sort(sums)[500])
    for key, value in _TABLE.items():
        total += value if key[-1] < "5" else 0.5 * value
    for i in range(1_000):
        x = _SMALL * (1.0 + 1e-3 * i)
        total += float(np.sort(x)[128])
        total += float(np.bincount(_SMALL_GROUPS, weights=x, minlength=16)[3])
        for key in _KEYS:
            total += 0.5 * _TABLE[key]
    return total


def sample(threads: int = 1) -> float:
    """Seconds taken by ``threads`` threads that each run reference_work()
    once.  A workload with worker threads is matched by as many reference
    threads: on two threads, the hand-overs of the interpreter lock between
    cores make up part of the time, and their cost drifts with the host too."""
    workers = [threading.Thread(target=reference_work) for _ in range(threads)]
    start = time.perf_counter()
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    return time.perf_counter() - start


def scale(reference_seconds: list[float], threads: int = 1) -> float:
    """The factor that turns a raw timing into an adjusted one, from samples
    taken on ``threads`` threads."""
    return NOMINAL_MS[threads] / 1e3 / statistics.median(reference_seconds)
