"""Percentile-bootstrap confidence intervals over per-query utilities.

This is the labels-only baseline: it sees the true utilities of the labeled
queries and nothing else.  The interval is the (alpha/2, 1 - alpha/2)
percentile pair of resampled means, with linear interpolation between order
statistics, so the bounds always stay inside the observed value range.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError
from .model import CiReport
from .seeding import stream

# Most resample indices drawn and gathered at once (8 MB of intp).
_CHUNK_ENTRIES = 1 << 20


@dataclass(frozen=True, slots=True)
class EmpiricalEstimate:
    """Sample mean and unbiased sample variance (n - 1 denominator)."""

    mean: float
    variance: float
    n: int


def empirical_estimate(values: Sequence[float]) -> EmpiricalEstimate:
    """Mean and unbiased variance of the observed values.

    Example: values [3, 5] give mean 4 and variance 2.
    """
    arr = np.asarray(list(values), dtype=float)
    if arr.size < 2:
        raise InsufficientDataError(f"need at least 2 values, got {arr.size}")
    return EmpiricalEstimate(mean=float(arr.mean()), variance=float(arr.var(ddof=1)), n=int(arr.size))


def bootstrap_ci(
    values: Sequence[float],
    alpha: float = 0.05,
    resamples: int = 10_000,
    seed: int = 0,
) -> CiReport:
    """Percentile-bootstrap interval for the mean of ``values``.

    Draws ``resamples`` with-replacement samples of the original size, takes
    the mean of each, and reports the alpha/2 and 1 - alpha/2 percentiles of
    those means.  All resample indices come from a single seeded stream, in
    row chunks of at most :data:`_CHUNK_ENTRIES` indices, so the result is
    bit-identical for a given seed regardless of where or how often it is
    computed, and memory stays bounded for large n.

    Preconditions: at least 2 values, at least 100 resamples, alpha in (0, 1).
    """
    arr = np.asarray(list(values), dtype=float)
    if arr.size < 2:
        raise InsufficientDataError(f"need at least 2 values, got {arr.size}")
    if resamples < 100:
        raise ValueError(f"resamples must be >= 100, got {resamples}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")

    est = empirical_estimate(arr)
    rng = stream(seed)
    # Row chunks of the resamples x n index matrix, drawn one after another
    # from the same stream: the same indices as one block, in bounded memory.
    rows = max(1, _CHUNK_ENTRIES // arr.size)
    means = np.concatenate([
        arr[rng.integers(0, arr.size, size=(min(rows, resamples - start), arr.size))].mean(axis=1)
        for start in range(0, resamples, rows)
    ])
    lower, upper = np.percentile(means, [100.0 * alpha / 2.0, 100.0 * (1.0 - alpha / 2.0)], method="linear")
    return CiReport(
        method="bootstrap",
        estimate=est.mean,
        lower=float(lower),
        upper=float(upper),
        alpha=alpha,
        diagnostics={"variance": est.variance, "n": float(est.n), "resamples": float(resamples)},
    )
