"""Percentile-bootstrap confidence intervals over per-query utilities.

This is the labels-only baseline: it sees the true utilities of the labeled
queries and nothing else.  The interval is the (alpha/2, 1 - alpha/2)
percentile pair of resampled means, with linear interpolation between order
statistics, so the bounds always stay inside the observed value range.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .crc import CalibrationBatches
from .errors import InsufficientDataError
from .model import CiReport


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
    arr = np.asarray(values if isinstance(values, np.ndarray) else list(values), dtype=float)
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
    those means.  The resample index is crc's batch index over the same draws,
    ``CalibrationBatches(range(n), seed=seed, shape=(resamples, n))``, read block
    by block (the same indices as one draw), so the result is bit-identical for a
    given seed wherever it is computed, and memory stays bounded for large n.

    Preconditions: at least 2 values, at least 100 resamples, alpha in (0, 1).
    """
    arr = np.asarray(list(values), dtype=float)
    chunks = CalibrationBatches(range(arr.size), seed=seed, shape=(resamples, arr.size)).blocks()  # drawn when read
    est = empirical_estimate(arr)  # at least 2 values
    if resamples < 100:
        raise ValueError(f"resamples must be >= 100, got {resamples}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    lower, upper = _percentile_bounds(_resample_means(arr, chunks), alpha)
    return CiReport(method="bootstrap", estimate=est.mean, lower=lower, upper=upper, alpha=alpha,
                    diagnostics={"variance": est.variance, "n": float(est.n),
                                 "resamples": float(resamples)})


def _resample_means(arr: np.ndarray, blocks: Iterable[np.ndarray]) -> np.ndarray:
    """The mean of ``arr`` over each index row of ``blocks``, positions into ``arr``."""
    return np.concatenate([arr[index].mean(axis=1) for index in blocks])


def _percentile_bounds(means: np.ndarray, alpha: float) -> tuple[float, float]:
    """:func:`bootstrap_ci`'s ``(lower, upper)`` from the resampled ``means``, which it
    reorders in place, with no input checks.

    The bits of ``np.percentile(means, ..., method="linear")`` from one partition: the
    means ``a`` and ``b`` either side of position ``(M - 1) * p / 100`` (both the largest
    at or past the end, where numpy weighs by the position + 1), and numpy's lerp."""
    last = means.size - 1
    pos = [last * (p / 100) for p in (100.0 * alpha / 2.0, 100.0 * (1.0 - alpha / 2.0))]
    prev = [int(x) if x < last else -1 for x in pos]  # floor: positions are >= 0
    means.partition([-1, *prev, *(i + 1 for i in prev if i >= 0)])
    if np.isnan(means[-1]):  # NaN sorts last, and numpy then reports it for both
        return float(means[-1]), float(means[-1])
    bounds = []
    for x, i in zip(pos, prev):
        a, b, t = float(means[i]), float(means[i + 1 if i >= 0 else -1]), x - i
        bounds.append(a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t))
    return bounds[0], bounds[1]
