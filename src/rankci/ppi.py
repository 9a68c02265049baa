"""Prediction-powered confidence intervals.

Combines the predicted utility of *all* queries with a correction estimated
from the labeled subset:

    estimate = mean(predicted over all N queries)
             + mean(true - predicted over the n labeled queries)

Since predictions cost nothing, the first term has small variance for large
N; the correction term removes the prediction bias and only its (often much
smaller) error variance is paid at rate 1/n.  The interval is the usual
normal one,

    estimate +/- z(1 - alpha/2) * sqrt(var_error / n + var_pred / N),

with both variances taken as unbiased sample variances.  With constant
predictions the whole thing collapses to the classical normal interval for
the labeled mean.

A sweep computes each (beta, tau) pool's mean and variance once and gathers a budget's
labeled errors at once.  Each stack is reduced C-contiguous over its last axis, all rows
in one call; numpy then sums each row pairwise as it sums it alone, with ``ppi_ci``'s bits.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError
from .model import CiReport


@dataclass(frozen=True, slots=True)
class PpiEstimate:
    """Point estimate plus the two variance components.

    ``n`` is the labeled-query count, ``n_total`` the count of all queries
    with predictions.
    """

    estimate: float
    var_pred: float
    var_error: float
    n: int
    n_total: int


def ppi_estimate(
    true_u: Sequence[float],
    pred_u_labeled: Sequence[float],
    pred_u_all: Sequence[float],
) -> PpiEstimate:
    """Debiased estimate of the mean utility from predictions plus labels.

    ``true_u[i]`` and ``pred_u_labeled[i]`` must describe the same query
    (same order); ``pred_u_all`` covers every query in the collection.

    Example: true [3, 5], predicted-on-labeled [2, 4], predicted-on-all
    [2, 4, 6, 8] give estimate 6.0, var_pred 20/3, var_error 0.
    """
    t = np.asarray(list(true_u), dtype=float)
    pl = np.asarray(list(pred_u_labeled), dtype=float)
    pa = np.asarray(list(pred_u_all), dtype=float)
    if t.shape != pl.shape:
        raise ValueError(
            f"true and predicted labeled utilities are misaligned: {t.size} vs {pl.size} values"
        )
    if t.size < 2:
        raise InsufficientDataError(f"need at least 2 labeled queries, got {t.size}")
    if pa.size < 2:
        raise InsufficientDataError(f"need at least 2 queries with predictions, got {pa.size}")
    errors = t - pl
    return PpiEstimate(
        estimate=float(pa.mean() + errors.mean()),
        var_pred=float(pa.var(ddof=1)),
        var_error=float(errors.var(ddof=1)),
        n=int(t.size),
        n_total=int(pa.size),
    )


def _z(alpha: float) -> float:
    """The normal quantile at ``1 - alpha / 2``, importing ``statistics`` only when asked."""
    from statistics import NormalDist
    return NormalDist().inv_cdf(1.0 - alpha / 2.0)


def ppi_ci(est: PpiEstimate, alpha: float = 0.05) -> CiReport:
    """Normal interval around a prediction-powered estimate, symmetric by
    construction."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    z = _z(alpha)
    half = z * float(np.sqrt(est.var_error / est.n + est.var_pred / est.n_total))
    return CiReport(
        method="ppi",
        estimate=est.estimate,
        lower=est.estimate - half,
        upper=est.estimate + half,
        alpha=alpha,
        diagnostics={
            "var_pred": est.var_pred,
            "var_error": est.var_error,
            "n": float(est.n),
            "n_total": float(est.n_total),
            "z": z,
        },
    )


def _ppi_pool(preds: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Each row's mean and ``var_pred / N`` for a ``G x N`` stack of pool predictions, and z."""
    preds = np.ascontiguousarray(preds)  # see _ppi_bounds
    return preds.mean(axis=1), preds.var(axis=1, ddof=1) / preds.shape[1], _z(alpha)


def _ppi_bounds(errors: np.ndarray, pool: tuple) -> tuple[np.ndarray, np.ndarray]:
    """``(lower, upper)`` of :func:`ppi_ci` per row of ``[R x] G x n`` errors (true - predicted)."""
    pool_mean, pool_term, z = pool
    # The sweep's gather is not C-contiguous; only C-contiguous rows sum as ppi_estimate's do.
    errors = np.ascontiguousarray(errors)
    # ndarray.mean and var(ddof=1) in their own operation order, with one shared row sum.
    n = errors.shape[-1]
    mean = np.add.reduce(errors, axis=-1) / n
    dev = errors - mean[..., None]
    estimate = pool_mean + mean
    half = z * np.sqrt(np.add.reduce(np.square(dev, out=dev), axis=-1) / (n - 1) / n + pool_term)
    return estimate - half, estimate + half
