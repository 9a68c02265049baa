"""Risk-controlled confidence intervals via label-mass perturbation.

The estimator family here turns each document's predicted label distribution
into an optimistic or pessimistic variant controlled by a single strength
parameter lambda in the open interval (-1, 1):

* lambda > 0 removes ``lambda`` of probability mass from the lowest labels
  upward and renormalises, shifting expected gain up (optimistic);
* lambda < 0 mirrors this, removing ``|lambda|`` from the highest labels
  downward (pessimistic);
* lambda = 0 leaves the distribution unchanged.

Removal at strength ``m`` from the bottom is, per label r,

    Q(r) = max(0,  P(r) - max(0,  m - sum of P below r))

followed by renormalisation; the outer clamp keeps entries non-negative once
``m`` exceeds the mass below a label.  Before renormalisation the entries
always sum to 1 - m.  The per-document expected gain under the perturbed
distribution is non-decreasing in lambda, which is what lets calibration use
binary search.

Calibration picks the pair (lambda_low, lambda_high) on batches of labeled
queries so that, on at most a controlled fraction of batches, the perturbed
dataset utility falls on the wrong side of the true batch utility.  The two
one-sided risk budgets are alpha/2 each, tightened by a finite-batch
correction: each achieved loss must come in under (alpha - (1-alpha)/M) / 2
for M batches.  When no strength inside (-1, 1) satisfies a bound the
calibration *fails explicitly* instead of returning an unsound interval.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import (
    CalibrationInfeasibleError,
    CalibrationMismatchError,
    EmptyQuerySetError,
    InsufficientDataError,
    TooFewBatchesError,
    UnlabeledQueryError,
)
from .metrics import MetricSpec, UtilityView, format_metric, gain_vector
# Unused here, but bench/tracing.py patches this name on this module.
from .metrics import query_utility_true
from .model import CiReport, Dataset, LabelScale, RelevanceDistribution
from .seeding import stream

# A calibration batch is a non-empty multiset of labeled query ids.
CalibrationBatch = tuple[str, ...]

# Representable ends of the open strength interval (-1, 1).
_LAM_EDGE = 1.0 - 1e-9


def _check_lambda(lam: float) -> float:
    lam = float(lam)
    if not (-1.0 < lam < 1.0):
        raise ValueError(f"perturbation strength must lie strictly inside (-1, 1), got {lam!r}")
    return lam


def _perturb_rows(probs: np.ndarray, lam: float) -> np.ndarray:
    """Perturb every row of a (rows, labels) matrix at strength ``lam``.

    Rows must be valid probability vectors.  Returns renormalised rows.
    """
    if lam == 0.0:
        return probs.copy()
    if lam < 0.0:
        return _perturb_rows(probs[:, ::-1], -lam)[:, ::-1]
    below = np.cumsum(probs, axis=1) - probs
    q = np.maximum(0.0, probs - np.maximum(0.0, lam - below))
    return q / q.sum(axis=1, keepdims=True)


def perturb_distribution(dist: RelevanceDistribution, lam: float) -> RelevanceDistribution:
    """Optimistically (lam > 0) or pessimistically (lam < 0) perturb one
    distribution.

    Examples: probs (0.2, 0.3, 0.5) at lam = +0.3 become (0, 2/7, 5/7);
    at lam = -0.4 they become (1/3, 1/2, 1/6).  A one-hot distribution is
    unchanged by any strength, since removed mass is restored by
    renormalisation.

    The same arithmetic as :func:`_perturb_rows` on one row, in plain floats:
    a numpy call on a single short row costs more than the formula.
    """
    lam = _check_lambda(lam)
    probs = list(dist.probs)
    if lam == 0.0:
        return RelevanceDistribution(tuple(probs))
    if lam < 0.0:
        probs.reverse()
    strength = abs(lam)
    q, cum, total = [], 0.0, 0.0
    for p in probs:
        cum += p
        x = max(0.0, p - max(0.0, strength - (cum - p)))
        q.append(x)
        total += x
    if lam < 0.0:
        q.reverse()
    return RelevanceDistribution(tuple(x / total for x in q))


def mu_crc(spec: MetricSpec, dist: RelevanceDistribution, lam: float) -> float:
    """Expected gain of the perturbed distribution.

    Equals ``expected_gain(spec, dist)`` at lam = 0, tends to the gain of the
    top label as lam -> 1 and of label 0 as lam -> -1 (for distributions with
    mass at the extremes), and is non-decreasing in lam throughout.
    """
    row = np.asarray(dist.probs, dtype=float)[None, :]
    gains = gain_vector(spec, LabelScale(dist.max_label))
    return float(_perturb_rows(row, _check_lambda(lam))[0] @ gains)


class _UtilityEngine(UtilityView):
    """A :class:`~rankci.metrics.UtilityView` that also evaluates perturbed
    utilities: ``per_query_utility(lam)`` perturbs every row at once and sums
    weight * expected gain per query."""

    def per_query_utility(self, lam: float) -> np.ndarray:
        """Perturbed utility of every query, in query_ids order."""
        return self._per_query(_perturb_rows(self.probs, lam) @ self.gains)


def utility_crc(spec: MetricSpec, queries: Iterable[str], dataset: Dataset, lam: float) -> float:
    """Mean perturbed utility over a query set at strength ``lam``."""
    lam = _check_lambda(lam)
    qs = list(queries)
    if not qs:
        raise EmptyQuerySetError("perturbed utility over an empty query set")
    return float(_UtilityEngine(spec, dataset, qs).per_query_utility(lam).mean())


def interval(
    spec: MetricSpec,
    queries: Iterable[str],
    dataset: Dataset,
    lam_low: float,
    lam_high: float,
) -> tuple[float, float]:
    """The pair (utility at lam_low, utility at lam_high).

    Requires lam_low < lam_high; monotonicity of the perturbed utility then
    makes this an ordered interval.
    """
    lam_low = _check_lambda(lam_low)
    lam_high = _check_lambda(lam_high)
    if not lam_low < lam_high:
        raise ValueError(f"lam_low must be < lam_high, got {lam_low} >= {lam_high}")
    qs = list(queries)
    if not qs:
        raise EmptyQuerySetError("interval over an empty query set")
    engine = _UtilityEngine(spec, dataset, qs)
    return (
        float(engine.per_query_utility(lam_low).mean()),
        float(engine.per_query_utility(lam_high).mean()),
    )


class CalibrationBatches(Sequence[CalibrationBatch]):
    """Calibration batches stored as a sorted query pool and an index matrix.

    Row i of ``index`` holds the pool positions of batch i's ids in draw
    order and ``sizes[i]`` is its length; the shorter rows of a ragged set
    are padded with ``len(pool)``.  Reads as the list of query-id tuples it
    stands for: ``len``, indexing, iteration, ``reversed`` and ``==`` against
    a list of tuples all work.
    """

    def __init__(self, pool: Sequence[str], index: np.ndarray, sizes: np.ndarray | None = None):
        self.pool = tuple(pool)
        self.index = np.asarray(index, dtype=np.intp)
        if sizes is None:
            sizes = np.full(len(self.index), self.index.shape[1], dtype=np.intp)
        self.sizes = sizes
        self.index.setflags(write=False)
        self.sizes.setflags(write=False)

    @classmethod
    def of(cls, batches: Iterable[Iterable[str]]) -> "CalibrationBatches":
        """The index form of any iterable of query-id batches, ragged or not."""
        if isinstance(batches, cls):
            return batches
        rows = [tuple(b) for b in batches]
        pool = sorted({q for b in rows for q in b})
        pos = {q: i for i, q in enumerate(pool)}
        sizes = np.array([len(b) for b in rows], dtype=np.intp)
        index = np.full((len(rows), int(sizes.max(initial=0))), len(pool), dtype=np.intp)
        for i, b in enumerate(rows):
            index[i, : len(b)] = [pos[q] for q in b]
        return cls(pool, index, sizes)

    def __len__(self) -> int:
        return len(self.index)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return CalibrationBatches(self.pool, self.index[i], self.sizes[i])
        return tuple(self.pool[j] for j in self.index[i, : self.sizes[i]].tolist())

    def __iter__(self):
        ids = np.array(self.pool + ("",), dtype=object)[self.index]  # padding reads ""
        for row, size in zip(ids.tolist(), self.sizes.tolist()):
            yield tuple(row[:size])

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)

    def __repr__(self) -> str:
        return f"CalibrationBatches({len(self)} batches over {len(self.pool)} queries)"


def build_batches(
    labeled_queries: Iterable[str],
    *,
    mode: str = "bootstrap",
    num_batches: int | None = None,
    batch_size: int | None = None,
    seed: int = 0,
) -> CalibrationBatches:
    """Assemble calibration batches from labeled query ids.

    mode="bootstrap": ``num_batches`` batches of ``batch_size`` ids drawn
    with replacement (batch_size defaults to the number of labeled queries).
    mode="per_query": one singleton batch per labeled query, sorted.
    Deterministic for a given seed.
    """
    pool = sorted(set(labeled_queries))
    if not pool:
        raise InsufficientDataError("no labeled queries to build calibration batches from")
    if mode == "per_query":
        return CalibrationBatches(pool, np.arange(len(pool))[:, None])
    if mode != "bootstrap":
        raise ValueError(f"mode must be 'bootstrap' or 'per_query', got {mode!r}")
    if num_batches is None or num_batches < 1:
        raise ValueError(f"num_batches must be a positive integer, got {num_batches!r}")
    if batch_size is None:
        batch_size = len(pool)
    if batch_size < 1:
        raise ValueError(f"batch_size must be a positive integer, got {batch_size!r}")
    rng = stream(seed)
    return CalibrationBatches(pool, rng.integers(0, len(pool), size=(num_batches, batch_size)))


def calibration_threshold(alpha: float, num_batches: int) -> float:
    """Per-side risk threshold (alpha - (1 - alpha) / M) / 2 for M batches."""
    return 0.5 * (alpha - (1.0 - alpha) / num_batches)


def required_batches(alpha: float) -> int:
    """Smallest batch count this module accepts: ceil((1 - alpha)/alpha) + 1.

    At alpha = 0.05 this is 20; below it the risk threshold is non-positive
    and calibration cannot succeed.
    """
    return math.ceil((1.0 - alpha) / alpha - 1e-9) + 1


@dataclass(frozen=True)
class CrcCalibration:
    """A calibrated perturbation-strength pair plus its audit trail.

    Serialisable with :meth:`to_text` / :meth:`from_text` so calibration and
    interval construction can run as separate invocations.  ``metric`` and
    ``max_label`` stamp the metric name and label scale the pair was
    calibrated for; :meth:`check_applies` refuses any other.
    """

    lambda_low: float
    lambda_high: float
    alpha: float
    num_batches: int
    achieved_loss_low: float
    achieved_loss_high: float
    metric: str | None = None
    max_label: int | None = None

    def __post_init__(self):
        if not (-1.0 < self.lambda_low < 1.0) or not (-1.0 < self.lambda_high < 1.0):
            raise ValueError("perturbation strengths must lie strictly inside (-1, 1)")
        if not self.lambda_low < self.lambda_high:
            raise ValueError(
                f"lambda_low must be < lambda_high, got {self.lambda_low} >= {self.lambda_high}"
            )
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha!r}")
        if self.num_batches < 1:
            raise ValueError("num_batches must be positive")
        thr = calibration_threshold(self.alpha, self.num_batches)
        for name, loss in (("low", self.achieved_loss_low), ("high", self.achieved_loss_high)):
            if not 0.0 <= loss < thr:
                raise ValueError(
                    f"achieved {name}-side loss {loss} is not below the risk threshold {thr}"
                )

    def to_text(self) -> str:
        return json.dumps(
            {
                "lambda_low": self.lambda_low,
                "lambda_high": self.lambda_high,
                "alpha": self.alpha,
                "num_batches": self.num_batches,
                "achieved_loss_low": self.achieved_loss_low,
                "achieved_loss_high": self.achieved_loss_high,
                "metric": self.metric,
                "max_label": self.max_label,
            },
            sort_keys=True,
        )

    @classmethod
    def from_text(cls, text: str) -> "CrcCalibration":
        try:
            raw = json.loads(text)
            return cls(
                lambda_low=float(raw["lambda_low"]),
                lambda_high=float(raw["lambda_high"]),
                alpha=float(raw["alpha"]),
                num_batches=int(raw["num_batches"]),
                achieved_loss_low=float(raw["achieved_loss_low"]),
                achieved_loss_high=float(raw["achieved_loss_high"]),
                metric=None if raw.get("metric") is None else str(raw["metric"]),
                max_label=None if raw.get("max_label") is None else int(raw["max_label"]),
            )
        except (KeyError, TypeError) as e:
            raise ValueError(f"malformed calibration record: {e}") from None

    def check_applies(self, spec: MetricSpec, scale: LabelScale) -> None:
        """Raise :class:`CalibrationMismatchError` unless this record is
        stamped with ``spec``'s name and ``scale``'s top label."""
        wanted = (format_metric(spec), scale.max_label)
        if (self.metric, self.max_label) != wanted:
            raise CalibrationMismatchError(
                f"calibration record is for metric={self.metric}, max_label={self.max_label}; "
                f"this data needs metric={wanted[0]}, max_label={wanted[1]}"
            )


def _search_smallest(pred, tol: float) -> float:
    """Smallest strength in (-1, 1) satisfying a monotone predicate.

    ``pred(lam)`` must be False-then-True as lam increases.  Returns a probed
    satisfying value at most ``tol`` above the boundary (conservative: never
    below it).  Raises if even the top of the interval fails.
    """
    hi = _LAM_EDGE
    if not pred(hi):
        raise CalibrationInfeasibleError(
            "no perturbation strength below 1 satisfies the risk bound"
        )
    lo = -_LAM_EDGE
    if pred(lo):
        return lo  # the whole interval satisfies the bound
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _search_largest(pred, tol: float) -> float:
    """Mirror of :func:`_search_smallest`: True-then-False as lam increases."""
    lo = -_LAM_EDGE
    if not pred(lo):
        raise CalibrationInfeasibleError(
            "no perturbation strength above -1 satisfies the risk bound"
        )
    hi = _LAM_EDGE
    if pred(hi):
        return hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _batch_means(index: np.ndarray, sizes: np.ndarray, n_queries: int):
    """The map from per-query values to per-batch means, for batches given as
    rows of query positions (rows padded with ``n_queries``).

    When the batches are at least as long as the query list, an M x n_q
    matrix of per-batch query weights (count / batch size) makes each call
    one matrix-vector product.  Shorter batches, such as singletons, are
    summed column by column in draw order instead, so memory stays
    O(M * min(batch size, n_q)).
    """
    m, b = index.shape
    if n_queries <= b:
        cells = np.arange(m)[:, None] * (n_queries + 1) + index
        counts = np.bincount(cells.ravel(), minlength=m * (n_queries + 1))
        weights = counts.reshape(m, n_queries + 1)[:, :n_queries] / sizes[:, None]
        return lambda values: weights @ values

    def means(values: np.ndarray) -> np.ndarray:
        values = np.append(values, 0.0)  # padding reads 0
        total = values[index[:, 0]]
        for j in range(1, b):
            total += values[index[:, j]]
        return total / sizes

    return means


def _checked_batches(batches: Iterable[Iterable[str]], alpha: float) -> tuple[CalibrationBatches, float]:
    """The batches in index form and their per-side risk threshold, after
    refusing an alpha, batch set or batch count that cannot calibrate."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    batches = CalibrationBatches.of(batches)
    num_batches = len(batches)
    if num_batches == 0:
        raise InsufficientDataError("no calibration batches given")
    if (batches.sizes == 0).any():
        raise ValueError("calibration batches must be non-empty")
    needed = required_batches(alpha)
    if num_batches < needed:
        raise TooFewBatchesError(
            f"{num_batches} calibration batches, but alpha={alpha} needs at least {needed} "
            "for a positive risk threshold"
        )
    thr = calibration_threshold(alpha, num_batches)
    if thr <= 0.0:
        raise TooFewBatchesError(
            f"risk threshold {thr} is non-positive for {num_batches} batches at alpha={alpha}"
        )
    return batches, thr


def calibrate(
    spec: MetricSpec,
    batches: Iterable[Iterable[str]],
    dataset: Dataset,
    alpha: float,
    *,
    tol: float = 1e-6,
) -> CrcCalibration:
    """Calibrate the perturbation-strength pair on labeled batches.

    lambda_high is the smallest strength whose fraction of batches with
    perturbed utility *below* the true batch utility stays under the risk
    threshold; lambda_low mirrors it on the other side.  Both are found by
    binary search to ``tol`` and rounded conservatively (lambda_high up,
    lambda_low down).  If the searches cross, lambda_low is nudged just under
    lambda_high.

    ``batches`` is the output of :func:`build_batches` or any sequence of
    query-id batches (which may differ in length).  The result is stamped
    with the metric and label scale.

    Raises :class:`TooFewBatchesError` when the batch count makes the
    threshold non-positive, and :class:`CalibrationInfeasibleError` when no
    strength inside (-1, 1) satisfies a bound.
    """
    batches, _ = _checked_batches(batches, alpha)  # before any work on the dataset
    for q in batches.pool:
        if q not in dataset.rankings:
            raise UnlabeledQueryError(f"calibration batch names unknown query {q!r}")
    return _calibrate(batches, _UtilityEngine(spec, dataset, batches.pool), alpha, tol=tol)


def _calibrate(
    batches: Iterable[Iterable[str]],
    view: _UtilityEngine,
    alpha: float,
    *,
    tol: float = 1e-6,
) -> CrcCalibration:
    """:func:`calibrate` on a view that holds at least every query the
    batches draw, stamped with the view's metric and label scale."""
    batches, thr = _checked_batches(batches, alpha)
    # Only the pool queries some batch draws take part, renumbered in order.
    n_pool = len(batches.pool)
    drawn = np.bincount(batches.index.ravel(), minlength=n_pool + 1)[:n_pool] > 0
    qids = [q for q, d in zip(batches.pool, drawn.tolist()) if d]
    index = batches.index
    if len(qids) < n_pool:
        index = np.append(np.cumsum(drawn) - 1, len(qids))[index]
    engine = view if view.query_ids == qids else view.subset(qids)
    batch_mean = _batch_means(index, batches.sizes, len(qids))
    batch_true = batch_mean(engine.true_utilities())

    def loss_high(lam: float) -> float:
        return float(np.mean(batch_mean(engine.per_query_utility(lam)) < batch_true))

    def loss_low(lam: float) -> float:
        return float(np.mean(batch_mean(engine.per_query_utility(lam)) > batch_true))

    lam_high = _search_smallest(lambda l: loss_high(l) < thr, tol)
    lam_low = _search_largest(lambda l: loss_low(l) < thr, tol)
    if lam_low >= lam_high:
        # Degenerate data (e.g. predictions exactly matching truth) can leave
        # both searches unconstrained; keep an ordered pair just under the
        # upper strength.  Widening the low side can only reduce its loss.
        nudged = lam_high - 1e-9
        lam_low = nudged if nudged > -1.0 else 0.5 * (lam_high + -1.0)

    return CrcCalibration(
        lambda_low=lam_low,
        lambda_high=lam_high,
        alpha=alpha,
        num_batches=len(batches),
        achieved_loss_low=loss_low(lam_low),
        achieved_loss_high=loss_high(lam_high),
        metric=format_metric(view.spec),
        max_label=view.scale.max_label,
    )


def crc_ci(
    spec: MetricSpec,
    target_queries: Iterable[str],
    dataset: Dataset,
    calibration: CrcCalibration,
) -> CiReport:
    """Interval for the target queries from a calibrated strength pair.

    The point estimate is the unperturbed predicted utility of the targets;
    the bounds are the perturbed utilities at lambda_low and lambda_high.  A
    stamped calibration is refused for another metric or label scale.
    """
    qs = list(target_queries)
    if not qs:
        raise EmptyQuerySetError("interval over an empty query set")
    if calibration.metric is not None or calibration.max_label is not None:
        calibration.check_applies(spec, dataset.scale)
    return _crc_ci(_UtilityEngine(spec, dataset, qs), calibration)


def _crc_ci(view: _UtilityEngine, calibration: CrcCalibration) -> CiReport:
    """:func:`crc_ci` over every query of a view, without the stamp check."""
    lo = float(view.per_query_utility(calibration.lambda_low).mean())
    hi = float(view.per_query_utility(calibration.lambda_high).mean())
    est = float(view.per_query_utility(0.0).mean())
    return CiReport(
        method="crc",
        estimate=est,
        lower=min(lo, hi),
        upper=max(lo, hi),
        alpha=calibration.alpha,
        diagnostics={
            "lambda_low": calibration.lambda_low,
            "lambda_high": calibration.lambda_high,
            "achieved_loss_low": calibration.achieved_loss_low,
            "achieved_loss_high": calibration.achieved_loss_high,
            "num_batches": float(calibration.num_batches),
            "threshold": calibration_threshold(calibration.alpha, calibration.num_batches),
        },
    )
