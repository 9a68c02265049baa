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
distribution is non-decreasing in lambda, and its numerator is piecewise
linear in m with knots at the row's cumulative label masses.

Calibration picks the pair (lambda_low, lambda_high) on batches of labeled
queries so that, on at most a controlled fraction of batches, the perturbed
dataset utility falls on the wrong side of the true batch utility.  The two
one-sided risk budgets are alpha/2 each, tightened by a finite-batch
correction: each achieved loss must come in under (alpha - (1-alpha)/M) / 2
for M batches.  When no strength inside (-1, 1) satisfies a bound the
calibration *fails explicitly* instead of returning an unsound interval.

Every sum over a row's labels is :func:`rankci.model.left_sum`, so a query's
perturbed utility depends only on its own rows.  Calibrations on one view
search its knots (a superset of their batches') and share its caches.
"""

from __future__ import annotations

import functools
import json
import math
from collections.abc import Iterable, Sequence
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    CalibrationInfeasibleError,
    CalibrationMismatchError,
    EmptyQuerySetError,
    InsufficientDataError,
    TooFewBatchesError,
    UnlabeledQueryError,
)
from .metrics import MetricSpec, UtilityView, expected_gain, format_metric
# Unused here, but bench/tracing.py patches this name on this module.
from .metrics import query_utility_true
from .model import CiReport, Dataset, LabelScale, RelevanceDistribution, left_sum
from .seeding import stream

# Representable ends of the open strength interval (-1, 1).
_LAM_EDGE = 1.0 - 1e-9
# How far past the exact crossing a calibrated strength goes, against rounding.
_MARGIN = 1e-10
# Most index entries (or one batch) per block of CalibrationBatches.blocks, so per
# bincount when filling draw counts.
_COUNT_BLOCK = 1 << 13
# Most draw counts turned to float64 at once for a product (64 rows at least).
_PRODUCT_ENTRIES = 1 << 16
# Most draw counts held as one float64 matrix (2 MB); more are held compactly.
_DENSE_COUNTS = 1 << 18


def _check_lambda(lam: float) -> float:
    lam = float(lam)
    if not (-1.0 < lam < 1.0):
        raise ValueError(f"perturbation strength must lie strictly inside (-1, 1), got {lam!r}")
    return lam


def _masses(probs: np.ndarray, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """The rows that strength ``lam``'s sign perturbs (``probs`` for lam > 0,
    else its mirror ``probs[:, ::-1]``) and the mass below each of their
    labels, ``np.cumsum(rows, axis=1) - rows``: both read-only, copied
    label-major (``L x R``, C-contiguous), so that every step of a
    perturbation runs along whole rows of R values."""
    rows = np.ascontiguousarray(probs.T if lam > 0.0 else probs.T[::-1])
    below = np.cumsum(rows, axis=0)
    below -= rows
    for a in (rows, below):
        a.setflags(write=False)
    return rows, below


def _perturb_rows(probs: np.ndarray, lam: float, masses=None) -> np.ndarray:
    """Perturb every row of a (rows, labels) matrix at strength ``lam``.

    Rows must be valid probability vectors.  Returns each row renormalised by
    its own ``left_sum``, as a new array (the transpose of a label-major
    one); at lam = 0, ``probs`` itself.  A negative strength perturbs the
    mirrored rows and mirrors the result back.  ``masses`` may give
    ``_masses(probs, lam)``; one temporary holds every step.
    """
    if lam == 0.0:
        return probs
    rows, below = _masses(probs, lam) if masses is None else masses
    q = np.subtract(abs(lam), below)
    np.maximum(0.0, q, out=q)
    np.subtract(rows, q, out=q)
    np.maximum(0.0, q, out=q)
    q /= left_sum(q.T)
    return (q if lam > 0.0 else q[::-1]).T


def perturb_distribution(dist: RelevanceDistribution, lam: float) -> RelevanceDistribution:
    """Optimistically (lam > 0) or pessimistically (lam < 0) perturb one
    distribution.

    Examples: probs (0.2, 0.3, 0.5) at lam = +0.3 become (0, 2/7, 5/7);
    at lam = -0.4 they become (1/3, 1/2, 1/6).  A one-hot distribution is
    unchanged by any strength, since removed mass is restored by
    renormalisation.

    The same arithmetic as :func:`_perturb_rows` on one row, in plain floats
    and bit for bit at every label count: a numpy call on a single short row
    costs more than the formula.
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
    """Expected gain of the perturbed distribution: ``expected_gain`` exactly
    at lam = 0 and, at every lam, the same row's gain in any view, bit for bit.
    Tends to the gain of the top label as lam -> 1 and of label 0 as lam -> -1
    (for distributions with mass at the extremes); non-decreasing in lam.
    """
    return expected_gain(spec, perturb_distribution(dist, lam))


class _UtilityEngine(UtilityView):
    """A :class:`~rankci.metrics.UtilityView` that also evaluates perturbed
    utilities: ``per_query_utility(lam)`` perturbs every row at once and sums
    weight * expected gain per query.

    Three caches, filled on first use and never copied by ``subset`` or
    ``with_probs``: the label ``masses`` of each sign's rows (built when a
    strength of that sign is first evaluated), the knots and a memo of
    perturbed utilities at knot strengths only.  Only calibration reads the
    last two."""

    _CACHES = ("masses", "knots", "memo")
    masses = functools.cached_property(lambda self: {})
    knots = functools.cached_property(lambda self: _knots(self.probs))
    memo = functools.cached_property(lambda self: {})

    def __copy__(self):
        out = object.__new__(type(self))
        out.__dict__.update((k, v) for k, v in self.__dict__.items() if k not in self._CACHES)
        return out

    def per_query_utility(self, lam: float) -> np.ndarray:
        """Perturbed utility of every query, in query_ids order."""
        if lam == 0.0:
            return self.predicted_utilities()
        if (masses := self.masses.get(lam > 0.0)) is None:
            masses = self.masses.setdefault(lam > 0.0, _masses(self.probs, lam))
        q = _perturb_rows(self.probs, lam, masses).T
        return self._per_query(left_sum(np.multiply(q, self.gains[:, None], out=q).T))

    def knot_utility(self, lam: float) -> np.ndarray:
        """``per_query_utility(lam)``, memoised read-only at a knot.  Calibration
        reads it; a view that only gives intervals never builds knots or memo."""
        if (u := self.memo.get(lam)) is None:
            u = self.per_query_utility(lam)
            if (k := self.knots)[min(np.searchsorted(k, lam), len(k) - 1)] == lam:
                u.setflags(write=False)
                self.memo[lam] = u
        return u


def utility_crc(spec: MetricSpec, queries: Iterable[str], dataset: Dataset, lam: float) -> float:
    """Mean perturbed utility over a query set at strength ``lam``."""
    lam = _check_lambda(lam)
    qs = list(queries)
    if not qs:
        raise EmptyQuerySetError("perturbed utility over an empty query set")
    return float(_UtilityEngine(spec, dataset, qs).per_query_utility(lam).mean())


class CalibrationBatches:
    """Calibration batches of equal length, stored as a sorted query pool and
    a read-only M x b index matrix: row i holds the pool positions of batch
    i's ids in draw order.  Iterates as query-id tuples.  Without an explicit
    index, it is the rows of ``stream(seed).integers(0, len(pool), size=shape)``;
    an explicit one must be 2-D with integer entries in ``range(len(pool))``."""

    def __init__(self, pool: Sequence[str], index: np.ndarray | None = None, *,
                 seed: int = 0, shape: tuple[int, int] = (0, 0)):
        self.pool, self.seed, self.shape, self._index, self._means = tuple(pool), seed, shape, None, None
        if index is not None:
            if (index := np.asarray(index)).size and index.dtype.kind not in "iu":
                raise ValueError(f"a batch index must hold integers, got dtype {index.dtype}")
            self._index = index.astype(np.intp, copy=False).view()  # the caller's array stays writeable
            bad = np.argwhere((self._index < 0) | (self._index >= len(self.pool)))[:1]
            if self._index.ndim != 2 or bad.size:
                at = f", entry {tuple(bad[0].tolist())} is {self._index[tuple(bad[0])]}" if bad.size else ""
                raise ValueError(f"a batch index must be 2-D with entries in range({len(self.pool)}); "
                                 f"got a {self._index.ndim}-D one{at}")
            self._index.setflags(write=False)
            self.shape = self._index.shape

    @property
    def index(self) -> np.ndarray:
        """The read-only M x b index, drawn whole on first read and then held."""
        if self._index is None:
            self._index = stream(self.seed).integers(0, len(self.pool), size=self.shape)
            self._index.setflags(write=False)
        return self._index

    def blocks(self):
        """The index rows in blocks of at most :data:`_COUNT_BLOCK` entries (one
        row at least): slices of ``index`` once it is held, else drawn in turn from ``stream(seed)``."""
        (m, b), step = self.shape, max(1, _COUNT_BLOCK // max(self.shape[1], 1))
        if self._index is not None:
            return (self._index[start:start + step] for start in range(0, m, step))
        rng = stream(self.seed)
        return (rng.integers(0, len(self.pool), size=(min(step, m - start), b)) for start in range(0, m, step))

    @property
    def means(self):
        """The map from values of the pool, in pool order, to each batch's mean, built
        on first read and held: every calibration on this batch set shares it.  Batches
        at least as long as the pool make each call one product with an M x n_q matrix
        of draw counts (one ``bincount`` per block); above :data:`_DENSE_COUNTS` entries
        the counts take the smallest type that holds b and are turned to float64 in
        blocks of a multiple of 64 rows, which BLAS sums as one product does (a one-row
        tail, which numpy sums otherwise, joins the block before).  Shorter batches,
        such as singletons, are summed column by column, in O(M * b) memory."""
        if self._means is None:
            self._means = self._count_means() if len(self.pool) <= self.shape[1] else self._column_means()
        return self._means

    def _count_means(self):
        (m, b), n_queries = self.shape, len(self.pool)
        compact, start = m * n_queries > _DENSE_COUNTS, 0
        counts = np.empty((m, n_queries), np.min_scalar_type(b) if compact else float)
        for block in self.blocks():
            k = len(block)
            cells = block + np.arange(0, k * n_queries, n_queries)[:, None]
            counts[start:start + k] = np.bincount(cells.ravel(), minlength=k * n_queries).reshape(k, -1)
            start += k
        rows = 64 * max(1, _PRODUCT_ENTRIES // (64 * n_queries)) if compact else max(m, 1)
        blocks = np.split(counts, range(rows, m - 1, rows))  # one dense block; no one-row tail
        return lambda values: np.concatenate([block.astype(float, copy=False) @ values for block in blocks]) / b

    def _column_means(self):
        index, b = self.index, self.shape[1]

        def means(values: np.ndarray) -> np.ndarray:
            total = values[index[:, 0]]
            for j in range(1, b):
                total += values[index[:, j]]
            return total / b

        return means

    @classmethod
    def of(cls, batches: Iterable[Iterable[str]]) -> "CalibrationBatches":
        """The index form of an iterable of equally long query-id batches;
        raises ``ValueError`` for batches of different lengths."""
        if isinstance(batches, cls):
            return batches
        rows = [tuple(b) for b in batches]
        if len({len(b) for b in rows}) > 1:
            raise ValueError("calibration batches must all have the same length")
        pool = sorted({q for b in rows for q in b})
        pos = {q: i for i, q in enumerate(pool)}
        index = np.array([[pos[q] for q in b] for b in rows], dtype=np.intp)
        return cls(pool, index.reshape(len(rows), len(rows[0]) if rows else 0))

    def __len__(self) -> int:
        return self.shape[0]

    def __iter__(self):
        pool = np.array(self.pool, dtype=object)
        for block in self.blocks():
            yield from map(tuple, pool[block].tolist())


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
    return CalibrationBatches(pool, seed=seed, shape=(num_batches, batch_size))


def calibration_threshold(alpha: float, num_batches: int) -> float:
    """Per-side risk threshold (alpha - (1 - alpha) / M) / 2 for M batches."""
    return 0.5 * (alpha - (1.0 - alpha) / num_batches)


def required_batches(alpha: float) -> int:
    """Smallest batch count M > (1 - alpha)/alpha, the first whose risk threshold
    is positive (20 at alpha = 0.05, 14 at alpha = 0.07); calibration on fewer fails."""
    return math.floor((1.0 - alpha) / alpha + 1e-9) + 1


@dataclass(frozen=True)
class CrcCalibration:
    """A calibrated perturbation-strength pair plus its audit trail.

    Serialisable with :meth:`to_text` / :meth:`from_text` so calibration and
    interval construction can run as separate invocations.  Every record is
    stamped with the metric name and label scale (``metric``, ``max_label``)
    it was calibrated for; :meth:`check_applies` refuses any other.
    """

    lambda_low: float
    lambda_high: float
    alpha: float
    num_batches: int
    achieved_loss_low: float
    achieved_loss_high: float
    metric: str
    max_label: int

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
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_text(cls, text: str) -> "CrcCalibration":
        try:
            raw = {k: v for k, v in json.loads(text).items() if v is not None}
            floats = ("lambda_low", "lambda_high", "alpha", "achieved_loss_low", "achieved_loss_high")
            kinds = dict.fromkeys(floats, ("a number", int, float)) | {
                "num_batches": ("an integer", int), "metric": ("a string", str), "max_label": ("an integer", int)}
            fields = {k: raw[k] for k in kinds}
            if bad := [k for k, (_, *types) in kinds.items() if type(fields[k]) not in types]:
                raise TypeError(f"{bad[0]} must be {kinds[bad[0]][0]}, got {json.dumps(fields[bad[0]])}")
            return cls(**fields | {k: float(fields[k]) for k in floats})
        except KeyError as e:
            raise ValueError(f"malformed calibration record: {e} is missing or null") from None
        except (AttributeError, TypeError, OverflowError) as e:
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


def _knots(probs: np.ndarray) -> np.ndarray:
    """Sorted strengths in [-_LAM_EDGE, _LAM_EDGE] between which every row's
    perturbed numerator is linear: 0, both ends, and each row's cumulative
    label masses from the bottom (lambda > 0) and, negated, from the top,
    each 1e-12 further out, past where rounding may leave a label 1e-17."""
    up, down = (np.cumsum(p, axis=1)[:, :-1].ravel() + 1e-12 for p in (probs, probs[:, ::-1]))
    inner = np.concatenate((up, -down))
    return np.unique(np.concatenate((inner[np.abs(inner) < _LAM_EDGE], [-_LAM_EDGE, 0.0, _LAM_EDGE])))


def _smallest_strength(gap, knots: np.ndarray, allowed: int, bound: str) -> tuple[float, int]:
    """Smallest strength at which at most ``allowed`` batches miss, and how
    many miss there.  ``gap(x)`` is negative where a batch misses, changes
    sign at most once, upward, and times 1 - |x| is linear between ``knots``.
    Bisection over the knots, from 0, finds the segment where the misses fall
    to ``allowed``; the order statistic of the batches' exact crossings
    there, plus ``_MARGIN``, is confirmed by one more evaluation (else the
    segment's end is taken).  Raises, naming ``bound``, if no knot holds."""
    lo, hi, mid = -1, len(knots), int(np.searchsorted(knots, 0.0))
    while hi - lo > 1:
        g = gap(knots[mid])
        if np.count_nonzero(g < 0) <= allowed:
            hi, g_hi = mid, g
        else:
            lo, g_lo = mid, g
        mid = (lo + hi) // 2
    if hi == len(knots):
        raise CalibrationInfeasibleError(f"no perturbation strength {bound} satisfies the risk bound")
    if lo < 0:  # the whole interval satisfies the bound
        return float(knots[0]), int(np.count_nonzero(g_hi < 0))
    a, b = float(knots[lo]), float(knots[hi])
    live = (g_lo < 0) & (g_hi >= 0)
    h_a, h_b = g_lo[live] * (1.0 - abs(a)), g_hi[live] * (1.0 - abs(b))
    cross = np.where(g_lo < 0, np.inf, -np.inf)
    cross[live] = a + (b - a) * h_a / (h_a - h_b)
    x = float(np.partition(cross, -allowed - 1)[-allowed - 1]) + _MARGIN
    if x <= knots[-1] and (at_x := int(np.count_nonzero(gap(x) < 0))) <= allowed:
        return x, at_x
    return b, int(np.count_nonzero(g_hi < 0))


def _checked_batches(batches: Iterable[Iterable[str]], alpha: float) -> tuple[CalibrationBatches, int]:
    """The batches in index form and the most of them that may miss on each
    side (the largest count c with c / M under the per-side risk threshold),
    after refusing an alpha, batch set or batch count that cannot calibrate."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    batches = CalibrationBatches.of(batches)
    num_batches = len(batches)
    if num_batches == 0:
        raise InsufficientDataError("no calibration batches given")
    if batches.shape[1] == 0:
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
    return batches, int(np.searchsorted(np.arange(num_batches + 1) / num_batches, thr)) - 1


def calibrate(
    spec: MetricSpec,
    batches: Iterable[Iterable[str]],
    dataset: Dataset,
    alpha: float,
) -> CrcCalibration:
    """Calibrate the perturbation-strength pair on labeled batches.

    lambda_high is the smallest strength whose fraction of batches with
    perturbed utility *below* the true batch utility stays under the risk
    threshold; lambda_low mirrors it on the other side.  Each is the order
    statistic of the exact per-batch crossing strengths, moved 1e-10 outward
    (lambda_high up, lambda_low down) to where the perturbed utilities
    confirm the bound.  If the two cross, lambda_low is nudged just under
    lambda_high.

    ``batches`` is the output of :func:`build_batches` or a plain list of
    equally long query-id batches; batches of different lengths raise
    ``ValueError``.  The result is stamped with the metric and label scale.

    Raises :class:`TooFewBatchesError` when the batch count makes the
    threshold non-positive, and :class:`CalibrationInfeasibleError` when no
    strength inside (-1, 1) satisfies a bound.
    """
    batches, _ = _checked_batches(batches, alpha)  # before any work on the dataset
    for q in batches.pool:
        if q not in dataset.rankings:
            raise UnlabeledQueryError(f"calibration batch names unknown query {q!r}")
    return _calibrate(batches, _UtilityEngine(spec, dataset, batches.pool), alpha)


def _calibrate(
    batches: Iterable[Iterable[str]],
    view: _UtilityEngine,
    alpha: float,
) -> CrcCalibration:
    """:func:`calibrate` on a view of labeled queries that holds at least
    every query of the batches' pool, stamped with the view's metric and
    label scale; it searches the view's knots and shares the view's memo."""
    batches, allowed = _checked_batches(batches, alpha)
    batch_mean = batches.means
    where = {q: i for i, q in enumerate(view.query_ids)}
    pos = np.fromiter(map(where.__getitem__, batches.pool), np.intp, len(batches.pool))
    batch_true = batch_mean(view.true_utilities()[pos])

    @functools.cache  # the two searches share their evaluations at common knots
    def gap(lam: float) -> np.ndarray:
        """Perturbed less true utility of every batch: negative where the
        high side misses, positive where the low side does."""
        return batch_mean(view.knot_utility(lam)[pos]) - batch_true

    m = len(batches)
    lam_high, miss_high = _smallest_strength(gap, view.knots, allowed, "below 1")
    # lambda_low is the mirror image: the largest strength whose low-side
    # loss is under the threshold, found as the negated smallest -lambda
    # (subtracted from 0.0, so a zero strength stays +0.0).
    low, miss_low = _smallest_strength(lambda x: -gap(-x), -view.knots[::-1], allowed, "above -1")
    lam_low = 0.0 - low
    if lam_low >= lam_high:
        # Degenerate data (e.g. predictions exactly matching truth) can leave
        # both searches unconstrained; keep an ordered pair just under the
        # upper strength.  Widening the low side can only reduce its loss.
        nudged = lam_high - 1e-9
        lam_low = nudged if nudged > -1.0 else 0.5 * (lam_high + -1.0)
        miss_low = int(np.count_nonzero(gap(lam_low) > 0))

    return CrcCalibration(
        lambda_low=lam_low, lambda_high=lam_high, alpha=alpha, num_batches=m,
        achieved_loss_low=miss_low / m, achieved_loss_high=miss_high / m,
        metric=format_metric(view.spec), max_label=view.scale.max_label,
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
    calibration is refused for a metric or label scale it is not stamped with.
    """
    qs = list(target_queries)
    if not qs:
        raise EmptyQuerySetError("interval over an empty query set")
    calibration.check_applies(spec, dataset.scale)
    view = _UtilityEngine(spec, dataset, qs)
    lower, upper = _crc_bounds(view, calibration)
    return CiReport(
        method="crc", estimate=float(view.predicted_utilities().mean()), lower=lower, upper=upper,
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


def _per_query_bounds(view: _UtilityEngine, calibration: CrcCalibration):
    """Perturbed utilities of every query of a view at lambda_low and at
    lambda_high, as two arrays in query_ids order."""
    return (view.per_query_utility(calibration.lambda_low),
            view.per_query_utility(calibration.lambda_high))


def _crc_bounds(view: _UtilityEngine, calibration: CrcCalibration) -> tuple[float, float]:
    """:func:`crc_ci`'s (lower, upper) over every query of a view, without the stamp check."""
    lo, hi = (float(np.add.reduce(u) / u.size) for u in _per_query_bounds(view, calibration))
    return min(lo, hi), max(lo, hi)


def _per_query_intervals(view: _UtilityEngine, calibration: CrcCalibration):
    """``(low, high, predicted)`` of every query of a view, in query_ids order and
    without the stamp check: the bits of a one-query :func:`crc_ci`'s interval."""
    bounds = zip(*(u.tolist() for u in _per_query_bounds(view, calibration)))
    return [(min(lo, hi), max(lo, hi), pred)
            for (lo, hi), pred in zip(bounds, view.predicted_utilities().tolist())]
