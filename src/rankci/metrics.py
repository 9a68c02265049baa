"""Ranking metrics as rank-weighted sums of label gains.

A metric is described by a :class:`MetricSpec`: a weight profile over ranks
(precision-style or DCG-style, truncated at a cutoff) together with a gain
function over labels (identity or exponential).  The utility of one query is

    sum over ranked documents of  weight(rank) * gain(label(document))

and a dataset-level utility is the unweighted mean of per-query utilities.
When only a predicted label *distribution* is available for a document, its
gain is replaced by the expected gain under that distribution.

Worked example: DCG@10 with exponential gain on labels [3, 0, 2] in rank
order gives 7/log2(2) + 0/log2(3) + 3/log2(4) = 8.5.
"""

from __future__ import annotations

import copy
import functools
import math
import re
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

import numpy as np

from .errors import EmptyQuerySetError, MissingDistributionError, UnlabeledQueryError
from .model import (Dataset, Judgment, LabelScale, LabelTable, RankedList, RelevanceDistribution,
                    left_sum)

KINDS = ("precision", "dcg")
GAINS = ("identity", "exponential")


@dataclass(frozen=True, slots=True)
class MetricSpec:
    """What to compute: weight profile kind, rank cutoff, and gain function."""

    kind: str
    cutoff_k: int
    gain: str

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if not isinstance(self.cutoff_k, int) or self.cutoff_k < 1:
            raise ValueError(f"cutoff_k must be an integer >= 1, got {self.cutoff_k!r}")
        if self.gain not in GAINS:
            raise ValueError(f"gain must be one of {GAINS}, got {self.gain!r}")


_METRIC_RE = re.compile(r"^(dcg|prec)@(\d+)$")


def parse_metric(name: str) -> MetricSpec:
    """Parse a metric name like ``dcg@10`` or ``prec@5``.

    ``dcg@K`` uses exponential gain (2**label - 1), ``prec@K`` identity gain;
    construct a :class:`MetricSpec` directly for other combinations.
    """
    m = _METRIC_RE.match(name.strip().lower())
    if not m:
        raise ValueError(f"unrecognised metric {name!r}; expected dcg@K or prec@K")
    kind, k = m.group(1), int(m.group(2))
    if k < 1:
        raise ValueError(f"metric cutoff must be >= 1, got {k}")
    if kind == "dcg":
        return MetricSpec("dcg", k, "exponential")
    return MetricSpec("precision", k, "identity")


def format_metric(spec: MetricSpec) -> str:
    """The metric's name: ``dcg@K`` or ``prec@K``, suffixed ``:<gain>`` when
    the gain is not the one :func:`parse_metric` gives that name."""
    prefix = "dcg" if spec.kind == "dcg" else "prec"
    name = f"{prefix}@{spec.cutoff_k}"
    return name if parse_metric(name) == spec else f"{name}:{spec.gain}"


def rank_weight(spec: MetricSpec, rank: int) -> float:
    """Weight of a rank position (1-based); zero beyond the cutoff.

    precision@K: 1/K for ranks 1..K.  dcg@K: 1/log2(rank + 1) for ranks 1..K.
    """
    if not isinstance(rank, int) or rank < 1:
        raise ValueError(f"rank must be an integer >= 1, got {rank!r}")
    if rank > spec.cutoff_k:
        return 0.0
    if spec.kind == "precision":
        return 1.0 / spec.cutoff_k
    return 1.0 / math.log2(rank + 1)


@functools.lru_cache(maxsize=32)
def rank_weights(spec: MetricSpec) -> tuple[float, ...]:
    """Weights of ranks 1..cutoff_k; every later rank weighs 0."""
    return tuple(rank_weight(spec, rank) for rank in range(1, spec.cutoff_k + 1))


def gain(spec: MetricSpec, label: int) -> float:
    """Gain of a relevance label: the label itself, or 2**label - 1."""
    if label < 0:
        raise ValueError(f"label must be >= 0, got {label}")
    if spec.gain == "identity":
        return float(label)
    return float(2.0 ** label - 1.0)


@functools.lru_cache(maxsize=32)
def gain_vector(spec: MetricSpec, scale: LabelScale) -> np.ndarray:
    """Gains of every label on the scale, as a read-only float array indexed
    by label."""
    out = np.array([gain(spec, r) for r in scale.labels()], dtype=float)
    out.setflags(write=False)
    return out


def expected_gain(spec: MetricSpec, dist: RelevanceDistribution) -> float:
    """Expected gain under a predicted label distribution.

    Precondition: ``dist`` is a valid probability vector.
    """
    probs = np.asarray(dist.probs, dtype=float)
    return float(left_sum(probs * gain_vector(spec, LabelScale(dist.max_label))))


class UtilityView:
    """The first ``cutoff_k`` ranked documents of a query list as dense rows.

    Rows run query by query, best rank first.  ``probs[R, L]`` holds each
    row's predicted label distribution (``None`` in a view built without
    predictions), ``labels[R]`` its true label (-1 where unjudged),
    ``weights[R]`` its rank weight and ``segments[R]`` the position of its
    query in ``query_ids``; query ``i`` owns rows ``starts[i]:starts[i+1]``.
    Per-query sums run over the rows in this order, so they add up exactly as
    a loop over each ranking does.  ``spec`` and the dataset's ``scale`` come
    along for the calibration stamp.
    """

    def __init__(self, spec: MetricSpec, dataset: Dataset, query_ids: Iterable[str], *,
                 predictions: bool = True):
        self.spec, self.scale = spec, dataset.scale
        self.query_ids = list(query_ids)
        self.rankings = dataset.rankings
        order, table = dataset.order, dataset.predicted
        pos = np.array([order.where[q] for q in self.query_ids], dtype=np.intp)
        at, self.starts, rank = _gather(order.starts, pos, spec.cutoff_k)
        self.segments = np.repeat(np.arange(len(pos)), np.diff(self.starts))
        self.labels = order.labels[at]
        self.weights = np.array(rank_weights(spec))[rank]
        self.gains = gain_vector(spec, LabelScale(table.probs.shape[1] - 1))
        self.probs = None
        if predictions:
            rows = order.rows[at]
            if where := self._first(rows < 0):
                raise MissingDistributionError(f"{where} has no predicted distribution")
            self.probs = table.probs[rows]

    def _first(self, flagged: np.ndarray) -> str | None:
        """Names the query, document and rank of the first flagged row."""
        hit = np.flatnonzero(flagged)
        if not hit.size:
            return None
        row, qi = int(hit[0]), int(self.segments[hit[0]])
        qid, rank = self.query_ids[qi], row - int(self.starts[qi])
        return f"query {qid!r}: document {self.rankings[qid].doc_ids[rank]!r} at rank {rank + 1}"

    def _per_query(self, row_values: np.ndarray) -> np.ndarray:
        """Per-query sums of weight * value, rows added in order."""
        return np.bincount(self.segments, weights=self.weights * row_values,
                           minlength=len(self.query_ids))

    def true_utilities(self) -> np.ndarray:
        """Utility of every query from its true labels, in query_ids order.

        Raises :class:`UnlabeledQueryError` naming the first unjudged row.
        """
        if where := self._first(self.labels < 0):
            raise UnlabeledQueryError(f"{where} has no judgment")
        top = LabelScale(max(1, int(self.labels.max(initial=1))))
        return self._per_query(gain_vector(self.spec, top)[self.labels])

    def predicted_utilities(self) -> np.ndarray:
        """Utility of every query with expected gains in place of true gains."""
        return self._per_query(left_sum(self.probs * self.gains))

    def with_probs(self, probs: np.ndarray):
        """The same rows with other predicted distributions."""
        out = copy.copy(self)
        out.probs = probs
        return out

    def subset(self, query_ids: Iterable[str]):
        """The rows of ``query_ids`` (ids of this view, repeats allowed), in
        that order."""
        where = {q: i for i, q in enumerate(self.query_ids)}
        pos = np.array([where[q] for q in query_ids], dtype=np.intp)
        rows, starts, _ = _gather(self.starts, pos)
        out = copy.copy(self)
        out.query_ids = [self.query_ids[i] for i in pos.tolist()]
        out.probs = None if self.probs is None else self.probs[rows]
        out.labels, out.weights = self.labels[rows], self.weights[rows]
        out.segments, out.starts = np.repeat(np.arange(len(pos)), np.diff(starts)), starts
        return out


def _gather(starts: np.ndarray, pos: np.ndarray, cap: int | None = None):
    """Positions of the rows of the spans ``starts[i]:starts[i+1]`` for each
    ``i`` of ``pos`` in turn, each cut to its first ``cap`` rows; with the new
    span starts and each row's place in its span."""
    first = starts[pos]
    counts = starts[pos + 1] - first
    if cap is not None:
        counts = np.minimum(counts, cap)
    new = np.concatenate(([0], np.cumsum(counts))).astype(np.intp)
    place = np.arange(new[-1]) - np.repeat(new[:-1], counts)
    return np.repeat(first, counts) + place, new, place


def _one_query(spec: MetricSpec, ranking: RankedList, truth) -> Dataset:
    # The view reads the label range from the data, so any scale will do, and
    # only the first cutoff_k documents count.  A table is used as it is; of
    # any other mapping only those documents' pairs are converted.
    top = RankedList(ranking.query_id, ranking.doc_ids[: spec.cutoff_k])
    if not isinstance(truth, LabelTable):
        truth = {k: truth[k] for k in ((top.query_id, d) for d in top.doc_ids) if k in truth}
    return Dataset(LabelScale(1), {top.query_id: top}, truth, {})


def query_utility_true(
    spec: MetricSpec,
    ranking: RankedList,
    truth: Mapping[tuple[str, str], Judgment],
) -> float:
    """Utility of one query from true labels.

    Raises :class:`UnlabeledQueryError` if any ranked document within the
    cutoff has no judgment (documents past the cutoff carry zero weight and
    may be unjudged).
    """
    view = UtilityView(spec, _one_query(spec, ranking, truth), [ranking.query_id],
                       predictions=False)
    return float(view.true_utilities()[0])


def dataset_utility(
    spec: MetricSpec,
    queries: Iterable[str],
    per_query: Mapping[str, float],
) -> float:
    """Unweighted mean of per-query utilities over ``queries``."""
    qs = list(queries)
    if not qs:
        raise EmptyQuerySetError("dataset utility over an empty query set")
    return sum(per_query[q] for q in qs) / len(qs)


def true_utilities(spec: MetricSpec, dataset: Dataset, queries: Iterable[str] | None = None) -> dict[str, float]:
    """Per-query true utilities for the given queries (default: all labeled)."""
    qs = list(queries) if queries is not None else dataset.labeled_queries()
    view = UtilityView(spec, dataset, qs, predictions=False)
    return dict(zip(qs, view.true_utilities().tolist()))


def predicted_utilities(spec: MetricSpec, dataset: Dataset, queries: Iterable[str] | None = None) -> dict[str, float]:
    """Per-query predicted utilities for the given queries (default: all)."""
    qs = list(queries) if queries is not None else dataset.queries()
    return dict(zip(qs, UtilityView(spec, dataset, qs).predicted_utilities().tolist()))
