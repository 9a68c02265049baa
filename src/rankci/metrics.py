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
from itertools import accumulate

import numpy as np

from .errors import EmptyQuerySetError, MissingDistributionError, UnlabeledQueryError
from .model import Dataset, Judgment, LabelScale, RankedList, RelevanceDistribution

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


def left_sum(x: np.ndarray) -> np.ndarray:
    """Sum over the last axis term by term from the left, as Python's ``sum``
    adds a list.  ``numpy.sum`` and ``@`` may group the terms otherwise and
    move the last bit, so every sum that must match a per-document loop bit
    for bit goes through here."""
    total = x[..., 0]
    for r in range(1, x.shape[-1]):
        total = total + x[..., r]
    return total


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
        truth, predicted = dataset.truth, dataset.predicted
        weights_k = rank_weights(spec)
        probs: list[tuple[float, ...]] = []
        labels: list[int] = []
        weights: list[float] = []
        counts: list[int] = []
        for qid in self.query_ids:
            keys = [(qid, doc) for doc in dataset.rankings[qid].doc_ids[: spec.cutoff_k]]
            labels.extend([-1 if j is None else j.label for j in map(truth.get, keys)])
            if predictions:
                try:
                    probs.extend([d.probs for d in map(predicted.__getitem__, keys)])
                except KeyError as e:
                    doc = e.args[0][1]
                    raise MissingDistributionError(
                        f"query {qid!r}: document {doc!r} at rank {keys.index(e.args[0]) + 1} "
                        "has no predicted distribution"
                    ) from None
            weights.extend(weights_k[: len(keys)])
            counts.append(len(keys))
        n_labels = len(probs[0]) if probs else dataset.scale.num_labels
        self.probs = np.array(probs, dtype=float).reshape(len(probs), n_labels) if predictions else None
        self.gains = gain_vector(spec, LabelScale(n_labels - 1))
        self.labels = np.array(labels, dtype=np.intp)
        self.weights = np.array(weights, dtype=float)
        self.starts = np.array([0, *accumulate(counts)], dtype=np.intp)
        self.segments = np.repeat(np.arange(len(counts)), counts)

    def _per_query(self, row_values: np.ndarray) -> np.ndarray:
        """Per-query sums of weight * value, rows added in order."""
        return np.bincount(self.segments, weights=self.weights * row_values,
                           minlength=len(self.query_ids))

    def true_utilities(self) -> np.ndarray:
        """Utility of every query from its true labels, in query_ids order.

        Raises :class:`UnlabeledQueryError` naming the first unjudged row.
        """
        unjudged = np.flatnonzero(self.labels < 0)
        if unjudged.size:
            row = int(unjudged[0])
            qi = int(self.segments[row])
            qid, rank = self.query_ids[qi], row - int(self.starts[qi]) + 1
            doc = self.rankings[qid].doc_ids[rank - 1]
            raise UnlabeledQueryError(
                f"query {qid!r}: document {doc!r} at rank {rank} has no judgment"
            )
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
        counts = self.starts[pos + 1] - self.starts[pos]
        starts = np.concatenate(([0], np.cumsum(counts)))
        rows = np.arange(starts[-1]) + np.repeat(self.starts[pos] - starts[:-1], counts)
        out = copy.copy(self)
        out.query_ids = [self.query_ids[i] for i in pos.tolist()]
        out.probs = None if self.probs is None else self.probs[rows]
        out.labels, out.weights = self.labels[rows], self.weights[rows]
        out.segments, out.starts = np.repeat(np.arange(len(pos)), counts), starts
        return out


def _one_query(ranking: RankedList, truth=None, predicted=None) -> Dataset:
    # The view reads the label range from the data, so any scale will do.
    return Dataset(LabelScale(1), {ranking.query_id: ranking}, truth or {}, predicted or {})


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
    view = UtilityView(spec, _one_query(ranking, truth=truth), [ranking.query_id],
                       predictions=False)
    return float(view.true_utilities()[0])


def query_utility_predicted(
    spec: MetricSpec,
    ranking: RankedList,
    predicted: Mapping[tuple[str, str], RelevanceDistribution],
) -> float:
    """Utility of one query with expected gains in place of true gains."""
    view = UtilityView(spec, _one_query(ranking, predicted=predicted), [ranking.query_id])
    return float(view.predicted_utilities()[0])


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
