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

import functools
import math
import re
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

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


def gain_vector(spec: MetricSpec, scale: LabelScale) -> np.ndarray:
    """Gains of every label on the scale, as a float array indexed by label."""
    return np.array([gain(spec, r) for r in scale.labels()], dtype=float)


def expected_gain(spec: MetricSpec, dist: RelevanceDistribution) -> float:
    """Expected gain under a predicted label distribution.

    Precondition: ``dist`` is a valid probability vector.
    """
    return float(sum(p * gain(spec, r) for r, p in enumerate(dist.probs)))


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
    total = 0.0
    for rank, (w, doc) in enumerate(zip(rank_weights(spec), ranking.doc_ids), start=1):
        judgment = truth.get((ranking.query_id, doc))
        if judgment is None:
            raise UnlabeledQueryError(
                f"query {ranking.query_id!r}: document {doc!r} at rank {rank} has no judgment"
            )
        total += w * gain(spec, judgment.label)
    return total


def query_utility_predicted(
    spec: MetricSpec,
    ranking: RankedList,
    predicted: Mapping[tuple[str, str], RelevanceDistribution],
) -> float:
    """Utility of one query with expected gains in place of true gains."""
    total = 0.0
    for rank, (w, doc) in enumerate(zip(rank_weights(spec), ranking.doc_ids), start=1):
        dist = predicted.get((ranking.query_id, doc))
        if dist is None:
            raise MissingDistributionError(
                f"query {ranking.query_id!r}: document {doc!r} at rank {rank} has no "
                "predicted distribution"
            )
        total += w * expected_gain(spec, dist)
    return total


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
    return {q: query_utility_true(spec, dataset.rankings[q], dataset.truth) for q in qs}


def predicted_utilities(spec: MetricSpec, dataset: Dataset, queries: Iterable[str] | None = None) -> dict[str, float]:
    """Per-query predicted utilities for the given queries (default: all)."""
    qs = list(queries) if queries is not None else dataset.queries()
    return {q: query_utility_predicted(spec, dataset.rankings[q], dataset.predicted) for q in qs}
