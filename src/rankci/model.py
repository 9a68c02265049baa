"""Core data model: label scales, per-document label distributions, judgments,
rankings, datasets, splits, and the interval report shared by all estimators.

Design notes
------------
* Every type is a frozen dataclass or a read-only table: construct once,
  never mutate.  ``Dataset.truth`` is always a :class:`LabelTable` (one
  integer column) and ``Dataset.predicted`` a :class:`DistTable` (one float
  matrix); :class:`RankOrder` lists their rows in rank order.
* Truth is a single integer label per (query, document) pair.  A pair with no
  entry in ``Dataset.truth`` is simply unjudged, and a query counts as
  *labeled* only when every ranked document under it is judged.
* :class:`RelevanceDistribution` deliberately does **not** reject invalid
  probability vectors at construction time, so that diagnostic code
  (:func:`validate_dataset`, the corpus parsers) can hold and describe bad
  data.  Numeric operations document validity as a precondition.
"""

from __future__ import annotations

from collections.abc import Collection, Mapping
from dataclasses import asdict, dataclass, field
from itertools import compress, repeat

import numpy as np

# Tolerance for "probabilities sum to one", for every reader of distributions.
PROB_SUM_TOL = 1e-6


@dataclass(frozen=True, slots=True)
class LabelScale:
    """An inclusive relevance-label range 0..max_label."""

    max_label: int

    def __post_init__(self):
        if not isinstance(self.max_label, int) or self.max_label < 1:
            raise ValueError(f"max_label must be an integer >= 1, got {self.max_label!r}")

    @property
    def num_labels(self) -> int:
        return self.max_label + 1

    def labels(self) -> range:
        """All labels on the scale, lowest first."""
        return range(self.max_label + 1)


@dataclass(frozen=True)
class RelevanceDistribution:
    """A probability distribution over the labels of some scale.

    ``probs[r]`` is the probability of label ``r``; the vector length fixes
    the scale it belongs to (``len(probs) == max_label + 1``).
    """

    probs: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "probs", tuple(float(p) for p in self.probs))
        if len(self.probs) < 2:
            raise ValueError("a relevance distribution needs at least two labels")

    @property
    def max_label(self) -> int:
        return len(self.probs) - 1

    def violations(self) -> list[str]:
        """Describe everything wrong with this vector as a probability
        distribution; empty when it is valid."""
        out = []
        for r, p in enumerate(self.probs):
            if not (0.0 <= p <= 1.0):
                out.append(f"prob of label {r} is {p!r}, outside [0, 1]")
        total = sum(self.probs)
        if abs(total - 1.0) > PROB_SUM_TOL:
            out.append(f"probs sum {total!r} != 1")
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


def violating_rows(probs: np.ndarray) -> np.ndarray:
    """Mask of the rows of ``probs[R, L]`` that :meth:`RelevanceDistribution.violations` flags."""
    in_range = ((probs >= 0.0) & (probs <= 1.0)).all(axis=-1)
    return ~in_range | (np.abs(left_sum(probs) - 1.0) > PROB_SUM_TOL)


class _PairTable(Mapping):
    """A read-only mapping over (query_id, doc_id) pairs held as columns:
    ``rows`` numbers each pair, in insertion order, by its row."""

    __slots__ = ("rows",)

    def row_of(self, keys: Collection[tuple[str, str]]) -> np.ndarray:
        """The row of each of ``keys``; -1 for a pair the table does not hold."""
        return np.fromiter(map(self.rows.get, keys, repeat(-1)), np.intp, len(keys))

    def __contains__(self, key) -> bool:
        return key in self.rows

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)


class DistTable(_PairTable):
    """A read-only mapping (query_id, doc_id) -> :class:`RelevanceDistribution`
    held as the rows of the float matrix ``probs[R, L]``, which array readers
    use directly; a lookup builds the distribution on demand.  Distributions
    of unequal lengths are padded with NaN, and ``widths`` then holds each
    row's length (else ``None``)."""

    __slots__ = ("probs", "widths")

    def __init__(self, rows: dict[tuple[str, str], int], probs: np.ndarray,
                 widths: np.ndarray | None = None):
        probs.setflags(write=False)
        self.rows, self.probs, self.widths = rows, probs, widths

    @classmethod
    def of(cls, dists: Mapping[tuple[str, str], RelevanceDistribution], num_labels: int):
        """The table of ``dists``, in its order; ``num_labels`` wide if empty."""
        vectors = [d.probs for d in dists.values()]
        widths = [len(v) for v in vectors] or [num_labels]
        width = max(widths)
        probs = np.array([v + (np.nan,) * (width - len(v)) for v in vectors], dtype=float)
        return cls(dict(zip(dists, range(len(vectors)))), probs.reshape(len(vectors), width),
                   None if min(widths) == width else np.array(widths))

    def with_probs(self, probs: np.ndarray) -> DistTable:
        """The same pairs with the distributions of ``probs``'s rows."""
        return DistTable(self.rows, probs, self.widths)

    def __getitem__(self, key: tuple[str, str]) -> RelevanceDistribution:
        i = self.rows[key]
        end = None if self.widths is None else self.widths[i]
        return RelevanceDistribution(self.probs[i, :end].tolist())


@dataclass(frozen=True, slots=True)
class Judgment:
    """A single true relevance label."""

    label: int

    def __post_init__(self):
        if not isinstance(self.label, int) or self.label < 0:
            raise ValueError(f"label must be an integer >= 0, got {self.label!r}")


class LabelTable(_PairTable):
    """A read-only mapping (query_id, doc_id) -> :class:`Judgment` held as the
    integer column ``labels[R]``; a lookup builds the judgment on demand.
    Where the judged pairs are the pairs of a :class:`DistTable`, both tables
    share one ``rows``."""

    __slots__ = ("labels",)

    def __init__(self, rows: dict[tuple[str, str], int], labels: np.ndarray):
        labels.setflags(write=False)
        self.rows, self.labels = rows, labels

    @classmethod
    def of(cls, truth: Mapping[tuple[str, str], Judgment]) -> LabelTable:
        """The table of ``truth``, in its order."""
        labels = np.fromiter((j.label for j in truth.values()), np.intp, len(truth))
        return cls(dict(zip(truth, range(len(truth)))), labels)

    def at(self, keys: Collection[tuple[str, str]]) -> np.ndarray:
        """The labels of ``keys``, -1 where unjudged."""
        return self.labels if keys is self.rows else np.append(self.labels, -1)[self.row_of(keys)]

    def __getitem__(self, key: tuple[str, str]) -> Judgment:
        return Judgment(int(self.labels[self.rows[key]]))


@dataclass(frozen=True)
class RankedList:
    """The documents retrieved for one query, best first (rank 1 first)."""

    query_id: str
    doc_ids: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "doc_ids", tuple(self.doc_ids))
        if len(set(self.doc_ids)) != len(self.doc_ids):
            dup = next(d for i, d in enumerate(self.doc_ids) if d in self.doc_ids[:i])
            raise ValueError(f"duplicate doc_id {dup!r} in ranking for query {self.query_id!r}")

    def __len__(self) -> int:
        return len(self.doc_ids)


class RankOrder:
    """The ranked pairs of a dataset, for the queries in sorted order
    (``query_ids``, with ``where[q]`` the index of ``q``) and each query's
    documents in rank order: query ``i`` owns positions
    ``starts[i]:starts[i+1]``, and position ``p`` is the pair's row of the
    predicted table ``rows[p]`` (-1 without one) with true label
    ``labels[p]`` (-1 where unjudged).  ``source`` holds the rankings, truth
    and predicted index it was built from."""

    __slots__ = ("query_ids", "where", "rows", "labels", "starts", "source")

    def __init__(self, query_ids: list[str], rows: np.ndarray, labels: np.ndarray,
                 starts: np.ndarray, source: tuple):
        self.query_ids, self.where = query_ids, {q: i for i, q in enumerate(query_ids)}
        self.rows, self.labels, self.starts, self.source = rows, labels, starts, source

    @classmethod
    def of(cls, rankings: dict[str, RankedList], truth: LabelTable, predicted: DistTable) -> RankOrder:
        qids = sorted(rankings)
        keys = [(q, d) for q in qids for d in rankings[q].doc_ids]
        rows = predicted.row_of(keys)
        if truth.rows is predicted.rows:
            labels = np.append(truth.labels, -1)[rows]
        else:
            # Label the predicted rows from the judged pairs (one lookup each,
            # usually fewer than the ranked pairs); only a ranked pair without
            # a row is looked up in the truth itself.
            judged = predicted.row_of(truth.rows)
            by_row = np.full(len(predicted) + 1, -1, truth.labels.dtype)
            by_row[judged[judged >= 0]] = truth.labels[judged >= 0]
            labels = by_row[rows]
            if (alone := np.flatnonzero(rows < 0)).size:
                labels[alone] = truth.at([keys[i] for i in alone.tolist()])
        starts = np.cumsum([0, *(len(rankings[q]) for q in qids)], dtype=np.intp)
        return cls(qids, rows, labels, starts, (rankings, truth, predicted.rows))


@dataclass(frozen=True)
class Dataset:
    """Rankings plus (partial) truth and (total) predicted label distributions.

    Fields
    ------
    scale:
        The label scale every judgment and distribution lives on.
    rankings:
        query_id -> :class:`RankedList`.
    truth:
        (query_id, doc_id) -> :class:`Judgment` as a :class:`LabelTable` (a
        plain mapping is converted once).  Partial: unjudged pairs are simply
        absent.
    predicted:
        (query_id, doc_id) -> :class:`RelevanceDistribution` as a
        :class:`DistTable` (a plain mapping is converted once).  Expected to
        cover every ranked document (checked by :func:`validate_dataset`).
    order:
        The :class:`RankOrder` of the fields above, built once (a dataset with
        new probs on the same rows keeps it).
    """

    scale: LabelScale
    rankings: dict[str, RankedList] = field(default_factory=dict)
    truth: Mapping[tuple[str, str], Judgment] = field(default_factory=dict)
    predicted: Mapping[tuple[str, str], RelevanceDistribution] = field(default_factory=dict)
    order: RankOrder | None = field(default=None, kw_only=True, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.predicted, DistTable):
            object.__setattr__(self, "predicted", DistTable.of(self.predicted, self.scale.num_labels))
        if not isinstance(self.truth, LabelTable):
            object.__setattr__(self, "truth", LabelTable.of(self.truth))
        sources = (self.rankings, self.truth, self.predicted.rows)
        if self.order is None or any(a is not b for a, b in zip(self.order.source, sources)):
            object.__setattr__(self, "order", RankOrder.of(self.rankings, self.truth, self.predicted))

    def queries(self) -> list[str]:
        """All query ids, sorted."""
        return list(self.order.query_ids)

    def labeled_queries(self) -> list[str]:
        """Sorted ids of the queries whose rankings are fully judged."""
        o = self.order
        # The least label of each query's positions; the appended 0 keeps every
        # start in range, and a query that ranks nothing counts as labeled.
        judged = np.minimum.reduceat(np.append(o.labels, 0), o.starts[:-1]) >= 0
        judged |= o.starts[1:] == o.starts[:-1]
        return list(compress(o.query_ids, judged.tolist()))


@dataclass(frozen=True)
class CiReport:
    """A confidence interval produced by any of the estimators.

    ``diagnostics`` carries method-specific numbers (variances, perturbation
    strengths, achieved calibration losses, ...) keyed by short names.
    """

    method: str
    estimate: float
    lower: float
    upper: float
    alpha: float
    diagnostics: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if not (self.lower <= self.upper):
            raise ValueError(f"lower bound {self.lower} exceeds upper bound {self.upper}")

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def to_dict(self) -> dict:
        return asdict(self)


def validate_dataset(dataset: Dataset, *, require_dists: bool = True) -> list[str]:
    """Collect human-readable descriptions of every integrity violation.

    Returns an empty list iff the dataset is internally consistent: rankings
    keyed by their own query id, labels on scale, and a valid predicted
    distribution of the right length for every ranked document that has one.
    A ranked document without a distribution is a violation only when
    ``require_dists`` is true.  An empty dataset is trivially valid.
    """
    problems: list[str] = []
    scale, table, order, truth = dataset.scale, dataset.predicted, dataset.order, dataset.truth
    # Whole-table array checks; only a flagged ranked pair is described.  The
    # appended entry stands for a ranked pair without a distribution (row -1).
    widths = table.probs.shape[1] if table.widths is None else table.widths
    flagged = np.append((widths != scale.num_labels) | violating_rows(table.probs), require_dists)
    bad = flagged[order.rows]

    for qid, ranking in dataset.rankings.items():
        if ranking.query_id != qid:
            problems.append(f"ranking stored under {qid!r} has query_id {ranking.query_id!r}")
        start = int(order.starts[order.where[qid]])
        for r in np.flatnonzero(bad[start:start + len(ranking)]).tolist():
            doc = ranking.doc_ids[r]
            if (qid, doc) not in table:
                problems.append(f"query {qid!r} doc {doc!r}: no predicted distribution")
                continue
            dist = table[(qid, doc)]
            if dist.max_label != scale.max_label:
                problems.append(
                    f"query {qid!r} doc {doc!r}: distribution has {len(dist.probs)} labels, "
                    f"scale has {scale.num_labels}"
                )
            for v in dist.violations():
                problems.append(f"query {qid!r} doc {doc!r}: {v}")

    over = truth.labels > scale.max_label
    for (qid, doc), label in zip(compress(truth.rows, over.tolist()), truth.labels[over].tolist()):
        problems.append(f"query {qid!r} doc {doc!r}: label {label} exceeds max_label {scale.max_label}")

    return problems
