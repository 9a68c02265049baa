"""Core data model: label scales, per-document label distributions, judgments,
rankings, datasets, splits, and the interval report shared by all estimators.

Design notes
------------
* Every type is a frozen dataclass: construct once, never mutate.
  ``Dataset.truth`` is an ordinary dict for speed (treat it as read-only);
  ``Dataset.predicted`` is always a :class:`DistTable`, one float matrix.
* Truth is a single integer label per (query, document) pair.  A pair with no
  entry in ``Dataset.truth`` is simply unjudged, and a query counts as
  *labeled* only when every ranked document under it is judged.
* :class:`RelevanceDistribution` deliberately does **not** reject invalid
  probability vectors at construction time, so that diagnostic code
  (:func:`validate_dataset`, the corpus parsers) can hold and describe bad
  data.  Numeric operations document validity as a precondition.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import asdict, dataclass, field

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

    def is_valid(self) -> bool:
        return not self.violations()


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


class DistTable(Mapping):
    """A read-only mapping (query_id, doc_id) -> :class:`RelevanceDistribution`
    held as one table: ``rows`` maps each pair to its row of the float matrix
    ``probs[R, L]``, which array readers use directly; a lookup builds the
    distribution on demand.  Distributions of unequal lengths are padded with
    NaN, and ``widths`` then holds each row's length (else ``None``)."""

    __slots__ = ("rows", "probs", "widths")

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

    def __contains__(self, key) -> bool:
        return key in self.rows

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)


@dataclass(frozen=True, slots=True)
class Judgment:
    """A single true relevance label."""

    label: int

    def __post_init__(self):
        if not isinstance(self.label, int) or self.label < 0:
            raise ValueError(f"label must be an integer >= 0, got {self.label!r}")


@dataclass(frozen=True)
class RankedList:
    """The documents retrieved for one query, best first (rank 1 first)."""

    query_id: str
    doc_ids: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "doc_ids", tuple(self.doc_ids))
        if len(set(self.doc_ids)) != len(self.doc_ids):
            seen, dup = set(), None
            for d in self.doc_ids:
                if d in seen:
                    dup = d
                    break
                seen.add(d)
            raise ValueError(f"duplicate doc_id {dup!r} in ranking for query {self.query_id!r}")

    def __len__(self) -> int:
        return len(self.doc_ids)


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
        (query_id, doc_id) -> :class:`Judgment`.  Partial: unjudged pairs are
        simply absent.
    predicted:
        (query_id, doc_id) -> :class:`RelevanceDistribution` as a
        :class:`DistTable` (a plain mapping is converted once).  Expected to
        cover every ranked document (checked by :func:`validate_dataset`).
    """

    scale: LabelScale
    rankings: dict[str, RankedList] = field(default_factory=dict)
    truth: dict[tuple[str, str], Judgment] = field(default_factory=dict)
    predicted: Mapping[tuple[str, str], RelevanceDistribution] = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.predicted, DistTable):
            object.__setattr__(self, "predicted", DistTable.of(self.predicted, self.scale.num_labels))

    def queries(self) -> list[str]:
        """All query ids, sorted."""
        return sorted(self.rankings)

    def is_labeled(self, query_id: str) -> bool:
        """True iff every ranked document of the query has a judgment."""
        ranking = self.rankings[query_id]
        return all((query_id, d) in self.truth for d in ranking.doc_ids)

    def labeled_queries(self) -> list[str]:
        """Sorted ids of the queries whose rankings are fully judged."""
        truth = self.truth
        unjudged = {q for q, ranking in self.rankings.items()
                    for d in ranking.doc_ids if (q, d) not in truth}
        return [q for q in self.queries() if q not in unjudged]


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
    scale, table = dataset.scale, dataset.predicted
    # Whole-table array checks; only a flagged row is described pair by pair.
    widths = table.probs.shape[1] if table.widths is None else table.widths
    flagged = set(np.flatnonzero((widths != scale.num_labels) | violating_rows(table.probs)).tolist())

    for qid, ranking in dataset.rankings.items():
        if ranking.query_id != qid:
            problems.append(f"ranking stored under {qid!r} has query_id {ranking.query_id!r}")
        for doc in ranking.doc_ids:
            row = table.rows.get((qid, doc))
            if row is None and require_dists:
                problems.append(f"query {qid!r} doc {doc!r}: no predicted distribution")
            if row not in flagged:
                continue
            dist = table[(qid, doc)]
            if dist.max_label != scale.max_label:
                problems.append(
                    f"query {qid!r} doc {doc!r}: distribution has {len(dist.probs)} labels, "
                    f"scale has {scale.num_labels}"
                )
            for v in dist.violations():
                problems.append(f"query {qid!r} doc {doc!r}: {v}")

    for (qid, doc), judgment in dataset.truth.items():
        if judgment.label > scale.max_label:
            problems.append(
                f"query {qid!r} doc {doc!r}: label {judgment.label} exceeds max_label {scale.max_label}"
            )

    return problems
