"""Core data model: label scales, per-document label distributions, judgments,
rankings, datasets, splits, and the interval report shared by all estimators.

Design notes
------------
* Every type is a frozen dataclass: construct once, never mutate.  The two
  mapping-valued fields on :class:`Dataset` are ordinary dicts for speed;
  treat them as read-only.
* Truth is a single integer label per (query, document) pair.  A pair with no
  entry in ``Dataset.truth`` is simply unjudged, and a query counts as
  *labeled* only when every ranked document under it is judged.
* :class:`RelevanceDistribution` deliberately does **not** reject invalid
  probability vectors at construction time, so that diagnostic code
  (:func:`validate_dataset`, the corpus parsers) can hold and describe bad
  data.  Numeric operations document validity as a precondition.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Tolerance for "probabilities sum to one" at the type level.
PROB_SUM_TOL = 1e-9


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
        (query_id, doc_id) -> :class:`RelevanceDistribution`.  Expected to
        cover every ranked document (checked by :func:`validate_dataset`).
    """

    scale: LabelScale
    rankings: dict[str, RankedList] = field(default_factory=dict)
    truth: dict[tuple[str, str], Judgment] = field(default_factory=dict)
    predicted: dict[tuple[str, str], RelevanceDistribution] = field(default_factory=dict)

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
        return {
            "method": self.method,
            "estimate": self.estimate,
            "lower": self.lower,
            "upper": self.upper,
            "alpha": self.alpha,
            "diagnostics": dict(self.diagnostics),
        }


def validate_dataset(dataset: Dataset) -> list[str]:
    """Collect human-readable descriptions of every integrity violation.

    Returns an empty list iff the dataset is internally consistent: rankings
    keyed by their own query id, no duplicate documents, labels on scale,
    and a valid predicted distribution of the right length for every ranked
    document.  An empty dataset is trivially valid.
    """
    problems: list[str] = []
    scale = dataset.scale

    for qid, ranking in dataset.rankings.items():
        if ranking.query_id != qid:
            problems.append(f"ranking stored under {qid!r} has query_id {ranking.query_id!r}")
        seen: set[str] = set()
        for doc in ranking.doc_ids:
            if doc in seen:
                problems.append(f"query {qid!r}: duplicate doc_id {doc!r}")
            seen.add(doc)
            dist = dataset.predicted.get((qid, doc))
            if dist is None:
                problems.append(f"query {qid!r} doc {doc!r}: no predicted distribution")
                continue
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
