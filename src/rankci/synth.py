"""Synthetic datasets with a controllable annotator.

Generates fully-judged collections where the predicted label distributions
come from a distance-decay kernel around the true label: mass proportional
to sharpness**(-|r - r_true|).  Sharpness 1 is an uninformative annotator
(uniform), larger is sharper, and infinity is the one-hot limit.  Rankings
order documents by true label plus unit Gaussian noise, so better documents
tend to sit higher — like a real retrieval run.

Two transforms distort or improve predictions after the fact.  Both are
array operations over the last axis of a stack of distributions;
:func:`bias_dataset`/:func:`oracle_dataset` apply them to a whole dataset.

* :func:`bias_probs` pushes mass toward the *complement* of each label's
  probability — strength beta interpolates from unchanged (0) through
  uniform (0.5) to a normalised inversion (1), modelling a systematically
  wrong annotator;
* :func:`oracle_probs` mixes the prediction with the one-hot truth —
  strength tau interpolates from unchanged (0) to a perfect annotator (1).

Generation is deterministic for a given seed and independent of query
evaluation order (each query draws from its own derived stream).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import islice

import numpy as np

from .errors import UnlabeledQueryError
from .metrics import left_sum
from .model import Dataset, DistTable, LabelScale, LabelTable, RankedList, RankOrder
from .seeding import stream


@dataclass(frozen=True)
class SynthConfig:
    """Shape and annotator quality of a generated dataset."""

    num_queries: int
    docs_per_query: int
    scale: LabelScale
    truth_prior: tuple[float, ...]
    annotator_sharpness: float
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "truth_prior", tuple(float(p) for p in self.truth_prior))
        if self.num_queries < 0:
            raise ValueError(f"num_queries must be >= 0, got {self.num_queries}")
        if self.docs_per_query < 1:
            raise ValueError(f"docs_per_query must be >= 1, got {self.docs_per_query}")
        if len(self.truth_prior) != self.scale.num_labels:
            raise ValueError(
                f"truth_prior has {len(self.truth_prior)} entries for a scale of "
                f"{self.scale.num_labels} labels"
            )
        if any(p < 0 for p in self.truth_prior) or abs(sum(self.truth_prior) - 1.0) > 1e-9:
            raise ValueError("truth_prior must be a probability vector")
        if not self.annotator_sharpness > 0:
            raise ValueError(f"annotator_sharpness must be > 0, got {self.annotator_sharpness}")


def _kernel(scale: LabelScale, true_label: int, sharpness: float) -> tuple[float, ...]:
    """Predicted distribution for one document: decay away from the truth."""
    if math.isinf(sharpness):
        return tuple(1.0 if r == true_label else 0.0 for r in scale.labels())
    weights = [sharpness ** (-abs(r - true_label)) for r in scale.labels()]
    total = sum(weights)
    return tuple(w / total for w in weights)


def generate(config: SynthConfig) -> Dataset:
    """Generate a fully-judged synthetic dataset.

    Every ranked document gets a judgment drawn from the truth prior and a
    predicted distribution from the annotator kernel, so every query is
    labeled.
    """
    width = max(3, len(str(max(config.num_queries - 1, 0))))
    n, per_query, num_labels = config.num_queries, config.docs_per_query, config.scale.num_labels
    rankings: dict[str, RankedList] = {}
    rows: dict[tuple[str, str], int] = {}
    drawn, orders = [], []
    # Every document with true label r gets kernel row r and judgment r.
    kernels = np.array([_kernel(config.scale, r, config.annotator_sharpness) for r in range(num_labels)])
    doc_ids = [f"d{j:04d}" for j in range(per_query)]

    # Query qi owns the rows qi * per_query onward, one per document in id order.
    for qi in range(n):
        qid = f"q{qi:0{width}d}"
        rng = stream(config.seed, qi)
        labels = rng.choice(num_labels, size=per_query, p=config.truth_prior)
        scores = (labels + rng.normal(0.0, 1.0, size=per_query)).tolist()
        order = sorted(range(per_query), key=lambda j: (-scores[j], doc_ids[j]))
        rankings[qid] = RankedList(query_id=qid, doc_ids=tuple(doc_ids[j] for j in order))
        rows.update(zip([(qid, doc) for doc in doc_ids], range(qi * per_query, (qi + 1) * per_query)))
        drawn.append(labels)
        orders.append(order)

    drawn = np.array(drawn, dtype=np.intp).reshape(-1)
    ranked = (np.array(orders, dtype=np.intp).reshape(n, per_query)
              + per_query * np.arange(n)[:, None]).reshape(-1)
    truth, predicted = LabelTable(rows, drawn), DistTable(rows, kernels[drawn])
    order = RankOrder(list(rankings), ranked, drawn[ranked],
                      per_query * np.arange(n + 1, dtype=np.intp), (rankings, truth, rows))
    return Dataset(scale=config.scale, rankings=rankings, truth=truth, predicted=predicted, order=order)


def bias_probs(probs: np.ndarray, beta: float) -> np.ndarray:
    """Distort predictions (distributions over the last axis) toward the
    complement of their own mass.

    Each entry becomes ((1 - beta) * p + beta * (1 - p)) / Z with Z the
    normaliser.  beta 0 is the identity (``probs`` itself is returned), 0.5
    yields the uniform distribution, and 1 the normalised inversion — e.g.
    (0.2, 0.3, 0.5) -> (0.4, 0.35, 0.25).
    """
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta!r}")
    if beta == 0.0:
        return probs
    mixed = (1.0 - beta) * probs + beta * (1.0 - probs)
    return mixed / left_sum(mixed)[..., None]


def oracle_probs(probs: np.ndarray, labels: np.ndarray, tau: float) -> np.ndarray:
    """Mix predictions (distributions over the last axis) with the one-hot
    truth ``labels`` (shape ``probs.shape[:-1]``) at strength tau.

    tau 0 is the identity (``probs`` itself is returned), 1 the perfect
    annotator; e.g. (0.5, 0.5) with truth 1 at tau 0.5 -> (0.25, 0.75).  A
    negative label marks an unjudged row, which has nothing to mix toward.
    """
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must lie in [0, 1], got {tau!r}")
    if tau == 0.0:
        return probs
    labels = np.asarray(labels)
    if (labels < 0).any():
        raise UnlabeledQueryError("a prediction has no judgment to mix toward")
    if (labels >= probs.shape[-1]).any():
        raise ValueError("a true label is off the distributions' scale")
    one_hot = labels[..., None] == np.arange(probs.shape[-1])
    return (1.0 - tau) * probs + np.where(one_hot, tau, 0.0)


def bias_dataset(dataset: Dataset, beta: float) -> Dataset:
    """Apply :func:`bias_probs` to every predicted distribution."""
    if beta == 0.0:
        return dataset
    table = dataset.predicted
    return replace(dataset, predicted=table.with_probs(bias_probs(table.probs, beta)))


def oracle_dataset(dataset: Dataset, tau: float) -> Dataset:
    """Apply :func:`oracle_probs` to every predicted distribution.

    Requires a judgment for every predicted pair (synthetic datasets are
    fully judged).
    """
    if tau == 0.0:
        return dataset
    table = dataset.predicted
    labels = dataset.truth.at(table.rows)  # the label column itself when the index is shared
    unjudged = np.flatnonzero(labels < 0)
    if unjudged.size:
        key = next(islice(table.rows, int(unjudged[0]), None))
        raise UnlabeledQueryError(f"pair {key!r} has no judgment to mix toward")
    return replace(dataset, predicted=table.with_probs(oracle_probs(table.probs, labels, tau)))
