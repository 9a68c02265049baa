"""The dataset's columns: truth as a label column, rank order as an index,
and the array readers over them, each checked against a per-pair loop.

Run derandomized, so every run draws the same examples."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankci.errors import MissingDistributionError, UnlabeledQueryError
from rankci.harness import METHODS, sweep
from rankci.metrics import MetricSpec, UtilityView, rank_weight
from rankci.model import (Dataset, Judgment, LabelScale, LabelTable, RankedList, RankOrder,
                          RelevanceDistribution, validate_dataset)
from rankci.synth import SynthConfig, bias_dataset, generate, oracle_dataset

PROPERTY = settings(derandomize=True, deadline=None, max_examples=150)
NAMES = [f"q{i}" for i in range(5)]
DOCS = [f"d{j}" for j in range(6)]


@st.composite
def raw_datasets(draw):
    """A scale and the rankings, truth and predicted dicts of a small dataset
    with every kind of gap: unjudged ranked documents, judgments and
    distributions of unranked pairs, missing and invalid distributions,
    labels above the scale, rankings stored under another query's key and
    empty rankings."""
    max_label = draw(st.integers(1, 3))
    rankings = {}
    for key in draw(st.lists(st.sampled_from(NAMES), unique=True, max_size=5)):
        docs = draw(st.lists(st.sampled_from(DOCS), unique=True, max_size=6))
        owner = draw(st.sampled_from([key, key, key, "qX"]))
        rankings[key] = RankedList(owner, tuple(docs))
    pairs = st.tuples(st.sampled_from(NAMES + ["qY"]), st.sampled_from(DOCS + ["dZ"]))
    truth = {k: Judgment(draw(st.integers(0, max_label + 1)))
             for k in draw(st.lists(pairs, unique=True, max_size=24))}
    predicted = {}
    for k in draw(st.lists(pairs, unique=True, max_size=24)):
        width = draw(st.sampled_from([max_label + 1] * 4 + [2, 5]))
        raw = draw(st.lists(st.floats(0.0, 1.0), min_size=width, max_size=width))
        if draw(st.booleans()) and sum(raw) > 0:
            raw = [p / sum(raw) for p in raw]
        predicted[k] = RelevanceDistribution(tuple(raw))
    return LabelScale(max_label), rankings, truth, predicted


def _labeled_reference(rankings, truth):
    return [q for q in sorted(rankings) if all((q, d) in truth for d in rankings[q].doc_ids)]


def _validate_reference(scale, rankings, truth, predicted, require_dists):
    """The problem list, one ranked document and one judgment at a time."""
    problems = []
    for qid, ranking in rankings.items():
        if ranking.query_id != qid:
            problems.append(f"ranking stored under {qid!r} has query_id {ranking.query_id!r}")
        for doc in ranking.doc_ids:
            dist = predicted.get((qid, doc))
            if dist is None:
                if require_dists:
                    problems.append(f"query {qid!r} doc {doc!r}: no predicted distribution")
                continue
            if dist.max_label != scale.max_label:
                problems.append(f"query {qid!r} doc {doc!r}: distribution has {len(dist.probs)} "
                                f"labels, scale has {scale.num_labels}")
            problems.extend(f"query {qid!r} doc {doc!r}: {v}" for v in dist.violations())
    for (qid, doc), judgment in truth.items():
        if judgment.label > scale.max_label:
            problems.append(f"query {qid!r} doc {doc!r}: label {judgment.label} exceeds "
                            f"max_label {scale.max_label}")
    return problems


def _view_reference(spec, rankings, truth, predicted, qids, width, predictions):
    """(labels, probs, weights, starts) of the view's rows, or the text of the
    MissingDistributionError it raises, one document at a time."""
    labels, probs, weights, starts = [], [], [], [0]
    for qid in qids:
        docs = rankings[qid].doc_ids[: spec.cutoff_k]
        for rank, doc in enumerate(docs, start=1):
            judgment = truth.get((qid, doc))
            labels.append(-1 if judgment is None else judgment.label)
            dist = predicted.get((qid, doc))
            if predictions and dist is None:
                return (f"query {qid!r}: document {doc!r} at rank {rank} "
                        "has no predicted distribution")
            if predictions:
                probs.append(dist.probs + (np.nan,) * (width - len(dist.probs)))
            weights.append(rank_weight(spec, rank))
        starts.append(starts[-1] + len(docs))
    return labels, np.array(probs, dtype=float).reshape(-1, width), weights, starts


def _unjudged_reference(spec, rankings, truth, qids):
    for qid in qids:
        for rank, doc in enumerate(rankings[qid].doc_ids[: spec.cutoff_k], start=1):
            if (qid, doc) not in truth:
                return f"query {qid!r}: document {doc!r} at rank {rank} has no judgment"
    return None


@PROPERTY
@given(data=raw_datasets(), draw=st.data())
def test_array_readers_equal_a_per_pair_reference(data, draw):
    scale, rankings, truth, predicted = data
    ds = Dataset(scale, rankings, truth, predicted)
    # Both tables keep exactly their keys, values, order and length.
    assert list(ds.truth.items()) == list(truth.items()) and len(ds.truth) == len(truth)
    assert list(ds.predicted.items()) == list(predicted.items())
    assert len(ds.predicted) == len(predicted)

    assert ds.labeled_queries() == _labeled_reference(rankings, truth)
    for require in (True, False):
        assert (validate_dataset(ds, require_dists=require)
                == _validate_reference(scale, rankings, truth, predicted, require))

    if not rankings:
        return
    qids = draw.draw(st.lists(st.sampled_from(sorted(rankings)), max_size=8))
    spec = MetricSpec(draw.draw(st.sampled_from(["dcg", "precision"])),
                      draw.draw(st.integers(1, 7)), "exponential")
    width = ds.predicted.probs.shape[1]
    for predictions in (True, False):
        ref = _view_reference(spec, rankings, truth, predicted, qids, width, predictions)
        if isinstance(ref, str):
            with pytest.raises(MissingDistributionError) as e:
                UtilityView(spec, ds, qids, predictions=predictions)
            assert str(e.value) == ref
            continue
        view = UtilityView(spec, ds, qids, predictions=predictions)
        labels, probs, weights, starts = ref
        assert view.labels.tolist() == labels
        assert view.weights.tolist() == weights
        assert view.starts.tolist() == starts
        assert view.segments.tolist() == np.repeat(np.arange(len(qids)), np.diff(starts)).tolist()
        if predictions:
            assert np.array_equal(view.probs, probs, equal_nan=True)
        else:
            assert view.probs is None
        unjudged = _unjudged_reference(spec, rankings, truth, qids)
        if unjudged is None:
            view.true_utilities()
        else:
            with pytest.raises(UnlabeledQueryError) as e:
                view.true_utilities()
            assert str(e.value) == unjudged


def _small(queries=24, docs=6, seed=3):
    return generate(SynthConfig(num_queries=queries, docs_per_query=docs, scale=LabelScale(2),
                                truth_prior=(0.5, 0.3, 0.2), annotator_sharpness=3.0, seed=seed))


@settings(derandomize=True, deadline=None, max_examples=8)
@given(n_grid=st.lists(st.integers(2, 14), min_size=1, max_size=2, unique=True),
       beta_grid=st.lists(st.sampled_from([0.0, 0.3, 1.0]), min_size=1, max_size=2, unique=True),
       tau_grid=st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=1, max_size=2, unique=True),
       methods=st.lists(st.sampled_from(METHODS), min_size=1, max_size=3, unique=True),
       seed=st.integers(0, 1000))
def test_sweep_rows_do_not_depend_on_workers(n_grid, beta_grid, tau_grid, methods, seed):
    ds = _small(seed=seed)
    kwargs = dict(n_grid=tuple(n_grid), beta_grid=tuple(beta_grid), tau_grid=tuple(tau_grid),
                  methods=tuple(methods), repeats=2, num_batches=100, seed=seed, split_seed=seed + 1)
    spec = MetricSpec("dcg", 5, "exponential")
    assert sweep(ds, spec, workers=1, **kwargs) == sweep(ds, spec, workers=3, **kwargs)


def test_generated_columns_equal_the_columns_built_from_the_dicts():
    ds = _small(queries=13, docs=7)
    built = Dataset(ds.scale, dict(ds.rankings), dict(ds.truth), dict(ds.predicted))
    # The generated tables re-wrapped: a new order over the same shared index.
    shared = Dataset(ds.scale, ds.rankings, ds.truth, ds.predicted)
    assert ds.truth.rows is ds.predicted.rows  # one index for both tables
    for rebuilt in (built, shared):
        assert rebuilt.order is not ds.order
        for name in ("rows", "labels", "starts"):
            assert np.array_equal(getattr(rebuilt.order, name), getattr(ds.order, name))
        assert rebuilt.order.query_ids == ds.order.query_ids == ds.queries()
    assert np.array_equal(built.predicted.probs, ds.predicted.probs)


def test_new_rankings_or_truth_rebuild_the_rank_order():
    ds = _small()
    first = ds.queries()[0]
    rankings = {**ds.rankings, first: RankedList(first, ds.rankings[first].doc_ids[::-1])}
    moved = dataclasses.replace(ds, rankings=rankings)
    assert moved.order is not ds.order
    n = len(rankings[first])
    assert moved.order.rows[:n].tolist() == ds.order.rows[:n][::-1].tolist()
    truth = dict(ds.truth)
    del truth[(first, rankings[first].doc_ids[0])]
    assert dataclasses.replace(ds, truth=truth).labeled_queries() == ds.queries()[1:]


def test_a_dataset_derives_its_rank_order_once_on_first_use(monkeypatch):
    calls, of = [], RankOrder.of.__func__
    monkeypatch.setattr(RankOrder, "of", classmethod(lambda cls, *a: calls.append(a) or of(cls, *a)))
    made = (_small(), Dataset(LabelScale(1), {"q": RankedList("q", ("a", "b"))},
                              {("q", "a"): Judgment(1), ("q", "b"): Judgment(0)}))
    assert calls == []
    for ds in made:
        copy = dataclasses.replace(ds)
        assert calls == []
        for _ in range(2):
            assert ds.order is ds.order
            assert ds.queries() and ds.labeled_queries() == ds.queries()
        assert calls == [(ds.rankings, ds.truth, ds.predicted)]
        assert copy.order is not ds.order and len(calls) == 2
        calls.clear()


def test_a_replaced_field_gives_the_rank_order_of_the_new_fields():
    ds = _small(queries=7, docs=5)
    assert ds.order.query_ids  # built before the replaces, which must not carry it over
    first, last = ds.queries()[0], ds.queries()[-1]
    rankings = {**ds.rankings, first: RankedList(first, ds.rankings[first].doc_ids[:2][::-1])}
    del rankings[last]
    truth = {k: v for k, v in ds.truth.items() if k[1] != "d0001"}
    predicted = {k: v for k, v in ds.predicted.items() if k[0] != first}
    for new in (dataclasses.replace(ds, rankings=rankings), dataclasses.replace(ds, truth=truth),
                dataclasses.replace(ds, predicted=predicted), bias_dataset(ds, 0.4),
                oracle_dataset(ds, 0.6)):
        want = RankOrder.of(new.rankings, new.truth, new.predicted)
        assert new.order.query_ids == want.query_ids and new.order.where == want.where
        for name in ("rows", "labels", "starts"):
            assert np.array_equal(getattr(new.order, name), getattr(want, name))
    assert dataclasses.replace(ds, rankings=rankings).queries() == ds.queries()[:-1]
    assert -1 in dataclasses.replace(ds, truth=truth).order.labels
    assert -1 in dataclasses.replace(ds, predicted=predicted).order.rows


def test_a_label_table_reads_as_its_dict():
    truth = {("q", "b"): Judgment(2), ("q", "a"): Judgment(0), ("r", "a"): Judgment(1)}
    table = LabelTable.of(truth)
    assert table == truth and list(table) == list(truth) and len(table) == 3
    assert ("q", "a") in table and ("q", "z") not in table
    assert table[("q", "b")] == Judgment(2) and table.get(("x", "y")) is None
    assert table.at([("r", "a"), ("q", "z"), ("q", "b")]).tolist() == [1, -1, 2]
    assert table.at(table.rows).tolist() == table.labels.tolist()
    with pytest.raises(ValueError):
        table.labels[0] = 3  # read-only
    assert isinstance(Dataset(LabelScale(2), truth=truth).truth, LabelTable)


def test_an_empty_ranking_counts_as_labeled_wherever_it_sits():
    rankings = {q: RankedList(q, docs) for q, docs in
                (("a", ()), ("b", ("x",)), ("c", ()), ("d", ("x", "y")), ("e", ()))}
    ds = Dataset(LabelScale(1), rankings, {("b", "x"): Judgment(1), ("d", "y"): Judgment(0)})
    assert ds.labeled_queries() == ["a", "b", "c", "e"]
    assert isinstance(ds.order, RankOrder) and ds.order.starts.tolist() == [0, 0, 1, 1, 3, 3]
    assert Dataset(LabelScale(1)).labeled_queries() == []


def _order_labels_reference(ds):
    # Through the truth's Mapping interface, not LabelTable.at: RankOrder.of
    # calls that, so the property would compare it with itself.
    keys = [(q, d) for q in sorted(ds.rankings) for d in ds.rankings[q].doc_ids]
    return np.array([ds.truth[k].label if k in ds.truth else -1 for k in keys], np.intp)


@PROPERTY
@given(data=raw_datasets())
def test_rank_order_labels_equal_a_lookup_of_every_ranked_pair(data):
    scale, rankings, truth, predicted = data
    ds = Dataset(scale, rankings, truth, predicted)
    expected = _order_labels_reference(ds)
    assert ds.order.labels.dtype == expected.dtype
    assert ds.order.labels.tolist() == expected.tolist()


def test_rank_order_labels_cover_every_kind_of_pair():
    """Judged pairs without a distribution, unjudged ranked pairs and judged
    pairs that are not ranked, beside the shared-rows synthetic case."""
    dist = RelevanceDistribution((0.5, 0.5))
    rankings = {"a": RankedList("a", ("x", "y", "z")), "b": RankedList("b", ("x", "w"))}
    truth = {("a", "x"): Judgment(1), ("a", "z"): Judgment(0), ("b", "w"): Judgment(1),
             ("c", "x"): Judgment(0), ("b", "v"): Judgment(1)}
    predicted = {("a", "x"): dist, ("a", "y"): dist, ("b", "x"): dist, ("c", "x"): dist}
    ds = Dataset(LabelScale(1), rankings, truth, predicted)
    assert ds.truth.rows is not ds.predicted.rows
    # a/z and b/w are judged without a distribution; a/y and b/x are unjudged
    # ranked pairs; c/x (with a distribution) and b/v are judged, not ranked.
    assert ds.order.rows.tolist() == [0, 1, -1, 2, -1]
    assert ds.order.labels.tolist() == _order_labels_reference(ds).tolist() == [1, -1, 0, -1, 1]
    synthetic = _small(queries=9, docs=5)
    assert synthetic.truth.rows is synthetic.predicted.rows
    assert synthetic.order.labels.tolist() == _order_labels_reference(synthetic).tolist()


def test_rank_order_labels_a_few_ranked_pairs_over_a_large_truth():
    truth = LabelTable.of({(f"q{i}", f"d{j}"): Judgment((i + j) % 3)
                           for i in range(200) for j in range(50)})
    ds = Dataset(LabelScale(2), {"q7": RankedList("q7", ("d3", "d49", "dX", "d0"))}, truth,
                 {("q7", "d3"): RelevanceDistribution((0.2, 0.3, 0.5))})
    assert ds.order.rows.tolist() == [0, -1, -1, -1]
    assert ds.order.labels.tolist() == _order_labels_reference(ds).tolist() == [1, 2, -1, 1]
