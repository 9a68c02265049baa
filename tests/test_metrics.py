"""Metric grammar, rank weights, gains, and the utility computations."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankci.errors import EmptyQuerySetError, MissingDistributionError, UnlabeledQueryError
from rankci.metrics import (
    MetricSpec,
    UtilityView,
    dataset_utility,
    expected_gain,
    format_metric,
    gain,
    gain_vector,
    parse_metric,
    predicted_utilities,
    query_utility_true,
    rank_weight,
    true_utilities,
)
from rankci.model import Dataset, Judgment, LabelScale, RankedList, RelevanceDistribution


# --- parsing ---------------------------------------------------------------


def test_parse_metric_dcg_uses_exponential_gain():
    assert parse_metric("dcg@10") == MetricSpec("dcg", 10, "exponential")


def test_parse_metric_prec_uses_identity_gain():
    assert parse_metric("prec@5") == MetricSpec("precision", 5, "identity")


def test_parse_metric_is_case_and_space_tolerant():
    assert parse_metric("  DCG@3 ") == MetricSpec("dcg", 3, "exponential")


@pytest.mark.parametrize("bad", ["ndcg@3", "dcg", "dcg@", "dcg@0", "prec@-1", "map", ""])
def test_parse_metric_rejects_junk(bad):
    with pytest.raises(ValueError):
        parse_metric(bad)


def test_format_metric_round_trips():
    for name in ("dcg@10", "prec@5", "dcg@1"):
        assert format_metric(parse_metric(name)) == name


def test_metric_spec_validates_fields():
    with pytest.raises(ValueError):
        MetricSpec("map", 10, "identity")
    with pytest.raises(ValueError):
        MetricSpec("dcg", 0, "exponential")
    with pytest.raises(ValueError):
        MetricSpec("dcg", 10, "log")


# --- weights and gains -----------------------------------------------------


def test_precision_weights_are_uniform_within_cutoff():
    spec = parse_metric("prec@5")
    assert [rank_weight(spec, r) for r in range(1, 6)] == [0.2] * 5
    assert rank_weight(spec, 6) == 0.0


def test_dcg_weights_follow_log_discount():
    spec = parse_metric("dcg@10")
    assert rank_weight(spec, 1) == pytest.approx(1.0)
    assert rank_weight(spec, 2) == pytest.approx(1.0 / math.log2(3))
    assert rank_weight(spec, 3) == pytest.approx(0.5)
    assert rank_weight(spec, 11) == 0.0


def test_rank_weight_rejects_bad_rank():
    spec = parse_metric("dcg@10")
    with pytest.raises(ValueError):
        rank_weight(spec, 0)
    with pytest.raises(ValueError):
        rank_weight(spec, 1.5)


def test_gain_identity_and_exponential():
    prec = parse_metric("prec@5")
    dcg = parse_metric("dcg@5")
    assert gain(prec, 3) == 3.0
    assert gain(dcg, 3) == 7.0
    assert gain(dcg, 0) == 0.0
    with pytest.raises(ValueError):
        gain(dcg, -1)


def test_gain_vector_matches_scalar_gain():
    dcg = parse_metric("dcg@5")
    assert gain_vector(dcg, LabelScale(3)).tolist() == [0.0, 1.0, 3.0, 7.0]


def test_expected_gain_weights_by_probability():
    dcg = parse_metric("dcg@5")
    dist = RelevanceDistribution((0.5, 0.25, 0.25))
    # 0.5*0 + 0.25*1 + 0.25*3
    assert expected_gain(dcg, dist) == pytest.approx(1.0)


# --- per-query utilities ---------------------------------------------------


def _dataset_for_worked_example():
    """Three ranked documents with true labels 3, 0, 2 on a 0-3 scale."""
    scale = LabelScale(3)
    ranking = RankedList(query_id="q1", doc_ids=("a", "b", "c"))
    truth = {("q1", "a"): Judgment(3), ("q1", "b"): Judgment(0), ("q1", "c"): Judgment(2)}
    one_hot = {3: (0, 0, 0, 1.0), 0: (1.0, 0, 0, 0), 2: (0, 0, 1.0, 0)}
    predicted = {key: RelevanceDistribution(one_hot[j.label]) for key, j in truth.items()}
    return Dataset(scale=scale, rankings={"q1": ranking}, truth=truth, predicted=predicted)


def test_dcg_worked_example():
    # 7/log2(2) + 0/log2(3) + 3/log2(4) = 7 + 0 + 1.5
    ds = _dataset_for_worked_example()
    spec = parse_metric("dcg@10")
    assert query_utility_true(spec, ds.rankings["q1"], ds.truth) == pytest.approx(8.5)


def test_precision_worked_example():
    # (3 + 0 + 2) / 5 with identity gain
    ds = _dataset_for_worked_example()
    spec = parse_metric("prec@5")
    assert query_utility_true(spec, ds.rankings["q1"], ds.truth) == pytest.approx(1.0)


def test_one_hot_predictions_reproduce_true_utility():
    ds = _dataset_for_worked_example()
    for name in ("dcg@10", "prec@5", "dcg@2"):
        spec = parse_metric(name)
        t = query_utility_true(spec, ds.rankings["q1"], ds.truth)
        p = predicted_utilities(spec, ds, ["q1"])["q1"]
        assert p == pytest.approx(t, abs=1e-12)


def test_unjudged_document_within_cutoff_raises():
    ds = _dataset_for_worked_example()
    truth = dict(ds.truth)
    del truth[("q1", "b")]
    with pytest.raises(UnlabeledQueryError, match="rank 2"):
        query_utility_true(parse_metric("dcg@10"), ds.rankings["q1"], truth)


def test_unjudged_document_past_cutoff_is_fine():
    ds = _dataset_for_worked_example()
    truth = dict(ds.truth)
    del truth[("q1", "c")]  # rank 3
    spec = parse_metric("dcg@2")
    assert query_utility_true(spec, ds.rankings["q1"], truth) == pytest.approx(7.0)


def test_missing_distribution_raises():
    ds = _dataset_for_worked_example()
    predicted = dict(ds.predicted)
    del predicted[("q1", "a")]
    with pytest.raises(MissingDistributionError):
        predicted_utilities(parse_metric("dcg@10"), Dataset(ds.scale, ds.rankings, ds.truth, predicted))


# --- dataset-level utilities ------------------------------------------------


def test_dataset_utility_is_unweighted_mean():
    spec = parse_metric("prec@5")
    per_query = {"q1": 1.0, "q2": 3.0}
    assert dataset_utility(spec, ["q1", "q2"], per_query) == pytest.approx(2.0)
    assert dataset_utility(spec, ["q2"], per_query) == pytest.approx(3.0)


def test_dataset_utility_rejects_empty_query_set():
    with pytest.raises(EmptyQuerySetError):
        dataset_utility(parse_metric("prec@5"), [], {})


def test_utilities_default_query_selection():
    ds = _dataset_for_worked_example()
    spec = parse_metric("dcg@10")
    assert set(true_utilities(spec, ds)) == {"q1"}
    assert set(predicted_utilities(spec, ds)) == {"q1"}
    assert true_utilities(spec, ds)["q1"] == pytest.approx(8.5)


# --- the dense top-K view, against a per-document reference ---------------------


@st.composite
def partly_judged(draw):
    """Queries with rankings of 1-12 documents (often shorter than the
    cutoff) on a 0-3 scale, each document judged with probability 3/4."""
    spec = MetricSpec(draw(st.sampled_from(["dcg", "precision"])), draw(st.integers(1, 10)),
                      draw(st.sampled_from(["identity", "exponential"])))
    rankings, truth, predicted = {}, {}, {}
    for qi in range(draw(st.integers(1, 6))):
        qid = f"q{qi}"
        docs = tuple(f"d{j}" for j in range(draw(st.integers(1, 12))))
        rankings[qid] = RankedList(qid, docs)
        for doc in docs:
            if draw(st.integers(0, 3)):
                truth[(qid, doc)] = Judgment(draw(st.integers(0, 3)))
            raw = draw(st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4))
            predicted[(qid, doc)] = RelevanceDistribution(tuple(p / sum(raw) for p in raw))
    return spec, Dataset(LabelScale(3), rankings, truth, predicted)


def _reference(spec, ds, qid):
    """(true utility or None when a top-K document is unjudged, predicted
    utility), one document at a time."""
    true_total, pred_total = 0.0, 0.0
    for rank, doc in enumerate(ds.rankings[qid].doc_ids[: spec.cutoff_k], start=1):
        w = rank_weight(spec, rank)
        judgment = ds.truth.get((qid, doc))
        if judgment is None or true_total is None:
            true_total = None
        else:
            true_total += w * gain(spec, judgment.label)
        probs = ds.predicted[(qid, doc)].probs
        pred_total += w * sum(p * gain(spec, r) for r, p in enumerate(probs))
    return true_total, pred_total


@settings(derandomize=True, deadline=None, max_examples=60)
@given(data=partly_judged())
def test_view_utilities_equal_a_per_document_reference(data):
    spec, ds = data
    qs = ds.queries()
    ref = {q: _reference(spec, ds, q) for q in qs}
    view = UtilityView(spec, ds, qs)
    assert view.predicted_utilities().tolist() == [ref[q][1] for q in qs]
    assert predicted_utilities(spec, ds) == {q: ref[q][1] for q in qs}
    for q in qs:
        assert predicted_utilities(spec, ds, [q]) == {q: ref[q][1]}
        if ref[q][0] is None:
            with pytest.raises(UnlabeledQueryError, match=f"query '{q}'"):
                query_utility_true(spec, ds.rankings[q], ds.truth)
        else:
            assert query_utility_true(spec, ds.rankings[q], ds.truth) == ref[q][0]
    judged = [q for q in qs if ref[q][0] is not None]
    assert true_utilities(spec, ds, judged) == {q: ref[q][0] for q in judged}
    # A subset in another order, with a repeat, reads the same rows.
    picked = judged[::-1] + judged[:1]
    sub = view.subset(picked)
    assert sub.true_utilities().tolist() == [ref[q][0] for q in picked]
    assert sub.predicted_utilities().tolist() == [ref[q][1] for q in picked]
    if len(judged) < len(qs):
        with pytest.raises(UnlabeledQueryError):
            view.true_utilities()


def test_one_query_helpers_read_only_the_rankings_own_pairs():
    spec, ds = parse_metric("dcg@10"), _dataset_for_worked_example()
    expected = query_utility_true(spec, ds.rankings["q1"], ds.truth)
    # A pair of another query that is not a judgment at all is never read.
    truth = {**ds.truth, ("q9", "x"): "not a judgment"}
    assert query_utility_true(spec, ds.rankings["q1"], truth) == expected


def test_view_without_predictions_reads_truth_only():
    ds = _dataset_for_worked_example()
    bare = Dataset(ds.scale, ds.rankings, ds.truth, {})
    view = UtilityView(parse_metric("dcg@10"), bare, ["q1"], predictions=False)
    assert view.probs is None
    assert view.true_utilities().tolist() == [8.5]
    with pytest.raises(MissingDistributionError, match="rank 1"):
        UtilityView(parse_metric("dcg@10"), bare, ["q1"])
    assert np.array_equal(view.segments, [0, 0, 0]) and view.starts.tolist() == [0, 3]
