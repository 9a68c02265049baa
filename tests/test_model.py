"""Data-model validation: scales, distributions, rankings, datasets, reports."""

import pytest

from rankci.model import (
    CiReport,
    Dataset,
    Judgment,
    LabelScale,
    RankedList,
    RelevanceDistribution,
    validate_dataset,
)


def test_label_scale_counts():
    scale = LabelScale(3)
    assert scale.num_labels == 4
    assert list(scale.labels()) == [0, 1, 2, 3]


@pytest.mark.parametrize("bad", [0, -1, 1.5, "3"])
def test_label_scale_rejects_bad_max(bad):
    with pytest.raises(ValueError):
        LabelScale(bad)


def test_distribution_coerces_to_float_tuple():
    d = RelevanceDistribution((1, 0, 0))
    assert d.probs == (1.0, 0.0, 0.0)
    assert isinstance(d.probs[0], float)
    assert d.max_label == 2


def test_distribution_needs_two_labels():
    with pytest.raises(ValueError):
        RelevanceDistribution((1.0,))


def test_distribution_violations():
    assert RelevanceDistribution((0.5, 0.5)).violations() == []
    assert RelevanceDistribution((0.5, 0.5)).is_valid()

    bad_sum = RelevanceDistribution((0.5, 0.4))
    assert any("sum" in v for v in bad_sum.violations())
    assert not bad_sum.is_valid()

    negative = RelevanceDistribution((-0.2, 1.2))
    msgs = negative.violations()
    assert any("label 0" in v for v in msgs)
    assert any("label 1" in v for v in msgs)


def test_judgment_rejects_negative_or_non_int():
    Judgment(0)
    Judgment(3)
    with pytest.raises(ValueError):
        Judgment(-1)
    with pytest.raises(ValueError):
        Judgment("2")


def test_ranked_list_rejects_duplicate_docs():
    RankedList(query_id="q1", doc_ids=("a", "b"))
    with pytest.raises(ValueError, match="duplicate"):
        RankedList(query_id="q1", doc_ids=("a", "b", "a"))


def test_ranked_list_len_and_tuple_coercion():
    r = RankedList(query_id="q1", doc_ids=["a", "b", "c"])
    assert len(r) == 3
    assert isinstance(r.doc_ids, tuple)


def _tiny_dataset():
    scale = LabelScale(2)
    rankings = {
        "q1": RankedList(query_id="q1", doc_ids=("d1", "d2")),
        "q2": RankedList(query_id="q2", doc_ids=("d1",)),
    }
    truth = {
        ("q1", "d1"): Judgment(2),
        ("q1", "d2"): Judgment(0),
        # q2/d1 deliberately unjudged
    }
    predicted = {
        ("q1", "d1"): RelevanceDistribution((0.1, 0.2, 0.7)),
        ("q1", "d2"): RelevanceDistribution((0.8, 0.1, 0.1)),
        ("q2", "d1"): RelevanceDistribution((0.3, 0.3, 0.4)),
    }
    return Dataset(scale=scale, rankings=rankings, truth=truth, predicted=predicted)


def test_dataset_query_views():
    ds = _tiny_dataset()
    assert ds.queries() == ["q1", "q2"]
    assert ds.is_labeled("q1")
    assert not ds.is_labeled("q2")
    assert ds.labeled_queries() == ["q1"]


def test_labeled_queries_ignore_judgments_outside_the_ranking():
    ds = _tiny_dataset()
    rankings = {**ds.rankings, "q3": RankedList(query_id="q3", doc_ids=("d1", "d2")),
                "q4": RankedList(query_id="q4", doc_ids=("d5",)),
                "q6": RankedList(query_id="q6", doc_ids=("d1", "d2", "d3"))}
    truth = {
        **ds.truth,
        # q2 gains a judgment of a document it does not rank: still unlabeled
        ("q2", "d9"): Judgment(1),
        # q3 has every ranked document judged, plus one it does not rank
        ("q3", "d1"): Judgment(0), ("q3", "d2"): Judgment(1), ("q3", "d7"): Judgment(2),
        # a query with judgments but no ranking at all
        ("q5", "d1"): Judgment(1),
        # q4 has no judgment at all; q6 misses only its last document
        ("q6", "d1"): Judgment(1), ("q6", "d2"): Judgment(0),
    }
    ds = Dataset(scale=ds.scale, rankings=rankings, truth=truth, predicted=ds.predicted)
    assert ds.labeled_queries() == ["q1", "q3"]
    assert ds.labeled_queries() == [q for q in ds.queries() if ds.is_labeled(q)]
    assert Dataset(scale=ds.scale, rankings=rankings).labeled_queries() == []


def test_validate_dataset_clean():
    assert validate_dataset(_tiny_dataset()) == []


def test_validate_dataset_reports_each_problem():
    ds = _tiny_dataset()
    # Missing distribution.
    predicted = dict(ds.predicted)
    del predicted[("q2", "d1")]
    broken = Dataset(scale=ds.scale, rankings=ds.rankings, truth=ds.truth, predicted=predicted)
    assert any("no predicted distribution" in p for p in validate_dataset(broken))

    # Distribution on the wrong scale.
    predicted = dict(ds.predicted)
    predicted[("q1", "d1")] = RelevanceDistribution((0.5, 0.5))
    broken = Dataset(scale=ds.scale, rankings=ds.rankings, truth=ds.truth, predicted=predicted)
    assert any("labels" in p for p in validate_dataset(broken))

    # Judgment above the scale's maximum.
    truth = dict(ds.truth)
    truth[("q1", "d1")] = Judgment(5)
    broken = Dataset(scale=ds.scale, rankings=ds.rankings, truth=truth, predicted=ds.predicted)
    assert any("exceeds max_label" in p for p in validate_dataset(broken))

    # Ranking stored under the wrong key.
    rankings = dict(ds.rankings)
    rankings["qX"] = rankings.pop("q1")
    broken = Dataset(scale=ds.scale, rankings=rankings, truth=ds.truth, predicted=ds.predicted)
    assert any("query_id" in p for p in validate_dataset(broken))


def test_empty_dataset_is_valid():
    assert validate_dataset(Dataset(scale=LabelScale(1))) == []


def test_ci_report_width_and_ordering():
    r = CiReport(method="bootstrap", estimate=1.0, lower=0.5, upper=1.5, alpha=0.05)
    assert r.width == pytest.approx(1.0)
    with pytest.raises(ValueError):
        CiReport(method="bootstrap", estimate=1.0, lower=2.0, upper=1.5, alpha=0.05)


def test_ci_report_to_dict_round_trips_fields():
    r = CiReport(method="ppi", estimate=1.0, lower=0.5, upper=1.5, alpha=0.1,
                 diagnostics={"z": 1.6449})
    d = r.to_dict()
    assert d["method"] == "ppi"
    assert d["lower"] == 0.5
    assert d["diagnostics"] == {"z": 1.6449}
    # to_dict copies; mutating the copy must not touch the report
    d["diagnostics"]["z"] = 0.0
    assert r.diagnostics["z"] == 1.6449
