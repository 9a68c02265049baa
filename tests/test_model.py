"""Data-model validation: scales, distributions, rankings, datasets, reports."""

import numpy as np
import pytest

from rankci.corpus import parse_dists, write_dists
from rankci.metrics import UtilityView, parse_metric
from rankci.model import (
    CiReport,
    Dataset,
    DistTable,
    Judgment,
    LabelScale,
    RankedList,
    RelevanceDistribution,
    validate_dataset,
)
from rankci.synth import SynthConfig, bias_dataset, generate, oracle_dataset


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
    assert RelevanceDistribution((0.5, 0.5)).violations() == []

    bad_sum = RelevanceDistribution((0.5, 0.4))
    assert any("sum" in v for v in bad_sum.violations())
    assert bad_sum.violations() != []

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


def _all_ranked_pairs_judged(ds, qid):
    return all((qid, d) in ds.truth for d in ds.rankings[qid].doc_ids)


def test_dataset_query_views():
    ds = _tiny_dataset()
    assert ds.queries() == ["q1", "q2"]
    assert _all_ranked_pairs_judged(ds, "q1")
    assert not _all_ranked_pairs_judged(ds, "q2")
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
    assert ds.labeled_queries() == [q for q in ds.queries() if _all_ranked_pairs_judged(ds, q)]
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


def test_validate_dataset_requires_distributions_only_when_asked():
    ds = _tiny_dataset()
    predicted = dict(ds.predicted)
    del predicted[("q2", "d1")]
    predicted[("q1", "d2")] = RelevanceDistribution((0.8, 0.1, 0.2))  # sums to 1.1
    truth = {**ds.truth, ("q1", "d1"): Judgment(5)}
    broken = Dataset(scale=ds.scale, rankings=ds.rankings, truth=truth, predicted=predicted)
    required = validate_dataset(broken)
    assert required == validate_dataset(broken, require_dists=True)
    optional = validate_dataset(broken, require_dists=False)
    assert [p for p in required if "no predicted distribution" in p] == [
        "query 'q2' doc 'd1': no predicted distribution"]
    assert optional == [p for p in required if "no predicted distribution" not in p]
    assert any("sum" in p for p in optional) and any("exceeds max_label" in p for p in optional)


def test_distribution_sums_within_1e_6_of_one_are_valid():
    assert RelevanceDistribution((0.5, 0.5 + 5e-7)).violations() == []
    assert RelevanceDistribution((0.5, 0.5 + 5e-6)).violations() != []


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


def test_a_dict_of_distributions_becomes_a_table():
    ds = _tiny_dataset()
    table = ds.predicted
    assert isinstance(table, DistTable)
    assert list(table) == [("q1", "d1"), ("q1", "d2"), ("q2", "d1")]
    assert len(table) == 3 and ("q2", "d1") in table and ("q2", "d2") not in table
    assert table[("q1", "d2")] == RelevanceDistribution((0.8, 0.1, 0.1))
    assert table == {k: RelevanceDistribution(tuple(row)) for k, row in
                     zip(table, ([0.1, 0.2, 0.7], [0.8, 0.1, 0.1], [0.3, 0.3, 0.4]))}
    assert table.probs.shape == (3, 3) and table.widths is None
    with pytest.raises(ValueError):
        table.probs[0, 0] = 1.0  # read-only
    assert Dataset(ds.scale, ds.rankings, ds.truth, table).predicted is table
    assert Dataset(LabelScale(4)).predicted.probs.shape == (0, 5)


def test_a_table_of_unequal_lengths_keeps_each_distribution():
    dists = {("q", "a"): RelevanceDistribution((0.5, 0.5)),
             ("q", "b"): RelevanceDistribution((0.2, 0.3, 0.5))}
    table = Dataset(LabelScale(2), predicted=dists).predicted
    assert dict(table) == dists
    assert table.widths.tolist() == [2, 3]


def test_valid_data_builds_no_distribution_object_per_row(monkeypatch):
    config = SynthConfig(num_queries=12, docs_per_query=8, scale=LabelScale(3),
                         truth_prior=(0.4, 0.3, 0.2, 0.1), annotator_sharpness=3.0, seed=2)
    text = write_dists(generate(config).predicted)
    built = []
    post_init = RelevanceDistribution.__post_init__
    monkeypatch.setattr(RelevanceDistribution, "__post_init__",
                        lambda self: (built.append(self), post_init(self))[1])
    ds = generate(config)
    loaded = Dataset(ds.scale, ds.rankings, ds.truth, parse_dists(text, ds.scale))
    assert validate_dataset(loaded) == []
    spec = parse_metric("dcg@5")
    for d in (ds, loaded, bias_dataset(ds, 0.3), oracle_dataset(ds, 0.6)):
        UtilityView(spec, d, d.queries()).predicted_utilities()
    assert built == []
    assert np.array_equal(loaded.predicted.probs, ds.predicted.probs)
