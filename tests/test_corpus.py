"""Corpus file formats: parsing and canonical writing."""

import json

import pytest

from rankci.corpus import (
    build_dataset,
    infer_scale_from_dists,
    parse_dists,
    parse_qrels,
    parse_run,
    write_dists,
    write_qrels,
    write_run,
)
from rankci.errors import ParseError
from rankci.model import Judgment, LabelScale, RankedList, RelevanceDistribution
from rankci.synth import SynthConfig, generate

RUN_TEXT = """\
q2 Q0 docB 1 9.5 sys
q1 Q0 docA 1 3.0 sys
q1 Q0 docC 2 1.5 sys
q1 Q0 docB 3 1.5 sys
"""

QRELS_TEXT = """\
q1 0 docA 2
q1 0 docB 0
q1 0 docC 1
q2 0 docB 1
"""


def test_parse_run_orders_by_score_then_doc_id():
    rankings = parse_run(RUN_TEXT)
    assert sorted(rankings) == ["q1", "q2"]
    # docB and docC tie at 1.5; docB wins the tie alphabetically
    assert rankings["q1"].doc_ids == ("docA", "docB", "docC")
    assert rankings["q2"].doc_ids == ("docB",)


def test_parse_run_ignores_the_stored_rank_column():
    scrambled = "q1 Q0 docA 99 3.0 sys\nq1 Q0 docB 1 1.0 sys\n"
    assert parse_run(scrambled)["q1"].doc_ids == ("docA", "docB")


def test_parse_run_reports_line_numbers():
    with pytest.raises(ParseError, match="line 2"):
        parse_run("q1 Q0 docA 1 3.0 sys\nq1 Q0 docA 1\n")
    with pytest.raises(ParseError, match="line 3"):
        parse_run("q1 Q0 docA 1 3.0 sys\n\nq1 Q0 docB 1 oops sys\n")
    with pytest.raises(ParseError, match="duplicate"):
        parse_run("q1 Q0 docA 1 3.0 sys\nq1 Q0 docA 2 2.0 sys\n")


def test_parse_qrels_checks_the_scale():
    truth = parse_qrels(QRELS_TEXT, LabelScale(2))
    assert truth[("q1", "docA")] == Judgment(2)
    assert len(truth) == 4
    with pytest.raises(ParseError, match="scale"):
        parse_qrels("q1 0 docA 7\n", LabelScale(2))
    with pytest.raises(ParseError, match="duplicate"):
        parse_qrels("q1 0 docA 1\nq1 0 docA 1\n", LabelScale(2))
    with pytest.raises(ParseError, match="line 1"):
        parse_qrels("q1 docA 1\n", LabelScale(2))


def test_parse_dists_validates_each_line():
    ok = '{"qid": "q1", "docid": "d1", "probs": [0.25, 0.75]}\n'
    dists = parse_dists(ok, LabelScale(1))
    assert dists[("q1", "d1")].probs == (0.25, 0.75)

    cases = [
        "not json",
        "[0.5, 0.5]",
        '{"qid": "q1", "probs": [0.5, 0.5]}',
        '{"qid": "q1", "docid": "d1", "probs": [0.5, 0.5, 0.0]}',
        '{"qid": "q1", "docid": "d1", "probs": [0.5, "x"]}',
        '{"qid": "q1", "docid": "d1", "probs": [0.9, 0.3]}',
        '{"qid": "q1", "docid": "d1", "probs": [-0.1, 1.1]}',
    ]
    for bad in cases:
        with pytest.raises(ParseError):
            parse_dists(bad + "\n", LabelScale(1))
    with pytest.raises(ParseError, match="line 2"):
        parse_dists(ok + ok, LabelScale(1))  # duplicate pair


def test_infer_scale_from_dists():
    text = '{"qid": "q1", "docid": "d1", "probs": [0.2, 0.3, 0.5]}\n'
    assert infer_scale_from_dists(text) == LabelScale(2)
    with pytest.raises(ParseError):
        infer_scale_from_dists("")
    with pytest.raises(ParseError):
        infer_scale_from_dists("garbage\n")


def test_crlf_and_blank_lines_are_tolerated():
    text = "q1 Q0 docA 1 3.0 sys\r\n\r\nq1 Q0 docB 2 1.0 sys\r\n"
    assert parse_run(text)["q1"].doc_ids == ("docA", "docB")


def test_run_round_trip_is_canonical():
    rankings = parse_run(RUN_TEXT)
    text = write_run(rankings)
    assert parse_run(text) == rankings
    assert write_run(parse_run(text)) == text


def test_qrels_round_trip_is_canonical():
    truth = parse_qrels(QRELS_TEXT, LabelScale(2))
    text = write_qrels(truth)
    assert parse_qrels(text, LabelScale(2)) == truth
    assert write_qrels(parse_qrels(text, LabelScale(2))) == text


def test_dists_round_trip_preserves_floats_exactly():
    # values with no short decimal representation
    probs = (1 / 3, 1 / 7, 1 - 1 / 3 - 1 / 7)
    dists = {("q1", "d1"): RelevanceDistribution(probs)}
    text = write_dists(dists)
    again = parse_dists(text, LabelScale(2))
    assert again[("q1", "d1")].probs == probs  # bit-exact, not approx
    assert write_dists(again) == text


def test_writers_emit_sorted_lf_lines():
    ds = generate(SynthConfig(num_queries=4, docs_per_query=3, scale=LabelScale(1),
                              truth_prior=(0.6, 0.4), annotator_sharpness=3.0, seed=1))
    for text in (write_run(ds.rankings), write_qrels(ds.truth), write_dists(ds.predicted)):
        assert "\r" not in text
        assert text.endswith("\n")
    # qrels and dists lines are fully sorted; run lines are grouped by query
    # in rank order instead
    for text in (write_qrels(ds.truth), write_dists(ds.predicted)):
        assert text.splitlines() == sorted(text.splitlines())
    run_lines = write_run(ds.rankings).splitlines()
    keys = [(line.split()[0], int(line.split()[3])) for line in run_lines]
    assert keys == sorted(keys)


def test_write_run_emits_six_fields_and_recomputable_ranks():
    ds = generate(SynthConfig(num_queries=2, docs_per_query=4, scale=LabelScale(1),
                              truth_prior=(0.6, 0.4), annotator_sharpness=3.0, seed=1))
    for line in write_run(ds.rankings, tag="mytag").splitlines():
        fields = line.split()
        assert len(fields) == 6
        assert fields[5] == "mytag"


def test_build_dataset_infers_scale():
    run = "q1 Q0 d1 1 2.0 sys\n"
    dists = '{"qid": "q1", "docid": "d1", "probs": [0.2, 0.8]}\n'
    qrels = "q1 0 d1 1\n"
    ds = build_dataset(run, dists, qrels)
    assert ds.scale == LabelScale(1)
    assert ds.labeled_queries() == ["q1"]
    ds2 = build_dataset(run, dists, None)
    assert ds2.truth == {}

