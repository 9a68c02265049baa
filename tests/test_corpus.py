"""Corpus file formats: parsing and canonical writing."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from rankci.metrics import MetricSpec, UtilityView
from rankci.model import (Dataset, Judgment, LabelScale, RankedList, RelevanceDistribution,
                          validate_dataset)
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


def test_parse_run_rejects_a_nan_score_in_either_line_order():
    lines = ["q1 Q0 a 1 nan sys", "q1 Q0 b 2 1.0 sys", "q1 Q0 c 3 2.0 sys"]
    for order, lineno in ((lines, 1), (lines[::-1], 3)):
        with pytest.raises(ParseError, match=f"line {lineno}: score 'nan' is not a number"):
            parse_run("\n".join(order) + "\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_run("q1 Q0 a 1 -NaN sys\n")
    infinite = "q1 Q0 a 1 -inf sys\nq1 Q0 b 2 1.0 sys\nq1 Q0 c 3 inf sys\nq1 Q0 d 4 inf sys\n"
    assert parse_run(infinite)["q1"].doc_ids == ("c", "d", "b", "a")


def test_parse_run_reports_line_numbers():
    with pytest.raises(ParseError, match="line 2"):
        parse_run("q1 Q0 docA 1 3.0 sys\nq1 Q0 docA 1\n")
    with pytest.raises(ParseError, match="line 3"):
        parse_run("q1 Q0 docA 1 3.0 sys\n\nq1 Q0 docB 1 oops sys\n")
    with pytest.raises(ParseError, match="duplicate"):
        parse_run("q1 Q0 docA 1 3.0 sys\nq1 Q0 docA 2 2.0 sys\n")


def test_parse_run_names_the_line_of_a_duplicate_pair_only():
    # The same document under another query is not a duplicate.
    text = "q1 Q0 a 1 3.0 s\nq2 Q0 a 1 3.0 s\nq2 Q0 b 2 1.0 s\nq1 Q0 b 2 2.0 s\nq2 Q0 a 3 0.5 s\n"
    with pytest.raises(ParseError, match="line 5: duplicate entry for query 'q2' doc 'a'"):
        parse_run(text)
    assert parse_run(text.rsplit("q2 Q0 a 3", 1)[0])["q2"].doc_ids == ("a", "b")


@settings(derandomize=True, deadline=None, max_examples=60)
@given(scores=st.lists(st.sampled_from([-np.inf, -1.5, -0.0, 0.0, 2.0, 2.5, np.inf]),
                       min_size=1, max_size=30),
       seed=st.integers(0, 1000))
def test_parse_run_orders_ties_by_doc_id_whatever_the_line_order(scores, seed):
    docs = [f"d{i:02d}" for i in range(len(scores))]
    lines = [f"q1 Q0 {d} 1 {s!r} sys" for d, s in zip(docs, scores)]
    np.random.default_rng(seed).shuffle(lines)
    expected = tuple(d for _, d in sorted(zip(scores, docs), key=lambda sd: (-sd[0], sd[1])))
    assert parse_run("\n".join(lines) + "\n")["q1"].doc_ids == expected


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
    # Blank lines and CRLF endings: the first non-blank line decides, by its
    # 1-based number, and nothing after it is read.
    line = '{"qid": "q1", "docid": "d1", "probs": [0.5, 0.5]}'
    assert infer_scale_from_dists("\n  \n" + line + "\n") == LabelScale(1)
    assert infer_scale_from_dists("\r\n\r\n" + line + "\r\ngarbage\r\n") == LabelScale(1)
    assert infer_scale_from_dists(line) == LabelScale(1)  # no final newline
    bad = "cannot infer label scale from first distribution line"
    for text, lineno in (("garbage", 1), ("\n\ngarbage\n" + line, 3),
                         ("\r\n \r\n{}\r\n", 3), ('\n{"probs": 3}', 2)):
        with pytest.raises(ParseError, match=f"^line {lineno}: {bad}$") as info:
            infer_scale_from_dists(text)
        assert info.value.line == lineno
    for text in ("", "\n", " \r\n\t\r\n"):
        with pytest.raises(ParseError, match="^empty distribution file; cannot infer label scale$"):
            infer_scale_from_dists(text)


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


def test_writers_give_the_same_bytes_for_a_dict_and_a_table():
    ds = generate(SynthConfig(num_queries=5, docs_per_query=4, scale=LabelScale(2),
                              truth_prior=(0.5, 0.3, 0.2), annotator_sharpness=2.5, seed=3))
    truth = dict(reversed(list(ds.truth.items())))
    predicted = dict(reversed(list(ds.predicted.items())))
    text = write_qrels(truth)
    assert text == write_qrels(ds.truth) == write_qrels(parse_qrels(text, ds.scale))
    assert write_dists(predicted) == write_dists(ds.predicted)
    # Unequal lengths (only a hand-built mapping has them) write each vector as it is.
    odd = {("q", "b"): RelevanceDistribution((0.5, 0.5)), ("q", "a"): RelevanceDistribution((0.2, 0.3, 0.5))}
    assert write_dists(odd) == ('{"qid": "q", "docid": "a", "probs": [0.2, 0.3, 0.5]}\n'
                                '{"qid": "q", "docid": "b", "probs": [0.5, 0.5]}\n')
    assert write_dists({}) == write_qrels({}) == ""


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



def _dist_line(doc, probs):
    return '{"qid": "q1", "docid": "%s", "probs": %s}' % (doc, probs)


# Messages and line numbers as the line-at-a-time parser of earlier versions
# gave them.
PARSE_ERRORS = {
    "object split over two lines, then two objects on one line": (
        _dist_line("d1", "[0.5, 0.5]") + '\n{"qid": "q1",\n"docid": "d2", "probs": [0.5, 0.5]}\n'
        + _dist_line("d3", "[0.5, 0.5]") + " " + _dist_line("d4", "[0.5, 0.5]") + "\n",
        "line 2: invalid JSON: Expecting property name enclosed in double quotes"),
    "two objects on one line": (
        _dist_line("d1", "[0.5, 0.5]") + "\n" + _dist_line("d3", "[0.5, 0.5]") + " "
        + _dist_line("d4", "[0.5, 0.5]") + "\n",
        "line 2: invalid JSON: Extra data"),
    "array split over two lines": ("[1\n2]\n", "line 1: invalid JSON: Expecting ',' delimiter"),
    "trailing brace": (_dist_line("d1", "[0.5, 0.5]") + "}\n", "line 1: invalid JSON: Extra data"),
    "byte order mark": ("﻿" + _dist_line("d1", "[0.5, 0.5]") + "\n",
                        "line 1: invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
    "null prob": (_dist_line("d1", "[0.5, 0.5]") + "\n" + _dist_line("d2", "[null, 1.0]") + "\n",
                  "line 2: probs entries must be numbers"),
    "list prob": (_dist_line("d1", "[[0.5], 0.5]") + "\n", "line 1: probs entries must be numbers"),
    "non-numeric string prob": (_dist_line("d1", '["x", 0.5]') + "\n",
                                "line 1: probs entries must be numbers"),
    "integer too large for a float": (
        _dist_line("d1", "[0.5, 0.5]") + "\n" + _dist_line("d2", "[1" + "0" * 400 + ", 0]") + "\n",
        "line 2: probs entries must be numbers"),
    "NaN": (_dist_line("d1", "[NaN, 1.0]") + "\n", "line 1: prob of label 0 is nan, outside [0, 1]"),
    "Infinity": (_dist_line("d1", "[Infinity, 0.0]") + "\n",
                 "line 1: prob of label 0 is inf, outside [0, 1]"),
    "-Infinity": (_dist_line("d1", "[-Infinity, 1.0]") + "\n",
                  "line 1: prob of label 0 is -inf, outside [0, 1]"),
    "duplicate pair after a blank line": (
        _dist_line("d1", "[0.5, 0.5]") + "\n\n" + _dist_line("d1", "[0.5, 0.5]") + "\n",
        "line 3: duplicate distribution for query 'q1' doc 'd1'"),
    "duplicate pair with a bad sum": (
        _dist_line("d1", "[0.5, 0.5]") + "\n" + _dist_line("d1", "[0.5, 0.6]") + "\n",
        "line 2: probs sum 1.1 != 1"),
    "CRLF and blank lines before a bad sum": (
        _dist_line("d1", "[0.5, 0.5]") + "\r\n\r\n" + _dist_line("d2", "[0.5, 0.75]") + "\r\n",
        "line 3: probs sum 1.25 != 1"),
    "sum error on line 3, invalid JSON on line 7": (
        "\n".join([_dist_line("d1", "[0.5, 0.5]"), _dist_line("d2", "[0.5, 0.5]"),
                   _dist_line("d3", "[0.5, 0.6]"), _dist_line("d4", "[0.5, 0.5]"), "",
                   _dist_line("d5", "[0.5, 0.5]"), "{not json"]) + "\n",
        "line 3: probs sum 1.1 != 1"),
    "range error on line 5, missing key on line 7": (
        "\n".join([_dist_line(f"d{i}", "[0.5, 0.5]") for i in range(4)]
                  + [_dist_line("d9", "[-0.5, 1.5]"), "", '{"qid": "q1", "probs": [0.5, 0.5]}'])
        + "\n",
        "line 5: prob of label 0 is -0.5, outside [0, 1]"),
    "non-number on line 4, wrong length on line 6": (
        "\n".join([_dist_line(f"d{i}", "[0.5, 0.5]") for i in range(3)]
                  + [_dist_line("dx", "[null, 1]"), _dist_line("dy", "[1.0, 0.0]"),
                     _dist_line("dz", "[1.0]")]) + "\n",
        "line 4: probs entries must be numbers"),
    "sum error on line 2, non-number on line 4": (
        "\n".join([_dist_line("d0", "[0.5, 0.5]"), _dist_line("d1", "[0.9, 0.3]"),
                   _dist_line("d2", "[0.5, 0.5]"), _dist_line("dx", "[null, 1]")]) + "\n",
        "line 2: probs sum 1.2 != 1"),
    "non-number on line 2, sum error on line 4": (
        "\n".join([_dist_line("d0", "[0.5, 0.5]"), _dist_line("d1", "[{}, 1]"),
                   _dist_line("d2", "[0.5, 0.5]"), _dist_line("dx", "[0.9, 0.3]")]) + "\n",
        "line 2: probs entries must be numbers"),
    "not an object": ("[0.5, 0.5]\n", "line 1: distribution line is not a JSON object"),
    "qid not a string": ('{"qid": 1, "docid": "d", "probs": [0.5, 0.5]}\n',
                         "line 1: qid/docid must be strings and probs a list"),
    "probs not a list": ('{"qid": "q", "docid": "d", "probs": "ab"}\n',
                         "line 1: qid/docid must be strings and probs a list"),
    "wrong length": (_dist_line("d1", "[0.5, 0.5, 0.0]") + "\n",
                     "line 1: probs has 3 entries for a scale of 2 labels"),
}


@pytest.mark.parametrize("text, message", PARSE_ERRORS.values(), ids=PARSE_ERRORS.keys())
def test_parse_dists_reports_the_earliest_bad_line(text, message):
    with pytest.raises(ParseError) as exc:
        parse_dists(text, LabelScale(1))
    assert str(exc.value) == message
    assert exc.value.line == int(message.split(":")[0].split()[1])


@pytest.mark.parametrize("probs, expected", [
    ('["0.5", 0.5]', (0.5, 0.5)),
    ("[true, 0]", (1.0, 0.0)),
    ("[1, 0]", (1.0, 0.0)),
    ("[5e-1, 0.5E0]", (0.5, 0.5)),
    ("[5e-324, 1.0]", (5e-324, 1.0)),
    ("[0.5, 0.5000005]", (0.5, 0.5000005)),
])
def test_parse_dists_converts_entries_as_float_does(probs, expected):
    text = _dist_line("d1", "[0.5, 0.5]") + "\r\n\r\n  \r\n" + _dist_line("d2", probs) + "\r\n"
    table = parse_dists(text, LabelScale(1))
    assert table[("q1", "d2")].probs == expected
    assert list(table) == [("q1", "d1"), ("q1", "d2")]


PROPERTY = settings(derandomize=True, deadline=None, max_examples=60)
SUBNORMALS = (5e-324, 2.5e-320, 2.2250738585072009e-308)


@st.composite
def dists_text(draw):
    """A dists file of 1-12 lines on a 2-5 label scale whose entries are
    written as integers, in exponent form or with repr, and may be subnormal;
    returns (max_label, text, the entry strings of each line)."""
    width = draw(st.integers(2, 5))
    entries, lines = [], []
    for i in range(draw(st.integers(1, 12))):
        form = draw(st.sampled_from(["int", "repr", "exp", "EXP", "subnormal"]))
        if form == "int":
            hot = draw(st.integers(0, width - 1))
            row = ["1" if r == hot else "0" for r in range(width)]
        else:
            raw = draw(st.lists(st.floats(0.001, 1.0), min_size=width, max_size=width))
            probs = [p / sum(raw) for p in raw]
            if form == "subnormal":
                r = draw(st.integers(0, width - 2))
                tiny = draw(st.sampled_from(SUBNORMALS))
                probs[r], probs[r + 1] = tiny, probs[r + 1] + probs[r] - tiny
            fmt = {"exp": "{:.16e}", "EXP": "{:.16E}"}.get(form, "{!r}")
            row = [fmt.format(p) for p in probs]
        entries.append(row)
        lines.append('{"qid": "q%d", "docid": "d%d", "probs": [%s]}' % (i % 3, i, ", ".join(row)))
    order = draw(st.permutations(range(len(lines))))
    text = "\n".join(lines[i] for i in order) + "\n"
    return width - 1, text, [entries[i] for i in order]


@PROPERTY
@given(data=dists_text())
def test_dists_parse_write_parse_is_bit_exact(data):
    max_label, text, entries = data
    scale = LabelScale(max_label)
    first = parse_dists(text, scale)
    # Each entry is Python's float of its text, bit for bit.
    assert [[x.hex() for x in first[key].probs] for key in first] == [
        [float(e).hex() for e in row] for row in entries]
    canon = write_dists(first)
    again = parse_dists(canon, scale)
    assert sorted(again) == sorted(first)
    assert all([x.hex() for x in again[k].probs] == [x.hex() for x in first[k].probs]
               for k in first)
    assert write_dists(again) == canon


@st.composite
def file_datasets(draw):
    """A dict-built dataset on a 0-3 scale: 1-5 queries of 1-12 documents,
    about three in four judged, random distributions."""
    rankings, truth, predicted = {}, {}, {}
    for qi in range(draw(st.integers(1, 5))):
        qid = f"q{qi}"
        docs = tuple(f"d{j}" for j in range(draw(st.integers(1, 12))))
        rankings[qid] = RankedList(qid, docs)
        for doc in docs:
            if draw(st.integers(0, 3)):
                truth[(qid, doc)] = Judgment(draw(st.integers(0, 3)))
            raw = draw(st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4))
            predicted[(qid, doc)] = RelevanceDistribution(tuple(p / sum(raw) for p in raw))
    spec = MetricSpec(draw(st.sampled_from(["dcg", "precision"])), draw(st.integers(1, 10)),
                      draw(st.sampled_from(["identity", "exponential"])))
    return spec, Dataset(LabelScale(3), rankings, truth, dict(reversed(predicted.items())))


@PROPERTY
@given(data=file_datasets())
def test_a_dict_built_dataset_and_its_files_give_the_same_view(data):
    spec, ds = data
    loaded = build_dataset(write_run(ds.rankings), write_dists(ds.predicted),
                           write_qrels(ds.truth), LabelScale(3))
    qs = ds.queries()
    a, b = UtilityView(spec, ds, qs), UtilityView(spec, loaded, qs)
    for name in ("probs", "labels", "weights", "segments", "starts"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.predicted_utilities().tolist() == b.predicted_utilities().tolist()


def test_the_array_checks_add_up_a_vector_as_violations_does():
    # Added left to right this row sums to 0.9999990000000001, inside the
    # 1e-6 tolerance; numpy's pairwise sum gives 0.999999, just outside.
    row = [0.22485650018626702, 0.0022991245125756443, 0.24763995021296792,
           0.08887968933239912, 0.1523122970439375, 0.02240655151718793,
           0.14450716005421316, 0.02870012687902621, 0.08839760026142551]
    assert RelevanceDistribution(tuple(row)).violations() == []
    scale = LabelScale(8)
    table = parse_dists(json.dumps({"qid": "q", "docid": "d", "probs": row}) + "\n", scale)
    assert table[("q", "d")].probs == tuple(row)
    ds = Dataset(scale, {"q": RankedList("q", ("d",))}, {}, {("q", "d"): RelevanceDistribution(row)})
    assert validate_dataset(ds) == []
