"""Command-line front ends: happy paths, exit codes, config files, determinism.

Exit-code contract, for ``rankci`` and ``rankci-harness`` alike: 0 success,
1 usage error, 2 I/O or format error, 3 calibration infeasible.
"""

import argparse
import csv
import hashlib
import io
import itertools
import json
import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import rankci
from rankci import cli
from rankci.cli import build_parser, harness_main, main
from rankci.corpus import build_dataset, write_dists, write_qrels, write_run
from rankci.crc import CrcCalibration, crc_ci
from rankci.errors import ParseError
from rankci.harness import ROW_FIELDS, ExperimentPlan, sweep, write_csv
from rankci.metrics import parse_metric, predicted_utilities
from rankci.model import Dataset, Judgment, LabelScale, RankedList, RelevanceDistribution
from rankci.synth import SynthConfig, generate


# --- fixtures -------------------------------------------------------------------


@pytest.fixture
def worked_example(tmp_path):
    """One query, three documents, true labels 3/0/2, one-hot predictions."""
    run = tmp_path / "run.txt"
    qrels = tmp_path / "qrels.txt"
    dists = tmp_path / "dists.jsonl"
    run.write_text(
        "q1 Q0 a 1 3.0 sys\nq1 Q0 b 2 2.0 sys\nq1 Q0 c 3 1.0 sys\n", encoding="utf-8")
    qrels.write_text("q1 0 a 3\nq1 0 b 0\nq1 0 c 2\n", encoding="utf-8")
    lines = [
        {"qid": "q1", "docid": "a", "probs": [0, 0, 0, 1.0]},
        {"qid": "q1", "docid": "b", "probs": [1.0, 0, 0, 0]},
        {"qid": "q1", "docid": "c", "probs": [0, 0, 1.0, 0]},
    ]
    dists.write_text("\n".join(json.dumps(o) for o in lines) + "\n", encoding="utf-8")
    return {"run": str(run), "qrels": str(qrels), "dists": str(dists)}


def _corpus_files(ds, folder):
    """``ds`` written out in all three formats under ``folder``."""
    folder.mkdir(exist_ok=True)
    paths = {"run": folder / "run.txt", "qrels": folder / "qrels.txt",
             "dists": folder / "dists.jsonl"}
    paths["run"].write_text(write_run(ds.rankings), encoding="utf-8")
    paths["qrels"].write_text(write_qrels(ds.truth), encoding="utf-8")
    paths["dists"].write_text(write_dists(ds.predicted), encoding="utf-8")
    return {name: str(path) for name, path in paths.items()}


@pytest.fixture
def labeled_corpus(tmp_path):
    """A synthetic 30-query corpus written out in all three formats."""
    ds = generate(SynthConfig(num_queries=30, docs_per_query=6, scale=LabelScale(2),
                              truth_prior=(0.5, 0.3, 0.2), annotator_sharpness=4.0, seed=3))
    return _corpus_files(ds, tmp_path)


@pytest.fixture
def dirichlet_corpus(tmp_path):
    """60 queries of 10 documents on a 0..8 scale, with uniformly random labels
    and Dirichlet(1, ..., 1) predictions, in all three formats."""
    rng = np.random.default_rng(0)
    rankings, truth, predicted = {}, {}, {}
    for i in range(60):
        qid = f"q{i:02d}"
        rankings[qid] = RankedList(qid, tuple(f"d{j}" for j in range(10)))
        for doc in rankings[qid].doc_ids:
            truth[(qid, doc)] = Judgment(int(rng.integers(0, 9)))
            predicted[(qid, doc)] = RelevanceDistribution(tuple(rng.dirichlet(np.ones(9))))
    return _corpus_files(Dataset(LabelScale(8), rankings, truth, predicted), tmp_path / "dirichlet")


def _run_main(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def _exit_code(argv, capsys):
    """Like ``_run_main``, for a usage error that ``main`` raises as ``SystemExit``."""
    try:
        code = main(argv)
    except SystemExit as e:
        code = e.code
    out, err = capsys.readouterr()
    return code, out, err


def _options_of(command):
    """The config keys of ``rankci command``'s flags: every flag but --config
    and --help, with underscores for hyphens."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest for a in sub.choices[command]._actions if a.dest not in ("help", "config")}


# --- evaluate -------------------------------------------------------------------


def test_evaluate_worked_example(worked_example, capsys):
    code, out, _ = _run_main(
        ["evaluate", "--run", worked_example["run"], "--qrels", worked_example["qrels"],
         "--dists", worked_example["dists"], "--metric", "dcg@10"], capsys)
    assert code == 0
    assert "metric: dcg@10" in out
    assert "8.500000" in out  # 7/log2(2) + 0 + 3/log2(4)


def test_evaluate_writes_csv(worked_example, tmp_path, capsys):
    out_path = tmp_path / "table.csv"
    code, _, _ = _run_main(
        ["evaluate", "--run", worked_example["run"], "--qrels", worked_example["qrels"],
         "--dists", worked_example["dists"], "--out", str(out_path)], capsys)
    assert code == 0
    with open(out_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["query_id"] == "q1"
    assert float(rows[0]["true"]) == pytest.approx(8.5)


def test_evaluate_without_dists_is_a_usage_error(worked_example, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "--run", worked_example["run"]])
    assert exc.value.code == 1


def test_evaluate_missing_file_is_an_io_error(capsys):
    code, _, err = _run_main(
        ["evaluate", "--run", "/does/not/exist", "--dists", "/nor/this"], capsys)
    assert code == 2
    assert "i/o error" in err


def test_evaluate_malformed_run_is_a_format_error(worked_example, tmp_path, capsys):
    bad = tmp_path / "bad_run.txt"
    bad.write_text("only three fields\n", encoding="utf-8")
    code, _, err = _run_main(
        ["evaluate", "--run", str(bad), "--dists", worked_example["dists"]], capsys)
    assert code == 2
    assert "line 1" in err


# --- usage errors ----------------------------------------------------------------


def test_no_command_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


def test_unknown_flag_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "--frobnicate"])
    assert exc.value.code == 1


def test_unknown_method_is_a_usage_error(labeled_corpus, tmp_path, capsys):
    files = ["--run", labeled_corpus["run"], "--qrels", labeled_corpus["qrels"]]
    with pytest.raises(SystemExit) as exc:
        main(["ci", *files, "--method", "jackknife"])
    assert exc.value.code == 1
    assert "unknown method 'jackknife'" in capsys.readouterr().err
    # A method from a config file is checked the same way.
    cfg = tmp_path / "rankci.cfg"
    cfg.write_text("method = jackknife\n", encoding="utf-8")
    code, out, err = _exit_code(["ci", *files, "--config", str(cfg)], capsys)
    assert (code, out) == (1, "")
    assert "unknown method 'jackknife'" in err


@pytest.mark.parametrize("method", ["bootstrap", "ppi"])
@pytest.mark.parametrize("key, value", [("save-calibration", "cal.json"),
                                        ("load-calibration", "missing.json"),
                                        ("batch-size", "5"), ("per-query", True)])
@pytest.mark.parametrize("in_config", [False, True], ids=["flag", "config"])
def test_a_crc_only_option_with_another_method_is_a_usage_error(tmp_path, capsys, method, key,
                                                                value, in_config):
    if key.endswith("calibration"):
        value = str(tmp_path / value)
    # No data file exists, so exit 1 rather than 2 shows the refusal comes first.
    argv = ["ci", "--method", method,
            *(f"--{name}={tmp_path / name}" for name in ("run", "qrels", "dists"))]
    if in_config:
        cfg = tmp_path / "rankci.cfg"
        cfg.write_text(f"{key} = {'yes' if value is True else value}\n", encoding="utf-8")
        argv += ["--config", str(cfg)]
    else:
        argv += [f"--{key}", *([] if value is True else [value])]
    code, out, err = _exit_code(argv, capsys)
    assert (code, out) == (1, "")
    assert f"{key} is a crc-only option" in err
    assert not (tmp_path / "cal.json").exists()


@pytest.mark.parametrize("other", ["per-query", "load-calibration"])
@pytest.mark.parametrize("in_config", [False, True], ids=["flag", "config"])
def test_a_batch_size_that_crc_does_not_read_is_a_usage_error(tmp_path, capsys, other, in_config):
    """--batch-size sizes the bootstrap batches; per-query calibration and a loaded
    calibration build none, so the option would be ignored without a word."""
    # No data file exists, so exit 1 rather than 2 shows the refusal comes first.
    argv = ["ci", "--method", "crc",
            *(f"--{name}={tmp_path / name}" for name in ("run", "qrels", "dists")),
            *(["--per-query"] if other == "per-query" else
              ["--load-calibration", str(tmp_path / "cal.json")])]
    if in_config:
        cfg = tmp_path / "rankci.cfg"
        cfg.write_text("batch-size = 5\n", encoding="utf-8")
        argv += ["--config", str(cfg)]
    else:
        argv += ["--batch-size", "5"]
    code, out, err = _exit_code(argv, capsys)
    assert (code, out) == (1, "")
    assert f"batch-size sizes bootstrap batches, which {other} does not build" in err


def test_a_false_per_query_is_not_a_crc_only_option(labeled_corpus, tmp_path, capsys):
    cfg = tmp_path / "rankci.cfg"
    cfg.write_text("per-query = no\n", encoding="utf-8")
    code, out, _ = _run_main(["ci", "--run", labeled_corpus["run"], "--qrels",
                              labeled_corpus["qrels"], "--batches", "200", "--config", str(cfg)],
                             capsys)
    assert code == 0
    assert "method: bootstrap" in out


def test_bad_metric_is_a_usage_error(labeled_corpus, capsys):
    code, _, _ = _run_main(
        ["ci", "--run", labeled_corpus["run"], "--qrels", labeled_corpus["qrels"],
         "--metric", "map"], capsys)
    assert code == 1


# --- ci --------------------------------------------------------------------------


def test_ci_bootstrap(labeled_corpus, capsys):
    code, out, _ = _run_main(
        ["ci", "--run", labeled_corpus["run"], "--qrels", labeled_corpus["qrels"],
         "--method", "bootstrap", "--batches", "500", "--seed", "1"], capsys)
    assert code == 0
    assert "method: bootstrap" in out
    assert "interval: [" in out


def test_ci_bootstrap_works_without_distributions(labeled_corpus, capsys):
    # judgments alone are enough for the bootstrap
    code, out, _ = _run_main(
        ["ci", "--run", labeled_corpus["run"], "--qrels", labeled_corpus["qrels"],
         "--method", "bootstrap", "--batches", "500"], capsys)
    assert code == 0


def test_ci_out_csv_without_rows_is_a_usage_error(labeled_corpus, tmp_path, capsys):
    out_path = tmp_path / "ci.csv"
    code, _, err = _run_main(
        ["ci", "--run", labeled_corpus["run"], "--qrels", labeled_corpus["qrels"],
         "--method", "bootstrap", "--batches", "200", "--out", str(out_path)], capsys)
    assert code == 1
    assert "--out .csv needs tabular output; use .json here" in err
    assert not out_path.exists()


@pytest.mark.parametrize("command, name, message", [
    (["evaluate"], "rows.txt", "--out must end in .csv or .json, got "),
    (["evaluate"], "rows", "--out must end in .csv or .json, got "),
    (["ci", "--method", "crc"], "ci.tsv", "--out must end in .csv or .json, got "),
    (["ci", "--method", "crc"], "ci.csv", "--out .csv needs tabular output; use .json here"),
])
def test_a_bad_out_is_refused_before_any_work(labeled_corpus, tmp_path, monkeypatch, capsys,
                                              command, name, message):
    monkeypatch.setattr("rankci.cli._load_dataset", lambda o: pytest.fail("data read"))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    files = ["--run", labeled_corpus["run"], "--qrels", labeled_corpus["qrels"],
             "--dists", labeled_corpus["dists"]]
    if command[0] == "ci":
        files += ["--batches", "200", "--save-calibration", str(out_dir / "cal.json")]
    code, out, err = _run_main([*command, *files, "--out", str(out_dir / name)], capsys)
    assert code == 1 and out == ""
    assert message in err
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize("command", [["evaluate"], ["ci", "--method", "crc", "--batches", "200"]])
def test_an_integer_too_large_for_a_float_is_a_format_error(labeled_corpus, tmp_path, capsys,
                                                           command):
    lines = Path(labeled_corpus["dists"]).read_text(encoding="utf-8").splitlines()
    obj = json.loads(lines[1])
    obj["probs"][0] = 10**400
    lines[1] = json.dumps(obj)
    dists = tmp_path / "huge.jsonl"
    dists.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, err = _run_main([*command, "--run", labeled_corpus["run"], "--qrels",
                                labeled_corpus["qrels"], "--dists", str(dists)], capsys)
    assert code == 2 and out == ""
    assert "format error" in err and "line 2: probs entries must be numbers" in err


def test_ci_ppi_requires_dists(labeled_corpus):
    with pytest.raises(SystemExit) as exc:
        main(["ci", "--run", labeled_corpus["run"], "--qrels", labeled_corpus["qrels"],
              "--method", "ppi"])
    assert exc.value.code == 1


def test_ci_ppi(labeled_corpus, tmp_path, capsys):
    out_path = tmp_path / "ci.json"
    code, out, _ = _run_main(
        ["ci", "--run", labeled_corpus["run"], "--qrels", labeled_corpus["qrels"],
         "--dists", labeled_corpus["dists"], "--method", "ppi", "--out", str(out_path)],
        capsys)
    assert code == 0
    payload = json.loads(out_path.read_text(encoding="utf-8"))
    assert payload["method"] == "ppi"
    assert payload["lower"] <= payload["estimate"] <= payload["upper"]


def test_ci_crc_save_and_load_calibration(labeled_corpus, tmp_path, capsys):
    cal_path = tmp_path / "cal.json"
    code, first, _ = _run_main(
        ["ci", "--run", labeled_corpus["run"], "--qrels", labeled_corpus["qrels"],
         "--dists", labeled_corpus["dists"], "--method", "crc",
         "--batches", "200", "--seed", "4", "--save-calibration", str(cal_path)], capsys)
    assert code == 0
    assert cal_path.exists()

    code, second, _ = _run_main(
        ["ci", "--run", labeled_corpus["run"], "--qrels", labeled_corpus["qrels"],
         "--dists", labeled_corpus["dists"], "--method", "crc",
         "--load-calibration", str(cal_path)], capsys)
    assert code == 0
    assert first == second


def test_ci_crc_per_query_needs_enough_singleton_batches(labeled_corpus, capsys):
    # 30 labeled queries make 30 singleton batches: fine at alpha 0.05.
    code, out, _ = _run_main(
        ["ci", "--run", labeled_corpus["run"], "--qrels", labeled_corpus["qrels"],
         "--dists", labeled_corpus["dists"], "--method", "crc", "--per-query"], capsys)
    assert code == 0
    assert "per-query" in out

    # A stricter alpha needs more batches than 30 queries can provide.
    code, _, err = _run_main(
        ["ci", "--run", labeled_corpus["run"], "--qrels", labeled_corpus["qrels"],
         "--dists", labeled_corpus["dists"], "--method", "crc", "--per-query",
         "--alpha", "0.01"], capsys)
    assert code == 3
    assert "calibration infeasible" in err


def test_ci_crc_per_query_rows_equal_one_query_intervals(labeled_corpus, dirichlet_corpus,
                                                         tmp_path, capsys):
    metric = parse_metric("dcg@10")
    for corpus in (labeled_corpus, dirichlet_corpus):
        out_path, cal_path = tmp_path / "per_query.csv", tmp_path / "cal.json"
        code, _, _ = _run_main(
            ["ci", "--run", corpus["run"], "--qrels", corpus["qrels"],
             "--dists", corpus["dists"], "--method", "crc", "--per-query",
             "--save-calibration", str(cal_path), "--out", str(out_path)], capsys)
        assert code == 0
        ds = build_dataset(*(Path(corpus[k]).read_text(encoding="utf-8")
                             for k in ("run", "dists", "qrels")))
        cal = CrcCalibration.from_text(cal_path.read_text(encoding="utf-8"))
        with open(out_path, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["query_id"] for row in rows] == ds.queries()
        for row in rows:
            ci = crc_ci(metric, [row["query_id"]], ds, cal)
            assert (float(row["low"]), float(row["high"]), float(row["predicted"])) == (
                ci.lower, ci.upper, ci.estimate)


def test_ci_crc_estimates_are_the_predicted_utility(labeled_corpus, dirichlet_corpus, tmp_path,
                                                    capsys):
    metric = parse_metric("dcg@10")
    for corpus in (labeled_corpus, dirichlet_corpus):
        files = ["--run", corpus["run"], "--qrels", corpus["qrels"], "--dists", corpus["dists"]]
        pq_path, ev_path, cal_path = tmp_path / "pq.csv", tmp_path / "ev.csv", tmp_path / "cal.json"
        code, _, _ = _run_main(["ci", *files, "--method", "crc", "--per-query",
                                "--out", str(pq_path), "--save-calibration", str(cal_path)], capsys)
        assert code == 0
        assert _run_main(["evaluate", *files, "--out", str(ev_path)], capsys)[0] == 0
        columns = []
        for path in (pq_path, ev_path):
            with open(path, encoding="utf-8", newline="") as fh:
                columns.append([(row["query_id"], row["predicted"]) for row in csv.DictReader(fh)])
        assert columns[0] == columns[1]
        ds = build_dataset(*(Path(corpus[k]).read_text(encoding="utf-8")
                             for k in ("run", "dists", "qrels")))
        cal = CrcCalibration.from_text(cal_path.read_text(encoding="utf-8"))
        predicted = float(np.mean(list(predicted_utilities(metric, ds).values())))
        assert crc_ci(metric, ds.queries(), ds, cal).estimate.hex() == predicted.hex()


def test_ci_crc_per_query_header_reports_the_loaded_records_alpha(labeled_corpus, tmp_path,
                                                                  capsys):
    files = ["--run", labeled_corpus["run"], "--qrels", labeled_corpus["qrels"],
             "--dists", labeled_corpus["dists"], "--method", "crc"]
    cal_path = tmp_path / "cal.json"
    code, _, _ = _run_main(["ci", *files, "--alpha", "0.1", "--batches", "200",
                            "--save-calibration", str(cal_path)], capsys)
    assert code == 0
    code, pooled, _ = _run_main(["ci", *files, "--load-calibration", str(cal_path)], capsys)
    assert code == 0
    code, per_query, _ = _run_main(["ci", *files, "--per-query",
                                    "--load-calibration", str(cal_path)], capsys)
    assert code == 0
    assert pooled.splitlines()[0].endswith("alpha: 0.1")
    assert per_query.splitlines()[0] == "method: crc (per-query)  metric: dcg@10  alpha: 0.1"


def _with_dists_off_by(corpus, tmp_path, error):
    """The corpus with its second distribution line's probs summing to 1 + error."""
    lines = Path(corpus["dists"]).read_text(encoding="utf-8").splitlines()
    obj = json.loads(lines[1])
    probs = obj["probs"]
    low = probs.index(min(probs))  # far enough from 1 to stay in [0, 1]
    probs[low] = 1.0 + error - sum(p for i, p in enumerate(probs) if i != low)
    lines[1] = json.dumps(obj)
    dists = tmp_path / "off.jsonl"
    dists.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return {**corpus, "dists": str(dists)}


@pytest.mark.parametrize("command", [["evaluate"], ["ci", "--method", "ppi"]])
def test_every_entry_point_allows_a_dists_sum_error_of_1e_6(labeled_corpus, tmp_path, capsys,
                                                            command):
    for error, code in ((5e-7, 0), (5e-6, 2)):
        corpus = _with_dists_off_by(labeled_corpus, tmp_path, error)
        files = ["--run", corpus["run"], "--qrels", corpus["qrels"], "--dists", corpus["dists"]]
        got, _, err = _run_main([*command, *files], capsys)
        assert got == code, err
        if code:
            assert "line 2" in err and "sum" in err
            with pytest.raises(ParseError, match="line 2"):
                build_dataset(*(Path(corpus[k]).read_text(encoding="utf-8")
                                for k in ("run", "dists", "qrels")))


def _load_calibration(corpus, cal_path, capsys, *extra):
    return _run_main(
        ["ci", "--run", corpus["run"], "--qrels", corpus["qrels"], "--dists", corpus["dists"],
         "--method", "crc", "--load-calibration", str(cal_path), *extra], capsys)


def test_ci_corrupt_calibration_record(labeled_corpus, tmp_path, capsys):
    # A record with a missing key is a malformed file: a format error (2).
    cal_path = tmp_path / "cal.json"
    cal_path.write_text('{"lambda_low": 0.5}', encoding="utf-8")
    code, _, err = _load_calibration(labeled_corpus, cal_path, capsys)
    assert code == 2
    assert "format error" in err and str(cal_path) in err


@pytest.mark.parametrize("key, value", [("max_label", 2.9), ("num_batches", 200.5),
                                        ("num_batches", True)])
def test_ci_calibration_record_with_a_non_integer_count_is_a_format_error(
        labeled_corpus, tmp_path, capsys, key, value):
    # Truncated to an integer, max_label 2.9 would pass as a record for this 0-2 scale.
    cal_path = tmp_path / "cal.json"
    code, _, _ = _run_main(["ci", "--run", labeled_corpus["run"], "--qrels", labeled_corpus["qrels"],
                            "--dists", labeled_corpus["dists"], "--method", "crc", "--batches", "200",
                            "--save-calibration", str(cal_path)], capsys)
    assert code == 0
    raw = json.loads(cal_path.read_text(encoding="utf-8"))
    raw[key] = value
    cal_path.write_text(json.dumps(raw), encoding="utf-8")
    code, _, err = _load_calibration(labeled_corpus, cal_path, capsys)
    assert code == 2
    assert "format error" in err and str(cal_path) in err and f"{key} must be an integer" in err


@pytest.mark.parametrize("key, value, kind", [("alpha", "0.1", "a number"), ("lambda_high", "0.3", "a number"),
                                              ("achieved_loss_low", False, "a number"),
                                              ("metric", 10, "a string")])
def test_ci_calibration_record_with_a_field_of_the_wrong_json_type_is_a_format_error(
        labeled_corpus, tmp_path, capsys, key, value, kind):
    cal_path = tmp_path / "cal.json"
    code, _, _ = _run_main(["ci", "--run", labeled_corpus["run"], "--qrels", labeled_corpus["qrels"],
                            "--dists", labeled_corpus["dists"], "--method", "crc", "--batches", "200",
                            "--save-calibration", str(cal_path)], capsys)
    assert code == 0
    raw = json.loads(cal_path.read_text(encoding="utf-8"))
    raw[key] = value
    cal_path.write_text(json.dumps(raw), encoding="utf-8")
    code, out, err = _load_calibration(labeled_corpus, cal_path, capsys)
    assert (code, out) == (2, "")
    assert "format error" in err and str(cal_path) in err and f"{key} must be {kind}" in err


def test_ci_crc_takes_the_fewest_batches_with_a_positive_threshold(labeled_corpus, capsys):
    # At alpha = 0.07, 14 batches leave a risk threshold of 0.0018 and 13 a negative one.
    argv = ["ci", "--run", labeled_corpus["run"], "--qrels", labeled_corpus["qrels"],
            "--dists", labeled_corpus["dists"], "--method", "crc", "--alpha", "0.07"]
    code, out, _ = _run_main([*argv, "--batches", "14"], capsys)
    assert code == 0 and "crc" in out
    code, _, err = _run_main([*argv, "--batches", "13"], capsys)
    assert code == 3 and "needs at least 14 for a positive risk threshold" in err


def test_ci_calibration_file_that_is_not_json_is_a_format_error(labeled_corpus, tmp_path, capsys):
    cal_path = tmp_path / "cal.json"
    cal_path.write_text("not json", encoding="utf-8")
    code, _, err = _load_calibration(labeled_corpus, cal_path, capsys)
    assert code == 2
    assert "format error" in err and str(cal_path) in err


def test_ci_refuses_a_calibration_made_for_another_metric(labeled_corpus, tmp_path, capsys):
    cal_path = tmp_path / "cal.json"
    code, _, _ = _run_main(
        ["ci", "--run", labeled_corpus["run"], "--qrels", labeled_corpus["qrels"],
         "--dists", labeled_corpus["dists"], "--method", "crc", "--metric", "dcg@10",
         "--batches", "200", "--seed", "4", "--save-calibration", str(cal_path)], capsys)
    assert code == 0
    assert json.loads(cal_path.read_text())["metric"] == "dcg@10"

    code, out, err = _load_calibration(labeled_corpus, cal_path, capsys, "--metric", "prec@10")
    assert code == 2
    assert out == ""
    assert "dcg@10" in err and "prec@10" in err

    # calibrated on a 0-2 scale, so a corpus on a 0-3 scale is refused too
    ds = generate(SynthConfig(num_queries=30, docs_per_query=6, scale=LabelScale(3),
                              truth_prior=(0.4, 0.3, 0.2, 0.1), annotator_sharpness=4.0, seed=3))
    other = {name: tmp_path / f"other.{name}" for name in ("run", "qrels", "dists")}
    other["run"].write_text(write_run(ds.rankings), encoding="utf-8")
    other["qrels"].write_text(write_qrels(ds.truth), encoding="utf-8")
    other["dists"].write_text(write_dists(ds.predicted), encoding="utf-8")
    code, out, err = _load_calibration({k: str(v) for k, v in other.items()}, cal_path, capsys)
    assert code == 2
    assert out == ""
    assert "max_label=2" in err and "max_label=3" in err


def test_ci_refuses_a_calibration_record_without_a_stamp(labeled_corpus, tmp_path, capsys):
    cal_path = tmp_path / "cal.json"
    cal_path.write_text(json.dumps({
        "lambda_low": -0.5, "lambda_high": 0.5, "alpha": 0.05, "num_batches": 200,
        "achieved_loss_low": 0.0, "achieved_loss_high": 0.0}), encoding="utf-8")
    code, out, err = _load_calibration(labeled_corpus, cal_path, capsys)
    assert code == 2
    assert out == ""
    assert "malformed calibration record" in err and "'metric'" in err


# --- config files ------------------------------------------------------------------


def test_config_file_supplies_defaults_and_flags_win(labeled_corpus, tmp_path, capsys):
    cfg = tmp_path / "rankci.cfg"
    cfg.write_text(
        f"run = {labeled_corpus['run']}\n"
        f"qrels = {labeled_corpus['qrels']}\n"
        "method = bootstrap\n"
        "batches = 500\n"
        "seed = 9\n",
        encoding="utf-8")
    code, from_cfg, _ = _run_main(["ci", "--config", str(cfg)], capsys)
    assert code == 0
    assert "method: bootstrap" in from_cfg

    # the --seed flag must override the config's seed = 9
    code, overridden, _ = _run_main(["ci", "--config", str(cfg), "--seed", "10"], capsys)
    assert code == 0
    assert overridden != from_cfg


def test_config_file_accepts_hyphenated_keys(labeled_corpus, tmp_path, capsys):
    cfg = tmp_path / "rankci.cfg"
    cfg.write_text("max-label = 2\n", encoding="utf-8")
    code, _, _ = _run_main(
        ["evaluate", "--config", str(cfg), "--run", labeled_corpus["run"],
         "--dists", labeled_corpus["dists"]], capsys)
    assert code == 0


# A value for each ``rankci ci`` option but the data files, unlike its default
# and the base values below; True is the flag without a value (``yes`` in a
# config file).
_CI_VALUES = {"metric": "prec@5", "out": "report.json", "max_label": "2", "method": "ppi",
              "alpha": "0.1", "seed": "3", "batches": "150", "batch_size": "10",
              "per_query": True, "save_calibration": "cal.json", "load_calibration": "saved.json"}


@pytest.mark.parametrize("key", sorted(_options_of("ci")))
def test_every_ci_option_reads_the_same_from_a_flag_and_from_config(labeled_corpus, tmp_path,
                                                                   capsys, key):
    files = {k: labeled_corpus[k] for k in ("run", "qrels", "dists")}
    # A record calibrated at another alpha, so that loading it shows in the report.
    code, _, _ = _run_main(["ci", *(f"--{k}={v}" for k, v in files.items()), "--method", "crc",
                            "--alpha", "0.2", "--batches", "200",
                            "--save-calibration", str(tmp_path / "saved.json")], capsys)
    assert code == 0
    value = {**_CI_VALUES, **files}[key]
    if key in ("out", "save_calibration", "load_calibration"):
        value = str(tmp_path / value)
    options = {**files, "method": "crc", "batches": "200", "seed": "4", key: value}
    written = [tmp_path / "report.json", tmp_path / "cal.json"]
    results = []
    for in_config in (False, True):
        argv = ["ci"]
        for k, v in options.items():
            if not (in_config and k == key):
                argv += [f"--{k.replace('_', '-')}", *([] if v is True else [v])]
        if in_config:
            cfg = tmp_path / "rankci.cfg"
            cfg.write_text(f"{key.replace('_', '-')} = {'yes' if value is True else value}\n",
                           encoding="utf-8")
            argv += ["--config", str(cfg)]
        code, out, err = _run_main(argv, capsys)
        assert code == 0, err
        results.append((out, {p.name: p.read_bytes() for p in written if p.exists()}))
        for p in written:
            p.unlink(missing_ok=True)
    assert results[0] == results[1]
    if key in ("out", "save_calibration"):
        assert results[0][1]


def test_every_flag_of_every_command_is_a_config_key(tmp_path, monkeypatch):
    """Each command looks up every one of its flags, but --config and --help,
    in the config file."""
    asked = set()

    class Config(dict):
        def __contains__(self, key):
            asked.add(key)
            return False

        def get(self, key, default=None):
            asked.add(key)
            return default

    class Stop(Exception):
        pass

    def stop(*args):
        raise Stop

    monkeypatch.setattr("rankci.cli.parse_kv", lambda *args, **kwargs: Config())
    monkeypatch.setattr("rankci.cli.generate", stop)
    cfg = tmp_path / "rankci.cfg"
    cfg.write_text("", encoding="utf-8")
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == {"evaluate", "ci", "sweep"}
    for command in sub.choices:
        asked.clear()
        # Every option is unset, so each command stops at a missing file or,
        # for sweep, at the data generation.
        with pytest.raises((SystemExit, Stop)):
            main([command, "--config", str(cfg)])
        assert _options_of(command) <= asked, command


def test_malformed_config_line_is_a_usage_error(labeled_corpus, tmp_path, capsys):
    cfg = tmp_path / "rankci.cfg"
    cfg.write_text("no equals sign here\n", encoding="utf-8")
    code, _, _ = _run_main(
        ["ci", "--config", str(cfg), "--run", labeled_corpus["run"]], capsys)
    assert code == 1


@pytest.mark.parametrize("key, value", [("alpha", "x"), ("batches", "1.5"), ("per_query", "maybe")])
def test_a_bad_config_value_names_the_file_and_the_key(labeled_corpus, tmp_path, capsys, key, value):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{key} = {value}\n", encoding="utf-8")
    out_path = tmp_path / "ci.json"
    code, out, err = _run_main(["ci", "--config", str(cfg), "--run", labeled_corpus["run"],
                                "--qrels", labeled_corpus["qrels"], "--out", str(out_path)], capsys)
    assert code == 1 and out == ""
    assert f"config {cfg}: bad value for {key!r}: " in err
    assert not out_path.exists()


def test_an_unknown_config_key_is_a_usage_error(labeled_corpus, tmp_path, capsys):
    cfg = tmp_path / "rankci.cfg"
    cfg.write_text("# a typo\nalhpa = 0.5\n", encoding="utf-8")
    out_path = tmp_path / "ci.json"
    files = ["--run", labeled_corpus["run"], "--qrels", labeled_corpus["qrels"], "--batches", "200"]
    code, out, err = _run_main(["ci", "--config", str(cfg), *files, "--out", str(out_path)], capsys)
    assert (code, out) == (1, "")
    assert f"config {cfg} line 2: unknown key 'alhpa'" in err
    assert not out_path.exists()
    # A key that another command reads is no error: one file serves every command.
    cfg.write_text("alpha = 0.5\nn-labeled = 4\nrepeats = 2\noutput_dir = out\n", encoding="utf-8")
    code, out, err = _run_main(["ci", "--config", str(cfg), *files], capsys)
    assert code == 0, err
    assert out.startswith("method: bootstrap  metric: dcg@10  alpha: 0.5\n")


# --- sweep ----------------------------------------------------------------------------


SWEEP_ARGS = ["sweep", "--queries", "24", "--docs-per-query", "6", "--max-label", "2",
              "--truth-prior", "0.5,0.3,0.2", "--sharpness", "4.0", "--synth-seed", "3",
              "--n-labeled", "4", "--repeats", "2", "--batches", "120", "--seed", "5"]


def test_sweep_emits_csv_rows(capsys):
    code, out, _ = _run_main(SWEEP_ARGS, capsys)
    assert code == 0
    lines = out.strip().split("\n")
    header = lines[0].split(",")
    assert header[0] == "method"
    assert len(lines) == 1 + 3 * 2  # header + methods x repeats


def test_sweep_respects_method_subset(capsys):
    code, out, _ = _run_main(SWEEP_ARGS + ["--methods", "ppi"], capsys)
    assert code == 0
    body = out.strip().split("\n")[1:]
    assert all(line.startswith("ppi,") for line in body)


@pytest.mark.parametrize("batches, method", [("50", "bootstrap"), ("10", "crc")])
def test_sweep_with_too_few_batches_is_a_usage_error(monkeypatch, capsys, batches, method):
    monkeypatch.setattr("rankci.cli.generate", lambda *a: pytest.fail("sweep data generated"))
    code, out, err = _run_main(SWEEP_ARGS + ["--batches", batches, "--methods", method], capsys)
    assert code == 1
    assert out == ""
    assert f"num_batches={batches}" in err


@pytest.mark.parametrize("name", ["rows.json", "rows.txt", "rows"])
def test_sweep_out_must_end_in_csv(monkeypatch, tmp_path, capsys, name):
    monkeypatch.setattr("rankci.cli.generate", lambda *a: pytest.fail("sweep data generated"))
    out_path = tmp_path / name
    code, out, err = _run_main(SWEEP_ARGS + ["--out", str(out_path)], capsys)
    assert code == 1 and out == ""
    assert f"--out must end in .csv, got {str(out_path)!r}" in err
    assert list(tmp_path.iterdir()) == []


def test_sweep_builds_the_same_plan_as_a_plan_file(tmp_path, capsys):
    """``rankci sweep`` and plan files share one option table and one plan
    builder: SWEEP_ARGS give the rows of the plan with the corresponding keys."""
    code, out, _ = _run_main(SWEEP_ARGS, capsys)
    assert code == 0
    plan_file = tmp_path / "plan.txt"
    plan_file.write_text(
        "queries = 24\ndocs_per_query = 6\nmax_label = 2\ntruth_prior = 0.5,0.3,0.2\n"
        "sharpness = 4.0\nsynth_seed = 3\nn_grid = 4\nrepeats = 2\nbatches = 120\nseed = 5\n",
        encoding="utf-8")
    _, plan = cli._sweep_plan(
        build_parser("rankci-harness").parse_args([str(plan_file)]))
    rows = sweep(generate(plan.synth), plan.metric, n_grid=plan.n_grid,
                 beta_grid=plan.beta_grid, tau_grid=plan.tau_grid, methods=plan.methods,
                 repeats=plan.repeats, alpha=plan.alpha, num_batches=plan.num_batches,
                 seed=plan.seed, split_seed=plan.split_seed, workers=plan.workers)
    expected = io.StringIO()
    write_csv(expected, ROW_FIELDS, rows)
    assert out == expected.getvalue()


@pytest.mark.parametrize("key, other, value", [
    ("n_grid", "n_labeled", "4"), ("beta_grid", "beta", "0,0.5"), ("tau_grid", "tau", "0,1"),
])
def test_a_grid_reads_the_same_under_both_of_its_names(tmp_path, capsys, key, other, value):
    """Each of the three grids takes its plan name and its second name, as a
    flag and as a config key; all four give the same rows."""
    i = SWEEP_ARGS.index("--n-labeled")
    base = SWEEP_ARGS[:i] + SWEEP_ARGS[i + 2:] + ([] if key == "n_grid" else ["--n-labeled", "4"])
    results = []
    for name in (key, other, key.replace("_", "-"), other.replace("_", "-")):
        results.append(_run_main([*base, f"--{name.replace('_', '-')}", value], capsys))
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(f"{name} = {value}\n", encoding="utf-8")
        results.append(_run_main([*base, "--config", str(cfg)], capsys))
    assert results[0][0] == 0, results[0][2]
    assert all(r == results[0] for r in results)
    assert _run_main(base, capsys)[1] != results[0][1]  # the value took effect


def test_the_entry_points_differ_in_three_defaults_only(tmp_path):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("", encoding="utf-8")
    (o, plan), (h_o, h_plan) = (
        cli._sweep_plan(build_parser(prog).parse_args([*flag, str(cfg)]))
        for prog, flag in (("rankci", ["sweep", "--config"]), ("rankci-harness", [])))
    assert (plan.repeats, plan.n_grid, o.output_dir) == (50, (20,), None)
    assert (h_plan.repeats, h_plan.n_grid, h_o.output_dir) == (500, (10, 20, 40, 80), "harness-out")
    assert {k for k, v in vars(o).items() if v != getattr(h_o, k)} == {"repeats", "n_grid",
                                                                         "output_dir"}
    assert h_plan == replace(plan, repeats=500, n_grid=(10, 20, 40, 80))


def test_every_plan_key_names_a_field_of_the_plan_or_its_synthetic_dataset():
    """A ``_SWEEP`` key with no field would reach ``replace(...)`` as a
    ``TypeError``, which ``_dispatch`` does not map to an exit code."""
    plan_fields = {f.name for f in fields(ExperimentPlan)}
    synth_fields = {f.name for f in fields(SynthConfig)}
    unmapped = [key for key in cli._SWEEP if key != "out" and (
        cli._SYNTH_FIELDS[key] not in synth_fields if key in cli._SYNTH_FIELDS
        else cli._PLAN_FIELDS.get(key, key) not in plan_fields)]
    assert unmapped == []
    assert cli._PLAN_FIELDS.keys() | cli._SYNTH_FIELDS.keys() <= cli._SWEEP.keys() - {"out"}


def test_sweep_stdout_is_pinned(capsys):
    """sha256 of SWEEP_ARGS' stdout as rankci wrote it before ``rankci sweep``
    took over every plan."""
    code, out, _ = _run_main(SWEEP_ARGS, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "6df96f584e6fa3ceedaeb205685cb442a42ef824a9329b9d4d76fc8b1e409de2")


def test_a_file_sourced_sweep_reports_dataset_errors_as_ci_does(labeled_corpus, tmp_path, capsys):
    lines = Path(labeled_corpus["dists"]).read_text(encoding="utf-8").splitlines()
    dists = tmp_path / "short.jsonl"
    dists.write_text("\n".join(lines[1:]) + "\n", encoding="utf-8")  # a ranked document unpredicted
    files = ["--run", labeled_corpus["run"], "--qrels", labeled_corpus["qrels"], "--dists", str(dists)]
    errors = []
    for argv in (["ci", "--method", "ppi", *files],
                 ["sweep", *files, "--n-labeled", "4", "--repeats", "2", "--batches", "120"],
                 ["sweep", *files, "--output-dir", str(tmp_path / "out")]):
        code, out, err = _run_main(argv, capsys)
        assert (code, out) == (2, "")
        errors.append([line for line in err.splitlines() if line.startswith("dataset error: ")])
    assert errors[0] and errors[0] == errors[1] == errors[2]
    assert "no predicted distribution" in errors[0][0]
    assert not (tmp_path / "out").exists()


def _table_after(text, header):
    """The ``| a | b | ...`` rows of the markdown table under ``header``, as cell lists."""
    rows = itertools.takewhile(lambda line: line.startswith("|"),
                               text[text.index(header):].splitlines()[2:])
    return [[cell.strip() for cell in row.strip("|").split("|")] for row in rows]


def test_the_readme_key_table_lists_the_keys_and_flags_of_rankci_sweep():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    documented = {row[0].strip("`"): set(re.findall(r"`(--[a-z-]+)`", row[1]))
                  for row in _table_after(readme, "| key | flag | default | meaning |")}
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert documented == {a.dest: set(a.option_strings) for a in sub.choices["sweep"]._actions
                          if a.dest not in ("help", "config")}


# --- rankci-harness exit codes ---------------------------------------------------------


# A plan runs as ``rankci-harness PLAN`` and as ``rankci sweep --config PLAN``.
_PLAN_RUNNERS = (harness_main, lambda argv: main(["sweep", "--config", *argv]))


def _run_harness(tmp_path, plan_text, capsys):
    """``(code, stdout, stderr)`` of each entry point on a plan file holding
    ``plan_text``, writing to ``tmp_path / "out"``; yielded after each run."""
    plan = tmp_path / "plan.txt"
    plan.write_text(plan_text, encoding="utf-8")
    for run in _PLAN_RUNNERS:
        code = run([str(plan), "--output-dir", str(tmp_path / "out")])
        out, err = capsys.readouterr()
        yield code, out, err


@pytest.mark.parametrize("plan_text, message", [
    ("name = x\nnot a pair\n", "line 2"),
    ("bogus = 1\n", "unknown key"),
])
def test_harness_malformed_plan_is_a_usage_error(tmp_path, capsys, plan_text, message):
    for code, _, err in _run_harness(tmp_path, plan_text, capsys):
        assert code == 1
        assert message in err


def test_harness_without_a_plan_is_a_usage_error():
    for run in _PLAN_RUNNERS:
        with pytest.raises(SystemExit) as exc:
            run([])
        assert exc.value.code == 1


def test_harness_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        harness_main(["-h"])
    out, err = capsys.readouterr()
    assert exc.value.code == 0 and err == ""
    assert out.startswith("usage: rankci-harness [-h]")
    assert "PLAN" in out and "--output-dir" in out and "--config" not in out


@pytest.mark.parametrize("argv, unknown", [(["plan.txt", "extra"], "extra"),
                                           (["--bogus", "plan.txt"], "--bogus")])
def test_harness_unknown_argument_prints_the_plan_usage(capsys, argv, unknown):
    """An argument the sweep does not know exits 1 under the usage that
    ``rankci-harness -h`` starts with, not a subcommand word the user never types."""
    with pytest.raises(SystemExit):
        harness_main(["-h"])
    usage = capsys.readouterr().out.split("\n\n")[0] + "\n"
    with pytest.raises(SystemExit) as exc:
        harness_main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 1 and out == ""
    assert err == f"{usage}rankci-harness: error: unrecognized arguments: {unknown}\n"
    assert "{sweep}" not in err and "PLAN" in err


def test_harness_takes_its_plan_after_its_flags(tmp_path, capsys):
    """``rankci-harness --output-dir D PLAN`` writes what ``rankci-harness PLAN
    --output-dir D`` writes: the pinned bytes."""
    plan = tmp_path / "plan.txt"
    plan.write_text(_pinned_plan("synthetic", tmp_path), encoding="utf-8")
    out_dir = tmp_path / "out"
    assert harness_main(["--output-dir", str(out_dir), "--workers", "2", str(plan)]) == 0
    assert capsys.readouterr().out == "".join(f"wrote {out_dir / name}\n" for name in _ARTIFACTS)
    assert tuple(hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
                 for name in _ARTIFACTS) == _PINNED["synthetic"]


def test_harness_missing_plan_file_is_an_io_error(tmp_path, capsys):
    for run in _PLAN_RUNNERS:
        code = run([str(tmp_path / "no-such-plan.txt")])
        _, err = capsys.readouterr()
        assert code == 2
        assert "i/o error" in err


def test_harness_with_too_few_batches_exits_1_without_an_output_directory(tmp_path, capsys):
    for code, out, err in _run_harness(
            tmp_path, "queries = 60\ndocs_per_query = 12\nn_grid = 4\nrepeats = 2\nbatches = 50\n",
            capsys):
        assert code == 1
        assert out == ""
        assert "num_batches=50" in err
        assert not (tmp_path / "out").exists()


def test_harness_infeasible_calibration_exits_3(tmp_path, capsys):
    # Singleton-batch calibration on a 5-query validation half has too few
    # batches for alpha = 0.05.
    for code, _, err in _run_harness(
            tmp_path,
            "queries = 10\ndocs_per_query = 12\nn_grid = 2\nbatches = 100\nmethods = crc\n"
            "repeats = 2\n",
            capsys):
        assert code == 3
        assert "calibration infeasible" in err
        out_dir = tmp_path / "out"
        assert not any((out_dir / name).exists()
                       for name in ("rows.csv", "aggregate.csv", "per_query.csv", "summary.json"))


def test_a_misspelled_plan_key_is_a_usage_error_under_both_entry_points(tmp_path, capsys):
    for code, out, err in _run_harness(tmp_path, "queries = 60\nn_gird = 10\n", capsys):
        assert (code, out) == (1, "")
        assert f"config {tmp_path / 'plan.txt'} line 2: unknown key 'n_gird'" in err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["sweep", "--out", "rows.csv", "--output-dir", "out"],
    ["sweep", "--config", "plan.txt", "--out", "rows.csv"],
    ["harness", "plan.txt", "--out", "rows.csv"],
], ids=["flags", "config", "harness"])
def test_out_with_an_output_directory_is_a_usage_error_before_any_work(monkeypatch, tmp_path,
                                                                      capsys, argv):
    monkeypatch.setattr("rankci.cli.generate", lambda *a: pytest.fail("sweep data generated"))
    monkeypatch.chdir(tmp_path)
    Path("plan.txt").write_text("output_dir = out\n", encoding="utf-8")
    code = harness_main(argv[1:]) if argv[0] == "harness" else main(argv)
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert "cannot both be set" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["plan.txt"]


# Two small plans and the sha256 of each artifact that ``rankci-harness`` wrote
# for them with its own parser, before it became a call into ``rankci sweep``.
_GRID = "n_grid = 4,8\nbeta_grid = 0,0.5\ntau_grid = 0,1\nrepeats = 3\nbatches = 120\nseed = 5\n"
_PINNED = {
    "synthetic": ("9e17c21599c30e11f9e8f93929c5979a6f42ebecfc40c16c4c93515c80ac4c2e",
                  "98bd40b82823b1728c0e4e275cc2357c4cf411234132fee8b15f0de2738224ea",
                  "f7476ced444c9bcf66a9d95d711c83af85f480c0339474210584a1734c1b8851",
                  "04d2832387a6960edfcc85b1a97aff34d817176b2614c6a6666de2207f7809e9"),
    "files": ("aa6affca28b19e030c1a0fca5ef6f6cb513524c1127cdae1d53d49f718c7e629",
              "57d6737e295ce3256f18acc4e390bbd61232c5f8873ebc82a7f85fb35c5fbae8",
              "95c25989be9a440ff6e47c6931a1c0df3dab552055651a5cf33b868962568859",
              "c9dd1542d3bb593c2eb3f3e7dedc4b72585d5d1618ff3ad80c1de7f176811b38"),
}
_ARTIFACTS = ("rows.csv", "aggregate.csv", "per_query.csv", "summary.json")


def _pinned_plan(kind, tmp_path):
    if kind == "synthetic":
        return ("name = pinned-synthetic\nqueries = 48\ndocs_per_query = 8\nmax_label = 2\n"
                "truth_prior = 0.5,0.3,0.2\nsharpness = 4.0\nsynth_seed = 3\n" + _GRID)
    ds = generate(SynthConfig(num_queries=48, docs_per_query=8, scale=LabelScale(2),
                              truth_prior=(0.6, 0.25, 0.15), annotator_sharpness=3.0, seed=4))
    files = _corpus_files(ds, tmp_path / "corpus")
    return (f"name = pinned-files\nmetric = prec@5\nalpha = 0.1\n{_GRID}"
            + "".join(f"{key} = {path}\n" for key, path in files.items()))


@pytest.mark.parametrize("kind", sorted(_PINNED))
def test_both_entry_points_write_a_plans_pinned_bytes(tmp_path, capsys, kind):
    """``rankci-harness PLAN`` and ``rankci sweep --config PLAN --output-dir D``
    write the same bytes, and those are the pinned ones."""
    plan = tmp_path / "plan.txt"
    plan.write_text(_pinned_plan(kind, tmp_path), encoding="utf-8")
    written = []
    for i, run in enumerate(_PLAN_RUNNERS):
        out_dir = tmp_path / f"out{i}"
        assert run([str(plan), "--output-dir", str(out_dir)]) == 0
        assert capsys.readouterr().out == "".join(f"wrote {out_dir / name}\n" for name in _ARTIFACTS)
        written.append([(out_dir / name).read_bytes() for name in _ARTIFACTS])
    assert written[0] == written[1]
    assert tuple(hashlib.sha256(b).hexdigest() for b in written[0]) == _PINNED[kind]


# --- byte determinism through the real entry point -------------------------------------


def _rankci_env():
    """Environment whose ``python -m rankci`` child imports the same ``rankci`` as
    this process, installed or not, even from a ``cwd`` where a relative
    ``PYTHONPATH`` no longer resolves."""
    env = dict(os.environ)
    src = str(Path(rankci.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _module_run(args, cwd):
    return subprocess.run([sys.executable, "-m", "rankci", *args],
                          capture_output=True, cwd=cwd, timeout=300, env=_rankci_env())


def test_cli_is_byte_deterministic_across_processes_and_workers(tmp_path):
    args = SWEEP_ARGS + ["--out", "rows.csv"]
    first = _module_run(args + ["--workers", "1"], tmp_path)
    assert first.returncode == 0, first.stderr.decode()
    bytes_one = (tmp_path / "rows.csv").read_bytes()

    second = _module_run(args + ["--workers", "1"], tmp_path)
    assert second.returncode == 0, second.stderr.decode()
    bytes_two = (tmp_path / "rows.csv").read_bytes()

    third = _module_run(args + ["--workers", "3"], tmp_path)
    assert third.returncode == 0, third.stderr.decode()
    bytes_three = (tmp_path / "rows.csv").read_bytes()

    assert bytes_one == bytes_two == bytes_three
    assert first.stdout == second.stdout == third.stdout


def test_ci_is_byte_deterministic_across_processes(labeled_corpus, tmp_path):
    args = ["ci", "--run", labeled_corpus["run"], "--qrels", labeled_corpus["qrels"],
            "--dists", labeled_corpus["dists"], "--method", "crc",
            "--batches", "200", "--seed", "4"]
    first = _module_run(args, tmp_path)
    second = _module_run(args, tmp_path)
    assert first.returncode == 0, first.stderr.decode()
    assert second.returncode == 0, second.stderr.decode()
    assert first.stdout == second.stdout
