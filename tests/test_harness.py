"""Experiment harness: pool halving, sweeps, aggregation, plan files."""

import csv
import json

import numpy as np
import pytest

from rankci.harness import (
    AGG_FIELDS,
    PER_QUERY_FIELDS,
    ROW_FIELDS,
    ExperimentPlan,
    aggregate,
    default_plan,
    halve_pool,
    load_plan,
    per_query_rows,
    run_plan,
    sweep,
)
from rankci import bootstrap
from rankci.bootstrap import bootstrap_ci
from rankci.crc import build_batches, calibrate, crc_ci
from rankci.metrics import dataset_utility, parse_metric, predicted_utilities, true_utilities
from rankci.model import LabelScale
from rankci.ppi import ppi_ci, ppi_estimate
from rankci.seeding import child_seed, stream
from rankci.synth import SynthConfig, bias_dataset, generate, oracle_dataset

DCG = parse_metric("dcg@10")


def _dataset(queries=44, docs=10, seed=2):
    return generate(SynthConfig(
        num_queries=queries, docs_per_query=docs, scale=LabelScale(2),
        truth_prior=(0.5, 0.3, 0.2), annotator_sharpness=4.0, seed=seed,
    ))


# --- halving -------------------------------------------------------------------


def test_halve_pool_is_a_deterministic_partition():
    pool = [f"q{i:03d}" for i in range(21)]
    val, test = halve_pool(pool, seed=11)
    assert halve_pool(pool, seed=11) == (val, test)
    assert sorted(val + test) == sorted(pool)
    assert not set(val) & set(test)
    assert len(val) == 10 and len(test) == 11
    assert val == sorted(val) and test == sorted(test)


def test_halve_pool_ignores_input_order():
    pool = [f"q{i}" for i in range(10)]
    assert halve_pool(pool, seed=3) == halve_pool(list(reversed(pool)), seed=3)


def test_halve_pool_moves_with_the_seed():
    pool = [f"q{i}" for i in range(10)]
    assert halve_pool(pool, seed=1) != halve_pool(pool, seed=2)


def test_halve_pool_needs_four_queries():
    with pytest.raises(ValueError):
        halve_pool(["a", "b", "c"], seed=0)


# --- sweep ---------------------------------------------------------------------


def _tiny_sweep(dataset, **overrides):
    kwargs = dict(n_grid=(4, 6), repeats=3, num_batches=120, seed=7,
                  split_seed=11, workers=1)
    kwargs.update(overrides)
    return sweep(dataset, DCG, **kwargs)


def test_sweep_row_shape():
    ds = _dataset()
    rows = _tiny_sweep(ds)
    assert len(rows) == 3 * 2 * 3  # methods x grid points x repeats
    assert all(set(ROW_FIELDS) == set(r) for r in rows)
    assert all(r["status"] == "ok" for r in rows)
    assert all(r["covered"] in (0, 1) for r in rows)
    assert all(r["width"] >= 0.0 for r in rows)
    # all rows share the one test-half coverage target
    assert len({r["truth"] for r in rows}) == 1


def test_sweep_is_deterministic_and_worker_independent():
    ds = _dataset()
    a = _tiny_sweep(ds)
    b = _tiny_sweep(ds)
    c = _tiny_sweep(ds, workers=3)
    assert a == b
    assert a == c
    d = _tiny_sweep(ds, seed=8)
    assert a != d


def test_sweep_methods_subset():
    ds = _dataset()
    rows = _tiny_sweep(ds, methods=("bootstrap",))
    assert {r["method"] for r in rows} == {"bootstrap"}


def test_sweep_rejects_budgets_beyond_the_validation_half():
    ds = _dataset(queries=20)  # validation half holds 10 queries
    rows = sweep(ds, DCG, n_grid=(12,), repeats=2, num_batches=120, seed=7,
                 split_seed=11, workers=1)
    assert all(r["status"] != "ok" for r in rows)
    assert all("validation half" in r["status"] for r in rows)
    assert all(r["width"] == "" for r in rows)


@pytest.mark.parametrize("bad", [
    {"n_grid": ()}, {"n_grid": (1,)}, {"methods": ("jackknife",)}, {"methods": ("bootstrp",)},
    {"methods": ()}, {"alpha": 0.0}, {"repeats": 0}, {"workers": 0},
])
def test_sweep_refuses_options_a_plan_refuses(bad):
    with pytest.raises(ValueError):
        default_plan(**bad)
    with pytest.raises(ValueError):
        _tiny_sweep(_dataset(), **bad)


def test_sweep_results_do_not_depend_on_which_other_methods_run():
    """Adding or removing methods must not move any method's draws: the
    bootstrap rows of a bootstrap-only sweep equal the bootstrap rows of a
    full three-method sweep."""
    ds = _dataset()
    alone = _tiny_sweep(ds, methods=("bootstrap",))
    full = [r for r in _tiny_sweep(ds) if r["method"] == "bootstrap"]
    assert alone == full


def test_sweep_bootstrap_rows_equal_chunked_bootstrap_ci(monkeypatch):
    """The sweep reads bootstrap's interval off the resample index that crc
    calibrates on, drawn as one block; bootstrap_ci draws the same stream in
    row chunks.  With chunks of a few rows, the two agree bit for bit."""
    monkeypatch.setattr(bootstrap, "_CHUNK_ENTRIES", 50)  # 5-12 rows a chunk
    ds = _dataset()
    n_grid, seed, alpha = (4, 6, 9), 7, 0.1
    rows = _tiny_sweep(ds, n_grid=n_grid, seed=seed, alpha=alpha, methods=("bootstrap", "crc"))
    pool = ds.labeled_queries()
    validation, _ = halve_pool(pool, 11)
    true_u = true_utilities(DCG, ds, pool)
    boot = [r for r in rows if r["method"] == "bootstrap"]
    assert len(boot) == 9 and {r["status"] for r in boot} == {"ok"}
    for row in boot:
        pi, rep = n_grid.index(row["n"]), row["repeat"]
        rng = stream(seed, pi, rep, 0)
        labeled = sorted(rng.choice(np.array(validation), size=row["n"], replace=False).tolist())
        ci = bootstrap_ci([true_u[q] for q in labeled], alpha, resamples=120,
                          seed=child_seed(seed, pi, rep, 1))
        assert (row["low"], row["high"], row["width"]) == (ci.lower, ci.upper, ci.width)


# --- aggregation ------------------------------------------------------------------


def test_aggregate_recomputes_coverage_and_width():
    ds = _dataset()
    rows = _tiny_sweep(ds)
    aggs = aggregate(rows)
    assert all(set(AGG_FIELDS) == set(a) for a in aggs)
    for agg in aggs:
        member_rows = [r for r in rows
                       if (r["method"], r["n"]) == (agg["method"], agg["n"])
                       and r["status"] == "ok"]
        assert agg["runs"] == len(member_rows)
        assert agg["coverage"] == pytest.approx(
            sum(r["covered"] for r in member_rows) / len(member_rows))
        assert agg["mean_width"] == pytest.approx(
            sum(r["width"] for r in member_rows) / len(member_rows))
        assert agg["coverage_band_low"] <= agg["coverage"] <= agg["coverage_band_high"]


def test_aggregate_records_failures():
    rows = [
        {"method": "crc", "n": 4, "beta": 0.0, "tau": 0.0, "repeat": 0,
         "width": 1.0, "covered": 1, "low": 0.0, "high": 1.0, "truth": 0.5, "status": "ok"},
        {"method": "crc", "n": 4, "beta": 0.0, "tau": 0.0, "repeat": 1,
         "width": "", "covered": "", "low": "", "high": "", "truth": 0.5,
         "status": "calibration infeasible"},
    ]
    agg = aggregate(rows)
    assert len(agg) == 1
    assert agg[0]["runs"] == 1
    assert agg[0]["failures"] == 1


# --- per-query intervals -------------------------------------------------------------


def test_per_query_rows_cover_the_test_half_sorted_by_truth():
    ds = _dataset(queries=44)
    rows = per_query_rows(ds, DCG, tau_grid=(0.0,), alpha=0.05, split_seed=11)
    _, test = halve_pool(ds.labeled_queries(), 11)
    assert [r["query_id"] for r in rows] and len(rows) == len(test)
    assert {r["query_id"] for r in rows} == set(test)
    truths = [r["truth"] for r in rows]
    assert truths == sorted(truths, reverse=True)
    assert all(set(PER_QUERY_FIELDS) == set(r) for r in rows)
    assert all(r["low"] <= r["high"] for r in rows)
    assert all(r["covered"] in (0, 1) for r in rows)


def test_per_query_rows_shrink_to_zero_width_at_full_oracle_strength():
    ds = _dataset(queries=44)
    rows = per_query_rows(ds, DCG, tau_grid=(1.0,), alpha=0.05, split_seed=11)
    assert all(r["high"] - r["low"] == pytest.approx(0.0, abs=1e-9) for r in rows)
    assert all(r["covered"] == 1 for r in rows)


# --- sweeps on views agree with sweeps on transformed datasets ---------------------


def _dataset_level_rows(ds, spec, *, n_grid, beta_grid, tau_grid, repeats, alpha, num_batches,
                        seed, split_seed):
    """The sweep's rows, built the long way: a transformed Dataset per
    (beta, tau) through bias_dataset/oracle_dataset, utilities through the
    dict helpers, and crc through the public calibrate/crc_ci."""
    pool = ds.labeled_queries()
    validation, test = halve_pool(pool, split_seed)
    true_u = true_utilities(spec, ds, pool)
    truth = dataset_utility(spec, test, true_u)
    points = [(n, b, t) for n in n_grid for b in beta_grid for t in tau_grid]
    rows = []
    for pi, (n, beta, tau) in enumerate(points):
        ds_t = oracle_dataset(bias_dataset(ds, beta), tau)
        pred_u = predicted_utilities(spec, ds_t, pool)
        for rep in range(repeats):
            base = {"n": n, "beta": beta, "tau": tau, "repeat": rep, "truth": truth}
            rng = stream(seed, pi, rep, 0)
            labeled = sorted(rng.choice(np.array(validation), size=n, replace=False).tolist())
            labeled_true = [true_u[q] for q in labeled]
            cis = {
                "bootstrap": bootstrap_ci(labeled_true, alpha, resamples=num_batches,
                                          seed=child_seed(seed, pi, rep, 1)),
                "ppi": ppi_ci(ppi_estimate(labeled_true, [pred_u[q] for q in labeled],
                                           [pred_u[q] for q in pool]), alpha),
            }
            batches = build_batches(labeled, num_batches=num_batches, batch_size=n,
                                    seed=child_seed(seed, pi, rep, 1))
            cis["crc"] = crc_ci(spec, test, ds_t, calibrate(spec, batches, ds_t, alpha))
            for method, ci in cis.items():
                rows.append({**base, "method": method, "width": ci.width,
                             "covered": int(ci.lower <= truth <= ci.upper),
                             "low": ci.lower, "high": ci.upper, "status": "ok"})
    rows.sort(key=lambda r: (r["method"], r["n"], r["beta"], r["tau"], r["repeat"]))
    return rows


def test_sweep_rows_equal_rows_from_transformed_datasets():
    ds = _dataset(queries=60, docs=12, seed=4)
    grid = dict(n_grid=(12, 20), beta_grid=(0.0, 0.5, 1.0), tau_grid=(0.0, 0.5, 1.0),
                repeats=2, alpha=0.1, num_batches=100, seed=3, split_seed=11)
    rows = sweep(ds, DCG, methods=("bootstrap", "ppi", "crc"), **grid)
    assert {r["status"] for r in rows} == {"ok"}
    assert rows == _dataset_level_rows(ds, DCG, **grid)


def test_per_query_rows_equal_rows_from_transformed_datasets():
    ds = _dataset(queries=60, docs=12, seed=4)
    pool = ds.labeled_queries()
    validation, test = halve_pool(pool, 11)
    true_u = true_utilities(DCG, ds, pool)
    expected = []
    for tau in (0.0, 0.5, 1.0):
        ds_t = oracle_dataset(ds, tau)
        pred_u = predicted_utilities(DCG, ds_t, pool)
        cal = calibrate(DCG, build_batches(validation, mode="per_query"), ds_t, 0.1)
        for q in sorted(test, key=lambda q: (-true_u[q], q)):
            ci = crc_ci(DCG, [q], ds_t, cal)
            expected.append({"tau": tau, "query_id": q, "low": ci.lower, "high": ci.upper,
                             "truth": true_u[q], "predicted": pred_u[q],
                             "covered": int(ci.lower <= true_u[q] <= ci.upper)})
    assert per_query_rows(ds, DCG, tau_grid=(0.0, 0.5, 1.0), alpha=0.1) == expected


# --- plans ---------------------------------------------------------------------------


def test_default_plan_pins_the_reference_configuration():
    plan = default_plan()
    assert plan.metric == parse_metric("dcg@10")
    assert plan.synth.num_queries == 200
    assert plan.synth.docs_per_query == 100
    assert plan.synth.truth_prior == (0.85, 0.08, 0.04, 0.03)
    assert plan.synth.annotator_sharpness == 7.0
    assert plan.synth.seed == 11
    assert plan.n_grid == (10, 20, 40, 80)
    assert plan.repeats == 500
    assert plan.num_batches == 2000
    assert plan.seed == 7
    assert plan.split_seed == 11
    assert plan.alpha == 0.05


def test_plan_requires_exactly_one_source():
    with pytest.raises(ValueError, match="source"):
        ExperimentPlan(name="x", metric=DCG)
    with pytest.raises(ValueError, match="source"):
        default_plan(run_path="a", qrels_path="b", dists_path="c")
    with pytest.raises(ValueError):
        ExperimentPlan(name="x", metric=DCG, run_path="a")  # missing qrels/dists


def test_plan_validates_grids_and_methods():
    with pytest.raises(ValueError):
        default_plan(n_grid=())
    with pytest.raises(ValueError):
        default_plan(n_grid=(1,))
    with pytest.raises(ValueError):
        default_plan(methods=("jackknife",))
    with pytest.raises(ValueError):
        default_plan(alpha=0.0)
    with pytest.raises(ValueError):
        default_plan(repeats=0)


def test_load_plan_defaults_match_default_plan():
    plan = load_plan("name = desk-scale\n")
    ref = default_plan()
    assert plan == ref


def test_load_plan_parses_overrides():
    text = """
    # comment
    name = custom
    metric = prec@5
    queries = 30
    docs_per_query = 8
    max_label = 2
    truth_prior = 0.5,0.3,0.2
    sharpness = 3.5
    synth_seed = 9
    n_grid = 4,8
    beta_grid = 0,1
    tau_grid = 0,0.5,1
    methods = bootstrap,crc
    repeats = 12
    batches = 60
    alpha = 0.1
    seed = 42
    split_seed = 13
    workers = 2
    output_dir = out-here
    """
    plan = load_plan(text)
    assert plan.name == "custom"
    assert plan.metric == parse_metric("prec@5")
    assert plan.synth.truth_prior == (0.5, 0.3, 0.2)
    assert plan.synth.annotator_sharpness == 3.5
    assert plan.n_grid == (4, 8)
    assert plan.beta_grid == (0.0, 1.0)
    assert plan.tau_grid == (0.0, 0.5, 1.0)
    assert plan.methods == ("bootstrap", "crc")
    assert plan.split_seed == 13
    assert plan.output_dir == "out-here"


def test_load_plan_rejects_unknown_keys_and_bad_lines():
    with pytest.raises(ValueError, match="unknown key"):
        load_plan("bogus = 1\n")
    with pytest.raises(ValueError, match="line 2"):
        load_plan("name = x\nnot a pair\n")


def test_load_plan_file_source():
    plan = load_plan("run = r.txt\nqrels = q.txt\ndists = d.jsonl\n")
    assert plan.synth is None
    assert plan.run_path == "r.txt"


# --- run_plan -------------------------------------------------------------------------


def test_run_plan_writes_all_artifacts(tmp_path):
    plan = default_plan(
        synth=SynthConfig(num_queries=44, docs_per_query=8, scale=LabelScale(2),
                          truth_prior=(0.5, 0.3, 0.2), annotator_sharpness=4.0, seed=2),
        n_grid=(4,), repeats=3, num_batches=120, tau_grid=(0.0, 1.0),
        output_dir=str(tmp_path / "out"),
    )
    out_dir = run_plan(plan)
    assert (out_dir / "rows.csv").exists()
    assert (out_dir / "aggregate.csv").exists()
    assert (out_dir / "per_query.csv").exists()

    with open(out_dir / "rows.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3 * 2 * 3  # methods x (n, tau) grid points x repeats
    assert list(rows[0]) == ROW_FIELDS

    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    assert summary["name"] == "desk-scale"
    assert summary["split_seed"] == 11
    assert summary["metric"] == "dcg@10"
    assert len(summary["aggregate"]) == 3 * 2

    # the CSV rows re-aggregate to the summary's coverage numbers
    for agg in summary["aggregate"]:
        members = [r for r in rows
                   if r["method"] == agg["method"] and float(r["tau"]) == agg["tau"]
                   and r["status"] == "ok"]
        coverage = sum(int(r["covered"]) for r in members) / len(members)
        assert coverage == pytest.approx(agg["coverage"])
