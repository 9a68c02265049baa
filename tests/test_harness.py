"""Experiment harness: pool halving, sweeps, aggregation, plan files.

Plan files are read as ``rankci-harness`` reads them: through ``rankci sweep``'s
one option table (``rankci.cli``)."""

import csv
import io
import json
import pickle
import threading
import tracemalloc
from collections.abc import Mapping
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from rankci import harness
from rankci.harness import (
    AGG_FIELDS,
    PER_QUERY_FIELDS,
    ROW_FIELDS,
    ExperimentPlan,
    SweepRow,
    aggregate,
    default_plan,
    halve_pool,
    per_query_rows,
    run_plan,
    sweep,
    write_csv,
)
from rankci import cli, crc
from rankci.bootstrap import bootstrap_ci
from rankci.corpus import write_dists, write_qrels, write_run
from rankci.crc import build_batches, calibrate, crc_ci
from rankci.metrics import dataset_utility, parse_metric, predicted_utilities, true_utilities
from rankci.model import Dataset, LabelScale, RelevanceDistribution
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


def test_grid_sweep_is_worker_independent_over_one_read_only_stack(monkeypatch):
    stacks = []

    def recording(preds, alpha, read=harness._ppi_pool):
        stacks.append(preds)
        return read(preds, alpha)

    monkeypatch.setattr(harness, "_ppi_pool", recording)
    ds = _dataset()
    grid = dict(beta_grid=(0.0, 1.0), tau_grid=(0.0, 0.5, 1.0), methods=("bootstrap", "ppi", "crc"),
                alpha=0.2)
    rows = _tiny_sweep(ds, **grid)
    assert len(rows) == 3 * 2 * 6 * 3  # methods x budgets x (beta, tau) points x repeats
    assert {r["status"] for r in rows} == {"ok"}
    assert rows == _tiny_sweep(ds, workers=3, **grid)
    # Worker threads share the stack of pool predictions, one row per (beta, tau).
    assert [s.shape for s in stacks] == [(6, len(ds.labeled_queries()))] * 2
    assert not any(s.flags.writeable for s in stacks)


def test_sweep_deals_its_units_into_one_interleaved_chunk_per_thread(monkeypatch):
    """Rows are byte-identical at 1, 2, 3 and 5 workers.  More than one worker
    starts ``min(workers, units)`` threads and maps the chunks ``units[i::k]``,
    none empty; one worker, or one unit, starts none."""
    executors = []

    class Recording(ThreadPoolExecutor):
        def __init__(self, max_workers):
            super().__init__(max_workers=max_workers)
            self.threads, self.chunks = max_workers, None
            executors.append(self)

        def map(self, fn, chunks):
            self.chunks = list(chunks)
            return super().map(fn, self.chunks)

    # The sweep imports its executor from concurrent.futures when it starts threads.
    monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", Recording)
    ds = _dataset()
    grid = dict(beta_grid=(0.0, 1.0), tau_grid=(0.0, 0.5), methods=("bootstrap", "ppi", "crc"),
                alpha=0.2)

    def csv_bytes(**kw):
        buf = io.StringIO()
        write_csv(buf, ROW_FIELDS, _tiny_sweep(ds, **grid, **kw))
        return buf.getvalue()

    for repeats, n_grid in ((3, (4, 6)), (1, (4, 6)), (1, (4,))):
        units = [(n_idx, rep) for n_idx in range(len(n_grid)) for rep in range(repeats)]
        one = csv_bytes(repeats=repeats, n_grid=n_grid, workers=1)
        assert executors == []
        for workers in (2, 3, 5):
            assert csv_bytes(repeats=repeats, n_grid=n_grid, workers=workers) == one
        threads = [min(w, len(units)) for w in (2, 3, 5)]
        assert [(e.threads, e.chunks) for e in executors] == [
            (k, [units[i::k] for i in range(k)]) for k in threads if k > 1]
        assert all(chunk for e in executors for chunk in e.chunks)
        executors.clear()


def test_sweep_threads_run_only_the_resample_kernels(monkeypatch):
    """Every seed stream the sweep opens and every row it builds run on the thread
    that called it; the worker threads draw and reduce each unit's resamples."""
    calls = []

    def recording(fn):
        def call(*args, **kwargs):
            calls.append((fn.__name__, threading.get_ident()))
            return fn(*args, **kwargs)
        return call

    for name in ("stream", "child_seed", "SweepRow", "build_batches"):
        monkeypatch.setattr(harness, name, recording(getattr(harness, name)))
    rows = _tiny_sweep(_dataset(), workers=3, beta_grid=(0.0, 1.0), tau_grid=(0.0, 0.5), alpha=0.2)
    on = {name: {t for n, t in calls if n == name} for name, _ in calls}
    assert on["stream"] == on["child_seed"] == on["SweepRow"] == {threading.get_ident()}
    assert sum(name == "SweepRow" for name, _ in calls) == len(rows) == 3 * 4 * 2 * 3
    assert threading.get_ident() not in on["build_batches"]  # the threads did run


def test_a_long_one_budget_sweep_holds_no_index_or_means_across_units():
    """A unit's M x n resample index and its M means die with the unit, so a
    400-repeat bootstrap sweep peaks near one unit's index (2,000 x 40 entries,
    625 KiB).  The bound is 3 indices; before the sweep ran in phases it peaked at
    2.26 (1,411 KiB), and holding every unit's means alone would add 10 more."""
    ds, index_bytes = _dataset(queries=88), 2000 * 40 * np.dtype(np.intp).itemsize
    kwargs = dict(n_grid=(40,), methods=("bootstrap",), num_batches=2000)
    sweep(ds, DCG, repeats=2, **kwargs)
    tracemalloc.start()
    try:
        rows = sweep(ds, DCG, repeats=400, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == 400
    assert peak < 3 * index_bytes


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


@pytest.mark.parametrize("methods, num_batches", [
    (("bootstrap",), 50), (("bootstrap", "ppi"), 99), (("crc",), 10), (("ppi", "crc"), 19),
])
def test_sweep_refuses_batch_counts_below_a_methods_floor(monkeypatch, methods, num_batches):
    """Bootstrap needs 100 resamples and crc at alpha = 0.05 needs 20
    batches; a sweep refuses fewer before it draws anything."""
    def no_draws(*args, **kwargs):
        raise AssertionError("build_batches called before the options were checked")

    monkeypatch.setattr(harness, "build_batches", no_draws)
    with pytest.raises(ValueError, match="num_batches"):
        _tiny_sweep(_dataset(), methods=methods, num_batches=num_batches)
    with pytest.raises(ValueError, match="num_batches"):
        ExperimentPlan(name="x", metric=DCG, synth=default_plan().synth, methods=methods,
                       num_batches=num_batches)


def test_batch_count_floors_are_inclusive_and_ppi_has_none():
    ds = _dataset()
    assert {r["status"] for r in _tiny_sweep(ds, methods=("bootstrap",), num_batches=100)} == {"ok"}
    assert len(_tiny_sweep(ds, methods=("crc",), num_batches=20)) == 2 * 3
    assert {r["status"] for r in _tiny_sweep(ds, methods=("ppi",), num_batches=1)} == {"ok"}
    default_plan(methods=("ppi",), num_batches=1)


def test_infeasibility_from_the_data_still_gives_rows():
    """Predictions one-hot at label 0 are unchanged by every strength, so no
    strength below 1 covers relevant truth: each crc row records the
    failure, and the other methods' rows are unaffected."""
    ds = _dataset()
    blind = Dataset(ds.scale, ds.rankings, ds.truth,
                    {pair: RelevanceDistribution((1.0, 0.0, 0.0)) for pair in ds.predicted})
    rows = _tiny_sweep(blind)
    crc_rows = [r for r in rows if r["method"] == "crc"]
    assert crc_rows and all(r["status"].startswith("calibration-infeasible: ") for r in crc_rows)
    assert {r["status"] for r in rows if r["method"] != "crc"} == {"ok"}


def test_grid_bootstrap_rows_share_one_interval_per_budget_and_repeat():
    """Bootstrap reads true utilities only: one interval per (n, repeat),
    drawn on streams keyed by the index of n and the repeat, serves every
    (beta, tau) of the grid."""
    ds = _dataset()
    n_grid, seed, alpha = (4, 6), 7, 0.1
    rows = _tiny_sweep(ds, n_grid=n_grid, beta_grid=(0.0, 1.0), tau_grid=(0.0, 0.5),
                       alpha=alpha, methods=("bootstrap", "ppi"))
    pool = ds.labeled_queries()
    validation, _ = halve_pool(pool, 11)
    true_u = true_utilities(DCG, ds, pool)
    boot = [r for r in rows if r["method"] == "bootstrap"]
    assert len(boot) == 2 * 4 * 3 and {r["status"] for r in boot} == {"ok"}
    for ni, n in enumerate(n_grid):
        for rep in range(3):
            rng = stream(seed, ni, rep, 0)
            labeled = sorted(rng.choice(np.array(validation), size=n, replace=False).tolist())
            ci = bootstrap_ci([true_u[q] for q in labeled], alpha, resamples=120,
                              seed=child_seed(seed, ni, rep, 1))
            group = [r for r in boot if (r["n"], r["repeat"]) == (n, rep)]
            assert sorted((r["beta"], r["tau"]) for r in group) == [
                (0.0, 0.0), (0.0, 0.5), (1.0, 0.0), (1.0, 0.5)]
            assert {(r["low"], r["high"]) for r in group} == {(ci.lower, ci.upper)}


def test_a_value_repeated_in_a_grid_is_swept_once():
    """Every (beta, tau) of an (n, repeat) shares one draw, so a repeated
    value would only copy rows and narrow the aggregate's band."""
    ds = _dataset()
    once = _tiny_sweep(ds, beta_grid=(0.5,), tau_grid=(0.0, 1.0))
    assert _tiny_sweep(ds, beta_grid=(0.5, 0.5), tau_grid=(0.0, 1.0, 0.0)) == once


def test_a_budget_repeated_in_n_grid_is_swept_once_at_its_first_position():
    """A repeated n would give a second set of rows for the same (method, n, beta,
    tau, repeat) keys, from other streams, and double the aggregate's runs.  The
    other budgets keep the streams of their position in the grid."""
    ds = _dataset()
    kwargs = dict(beta_grid=(0.0, 1.0), alpha=0.2)
    assert _tiny_sweep(ds, n_grid=(4, 4), **kwargs) == _tiny_sweep(ds, n_grid=(4,), **kwargs)
    spread = _tiny_sweep(ds, n_grid=(4, 4, 6), **kwargs)
    plain = _tiny_sweep(ds, n_grid=(4, 6), **kwargs)
    assert len(spread) == len(plain) == 3 * 2 * 2 * 3
    assert [r for r in spread if r["n"] == 4] == [r for r in plain if r["n"] == 4]
    assert [r["width"] for r in spread if r["n"] == 6] != [r["width"] for r in plain if r["n"] == 6]
    assert [a["runs"] for a in aggregate(spread)] == [3] * 12


def test_a_crc_grid_builds_one_draw_count_matrix_per_unit(monkeypatch):
    """Every (beta, tau) of an (n, repeat) calibrates on one batch set, which
    builds its draw counts from one pass over its index blocks."""
    reads = []
    blocks = crc.CalibrationBatches.blocks
    monkeypatch.setattr(crc.CalibrationBatches, "blocks", lambda self: reads.append(self) or blocks(self))
    grid = dict(beta_grid=(0.0, 0.5, 1.0), tau_grid=(0.0, 0.25, 0.5), methods=("crc",), alpha=0.2)
    rows = _tiny_sweep(_dataset(), workers=2, **grid)
    assert len(rows) == 2 * 9 * 3 and {r["status"] for r in rows} == {"ok"}
    assert len(reads) == len(set(map(id, reads))) == 2 * 3  # n_grid x repeats


def test_sweep_rows_are_read_only_mappings_over_the_row_fields():
    ok = {"method": "ppi", "n": 10, "beta": 0.5, "tau": 0.0, "repeat": 3, "width": 0.25,
          "covered": 1, "low": 1.0, "high": 1.25, "truth": 1.1, "status": "ok"}
    failed = {**ok, "width": "", "covered": "", "low": "", "high": "", "status": "error: x"}
    for fields in (ok, failed):
        row = SweepRow(*(fields[k] for k in ROW_FIELDS if k != "width"))
        assert isinstance(row, Mapping)
        assert list(row) == ROW_FIELDS and len(row) == len(ROW_FIELDS)
        for key in ROW_FIELDS:
            assert row[key] == fields[key] and key in row and row.get(key) == fields[key]
        for key in ("repeats", "keys", "__slots__", "__class__", "", 0, None):
            with pytest.raises(KeyError):
                row[key]
            assert row.get(key) is None
            assert key not in row
        assert row == fields and dict(row) == fields and fields == row
        assert row != {**fields, "status": "other"}
        with pytest.raises(TypeError):
            row["low"] = 0.0
        copy = pickle.loads(pickle.dumps(row))
        assert type(copy) is SweepRow and copy == row


def test_a_sweep_row_takes_exactly_its_ten_stored_fields():
    fields = ("ppi", 10, 0.5, 0.0, 3, 1, 1.0, 1.25, 1.1, "ok")
    assert dict(SweepRow(*fields))["width"] == 0.25
    for wrong in (fields[:-1], fields + ("extra",)):
        with pytest.raises(TypeError):
            SweepRow(*wrong)


def test_sweep_rows_write_the_csv_that_dict_rows_write():
    """The rows of a one-(beta, tau) sweep, failed ones included, write the
    bytes of plain dict rows built the long way."""
    ds = _dataset(queries=60, docs=12, seed=4)
    grid = dict(n_grid=(12, 20), beta_grid=(0.5,), tau_grid=(0.25,), repeats=2, alpha=0.1,
                num_batches=100, seed=3, split_seed=11)
    rows = sweep(ds, DCG, **grid)
    expected = _dataset_level_rows(ds, DCG, **grid)
    failed = sweep(ds, DCG, n_grid=(40,), repeats=1, num_batches=100)
    assert all(isinstance(r, SweepRow) for r in rows + failed)
    for ours, theirs in ((rows, expected), (failed, [dict(r) for r in failed])):
        written = [io.StringIO(), io.StringIO()]
        write_csv(written[0], ROW_FIELDS, ours)
        write_csv(written[1], ROW_FIELDS, theirs)
        assert written[0].getvalue() == written[1].getvalue()


def test_a_sweep_row_takes_at_most_a_quarter_kilobyte():
    """A run keeps every row; a row with its own two floats (low and high)
    stays within 0.25 KB, counted with tracemalloc over 50,000 rows."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rows = [SweepRow("ppi", 40, 0.5, 0.5, i % 10, 1, i * 1.0, i + 1.5, 2.5, "ok")
                for i in range(50_000)]
        used = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert used / len(rows) <= 250


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
    monkeypatch.setattr(crc, "_COUNT_BLOCK", 50)  # 5-12 rows a chunk
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
    dict helpers, and crc through the public calibrate/crc_ci.  Streams are
    keyed by (index of n, repeat), and the one bootstrap_ci of an (n, repeat)
    is copied to every (beta, tau)."""
    pool = ds.labeled_queries()
    validation, test = halve_pool(pool, split_seed)
    true_u = true_utilities(spec, ds, pool)
    truth = dataset_utility(spec, test, true_u)
    transformed = {(b, t): oracle_dataset(bias_dataset(ds, b), t)
                   for b in beta_grid for t in tau_grid}
    rows = []
    for ni, n in enumerate(n_grid):
        for rep in range(repeats):
            rng = stream(seed, ni, rep, 0)
            labeled = sorted(rng.choice(np.array(validation), size=n, replace=False).tolist())
            labeled_true = [true_u[q] for q in labeled]
            boot = bootstrap_ci(labeled_true, alpha, resamples=num_batches,
                                seed=child_seed(seed, ni, rep, 1))
            batches = build_batches(labeled, num_batches=num_batches, batch_size=n,
                                    seed=child_seed(seed, ni, rep, 1))
            for (beta, tau), ds_t in transformed.items():
                pred_u = predicted_utilities(spec, ds_t, pool)
                base = {"n": n, "beta": beta, "tau": tau, "repeat": rep, "truth": truth}
                cis = {
                    "bootstrap": boot,
                    "ppi": ppi_ci(ppi_estimate(labeled_true, [pred_u[q] for q in labeled],
                                               [pred_u[q] for q in pool]), alpha),
                    "crc": crc_ci(spec, test, ds_t, calibrate(spec, batches, ds_t, alpha)),
                }
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


def _plan_file(text, tmp_path):
    """The plan that ``rankci-harness`` runs from a plan file holding ``text``."""
    path = tmp_path / "plan.txt"
    path.write_text(text, encoding="utf-8")
    args = cli.build_parser("rankci-harness").parse_args([str(path)])
    return cli._sweep_plan(args)[1]


def test_load_plan_defaults_match_default_plan(tmp_path):
    plan = _plan_file("name = desk-scale\n", tmp_path)
    ref = default_plan()
    assert plan == ref


def test_load_plan_parses_overrides(tmp_path):
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
    batches = 600
    alpha = 0.1
    seed = 42
    split_seed = 13
    workers = 2
    output_dir = out-here
    """
    plan = _plan_file(text, tmp_path)
    assert plan.name == "custom"
    assert plan.metric == parse_metric("prec@5")
    assert plan.synth.truth_prior == (0.5, 0.3, 0.2)
    assert plan.synth.annotator_sharpness == 3.5
    assert plan.n_grid == (4, 8)
    assert plan.beta_grid == (0.0, 1.0)
    assert plan.tau_grid == (0.0, 0.5, 1.0)
    assert plan.methods == ("bootstrap", "crc")
    assert plan.num_batches == 600
    assert plan.split_seed == 13
    assert plan.output_dir == "out-here"


def test_load_plan_rejects_unknown_keys_and_bad_lines(tmp_path):
    with pytest.raises(ValueError, match="unknown key"):
        _plan_file("bogus = 1\n", tmp_path)
    with pytest.raises(ValueError, match="line 2"):
        _plan_file("name = x\nnot a pair\n", tmp_path)


def test_load_plan_file_source(tmp_path):
    plan = _plan_file("run = r.txt\nqrels = q.txt\ndists = d.jsonl\n", tmp_path)
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
    out_dir = run_plan(plan, generate(plan.synth))
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


def test_a_file_sourced_plan_writes_the_artifacts_of_its_synthetic_twin(tmp_path, capsys):
    grid = "n_grid = 4,8\nbeta_grid = 0,0.5\ntau_grid = 0,0.5\nrepeats = 3\nbatches = 120\n"
    synthetic = _plan_file(f"{grid}queries = 40\ndocs_per_query = 20\n"
                           f"output_dir = {tmp_path / 'synthetic'}\n", tmp_path)
    ds = generate(synthetic.synth)
    for name, text in (("run", write_run(ds.rankings)), ("qrels", write_qrels(ds.truth)),
                       ("dists", write_dists(ds.predicted))):
        (tmp_path / name).write_text(text, encoding="utf-8")
    files = _plan_file(f"{grid}run = {tmp_path / 'run'}\nqrels = {tmp_path / 'qrels'}\n"
                       f"dists = {tmp_path / 'dists'}\noutput_dir = {tmp_path / 'files'}\n", tmp_path)
    assert files.synth is None
    expected = run_plan(synthetic, ds)
    # The file plan runs through rankci sweep's flags, its file loader included.
    got = tmp_path / "files"
    assert cli.main(["sweep", "--n-grid", "4,8", "--beta", "0,0.5", "--tau-grid", "0,0.5",
                     "--repeats", "3", "--batches", "120", "--output-dir", str(got),
                     *(f"--{name}={tmp_path / name}" for name in ("run", "qrels", "dists"))]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"wrote {got / name}" for name in ("rows.csv", "aggregate.csv", "per_query.csv",
                                           "summary.json")]
    for name in ("rows.csv", "aggregate.csv", "per_query.csv"):
        assert (got / name).read_bytes() == (expected / name).read_bytes(), name
    summaries = [json.loads((d / "summary.json").read_text(encoding="utf-8")) for d in (expected, got)]
    assert [s.pop("source") for s in summaries] == ["synthetic", "files"]
    assert summaries[0] == summaries[1]
