"""Risk-controlled intervals: perturbation algebra, batch calibration, and
the serialised calibration record."""

import dataclasses
import json
import re
import tracemalloc

import numpy as np
import pytest

from rankci import crc
from rankci.crc import (
    CalibrationBatches,
    CrcCalibration,
    _perturb_rows,
    _UtilityEngine,
    build_batches,
    calibrate,
    calibration_threshold,
    crc_ci,
    mu_crc,
    perturb_distribution,
    required_batches,
    utility_crc,
)
from rankci.errors import (
    CalibrationInfeasibleError,
    CalibrationMismatchError,
    EmptyQuerySetError,
    InsufficientDataError,
    TooFewBatchesError,
)
from rankci.metrics import MetricSpec, expected_gain, gain, parse_metric, predicted_utilities
from rankci.model import Dataset, Judgment, LabelScale, RankedList, RelevanceDistribution
from rankci.seeding import stream
from rankci.synth import SynthConfig, generate

DCG = parse_metric("dcg@10")
PREC = parse_metric("prec@5")
STAMP = {"metric": "dcg@10", "max_label": 3}


# --- perturbation ------------------------------------------------------------


def test_perturb_optimistic_worked_example():
    d = perturb_distribution(RelevanceDistribution((0.2, 0.3, 0.5)), 0.3)
    assert d.probs[0] == pytest.approx(0.0, abs=1e-15)
    assert d.probs[1] == pytest.approx(2.0 / 7.0, abs=1e-12)
    assert d.probs[2] == pytest.approx(5.0 / 7.0, abs=1e-12)


def test_perturb_pessimistic_worked_example():
    d = perturb_distribution(RelevanceDistribution((0.2, 0.3, 0.5)), -0.4)
    assert d.probs[0] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert d.probs[1] == pytest.approx(1.0 / 2.0, abs=1e-12)
    assert d.probs[2] == pytest.approx(1.0 / 6.0, abs=1e-12)


def test_perturb_zero_strength_is_identity():
    d = RelevanceDistribution((0.25, 0.5, 0.25))
    assert perturb_distribution(d, 0.0).probs == d.probs


def test_perturb_one_hot_is_invariant_at_any_strength():
    for hot in range(3):
        probs = tuple(1.0 if r == hot else 0.0 for r in range(3))
        for lam in (-0.99, -0.4, 0.0, 0.4, 0.99):
            out = perturb_distribution(RelevanceDistribution(probs), lam)
            assert out.probs == pytest.approx(probs, abs=1e-15)


@pytest.mark.parametrize("lam", [-1.0, 1.0, -1.5, 2.0])
def test_perturb_rejects_out_of_range_strength(lam):
    with pytest.raises(ValueError):
        perturb_distribution(RelevanceDistribution((0.5, 0.5)), lam)


def _hex(values):
    return [float(x).hex() for x in np.asarray(values).ravel()]


def _dirichlet_rows(rng, length):
    return np.vstack([rng.dirichlet(np.ones(length), size=100),
                      rng.dirichlet(np.full(length, 0.2), size=100)])


def test_scalar_perturbation_agrees_with_the_row_kernel():
    # One document per query at cutoff 1 (rank weight 1): in a many-row view,
    # each query's perturbed utility is its one row's perturbed expected gain.
    rng = stream(34)
    specs = (MetricSpec("dcg", 1, "exponential"), MetricSpec("precision", 1, "identity"))
    for length in range(2, 12):
        rows = _dirichlet_rows(rng, length)
        dists = [RelevanceDistribution(tuple(r)) for r in rows]
        qids = [f"q{i:03d}" for i in range(len(rows))]
        ds = Dataset(LabelScale(length - 1), {q: RankedList(q, ("d",)) for q in qids}, {},
                     {(q, "d"): d for q, d in zip(qids, dists)})
        views = [_UtilityEngine(spec, ds, qids) for spec in specs]
        for lam in (-0.97, -0.6, -0.25, -0.01, 0.0, 0.01, 0.25, 0.6, 0.97):
            got = [perturb_distribution(d, lam).probs for d in dists]
            assert _hex(got) == _hex(_perturb_rows(rows, lam))
            for view in views:
                expected = [mu_crc(view.spec, d, lam) for d in dists]
                assert _hex(view.per_query_utility(lam)) == _hex(expected)


def test_perturbed_distributions_stay_normalised():
    rng = stream(31)
    for _ in range(200):
        probs = rng.dirichlet(np.ones(4))
        for lam in (-0.9, -0.3, 0.2, 0.7):
            out = perturb_distribution(RelevanceDistribution(tuple(probs)), lam)
            assert sum(out.probs) == pytest.approx(1.0, abs=1e-12)
            assert all(p >= 0.0 for p in out.probs)


def test_expected_label_is_monotone_in_strength():
    rng = stream(32)
    grid = np.linspace(-0.95, 0.95, 39)
    for _ in range(50):
        d = RelevanceDistribution(tuple(rng.dirichlet(np.ones(5))))
        values = [mu_crc(PREC, d, lam) for lam in grid]
        assert all(b - a >= -1e-12 for a, b in zip(values, values[1:]))


# --- perturbed expected gain --------------------------------------------------


def test_mu_crc_at_zero_equals_expected_gain():
    rng = stream(35)
    rows = [[0.1, 0.2, 0.3, 0.4]]
    for length in range(2, 12):
        rows += _dirichlet_rows(rng, length).tolist()
    for row in rows:
        d = RelevanceDistribution(tuple(row))
        for spec in (DCG, PREC):
            assert mu_crc(spec, d, 0.0) == expected_gain(spec, d)


def test_mu_crc_extreme_strengths_reach_the_gain_range():
    rng = stream(33)
    for _ in range(50):
        raw = rng.dirichlet(np.ones(4)) + 0.05
        d = RelevanceDistribution(tuple(raw / raw.sum()))
        for spec in (DCG, PREC):
            assert mu_crc(spec, d, 0.999) == pytest.approx(gain(spec, 3), abs=1e-3)
            assert mu_crc(spec, d, -0.999) == pytest.approx(gain(spec, 0), abs=1e-3)


# --- dataset fixtures ---------------------------------------------------------


def _synth(sharpness=3.0, queries=30, docs=8, seed=2):
    return generate(SynthConfig(
        num_queries=queries, docs_per_query=docs, scale=LabelScale(2),
        truth_prior=(0.5, 0.3, 0.2), annotator_sharpness=sharpness, seed=seed,
    ))


def test_utility_crc_at_zero_matches_predicted_utility():
    ds = _synth()
    qs = ds.queries()[:10]
    pred_u = predicted_utilities(DCG, ds, qs)
    direct = sum(pred_u.values()) / len(qs)
    assert utility_crc(DCG, qs, ds, 0.0) == pytest.approx(direct, abs=1e-12)


def test_utility_crc_counts_duplicate_queries_twice():
    ds = _synth()
    a, b = ds.queries()[:2]
    u = utility_crc(DCG, [a, a, b], ds, 0.0)
    pred_u = predicted_utilities(DCG, ds, [a, b])
    assert u == pytest.approx((2 * pred_u[a] + pred_u[b]) / 3.0, abs=1e-12)


# --- batches -------------------------------------------------------------------


def test_build_batches_bootstrap_mode():
    pool = [f"q{i}" for i in range(8)]
    batches = build_batches(pool, num_batches=50, batch_size=6, seed=4)
    assert len(batches) == 50
    assert all(len(b) == 6 for b in batches)
    assert all(q in set(pool) for b in batches for q in b)
    assert list(batches) == list(build_batches(pool, num_batches=50, batch_size=6, seed=4))
    assert list(batches) != list(build_batches(pool, num_batches=50, batch_size=6, seed=5))


def test_build_batches_default_size_is_pool_size():
    pool = ["a", "b", "c"]
    batches = build_batches(pool, num_batches=10, seed=0)
    assert all(len(b) == 3 for b in batches)


def test_build_batches_per_query_mode():
    batches = build_batches(["c", "a", "b"], mode="per_query")
    assert list(batches) == [("a",), ("b",), ("c",)]


def test_batches_read_as_a_list_of_tuples():
    batches = build_batches(["c", "a", "b"], num_batches=6, batch_size=4, seed=2)
    as_list = list(batches)
    assert len(batches) == 6
    assert all(isinstance(b, tuple) and len(b) == 4 for b in as_list)
    assert list(CalibrationBatches.of(as_list)) == as_list
    ragged = [("b", "a"), ("c",), ("a", "a", "c")]
    with pytest.raises(ValueError):
        CalibrationBatches.of(ragged)
    with pytest.raises(ValueError):
        batches.index[0, 0] = 1  # read-only


def test_batches_leave_the_callers_index_writeable():
    index = np.zeros((3, 2), dtype=np.intp)
    batches = CalibrationBatches(["a", "b"], index)
    assert index.flags.writeable
    index[0, 0] = 1
    assert not batches.index.flags.writeable
    with pytest.raises(ValueError):
        batches.index[0, 0] = 1


@pytest.mark.parametrize("index, entry", [([[0, 1, 3], [0, 0, 0], [1, 1, 2]], r"\(0, 2\) is 3"),
                                          ([[0, 1, 2], [2, -1, 0]], r"\(1, 1\) is -1")])
def test_batches_refuse_an_index_entry_outside_the_pool(index, entry):
    # An entry of len(pool) would spill into the next batch's draw counts, and
    # -1 would read the last query on iteration but fail the counts.
    with pytest.raises(ValueError, match=f"entries in range\\(3\\); got a 2-D one, entry {entry}"):
        CalibrationBatches(["a", "b", "c"], np.array(index))
    inside = np.clip(index, 0, 2)
    assert list(CalibrationBatches(["a", "b", "c"], inside)) == [tuple("abc"[i] for i in row) for row in inside]


@pytest.mark.parametrize("index, dtype", [([[0.5, 1.9]], "float64"), ([[True, False]], "bool"),
                                          (np.array([[0.0, 1.0]], dtype=np.float32), "float32")])
def test_batches_refuse_an_index_that_does_not_hold_integers(index, dtype):
    # Cast to intp, [[0.5, 1.9]] used to read as the batch ("a", "b") and
    # [[True, False]] as ("b", "a").
    with pytest.raises(ValueError, match=f"must hold integers, got dtype {dtype}"):
        CalibrationBatches("abc", index)
    unsigned = np.array([[2, 0]], dtype=np.uint8)
    assert list(CalibrationBatches("abc", unsigned)) == [("c", "a")] and unsigned.flags.writeable


@pytest.mark.parametrize("index", [[0, 1, 2], [[[0]]], 1])
def test_batches_refuse_an_index_that_is_not_2d(index):
    with pytest.raises(ValueError, match=f"must be 2-D .*; got a {np.ndim(index)}-D one"):
        CalibrationBatches(["a", "b", "c"], index)


def test_build_batches_validation():
    with pytest.raises(InsufficientDataError):
        build_batches([], mode="per_query")
    with pytest.raises(ValueError):
        build_batches(["a"], mode="jackknife")
    with pytest.raises(ValueError):
        build_batches(["a"], mode="bootstrap")  # num_batches missing
    with pytest.raises(ValueError):
        build_batches(["a"], num_batches=5, batch_size=0)


# --- thresholds -----------------------------------------------------------------


def test_calibration_threshold_values():
    assert calibration_threshold(0.05, 10_000) == pytest.approx(0.0249525, abs=1e-9)
    assert calibration_threshold(0.05, 2_000) == pytest.approx(0.0247625, abs=1e-9)
    assert calibration_threshold(0.05, 20) == pytest.approx(0.00125, abs=1e-12)
    # at 19 batches the threshold is zero up to float rounding; the batch
    # count check, not the sign of this value, is what rejects it
    assert abs(calibration_threshold(0.05, 19)) < 1e-12


def test_required_batches():
    assert required_batches(0.05) == 20
    assert required_batches(0.1) == 10
    assert required_batches(0.5) == 2
    assert (required_batches(0.25), required_batches(0.07), required_batches(0.03)) == (4, 14, 33)
    assert (required_batches(0.15), required_batches(0.3)) == (6, 3)
    # the threshold is meaningfully positive from the required count upward
    # and vanishes (to rounding) one batch below it
    for alpha in (0.05, 0.1, 0.25):
        m = required_batches(alpha)
        assert calibration_threshold(alpha, m) > 1e-6
        assert calibration_threshold(alpha, m - 1) < 1e-12
    # on any alpha, it is positive at the required count and not one batch below
    for alpha in [0.01, 0.03, 0.07, 0.15, 0.3, 0.5, *np.linspace(0.011, 0.5, 97)]:
        m = required_batches(alpha)
        assert calibration_threshold(alpha, m) > 0.0, alpha
        assert calibration_threshold(alpha, m - 1) < 1e-12, alpha


# --- calibration ------------------------------------------------------------------


def test_calibrate_rejects_too_few_batches():
    ds = _synth()
    batches = build_batches(ds.queries(), num_batches=19, seed=0)
    with pytest.raises(TooFewBatchesError):
        calibrate(DCG, batches, ds, alpha=0.05)


def test_calibrate_refuses_ragged_and_empty_batches():
    ds = _synth()
    batches = list(build_batches(ds.queries(), num_batches=30, batch_size=4, seed=0))
    with pytest.raises(ValueError, match="same length"):
        calibrate(DCG, batches[:-1] + [batches[-1][:3]], ds, alpha=0.1)
    with pytest.raises(ValueError, match="non-empty"):
        calibrate(DCG, [()] * 30, ds, alpha=0.1)
    with pytest.raises(InsufficientDataError):
        calibrate(DCG, [], ds, alpha=0.1)


def test_calibrate_succeeds_with_perfect_predictions_and_minimum_batches():
    # An infinitely sharp annotator predicts the exact one-hot truth, so the
    # perturbed utility equals the true utility at every strength and both
    # achieved losses are zero.
    ds = _synth(sharpness=float("inf"))
    batches = build_batches(ds.queries(), num_batches=20, seed=1)
    cal = calibrate(DCG, batches, ds, alpha=0.05)
    assert cal.achieved_loss_low == 0.0
    assert cal.achieved_loss_high == 0.0
    assert -1.0 < cal.lambda_low < cal.lambda_high < 1.0
    ci = crc_ci(DCG, ds.queries(), ds, cal)
    # the interval collapses onto the (exactly predicted) utility
    assert ci.width == pytest.approx(0.0, abs=1e-9)


def test_calibrate_accepts_the_required_count_where_the_ratio_is_not_an_integer():
    # (1 - 0.07) / 0.07 = 13.29, so 14 batches leave a threshold of 0.0018 > 0.
    ds = _synth(sharpness=float("inf"))
    cal = calibrate(DCG, build_batches(ds.queries(), num_batches=14, seed=1), ds, alpha=0.07)
    assert (cal.num_batches, cal.achieved_loss_low, cal.achieved_loss_high) == (14, 0.0, 0.0)
    with pytest.raises(TooFewBatchesError, match="needs at least 14"):
        calibrate(DCG, build_batches(ds.queries(), num_batches=13, seed=1), ds, alpha=0.07)


def test_calibrations_on_one_batch_set_build_its_draw_counts_once(monkeypatch):
    ds = _synth()
    reads = []
    blocks = CalibrationBatches.blocks
    monkeypatch.setattr(CalibrationBatches, "blocks", lambda self: reads.append(self) or blocks(self))
    batches = build_batches(ds.queries(), num_batches=40, seed=3)
    first = calibrate(DCG, batches, ds, alpha=0.1)
    assert calibrate(DCG, batches, ds, alpha=0.1) == first
    assert calibrate(PREC, batches, ds, alpha=0.2).metric == "prec@5"
    assert reads == [batches]
    # A fresh batch set over the same draws builds its own counts, to the same calibration.
    assert calibrate(DCG, build_batches(ds.queries(), num_batches=40, seed=3), ds, alpha=0.1) == first
    assert len(reads) == 2


def test_calibrate_raises_when_no_strength_can_reach_the_truth():
    # Predictions stuck at label 0 are one-hot, hence invariant under every
    # perturbation strength, while the true labels sit at 1: no strength
    # makes the optimistic bound reach the truth.
    scale = LabelScale(1)
    rankings, truth, predicted = {}, {}, {}
    for i in range(10):
        qid = f"q{i}"
        rankings[qid] = RankedList(query_id=qid, doc_ids=("d0", "d1"))
        for doc in ("d0", "d1"):
            truth[(qid, doc)] = Judgment(1)
            predicted[(qid, doc)] = RelevanceDistribution((1.0, 0.0))
    ds = Dataset(scale=scale, rankings=rankings, truth=truth, predicted=predicted)
    batches = build_batches(ds.queries(), num_batches=25, seed=0)
    with pytest.raises(CalibrationInfeasibleError):
        calibrate(PREC, batches, ds, alpha=0.05)


def test_calibrate_is_invariant_to_batch_order():
    ds = _synth()
    batches = build_batches(ds.queries(), num_batches=40, batch_size=10, seed=6)
    a = calibrate(DCG, batches, ds, alpha=0.05)
    b = calibrate(DCG, list(batches)[::-1], ds, alpha=0.05)
    assert (a.lambda_low, a.lambda_high) == (b.lambda_low, b.lambda_high)


def test_calibrate_keeps_losses_under_threshold_and_is_recomputable():
    ds = _synth(sharpness=2.0, queries=40, docs=10, seed=9)
    batches = build_batches(ds.queries(), num_batches=60, batch_size=12, seed=7)
    cal = calibrate(DCG, batches, ds, alpha=0.1)
    thr = calibration_threshold(0.1, 60)
    assert 0.0 <= cal.achieved_loss_high < thr
    assert 0.0 <= cal.achieved_loss_low < thr

    # Recompute the high-side loss from scratch with the public pieces.
    from rankci.metrics import query_utility_true

    misses = 0
    for batch in batches:
        true_mean = float(np.mean([
            query_utility_true(DCG, ds.rankings[q], ds.truth) for q in batch
        ]))
        if utility_crc(DCG, batch, ds, cal.lambda_high) < true_mean:
            misses += 1
    assert misses / len(batches) == pytest.approx(cal.achieved_loss_high, abs=1e-12)


def test_per_query_calibration_memory_stays_far_below_a_dense_matrix():
    # 3,000 singleton batches over 3,000 queries: a dense batch-by-query
    # weight matrix would take 8 * 3000**2 bytes (72 MB).
    n = 3000
    ds = generate(SynthConfig(num_queries=n, docs_per_query=4, scale=LabelScale(1),
                              truth_prior=(0.7, 0.3), annotator_sharpness=3.0, seed=5))
    batches = build_batches(ds.queries(), mode="per_query")
    tracemalloc.start()
    try:
        cal = calibrate(DCG, batches, ds, alpha=0.05)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cal.num_batches == n
    assert peak < 8 * n * n / 10


@pytest.mark.parametrize("compact", [False, True])
@pytest.mark.parametrize("read_index_first", [False, True])
def test_drawn_batches_equal_one_block_draw(read_index_first, compact, monkeypatch):
    """Batches drawn in row blocks on demand read, iterate and calibrate as
    the index drawn in one block, whether ``index`` is read first or not."""
    if compact:
        monkeypatch.setattr(crc, "_DENSE_COUNTS", 0)
    ds = _synth(queries=40, docs=5, seed=7)
    pool = ds.queries()
    one_block = stream(6).integers(0, len(pool), size=(1500, 60))  # drawn in 12 blocks
    batches = build_batches(pool, num_batches=1500, batch_size=60, seed=6)
    if read_index_first:
        assert np.array_equal(batches.index, one_block)
    explicit = CalibrationBatches(pool, one_block)
    assert list(batches) == list(explicit)
    assert calibrate(DCG, batches, ds, 0.1) == calibrate(DCG, explicit, ds, 0.1)
    assert np.array_equal(batches.index, one_block) and not batches.index.flags.writeable


def test_calibration_memory_holds_neither_the_index_nor_float64_counts():
    # 2,000 batches of 1,000 labeled queries: the intp index and a float64
    # count matrix would take 16 MB each.
    ds = generate(SynthConfig(num_queries=1000, docs_per_query=5, scale=LabelScale(2),
                              truth_prior=(0.5, 0.3, 0.2), annotator_sharpness=3.0, seed=4))
    tracemalloc.start()
    try:
        cal = calibrate(DCG, build_batches(ds.queries(), num_batches=2000, seed=3), ds, 0.05)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cal.num_batches == 2000
    assert peak < 8 * 2**20


def test_crc_ci_report_contents():
    ds = _synth()
    batches = build_batches(ds.queries(), num_batches=30, batch_size=10, seed=8)
    cal = calibrate(DCG, batches, ds, alpha=0.1)
    ci = crc_ci(DCG, ds.queries(), ds, cal)
    assert ci.method == "crc"
    assert ci.lower <= ci.upper
    assert ci.estimate == pytest.approx(utility_crc(DCG, ds.queries(), ds, 0.0), abs=1e-12)
    assert ci.diagnostics["lambda_low"] == cal.lambda_low
    assert ci.diagnostics["lambda_high"] == cal.lambda_high
    with pytest.raises(EmptyQuerySetError):
        crc_ci(DCG, [], ds, cal)


@pytest.mark.parametrize("stamp", [{"metric": "prec@5"}, {"max_label": 3},
                                   {"metric": None, "max_label": None}])
def test_crc_ci_refuses_a_record_it_is_not_stamped_for(stamp):
    ds = _synth()
    batches = build_batches(ds.queries(), num_batches=30, batch_size=10, seed=8)
    cal = dataclasses.replace(calibrate(DCG, batches, ds, alpha=0.1), **stamp)
    with pytest.raises(CalibrationMismatchError):
        crc_ci(DCG, ds.queries(), ds, cal)


# --- the serialised record ----------------------------------------------------------


def test_calibration_record_round_trips_exactly():
    cal = CrcCalibration(lambda_low=-0.123456789, lambda_high=0.987654321,
                         alpha=0.05, num_batches=2000,
                         achieved_loss_low=0.0205, achieved_loss_high=0.0215, **STAMP)
    again = CrcCalibration.from_text(cal.to_text())
    assert again == cal


def test_calibration_record_validates_itself():
    with pytest.raises(ValueError):
        CrcCalibration(lambda_low=0.5, lambda_high=0.4, alpha=0.05,
                       num_batches=2000, achieved_loss_low=0.0, achieved_loss_high=0.0, **STAMP)
    with pytest.raises(ValueError):
        CrcCalibration(lambda_low=-0.5, lambda_high=0.5, alpha=0.05,
                       num_batches=2000, achieved_loss_low=0.5, achieved_loss_high=0.0, **STAMP)
    with pytest.raises(ValueError):
        CrcCalibration(lambda_low=-1.0, lambda_high=0.5, alpha=0.05,
                       num_batches=2000, achieved_loss_low=0.0, achieved_loss_high=0.0, **STAMP)


@pytest.mark.parametrize("text", ["not json", "[1, 2]", '{"lambda_low": 0.1}'])
def test_calibration_record_rejects_malformed_text(text):
    with pytest.raises(ValueError):
        CrcCalibration.from_text(text)


@pytest.mark.parametrize("key, value", [("max_label", 3.9), ("max_label", 3.0), ("max_label", True),
                                        ("num_batches", 2000.5), ("num_batches", True),
                                        ("num_batches", "2000")])
def test_calibration_record_refuses_a_count_that_is_not_a_json_integer(key, value):
    raw = {"lambda_low": -0.5, "lambda_high": 0.5, "alpha": 0.05, "num_batches": 2000,
           "achieved_loss_low": 0.0, "achieved_loss_high": 0.0, **STAMP}
    assert CrcCalibration.from_text(json.dumps(raw)).max_label == 3
    raw[key] = value
    with pytest.raises(ValueError, match=f"malformed calibration record: {key} must be an integer, "
                                         f"got {json.dumps(value)}"):
        CrcCalibration.from_text(json.dumps(raw))


@pytest.mark.parametrize("key, value, kind", [
    ("alpha", "0.1", "a number"), ("lambda_high", "0.3", "a number"), ("lambda_low", True, "a number"),
    ("achieved_loss_low", False, "a number"), ("achieved_loss_high", [0.0], "a number"),
    ("metric", 10, "a string"), ("metric", ["dcg@10"], "a string"),
])
def test_calibration_record_refuses_a_field_of_the_wrong_json_type(key, value, kind):
    raw = {"lambda_low": -0.5, "lambda_high": 0.5, "alpha": 0.05, "num_batches": 2000,
           "achieved_loss_low": 0.0, "achieved_loss_high": 0.0, **STAMP}
    assert CrcCalibration.from_text(json.dumps(raw | {"alpha": 1 / 20, "lambda_high": 0})).lambda_high == 0.0
    raw[key] = value
    with pytest.raises(ValueError, match=rf"malformed calibration record: {key} must be {kind}, "
                                         rf"got {re.escape(json.dumps(value))}"):
        CrcCalibration.from_text(json.dumps(raw))


def test_calibration_record_refuses_an_integer_too_large_for_a_float():
    raw = {"lambda_low": -0.5, "lambda_high": 0.5, "alpha": 10**400, "num_batches": 2000,
           "achieved_loss_low": 0.0, "achieved_loss_high": 0.0, **STAMP}
    with pytest.raises(ValueError, match="malformed calibration record: int too large to convert to float"):
        CrcCalibration.from_text(json.dumps(raw))


@pytest.mark.parametrize("key", ["metric", "max_label"])
@pytest.mark.parametrize("null", [False, True])
def test_calibration_record_without_a_stamp_is_malformed(key, null):
    raw = {"lambda_low": -0.5, "lambda_high": 0.5, "alpha": 0.05, "num_batches": 200,
           "achieved_loss_low": 0.0, "achieved_loss_high": 0.0, **STAMP}
    assert CrcCalibration.from_text(json.dumps(raw)).max_label == 3
    if null:
        raw[key] = None
    else:
        del raw[key]
    with pytest.raises(ValueError, match=f"malformed calibration record: '{key}'"):
        CrcCalibration.from_text(json.dumps(raw))
