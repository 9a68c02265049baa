"""Property tests of risk-controlled calibration on small synthetic datasets
and on Dirichlet-drawn predictions with many distinct cumulative masses.

Run derandomized, so every run draws the same examples."""

import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rankci import cli, crc
from rankci.crc import (
    _LAM_EDGE,
    _batch_means,
    _knots,
    _perturb_rows,
    _UtilityEngine,
    CalibrationBatches,
    build_batches,
    calibrate,
    calibration_threshold,
    utility_crc,
)
from rankci.corpus import write_dists, write_qrels, write_run
from rankci.errors import CalibrationInfeasibleError
from rankci.harness import per_query_rows, sweep
from rankci.metrics import MetricSpec, gain_vector, query_utility_true
from rankci.model import (Dataset, Judgment, LabelScale, RankedList, RelevanceDistribution,
                          left_sum)
from rankci.synth import SynthConfig, generate

PROPERTY = settings(derandomize=True, deadline=None, max_examples=40)


@st.composite
def datasets(draw):
    max_label = draw(st.integers(1, 3))
    config = SynthConfig(
        num_queries=draw(st.integers(6, 16)),
        docs_per_query=draw(st.integers(2, 12)),
        scale=LabelScale(max_label),
        truth_prior=(1.0 / (max_label + 1),) * (max_label + 1),
        annotator_sharpness=draw(st.floats(0.5, 6.0)),
        seed=draw(st.integers(0, 10_000)),
    )
    spec = MetricSpec(draw(st.sampled_from(["dcg", "precision"])), draw(st.integers(1, 10)),
                      draw(st.sampled_from(["identity", "exponential"])))
    return spec, generate(config)


def _calibrate_or_reject(spec, batches, ds, alpha):
    try:
        return calibrate(spec, batches, ds, alpha)
    except CalibrationInfeasibleError:
        assume(False)


@PROPERTY
@given(data=datasets(), num_batches=st.integers(20, 60), batch_size=st.integers(1, 20),
       seed=st.integers(0, 1000))
def test_calibrate_is_the_same_on_built_batches_and_on_a_plain_list(data, num_batches,
                                                                     batch_size, seed):
    spec, ds = data
    batches = build_batches(ds.queries(), num_batches=num_batches, batch_size=batch_size,
                            seed=seed)
    as_list = [tuple(b) for b in batches]
    assert list(batches) == as_list
    assert _calibrate_or_reject(spec, batches, ds, 0.1) == calibrate(spec, as_list, ds, 0.1)


@PROPERTY
@given(data=datasets(), num_batches=st.integers(20, 60), batch_size=st.integers(1, 20),
       seed=st.integers(0, 1000))
def test_achieved_losses_match_a_per_batch_recount(data, num_batches, batch_size, seed):
    spec, ds = data
    batches = list(build_batches(ds.queries(), num_batches=num_batches,
                                 batch_size=batch_size, seed=seed))
    cal = _calibrate_or_reject(spec, batches, ds, 0.1)
    true_means = [float(np.mean([query_utility_true(spec, ds.rankings[q], ds.truth)
                                 for q in batch])) for batch in batches]

    def losses(lam):
        """(high-side, low-side) loss at ``lam``, recounted batch by batch."""
        utils = [utility_crc(spec, batch, ds, lam) for batch in batches]
        return (sum(u < t for u, t in zip(utils, true_means)) / len(batches),
                sum(u > t for u, t in zip(utils, true_means)) / len(batches))

    assert losses(cal.lambda_high)[0] == cal.achieved_loss_high
    assert losses(cal.lambda_low)[1] == cal.achieved_loss_low
    # Tight as well as sound: 1e-9 less strength breaks the bound, except
    # where a search stopped at an edge or lambda_low was nudged under
    # lambda_high.
    thr = calibration_threshold(0.1, len(batches))
    if cal.lambda_high > -_LAM_EDGE:
        assert losses(max(cal.lambda_high - 1e-9, -_LAM_EDGE))[0] >= thr
    nudged = cal.lambda_high == -_LAM_EDGE or cal.lambda_high - cal.lambda_low <= 2e-9
    if cal.lambda_low < _LAM_EDGE and not nudged:
        assert losses(min(cal.lambda_low + 1e-9, _LAM_EDGE))[1] >= thr


@PROPERTY
@given(data=datasets(),
       lams=st.lists(st.floats(-0.999, 0.999), min_size=2, max_size=12, unique=True))
def test_per_query_perturbed_utility_is_non_decreasing_in_strength(data, lams):
    spec, ds = data
    engine = _UtilityEngine(spec, ds, ds.queries())
    values = np.array([engine.per_query_utility(lam) for lam in sorted(lams)])
    assert (np.diff(values, axis=0) >= -1e-12).all()


@PROPERTY
@given(m=st.integers(1, 40), b=st.integers(1, 12), shift=st.integers(0, 12),
       dense=st.booleans(), seed=st.integers(0, 10_000))
@example(m=5, b=1, shift=0, dense=True, seed=0)
@example(m=5, b=1, shift=0, dense=False, seed=0)
def test_batch_means_are_the_row_means_of_the_indexed_values(m, b, shift, dense, seed):
    # Both sides of the switch: a draw-count matrix when the query list is no
    # longer than a batch, column sums otherwise.
    n_q = max(1, b - shift) if dense else b + 1 + shift
    rng = np.random.default_rng(seed)
    index = rng.integers(0, n_q, size=(m, b))
    values = rng.uniform(0.0, 10.0, size=n_q)
    np.testing.assert_allclose(_batch_means(CalibrationBatches(range(n_q), index))(values),
                               values[index].mean(axis=1),
                               rtol=1e-12, atol=0.0)


@PROPERTY
@given(m=st.integers(1, 40), b=st.integers(1, 12), shift=st.integers(0, 12),
       dense=st.booleans(), block=st.integers(1, 30), seed=st.integers(0, 10_000))
@example(m=7, b=3, shift=1, dense=True, block=6, seed=0)  # 7 rows in blocks of 2
@example(m=5, b=12, shift=0, dense=True, block=8, seed=1)  # a row longer than a block
@example(m=9, b=4, shift=2, dense=False, block=8, seed=2)  # more queries than a batch holds
def test_blockwise_draw_counts_equal_an_add_at_reference(m, b, shift, dense, block, seed):
    n_q = max(1, b - shift) if dense else b + 1 + shift
    rng = np.random.default_rng(seed)
    index = rng.integers(0, n_q, size=(m, b))
    counts = np.zeros((m, n_q))
    np.add.at(counts, (np.arange(m)[:, None], index), 1.0)
    with mock.patch.object(crc, "_COUNT_BLOCK", block):
        batch_means = _batch_means(CalibrationBatches(range(n_q), index))
    # The means of the unit vectors are the draw counts over b, exactly.
    assert np.array_equal(batch_means(np.eye(n_q)), counts / b)


@PROPERTY
@given(m=st.integers(1, 400), n=st.integers(1, 22), extra=st.integers(0, 300),
       seed=st.integers(0, 2**32 - 1))
@example(m=129, n=20, extra=0, seed=0)  # a one-row tail after two 64-row blocks
@example(m=200, n=20, extra=280, seed=1)  # b = 300: two-byte counts
def test_compact_counts_give_one_float64_products_bits(m, n, extra, seed):
    """Counts held compactly and turned to float64 in 64-row blocks give the
    bits of one float64 product, tail blocks included.  Products stay under
    9,216 entries, below which OpenBLAS sums each one in a single thread."""
    batches = build_batches([f"q{i:02d}" for i in range(n)], num_batches=m, batch_size=n + extra,
                            seed=seed)
    values = np.random.default_rng(seed).uniform(0.0, 10.0, size=n)
    dense = _batch_means(batches)(values)
    with mock.patch.object(crc, "_DENSE_COUNTS", 0), mock.patch.object(crc, "_PRODUCT_ENTRIES", 64 * n):
        compact = _batch_means(batches)(values)
    assert [x.hex() for x in compact] == [x.hex() for x in dense]


# --- many knots: the exact search against a scalar reference -----------------


def _dirichlet_dataset(seed, num_queries, docs=10, max_label=3):
    """Uniformly random labels and Dirichlet(1, ..., 1) predictions: every row
    brings max_label distinct cumulative masses per side."""
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(max_label + 1), size=(num_queries, docs))
    labels = rng.integers(0, max_label + 1, size=(num_queries, docs))
    rankings, truth, predicted = {}, {}, {}
    for i in range(num_queries):
        qid = f"q{i:03d}"
        doc_ids = tuple(f"d{j:03d}" for j in range(docs))
        rankings[qid] = RankedList(qid, doc_ids)
        for j, doc in enumerate(doc_ids):
            truth[(qid, doc)] = Judgment(int(labels[i, j]))
            predicted[(qid, doc)] = RelevanceDistribution(tuple(probs[i, j].tolist()))
    return Dataset(LabelScale(max_label), rankings, truth, predicted)


def _crossing(f, target):
    """Smallest strength in [-_LAM_EDGE, _LAM_EDGE] at which the
    non-decreasing ``f`` reaches ``target``, to 1e-12, by scalar bisection;
    -inf if it already has at the lower end and +inf if it never does."""
    lo, hi = -_LAM_EDGE, _LAM_EDGE
    if f(lo) >= target:
        return -math.inf
    if f(hi) < target:
        return math.inf
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if f(mid) >= target else (mid, hi)
    return hi


def _reference_strengths(spec, batches, ds, alpha):
    """(lambda_low, lambda_high) as order statistics of per-batch crossing
    strengths, each found by bisection through the public utility_crc."""
    m = len(batches)
    allowed = max(c for c in range(m + 1) if c / m < calibration_threshold(alpha, m))
    high, low = [], []
    for batch in batches:
        true_mean = float(np.mean([query_utility_true(spec, ds.rankings[q], ds.truth)
                                   for q in batch]))
        high.append(_crossing(lambda lam: utility_crc(spec, batch, ds, lam), true_mean))
        # The low side misses where the utility exceeds the truth: mirrored.
        low.append(-_crossing(lambda x: -utility_crc(spec, batch, ds, -x), -true_mean))
    return sorted(low)[allowed], sorted(high)[m - allowed - 1]


@settings(derandomize=True, deadline=None, max_examples=30)
@given(seed=st.integers(0, 10_000), lams=st.lists(st.floats(-0.99, 0.99), min_size=1,
                                                  max_size=8))
def test_perturbed_expected_gain_is_a_piecewise_linear_numerator_over_one_minus_strength(
        seed, lams):
    probs = np.random.default_rng(seed).dirichlet(np.ones(4), size=330)
    gains = gain_vector(MetricSpec("dcg", 10, "exponential"), LabelScale(3))
    assert len(_knots(probs)) > 1000
    # From the bottom, a row's numerator falls linearly between its cumulative
    # masses, through the tail sums of p * g, to 0 at strength 1; from the top
    # it falls through the head sums.
    up_masses, up_values = np.cumsum(probs, axis=1), np.cumsum((probs * gains)[:, ::-1], axis=1)
    down_masses = np.cumsum(probs[:, ::-1], axis=1)
    down_values = np.cumsum(probs * gains, axis=1)
    for lam in lams:
        masses, values = (up_masses, up_values) if lam >= 0 else (down_masses, down_values)
        numerators = np.array([
            np.interp(abs(lam), np.append(0.0, mass[:-1]).tolist() + [1.0],
                      value[::-1].tolist() + [0.0])
            for mass, value in zip(masses, values)
        ])
        np.testing.assert_allclose(numerators / (1.0 - abs(lam)),
                                   _perturb_rows(probs, lam) @ gains, rtol=1e-12, atol=1e-12)


@settings(derandomize=True, deadline=None, max_examples=8)
@given(seed=st.integers(0, 10_000), num_queries=st.integers(18, 25),
       num_batches=st.integers(20, 30), batch_size=st.integers(1, 6),
       spec=st.sampled_from([MetricSpec("dcg", 10, "exponential"),
                             MetricSpec("precision", 10, "identity")]))
def test_calibrated_strengths_are_order_statistics_of_per_batch_crossings(
        seed, num_queries, num_batches, batch_size, spec):
    ds = _dirichlet_dataset(seed, num_queries)
    assert len(_knots(_UtilityEngine(spec, ds, ds.queries()).probs)) > 1000
    batches = list(build_batches(ds.queries(), num_batches=num_batches, batch_size=batch_size,
                                 seed=seed))
    ref_low, ref_high = _reference_strengths(spec, batches, ds, 0.2)
    if not (ref_high < math.inf and ref_low > -math.inf):
        with pytest.raises(CalibrationInfeasibleError):
            calibrate(spec, batches, ds, 0.2)
        return
    cal = calibrate(spec, batches, ds, 0.2)
    assert abs(cal.lambda_high - max(ref_high, -_LAM_EDGE)) <= 1e-9
    if ref_low < ref_high:
        assert abs(cal.lambda_low - min(ref_low, _LAM_EDGE)) <= 1e-9


def _counting_probes(monkeypatch):
    """A list that grows by one for every perturbed evaluation of a view."""
    probes = []
    evaluate = _UtilityEngine.per_query_utility

    def counted(self, lam):
        probes.append(lam)
        return evaluate(self, lam)

    monkeypatch.setattr(_UtilityEngine, "per_query_utility", counted)
    return probes


def test_singleton_batches_take_the_exact_search_and_match_the_reference(monkeypatch):
    ds = _dirichlet_dataset(3, 25)
    spec = MetricSpec("dcg", 10, "exponential")
    batches = build_batches(ds.queries(), mode="per_query")
    probes = _counting_probes(monkeypatch)
    cal = calibrate(spec, batches, ds, 0.2)
    # Two knot bisections and a confirming evaluation each, where a blind
    # bisection to 1e-9 would take about 30 steps per side.
    knots = len(_knots(_UtilityEngine(spec, ds, ds.queries()).probs))
    assert knots > 1000
    assert len(probes) <= 2 * (math.ceil(math.log2(knots + 1)) + 1)
    monkeypatch.undo()
    ref_low, ref_high = _reference_strengths(spec, list(batches), ds, 0.2)
    assert abs(cal.lambda_high - ref_high) <= 1e-9
    assert abs(cal.lambda_low - ref_low) <= 1e-9


def test_strength_stops_at_the_lower_edge_when_the_whole_interval_satisfies_the_bound():
    # Every true label is 0, so no perturbed utility falls below the truth:
    # the high side holds from the lower edge on, and lambda_low is nudged
    # under it.
    rankings, truth, predicted = {}, {}, {}
    for i in range(12):
        qid = f"q{i}"
        rankings[qid] = RankedList(qid, ("d0", "d1"))
        for j, doc in enumerate(("d0", "d1")):
            truth[(qid, doc)] = Judgment(0)
            predicted[(qid, doc)] = RelevanceDistribution((0.5 + 0.03 * i, 0.5 - 0.03 * i - 0.01 * j,
                                                           0.01 * j))
    ds = Dataset(LabelScale(2), rankings, truth, predicted)
    spec = MetricSpec("precision", 2, "identity")
    batches = build_batches(ds.queries(), num_batches=40, batch_size=3, seed=4)
    cal = calibrate(spec, batches, ds, 0.1)
    assert cal.lambda_high == -_LAM_EDGE
    assert cal.achieved_loss_high == 0.0
    assert -1.0 < cal.lambda_low < cal.lambda_high
    assert cal.achieved_loss_low < calibration_threshold(0.1, 40)


# --- the view's caches -------------------------------------------------------


def _hex(values):
    return [float(x).hex() for x in np.asarray(values).ravel()]


def _probe_strengths(knots, picks):
    """Knots, points between two knots, 0 and both edges, each on both signs."""
    at = [int(p * (len(knots) - 2)) for p in picks]
    inner = [float(knots[i + 1]) for i in at]
    between = [float(knots[i] + picks[0] * (knots[i + 1] - knots[i])) for i in at]
    return {s * x for x in [*inner, *between, 0.0, _LAM_EDGE] for s in (1.0, -1.0)}


@settings(derandomize=True, deadline=None, max_examples=25)
@given(seed=st.integers(0, 10_000), num_queries=st.integers(2, 12), docs=st.integers(1, 6),
       max_label=st.integers(1, 8), picks=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
       spec=st.sampled_from([MetricSpec("dcg", 5, "exponential"),
                             MetricSpec("precision", 3, "identity")]))
def test_cached_evaluations_are_bit_equal_to_the_perturbed_rows(seed, num_queries, docs,
                                                                max_label, picks, spec):
    ds = _dirichlet_dataset(seed, num_queries, docs, max_label)
    view = _UtilityEngine(spec, ds, ds.queries())
    for lam in _probe_strengths(view.knots, picks):
        rows = left_sum(_perturb_rows(view.probs, lam) * view.gains)
        expected = _hex(view._per_query(rows))
        assert _hex(view.per_query_utility(lam)) == expected
        assert _hex(view.knot_utility(lam)) == expected
        assert _hex(view.knot_utility(lam)) == expected  # read from the memo at a knot
    assert set(view.memo) <= set(view.knots.tolist())
    assert 0.0 in view.memo and _LAM_EDGE in view.memo and -_LAM_EDGE in view.memo


@settings(derandomize=True, deadline=None, max_examples=25)
@given(seed=st.integers(0, 10_000), num_queries=st.integers(2, 12), docs=st.integers(1, 6),
       max_label=st.integers(1, 10), picks=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
       spec=st.sampled_from([MetricSpec("dcg", 5, "exponential"),
                             MetricSpec("precision", 3, "identity")]))
def test_a_querys_utilities_depend_only_on_its_own_rows(seed, num_queries, docs, max_label,
                                                        picks, spec):
    ds = _dirichlet_dataset(seed, num_queries, docs, max_label)
    view = _UtilityEngine(spec, ds, ds.queries())
    alone = [view.subset([q]) for q in view.query_ids]
    predicted = view.predicted_utilities()
    for i, one in enumerate(alone):
        assert _hex(one.predicted_utilities()) == _hex(predicted[i])
    for lam in _probe_strengths(view.knots, picks):
        together = view.per_query_utility(lam)
        for i, one in enumerate(alone):
            assert _hex(one.per_query_utility(lam)) == _hex(together[i])


def _reference_utilities(view, lam):
    """Per-query perturbed utilities with each row perturbed in plain floats
    from its own running prefix sum, then summed with its gains left to right."""
    gains, values = view.gains.tolist(), []
    for row in view.probs.tolist():
        if lam != 0.0:
            row = row[::-1] if lam < 0.0 else row
            q, cum = [], 0.0
            for p in row:
                cum += p
                q.append(max(0.0, p - max(0.0, abs(lam) - (cum - p))))
            total = q[0]
            for x in q[1:]:
                total += x
            row = [x / total for x in q]
            row = row[::-1] if lam < 0.0 else row
        value = row[0] * gains[0]
        for x, g in zip(row[1:], gains[1:]):
            value += x * g
        values.append(value)
    return view._per_query(np.array(values))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(seed=st.integers(0, 10_000), num_queries=st.integers(1, 8), docs=st.integers(1, 5),
       labels=st.integers(2, 11), sparse=st.floats(0.0, 0.6),
       lams=st.lists(st.floats(-_LAM_EDGE, _LAM_EDGE), min_size=1, max_size=6),
       picks=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
       spec=st.sampled_from([MetricSpec("dcg", 5, "exponential"),
                             MetricSpec("precision", 3, "identity")]))
def test_cached_masses_give_the_bits_of_a_reference_with_its_own_prefix_sums(
        seed, num_queries, docs, labels, sparse, lams, picks, spec):
    """Rows of 2-11 labels, some with exact zeros (one-hot at the extreme), at
    strengths of both signs, 0, knots and both edges."""
    ds = _dirichlet_dataset(seed, num_queries, docs, labels - 1)
    view = _UtilityEngine(spec, ds, ds.queries())
    rng = np.random.default_rng(seed)
    probs = np.where(rng.random(view.probs.shape) < sparse, 0.0, view.probs)
    probs[probs.sum(axis=1) == 0.0, rng.integers(labels)] = 1.0
    view = view.with_probs(probs / probs.sum(axis=1, keepdims=True))
    knots = [float(view.knots[int(p * (len(view.knots) - 1))]) for p in picks]
    for lam in {*lams, *knots, *(-k for k in knots), 0.0, _LAM_EDGE, -_LAM_EDGE}:
        expected = _hex(_reference_utilities(view, lam))
        assert _hex(view.per_query_utility(lam)) == expected
        assert _hex(view.knot_utility(lam)) == expected
        assert _hex(view.knot_utility(lam)) == expected  # from the memo at a knot
    assert set(view.masses) == {True, False}
    for positive, (rows, below) in view.masses.items():
        assert not rows.flags.writeable and not below.flags.writeable
        assert rows.flags.c_contiguous and below.flags.c_contiguous
        assert _hex(rows) == _hex((view.probs if positive else view.probs[:, ::-1]).T)


def test_no_prefix_sum_is_taken_per_strength_once_a_views_masses_exist(monkeypatch):
    ds = _dirichlet_dataset(7, 10, docs=5, max_label=4)
    view = _UtilityEngine(MetricSpec("dcg", 5, "exponential"), ds, ds.queries())
    knots = view.knots
    calls = []
    cumsum = np.cumsum
    monkeypatch.setattr(np, "cumsum", lambda *a, **k: calls.append(1) or cumsum(*a, **k))
    strengths = [0.25, -0.25, 0.5, -0.7, float(knots[5]), float(knots[-5]), _LAM_EDGE, 0.0]
    view.per_query_utility(0.0)
    assert calls == []  # lam = 0 reads the predicted utilities
    view.per_query_utility(0.1)
    view.per_query_utility(0.2)
    assert len(calls) == 1  # one sign's masses, built once
    for lam in strengths:
        view.per_query_utility(lam)
        view.knot_utility(lam)
    assert len(calls) == 2  # and the other sign's
    calls.clear()
    for lam in strengths:
        view.per_query_utility(lam)
        view.knot_utility(-lam)
    assert calls == []
    with pytest.raises(ValueError):
        view.masses[False][1][0, 0] = 1.0  # read-only, since threads share views


def test_subset_and_with_probs_start_without_the_views_caches():
    ds = _dirichlet_dataset(5, 12, docs=4)
    spec = MetricSpec("dcg", 4, "exponential")
    view = _UtilityEngine(spec, ds, ds.queries())
    probe = [0.0, float(view.knots[3]), float(view.knots[-4])]
    for lam in probe:
        view.knot_utility(lam)
    assert len(view.memo) == 3
    masses = dict(view.masses)
    assert set(masses) == {True, False}
    flipped = view.with_probs(view.probs[:, ::-1].copy())
    picked = view.subset(ds.queries()[::-2])
    for out in (flipped, picked):
        assert not set(_UtilityEngine._CACHES) & vars(out).keys()
        assert _hex(out.knots) == _hex(_knots(out.probs))
        for lam in [*probe, 0.3, -0.3]:
            expected = _hex(out._per_query(left_sum(_perturb_rows(out.probs, lam) * out.gains)))
            assert _hex(out.knot_utility(lam)) == expected
        assert _hex(out.masses[False][0]) == _hex(out.probs[:, ::-1].T)
    # The original keeps its own memo and masses, untouched by the copies.
    assert set(view.memo) == set(probe)
    assert all(view.masses[k] is masses[k] for k in masses)


def _recorded_views(monkeypatch):
    """Every view whose knot utilities are read, once each."""
    views = {}
    read = _UtilityEngine.knot_utility

    def recording(self, lam):
        views[id(self)] = self
        return read(self, lam)

    monkeypatch.setattr(_UtilityEngine, "knot_utility", recording)
    return views


def _assert_memos_hold_knots_only(views):
    assert views
    for view in views.values():
        assert view.memo
        assert set(view.memo) <= set(view.knots.tolist())


def test_memo_holds_only_knot_strengths_after_a_sweep(monkeypatch):
    views = _recorded_views(monkeypatch)
    ds = _dirichlet_dataset(2, 40)

    def run(workers):
        return sweep(ds, MetricSpec("dcg", 10, "exponential"), n_grid=(5, 10),
                     beta_grid=(0.0, 0.5), tau_grid=(0.0, 0.5), methods=("crc",), repeats=3,
                     num_batches=40, alpha=0.2, workers=workers)

    alone = run(1)
    # Per (beta, tau): one validation-half view; test-half views only give
    # intervals and read no knot utility.
    assert len(views) == 4
    # Four threads on two cores, switching often, share every view's caches.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert run(4) == alone
    finally:
        sys.setswitchinterval(interval)
    assert len(views) == 8
    _assert_memos_hold_knots_only(views)


def test_memo_holds_only_knot_strengths_after_a_cli_calibration(monkeypatch, tmp_path, capsys):
    ds = _dirichlet_dataset(4, 30)
    paths = {}
    for name, text in (("run", write_run(ds.rankings)), ("qrels", write_qrels(ds.truth)),
                       ("dists", write_dists(ds.predicted))):
        paths[name] = tmp_path / name
        paths[name].write_text(text, encoding="utf-8")
    views = _recorded_views(monkeypatch)
    argv = ["ci", "--method", "crc", "--alpha", "0.2", "--batches", "50", "--seed", "3",
            *(f"--{name}={path}" for name, path in paths.items())]
    assert cli.main(argv) == 0
    assert "crc" in capsys.readouterr().out
    _assert_memos_hold_knots_only(views)


def test_interval_views_build_neither_knots_nor_memo(monkeypatch, tmp_path, capsys):
    views = []
    def recording(view, calibration, read=crc._per_query_bounds):
        views.append(view)
        return read(view, calibration)

    monkeypatch.setattr(crc, "_per_query_bounds", recording)
    ds = _dirichlet_dataset(2, 40)
    spec = MetricSpec("dcg", 10, "exponential")
    sweep(ds, spec, n_grid=(5, 10), beta_grid=(0.0, 0.5), tau_grid=(0.0, 0.5), methods=("crc",),
          repeats=3, num_batches=40, alpha=0.2)
    seen = [len(views)]
    per_query_rows(ds, spec, tau_grid=(0.0, 0.5, 1.0), alpha=0.2)
    seen.append(len(views))
    paths = {}
    for name, text in (("run", write_run(ds.rankings)), ("qrels", write_qrels(ds.truth)),
                       ("dists", write_dists(ds.predicted))):
        paths[name] = tmp_path / name
        paths[name].write_text(text, encoding="utf-8")
    argv = ["ci", "--method", "crc", "--alpha", "0.2", "--batches", "50",
            *(f"--{name}={path}" for name, path in paths.items())]
    for extra in ([], ["--per-query"]):
        assert cli.main(argv + extra) == 0
        assert "crc" in capsys.readouterr().out
        seen.append(len(views))
    assert 0 < seen[0] < seen[1] < seen[2] < seen[3]
    for view in views:
        assert not {"memo", "knots"} & vars(view).keys()
        assert view.masses  # built for the nonzero bound(s)
