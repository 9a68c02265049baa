"""Synthetic dataset generation and the two prediction distortions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankci.errors import UnlabeledQueryError
from rankci.model import Dataset, LabelScale
from rankci.synth import (
    SynthConfig,
    _kernel,
    bias_dataset,
    bias_probs,
    generate,
    oracle_dataset,
    oracle_probs,
)

PROPERTY = settings(derandomize=True, deadline=None, max_examples=60)


def _config(**overrides):
    base = dict(
        num_queries=20,
        docs_per_query=10,
        scale=LabelScale(2),
        truth_prior=(0.5, 0.3, 0.2),
        annotator_sharpness=4.0,
        seed=5,
    )
    base.update(overrides)
    return SynthConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        _config(num_queries=-1)
    with pytest.raises(ValueError):
        _config(docs_per_query=0)
    with pytest.raises(ValueError):
        _config(truth_prior=(0.5, 0.5))  # wrong length for a 3-label scale
    with pytest.raises(ValueError):
        _config(truth_prior=(0.7, 0.2, 0.2))  # does not sum to 1
    with pytest.raises(ValueError):
        _config(annotator_sharpness=0.0)


@pytest.mark.parametrize("sharpness", [1.0, 2.5, 7.0, math.inf])
def test_generate_gives_each_document_the_kernel_of_its_true_label(sharpness):
    config = _config(annotator_sharpness=sharpness)
    ds = generate(config)
    assert list(ds.predicted) == list(ds.truth)
    for key, judgment in ds.truth.items():
        expected = _kernel(config.scale, judgment.label, sharpness)
        assert [p.hex() for p in ds.predicted[key].probs] == [p.hex() for p in expected]


def test_generate_is_deterministic():
    a = generate(_config())
    b = generate(_config())
    assert a.rankings == b.rankings
    assert a.truth == b.truth
    assert a.predicted == b.predicted
    c = generate(_config(seed=6))
    assert a.truth != c.truth


def test_generate_produces_a_fully_judged_dataset():
    ds = generate(_config())
    assert len(ds.queries()) == 20
    assert ds.labeled_queries() == ds.queries()
    for qid in ds.queries():
        assert len(ds.rankings[qid]) == 10
    # every pair has both a judgment and a prediction
    assert len(ds.truth) == 200
    assert len(ds.predicted) == 200


def test_generate_query_ids_are_zero_padded_and_sorted():
    ds = generate(_config(num_queries=12))
    assert ds.queries()[0] == "q000"
    assert ds.queries()[-1] == "q011"


def test_label_frequencies_follow_the_prior():
    ds = generate(_config(num_queries=100, docs_per_query=100, seed=3))
    labels = [j.label for j in ds.truth.values()]
    counts = np.bincount(labels, minlength=3) / len(labels)
    assert counts == pytest.approx((0.5, 0.3, 0.2), abs=0.02)


def test_predictions_peak_at_the_true_label():
    ds = generate(_config())
    for key, judgment in ds.truth.items():
        probs = ds.predicted[key].probs
        assert max(range(len(probs)), key=probs.__getitem__) == judgment.label


def test_infinite_sharpness_gives_one_hot_predictions():
    ds = generate(_config(annotator_sharpness=math.inf))
    for key, judgment in ds.truth.items():
        probs = ds.predicted[key].probs
        assert probs[judgment.label] == 1.0
        assert sum(probs) == 1.0


def test_sharper_annotators_put_more_mass_on_the_truth():
    blunt = generate(_config(annotator_sharpness=2.0))
    sharp = generate(_config(annotator_sharpness=8.0))
    for key, judgment in blunt.truth.items():
        assert sharp.predicted[key].probs[judgment.label] > blunt.predicted[key].probs[judgment.label]


# --- bias ---------------------------------------------------------------------


def test_apply_bias_worked_example():
    out = bias_probs(np.array([0.2, 0.3, 0.5]), 1.0)
    assert out.tolist() == pytest.approx((0.4, 0.35, 0.25), abs=1e-12)


def test_apply_bias_zero_is_identity():
    probs = np.array([0.2, 0.3, 0.5])
    assert bias_probs(probs, 0.0) is probs


def test_apply_bias_half_is_uniform():
    out = bias_probs(np.array([0.7, 0.2, 0.1]), 0.5)
    assert out.tolist() == pytest.approx((1 / 3, 1 / 3, 1 / 3), abs=1e-12)


def test_apply_bias_validates_beta():
    with pytest.raises(ValueError):
        bias_probs(np.array([0.5, 0.5]), -0.1)
    with pytest.raises(ValueError):
        bias_probs(np.array([0.5, 0.5]), 1.1)


def test_bias_dataset_transforms_every_prediction():
    ds = generate(_config())
    out = bias_dataset(ds, 1.0)
    assert out.truth == ds.truth
    key = next(iter(ds.predicted))
    assert out.predicted[key].probs == tuple(bias_probs(np.array(ds.predicted[key].probs), 1.0).tolist())
    # beta 0 short-circuits to the same object
    assert bias_dataset(ds, 0.0) is ds


# --- oracle mixing ---------------------------------------------------------------


def test_apply_oracle_worked_example():
    out = oracle_probs(np.array([0.5, 0.5]), np.array(1), 0.5)
    assert out.tolist() == pytest.approx((0.25, 0.75), abs=1e-12)


def test_apply_oracle_endpoints():
    probs = np.array([0.6, 0.3, 0.1])
    assert oracle_probs(probs, np.array(2), 0.0) is probs
    assert oracle_probs(probs, np.array(2), 1.0).tolist() == pytest.approx((0.0, 0.0, 1.0), abs=1e-15)


def test_apply_oracle_validates_inputs():
    probs = np.array([0.5, 0.5])
    with pytest.raises(ValueError):
        oracle_probs(probs, np.array(0), -0.1)
    with pytest.raises(ValueError):
        oracle_probs(probs, np.array(0), 1.1)
    with pytest.raises(ValueError):
        oracle_probs(probs, np.array(5), 0.5)


def test_oracle_dataset_requires_judgments():
    ds = generate(_config(num_queries=2))
    truth = dict(ds.truth)
    truth.pop(next(iter(truth)))
    partial = Dataset(scale=ds.scale, rankings=ds.rankings, truth=truth, predicted=ds.predicted)
    with pytest.raises(UnlabeledQueryError):
        oracle_dataset(partial, 0.5)


def test_oracle_dataset_at_full_strength_matches_one_hot_truth():
    ds = generate(_config())
    out = oracle_dataset(ds, 1.0)
    for key, judgment in ds.truth.items():
        assert out.predicted[key].probs[judgment.label] == pytest.approx(1.0, abs=1e-15)


# --- the array transforms, against plain-float formulas -----------------------------


@st.composite
def prob_stacks(draw):
    """A (rows, labels) stack of probability vectors, some entries exactly
    zero, and a true label per row."""
    n_labels, n_rows = draw(st.integers(2, 12)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raw = rng.random((n_rows, n_labels)) * (rng.random((n_rows, n_labels)) > 0.2)
    raw[:, 0] += raw.sum(axis=1) == 0.0
    probs = [[p / sum(row) for p in row] for row in raw.tolist()]
    return probs, rng.integers(0, n_labels, size=n_rows).tolist()


def _bias_reference(row, beta):
    if beta == 0.0:
        return list(row)
    mixed = [(1.0 - beta) * p + beta * (1.0 - p) for p in row]
    total = sum(mixed)
    return [m / total for m in mixed]


def _oracle_reference(row, label, tau):
    return [(1.0 - tau) * p + (tau if r == label else 0.0) for r, p in enumerate(row)]


@PROPERTY
@given(stack=prob_stacks(), beta=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)))
def test_bias_probs_is_bit_equal_to_the_plain_formula(stack, beta):
    probs, _ = stack
    out = bias_probs(np.array(probs), beta)
    assert out.tolist() == [_bias_reference(row, beta) for row in probs]


@PROPERTY
@given(stack=prob_stacks(), tau=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)))
def test_oracle_probs_is_bit_equal_to_the_plain_formula(stack, tau):
    probs, labels = stack
    out = oracle_probs(np.array(probs), np.array(labels), tau)
    assert out.tolist() == [_oracle_reference(row, y, tau) for row, y in zip(probs, labels)]


def test_array_transforms_work_over_any_leading_shape():
    ds = generate(_config())
    probs = np.array([d.probs for d in ds.predicted.values()]).reshape(20, 10, 3)
    labels = np.array([ds.truth[k].label for k in ds.predicted]).reshape(20, 10)
    flat = oracle_probs(bias_probs(probs.reshape(200, 3), 0.3), labels.ravel(), 0.6)
    assert (oracle_probs(bias_probs(probs, 0.3), labels, 0.6).reshape(200, 3) == flat).all()


def test_oracle_probs_refuses_unjudged_and_off_scale_labels():
    probs = np.array([[0.5, 0.5], [0.2, 0.8]])
    with pytest.raises(UnlabeledQueryError):
        oracle_probs(probs, np.array([0, -1]), 0.5)
    with pytest.raises(ValueError):
        oracle_probs(probs, np.array([0, 2]), 0.5)
    assert oracle_probs(probs, np.array([0, -1]), 0.0) is probs
    with pytest.raises(ValueError):
        bias_probs(probs, 1.5)
