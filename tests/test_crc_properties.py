"""Property tests of risk-controlled calibration on small synthetic datasets.

Run derandomized, so every run draws the same examples."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rankci.crc import (
    _LAM_EDGE,
    _TOL,
    _UtilityEngine,
    build_batches,
    calibrate,
    calibration_threshold,
    utility_crc,
)
from rankci.errors import CalibrationInfeasibleError
from rankci.metrics import MetricSpec, query_utility_true
from rankci.model import LabelScale
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
    assert batches == as_list
    assert _calibrate_or_reject(spec, batches, ds, 0.1) == calibrate(spec, as_list, ds, 0.1)


@PROPERTY
@given(data=datasets(), num_batches=st.integers(20, 60), batch_size=st.integers(1, 20),
       seed=st.integers(0, 1000), ragged=st.booleans())
def test_achieved_losses_match_a_per_batch_recount(data, num_batches, batch_size, seed, ragged):
    spec, ds = data
    batches = list(build_batches(ds.queries(), num_batches=num_batches,
                                 batch_size=batch_size, seed=seed))
    if ragged:
        batches = [b[: 1 + i % len(b)] for i, b in enumerate(batches)]
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
    # Tight as well as sound: one search tolerance less strength breaks the
    # bound, except where a search stopped at an edge or lambda_low was
    # nudged under lambda_high.
    thr = calibration_threshold(0.1, len(batches))
    if cal.lambda_high > -_LAM_EDGE:
        assert losses(max(cal.lambda_high - _TOL, -_LAM_EDGE))[0] >= thr
    nudged = cal.lambda_high == -_LAM_EDGE or cal.lambda_high - cal.lambda_low <= 2e-9
    if cal.lambda_low < _LAM_EDGE and not nudged:
        assert losses(min(cal.lambda_low + _TOL, _LAM_EDGE))[1] >= thr


@PROPERTY
@given(data=datasets(),
       lams=st.lists(st.floats(-0.999, 0.999), min_size=2, max_size=12, unique=True))
def test_per_query_perturbed_utility_is_non_decreasing_in_strength(data, lams):
    spec, ds = data
    engine = _UtilityEngine(spec, ds, ds.queries())
    values = np.array([engine.per_query_utility(lam) for lam in sorted(lams)])
    assert (np.diff(values, axis=0) >= -1e-12).all()
