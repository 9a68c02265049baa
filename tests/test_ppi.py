"""Prediction-powered estimation: hand-checks, degenerate cases, unbiasedness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from rankci.errors import InsufficientDataError
from rankci.ppi import _ppi_bounds, _ppi_pool, ppi_ci, ppi_estimate
from rankci.seeding import stream


def test_worked_example_estimate():
    est = ppi_estimate(true_u=[3, 5], pred_u_labeled=[2, 4], pred_u_all=[2, 4, 6, 8])
    assert est.estimate == pytest.approx(6.0)
    assert est.var_pred == pytest.approx(20.0 / 3.0)
    assert est.var_error == pytest.approx(0.0)
    assert (est.n, est.n_total) == (2, 4)


def test_worked_example_interval_half_width():
    est = ppi_estimate(true_u=[3, 5], pred_u_labeled=[2, 4], pred_u_all=[2, 4, 6, 8])
    ci = ppi_ci(est, alpha=0.05)
    half = (ci.upper - ci.lower) / 2.0
    expected = norm.ppf(0.975) * np.sqrt((20.0 / 3.0) / 4.0)
    assert half == pytest.approx(expected, abs=1e-12)
    assert half == pytest.approx(2.5307, abs=1e-3)
    assert ci.estimate == pytest.approx(6.0)


def test_interval_is_symmetric():
    est = ppi_estimate([1.0, 2.0, 4.0], [0.5, 2.5, 3.0], [0.5, 2.5, 3.0, 5.0, 1.0])
    ci = ppi_ci(est, alpha=0.1)
    assert ci.upper - ci.estimate == pytest.approx(ci.estimate - ci.lower, abs=1e-12)


def test_misaligned_inputs_rejected():
    with pytest.raises(ValueError, match="misaligned"):
        ppi_estimate([1.0, 2.0], [1.0], [1.0, 2.0, 3.0])


def test_too_few_values_rejected():
    with pytest.raises(InsufficientDataError):
        ppi_estimate([1.0], [1.0], [1.0, 2.0])
    with pytest.raises(InsufficientDataError):
        ppi_estimate([1.0, 2.0], [1.0, 2.0], [1.0])


def test_alpha_validation():
    est = ppi_estimate([1.0, 2.0], [1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        ppi_ci(est, alpha=0.0)
    with pytest.raises(ValueError):
        ppi_ci(est, alpha=1.5)


def test_constant_predictions_reduce_to_classical_interval():
    """With a constant prediction everywhere, the prediction term carries no
    variance and the interval is the classical normal interval on the labels."""
    rng = stream(21)
    true = rng.normal(5.0, 2.0, size=40)
    const = np.full(40, 3.3)
    est = ppi_estimate(true, const, np.full(500, 3.3))
    assert est.estimate == pytest.approx(float(true.mean()), abs=1e-12)
    assert est.var_pred == pytest.approx(0.0)
    assert est.var_error == pytest.approx(float(true.var(ddof=1)), abs=1e-12)

    ci = ppi_ci(est, alpha=0.05)
    z = norm.ppf(0.975)
    classical = z * np.sqrt(true.var(ddof=1) / 40)
    assert (ci.upper - ci.lower) / 2.0 == pytest.approx(float(classical), abs=1e-12)


def test_perfect_labeled_predictions_leave_only_prediction_variance():
    rng = stream(22)
    pred_all = rng.normal(0.0, 1.0, size=300)
    labeled = pred_all[:25]
    est = ppi_estimate(labeled, labeled, pred_all)
    assert est.var_error == pytest.approx(0.0)
    assert est.estimate == pytest.approx(float(pred_all.mean()), abs=1e-12)


def test_estimate_is_unbiased_over_subsample_draws():
    """Monte-Carlo oracle on a fixed finite population: predictions are a
    noisy distortion of the truth, labeled subsets are drawn uniformly, and
    the average estimate must approach the population's true mean."""
    rng = stream(23)
    population_true = rng.normal(2.0, 1.0, size=400)
    population_pred = population_true + rng.normal(0.5, 0.7, size=400)  # biased predictor

    draws = 3000
    n = 12
    estimates = np.empty(draws)
    for i in range(draws):
        idx = stream(23, 1, i).integers(0, 400, size=n)
        est = ppi_estimate(population_true[idx], population_pred[idx], population_pred)
        estimates[i] = est.estimate

    target = float(population_true.mean())
    mc_se = estimates.std(ddof=1) / np.sqrt(draws)
    assert abs(estimates.mean() - target) < 4 * mc_se


@settings(derandomize=True, deadline=None, max_examples=80)
@given(g=st.integers(1, 40), n=st.integers(2, 100), size=st.integers(2, 300),
       alpha=st.floats(0.01, 0.5), seed=st.integers(0, 2**32 - 1),
       constant_pool=st.booleans(), exact_labels=st.booleans(),
       pool_layout=st.sampled_from(["sweep", "fortran", "strided"]))
def test_stacked_bounds_equal_ppi_ci_in_hex(g, n, size, alpha, seed, constant_pool, exact_labels,
                                            pool_layout):
    """The sweep's stacked kernel, fed the sweep's gather of labeled errors, gives
    every row the bits of ppi_ci(ppi_estimate(...)), also where the pool's variance
    (a constant row) or the errors' (predictions equal to the labels) is zero, and
    whatever the memory layout of the pool stack."""
    rng = stream(seed)
    pred_all = rng.normal(rng.normal(size=(g, 1)), rng.gamma(2.0, size=(g, 1)), size=(g, size))
    if constant_pool:
        pred_all[0] = rng.integers(-8, 9) / 4.0
    if pool_layout == "sweep":  # a read-only stack of rows, as the sweep holds it
        stack = np.array(list(pred_all))
        stack.flags.writeable = False
    elif pool_layout == "fortran":
        stack = np.asfortranarray(pred_all)
    else:
        stack = np.repeat(pred_all, 2, axis=1)[:, ::2]
        assert not stack.flags.c_contiguous
    pos = np.sort(rng.integers(0, size, size=n))
    true = pred_all[-1, pos] if exact_labels else rng.normal(rng.normal(), rng.gamma(2.0), size=n)
    errors = true - stack[:, pos]  # the sweep's gather: column-major, not row-major, for g > 1
    assert errors.flags.f_contiguous and (g == 1 or not errors.flags.c_contiguous)
    lows, highs = _ppi_bounds(errors, _ppi_pool(stack, alpha))
    cis = [ppi_ci(ppi_estimate(true, pa[pos], pa), alpha) for pa in pred_all]
    assert [x.hex() for x in lows.tolist()] == [ci.lower.hex() for ci in cis]
    assert [x.hex() for x in highs.tolist()] == [ci.upper.hex() for ci in cis]
    assert not constant_pool or cis[0].diagnostics["var_pred"] == 0.0
    assert not exact_labels or cis[-1].diagnostics["var_error"] == 0.0


@settings(derandomize=True, deadline=None, max_examples=60)
@given(r=st.integers(1, 12), g=st.integers(1, 12), n=st.integers(2, 90), size=st.integers(2, 200),
       alpha=st.floats(0.01, 0.5), seed=st.integers(0, 2**32 - 1),
       layout=st.sampled_from(["sweep", "c", "strided"]))
def test_repeat_stacked_bounds_equal_one_call_per_repeat_in_hex(r, g, n, size, alpha, seed, layout):
    """One call over a repeats x G x n stack of labeled errors, as the sweep makes per
    budget, gives every row the bits of R separate G x n calls and of
    ppi_ci(ppi_estimate(...)), for a C-contiguous stack and for one that is not."""
    rng = stream(seed)
    pred_all = rng.normal(rng.normal(size=(g, 1)), rng.gamma(2.0, size=(g, 1)), size=(g, size))
    pos = np.sort(rng.integers(0, size, size=(r, n)), axis=1)
    true = rng.normal(rng.normal(), rng.gamma(2.0), size=(r, n))
    errors = true[:, None] - pred_all[:, pos].swapaxes(0, 1)  # the sweep's gather
    if layout == "c":
        errors = np.ascontiguousarray(errors)
    elif layout == "strided":
        errors = np.repeat(errors, 2, axis=-1)[..., ::2]
    assert errors.shape == (r, g, n)
    assert layout == "sweep" or errors.flags.c_contiguous == (layout == "c")
    pool = _ppi_pool(pred_all, alpha)
    lows, highs = _ppi_bounds(errors, pool)
    assert lows.shape == highs.shape == (r, g)
    for rep in range(r):
        one_lows, one_highs = _ppi_bounds(true[rep] - pred_all[:, pos[rep]], pool)
        cis = [ppi_ci(ppi_estimate(true[rep], pa[pos[rep]], pa), alpha) for pa in pred_all]
        hexes = [x.hex() for x in lows[rep].tolist()], [x.hex() for x in highs[rep].tolist()]
        assert hexes == ([x.hex() for x in one_lows.tolist()], [x.hex() for x in one_highs.tolist()])
        assert hexes == ([ci.lower.hex() for ci in cis], [ci.upper.hex() for ci in cis])
