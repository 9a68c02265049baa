"""Percentile bootstrap: basic contract, determinism, and a coverage check."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankci import crc
from rankci.bootstrap import _percentile_bounds, _resample_means, bootstrap_ci, empirical_estimate
from rankci.errors import InsufficientDataError
from rankci.seeding import stream


def test_empirical_estimate_worked_example():
    est = empirical_estimate([3, 5])
    assert est.mean == pytest.approx(4.0)
    assert est.variance == pytest.approx(2.0)  # ddof=1
    assert est.n == 2


def test_empirical_estimate_needs_two_values():
    with pytest.raises(InsufficientDataError):
        empirical_estimate([1.0])


def test_bootstrap_ci_basic_shape():
    values = stream(3).normal(10.0, 2.0, size=50)
    ci = bootstrap_ci(values, alpha=0.05, resamples=2000, seed=1)
    assert ci.method == "bootstrap"
    assert ci.lower <= ci.estimate <= ci.upper
    assert ci.estimate == pytest.approx(float(values.mean()))
    assert ci.alpha == 0.05


def test_bootstrap_ci_is_deterministic_per_seed():
    values = stream(4).normal(0.0, 1.0, size=30)
    a = bootstrap_ci(values, resamples=1000, seed=5)
    b = bootstrap_ci(values, resamples=1000, seed=5)
    c = bootstrap_ci(values, resamples=1000, seed=6)
    assert (a.lower, a.upper) == (b.lower, b.upper)
    assert (a.lower, a.upper) != (c.lower, c.upper)


def test_bootstrap_ci_constant_values_give_zero_width():
    ci = bootstrap_ci([2.5] * 20, resamples=500, seed=0)
    assert ci.lower == ci.upper == pytest.approx(2.5)


def test_bootstrap_ci_width_shrinks_with_sample_size():
    rng = stream(9)
    small = rng.normal(0.0, 1.0, size=20)
    large = rng.normal(0.0, 1.0, size=320)
    w_small = bootstrap_ci(small, resamples=4000, seed=2).width
    w_large = bootstrap_ci(large, resamples=4000, seed=2).width
    assert w_large < w_small


def test_bootstrap_ci_width_shrinks_with_looser_alpha():
    values = stream(10).normal(0.0, 1.0, size=60)
    tight = bootstrap_ci(values, alpha=0.05, resamples=4000, seed=3).width
    loose = bootstrap_ci(values, alpha=0.20, resamples=4000, seed=3).width
    assert loose < tight


def test_bootstrap_ci_input_validation():
    with pytest.raises(InsufficientDataError):
        bootstrap_ci([1.0], resamples=500, seed=0)
    with pytest.raises(ValueError):
        bootstrap_ci([1.0, 2.0], resamples=50, seed=0)
    with pytest.raises(ValueError):
        bootstrap_ci([1.0, 2.0], alpha=0.0, resamples=500, seed=0)
    with pytest.raises(ValueError):
        bootstrap_ci([1.0, 2.0], alpha=1.0, resamples=500, seed=0)


def test_bootstrap_coverage_near_nominal():
    """Monte-Carlo oracle: over repeated standard-normal samples of size 200,
    the 95% interval for the mean should cover 0 at close to the nominal
    rate.  With 400 repetitions the acceptance band [0.92, 0.98] sits well
    outside binomial noise."""
    reps = 400
    hits = 0
    for rep in range(reps):
        values = stream(1234, rep).normal(0.0, 1.0, size=200)
        ci = bootstrap_ci(values, alpha=0.05, resamples=2000, seed=rep)
        hits += int(ci.lower <= 0.0 <= ci.upper)
    coverage = hits / reps
    assert 0.92 <= coverage <= 0.98, f"coverage {coverage}"


def _one_block_ci(values, alpha, resamples, seed):
    """The interval from the whole resamples x n index matrix drawn at once."""
    arr = np.asarray(values, dtype=float)
    idx = stream(seed).integers(0, arr.size, size=(resamples, arr.size))
    means = arr[idx].mean(axis=1)
    return np.percentile(means, [100.0 * alpha / 2.0, 100.0 * (1.0 - alpha / 2.0)],
                         method="linear").tolist()


@pytest.mark.parametrize("n", [2, 3, 7, 40, 81])
@pytest.mark.parametrize("chunk", [1, 5, 64, 1 << 20])
def test_bootstrap_ci_chunked_draws_equal_one_block(n, chunk, monkeypatch):
    monkeypatch.setattr(crc, "_COUNT_BLOCK", chunk)
    values = stream(n).normal(5.0, 3.0, size=n)
    for resamples, seed in ((100, 0), (333, 4), (1001, 9)):
        ci = bootstrap_ci(values, 0.1, resamples=resamples, seed=seed)
        assert [ci.lower, ci.upper] == _one_block_ci(values, 0.1, resamples, seed)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(n=st.integers(2, 200), resamples=st.integers(100, 1500), alpha=st.floats(0.01, 0.5),
       seed=st.integers(0, 2**32 - 1), chunk=st.integers(1, 5000))
def test_percentile_bounds_equal_bootstrap_ci_in_hex(n, resamples, alpha, seed, chunk):
    """The sweep's unchecked bounds, over the same draws taken in row chunks of at
    most ``chunk`` entries, give bootstrap_ci's lower and upper bit for bit."""
    values = stream(seed, 1).normal(stream(seed, 2).normal(), 3.0, size=n)
    rng, rows = stream(seed), max(1, chunk // n)
    blocks = [rng.integers(0, n, size=(min(rows, resamples - start), n))
              for start in range(0, resamples, rows)]
    ci = bootstrap_ci(values, alpha, resamples=resamples, seed=seed)
    bounds = _percentile_bounds(_resample_means(values, blocks), alpha)
    assert [x.hex() for x in bounds] == [ci.lower.hex(), ci.upper.hex()]


@st.composite
def _percentile_cases(draw):
    """``(kind, M, alpha)``: any alpha; a dyadic alpha with M - 1 a multiple of its
    denominator's double ("integer": both positions land on an order statistic) or an
    odd multiple of it ("half": both weights are 0.5); or an alpha so small that
    1 - alpha/2 rounds to 1.0 ("tiny")."""
    kind = draw(st.sampled_from(["any", "integer", "half", "tiny"]))
    if kind in ("any", "tiny"):
        alpha = draw(st.floats(1e-6, 0.999) if kind == "any" else st.floats(1e-300, 1e-16))
        return kind, draw(st.integers(100, 5000)), alpha
    s = draw(st.integers(1, 6))
    alpha = (2 * draw(st.integers(0, 2 ** (s - 1) - 1)) + 1) / 2 ** s
    step = 2 ** (s + 1) if kind == "integer" else 2 ** s
    m = draw(st.integers(-(-99 // step), 4999 // step).filter(lambda m: kind == "integer" or m % 2))
    return kind, m * step + 1, alpha


@settings(derandomize=True, deadline=None, max_examples=120)
@given(case=_percentile_cases(), n=st.integers(1, 30), ties=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@example(case=("half", 101, 0.25), n=5, ties=False, seed=0)
@example(case=("integer", 201, 0.5), n=5, ties=True, seed=1)
@example(case=("tiny", 100, 1e-17), n=3, ties=False, seed=2)
@example(case=("half", 101, 0.25), n=1, ties=False, seed=3)
def test_percentile_bounds_equal_numpy_percentile_in_hex(case, n, ties, seed):
    """The bounds read from one partition are np.percentile's "linear" ones bit for
    bit, for 100 to 5,000 means, on and between order statistics and at the end.
    With ``n = 1`` every mean is its own value, drawn over 16 decades, so that
    neighbouring order statistics lie far apart and both lerp branches show."""
    kind, resamples, alpha = case
    p = [100.0 * alpha / 2.0, 100.0 * (1.0 - alpha / 2.0)]
    pos = [(resamples - 1) * (x / 100) for x in p]
    assert {"integer": all(x.is_integer() for x in pos), "half": all(x % 1 == 0.5 for x in pos),
            "tiny": p[1] == 100.0, "any": True}[kind]
    if n == 1:
        values = stream(seed, 1).normal(size=resamples) * 10.0 ** stream(seed, 2).uniform(-8, 8, resamples)
        index = np.arange(resamples)[:, None]
    else:
        values = stream(seed, 1).normal(0.0, 3.0, size=n)
        index = stream(seed).integers(0, n, size=(resamples, n))
    values = np.round(values) if ties else values
    expected = np.percentile(values[index].mean(axis=1), p, method="linear")
    bounds = _percentile_bounds(_resample_means(values, [index]), alpha)
    assert [x.hex() for x in bounds] == [x.hex() for x in expected]


def test_bootstrap_ci_memory_stays_far_below_the_dense_index_matrix():
    n, resamples = 40_000, 200
    values = stream(1).normal(size=n)
    dense_bytes = n * resamples * np.dtype(np.intp).itemsize
    tracemalloc.start()
    try:
        bootstrap_ci(values, 0.05, resamples=resamples, seed=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < dense_bytes / 3
