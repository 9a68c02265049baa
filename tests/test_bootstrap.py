"""Percentile bootstrap: basic contract, determinism, and a coverage check."""

import tracemalloc

import numpy as np
import pytest

from rankci import bootstrap as bootstrap_module
from rankci.bootstrap import bootstrap_ci, empirical_estimate
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
    monkeypatch.setattr(bootstrap_module, "_CHUNK_ENTRIES", chunk)
    values = stream(n).normal(5.0, 3.0, size=n)
    for resamples, seed in ((100, 0), (333, 4), (1001, 9)):
        ci = bootstrap_ci(values, 0.1, resamples=resamples, seed=seed)
        assert [ci.lower, ci.upper] == _one_block_ci(values, 0.1, resamples, seed)


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
