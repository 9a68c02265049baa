"""Experiment harness: coverage/width sweeps over synthetic or file datasets.

A plan names a dataset source, a metric, grids over the labeled-query budget
n, the annotator-bias strength beta, and the oracle-mixing strength tau, and
a repeat count.  The labeled query pool is split 50:50 once per sweep into a
validation half and a test half, and the test half's true utility is the
coverage target throughout.  For every budget n and repeat, the harness

1. draws n labeled queries (without replacement) from the validation half,
2. hands each method at every (beta, tau) only what it is allowed to see —
   the true utilities of the n drawn queries, plus (for the prediction-based
   methods) the predicted distributions of every query, and
3. records the interval, its width, and whether it covered the test half's
   true utility.

The bootstrap interval is built from the n true utilities alone, once per
(n, repeat); the prediction-powered interval combines them with predictions
over the whole pool; the risk-controlled interval calibrates its perturbation
bounds on the bootstrap's resamples as batches and is then computed over the
test half's predictions only.  One draw and resample index per (n, repeat)
serve every method and (beta, tau): common random numbers, which pair the
rows and leave each method's guarantee as it was.  Each beta biases the predictions
once; ppi computes each (beta, tau)'s pool mean and variance once and gathers a budget's
labeled predictions, every point and repeat, at once; each stack is reduced C-contiguous,
all rows in one call, which keeps the bits of ``ppi_ci(ppi_estimate(...))``.  Each
(n, repeat) is a unit of work drawn from its own seed-derived streams, in three phases.
The calling thread opens every unit's seed streams: it draws the labeled positions and
derives the resample seed.  Then the resample kernels run, one unit at a time: one M x n
index draw from that seed, reduced to the two bootstrap bounds, and each (beta, tau)'s
crc calibration and bounds.  The units are dealt round-robin into k = ``min(workers,
units)`` chunks: the calling thread resamples the first, k - 1 pool threads the rest,
and a unit's index and means die with it.  Last, the calling thread computes the ppi
bounds and builds and sorts the rows, so the output is byte-identical for any worker
count.  Each row is a read-only :class:`SweepRow` mapping.

Outputs: ``rows.csv`` (one row per method/grid point/repeat),
``aggregate.csv`` (coverage with a binomial band, mean width),
``per_query.csv`` (one interval per query from singleton-batch calibration,
sorted by true utility descending), and ``summary.json``.

The plan keys, their parsers, the one builder of an :class:`ExperimentPlan` from
them and the one loader of a plan's dataset live in :mod:`rankci.cli`, whose
``rankci sweep`` runs every plan; :func:`run_plan` runs one over a loaded dataset.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import TextIO

import numpy as np

from .bootstrap import _percentile_bounds, _resample_means, bootstrap_ci
# The sweep works on views, resample indices and utility stacks, and run_plan takes a loaded
# dataset: build_dataset, bootstrap_ci, calibrate, crc_ci, ppi_estimate, ppi_ci,
# true_utilities, predicted_utilities, bias_dataset, oracle_dataset and generate are not
# called here; they stay bound because bench/tracing.py patches them.
from .corpus import build_dataset
from .crc import (_calibrate, _crc_bounds, _per_query_intervals, _UtilityEngine, build_batches,
                  calibrate, crc_ci, required_batches)
from .errors import CalibrationInfeasibleError
from .metrics import (
    MetricSpec,
    dataset_utility,
    format_metric,
    parse_metric,
    predicted_utilities,
    true_utilities,
)
from .model import Dataset, LabelScale
from .ppi import _ppi_bounds, _ppi_pool, ppi_ci, ppi_estimate
from .seeding import child_seed, stream
from .synth import SynthConfig, bias_dataset, bias_probs, generate, oracle_dataset, oracle_probs

METHODS = ("bootstrap", "ppi", "crc")

ROW_FIELDS = ["method", "n", "beta", "tau", "repeat", "width", "covered", "low", "high", "truth", "status"]
AGG_FIELDS = [
    "method", "n", "beta", "tau", "runs", "failures",
    "coverage", "coverage_band_low", "coverage_band_high", "mean_width",
]
PER_QUERY_FIELDS = ["tau", "query_id", "low", "high", "truth", "predicted", "covered"]


class SweepRow(Mapping):
    """A sweep row: a read-only mapping over :data:`ROW_FIELDS` in that order.  It holds
    every field but ``width`` in slots and reads ``width`` as ``high - low`` (``""`` on a
    failed row): 0.12-0.17 KB a row against 0.55 KB as a dict, since callers keep every row."""

    __slots__ = tuple(f for f in ROW_FIELDS if f != "width")

    def __init__(self, method, n, beta, tau, repeat, covered, low, high, truth, status):
        self.method, self.n, self.beta, self.tau, self.repeat = method, n, beta, tau, repeat
        self.covered, self.low, self.high, self.truth, self.status = covered, low, high, truth, status

    def __getitem__(self, key):
        if key == "width":
            return self.high - self.low if self.status == "ok" else ""
        if key not in self.__slots__:
            raise KeyError(key)
        return getattr(self, key)

    def __iter__(self):
        return iter(ROW_FIELDS)

    def __len__(self) -> int:
        return len(ROW_FIELDS)

    def __repr__(self) -> str:
        return f"SweepRow({dict(self)!r})"


@dataclass(frozen=True)
class ExperimentPlan:
    """Everything needed to reproduce one experiment run."""

    name: str
    metric: MetricSpec
    synth: SynthConfig | None = None
    run_path: str | None = None
    qrels_path: str | None = None
    dists_path: str | None = None
    alpha: float = 0.05
    repeats: int = 500
    # Calibration batch count; also used as the bootstrap resample count.
    # Desk-scale default of 2000 (a full-scale run would use 10000).
    num_batches: int = 2000
    n_grid: tuple[int, ...] = (10, 20, 40, 80)
    beta_grid: tuple[float, ...] = (0.0,)
    tau_grid: tuple[float, ...] = (0.0,)
    methods: tuple[str, ...] = METHODS
    seed: int = 7
    # Seed for the one-time validation/test halving of the labeled pool,
    # kept separate from the sweep seed so redrawing repeats never moves
    # the split.
    split_seed: int = 11
    workers: int = 1
    output_dir: str = "harness-out"

    def __post_init__(self):
        file_source = self.run_path is not None or self.dists_path is not None
        if (self.synth is None) == (not file_source):
            raise ValueError("a plan needs exactly one dataset source: synth or run/qrels/dists paths")
        if file_source and not (self.run_path and self.qrels_path and self.dists_path):
            raise ValueError("a file-sourced plan needs run, qrels and dists paths")
        _check_sweep_options(self.alpha, self.repeats, self.workers, self.methods, self.n_grid,
                             self.num_batches)


def _check_sweep_options(alpha: float, repeats: int, workers: int, methods: tuple[str, ...],
                        n_grid: tuple[int, ...], num_batches: int) -> None:
    """Raise ``ValueError`` for sweep options no sweep can run with."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if not methods or not set(methods) <= set(METHODS):
        raise ValueError(f"methods must be a non-empty subset of {METHODS}, got {methods!r}")
    if not n_grid or any(n < 2 for n in n_grid):
        raise ValueError("n_grid must contain integers >= 2")
    if "bootstrap" in methods and num_batches < 100:
        raise ValueError(f"bootstrap needs 100 resamples or more, got num_batches={num_batches}")
    if "crc" in methods and num_batches < (need := required_batches(alpha)):
        raise ValueError(f"crc at alpha={alpha} needs {need} batches or more, got num_batches={num_batches}")


def default_plan(**overrides) -> ExperimentPlan:
    """The desk-scale synthetic plan: 200 queries of 100 documents on a 0-3
    scale with sparse relevance, a sharp annotator, 500 repeats, 2000
    batches."""
    synth = overrides.pop("synth", None) or SynthConfig(
        num_queries=200,
        docs_per_query=100,
        scale=LabelScale(3),
        truth_prior=(0.85, 0.08, 0.04, 0.03),
        annotator_sharpness=7.0,
        seed=11,
    )
    fields = dict(name="desk-scale", metric=parse_metric("dcg@10"), synth=synth)
    fields.update(overrides)
    return ExperimentPlan(**fields)


def halve_pool(pool: list[str], seed: int) -> tuple[list[str], list[str]]:
    """Split the labeled pool into validation and test halves, randomly but
    reproducibly.  Returns (validation, test), both sorted."""
    if len(pool) < 4:
        raise ValueError("need at least 4 labeled queries to form two halves")
    ids = sorted(pool)  # permuted by position: a numpy string array drops trailing NULs
    order = [ids[i] for i in stream(seed).permutation(len(ids)).tolist()]
    half = len(order) // 2
    return sorted(order[:half]), sorted(order[half:])


def sweep(
    dataset: Dataset,
    spec: MetricSpec,
    *,
    n_grid: tuple[int, ...],
    beta_grid: tuple[float, ...] = (0.0,),
    tau_grid: tuple[float, ...] = (0.0,),
    methods: tuple[str, ...] = METHODS,
    repeats: int = 500,
    alpha: float = 0.05,
    num_batches: int = 2000,
    seed: int = 7,
    split_seed: int = 11,
    workers: int = 1,
) -> list[SweepRow]:
    """Run the repeat grid and return one :class:`SweepRow` per method/point/repeat.

    Every method and (beta, tau) at a budget n and repeat sees one labeled
    draw from the validation half, and bootstrap and crc one resample index
    of it; the one bootstrap interval is emitted for every (beta, tau), and
    a value repeated in a grid is swept once (an n at its first position, so
    no other n's streams move).  Coverage is judged against the test half's
    true utility.
    Seed streams, ppi and rows run on the calling thread.  Each unit's resample draw,
    bootstrap bounds and crc calibrations run in k = ``min(workers, units)`` interleaved
    chunks: the calling thread resamples the first and k - 1 pool threads the others.
    Deterministic for a given seed, independent of ``workers``.
    Options no sweep can run with raise ``ValueError`` before any work.
    """
    _check_sweep_options(alpha, repeats, workers, methods, n_grid, num_batches)
    pool = dataset.labeled_queries()
    validation, test = halve_pool(pool, split_seed)
    at = {q: i for i, q in enumerate(pool)}
    val_pos = np.array([at[q] for q in validation], dtype=np.intp)  # rows in the sorted pool

    view = _UtilityEngine(spec, dataset, pool)
    true_pool = view.true_utilities()
    truth_target = dataset_utility(spec, test, dict(zip(pool, true_pool.tolist())))

    # Per (beta, tau): a row of the pool's predicted utilities in one read-only stack, and,
    # for crc, the views of the validation half (every calibration's) and of the test half.
    grid = list(dict.fromkeys((beta, tau) for beta in beta_grid for tau in tau_grid))
    biased = {beta: bias_probs(view.probs, beta) for beta in dict.fromkeys(beta_grid)}
    preds, halves = [], []
    for beta, tau in grid:
        view_t = view.with_probs(oracle_probs(biased[beta], view.labels, tau))
        preds.append(view_t.predicted_utilities())
        halves.append((view_t.subset(validation), view_t.subset(test)) if "crc" in methods else None)
    preds = np.array(preds)
    preds.flags.writeable = False
    ppi_pool = _ppi_pool(preds, alpha) if "ppi" in methods else None

    resampled = "bootstrap" in methods or "crc" in methods

    def draw(n_idx: int, repeat: int) -> tuple:  # phase A: labeled positions and resample seed
        if n_grid[n_idx] > len(validation):
            return None, None
        pos = np.sort(stream(seed, n_idx, repeat, 0).choice(val_pos, size=n_grid[n_idx], replace=False))
        return pos, child_seed(seed, n_idx, repeat, 1) if resampled else None

    def resample(pos, resample_seed) -> tuple:  # phase B: the bootstrap and crc bounds of one draw
        if resample_seed is None:
            return None, None
        batches = build_batches([pool[i] for i in pos.tolist()], num_batches=num_batches,
                                batch_size=len(pos), seed=resample_seed)
        boot = (_percentile_bounds(_resample_means(true_pool[pos], [batches.index]), alpha)
                if "bootstrap" in methods else None)
        crcs = []
        for val_half, test_half in halves if "crc" in methods else ():
            try:
                crcs.append(_crc_bounds(test_half, _calibrate(batches, val_half, alpha)))
            except CalibrationInfeasibleError as e:
                crcs.append(f"calibration-infeasible: {e}")
        return boot, crcs

    def run_chunk(chunk: list[tuple[int, int]]) -> list[tuple]:
        return [resample(*units[task]) for task in chunk]

    # One interleaved chunk per thread: each holds every k-th unit, so the budgets mix evenly.
    # The calling thread runs the first chunk itself; a sweep that resamples nothing starts
    # no thread.
    budgets = [i for i, n in enumerate(n_grid) if n not in n_grid[:i]]
    tasks = [(i, rep) for i in budgets for rep in range(repeats)]
    units = {task: draw(*task) for task in tasks}
    k = min(workers, len(tasks)) if resampled else 1
    if k > 1:
        from concurrent.futures import ThreadPoolExecutor  # only a threaded sweep pays its import
        with ThreadPoolExecutor(max_workers=k - 1) as pool_exec:
            others = pool_exec.map(run_chunk, [tasks[i::k] for i in range(1, k)])
            outcomes = [run_chunk(tasks[::k]), *others]
    else:
        outcomes = [run_chunk(tasks)]
    done = {task: out for i, outs in enumerate(outcomes) for task, out in zip(tasks[i::k], outs)}

    rows = []  # phase C: ppi, one call per budget over every repeat's labeled errors, and the rows
    for n_idx in budgets:
        n = n_grid[n_idx]
        error = f"error: n={n} exceeds validation half size {len(validation)}" if n > len(validation) else None
        if "ppi" in methods and not error:  # repeats x points x n errors, each row with its own bits
            pos = np.array([units[n_idx, rep][0] for rep in range(repeats)])
            lows, highs = _ppi_bounds(true_pool[pos][:, None] - preds[:, pos].swapaxes(0, 1), ppi_pool)
            ppis = [list(zip(*r)) for r in zip(lows.tolist(), highs.tolist())]
        for rep in range(repeats):
            boot, crcs = done[n_idx, rep]
            for g, (beta, tau) in enumerate(grid):
                for method in methods:
                    out = error or (boot if method == "bootstrap" else ppis[rep][g] if method == "ppi" else crcs[g])
                    if isinstance(out, str):
                        rows.append(SweepRow(method, n, beta, tau, rep, "", "", "", truth_target, out))
                    else:
                        covered = int(out[0] <= truth_target <= out[1])
                        rows.append(SweepRow(method, n, beta, tau, rep, covered, *out, truth_target, "ok"))

    return sorted(rows, key=attrgetter("method", "n", "beta", "tau", "repeat"))


def sweep_plan(dataset: Dataset, plan: ExperimentPlan) -> list[SweepRow]:
    """:func:`sweep` over ``dataset`` with the metric, grids and options of ``plan``."""
    return sweep(dataset, plan.metric, n_grid=plan.n_grid, beta_grid=plan.beta_grid,
                 tau_grid=plan.tau_grid, methods=plan.methods, repeats=plan.repeats,
                 alpha=plan.alpha, num_batches=plan.num_batches, seed=plan.seed,
                 split_seed=plan.split_seed, workers=plan.workers)


def aggregate(rows: list[dict]) -> list[dict]:
    """Coverage (with a 1.96-sigma binomial band) and mean width per grid point."""
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        groups.setdefault((row["method"], row["n"], row["beta"], row["tau"]), []).append(row)
    out = []
    for key in sorted(groups, key=lambda k: (str(k[0]), k[1], k[2], k[3])):
        method, n, beta, tau = key
        ok = [r for r in groups[key] if r["status"] == "ok"]
        p = band_low = band_high = mean_width = ""  # a group with no ok run
        if ok:
            p = sum(r["covered"] for r in ok) / len(ok)
            band = 1.96 * float(np.sqrt(p * (1.0 - p) / len(ok)))
            band_low, band_high = p - band, p + band
            mean_width = sum(r["width"] for r in ok) / len(ok)
        out.append({"method": method, "n": n, "beta": beta, "tau": tau,
                    "runs": len(ok), "failures": len(groups[key]) - len(ok), "coverage": p,
                    "coverage_band_low": band_low, "coverage_band_high": band_high,
                    "mean_width": mean_width})
    return out


def per_query_rows(
    dataset: Dataset,
    spec: MetricSpec,
    *,
    tau_grid: tuple[float, ...] = (0.0,),
    alpha: float = 0.05,
    split_seed: int = 11,
) -> list[dict]:
    """Per-query intervals on the test half, calibrated with singleton
    batches on the validation half, for each oracle strength; sorted by true
    utility descending."""
    pool = dataset.labeled_queries()
    validation, test = halve_pool(pool, split_seed)
    view = _UtilityEngine(spec, dataset, pool)
    true_u = dict(zip(pool, view.true_utilities().tolist()))
    batches = build_batches(validation, mode="per_query")
    ordered = sorted(test, key=lambda q: (-true_u[q], q))
    out = []
    for tau in dict.fromkeys(tau_grid):  # each value once, at its first position, as in sweep
        view_t = view.with_probs(oracle_probs(view.probs, view.labels, tau))
        cal = _calibrate(batches, view_t.subset(validation), alpha)
        for q, (low, high, pred) in zip(ordered, _per_query_intervals(view_t.subset(ordered), cal)):
            out.append({
                "tau": tau, "query_id": q, "low": low, "high": high,
                "truth": true_u[q], "predicted": pred,
                "covered": int(low <= true_u[q] <= high),
            })
    return out


def run_plan(plan: ExperimentPlan, dataset: Dataset) -> Path:
    """Run ``plan`` over ``dataset``, the data it names, and write rows,
    aggregates, per-query intervals and a summary into its output directory.
    Returns that directory."""
    # Singleton-batch calibration is the step most likely to be infeasible;
    # run it first so that failure leaves no partial output directory.
    pq = per_query_rows(dataset, plan.metric, tau_grid=plan.tau_grid, alpha=plan.alpha,
                        split_seed=plan.split_seed)
    out_dir = Path(plan.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    rows = sweep_plan(dataset, plan)
    write_csv(out_dir / "rows.csv", ROW_FIELDS, rows)

    aggs = aggregate(rows)
    write_csv(out_dir / "aggregate.csv", AGG_FIELDS, aggs)

    write_csv(out_dir / "per_query.csv", PER_QUERY_FIELDS, pq)

    summary = {
        "name": plan.name,
        "metric": format_metric(plan.metric),
        "alpha": plan.alpha,
        "repeats": plan.repeats,
        "num_batches": plan.num_batches,
        "n_grid": list(plan.n_grid),
        "beta_grid": list(plan.beta_grid),
        "tau_grid": list(plan.tau_grid),
        "methods": list(plan.methods),
        "seed": plan.seed,
        "split_seed": plan.split_seed,
        "source": "synthetic" if plan.synth is not None else "files",
        "aggregate": aggs,
    }
    (out_dir / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return out_dir


# ---------------------------------------------------------------------------
# CSV output


def write_csv(dest: str | Path | TextIO, fields: list[str], rows: list[dict]) -> None:
    """Write ``rows`` under a header of ``fields`` as LF-terminated CSV to a
    path or an open text stream."""
    if isinstance(dest, (str, Path)):
        with open(dest, "w", encoding="utf-8", newline="") as fh:
            write_csv(fh, fields, rows)
        return
    import csv
    writer = csv.DictWriter(dest, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
