"""The benchmark's workloads, driven through rankci's public functions.

Each workload turns the ``--seed`` into its inputs, and offers:

* ``prepare(workdir)`` — untimed preparation (the corpus files);
* ``set_up()`` — the set-up that ``setup_s`` times in-process;
* ``call(kind, index)`` — one closed-loop call; ``index`` picks the input,
  so a traced pass can replay an untraced one exactly;
* ``finish(results)`` — the work after the calls that is still part of the
  timed section;
* ``check(results, extra)`` — (attempted, failed) operations.

Functions are looked up on their modules at call time (``harness.sweep``,
``cli.main``), so the wrappers that a traced run installs take effect.  A
traced run also sets ``span`` to its tracer's, which times the benchmark's
own calls of ``synth.generate``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import io
import json
import random
from pathlib import Path

import checks

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR / "spec.json").read_text(encoding="utf-8"))


def _no_span(name: str):
    return contextlib.nullcontext()


def derived_seed(*parts) -> int:
    """A 31-bit seed derived from the workload seed and a label path."""
    return random.Random(":".join(str(p) for p in parts)).randrange(2**31)


class SweepWorkload:
    """sweep-desk and sweep-grid: harness.sweep on a synthetic dataset."""

    def __init__(self, name: str, seed: int):
        from rankci import harness, synth

        self.harness, self.synth = harness, synth
        self.name, self.seed = name, seed
        self.kinds = ("sweep",)
        shape = SPEC["workloads"][name]["plan"]
        self.per_query = shape["per_query"]
        self.plan = harness.default_plan(
            n_grid=tuple(shape["n_grid"]),
            beta_grid=tuple(shape["beta_grid"]),
            tau_grid=tuple(shape["tau_grid"]),
            methods=tuple(shape["methods"]),
            num_batches=shape["num_batches"],
            workers=shape["workers"],
            repeats=shape["repeats_per_call"],
            split_seed=derived_seed(seed, "split"),
        )
        self.synth_config = dataclasses.replace(self.plan.synth, seed=derived_seed(seed, "synth"))
        points = len(self.plan.n_grid) * len(self.plan.beta_grid) * len(self.plan.tau_grid)
        self.rows_per_call = len(self.plan.methods) * points * self.plan.repeats
        self.workers = self.plan.workers
        self.dataset = None
        self.span = _no_span

    def prepare(self, workdir: Path) -> None:
        pass

    def set_up(self) -> None:
        with self.span("synth.generate"):
            self.dataset = self.synth.generate(self.synth_config)

    def call(self, kind: str, index: int) -> list[dict]:
        p = self.plan
        return self.harness.sweep(
            self.dataset, p.metric,
            n_grid=p.n_grid, beta_grid=p.beta_grid, tau_grid=p.tau_grid, methods=p.methods,
            repeats=p.repeats, alpha=p.alpha, num_batches=p.num_batches,
            seed=derived_seed(self.seed, "sweep", index), split_seed=p.split_seed,
            workers=p.workers,
        )

    def finish(self, results: list[list[dict]]):
        rows = [row for chunk in results for row in chunk]
        aggs = self.harness.aggregate(rows)
        per_query = None
        if self.per_query:
            per_query = self.harness.per_query_rows(
                self.dataset, self.plan.metric, tau_grid=self.plan.tau_grid,
                alpha=self.plan.alpha, split_seed=self.plan.split_seed)
        return aggs, per_query

    def rows(self, results: list[list[dict]]) -> int:
        return sum(len(chunk) for chunk in results)

    def check(self, results: list[list[dict]], extra, reference: dict) -> tuple[int, int]:
        aggs, per_query = extra
        rows = [row for chunk in results for row in chunk]
        failed_rows = checks.bad_rows(rows) | checks.bad_groups(aggs, rows, reference)
        missing = sum(abs(self.rows_per_call - len(chunk)) for chunk in results)
        attempted = max(len(rows), self.rows_per_call * len(results))
        failed = len(failed_rows) + missing
        if per_query is not None:
            pool = self.synth_config.num_queries
            expected = (pool - pool // 2) * len(self.plan.tau_grid)
            attempted += max(expected, len(per_query))
            failed += checks.check_per_query_rows(per_query, expected)
        return attempted, failed


class CliWorkload:
    """cli-files: rankci.cli.main on run/qrels/dists files written beforehand."""

    def __init__(self, name: str, seed: int):
        from rankci import cli, corpus, crc, metrics, synth
        from rankci.model import LabelScale

        self.cli, self.corpus, self.crc, self.metrics, self.synth = cli, corpus, crc, metrics, synth
        self.name, self.seed = name, seed
        spec = SPEC["workloads"][name]
        self.shape = spec["corpus"]
        self.commands = spec["commands"]
        self.kinds = tuple(self.commands)
        self.synth_config = synth.SynthConfig(
            num_queries=self.shape["num_queries"],
            docs_per_query=self.shape["docs_per_query"],
            scale=LabelScale(3),
            truth_prior=(0.85, 0.08, 0.04, 0.03),
            annotator_sharpness=7.0,
            seed=derived_seed(seed, "synth"),
        )
        self.ci_seed = derived_seed(seed, "ci")
        self.workers = 1
        self.dataset = None
        self.argv: dict[str, list[str]] = {}
        self.span = _no_span

    def prepare(self, workdir: Path) -> None:
        """Write the corpus files; benchmark preparation, never timed."""
        from rankci.model import Dataset

        with self.span("synth.generate"):
            full = self.synth.generate(self.synth_config)
        queries = full.queries()
        judged = set(random.Random(derived_seed(self.seed, "judged")).sample(
            queries, self.shape["judged_queries"]))
        truth = {k: v for k, v in full.truth.items() if k[0] in judged}
        self.dataset = Dataset(scale=full.scale, rankings=full.rankings, truth=truth,
                               predicted=full.predicted)
        files = {name: workdir / name for name in ("run", "qrels", "dists", "calibration.json")}
        files["run"].write_text(self.corpus.write_run(full.rankings), encoding="utf-8")
        files["qrels"].write_text(self.corpus.write_qrels(truth), encoding="utf-8")
        files["dists"].write_text(self.corpus.write_dists(full.predicted), encoding="utf-8")
        common = ["--run", str(files["run"]), "--qrels", str(files["qrels"]),
                  "--dists", str(files["dists"]), "--seed", str(self.ci_seed),
                  "--batches", str(self.shape["num_batches"])]
        for kind, argv in self.commands.items():
            extra = [str(files["calibration.json"])] if argv[-1].endswith("-calibration") else []
            self.argv[kind] = [*argv, *extra, *common]

    def set_up(self) -> None:
        pass

    def call(self, kind: str, index: int) -> tuple[str, int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                rc = self.cli.main(self.argv[kind])
            except SystemExit as e:
                rc = e.code if isinstance(e.code, int) else 1
        return kind, rc, out.getvalue()

    def finish(self, results):
        return None

    @functools.cached_property
    def expected(self):
        """The three commands' expected outputs, computed in-process from the
        in-memory dataset through the public API."""
        spec = self.metrics.parse_metric("dcg@10")
        alpha = 0.05
        ds = self.dataset
        labeled = ds.labeled_queries()
        batches = self.crc.build_batches(labeled, mode="bootstrap",
                                         num_batches=self.shape["num_batches"], seed=self.ci_seed)
        cal = self.crc.calibrate(spec, batches, ds, alpha)
        ci = self.crc.crc_ci(spec, ds.queries(), ds, cal)
        pq_cal = self.crc.calibrate(spec, self.crc.build_batches(labeled, mode="per_query"), ds, alpha)
        true_u = self.metrics.true_utilities(spec, ds, labeled)
        pq_rows = []
        for q in ds.queries():
            r = self.crc.crc_ci(spec, [q], ds, pq_cal)
            pq_rows.append({"query_id": q, "low": r.lower, "high": r.upper,
                            "predicted": r.estimate, "true": true_u.get(q)})
        return ci, pq_cal, pq_rows

    def check(self, results, extra, reference) -> tuple[int, int]:
        ci, pq_cal, pq_rows = self.expected
        failed = 0
        for kind, rc, text in results:
            if kind == "perquery":
                ok = checks.check_per_query_report(rc, text, pq_cal, pq_rows)
            else:
                ok = checks.check_ci_report(rc, text, ci)
            failed += not ok
        return len(results), failed


def make(name: str, seed: int):
    return CliWorkload(name, seed) if name == "cli-files" else SweepWorkload(name, seed)
