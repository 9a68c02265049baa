"""Self-test of the checker: one corrupted sweep row and one wrong CLI
interval must each be counted as failed, and their clean originals not.

Run with ``python3 bench/run.py --self-test``; exits 0 when both hold.
"""

from __future__ import annotations

import dataclasses
import shutil
import tempfile
from pathlib import Path

import checks
import workloads


def sweep_case() -> bool:
    from rankci import harness, synth

    plan = harness.default_plan(n_grid=(10,), repeats=3, num_batches=200)
    config = dataclasses.replace(plan.synth, num_queries=40, docs_per_query=20)
    rows = harness.sweep(synth.generate(config), plan.metric, n_grid=plan.n_grid,
                         repeats=plan.repeats, num_batches=plan.num_batches)
    clean = checks.bad_rows(rows)
    corrupted = [dict(r) for r in rows]
    corrupted[4]["width"] += 0.5
    bad = checks.bad_rows(corrupted)
    print(f"sweep rows: clean run fails {len(clean)} of {len(rows)}; "
          f"with row 4's width corrupted fails {sorted(bad)}")
    return not clean and bad == {4}


def cli_case() -> bool:
    w = workloads.CliWorkload("cli-files", seed=0)
    w.shape = {**w.shape, "num_queries": 60, "docs_per_query": 20, "judged_queries": 30,
               "num_batches": 500}
    w.synth_config = dataclasses.replace(w.synth_config, num_queries=60, docs_per_query=20)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=workloads.BENCH_DIR)
    try:
        w.prepare(Path(workdir))
        results = [w.call(kind, 0) for kind in w.kinds]
        _, clean_failed = w.check(results, None, {})
        kind, rc, text = results[0]
        low = checks.parse_ci_report(text)["low"]
        wrong = text.replace(f"[{low:.6f},", f"[{low - 0.01:.6f},")
        _, wrong_failed = w.check([(kind, rc, wrong)] + results[1:], None, {})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"cli calls: clean calls fail {clean_failed} of {len(results)}; "
          f"with the crc interval's low bound moved by 0.01 fail {wrong_failed}")
    return clean_failed == 0 and wrong_failed == 1


def main() -> int:
    ok = sweep_case() & cli_case()
    print("self-test: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1
