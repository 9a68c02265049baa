"""Record the sweep reference that the correctness check compares against.

For each sweep workload and each of a set of reference seeds, build the
workload's inputs exactly as a benchmark run does, run ``REPEATS`` repeats
through ``harness.sweep`` and ``harness.aggregate``, and keep per
(method, n, beta, tau) the mean over seeds of coverage and mean width and
their standard deviation between seeds.  Writes ``bench/reference.json``.

    python3 bench/make_reference.py            # takes a few minutes

Run it again only when a change is meant to move coverage or width.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402

SEEDS = range(1000, 1016)
REPEATS = {"sweep-desk": 40, "sweep-grid": 40}


def per_seed(name: str, seed: int) -> dict[str, tuple[float, float]]:
    w = workloads.make(name, seed)
    w.set_up()
    calls = REPEATS[name] // w.plan.repeats
    results = [w.call("sweep", i) for i in range(calls)]
    aggs, _ = w.finish(results)
    return {checks.group_key(a): (a["coverage"], a["mean_width"]) for a in aggs}


def main() -> int:
    out = {"about": __doc__.split("\n\n")[0], "seeds": list(SEEDS), "repeats": REPEATS}
    for name in REPEATS:
        by_key: dict[str, list[tuple[float, float]]] = {}
        for seed in SEEDS:
            for key, value in per_seed(name, seed).items():
                by_key.setdefault(key, []).append(value)
            print(f"{name} seed {seed} done", flush=True)
        out[name] = {"points": {
            key: {"coverage": statistics.mean(c for c, _ in vals),
                  "coverage_sd": statistics.stdev(c for c, _ in vals),
                  "width": statistics.mean(w for _, w in vals),
                  "width_sd": statistics.stdev(w for _, w in vals)}
            for key, vals in sorted(by_key.items())}}
    (BENCH_DIR / "reference.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n",
                                              encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
