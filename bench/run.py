"""rankci benchmark: one workload per process, end-to-end or traced.

Usage, from the repository root (no install needed; ``src`` is put on the
path by absolute location):

    python3 bench/run.py --workload sweep-desk --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload cli-files --seed 1 --seconds 30 --trace 1
    python3 bench/run.py --self-test

Workloads, metrics and the layer map are in ``bench/spec.json``.  Each
workload is a closed loop with one client: the next call starts when the
previous one returns.

``--trace 0`` measures set-up (``setup_s``, the median of several set-ups),
warms up with one call, then calls in a loop for ``--seconds`` and prints
the end-to-end metrics.  The gated timings are adjusted for the host's speed
by a fixed reference computation timed after every set-up and call
(``bench/hostspeed.py``); the raw timings are printed beside them.
``--trace 1`` runs a fixed number of calls untraced and then the same calls
traced, and prints the per-layer metrics from the traced pass together with
``trace.overhead_frac``; the spans go to ``bench/_out/``.  Both modes check
every output and print, as the last line, ``{"correct", "attempted",
"failed", "metrics"}`` as JSON.
"""

from __future__ import annotations

import os

# No workload may use more than its own worker threads; keep native math
# libraries single-threaded.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import hostspeed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "_out"
SETUP_REPEATS = 5
SETUP_REFERENCE = 4
# Long calls get more reference samples after them, so that the reference
# covers about this share of the timed loop on every workload.
REFERENCE_SHARE = 0.1
IMPORT_PROBE = ("import importlib, sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); importlib.import_module(sys.argv[2]); "
                "print(repr(time.perf_counter() - t))")


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


# ---------------------------------------------------------------------------
# statistics


def tail(samples: list[float]) -> tuple[float, int] | None:
    """(value, percentile): the highest whole percentile with at least ten
    samples above it, or None with fewer than eleven samples.  Below twenty
    samples that percentile lies under the median; the report names it."""
    xs = sorted(samples)
    n = len(xs)
    if n < 11:
        return None
    pct = math.floor(100.0 * (n - 10) / n)
    # Nearest-rank value: at most n - 10 samples at or below it.
    return xs[max(0, math.ceil(pct / 100.0 * n) - 1)], pct


def geomean(xs: list[float]) -> float:
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


# ---------------------------------------------------------------------------
# environment


def git_commit() -> str:
    """The checked-out commit read from .git, or "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                for p in sorted((SRC / "rankci").glob("*.py")))
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "commit": git_commit(), "src_rankci_lines": lines}


# ---------------------------------------------------------------------------
# set-up and the closed loop


def import_seconds(module: str) -> float:
    """Seconds to import ``module`` in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC), module],
                          capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        fail(f"importing {module} failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip())


def measure_setup(workload, module: str, reference: list[float]) -> list[float]:
    """Set-up times; each set-up is followed by SETUP_REFERENCE samples of the
    host-speed reference, appended to ``reference``."""
    samples = []
    for _ in range(SETUP_REPEATS):
        t_import = import_seconds(module)
        start = time.perf_counter()
        workload.set_up()
        samples.append(t_import + time.perf_counter() - start)
        reference.extend(hostspeed.sample() for _ in range(SETUP_REFERENCE))
    return samples


def run_calls(workload, indices, deadline=None, reference=None):
    """Call the workload in a closed loop, cycling through its kinds, over
    ``indices`` or until ``deadline``; then run its finishing step.  With a
    ``reference`` list, time the host-speed reference on the workload's worker
    count after every call, outside the call's own timing, for about
    REFERENCE_SHARE of the call's time and at least once, and append the
    samples there.
    Returns (results, per-kind latencies in seconds, wall seconds, extra)."""
    results, latencies = [], {k: [] for k in workload.kinds}
    start = time.perf_counter()
    for index in indices:
        for kind in workload.kinds:
            t0 = time.perf_counter()
            results.append(workload.call(kind, index))
            latency = time.perf_counter() - t0
            latencies[kind].append(latency)
            if reference is not None:
                nominal = hostspeed.NOMINAL_MS[workload.workers] / 1e3
                for _ in range(max(1, round(REFERENCE_SHARE * latency / nominal))):
                    reference.append(hostspeed.sample(workload.workers))
        if deadline is not None and time.perf_counter() >= deadline:
            break
    extra = workload.finish(results)
    return results, latencies, time.perf_counter() - start, extra


def load_reference(name: str) -> dict:
    path = BENCH_DIR / "reference.json"
    return json.loads(path.read_text(encoding="utf-8")).get(name, {}).get("points", {})


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def report(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"{name:<24} {value:>14.6g} {unit:<7} {note}".rstrip())


def report_tail(name: str, samples: list[float]) -> None:
    t = tail(samples)
    if t is None:
        print(f"{name:<24} {'n/a':>14} ms      (n={len(samples)}; a tail needs at least 11 samples)")
    else:
        report(name, t[0] * 1e3, "ms", f"(p{t[1]}, n={len(samples)})")


def end_to_end(workload, workdir, args, spec, reference) -> tuple[dict, int, int]:
    workload.prepare(workdir)
    module = "rankci.cli" if workload.name == "cli-files" else "rankci.harness"
    setup_reference, call_reference = [], []
    setup = measure_setup(workload, module, setup_reference)
    warm = run_calls(workload, [0])
    deadline = time.perf_counter() + args.seconds
    results, latencies, wall, extra = run_calls(workload, range(1, 10**9), deadline,
                                                call_reference)
    rss = peak_rss_mb()

    attempted, failed = workload.check(warm[0], warm[3], reference)
    a, f = workload.check(results, extra, reference)
    attempted, failed = attempted + a, failed + f
    calls = len(results)

    p50 = {k: statistics.median(v) * 1e3 for k, v in latencies.items()}
    call_scale = hostspeed.scale(call_reference, workload.workers)
    setup_scale = hostspeed.scale(setup_reference)
    metrics = {
        "call_p50_adj_ms": geomean(list(p50.values())) * call_scale,
        "setup_s": statistics.median(setup) * setup_scale,
        "peak_rss_mb": rss,
    }
    units = {k: v["unit"] for k, v in spec["gated"].items()}
    notes = {"call_p50_adj_ms": f"(n={calls} calls over {len(p50)} kind(s); "
                                f"raw x {call_scale:.4f})",
             "setup_s": f"(median of {len(setup)}; raw x {setup_scale:.4f})"}
    for name, value in metrics.items():
        report(name, value, units[name], notes.get(name, ""))
    report("call_p50_raw_ms", geomean(list(p50.values())), "ms", "(not adjusted)")
    report("setup_raw_s", statistics.median(setup), "s", "(not adjusted)")
    nominal = hostspeed.NOMINAL_MS[workload.workers]
    report("host_ref_ms", nominal / call_scale, "ms",
           f"(median of {len(call_reference)} reference runs on {workload.workers} "
           f"thread(s) beside the calls; nominal {nominal:g} ms)")
    report("calls_per_s", calls / wall, "1/s", f"(calls={calls}, wall={wall:.3f} s)")
    if workload.name == "cli-files":
        for kind, samples in latencies.items():
            report(f"ci_{kind}_p50_ms", p50[kind], "ms", f"(n={len(samples)})")
            report_tail(f"ci_{kind}_tail_ms", samples)
    else:
        rows = workload.rows(results)
        report("rows_per_s", rows / wall, "rows/s", f"(rows={rows}, wall={wall:.3f} s)")
        report_tail("call_tail_ms", latencies["sweep"])
    report("failed_frac", failed / attempted, "ratio", f"({failed}/{attempted})")
    return metrics, attempted, failed


def traced(workload, workdir, args, spec, reference) -> tuple[dict, int, int]:
    import tracing

    tracer = tracing.Tracer()
    workload.span = tracer.span
    workload.prepare(workdir)
    workload.set_up()
    n = spec["workloads"][workload.name]["trace_calls"]
    warm = run_calls(workload, [0])
    plain = run_calls(workload, range(1, n + 1))
    with tracer.patched():
        traced_pass = run_calls(workload, range(1, n + 1))

    attempted, failed = 0, 0
    for results, _, _, extra in (warm, plain, traced_pass):
        a, f = workload.check(results, extra, reference)
        attempted, failed = attempted + a, failed + f

    metrics = tracing.layer_metrics(tracer, workload.workers)
    metrics["trace.overhead_frac"] = traced_pass[2] / plain[2] - 1.0
    for name, value in metrics.items():
        report(name, value, spec["per_layer"][name]["unit"])
    report("failed_frac", failed / attempted, "ratio", f"({failed}/{attempted})")

    bypass = spec["workloads"][workload.name]["bypass"]
    broken = {k: metrics[k] for k, want in bypass.items() if metrics[k] != want}
    print(f"bypass checks: {'ok' if not broken else 'FAILED ' + json.dumps(broken)} "
          f"(expected {json.dumps(bypass)})")
    attempted, failed = attempted + len(bypass), failed + len(broken)

    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"trace-{workload.name}-seed{args.seed}.json"
    trace_path.write_text(json.dumps({"workload": workload.name, "seed": args.seed,
                                      "calls": n, "environment": environment(),
                                      "metrics": metrics, "spans": tracer.spans}) + "\n",
                          encoding="utf-8")
    print(f"spans: {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
    return metrics, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="show that the checker counts a corrupted row and a wrong interval")
    args = parser.parse_args(argv)

    if not (SRC / "rankci" / "__init__.py").is_file():
        fail(f"no rankci package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    spec = json.loads((BENCH_DIR / "spec.json").read_text(encoding="utf-8"))

    if args.self_test:
        import selftest
        return selftest.main()
    if args.workload not in spec["workloads"]:
        fail(f"--workload must be one of {', '.join(spec['workloads'])}")

    import workloads

    workload = workloads.make(args.workload, args.seed)
    env = environment()
    print(f"# rankci benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        run = traced if args.trace else end_to_end
        metrics, attempted, failed = run(workload, workdir, args, spec,
                                         load_reference(args.workload))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = {**{k: v["unit"] for k, v in spec["gated"].items()},
             **{k: v["unit"] for k, v in spec["per_layer"].items()}}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": int(v) if units[k] == "count" else v, "unit": units[k]}
                          for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
