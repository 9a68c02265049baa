"""The traced benchmark run (``bench/run.py --trace 1``) wraps the functions
named in ``bench/tracing.py``'s ``PATCHES`` table where rankci's modules bind
them; a name that disappears from its module makes that run fail.  This
keeps every patched name bound, and keeps the batches build_batches returns
countable by the tracer."""

import importlib
import importlib.util
from pathlib import Path

from rankci import crc

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    # bench/tracing.py imports only the standard library.
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _patches() -> dict[str, dict[str, str]]:
    return _tracing().PATCHES


def test_every_name_the_benchmark_patches_is_bound():
    patches = _patches()
    assert {"rankci.harness", "rankci.cli", "rankci.crc"} <= set(patches)
    unbound = [f"{module_name}.{attr}"
               for module_name, attrs in patches.items()
               for attr in attrs
               if not callable(getattr(importlib.import_module(module_name), attr, None))]
    assert unbound == []


def test_the_traced_run_counts_every_batch_entry():
    # The tracer iterates what build_batches returns to count batch entries.
    tracer = _tracing().Tracer()
    traced = tracer._wrap("build_batches", "crc.build_batches", crc.build_batches)
    pool = [f"q{i}" for i in range(7)]
    for kwargs in ({"mode": "bootstrap", "num_batches": 30, "batch_size": 5, "seed": 1},
                   {"mode": "per_query"}):
        tracer.counts.clear()
        batches = traced(pool, **kwargs)
        assert tracer.counts["build_batches.calls"] == 1
        assert tracer.counts["batch_entries"] == batches.index.size
