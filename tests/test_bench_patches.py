"""The traced benchmark run (``bench/run.py --trace 1``) wraps the functions
named in ``bench/tracing.py``'s ``PATCHES`` table where rankci's modules bind
them; a name that disappears from its module makes that run fail.  This
keeps every patched name bound."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _patches() -> dict[str, dict[str, str]]:
    # bench/tracing.py imports only the standard library.
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PATCHES


def test_every_name_the_benchmark_patches_is_bound():
    patches = _patches()
    assert {"rankci.harness", "rankci.cli", "rankci.crc"} <= set(patches)
    unbound = [f"{module_name}.{attr}"
               for module_name, attrs in patches.items()
               for attr in attrs
               if not callable(getattr(importlib.import_module(module_name), attr, None))]
    assert unbound == []
