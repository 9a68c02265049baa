"""The package's public names and what importing it loads."""

import os
import subprocess
import sys
from pathlib import Path

import rankci


def test_all_is_sorted_unique_and_bound():
    names = rankci.__all__
    assert names == sorted(set(names))
    assert [n for n in names if not hasattr(rankci, n)] == []


def test_the_front_ends_import_neither_scipy_nor_hypothesis():
    # The package depends on numpy only; the test-only packages must stay out
    # of a fresh interpreter's imports.
    src = str(Path(rankci.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    code = ("import sys, rankci.cli, rankci.harness; "
            "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'hypothesis'}))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
