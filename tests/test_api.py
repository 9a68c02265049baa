"""The package's public names and what importing it loads."""

import json
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


def test_the_front_ends_load_no_module_a_crc_ci_leaves_unused(tmp_path):
    # The thread pool, the normal quantile and csv are imported where a command
    # uses them; neither importing the front ends nor `rankci ci --method crc` loads them.
    from rankci.corpus import write_dists, write_qrels, write_run
    from rankci.model import LabelScale
    from rankci.synth import SynthConfig, generate

    ds = generate(SynthConfig(num_queries=30, docs_per_query=6, scale=LabelScale(2),
                              truth_prior=(0.5, 0.3, 0.2), annotator_sharpness=4.0, seed=3))
    files = {"run": write_run(ds.rankings), "qrels": write_qrels(ds.truth),
             "dists": write_dists(ds.predicted)}
    argv = ["ci", "--method", "crc", "--batches", "200"]
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
        argv += [f"--{name}", str(tmp_path / name)]
    src = str(Path(rankci.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    code = ("import json, sys, rankci.cli, rankci.harness\n"
            "unused = {'concurrent.futures', 'statistics', 'csv', 'logging', 'fractions', 'decimal'}\n"
            "loaded = [sorted(unused & set(sys.modules))]\n"
            "rc = rankci.cli.main(json.loads(sys.argv[1]))\n"
            "loaded.append(sorted(unused & set(sys.modules)))\n"
            "print(json.dumps([rc, loaded]))\n")
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(argv)], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == [0, [[], []]]
