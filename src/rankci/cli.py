"""Command-line front ends: ``rankci`` and ``rankci-harness``.

``rankci`` has three commands:

* ``evaluate`` — per-query and dataset utilities (true where judged,
  predicted everywhere) from run/qrels/dists files.
* ``ci`` — a confidence interval for the dataset utility by bootstrap,
  prediction-powered, or risk-controlled perturbation calibration.
* ``sweep`` — coverage/width sweeps of an experiment plan over labeled-budget,
  bias and oracle grids, on synthetic data or on run/qrels/dists files: one
  CSV row per method/grid point/repeat, or, with ``--output-dir``, the four
  artifacts of :func:`rankci.harness.run_plan`.

``rankci-harness PLAN [flag ...]`` is ``rankci sweep --config PLAN [flag ...]``
with the harness's defaults (``_SWEEP_DEFAULTS``): a plan file is a config file.

Every command is deterministic for a given ``--seed``.  Flags beat config
file entries (``--config`` names a ``key = value`` file whose keys are the
long flag names with underscores), which beat built-in defaults.  A config
key that no command knows is a usage error.

Exit codes, the same for both entry points: 0 success, 1 usage error (bad
flags, config or plan), 2 I/O or format error, 3 calibration infeasible.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .bootstrap import bootstrap_ci
# parse_qrels and parse_run are not called here; bench/tracing.py patches them.
from .corpus import build_dataset, infer_scale_from_dists, parse_qrels, parse_run
from .crc import (CrcCalibration, _per_query_intervals, _UtilityEngine, build_batches, calibrate,
                  crc_ci)
from .errors import CalibrationInfeasibleError, ParseError, RankciError
# sweep is not called here (sweep_plan calls it); bench/tracing.py patches it.
from .harness import ROW_FIELDS, ExperimentPlan, build_plan, run_plan, sweep, sweep_plan, write_csv
from .metrics import (
    MetricSpec,
    dataset_utility,
    format_metric,
    parse_metric,
    predicted_utilities,
    true_utilities,
)
from .model import CiReport, Dataset, LabelScale, validate_dataset
from .ppi import ppi_ci, ppi_estimate
from .synth import generate

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INFEASIBLE = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; this front end uses 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _bool(s: str) -> bool:
    if s.lower() in ("1", "true", "yes", "on"):
        return True
    if s.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {s!r}")


def _list(item):
    """The parser of a comma list of ``item``s."""
    def parse(s: str) -> tuple:
        return tuple(item(x.strip()) for x in s.split(",") if x.strip())
    parse.__name__ = f"{item.__name__} list"
    return parse


# Each command's options, key -> (parser, default, help, *other names).  A key and
# each other name are both a long flag (with hyphens) and a --config key;
# build_parser adds one flag per key, with no value for a _bool, and _options
# resolves every key the same way.
_FILES = {
    "metric": (str, "dcg@10", "dcg@K or prec@K (default dcg@10)"),
    "out": (str, None, "write machine-readable output to this .csv or .json path"),
    "run": (str, None, "run file (qid Q0 docid rank score tag)"),
    "qrels": (str, None, "judgments file (qid iter docid label)"),
    "dists": (str, None, "predicted label distributions (JSON lines)"),
    "max_label": (int, None, "label scale override (default: inferred)"),
}
_CI = {
    **_FILES,
    "method": (str, "bootstrap", "bootstrap, ppi or crc (default bootstrap)"),
    "alpha": (float, 0.05, "miscoverage level (default 0.05)"),
    "seed": (int, 0, "random seed (default 0)"),
    "batches": (int, 10_000, "calibration batches / bootstrap resamples (default 10000)"),
    "batch_size": (int, None, "crc only: queries per calibration batch (default: all labeled)"),
    "per_query": (_bool, False,
                  "crc only: calibrate on singleton batches and report one interval per query"),
    "save_calibration": (str, None, "crc only: write the calibrated record to this path"),
    "load_calibration": (str, None,
                         "crc only: reuse a saved calibration record instead of calibrating"),
}


def _options(args, table, defaults=None) -> argparse.Namespace:
    """Every option of ``table``: its flag if given, else its ``--config``
    entry under any of its names, read by the same parser, else its default
    (from ``defaults`` when it has the key)."""
    cfg = parse_kv(_read(args.config), what=f"config {args.config}") if args.config is not None else {}
    values = {}
    for key, (parse, default, _, *aliases) in table.items():
        flag = getattr(args, key)
        name = next((n for n in (key, *aliases) if n in cfg), None)
        try:  # only a config entry's parse can raise here
            values[key] = (flag if flag is not None else parse(cfg[name]) if name is not None
                           else (defaults or {}).get(key, default))
        except (ValueError, TypeError) as e:
            raise ValueError(f"config {args.config}: bad value for {name!r}: {e}") from None
    return argparse.Namespace(**values)


def parse_kv(text: str, *, what: str) -> dict[str, str]:
    """Read ``key = value`` lines into a dict, skipping blank lines and ``#``
    comments; ``-`` in a key reads as ``_``.  A key that no ``rankci`` command
    knows is an error, so one file may serve every command.  Errors are
    ``ValueError``s naming ``what``, the 1-based line and the key."""
    out: dict[str, str] = {}
    for i, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{what} line {i}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _CONFIG_KEYS:
            raise ValueError(f"{what} line {i}: unknown key {key!r}")
        out[key] = value.strip()
    return out


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _scale_from_qrels_text(text: str) -> LabelScale:
    max_label = 1
    for line in text.split("\n"):
        fields = line.split()
        if len(fields) == 4:
            try:
                max_label = max(max_label, int(fields[3]))
            except ValueError:
                pass
    return LabelScale(max_label)


def _load_dataset(o: argparse.Namespace) -> Dataset:
    """The dataset that the ``_FILES`` options ``o`` name."""
    run_text = _read(o.run)
    if o.dists is not None:
        dists_text = _read(o.dists)
        scale = LabelScale(o.max_label) if o.max_label is not None else infer_scale_from_dists(dists_text)
        qrels_text = _read(o.qrels) if o.qrels is not None else None
    else:
        # No distributions: judgments only (enough for the bootstrap method).
        dists_text, qrels_text = "", _read(o.qrels) if o.qrels is not None else ""
        scale = LabelScale(o.max_label) if o.max_label is not None else _scale_from_qrels_text(qrels_text)
    dataset = build_dataset(run_text, dists_text, qrels_text=qrels_text, scale=scale)
    problems = validate_dataset(dataset, require_dists=o.dists is not None)
    if problems:
        for p in problems[:20]:
            print(f"dataset error: {p}", file=sys.stderr)
        if len(problems) > 20:
            print(f"... and {len(problems) - 20} more", file=sys.stderr)
        raise ParseError(f"{len(problems)} dataset integrity violations")
    return dataset


def _out_writer(path: str | None, tabular: bool):
    """The writer of machine-readable output to ``--out`` (a no-op without it):
    .csv for tabular output, .json for any.  Any other path is refused here,
    before any work."""
    if path is None:
        return lambda payload: None
    if Path(path).suffix not in (".csv", ".json"):
        raise ValueError(f"--out must end in .csv or .json, got {path!r}")
    if Path(path).suffix == ".json":
        return lambda payload: Path(path).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    if not tabular:
        raise ValueError("--out .csv needs tabular output; use .json here")
    return lambda rows: write_csv(path, list(rows[0]) if rows else [], rows)


# ---------------------------------------------------------------------------
# evaluate


def cmd_evaluate(args) -> int:
    o = _options(args, _FILES)
    metric = parse_metric(o.metric)
    if o.run is None or o.dists is None:
        raise SystemExit(_usage(args, "evaluate needs --run and --dists"))
    write_out = _out_writer(o.out, tabular=True)

    dataset = _load_dataset(o)

    queries = dataset.queries()
    labeled = set(dataset.labeled_queries())
    pred_u = predicted_utilities(metric, dataset, queries)
    true_u = true_utilities(metric, dataset, sorted(labeled))

    rows = [{"query_id": q, "true": true_u[q] if q in labeled else "", "predicted": pred_u[q]}
            for q in queries]

    print(f"metric: {format_metric(metric)}")
    print(f"{'query':<24} {'true':>12} {'predicted':>12}")
    for row in rows:
        true_s = f"{row['true']:.6f}" if row["true"] != "" else "-"
        print(f"{row['query_id']:<24} {true_s:>12} {row['predicted']:>12.6f}")
    print(f"queries: {len(queries)}  labeled: {len(labeled)}")
    if labeled:
        print(f"mean true utility (labeled queries): {dataset_utility(metric, sorted(labeled), true_u):.6f}")
    print(f"mean predicted utility (all queries): {dataset_utility(metric, queries, pred_u):.6f}")

    write_out(rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# ci


def _print_report(ci: CiReport, metric_name: str) -> None:
    print(f"method: {ci.method}  metric: {metric_name}  alpha: {ci.alpha}")
    print(f"estimate: {ci.estimate:.6f}")
    print(f"interval: [{ci.lower:.6f}, {ci.upper:.6f}]  width: {ci.width:.6f}")
    diag = "  ".join(f"{k}={v:.6g}" for k, v in sorted(ci.diagnostics.items()))
    if diag:
        print(f"diagnostics: {diag}")


def cmd_ci(args) -> int:
    o = _options(args, _CI)
    metric = parse_metric(o.metric)
    if o.method not in ("bootstrap", "ppi", "crc"):
        raise SystemExit(_usage(args, f"unknown method {o.method!r}"))
    if o.method != "crc":
        for key in ("batch_size", "per_query", "save_calibration", "load_calibration"):
            value = getattr(o, key)
            if value is not None and value is not False:
                raise SystemExit(_usage(args, f"{key.replace('_', '-')} is a crc-only option, "
                                              f"but the method is {o.method}"))
    if o.run is None:
        raise SystemExit(_usage(args, "ci needs --run"))
    if o.method in ("ppi", "crc") and o.dists is None:
        raise SystemExit(_usage(args, f"method {o.method} needs --dists"))
    if o.qrels is None and o.load_calibration is None:
        raise SystemExit(_usage(args, "ci needs --qrels (or --load-calibration for crc)"))
    write_out = _out_writer(o.out, tabular=o.per_query)

    dataset = _load_dataset(o)

    queries = dataset.queries()
    labeled = dataset.labeled_queries()
    true_u = true_utilities(metric, dataset, labeled)

    if o.method == "bootstrap":
        ci = bootstrap_ci([true_u[q] for q in labeled], o.alpha, resamples=o.batches, seed=o.seed)
    elif o.method == "ppi":
        pred_u = predicted_utilities(metric, dataset, queries)
        est = ppi_estimate([true_u[q] for q in labeled], [pred_u[q] for q in labeled],
                           [pred_u[q] for q in queries])
        ci = ppi_ci(est, o.alpha)
    else:
        # crc: calibrate on the labeled queries (or load a saved calibration),
        # then report the interval over all queries.
        if o.load_calibration is not None:
            try:
                cal = CrcCalibration.from_text(_read(o.load_calibration))
            except ValueError as e:
                raise ParseError(f"{o.load_calibration}: {e}") from None
            cal.check_applies(metric, dataset.scale)
        else:
            # The batches, and the draw counts they hold, are freed before the interval.
            how = (dict(mode="per_query") if o.per_query else
                   dict(mode="bootstrap", num_batches=o.batches, batch_size=o.batch_size, seed=o.seed))
            cal = calibrate(metric, build_batches(labeled, **how), dataset, o.alpha)
        if o.save_calibration is not None:
            Path(o.save_calibration).write_text(cal.to_text() + "\n", encoding="utf-8")
        if o.per_query:
            return _per_query_report(metric, dataset, cal, true_u, write_out)
        ci = crc_ci(metric, queries, dataset, cal)

    _print_report(ci, format_metric(metric))
    write_out(ci.to_dict())
    return EXIT_OK


def _per_query_report(metric: MetricSpec, dataset: Dataset, cal: CrcCalibration,
                      true_u: dict[str, float], write_out) -> int:
    """One crc interval per query, all read from a single view of the dataset."""
    queries = dataset.queries()
    intervals = _per_query_intervals(_UtilityEngine(metric, dataset, queries), cal)
    rows = [{"query_id": q, "low": lo, "high": hi, "predicted": est, "true": true_u.get(q, "")}
            for q, (lo, hi, est) in zip(queries, intervals)]
    print(f"method: crc (per-query)  metric: {format_metric(metric)}  alpha: {cal.alpha}")
    print(f"lambda_low: {cal.lambda_low:.6f}  lambda_high: {cal.lambda_high:.6f}")
    print(f"{'query':<24} {'low':>12} {'high':>12} {'predicted':>12} {'true':>12}")
    for row in rows:
        true_s = f"{row['true']:.6f}" if row["true"] != "" else "-"
        print(f"{row['query_id']:<24} {row['low']:>12.6f} {row['high']:>12.6f} "
              f"{row['predicted']:>12.6f} {true_s:>12}")
    write_out(rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep


# ``rankci sweep``'s options: ``out`` and every plan key, which build_plan reads;
# three grids have a second name.  A key left unset keeps default_plan()'s value,
# except where the entry point's _SWEEP_DEFAULTS set it.
_SWEEP = {
    "name": (str, "experiment", "label recorded in summary.json (default experiment)"),
    "metric": _FILES["metric"],
    "alpha": (float, None, "miscoverage level (default 0.05)"),
    "repeats": (int, None, "repeats per grid point (default 50; 500 under rankci-harness)"),
    "batches": (int, None, "calibration batches / bootstrap resamples (default 2000)"),
    "n_grid": (_list(int), None, "labeled-budget grid, e.g. 10,20,40,80 "
                                 "(default 20; 10,20,40,80 under rankci-harness)", "n_labeled"),
    "beta_grid": (_list(float), None, "annotator-bias grid, e.g. 0,0.5,1 (default 0)", "beta"),
    "tau_grid": (_list(float), None, "oracle-mixing grid, e.g. 0,0.5,1 (default 0)", "tau"),
    "methods": (_list(str), None, "comma list of bootstrap,ppi,crc (default all three)"),
    "seed": (int, None, "sweep seed (default 7)"),
    "split_seed": (int, None, "validation/test halving seed (default 11)"),
    "workers": (int, None, "threads for the resample draws, bootstrap and crc, one "
                           "round-robin chunk of (n, repeat) units each, the main thread "
                           "resampling one of them; seed streams, ppi and rows stay on the "
                           "main thread; faster on bootstrap/ppi grids, not on crc-heavy "
                           "plans; output identical for any value (default 1)"),
    "output_dir": (str, None, "write the four artifacts here (default: none; harness-out "
                              "under rankci-harness)"),
    "out": (str, None, "write the CSV rows to this .csv path instead of stdout"),
    "queries": (int, None, "synthetic query count (default 200)"),
    "docs_per_query": (int, None, "synthetic documents per query (default 100)"),
    "max_label": (int, None, "synthetic label scale (default 3); with files, an override"),
    "truth_prior": (_list(float), None, "synthetic label prior (default 0.85,0.08,0.04,0.03)"),
    "sharpness": (float, None, "synthetic annotator sharpness (default 7.0)"),
    "synth_seed": (int, None, "synthetic dataset seed (default 11)"),
    "run": _FILES["run"],
    "qrels": _FILES["qrels"],
    "dists": _FILES["dists"],
}
# The only defaults in which the two entry points differ: a bare ``rankci sweep``
# is a quick interactive run, a plan run by ``rankci-harness`` the
# acceptance-scale plan, written to a directory.
_SWEEP_DEFAULTS = {
    "rankci": {"repeats": 50, "n_grid": (20,), "output_dir": None},
    "rankci-harness": {"repeats": 500, "n_grid": (10, 20, 40, 80), "output_dir": "harness-out"},
}
# Every key that some command reads from --config.
_CONFIG_KEYS = {name for table in (_CI, _SWEEP)
                for key, (_, _, _, *aliases) in table.items() for name in (key, *aliases)}


def _sweep_plan(args) -> tuple[argparse.Namespace, ExperimentPlan]:
    """The options and the plan of a ``sweep`` command line; options no
    sweep can run with raise ``ValueError`` here, before any work."""
    o = _options(args, _SWEEP, _SWEEP_DEFAULTS[args.entry])
    if o.out is not None and o.output_dir is not None:
        raise ValueError(f"--out {o.out!r} and an output directory {o.output_dir!r} "
                         "cannot both be set")
    if o.out is not None and Path(o.out).suffix != ".csv":
        raise ValueError(f"--out must end in .csv, got {o.out!r}")
    plan = build_plan({k: v for k, v in vars(o).items() if v is not None and k != "out"})
    return o, plan


def cmd_sweep(args) -> int:
    o, plan = _sweep_plan(args)
    dataset = generate(plan.synth) if plan.synth is not None else _load_dataset(o)
    if o.output_dir is not None:
        out_dir = run_plan(plan, dataset)
        for name in ("rows.csv", "aggregate.csv", "per_query.csv", "summary.json"):
            print(f"wrote {out_dir / name}")
        return EXIT_OK
    rows = sweep_plan(dataset, plan)
    write_csv(o.out if o.out is not None else sys.stdout, ROW_FIELDS, rows)
    if o.out is not None:
        print(f"wrote {len(rows)} rows to {o.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# wiring


def _usage(args, message: str) -> int:
    print(f"rankci {args.command}: error: {message}", file=sys.stderr)
    return EXIT_USAGE


def build_parser(prog: str = "rankci") -> _Parser:
    """The parser of ``prog``: ``rankci``, or ``rankci-harness``, whose whole
    command line is ``sweep``'s, with its plan file as ``PLAN`` in place of
    ``--config`` and its own defaults."""
    commands = (("evaluate", cmd_evaluate, _FILES, "per-query and dataset utilities"),
                ("ci", cmd_ci, _CI, "confidence interval for the dataset utility"),
                ("sweep", cmd_sweep, _SWEEP, "coverage/width sweep of a plan"))
    plan = prog == "rankci-harness"
    if not plan:
        parser = _Parser(prog=prog, description=__doc__.split("\n\n")[0])
        sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, func, table, text in commands[2:] if plan else commands:
        if plan:
            parser = p = _Parser(prog=prog, description=text)
            p.add_argument("config", metavar="PLAN", help="key = value plan file; flags override it")
        else:
            p = sub.add_parser(name, help=text, description=text)
            p.add_argument("--config", help="key = value config file; flags override it")
        for key, (parse, _, help_text, *aliases) in table.items():
            flags = ["--" + name.replace("_", "-") for name in (key, *aliases)]
            if parse is _bool:
                p.add_argument(*flags, dest=key, action="store_const", const=True, help=help_text)
            else:
                p.add_argument(*flags, dest=key, type=parse, help=help_text)
        p.set_defaults(func=func, entry=prog, command=name)
    return parser


def _dispatch(parser: _Parser, argv: list[str] | None) -> int:
    """Parse ``argv``, run the chosen command, and map errors to exit codes."""
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as e:
        print(f"{parser.prog}: format error: {e}", file=sys.stderr)
        return EXIT_DATA
    except OSError as e:
        print(f"{parser.prog}: i/o error: {e}", file=sys.stderr)
        return EXIT_DATA
    except CalibrationInfeasibleError as e:
        print(f"{parser.prog}: calibration infeasible: {e}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except RankciError as e:
        print(f"{parser.prog}: error: {e}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as e:
        print(f"{parser.prog}: error: {e}", file=sys.stderr)
        return EXIT_USAGE


def main(argv: list[str] | None = None) -> int:
    return _dispatch(build_parser(), argv)


def harness_main(argv: list[str] | None = None) -> int:
    """``rankci-harness PLAN [flag ...]``: ``rankci sweep --config PLAN [flag ...]``
    with the harness's defaults; ``PLAN`` may stand anywhere among the flags."""
    return _dispatch(build_parser("rankci-harness"), argv)


if __name__ == "__main__":
    sys.exit(main())
