"""Command-line front ends: ``rankci`` and ``rankci-harness``.

``rankci`` has three commands:

* ``evaluate`` — per-query and dataset utilities (true where judged,
  predicted everywhere) from run/qrels/dists files.
* ``ci`` — a confidence interval for the dataset utility by bootstrap,
  prediction-powered, or risk-controlled perturbation calibration.
* ``sweep`` — synthetic coverage/width sweeps over labeled-budget, bias and
  oracle grids, emitting one CSV row per method/grid point/repeat.

``rankci-harness PLAN`` runs a ``key = value`` plan file through the
experiment harness and writes its four artifacts.

Every command is deterministic for a given ``--seed``.  Flags beat config
file entries (``--config`` names a ``key = value`` file whose keys are the
long flag names with underscores), which beat built-in defaults.

Exit codes, the same for both entry points: 0 success, 1 usage error (bad
flags, config or plan), 2 I/O or format error, 3 calibration infeasible.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .bootstrap import bootstrap_ci
# parse_qrels and parse_run are not called here; bench/tracing.py patches them.
from .corpus import build_dataset, infer_scale_from_dists, parse_qrels, parse_run
from .crc import (CrcCalibration, _per_query_intervals, _UtilityEngine, build_batches, calibrate,
                  crc_ci)
from .errors import CalibrationInfeasibleError, ParseError, RankciError
# sweep is not called here (sweep_plan calls it); bench/tracing.py patches it.
from .harness import (
    PLAN_KEYS,
    ROW_FIELDS,
    build_plan,
    float_list,
    int_list,
    load_plan,
    parse_kv,
    run_plan,
    str_list,
    sweep,
    sweep_plan,
    write_csv,
)
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


def _load_config(path: str | None) -> dict[str, str]:
    # Any key is accepted: one config file may serve every command.
    return parse_kv(_read(path), what="config") if path is not None else {}


def _resolve(args, cfg: dict[str, str], key: str, conv, default):
    """Flag value if given, else config value, else default."""
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if key in cfg:
        return conv(cfg[key])
    return default


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


def _load_dataset(run_path: str, dists_path: str | None, qrels_path: str | None,
                  max_label: int | None) -> Dataset:
    run_text = _read(run_path)
    if dists_path is not None:
        dists_text = _read(dists_path)
        scale = LabelScale(max_label) if max_label is not None else infer_scale_from_dists(dists_text)
        qrels_text = _read(qrels_path) if qrels_path is not None else None
    else:
        # No distributions: judgments only (enough for the bootstrap method).
        dists_text, qrels_text = "", _read(qrels_path) if qrels_path is not None else ""
        scale = LabelScale(max_label) if max_label is not None else _scale_from_qrels_text(qrels_text)
    dataset = build_dataset(run_text, dists_text, qrels_text=qrels_text, scale=scale)
    problems = validate_dataset(dataset, require_dists=dists_path is not None)
    if problems:
        for p in problems[:20]:
            print(f"dataset error: {p}", file=sys.stderr)
        if len(problems) > 20:
            print(f"... and {len(problems) - 20} more", file=sys.stderr)
        raise ParseError(f"{len(problems)} dataset integrity violations")
    return dataset


def _write_out(path: str, payload: list[dict] | dict) -> None:
    """Write machine-readable output: .csv for a list of rows, .json for either."""
    p = Path(path)
    if p.suffix == ".csv":
        if not isinstance(payload, list):
            raise ValueError("--out .csv needs tabular output; use .json here")
        write_csv(p, list(payload[0]) if payload else [], payload)
    elif p.suffix == ".json":
        p.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    else:
        raise ValueError(f"--out must end in .csv or .json, got {path!r}")


# ---------------------------------------------------------------------------
# evaluate


def cmd_evaluate(args) -> int:
    cfg = _load_config(args.config)
    metric = parse_metric(_resolve(args, cfg, "metric", str, "dcg@10"))
    run_path = _resolve(args, cfg, "run", str, None)
    qrels_path = _resolve(args, cfg, "qrels", str, None)
    dists_path = _resolve(args, cfg, "dists", str, None)
    max_label = _resolve(args, cfg, "max_label", int, None)
    out_path = _resolve(args, cfg, "out", str, None)
    if run_path is None or dists_path is None:
        raise SystemExit(_usage(args, "evaluate needs --run and --dists"))

    dataset = _load_dataset(run_path, dists_path, qrels_path, max_label)

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

    if out_path is not None:
        _write_out(out_path, rows)
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
    cfg = _load_config(args.config)
    metric = parse_metric(_resolve(args, cfg, "metric", str, "dcg@10"))
    method = _resolve(args, cfg, "method", str, "bootstrap")
    alpha = _resolve(args, cfg, "alpha", float, 0.05)
    seed = _resolve(args, cfg, "seed", int, 0)
    num_batches = _resolve(args, cfg, "batches", int, 10_000)
    batch_size = _resolve(args, cfg, "batch_size", int, None)
    per_query = _resolve(args, cfg, "per_query", _bool, False)
    run_path = _resolve(args, cfg, "run", str, None)
    qrels_path = _resolve(args, cfg, "qrels", str, None)
    dists_path = _resolve(args, cfg, "dists", str, None)
    max_label = _resolve(args, cfg, "max_label", int, None)
    out_path = _resolve(args, cfg, "out", str, None)

    if method not in ("bootstrap", "ppi", "crc"):
        raise SystemExit(_usage(args, f"unknown method {method!r}"))
    if run_path is None:
        raise SystemExit(_usage(args, "ci needs --run"))
    if method in ("ppi", "crc") and dists_path is None:
        raise SystemExit(_usage(args, f"method {method} needs --dists"))
    if qrels_path is None and args.load_calibration is None:
        raise SystemExit(_usage(args, "ci needs --qrels (or --load-calibration for crc)"))

    dataset = _load_dataset(run_path, dists_path, qrels_path, max_label)

    queries = dataset.queries()
    labeled = dataset.labeled_queries()
    true_u = true_utilities(metric, dataset, labeled)

    if method == "bootstrap":
        ci = bootstrap_ci([true_u[q] for q in labeled], alpha, resamples=num_batches, seed=seed)
    elif method == "ppi":
        pred_u = predicted_utilities(metric, dataset, queries)
        est = ppi_estimate([true_u[q] for q in labeled], [pred_u[q] for q in labeled],
                           [pred_u[q] for q in queries])
        ci = ppi_ci(est, alpha)
    else:
        # crc: calibrate on the labeled queries (or load a saved calibration),
        # then report the interval over all queries.
        if args.load_calibration is not None:
            try:
                cal = CrcCalibration.from_text(_read(args.load_calibration))
            except ValueError as e:
                raise ParseError(f"{args.load_calibration}: {e}") from None
            cal.check_applies(metric, dataset.scale)
        else:
            if per_query:
                batches = build_batches(labeled, mode="per_query")
            else:
                batches = build_batches(labeled, mode="bootstrap", num_batches=num_batches,
                                        batch_size=batch_size, seed=seed)
            cal = calibrate(metric, batches, dataset, alpha)
        if args.save_calibration is not None:
            Path(args.save_calibration).write_text(cal.to_text() + "\n", encoding="utf-8")
        if per_query:
            return _per_query_report(metric, dataset, cal, true_u, out_path)
        ci = crc_ci(metric, queries, dataset, cal)

    _print_report(ci, format_metric(metric))
    if out_path is not None:
        _write_out(out_path, ci.to_dict())
    return EXIT_OK


def _per_query_report(metric: MetricSpec, dataset: Dataset, cal: CrcCalibration,
                      true_u: dict[str, float], out_path: str | None) -> int:
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
    if out_path is not None:
        _write_out(out_path, rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep


# ``rankci sweep`` flags whose plan key has another name.  Every other sweep
# flag is named after its plan key.
_SWEEP_KEYS = {"n_labeled": "n_grid", "beta": "beta_grid", "tau": "tau_grid"}


def cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    # Flag > config entry > the sweep's own defaults (a quick interactive run,
    # not the acceptance-scale plan) > default_plan().
    values = {"repeats": 50, "n_grid": (20,)}
    for flag in vars(args):
        key = _SWEEP_KEYS.get(flag, flag)
        if key in PLAN_KEYS:
            value = _resolve(args, cfg, flag, PLAN_KEYS[key], None)
            if value is not None:
                values[key] = value
    plan = build_plan(values)
    out_path = _resolve(args, cfg, "out", str, None)

    rows = sweep_plan(generate(plan.synth), plan)
    write_csv(out_path if out_path is not None else sys.stdout, ROW_FIELDS, rows)
    if out_path is not None:
        print(f"wrote {len(rows)} rows to {out_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# rankci-harness


def cmd_plan(args) -> int:
    plan = load_plan(_read(args.plan))
    overrides = {"output_dir": args.output_dir, "workers": args.workers}
    out_dir = run_plan(replace(plan, **{k: v for k, v in overrides.items() if v is not None}))
    for name in ("rows.csv", "aggregate.csv", "per_query.csv", "summary.json"):
        print(f"wrote {out_dir / name}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# wiring


def _usage(args, message: str) -> int:
    print(f"rankci {args.command}: error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _add_common(p: _Parser) -> None:
    p.add_argument("--config", help="key = value config file; flags override it")
    p.add_argument("--metric", help="dcg@K or prec@K (default dcg@10)")
    p.add_argument("--out", help="write machine-readable output to this .csv or .json path")


def build_parser() -> _Parser:
    parser = _Parser(prog="rankci", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_eval = sub.add_parser("evaluate", help="per-query and dataset utilities")
    _add_common(p_eval)
    p_eval.add_argument("--run", help="run file (qid Q0 docid rank score tag)")
    p_eval.add_argument("--qrels", help="judgments file (qid iter docid label)")
    p_eval.add_argument("--dists", help="predicted label distributions (JSON lines)")
    p_eval.add_argument("--max-label", type=int, help="label scale override (default: inferred)")
    p_eval.set_defaults(func=cmd_evaluate)

    p_ci = sub.add_parser("ci", help="confidence interval for the dataset utility")
    _add_common(p_ci)
    p_ci.add_argument("--run", help="run file")
    p_ci.add_argument("--qrels", help="judgments file")
    p_ci.add_argument("--dists", help="predicted label distributions")
    p_ci.add_argument("--max-label", type=int, help="label scale override (default: inferred)")
    p_ci.add_argument("--method", choices=["bootstrap", "ppi", "crc"], help="estimator (default bootstrap)")
    p_ci.add_argument("--alpha", type=float, help="miscoverage level (default 0.05)")
    p_ci.add_argument("--seed", type=int, help="random seed (default 0)")
    p_ci.add_argument("--batches", type=int,
                      help="calibration batches / bootstrap resamples (default 10000)")
    p_ci.add_argument("--batch-size", type=int, help="queries per calibration batch (default: all labeled)")
    p_ci.add_argument("--per-query", action="store_const", const=True, default=None,
                      help="calibrate on singleton batches and report one interval per query")
    p_ci.add_argument("--save-calibration", help="write the calibrated record to this path")
    p_ci.add_argument("--load-calibration", help="reuse a saved calibration record instead of calibrating")
    p_ci.set_defaults(func=cmd_ci)

    p_sweep = sub.add_parser("sweep", help="synthetic coverage/width sweep (CSV rows)")
    _add_common(p_sweep)
    p_sweep.add_argument("--n-labeled", type=int_list, help="labeled-budget grid, e.g. 10,20,40,80")
    p_sweep.add_argument("--beta", type=float_list, help="annotator-bias grid, e.g. 0,0.5,1")
    p_sweep.add_argument("--tau", type=float_list, help="oracle-mixing grid, e.g. 0,0.5,1")
    p_sweep.add_argument("--repeats", type=int, help="repeats per grid point (default 50)")
    p_sweep.add_argument("--methods", type=str_list, help="comma list of bootstrap,ppi,crc")
    p_sweep.add_argument("--alpha", type=float, help="miscoverage level (default 0.05)")
    p_sweep.add_argument("--seed", type=int, help="sweep seed (default 7)")
    p_sweep.add_argument("--split-seed", type=int,
                         help="validation/test halving seed (default 11)")
    p_sweep.add_argument("--batches", type=int, help="calibration batches / resamples (default 2000)")
    p_sweep.add_argument("--workers", type=int, help="worker threads for repeats (default 1)")
    p_sweep.add_argument("--queries", type=int, help="synthetic query count (default 200)")
    p_sweep.add_argument("--docs-per-query", type=int, help="documents per query (default 100)")
    p_sweep.add_argument("--max-label", type=int, help="label scale (default 3)")
    p_sweep.add_argument("--truth-prior", type=float_list, help="label prior, e.g. 0.5,0.25,0.15,0.1")
    p_sweep.add_argument("--sharpness", type=float, help="annotator sharpness (default 7.0)")
    p_sweep.add_argument("--synth-seed", type=int, help="dataset generation seed (default 11)")
    p_sweep.set_defaults(func=cmd_sweep)

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
    parser = _Parser(prog="rankci-harness", description="Run a coverage/width experiment plan.")
    parser.add_argument("plan", help="path to a key = value plan file")
    parser.add_argument("--output-dir", help="override the plan's output directory")
    parser.add_argument("--workers", type=int, help="override the plan's worker count")
    parser.set_defaults(func=cmd_plan)
    return _dispatch(parser, argv)


if __name__ == "__main__":
    sys.exit(main())
