"""Correctness checks of benchmark outputs.

The sweep checks return the indices of the rows they fail, so a row that
fails more than one check counts once; the CLI checks return a verdict per
call.  The runner reports failed operations against attempted ones.

* Sweep rows: the row schema, the row count (methods x points x repeats),
  low <= high, width = high - low, and covered <=> low <= truth <= high.
* Sweep aggregates: ``harness.aggregate`` agrees with the rows it was given,
  and coverage and mean width per (method, n, beta, tau) lie within
  Monte-Carlo noise of the reference recorded in ``reference.json`` (for
  groups of at least ten repeats).  A group that misses counts every row in
  it as failed.
* CLI calls: exit code 0, and the printed interval, estimate and lambdas
  match a reference computed in-process through the public API.
"""

from __future__ import annotations

import math
import re
import statistics

ROW_FIELDS = ("method", "n", "beta", "tau", "repeat", "width", "covered", "low", "high",
              "truth", "status")
PER_QUERY_FIELDS = ("tau", "query_id", "low", "high", "truth", "predicted", "covered")

# width must equal high - low up to float rounding of the subtraction.
WIDTH_REL_TOL = 1e-9
# Reference comparison: |run - reference| <= Z * combined standard deviation
# + a small floor, with the between-seed spread from reference.json and the
# within-run spread of this run.
REF_Z = 6.0
# Groups with fewer repeats (the warm-up call) are only checked against
# their own rows.
MIN_REFERENCE_REPEATS = 10
COVERAGE_FLOOR = 0.02
WIDTH_REL_FLOOR = 0.01
# Printed numbers: "%.6f" values within one unit of the sixth decimal of the
# reference, "%.6g" values within ten units of the sixth significant digit.
FIXED_ABS_TOL = 1e-6
SIG_REL_TOL = 1e-5


def group_key(row: dict) -> str:
    return f"{row['method']}|{row['n']}|{float(row['beta'])}|{float(row['tau'])}"


def _finite(*xs) -> bool:
    return all(isinstance(x, (int, float)) and math.isfinite(x) for x in xs)


def row_ok(row: dict) -> bool:
    if tuple(sorted(row)) != tuple(sorted(ROW_FIELDS)) or row["status"] != "ok":
        return False
    low, high, width, truth = row["low"], row["high"], row["width"], row["truth"]
    if not _finite(low, high, width, truth) or low > high:
        return False
    if abs(width - (high - low)) > WIDTH_REL_TOL * max(1.0, abs(high), abs(low)):
        return False
    return row["covered"] == int(low <= truth <= high)


def bad_rows(rows: list[dict]) -> set[int]:
    """Indices of the rows that fail a row check."""
    return {i for i, r in enumerate(rows) if not row_ok(r)}


def bad_groups(aggs: list[dict], rows: list[dict], reference: dict) -> set[int]:
    """Indices of the rows in groups whose aggregate disagrees with the rows
    or with the reference, or that no aggregate covers."""
    groups: dict[str, list[int]] = {}
    for i, r in enumerate(rows):
        groups.setdefault(group_key(r), []).append(i)
    failed: set[int] = set()
    covered = set()
    for agg in aggs:
        key = group_key(agg)
        covered.add(key)
        members = groups.get(key, [])
        ok = [rows[i] for i in members if row_ok(rows[i])]
        if not _group_ok(agg, ok, reference.get(key)):
            failed.update(members)
    for key, members in groups.items():
        if key not in covered:
            failed.update(members)
    return failed


def _group_ok(agg: dict, ok_rows: list[dict], ref: dict | None) -> bool:
    k = len(ok_rows)
    if ref is None or k == 0 or agg["runs"] != k:
        return False
    coverage = sum(r["covered"] for r in ok_rows) / k
    widths = [r["width"] for r in ok_rows]
    mean_width = sum(widths) / k
    if abs(agg["coverage"] - coverage) > 1e-12 or not math.isclose(agg["mean_width"], mean_width,
                                                                    rel_tol=1e-9, abs_tol=1e-12):
        return False
    if k < MIN_REFERENCE_REPEATS:
        return True
    p = ref["coverage"]
    cov_tol = REF_Z * math.sqrt(ref["coverage_sd"] ** 2 + p * (1.0 - p) / k) + COVERAGE_FLOOR
    width_sd = statistics.stdev(widths)
    width_tol = (REF_Z * math.sqrt(ref["width_sd"] ** 2 + width_sd ** 2 / k)
                 + WIDTH_REL_FLOOR * abs(ref["width"]))
    return abs(coverage - p) <= cov_tol and abs(mean_width - ref["width"]) <= width_tol


def check_per_query_rows(rows: list[dict], expected: int) -> int:
    failed = abs(expected - len(rows))
    for r in rows:
        good = (tuple(sorted(r)) == tuple(sorted(PER_QUERY_FIELDS))
                and _finite(r["low"], r["high"], r["truth"], r["predicted"])
                and r["low"] <= r["high"]
                and r["covered"] == int(r["low"] <= r["truth"] <= r["high"]))
        failed += not good
    return failed


# ---------------------------------------------------------------------------
# CLI output

_NUM = r"(-?[0-9.]+(?:e[-+]?\d+)?)"


def _close(printed: float, ref: float, sig: bool) -> bool:
    if sig:
        return abs(printed - ref) <= SIG_REL_TOL * max(abs(ref), 1e-12)
    return abs(printed - ref) <= FIXED_ABS_TOL


def parse_ci_report(text: str) -> dict[str, float]:
    """Estimate, bounds and lambdas from the ``rankci ci`` report."""
    out = {}
    m = re.search(rf"^estimate: {_NUM}$", text, re.M)
    if m:
        out["estimate"] = float(m.group(1))
    m = re.search(rf"^interval: \[{_NUM}, {_NUM}\]  width: {_NUM}$", text, re.M)
    if m:
        out["low"], out["high"], out["width"] = (float(g) for g in m.groups())
    for name in ("lambda_low", "lambda_high"):
        m = re.search(rf"\b{name}={_NUM}", text)
        if m:
            out[name] = float(m.group(1))
    return out


def check_ci_report(rc: int, text: str, ref) -> bool:
    """True iff the call exited 0 and printed the reference CiReport."""
    if rc != 0:
        return False
    got = parse_ci_report(text)
    want = {"estimate": (ref.estimate, False), "low": (ref.lower, False),
            "high": (ref.upper, False), "width": (ref.width, False),
            "lambda_low": (ref.diagnostics["lambda_low"], True),
            "lambda_high": (ref.diagnostics["lambda_high"], True)}
    return all(k in got and _close(got[k], v, sig) for k, (v, sig) in want.items())


def check_per_query_report(rc: int, text: str, ref_cal, ref_rows: list[dict]) -> bool:
    """True iff the call exited 0 and printed the reference lambdas and one
    row per query with the reference bounds, estimate and true utility."""
    if rc != 0:
        return False
    m = re.search(rf"^lambda_low: {_NUM}  lambda_high: {_NUM}$", text, re.M)
    if not m or not (_close(float(m.group(1)), ref_cal.lambda_low, False)
                     and _close(float(m.group(2)), ref_cal.lambda_high, False)):
        return False
    lines = text.splitlines()
    try:
        start = next(i for i, line in enumerate(lines) if line.split()[:2] == ["query", "low"]) + 1
    except StopIteration:
        return False
    body = lines[start:]
    if len(body) != len(ref_rows):
        return False
    for line, ref in zip(body, ref_rows):
        fields = line.split()
        if len(fields) != 5 or fields[0] != ref["query_id"]:
            return False
        try:
            low, high, pred = (float(x) for x in fields[1:4])
        except ValueError:
            return False
        if not (_close(low, ref["low"], False) and _close(high, ref["high"], False)
                and _close(pred, ref["predicted"], False)):
            return False
        if ref["true"] is None:
            if fields[4] != "-":
                return False
        elif fields[4] == "-" or not _close(float(fields[4]), ref["true"], False):
            return False
    return True
