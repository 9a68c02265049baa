"""Reading and writing retrieval corpora.

Three line-oriented text formats:

* **run** — ``qid Q0 docid rank score tag`` (six whitespace-separated
  fields).  The stored rank field is ignored on parse; document order is
  recomputed from score descending with doc id ascending as the tie-break.
* **qrels** — ``qid iteration docid label`` (four fields).  The iteration
  field is ignored; labels must sit on the dataset's scale.
* **dists** — one JSON object per line with keys ``qid``, ``docid`` and
  ``probs`` (the predicted label distribution, lowest label first).

Parsers accept LF or CRLF, skip blank lines and report the 1-based line number of
anything malformed.  Writers emit a canonical form: sorted lines, LF endings, floats
rendered with ``repr`` (shortest digit string that round-trips exactly, at
most 17 significant digits), so parse -> write -> parse is the identity.
"""

from __future__ import annotations

import contextlib
import json
import math
from collections.abc import Mapping

import numpy as np

from .errors import ParseError
from .model import (Dataset, DistTable, Judgment, LabelScale, LabelTable, RankedList,
                    RelevanceDistribution, violating_rows)


def _fmt(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# run files


def parse_run(text: str) -> dict[str, RankedList]:
    """Parse a run file into rankings keyed by query id.

    Duplicate (query, document) pairs and unparseable scores are errors; the
    rank column is recomputed rather than trusted.
    """
    rows: dict[str, dict[str, float]] = {}
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not (fields := line.split()):
            continue
        if len(fields) != 6:
            raise ParseError(f"expected 6 fields in run line, got {len(fields)}", line=lineno)
        qid, _iteration, docid, _rank, score_s, _tag = fields
        try:
            score = float(score_s)
        except ValueError:
            raise ParseError(f"unparseable score {score_s!r}", line=lineno) from None
        if math.isnan(score):  # NaN has no place in the score order
            raise ParseError(f"score {score_s!r} is not a number", line=lineno)
        docs = rows.setdefault(qid, {})
        if docid in docs:
            raise ParseError(f"duplicate entry for query {qid!r} doc {docid!r}", line=lineno)
        docs[docid] = score

    rankings: dict[str, RankedList] = {}
    for qid in sorted(rows):
        # Score descending; a reversed sort is stable, so ties keep doc id order.
        docs = rows[qid]
        ordered = sorted(sorted(docs), key=docs.__getitem__, reverse=True)
        rankings[qid] = RankedList(query_id=qid, doc_ids=tuple(ordered))
    return rankings


def write_run(rankings: Mapping[str, RankedList], tag: str = "rankci") -> str:
    """Write rankings in canonical form with synthetic descending scores."""
    out = []
    for qid in sorted(rankings):
        docs = rankings[qid].doc_ids
        for rank, doc in enumerate(docs, start=1):
            score = float(len(docs) - rank + 1)
            out.append(f"{qid} Q0 {doc} {rank} {_fmt(score)} {tag}")
    return "\n".join(out) + ("\n" if out else "")


# ---------------------------------------------------------------------------
# qrels files


def parse_qrels(text: str, scale: LabelScale) -> LabelTable:
    """Parse judgments; labels outside 0..max_label are rejected."""
    rows: dict[tuple[str, str], int] = {}
    labels: list[int] = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not (fields := line.split()):
            continue
        if len(fields) != 4:
            raise ParseError(f"expected 4 fields in qrels line, got {len(fields)}", line=lineno)
        qid, _iteration, docid, label_s = fields
        try:
            label = int(label_s)
        except ValueError:
            raise ParseError(f"unparseable label {label_s!r}", line=lineno) from None
        if not 0 <= label <= scale.max_label:
            raise ParseError(
                f"label {label} for query {qid!r} doc {docid!r} is off the 0..{scale.max_label} scale",
                line=lineno,
            )
        if (qid, docid) in rows:
            raise ParseError(f"duplicate judgment for query {qid!r} doc {docid!r}", line=lineno)
        rows[(qid, docid)] = len(labels)
        labels.append(label)
    return LabelTable(rows, np.array(labels, dtype=np.intp))


def write_qrels(truth: Mapping[tuple[str, str], Judgment]) -> str:
    table = truth if isinstance(truth, LabelTable) else LabelTable.of(truth)
    judged = sorted(zip(table.rows, table.labels.tolist()))
    out = [f"{qid} 0 {docid} {label}" for (qid, docid), label in judged]
    return "\n".join(out) + ("\n" if out else "")


# ---------------------------------------------------------------------------
# predicted-distribution files


def parse_dists(text: str, scale: LabelScale) -> DistTable:
    """Parse predicted label distributions into one table.  Each line's
    structure is checked as it is read; its vector is checked afterwards, as
    :meth:`RelevanceDistribution.violations` does, for all lines at once.
    Either way the earliest bad line is the one reported."""
    scan, width = json.JSONDecoder().scan_once, scale.num_labels
    rows: dict[tuple[str, str], int] = {}
    flat: list = []
    linenos: list[int] = []
    try:
        for lineno, line in enumerate(text.split("\n"), start=1):
            if not (line := line.strip()):
                continue
            try:
                obj, end = scan(line, 0)
            except (StopIteration, json.JSONDecodeError):
                end = None
            if end != len(line):
                try:
                    json.loads(line)  # names the error as json.loads does
                except json.JSONDecodeError as e:
                    raise ParseError(f"invalid JSON: {e.msg}", line=lineno) from None
            if not isinstance(obj, dict):
                raise ParseError("distribution line is not a JSON object", line=lineno)
            try:
                qid, docid, probs = obj["qid"], obj["docid"], obj["probs"]
            except KeyError as e:
                raise ParseError(f"missing key {e.args[0]!r}", line=lineno) from None
            if not isinstance(qid, str) or not isinstance(docid, str) or not isinstance(probs, list):
                raise ParseError("qid/docid must be strings and probs a list", line=lineno)
            if len(probs) != width:
                raise ParseError(f"probs has {len(probs)} entries for a scale of {width} labels",
                                 line=lineno)
            flat.extend(probs)
            linenos.append(lineno)
            if (qid, docid) in rows:
                raise ParseError(f"duplicate distribution for query {qid!r} doc {docid!r}", line=lineno)
            rows[(qid, docid)] = len(rows)
    except ParseError:
        _checked_probs(flat, linenos, width)  # a vector error on an earlier line wins
        raise
    return DistTable(rows, _checked_probs(flat, linenos, width))


def _checked_probs(flat: list, linenos: list[int], width: int) -> np.ndarray:
    """``flat`` as a matrix of ``width`` columns, one row per line of
    ``linenos``; raises for the first line with a non-number or a bad vector."""
    values: list[float] = []
    with contextlib.suppress(TypeError, ValueError, OverflowError):
        values.extend(map(float, flat))  # a failure keeps the entries before it
    n = len(values) // width
    probs = np.array(values[: n * width], dtype=float).reshape(n, width)
    bad = np.flatnonzero(violating_rows(probs))
    if bad.size:
        row = int(bad[0])
        raise ParseError(RelevanceDistribution(probs[row].tolist()).violations()[0], line=linenos[row])
    if n < len(linenos):
        raise ParseError("probs entries must be numbers", line=linenos[n])
    return probs


def infer_scale_from_dists(text: str) -> LabelScale:
    """Label scale implied by the first distribution line, read no further."""
    body = text.lstrip()  # all before the first non-blank line is whitespace
    if not body:
        raise ParseError("empty distribution file; cannot infer label scale")
    end = body.find("\n")
    line = body[:end] if end >= 0 else body
    try:
        return LabelScale(len(list(json.loads(line.strip())["probs"])) - 1)
    except Exception:
        lineno = text.count("\n", 0, len(text) - len(body)) + 1
        raise ParseError("cannot infer label scale from first distribution line", line=lineno) from None


def write_dists(predicted: Mapping[tuple[str, str], RelevanceDistribution]) -> str:
    table = predicted if isinstance(predicted, DistTable) else DistTable.of(predicted, 0)
    probs = table.probs.tolist()
    if table.widths is not None:
        probs = [row[:w] for row, w in zip(probs, table.widths.tolist())]
    out = [json.dumps({"qid": qid, "docid": docid, "probs": row})
           for (qid, docid), row in sorted(zip(table.rows, probs))]
    return "\n".join(out) + ("\n" if out else "")


# ---------------------------------------------------------------------------
# dataset assembly and splitting


def build_dataset(
    run_text: str,
    dists_text: str,
    qrels_text: str | None = None,
    scale: LabelScale | None = None,
) -> Dataset:
    """Assemble a :class:`Dataset` from file contents.

    When ``scale`` is omitted it is inferred from the distribution file's
    first line.
    """
    if scale is None:
        scale = infer_scale_from_dists(dists_text)
    rankings = parse_run(run_text)
    predicted = parse_dists(dists_text, scale)
    truth = parse_qrels(qrels_text, scale) if qrels_text is not None else {}
    return Dataset(scale=scale, rankings=rankings, truth=truth, predicted=predicted)

