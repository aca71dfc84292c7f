"""Rule violation counting over a test set.

Learned intervals are closed, so a statistic exactly at a bound satisfies
its rule. Rules are read in blocks by ``rule_eval.Cells.block``: the
per-sample rules on every applicable row, by one ``Cells`` of the whole
table, and the minibatch rules on their seeded batches, by the reader of
their batch size (``rule_eval.batch_sets``), the logic rules of each block
by one count kernel call. Each ``evaluate`` makes its own readers, which
read only what its rules need, so nothing is prepared for it or kept
between calls. A violated position charges one violation to its row, and a
violated batch one to every member row, so the per-rule and per-sample
margins both sum to the same total. Each block is charged with one add
(``_charge_block``).
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import rule_eval
from .errors import (INT64_MAX, EmptyStatisticError, ParseError, QuantrulesError,
                     ResolutionError, check_count, check_fields)
from .rule_eval import Cells, at_each, batch_sets, outside
from .statistics import StatisticRegistry

REPORT_FORMAT_VERSION = 1


@dataclass(eq=False)
class ViolationReport:
    """Violation counts of one rule set on one test set.

    ``per_sample[i]`` is the violation count of sample i. ``unevaluable``
    holds the signatures of the rules recorded as 0 of 0 because a column is
    absent or a statistic is empty; it is logged, not written to report.json,
    and equality compares only what report.json holds.
    """
    per_rule: list = field(default_factory=list)   # (signature, violations, evaluations)
    per_sample: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    total_violations: int = 0
    per_sample_mean: float = 0.0
    per_sample_std: float = 0.0
    unevaluable: list = field(default_factory=list)

    def __eq__(self, other):
        if not isinstance(other, ViolationReport):
            return NotImplemented
        return (self.per_rule == other.per_rule
                and np.array_equal(self.per_sample, other.per_sample)
                and (self.total_violations, self.per_sample_mean, self.per_sample_std)
                == (other.total_violations, other.per_sample_mean, other.per_sample_std))

    def validate(self):
        rule_total = sum(v for _, v, _ in self.per_rule)
        sample_total = int(self.per_sample.sum())
        if not (self.total_violations == rule_total == sample_total):
            raise AssertionError(
                f"violation accounting mismatch: total={self.total_violations} "
                f"per-rule={rule_total} per-sample={sample_total}")
        for sig, v, n in self.per_rule:
            if not 0 <= v <= n:
                raise AssertionError(f"rule {sig}: count {v} outside [0, {n}]")


def _charge_block(crules, cells, per_sample, sample_counts):
    """Count the violations of the concrete rules ``crules``, all read at
    each position (``per_sample``) or all once per batch, with one block read
    on ``cells`` (``Cells.block``), and charge them into ``sample_counts``
    with one add: a violated position charges its row, a violated batch each
    of its rows. Returns each rule's violations and evaluations, a batch
    counting as many evaluations as it has rows, and its read error or None.
    """
    values, masks, errors = cells.block([c.rule for c in crules],
                                        [(c.s1_lo, c.s1_hi) for c in crules], per_sample)
    ends = np.array([(c.lo, c.hi) for c in crules], dtype=float).reshape(
        len(crules), 2, *[1] * (values.ndim - 1))
    violated = masks & outside(values, ends[:, 0], ends[:, 1])
    # the rows of each violated position or batch, for every rule
    np.add.at(sample_counts, np.broadcast_to(cells.rows, (len(crules), *cells.rows.shape))[
        violated], 1)
    size = math.prod(cells.rows.shape[values.ndim - 1:])  # rows per value
    counts = np.stack([violated.reshape(len(crules), -1).sum(axis=1),
                       masks.reshape(len(crules), -1).sum(axis=1)]) * size
    return counts, errors


def evaluate(rules, test, batching=None, *, label_column=None,
             registry=None) -> ViolationReport:
    """Count violations of every rule over a test dataset.

    ``batching`` is (batch_size, count, seed) for minibatch rules; the
    batch size acts as a fallback when a rule carries none. Per-sample rules
    are checked on every row, the others on each batch. Rules whose columns
    are absent are skipped with zero evaluations rather than failing the
    run; their signatures are kept in the report's ``unevaluable`` list.

    The rules are grouped by reader: one ``Cells`` of the whole table for
    the per-sample rules, the batch set of each size for the others, each
    made here. Each group is counted whole, ``rule_eval.CHUNK_CELLS`` value
    cells at a time (``_charge_block``), so memory follows the chunk, not
    the rule count. Any other error is raised at its own rule, once every
    rule has been read.
    """
    if registry is None:
        registry = StatisticRegistry.from_dataset(test)
    if label_column is None:
        label_column = test.label_column
    sample_counts = np.zeros(test.n_rows, dtype=np.int64)
    everywhere = Cells(test, np.arange(test.n_rows), label_column, registry)
    if batching is not None:
        fallback, count, seed = batching
        # a rule's own minibatch size, or the fallback when it carries none
        size_of = lambda rule: rule.batch_size if rule.batch_size > 1 else fallback
        batch_set = batch_sets(test, size_of, count, seed, label_column, registry)
    outcome = {}  # rule position -> the error raised at it
    groups = {}  # None for the whole table, else a batch size -> index
    group = np.full(len(rules), -1)
    for i, crule in enumerate(rules):
        try:
            if at_each(crule.rule, registry):
                key = None
            elif batching is None:
                raise ValueError("minibatch rules need a (batch_size, count, seed) batching")
            else:
                key = size_of(crule.rule)
        except (QuantrulesError, ValueError) as exc:
            outcome[i] = exc
            continue
        group[i] = groups.setdefault(key, len(groups))

    counted = np.zeros((2, len(rules)), dtype=np.int64)  # violations, evaluations
    for g, key in enumerate(groups):
        positions = np.flatnonzero(group == g)
        try:
            cells = everywhere if key is None else batch_set(rules[positions[0]].rule)
        except (QuantrulesError, ValueError) as exc:
            outcome[int(positions[0])] = exc
            continue
        shape = cells.rows.shape if key is None else cells.rows.shape[:-1]
        step = max(1, rule_eval.CHUNK_CELLS // max(math.prod(shape), 1))
        for s in range(0, len(positions), step):
            part = positions[s:s + step]
            counted[:, part], errors = _charge_block([rules[i] for i in part.tolist()], cells,
                                                    key is None, sample_counts)
            outcome.update((int(part[k]), errors[k])
                           for k in np.flatnonzero(np.not_equal(errors, None)))

    per_rule, unevaluable = [], []
    for i, (crule, v, n) in enumerate(zip(rules, *counted.tolist())):
        if i in outcome:
            if not isinstance(outcome[i], (ResolutionError, EmptyStatisticError)):
                raise outcome[i]
            v, n = 0, 0  # rule not evaluable on this dataset; recorded as skipped
            unevaluable.append(crule.signature)
        per_rule.append((crule.signature, v, n))

    report = ViolationReport(
        per_rule=per_rule,
        per_sample=sample_counts,
        total_violations=int(sample_counts.sum()),
        per_sample_mean=float(sample_counts.mean()) if test.n_rows else 0.0,
        per_sample_std=float(sample_counts.std()) if test.n_rows else 0.0,
        unevaluable=unevaluable,
    )
    report.validate()
    return report


# one per_sample entry as json.dumps(..., indent=2) lays it out at depth 2
_SAMPLE_ENTRY = '    {\n      "sample": %d,\n      "violations": %d\n    }'
_EMPTY_PER_SAMPLE = '\n  "per_sample": []'


def report_to_json(report: ViolationReport) -> str:
    """The report.json document: format_version, per_rule, per_sample as
    {"sample": i, "violations": count} entries, and totals, as
    ``json.dumps(document, indent=2) + "\\n"`` writes it, byte for byte.

    json.dumps writes everything but the per-sample entries, so string
    escapes and float repr are its own; the entries fill copies of one
    fixed template with the (index, count) pairs of the count array. The
    empty per_sample list is a safe splice point: an encoded string holds
    no raw newline, so ``_EMPTY_PER_SAMPLE`` occurs only as the top-level key.
    """
    text = json.dumps({
        "format_version": REPORT_FORMAT_VERSION,
        "per_rule": [{"signature": s, "violations": v, "evaluations": n}
                     for s, v, n in report.per_rule],
        "per_sample": [],
        "totals": {
            "violations": report.total_violations,
            "per_sample_mean": report.per_sample_mean,
            "per_sample_std": report.per_sample_std,
            "rules": len(report.per_rule),
            "samples": len(report.per_sample),
        },
    }, indent=2)
    n = len(report.per_sample)
    if n:
        head, tail = text.split(_EMPTY_PER_SAMPLE)
        pairs = np.column_stack((np.arange(n), report.per_sample)).ravel().tolist()
        entries = ",\n".join([_SAMPLE_ENTRY] * n) % tuple(pairs)
        text = f'{head}\n  "per_sample": [\n{entries}\n  ]{tail}'
    return text + "\n"


def _number(obj, key, where):
    value = obj[key]
    if type(value) not in (int, float):
        raise ParseError(f"{where}: {key} must be a number, got {value!r}")
    return float(value)


def _sample_counts(entries, where):
    """The count array of a per_sample list whose ids run 0..n-1 in order
    and whose counts sum to at most the int64 maximum."""
    if not isinstance(entries, list):
        raise ParseError(f"{where}: per_sample must be a list, got {entries!r}")
    counts = []
    total = 0
    for i, entry in enumerate(entries):
        at = f"{where}: per_sample[{i}]"
        count = check_count(check_fields(entry, at, ("sample", "violations")), "violations", at)
        if check_count(entry, "sample", at) != i:
            raise ParseError(f"{at}: sample must be {i} (ids run 0..n-1 in "
                             f"order), got {entry['sample']}")
        total += count
        if total > INT64_MAX:
            raise ParseError(f"{at}: the per-sample violations sum past the int64 "
                             f"maximum {INT64_MAX}")
        counts.append(count)
    return np.array(counts, dtype=np.int64)


def report_from_obj(obj, where="report") -> ViolationReport:
    """Parse a report.json document. A malformed one raises ParseError
    naming ``where`` and the field; a broken accounting identity raises
    AssertionError (ViolationReport.validate)."""
    check_fields(obj, where, ("format_version", "per_rule", "per_sample", "totals"))
    if obj["format_version"] != REPORT_FORMAT_VERSION:
        raise ParseError(f"{where}: unsupported report format_version "
                         f"{obj['format_version']!r} (expected {REPORT_FORMAT_VERSION})")
    if not isinstance(obj["per_rule"], list):
        raise ParseError(f"{where}: per_rule must be a list, got {obj['per_rule']!r}")
    per_rule = []
    for i, entry in enumerate(obj["per_rule"]):
        at = f"{where}: per_rule[{i}]"
        check_fields(entry, at, ("signature", "violations", "evaluations"))
        if not isinstance(entry["signature"], str):
            raise ParseError(f"{at}: signature must be a string, "
                             f"got {entry['signature']!r}")
        per_rule.append((entry["signature"], check_count(entry, "violations", at),
                         check_count(entry, "evaluations", at)))
    per_sample = _sample_counts(obj["per_sample"], where)
    at = f"{where}: totals"
    totals = check_fields(obj["totals"], at, ("violations", "per_sample_mean",
                                              "per_sample_std", "rules", "samples"))
    for key, name, listed in (("rules", "per_rule", len(per_rule)),
                              ("samples", "per_sample", len(per_sample))):
        if check_count(totals, key, at) != listed:
            raise ParseError(f"{at}: {key} is {totals[key]} but {name} has "
                             f"{listed} entries")
    report = ViolationReport(
        per_rule=per_rule,
        per_sample=per_sample,
        total_violations=check_count(totals, "violations", at),
        per_sample_mean=_number(totals, "per_sample_mean", at),
        per_sample_std=_number(totals, "per_sample_std", at),
    )
    report.validate()
    return report


def report_to_csv(report: ViolationReport) -> str:
    """Long-format CSV: one row per rule, sample, and total entry."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["section", "key", "violations", "evaluations"])
    for sig, v, n in report.per_rule:
        writer.writerow(["rule", sig, v, n])
    writer.writerows(["sample", i, c, ""] for i, c in enumerate(report.per_sample.tolist()))
    writer.writerow(["total", "violations", report.total_violations, ""])
    writer.writerow(["total", "per_sample_mean", repr(report.per_sample_mean), ""])
    writer.writerow(["total", "per_sample_std", repr(report.per_sample_std), ""])
    return buf.getvalue()


def write_report(report: ViolationReport, path, fmt="json"):
    """Serialize a report; JSON key order and float text are stable."""
    path = Path(path)
    if fmt == "json":
        payload = report_to_json(report)
    elif fmt == "csv":
        payload = report_to_csv(report)
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload)
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc


def read_report(path) -> ViolationReport:
    """Read a report written by write_report. A file that is not one (bad
    JSON, a missing or unknown key, a count that is not a non-negative
    integer, per_sample ids other than 0..n-1 in order, totals that disagree
    with the lists) raises ParseError naming the file and the field."""
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON: {exc.msg}", line=exc.lineno)
    try:
        return report_from_obj(obj, str(path))
    except AssertionError as exc:  # the accounting identity, from validate
        raise ParseError(f"{path}: {exc}") from exc
