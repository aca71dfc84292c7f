"""Rule violation counting over a test set.

Learned intervals are closed, so a statistic exactly at a bound satisfies
its rule. Per-sample rules are checked on every applicable row; minibatch
rules are checked on seeded batches, and a violated batch attributes one
violation to every member row so the per-rule and per-sample margins both
sum to the same total.
"""
from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dataset import sample_minibatches
from .errors import EmptyStatisticError, ResolutionError
from .rule_eval import evaluate_rule, is_per_sample
from .statistics import StatisticRegistry

REPORT_FORMAT_VERSION = 1


@dataclass
class ViolationReport:
    per_rule: list = field(default_factory=list)   # (signature, violations, evaluations)
    per_sample: list = field(default_factory=list)  # (sample id, violations), sorted
    total_violations: int = 0
    per_sample_mean: float = 0.0
    per_sample_std: float = 0.0

    def validate(self):
        rule_total = sum(v for _, v, _ in self.per_rule)
        sample_total = sum(v for _, v in self.per_sample)
        if not (self.total_violations == rule_total == sample_total):
            raise AssertionError(
                f"violation accounting mismatch: total={self.total_violations} "
                f"per-rule={rule_total} per-sample={sample_total}")
        for sig, v, n in self.per_rule:
            if not 0 <= v <= n:
                raise AssertionError(f"rule {sig}: count {v} outside [0, {n}]")


def _scan_rule(crule, dataset, rows, registry, label_column, sample_counts):
    """(violations, evaluations) of one rule on ``rows``: the whole table for
    a per-sample rule, a (count, size) batch matrix for a minibatch rule. A
    minibatch rule evaluates every position of each batch it applies to."""
    ev = evaluate_rule(crule.rule, dataset, rows, label_column, registry,
                       (crule.s1_lo, crule.s1_hi))
    violated = ev.violated(crule.lo, crule.hi)
    np.add.at(sample_counts, rows[violated], 1)
    if ev.per_sample:
        return int(violated.sum()), int(ev.mask.sum())
    return int(violated.sum()), int(ev.valued.sum()) * rows.shape[-1]


def evaluate(rules, test, batching=None, *, label_column=None, registry=None) -> ViolationReport:
    """Count violations of every rule over a test dataset.

    ``batching`` is (batch_size, count, seed) for minibatch rules; the
    batch size acts as a fallback when a rule carries none. Rules whose
    columns are absent are skipped with zero evaluations rather than
    failing the run.
    """
    if registry is None:
        registry = StatisticRegistry.from_dataset(test)
    if label_column is None:
        label_column = test.label_column
    sample_counts = np.zeros(test.n_rows, dtype=int)
    per_rule = []

    batch_cache = {}

    def batches_for(size):
        if size not in batch_cache:
            if batching is None:
                raise ValueError("minibatch rules need a (batch_size, count, seed) batching")
            fallback, count, seed = batching
            batch_cache[size] = sample_minibatches(test, size or fallback, count, seed)
        return batch_cache[size]

    for crule in rules:
        try:
            if is_per_sample(crule.rule, registry):
                rows = np.arange(test.n_rows)
            else:
                rows = batches_for(crule.rule.batch_size if crule.rule.batch_size > 1 else None)
            v, n = _scan_rule(crule, test, rows, registry, label_column, sample_counts)
        except (ResolutionError, EmptyStatisticError):
            v, n = 0, 0  # rule not evaluable on this dataset; recorded as skipped
        per_rule.append((crule.signature, v, n))

    report = ViolationReport(
        per_rule=per_rule,
        per_sample=[(int(i), int(c)) for i, c in enumerate(sample_counts)],
        total_violations=int(sample_counts.sum()),
        per_sample_mean=float(sample_counts.mean()) if test.n_rows else 0.0,
        per_sample_std=float(sample_counts.std()) if test.n_rows else 0.0,
    )
    report.validate()
    return report


def report_to_obj(report: ViolationReport) -> dict:
    return {
        "format_version": REPORT_FORMAT_VERSION,
        "per_rule": [{"signature": s, "violations": v, "evaluations": n}
                     for s, v, n in report.per_rule],
        "per_sample": [{"sample": i, "violations": c} for i, c in report.per_sample],
        "totals": {
            "violations": report.total_violations,
            "per_sample_mean": report.per_sample_mean,
            "per_sample_std": report.per_sample_std,
            "rules": len(report.per_rule),
            "samples": len(report.per_sample),
        },
    }


def report_from_obj(obj: dict) -> ViolationReport:
    if obj.get("format_version") != REPORT_FORMAT_VERSION:
        raise ValueError(f"unsupported report format_version {obj.get('format_version')!r}")
    report = ViolationReport(
        per_rule=[(r["signature"], r["violations"], r["evaluations"])
                  for r in obj["per_rule"]],
        per_sample=[(r["sample"], r["violations"]) for r in obj["per_sample"]],
        total_violations=obj["totals"]["violations"],
        per_sample_mean=obj["totals"]["per_sample_mean"],
        per_sample_std=obj["totals"]["per_sample_std"],
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
    for i, c in report.per_sample:
        writer.writerow(["sample", i, c, ""])
    writer.writerow(["total", "violations", report.total_violations, ""])
    writer.writerow(["total", "per_sample_mean", repr(report.per_sample_mean), ""])
    writer.writerow(["total", "per_sample_std", repr(report.per_sample_std), ""])
    return buf.getvalue()


def write_report(report: ViolationReport, path, fmt="json"):
    """Serialize a report; JSON key order and float text are stable."""
    path = Path(path)
    if fmt == "json":
        payload = json.dumps(report_to_obj(report), indent=2) + "\n"
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
    with open(path, encoding="utf-8") as fh:
        return report_from_obj(json.load(fh))
