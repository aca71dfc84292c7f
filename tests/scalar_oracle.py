"""Per-batch scalar rule evaluation, kept as the reference for the tests.

This is the evaluation that ``rule_eval.evaluate_rule`` replaced when
minibatches became one (count, size) row matrix: every function here takes
one minibatch at a time, a 1-d row index array, and the loops over batches
are Python loops. Cells are read through the package's leaf readers
(``match_class``, ``sample_values_aligned``, ``formula_parts``), which act
element-wise on a 1-d batch.
"""
from dataclasses import dataclass

import numpy as np

from quantrules.errors import EmptyStatisticError, ResolutionError
from quantrules.schema import LOGIC, PAIRED
from quantrules.statistics import (PER_SAMPLE, Statistic, StatisticRegistry,
                                   formula_parts, match_class,
                                   sample_values_aligned)


def exact_f1(antecedent, consequent):
    """F1 of hard 0/1 vectors; 0 on a zero denominator, None when empty."""
    if antecedent.size == 0:
        return None
    tp = float((antecedent * consequent).sum())
    denom = float(antecedent.sum() + consequent.sum())  # == 2tp + fp + fn
    if denom == 0.0:
        return 0.0
    return 2.0 * tp / denom


def sample_values(stat, dataset, rows):
    """Per-sample values over ``rows`` plus the row ids that were usable."""
    rows = np.asarray(rows, dtype=int)
    vals, valid = sample_values_aligned(stat, dataset, rows)
    return vals[valid], rows[valid]


def batch_value(stat, dataset, rows):
    """Scalar minibatch summary, or None when no row was usable."""
    base = Statistic(stat.column, PER_SAMPLE, "column", column=stat.column)
    vals, _ = sample_values(base, dataset, rows)
    if vals.size == 0:
        return None
    return float(vals.mean()) if stat.summary == "mean" else float(vals.std())


@dataclass(frozen=True)
class BatchValues:
    per_sample: bool
    mask: np.ndarray
    samples: np.ndarray | None = None
    value: float | None = None


def evaluate_batch(rule, dataset, rows, label_column, registry, s1_interval=None):
    """A rule on one batch: the applicable mask, per-sample values or the
    antecedent truth, and the minibatch value (None when no row is usable)."""
    rows = np.asarray(rows, dtype=int)
    if rule.kind == LOGIC:
        antecedent, consequent, usable = formula_parts(rule, dataset, rows, label_column)
        return BatchValues(False, usable, antecedent,
                           exact_f1(antecedent[usable], consequent[usable]))
    stat = registry.resolve(rule.statistic)
    if rule.guard is None:
        mask = np.ones(len(rows), dtype=bool)
    else:
        mask = match_class(dataset, rows, label_column, rule.guard)
    if rule.kind == PAIRED:
        s1, present = sample_values_aligned(registry.resolve(rule.s1), dataset, rows)
        mask = mask & present & (s1 > s1_interval[0]) & (s1 <= s1_interval[1])
    if stat.arity == PER_SAMPLE:
        samples, valid = sample_values_aligned(stat, dataset, rows)
        return BatchValues(True, mask & valid, samples)
    value = batch_value(stat, dataset, rows[mask]) if mask.any() else None
    return BatchValues(False, mask, value=value)


def collect_statistics(rule, dataset, batches, registry, label_column, s1_interval=None):
    """Per-sample values pooled over the concatenated batches, or one value
    per batch with a usable row."""
    stat = None if rule.kind == LOGIC else registry.resolve(rule.statistic)
    if stat is not None and stat.arity == PER_SAMPLE:
        rows = np.concatenate(list(batches))
        ev = evaluate_batch(rule, dataset, rows, label_column, registry, s1_interval)
        return ev.samples[ev.mask]
    values = [evaluate_batch(rule, dataset, rows, label_column, registry, s1_interval).value
              for rows in batches]
    return np.asarray([v for v in values if v is not None], dtype=float)


@dataclass(frozen=True)
class CheckResult:
    evaluated: bool
    violated: bool = False


def check_rule(crule, dataset, rows, *, registry=None, label_column=None) -> CheckResult:
    """Check one concrete rule on one batch. Per-sample statistics violate if
    any applicable row falls outside the bounds; a batch with no applicable
    row is not evaluated."""
    if registry is None:
        registry = StatisticRegistry.from_dataset(dataset)
    if label_column is None:
        label_column = dataset.label_column
    ev = evaluate_batch(crule.rule, dataset, rows, label_column, registry,
                        (crule.s1_lo, crule.s1_hi))
    if ev.per_sample:
        if not ev.mask.any():
            return CheckResult(evaluated=False)
        outside = ev.mask & ((ev.samples < crule.lo) | (ev.samples > crule.hi))
        return CheckResult(evaluated=True, violated=bool(outside.any()))
    if ev.value is None:
        return CheckResult(evaluated=False)
    inside = crule.lo <= ev.value <= crule.hi
    return CheckResult(evaluated=True, violated=not inside)


def scan_sample_rule(crule, dataset, registry, label_column, sample_counts):
    ev = evaluate_batch(crule.rule, dataset, np.arange(dataset.n_rows), label_column,
                        registry, (crule.s1_lo, crule.s1_hi))
    outside = ev.mask & ((ev.samples < crule.lo) | (ev.samples > crule.hi))
    sample_counts[outside] += 1
    return int(outside.sum()), int(ev.mask.sum())


def scan_batch_rule(crule, dataset, batches, registry, label_column, sample_counts):
    violations = 0
    evaluations = 0
    for rows in batches:
        result = check_rule(crule, dataset, rows, registry=registry,
                            label_column=label_column)
        if not result.evaluated:
            continue
        evaluations += rows.size
        if result.violated:
            violations += rows.size
            np.add.at(sample_counts, rows, 1)
    return violations, evaluations


def evaluate_counts(rules, test, batches, registry, label_column):
    """Per-rule (signature, violations, evaluations) and per-sample counts of
    ``violations.evaluate``, with the minibatch rules checked on ``batches``."""
    sample_counts = np.zeros(test.n_rows, dtype=int)
    per_rule = []
    for crule in rules:
        rule = crule.rule
        try:
            if rule.kind != LOGIC and registry.resolve(rule.statistic).arity == PER_SAMPLE:
                v, n = scan_sample_rule(crule, test, registry, label_column, sample_counts)
            else:
                v, n = scan_batch_rule(crule, test, batches, registry, label_column,
                                       sample_counts)
        except (ResolutionError, EmptyStatisticError):
            v, n = 0, 0
        per_rule.append((crule.signature, v, n))
    return per_rule, sample_counts.tolist()
