"""Rule semantics: the rows a rule applies to and its value on them.

A rule applies to the rows of its guard class; a paired rule only to those
whose first statistic lies in its learned bucket (s1_lo, s1_hi]; rows
missing a cell the rule reads are left out. Bound learning, violation
counting and the adaptation loss all evaluate rules through this module,
so the three stages agree on which rows a rule covers.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .schema import LOGIC, PAIRED
from .statistics import (PER_SAMPLE, batch_value, exact_f1, formula_parts,
                         match_class, sample_values_aligned)


@dataclass(frozen=True)
class RuleValues:
    """A rule evaluated on an index array ``rows``, which may repeat rows.

    ``mask`` marks the positions of ``rows`` the rule applies to; a
    minibatch summary such as ``mean(col)`` also skips the masked rows whose
    cell is missing. For a per-sample rule ``samples`` holds the statistic
    aligned with ``rows``; for a logic rule it holds the antecedent's 0/1
    truth. Only masked positions are meaningful. ``value`` is the minibatch
    statistic over the masked rows (the exact F1 for a logic rule); it is
    None for per-sample rules and when no row is usable.
    """

    per_sample: bool
    mask: np.ndarray
    samples: np.ndarray | None = None
    value: float | None = None

    def outside(self, lo, hi):
        """Mask of the applicable positions whose sample lies outside [lo, hi]."""
        return self.mask & ((self.samples < lo) | (self.samples > hi))

    def violations(self, lo, hi) -> int:
        """Member-attributed violations of [lo, hi]: each per-sample position
        outside it, or every position when the minibatch value is outside."""
        if self.per_sample:
            return int(self.outside(lo, hi).sum())
        if self.value is None or lo <= self.value <= hi:
            return 0
        return self.mask.size


def is_per_sample(rule, registry) -> bool:
    return rule.kind != LOGIC and registry.resolve(rule.statistic).arity == PER_SAMPLE


def guard_mask(rule, dataset, rows, label_column):
    if rule.guard is None:
        return np.ones(len(rows), dtype=bool)
    return match_class(dataset, rows, label_column, rule.guard)


def s1_values(rule, dataset, rows, label_column, registry):
    """A paired rule's first statistic aligned with ``rows``, and the mask of
    the guard-class positions where it is present."""
    vals, present = sample_values_aligned(registry.resolve(rule.s1), dataset, rows)
    return vals, present & guard_mask(rule, dataset, rows, label_column)


def evaluate_rule(rule, dataset, rows, label_column, registry,
                  s1_interval=None) -> RuleValues:
    """Evaluate an abstract rule on ``rows`` of ``dataset``.

    Guard and consequent classes are read from ``label_column``. A paired
    rule needs its learned first-statistic interval ``s1_interval``.
    """
    rows = np.asarray(rows, dtype=int)
    if rule.kind == LOGIC:
        antecedent, consequent, usable = formula_parts(rule, dataset, rows, label_column)
        return RuleValues(False, usable, antecedent,
                          exact_f1(antecedent[usable], consequent[usable]))
    stat = registry.resolve(rule.statistic)
    if rule.kind == PAIRED:
        if s1_interval is None:
            raise ValueError("paired rules need a learned s1 interval")
        s1, mask = s1_values(rule, dataset, rows, label_column, registry)
        mask &= (s1 > s1_interval[0]) & (s1 <= s1_interval[1])
    else:
        mask = guard_mask(rule, dataset, rows, label_column)
    if stat.arity == PER_SAMPLE:
        samples, valid = sample_values_aligned(stat, dataset, rows)
        return RuleValues(True, mask & valid, samples)
    value = batch_value(stat, dataset, rows[mask]) if mask.any() else None
    return RuleValues(False, mask, value=value)
