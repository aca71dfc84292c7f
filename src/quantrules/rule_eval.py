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

from .errors import TypeMismatchError
from .schema import LOGIC, PAIRED
from .statistics import (PER_SAMPLE, exact_f1, formula_parts, match_class,
                         sample_values_aligned, summarize)


@dataclass(frozen=True)
class RuleValues:
    """A rule evaluated on an index array ``rows`` of shape (..., m): one
    minibatch of m rows, or a (count, m) matrix of minibatches as
    ``sample_minibatches`` draws them. Rows may repeat within and across
    batches.

    ``mask`` marks the positions of ``rows`` the rule applies to, without
    the rows missing a cell it reads. For a per-sample rule ``samples``
    holds the statistic aligned with ``rows``; for a logic rule it holds the
    antecedent's 0/1 truth. Only masked positions are meaningful. For a
    minibatch rule ``value`` holds one statistic per batch, of shape (...),
    over the batch's masked positions (the exact F1 for a logic rule); it
    is meaningful only where ``valued``. It is None for per-sample rules.
    """

    per_sample: bool
    mask: np.ndarray
    samples: np.ndarray | None = None
    value: np.ndarray | None = None

    @property
    def valued(self):
        """Per batch, whether the rule applies to any of its positions."""
        return self.mask.any(-1)

    def violated(self, lo, hi):
        """Mask of the positions charged a violation of [lo, hi]: each
        applicable per-sample position outside it, or every position of a
        valued batch whose value is outside it (a NaN value is outside)."""
        if self.per_sample:
            return self.mask & ((self.samples < lo) | (self.samples > hi))
        inside = (lo <= self.value) & (self.value <= hi)
        return (self.valued & ~inside)[..., None].repeat(self.mask.shape[-1], -1)


def is_per_sample(rule, registry) -> bool:
    return rule.kind != LOGIC and registry.resolve(rule.statistic).arity == PER_SAMPLE


def guard_mask(rule, dataset, rows, label_column):
    if rule.guard is None:
        return np.ones(np.shape(rows), dtype=bool)
    return match_class(dataset, rows, label_column, rule.guard)


def s1_values(rule, dataset, rows, label_column, registry):
    """A paired rule's first statistic aligned with ``rows``, and the mask of
    the guard-class positions where it is present."""
    vals, present = sample_values_aligned(registry.resolve(rule.s1), dataset, rows)
    return vals, present & guard_mask(rule, dataset, rows, label_column)


def evaluate_rule(rule, dataset, rows, label_column, registry,
                  s1_interval=None) -> RuleValues:
    """Evaluate an abstract rule on ``rows`` of ``dataset``, of shape (..., m).

    Guard and consequent classes are read from ``label_column``. A paired
    rule needs its learned first-statistic interval ``s1_interval``.
    """
    rows = np.asarray(rows, dtype=int)
    if rule.kind == LOGIC:
        antecedent, consequent, usable = formula_parts(rule, dataset, rows, label_column)
        return RuleValues(False, usable, antecedent,
                          exact_f1(antecedent * usable, consequent & usable))
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
    if stat.kind != "summary":
        raise TypeMismatchError(f"statistic {stat.name!r} has no per-minibatch evaluator")
    samples, valid = sample_values_aligned(registry.resolve(stat.column), dataset, rows)
    mask &= valid
    value = np.zeros(mask.shape[:-1])
    # one reduction per batch over its compacted values: a masked reduction
    # over the whole matrix would sum in another order
    for b in np.ndindex(value.shape):
        if mask[b].any():
            value[b] = summarize(stat, samples[b][mask[b]])
    return RuleValues(False, mask, value=value)
