"""Rule semantics: the rows a rule applies to and its value on them.

A rule applies to the rows of its guard class; a paired rule only to those
whose first statistic lies in its learned bucket (s1_lo, s1_hi]; rows
missing a cell the rule reads are left out. Bound learning, violation
counting and the adaptation loss all evaluate rules through this module,
so the three stages agree on which rows a rule covers.

``evaluate_rule`` evaluates one rule. Mining scores its logic rules, almost
all of the rules it learns, with the count kernel ``score_logic_rules``:
every logic rule of a batch set at once, bit-equal to ``evaluate_rule``.
``evaluate_rule`` serves the rest: violation counting, the adaptation
loss, ``compute_bounds`` and mining's non-logic rules.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ResolutionError, TypeMismatchError
from .schema import LOGIC, PAIRED
from .statistics import (PER_SAMPLE, exact_f1, f1_from_counts, formula_parts,
                         literal_cells, match_class, sample_values_aligned,
                         summarize)


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


@dataclass(frozen=True)
class LogicScores:
    """Logic rules scored on one (B, m) batch set by ``score_logic_rules``.

    Row r of ``value`` and of ``valued``, both (R, B), equals ``value`` and
    ``valued`` of ``evaluate_rule`` for rule r. ``errors[r]`` is the
    exception ``evaluate_rule`` would raise for rule r, or None.
    """

    value: np.ndarray
    valued: np.ndarray
    errors: list

    def collected(self, r):
        """Rule r's F1 on the batches with a usable row, in batch order;
        raises the rule's error instead if it has one."""
        if self.errors[r] is not None:
            raise self.errors[r]
        return self.value[r][self.valued[r]]


# cells of U and of LU per chunk of batches: 256 KiB each in float32, so the
# kernel's memory does not grow with the number of batches. Larger chunks
# saved little time and raised the peak RSS of a process that mines
# repeatedly (see CHANGES.md).
_CHUNK_CELLS = 2**16


def score_logic_rules(rules, dataset, rows, label_column) -> LogicScores:
    """Per-batch F1 of every logic rule in ``rules`` on the (B, m) row matrix
    ``rows``, with consequent classes read from ``label_column``.

    For a chunk of b batches, each literal's cells are gathered once, into
    (b, k, m) indicators of a present cell (``U``) and of a true, present
    cell (``LU``); the label's present mask ``y`` and each class's mask are
    gathered once too. Rules that share all literals but the last share one
    prefix mask, and one batched matmul over their last literals counts, per
    batch, the predicted positives, the usable positions, and per class the
    true positives and the consequent positions. The counts are exact
    integers, so each F1 is bit-equal to ``evaluate_rule``'s.
    """
    rows = np.asarray(rows, dtype=int)
    n_batches, m = rows.shape
    literals = sorted({lit for rule in rules for lit in rule.literals})
    consequents = list(dict.fromkeys(rule.consequent for rule in rules))
    # which reads fail depends on column kinds only, so no row is read
    failed = {lit: _read_error(literal_cells, lit, dataset, rows[:0]) for lit in literals}
    failed.update((cls, _read_error(match_class, dataset, rows[:0], label_column, cls))
                  for cls in consequents)
    errors = [next((failed[key] for key in (*rule.literals, rule.consequent)
                    if failed[key] is not None), None) for rule in rules]

    column = {lit: j for j, lit in enumerate(literals)}
    prefixes = {}  # prefix columns -> [(rule index, last column, label mask index)]
    for r, rule in enumerate(rules):
        if errors[r] is None:
            cols = [column[lit] for lit in rule.literals]
            prefixes.setdefault(tuple(cols[:-1]), []).append(
                (r, cols[-1], 1 + consequents.index(rule.consequent)))
    groups = [(prefix, *map(np.array, zip(*members))) for prefix, members in prefixes.items()]

    value = np.zeros((len(rules), n_batches))
    valued = np.zeros((len(rules), n_batches), dtype=bool)
    # float32 sums of 0/1 cells are exact below 2**24 positions
    dtype = np.float32 if m < 2**24 else np.float64
    # equal chunks of batches, each with about _CHUNK_CELLS cells in U
    chunks = -(-n_batches * len(literals) * m // _CHUNK_CELLS)
    step = -(-n_batches // chunks)
    for b in range(0, n_batches, step):
        part = rows[b:b + step]
        U = np.zeros((part.shape[0], len(literals), m), dtype=dtype)
        LU = np.zeros_like(U)
        for j, lit in enumerate(literals):
            if failed[lit] is None:
                truth, present = literal_cells(lit, dataset, part)
                U[:, j, :] = present
                LU[:, j, :] = present & (truth == 1.0)
        y = ~dataset.missing(label_column)[part]
        # (b, m, 1 + classes): y, then each class's mask
        label_masks = np.stack([y] + [
            np.zeros_like(y) if failed[cls] is not None
            else match_class(dataset, part, label_column, cls) & y
            for cls in consequents], axis=-1).astype(dtype)

        for prefix, r, last, cls in groups:
            gp = gu = label_masks
            for j in prefix:
                gp = gp * LU[:, j, :, None]
                gu = gu * U[:, j, :, None]
            # (b, span, 1 + classes) counts for the span of last columns, read
            # through a view: gathering just the last columns would copy them
            first = last.min()
            span = slice(first, last.max() + 1)
            at = last - first
            pred = (LU[:, span, :] @ gp).astype(np.int64)
            usable = (U[:, span, :] @ gu).astype(np.int64)
            value[r, b:b + step] = f1_from_counts(
                pred[:, at, cls], pred[:, at, 0], usable[:, at, cls]).T
            valued[r, b:b + step] = (usable[:, at, 0] > 0).T
    return LogicScores(value, valued, errors)


def _read_error(read, *args):
    """The ResolutionError or TypeMismatchError that ``read(*args)`` raises,
    or None."""
    try:
        read(*args)
    except (ResolutionError, TypeMismatchError) as exc:
        return exc
    return None
