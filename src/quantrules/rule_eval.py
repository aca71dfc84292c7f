"""Rule semantics: the rows a rule applies to and its value on them.

A rule applies to the rows of its guard class; a paired rule only to those
whose first statistic lies in its learned bucket (s1_lo, s1_hi]; rows
missing a cell the rule reads are left out. A rule on a per-sample statistic
is read at each position, a summary or logic rule once per batch
(``reads``). This module holds the only copy of these semantics, so bound
learning, violation counting and the adaptation loss agree on which rows a
rule covers and how it is read.

``Cells`` reads the cells of one (table, rows) set: each distinct
statistic, literal and guard class once, however many rules read it.
``Cells.values`` reads any rule: its values and the mask of the positions,
or batches, it applies to; a summary rule's through ``batch_values``, a
logic rule's from the count kernel. ``batch_sets`` makes the reader of each
minibatch size. Mining and violation counting read every rule this way, one
rule at a time.

Logic rules, almost all of the rules mining learns, are scored by the count
kernel ``score_logic_rules``: every logic rule of a batch set at once, from
integer counts. A batch-set reader runs it once, when it is made, over the
logic rules it is given, and only those: it is the one way into the kernel.
The kernel gathers its own indicators chunk by chunk, so its memory does
not grow with the number of batches.

The adaptation loss (``adaptation.RuleGroups``) reads its data cells with a
``Cells`` over the whole test table, sorts its rules with ``reads``, masks
all statistic rules of a batch with one ``applies`` call, and counts
violations with ``outside``, as violation counting does. Its hinge,
surrogate F1 and gradient passes stay apart from the kernel: they need the
softened model scores and d loss / d probs, which change every iteration,
while the kernel counts hard cells only.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import sample_minibatches
from .errors import ResolutionError, TypeMismatchError
from .schema import LOGIC, PAIRED
from .statistics import (PER_SAMPLE, f1_from_counts, literal_cells, match_class,
                         sample_values_aligned, summarize)


def reads(stat):
    """The per-sample statistic a rule on ``stat`` reads, and whether the rule
    is read at each position (a per-sample statistic) or once per batch (a
    summary of a column). Any other statistic raises TypeMismatchError."""
    if stat.arity == PER_SAMPLE:
        return stat.name, True
    if stat.kind == "summary":
        return stat.column, False
    raise TypeMismatchError(f"statistic {stat.name!r} has no per-minibatch evaluator")


def per_sample(rule, registry):
    """Whether ``rule`` is read at each position; ``registry`` resolves its
    statistic."""
    return rule.kind != LOGIC and reads(registry.resolve(rule.statistic))[1]


def applies(guard, present, s1=None, s1_present=None, s1_lo=None, s1_hi=None):
    """Mask of the positions a rule applies to: its guard class holds and its
    value cell is present; for a paired rule (``s1`` given) its s1 cell is
    present too and lies in the bucket (s1_lo, s1_hi]. The arguments
    broadcast: one rule's arrays, or a group's (rules, m) arrays with one
    bound pair per rule as (rules, 1) columns."""
    mask = guard & present
    if s1 is not None:
        mask = mask & s1_present & (s1 > s1_lo) & (s1 <= s1_hi)
    return mask


def outside(value, lo, hi):
    """Mask of the values outside the closed interval [lo, hi], element-wise;
    NaN is outside."""
    return ~((lo <= value) & (value <= hi))


class Cells:
    """The cells of ``dataset`` at ``rows``, an index array of shape (..., m):
    a whole table, one minibatch, or a (count, m) matrix of minibatches as
    ``sample_minibatches`` draws them. Rows may repeat.

    Each distinct per-sample statistic (values and present mask), literal
    (0/1 truth and present mask) and guard class (mask) is read once, on
    first use, and kept; ``statistics`` and ``literals`` list them in that
    order. Guard classes are read from ``label_column`` with ``match_class``,
    so a numeric class column compares numbers. ``registry`` resolves
    statistic names. Read errors are raised, never kept. The count kernel
    scores the ``logic_rules`` of a (B, m) batch matrix when it is made.
    """

    def __init__(self, dataset, rows, label_column, registry, logic_rules=()):
        self.dataset, self.rows = dataset, np.asarray(rows, dtype=int)
        self.label_column, self.registry = label_column, registry
        self.statistics = {}  # name -> (values, present)
        self.literals = {}  # literal -> (truth, present)
        self._guards = {}  # class -> mask
        self._scores = (score_logic_rules(logic_rules, dataset, self.rows, label_column)
                        if logic_rules else None)
        # keyed by the rule: a lookup with the same object skips __eq__
        self._logic_row = {rule: r for r, rule in enumerate(logic_rules)}

    def statistic(self, name):
        """(values, present) of the per-sample statistic ``name``; missing
        cells hold 0."""
        if name not in self.statistics:
            self.statistics[name] = sample_values_aligned(
                self.registry.resolve(name), self.dataset, self.rows)
        return self.statistics[name]

    def literal(self, lit):
        """(0/1 truth, present) of a literal's column."""
        if lit not in self.literals:
            self.literals[lit] = literal_cells(lit, self.dataset, self.rows)
        return self.literals[lit]

    def guard(self, cls):
        """Mask of the rows of class ``cls``; every row when ``cls`` is None."""
        if cls not in self._guards:
            self._guards[cls] = (np.ones(self.rows.shape, dtype=bool) if cls is None
                                 else match_class(self.dataset, self.rows,
                                                  self.label_column, cls))
        return self._guards[cls]

    def values(self, rule, s1_interval=None):
        """A rule's (values, mask): a per-sample rule's values at each
        position and the positions it applies to, or a summary or logic
        rule's value on each batch of the (B, m) batch matrix and the batches
        with a usable row. A logic rule's row comes from the count kernel,
        which raises the rule's read error instead if it has one; a logic
        rule the reader was not made with raises ValueError naming it. A
        paired rule needs its learned first-statistic interval."""
        if rule.kind == LOGIC:
            r = self._logic_row.get(rule)
            if r is None:
                raise ValueError(f"rule {rule.signature}: not among the logic rules "
                                 f"this reader was made with")
            if self._scores.errors[r] is not None:
                raise self._scores.errors[r]
            return self._scores.value[r], self._scores.valued[r]
        stat = self.registry.resolve(rule.statistic)
        column, at_each = reads(stat)
        s1 = ()
        if rule.kind == PAIRED:
            if s1_interval is None:
                raise ValueError("paired rules need a learned s1 interval")
            s1 = (*self.statistic(rule.s1), *s1_interval)
        guard = self.guard(rule.guard)
        values, present = self.statistic(column)
        mask = applies(guard, present, *s1)
        return (values, mask) if at_each else batch_values(stat, values, mask)


def batch_sets(dataset, rules, size_of, count, seed, label_column, registry):
    """A function from a rule to the reader of its minibatch set: ``count``
    minibatches of ``dataset`` of the rule's size ``size_of(rule)``, drawn
    with ``seed``. The reader of a size is made on first use, with the logic
    rules of that size among ``rules``."""
    readers = {}

    def reader(rule):
        size = size_of(rule)
        if size not in readers:
            readers[size] = Cells(dataset, sample_minibatches(dataset, size, count, seed),
                                  label_column, registry,
                                  [r for r in rules if r.kind == LOGIC and size_of(r) == size])
        return readers[size]
    return reader


def batch_values(stat, values, mask):
    """A summary statistic of each batch (the last axis) over its masked
    values, and whether the batch has any; the value is 0 where it has none.
    """
    valued = mask.any(-1)
    value = np.zeros(mask.shape[:-1])
    # one reduction per batch over its compacted values: a masked reduction
    # over the whole matrix would sum in another order
    for b in np.ndindex(value.shape):
        if valued[b]:
            value[b] = summarize(stat, values[b][mask[b]])
    return value, valued


@dataclass(frozen=True)
class LogicScores:
    """Logic rules scored on one (B, m) batch set by ``score_logic_rules``.

    Row r of ``value``, (R, B), holds rule r's F1 on each batch, and row r of
    ``valued`` whether the batch has a usable row (the F1 is 0 where it has
    none). ``errors[r]`` is the ResolutionError or TypeMismatchError that
    reading rule r's cells raises, or None.
    """

    value: np.ndarray
    valued: np.ndarray
    errors: list


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
    integers, so the F1 does not depend on the order of the positions.
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
