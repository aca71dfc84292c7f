"""Rule semantics: the rows a rule applies to and its value on them.

A rule applies to the rows of its guard class; a paired rule only to those
whose first statistic lies in its learned bucket (s1_lo, s1_hi]; rows
missing a cell the rule reads are left out. A rule on a per-sample statistic
is read at each position, a summary or logic rule once per batch
(``reads``). This module holds the only copy of these semantics, so bound
learning, violation counting and the adaptation loss agree on which rows a
rule covers and how it is read.

``Cells`` reads the cells of one (table, rows) set: each distinct statistic
and guard class once, however many rules read it. ``Cells.values`` reads
any rule: its values and the mask of the positions, or batches, it applies
to; a summary rule's through ``batch_values``, a logic rule's from the count
kernel. ``batch_sets`` makes the reader of each minibatch size. Mining and
violation counting read every rule this way, one rule at a time.

Logic rules, almost all of the rules mining learns, are encoded once as
literal and consequent ids by a ``LogicTable``, one per batch size
(``logic_tables``), which the readers of every batch set of that size
share. A reader runs the count kernel ``score_logic_rules`` on its table
when it is made: every rule at once, from integer counts, chunk by chunk.
The adaptation loss (``adaptation.RuleGroups``) reads its literals through
a ``LogicTable`` too, its statistics with a ``Cells`` of the whole test
table, and masks and counts with ``applies`` and ``outside``.
"""
from __future__ import annotations

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

    Each distinct per-sample statistic (values and present mask) and guard
    class (mask) is read once, on first use, and kept. Guard classes are
    read from ``label_column`` with ``match_class``, so a numeric class
    column compares numbers. ``registry`` resolves statistic names. Read
    errors are raised, never kept. The count kernel scores the rules of the
    ``LogicTable`` ``logic`` on a (B, m) batch matrix when the reader is made.
    """

    def __init__(self, dataset, rows, label_column, registry, logic=None):
        self.dataset, self.rows = dataset, np.asarray(rows, dtype=int)
        self.label_column, self.registry = label_column, registry
        self.statistics = {}  # name -> (values, present)
        self._guards = {}  # class -> mask
        self.logic = logic
        if logic is not None:
            self._value, self._valued, self._errors = score_logic_rules(
                logic, dataset, self.rows, label_column)

    def statistic(self, name):
        """(values, present) of the per-sample statistic ``name``; missing
        cells hold 0."""
        if name not in self.statistics:
            self.statistics[name] = sample_values_aligned(
                self.registry.resolve(name), self.dataset, self.rows)
        return self.statistics[name]

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
        rule not in the reader's table raises ValueError naming it. A paired
        rule needs its learned first-statistic interval."""
        if rule.kind == LOGIC:
            r = None if self.logic is None else self.logic.row.get(rule)
            if r is None:
                raise ValueError(f"rule {rule.signature}: not among the logic rules "
                                 f"this reader was made with")
            if self._errors[r] is not None:
                raise self._errors[r]
            return self._value[r], self._valued[r]
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


def logic_tables(rules, size_of):
    """A ``LogicTable`` of the logic rules among ``rules`` for each minibatch
    size ``size_of(rule)``, keyed by the size."""
    by_size = {}
    for rule in rules:
        if rule.kind == LOGIC:
            by_size.setdefault(size_of(rule), []).append(rule)
    return {size: LogicTable(group) for size, group in by_size.items()}


def batch_sets(dataset, tables, size_of, count, seed, label_column, registry):
    """A function from a rule to the reader of its minibatch set: ``count``
    minibatches of ``dataset`` of the rule's size ``size_of(rule)``, drawn
    with ``seed``. The reader of a size is made on first use, with that
    size's table of ``tables`` (``logic_tables``)."""
    readers = {}

    def reader(rule):
        size = size_of(rule)
        if size not in readers:
            readers[size] = Cells(dataset, sample_minibatches(dataset, size, count, seed),
                                  label_column, registry, tables.get(size))
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


class LogicTable:
    """The logic rules of a non-empty rule list as literal and consequent ids.

    ``literals`` are the rules' distinct literals, sorted; id
    ``len(literals)`` is the always-true literal. Row r of ``ids`` holds rule
    r's literal ids in rule order, left-padded with the always-true id.
    ``consequent[r]`` is the position of rule r's class in ``consequents``,
    and ``row`` maps a rule to its row. ``groups`` holds, per set of rules
    that share all ids but the last: those ids without padding, the rules'
    rows, the slice from their least to their greatest last id, each last
    id's place in it, and their consequent positions.
    """

    def __init__(self, rules):
        self.literals = sorted({lit for rule in rules for lit in rule.literals})
        index = {lit: j for j, lit in enumerate(self.literals)}
        pad, width = len(self.literals), max(len(rule.literals) for rule in rules)
        self.ids = np.array([[pad] * (width - len(rule.literals))
                             + [index[lit] for lit in rule.literals] for rule in rules])
        classes = {}
        self.consequent = np.array([classes.setdefault(rule.consequent, len(classes))
                                    for rule in rules])
        self.consequents = list(classes)
        # keyed by the rule: a lookup with the same object skips __eq__
        self.row = {rule: r for r, rule in enumerate(rules)}
        prefixes, inverse = np.unique(self.ids[:, :-1], axis=0, return_inverse=True)
        order = np.argsort(inverse.ravel(), kind="stable")
        members = np.split(order, np.flatnonzero(np.diff(inverse.ravel()[order])) + 1)
        last = self.ids[:, -1]
        self.groups = [(prefix[prefix != pad], r, slice(last[r].min(), last[r].max() + 1),
                        last[r] - last[r].min(), self.consequent[r])
                       for prefix, r in zip(prefixes, members)]

    def read(self, dataset, rows):
        """(holds, present, errors): each literal's masks of true, present cells
        and of present cells at ``rows``, in id order, then the always-true
        row; and each row's read error or None. A failed literal has no cell."""
        rows = np.asarray(rows, dtype=int)
        holds = np.ones((len(self.literals) + 1, *rows.shape), dtype=bool)
        present = np.ones(holds.shape, dtype=bool)
        errors = [None] * len(holds)
        for j, lit in enumerate(self.literals):
            try:
                truth, present[j] = literal_cells(lit, dataset, rows)
                holds[j] = present[j] & truth
            except (ResolutionError, TypeMismatchError) as exc:
                holds[j], present[j], errors[j] = False, False, exc
        return holds, present, errors


# cells of U and of LU per chunk of batches: 256 KiB each in float32, so the
# kernel's memory does not grow with the number of batches. Larger chunks
# saved little time and raised the peak RSS of a process that mines
# repeatedly (see CHANGES.md).
_CHUNK_CELLS = 2**16


def score_logic_rules(table, dataset, rows, label_column):
    """(value, valued, errors) of every rule of the ``LogicTable`` ``table``
    on the (B, m) row matrix ``rows``, with consequent classes read from
    ``label_column``: each rule's F1 on each batch, as an (R, B) matrix,
    whether the batch has a usable row (the F1 is 0 where it has none), and
    the read error each rule raises first, its literals' in rule order, then
    its consequent's, or None.

    For a chunk of b batches, each literal's cells are read once, into
    (b, k, m) indicators of a present cell (``U``) and of a true, present
    cell (``LU``). The rules of a prefix group share one prefix mask, and one
    batched matmul over their last literals counts, per batch, the predicted
    positives, the usable positions, and per class the true positives and
    the consequent positions: exact integers, whatever the order of the sum.
    """
    rows = np.asarray(rows, dtype=int)
    n_batches, m = rows.shape
    # which reads fail depends on column kinds only, so no row is read
    _, _, failed = table.read(dataset, rows[:0])
    class_failed = []
    for cls in table.consequents:
        try:
            match_class(dataset, rows[:0], label_column, cls)
            class_failed.append(None)
        except (ResolutionError, TypeMismatchError) as exc:
            class_failed.append(exc)
    # each rule's first error: its literals' in rule order, then its class's
    keyed = np.array(failed + class_failed, dtype=object)[
        np.column_stack([table.ids, len(failed) + table.consequent])]
    errors = keyed[np.arange(len(keyed)), np.not_equal(keyed, None).argmax(axis=1)]

    value = np.zeros((len(table.ids), n_batches))
    valued = np.zeros((len(table.ids), n_batches), dtype=bool)
    # float32 sums of 0/1 cells are exact below 2**24 positions
    dtype = np.float32 if m < 2**24 else np.float64
    # equal chunks of batches, each with about _CHUNK_CELLS cells in U
    chunks = -(-n_batches * len(table.literals) * m // _CHUNK_CELLS)
    step = -(-n_batches // chunks)
    for b in range(0, n_batches, step):
        part = rows[b:b + step]
        holds, present, _ = table.read(dataset, part)
        U = np.moveaxis(present, 0, 1).astype(dtype, order="C")
        LU = np.moveaxis(holds, 0, 1).astype(dtype, order="C")
        y = ~dataset.missing(label_column)[part]
        # (b, m, classes + 1): each consequent's mask, then y
        label_masks = np.stack([
            np.zeros_like(y) if error is not None
            else match_class(dataset, part, label_column, cls) & y
            for cls, error in zip(table.consequents, class_failed)] + [y],
            axis=-1).astype(dtype)

        for prefix, r, span, at, cls in table.groups:
            gp = gu = label_masks
            for j in prefix:
                gp = gp * LU[:, j, :, None]
                gu = gu * U[:, j, :, None]
            # (b, span, classes + 1) counts for the span of last ids, read
            # through a view: gathering just the last ids would copy them
            pred = (LU[:, span, :] @ gp).astype(np.int64)
            usable = (U[:, span, :] @ gu).astype(np.int64)
            value[r, b:b + step] = f1_from_counts(
                pred[:, at, cls], pred[:, at, -1], usable[:, at, cls]).T
            valued[r, b:b + step] = (usable[:, at, -1] > 0).T
    return value, valued, errors
