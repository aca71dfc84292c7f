"""Rule semantics: the rows a rule applies to and its value on them.

A rule applies to the rows of its guard class; a paired rule only to those
whose first statistic lies in its learned bucket (s1_lo, s1_hi]; rows
missing a cell the rule reads are left out. A rule on a per-sample statistic
is read at each position, a summary or logic rule once per batch
(``reads``). This module holds the only copy of these semantics, so bound
learning, violation counting and the adaptation loss agree on which rows a
rule covers and how it is read.

``Cells`` reads the cells of one (table, rows) set: each distinct statistic
and guard class once, however many rules read it. ``Cells.block`` reads a
block of rules of one value shape, all read at each position or all once
per batch (``at_each``): their stacked values and masks and each rule's read
error. Logic rows come from the count kernel's matrices, and every other
rule's through ``Cells.values``, which reads one rule. ``batch_sets`` makes
the reader of each minibatch size. Mining and violation counting read every
rule through ``Cells.block``, ``CHUNK_CELLS`` value cells at a time.

Logic rules, almost all of the rules mining learns, are encoded once as
literal and consequent ids by a ``LogicTable``, one per batch size
(``logic_tables``), which the readers of every batch set of that size
share. A reader runs the count kernel ``score_logic_rules`` on its table
when it is made. The kernel packs each literal's cells of each batch into
uint64 words, 64 rows a word, ANDs a rule's words (``conjoin``) and counts
set bits: every rule's integer counts, a fixed budget of words at a time.
The adaptation loss (``adaptation.RuleGroups``) reads its literals through
a ``LogicTable`` too, unpacked, and joins them with ``conjoin``; it reads
its statistics with a ``Cells`` of the whole test table, and masks and
counts with ``applies`` and ``outside``.
"""
from __future__ import annotations

import numpy as np

from .dataset import sample_minibatches
from .errors import QuantrulesError, ResolutionError, TypeMismatchError
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
        with a usable row. A logic rule's row is ``block``'s, which raises the
        rule's read error instead if it has one. A paired rule needs its
        learned first-statistic interval."""
        if rule.kind == LOGIC:
            values, masks, errors = self.block([rule], [s1_interval], False)
            if errors[0] is not None:
                raise errors[0]
            return values[0], masks[0]
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

    def block(self, rules, s1_intervals, at_each):
        """(values, masks, errors) of ``rules``, all read at each position
        (``at_each``) or all once per batch, as ``values`` reads each: their
        values and masks stacked into (R, ...) arrays, and each rule's read
        error or None, whose mask is all False. ``s1_intervals[k]`` is rule
        k's learned s1 interval, or None. A logic rule's rows come from the
        count kernel's matrices, and a logic rule not in the reader's table
        fails with ValueError naming it; any other rule's rows come through
        ``values``. A block of one such rule holds views of its arrays, which
        the caller must not write: a per-sample rule on a whole table fills a
        chunk alone, and copying it was about a sixth of boxes' ``evaluate``."""
        errors = np.full(len(rules), None, dtype=object)
        row = {} if self.logic is None else self.logic.row
        at = np.fromiter((row.get(rule, -1) for rule in rules), dtype=int, count=len(rules))
        listed = at >= 0
        read = {}  # position -> (values, mask) of a rule read through ``values``
        for k in np.flatnonzero(~listed).tolist():
            rule = rules[k]
            try:
                if rule.kind == LOGIC:
                    raise ValueError(f"rule {rule.signature}: not among the logic rules "
                                     f"this reader was made with")
                read[k] = self.values(rule, s1_intervals[k])
            except (QuantrulesError, ValueError) as exc:
                errors[k] = exc
        if len(read) == len(rules) == 1:  # one rule's own arrays, not copied
            return read[0][0][None], read[0][1][None], errors
        shape = self.rows.shape if at_each else self.rows.shape[:-1]
        values = np.zeros((len(rules), *shape))
        masks = np.zeros(values.shape, dtype=bool)
        if listed.any():
            values[listed], masks[listed] = self._value[at[listed]], self._valued[at[listed]]
            errors[listed] = self._errors[at[listed]]
        for k, (value, mask) in read.items():
            values[k], masks[k] = value, mask
        masks[np.not_equal(errors, None)] = False
        return values, masks, errors


def at_each(rule, registry):
    """Whether ``rule`` is read at each position (a rule on a per-sample
    statistic) or once per batch (a summary or logic rule). Raises the error
    ``Cells.values`` raises first for a rule whose statistic cannot be
    resolved or read per minibatch."""
    return rule.kind != LOGIC and reads(registry.resolve(rule.statistic))[1]


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
    and ``row`` maps a rule to its row.
    """

    def __init__(self, rules):
        every = [lit for rule in rules for lit in rule.literals]
        self.literals = sorted(set(every))
        index = {lit: j for j, lit in enumerate(self.literals)}
        lengths = np.array([len(rule.literals) for rule in rules])
        self.ids = np.full((len(rules), lengths.max()), len(self.literals))
        # each row's last lengths[r] places, which row-major order fills in turn
        self.ids[np.arange(lengths.max()) >= lengths.max() - lengths[:, None]] = np.fromiter(
            map(index.__getitem__, every), dtype=int, count=len(every))
        classes = {}
        self.consequent = np.array([classes.setdefault(rule.consequent, len(classes))
                                    for rule in rules])
        self.consequents = list(classes)
        # keyed by the rule: a lookup with the same object skips __eq__
        self.row = {rule: r for r, rule in enumerate(rules)}

    def read(self, dataset, rows):
        """(holds, present, errors): each literal's masks of true, present cells
        and of present cells at ``rows``, in id order, then the always-true
        row; and each row's read error or None. A failed literal has no cell."""
        return self._read(dataset, rows, np.asarray)

    def words(self, dataset, rows):
        """``read``, with each mask packed along the last axis of ``rows``
        into uint64 words (``pack_words``)."""
        return self._read(dataset, rows, pack_words)

    def _read(self, dataset, rows, pack):
        rows = np.asarray(rows, dtype=int)
        ones = pack(np.ones(rows.shape, dtype=bool))
        holds = np.empty((len(self.literals) + 1, *ones.shape), dtype=ones.dtype)
        holds[-1] = ones
        present = holds.copy()
        errors = [None] * len(holds)
        for j, lit in enumerate(self.literals):
            try:
                truth, cells = literal_cells(lit, dataset, rows)
                holds[j], present[j] = pack(cells & truth), pack(cells)
            except (ResolutionError, TypeMismatchError) as exc:
                holds[j], present[j], errors[j] = 0, 0, exc
        return holds, present, errors


def pack_words(masks):
    """Bool ``masks`` packed along their last axis into uint64 words, 64 cells
    a word; the bits past the last cell are 0, so they count nowhere."""
    n_bytes = -(-masks.shape[-1] // 8)
    packed = np.zeros((*masks.shape[:-1], -(-n_bytes // 8) * 8), dtype=np.uint8)
    packed[..., :n_bytes] = np.packbits(masks, axis=-1, bitorder="little")
    return packed.view(np.uint64)


def _count(words):
    """Set bits of ``words`` along the last axis, as int64: one add per word
    of a batch, several times faster than a reduction over so short an axis."""
    bits = np.bitwise_count(words)
    total = np.zeros(bits.shape[:-1], dtype=np.int64)
    for w in range(bits.shape[-1]):
        total += bits[..., w]
    return total


# eight-byte cells (uint64 words, float64 values) per chunk array, 256 KiB,
# however many rules share a reader: the count kernel, selection and violation
# counting take their rules this many cells at a time, so memory follows this,
# not the rule count. Chunks of 1 MiB raised the peak RSS of a process that
# mines and evaluates cardio20k repeatedly by 1.9 MB (see CHANGES.md).
CHUNK_CELLS = 2**15


def conjoin(holds, present, ids):
    """(antecedent, usable) of each row of ``ids``: the AND of the ``holds``
    rows of its literal ids, and of their ``present`` rows. The rows may be
    bool masks or packed uint64 words (``pack_words``)."""
    antecedent, usable = holds[ids[:, 0]], present[ids[:, 0]]
    for j in ids.T[1:]:
        antecedent &= holds[j]
        usable &= present[j]
    return antecedent, usable


def score_logic_rules(table, dataset, rows, label_column):
    """(value, valued, errors) of every rule of the ``LogicTable`` ``table``
    on the (B, m) row matrix ``rows``, with consequent classes read from
    ``label_column``: each rule's F1 on each batch, as an (R, B) matrix,
    whether the batch has a usable row (the F1 is 0 where it has none), and
    the read error each rule raises first, its literals' in rule order, then
    its consequent's, or None.

    Each literal's holds and present masks, the label's present mask ``y``
    and each class's mask within ``y`` are packed into words per batch
    (``LogicTable.words``). A rule's antecedent is the AND of its literals'
    holds words, its usable cells the AND of their present words, and its
    counts are set bits: true positives (antecedent and class), predicted
    positives (antecedent and y), actual positives (usable and class) and
    usable rows (usable and y). The counts are exact integers, so the F1 does
    not depend on how rules or words are chunked.
    """
    rows = np.asarray(rows, dtype=int)
    holds, present, failed = table.words(dataset, rows)
    y_mask = ~dataset.missing(label_column)[rows]
    y = pack_words(y_mask)
    classes, class_failed = np.zeros((len(table.consequents), *y.shape), y.dtype), []
    for c, cls in enumerate(table.consequents):
        try:
            classes[c] = pack_words(match_class(dataset, rows, label_column, cls) & y_mask)
            class_failed.append(None)
        except (ResolutionError, TypeMismatchError) as exc:
            class_failed.append(exc)
    # each rule's first error: its literals' in rule order, then its class's
    keyed = np.array(failed + class_failed, dtype=object)[
        np.column_stack([table.ids, len(failed) + table.consequent])]
    errors = keyed[np.arange(len(keyed)), np.not_equal(keyed, None).argmax(axis=1)]

    value = np.zeros((len(table.ids), len(rows)))
    valued = np.zeros(value.shape, dtype=bool)
    step = max(1, CHUNK_CELLS // max(y.size, 1))
    for s in range(0, len(table.ids), step):
        antecedent, usable = conjoin(holds, present, table.ids[s:s + step])
        label = classes[table.consequent[s:s + step]]
        value[s:s + step] = f1_from_counts(_count(antecedent & label), _count(antecedent & y),
                                           _count(usable & label))
        valued[s:s + step] = _count(usable & y) > 0
    return value, valued, errors
