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
violation counting read every other rule this way, one rule at a time, and
the logic rules of a batch set all at once, through ``Cells.logic_scores``.

Logic rules, almost all of the rules mining learns, are encoded once as
literal and consequent ids by a ``LogicTable``, one per batch size
(``logic_tables``), which the readers of every batch set of that size
share. A reader runs the count kernel ``score_logic_rules`` on its table
when it is made. The kernel packs each literal's cells of each batch into
uint64 words, 64 rows a word, ANDs a rule's words and counts set bits:
every rule's integer counts, a fixed budget of words at a time. The
adaptation loss (``adaptation.RuleGroups``) reads its literals through a
``LogicTable`` too, unpacked, its statistics with a ``Cells`` of the whole
test table, and masks and counts with ``applies`` and ``outside``.
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

    def logic_scores(self, rules):
        """The count kernel's view of the logic ``rules``, for all at once:
        the (R, B) value and valued matrices of the reader's table, each
        rule's row in them, and, as an object array, the error ``values``
        raises for each rule (its read error, or a ValueError naming a rule
        not in the table) or None. The row of a rule with an error is 0, and
        what it holds means nothing; a reader without a table has one such
        row."""
        table = self.logic
        row = {} if table is None else table.row
        at = np.fromiter((row.get(rule, -1) for rule in rules), dtype=int, count=len(rules))
        errors = np.full(len(rules), None, dtype=object)
        if table is None:
            value = np.zeros((1, len(self.rows)))
            valued = value.astype(bool)
        else:
            value, valued = self._value, self._valued
            errors[at >= 0] = self._errors[at[at >= 0]]
        for k in np.flatnonzero(at < 0):
            at[k] = 0
            errors[k] = ValueError(f"rule {rules[k].signature}: not among the logic "
                                   f"rules this reader was made with")
        return value, valued, at, errors

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
            value, valued, at, errors = self.logic_scores([rule])
            if errors[0] is not None:
                raise errors[0]
            return value[at[0]], valued[at[0]]
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


# words per chunk array of the count kernel, 256 KiB, however many rules and
# batches: memory follows this, not the rule count
_CHUNK_WORDS = 2**15


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
    step = max(1, _CHUNK_WORDS // max(y.size, 1))
    for s in range(0, len(table.ids), step):
        ids, cls = table.ids[s:s + step], table.consequent[s:s + step]
        antecedent, usable = holds[ids[:, 0]], present[ids[:, 0]]
        for j in ids.T[1:]:
            antecedent &= holds[j]
            usable &= present[j]
        label = classes[cls]
        value[s:s + step] = f1_from_counts(_count(antecedent & label), _count(antecedent & y),
                                           _count(usable & label))
        valued[s:s + step] = _count(usable & y) > 0
    return value, valued, errors
