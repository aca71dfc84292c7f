"""Rule semantics: the rows a rule applies to and its value on them.

A rule applies to the rows of its guard class; a paired rule only to those
whose first statistic lies in its learned bucket (s1_lo, s1_hi]; rows
missing a cell the rule reads are left out. A rule on a per-sample statistic
is read at each position, a summary or logic rule once per batch
(``reads``). This module holds the only copy of these semantics, so bound
learning, violation counting and the adaptation loss agree on which rows a
rule covers and how it is read.

``Cells`` reads the cells of one (table, rows) set: each distinct
statistic, guard class and literal once, on first use, however many rules
read it, and whichever rules it is asked for. ``Cells.block`` reads a block
of rules of one value shape, all read at each position or all once per
batch (``at_each``): their stacked values and masks and each rule's read
error. ``batch_sets`` makes the reader of each minibatch size. Mining and
violation counting read every rule through ``Cells.block``, ``CHUNK_CELLS``
value cells at a time, so memory follows the block, not the rule count.

Logic rules, almost all of the rules mining learns, go through the count
kernel ``score_logic_rules``, once per block, on that block's logic rules.
The reader keeps each literal it has read packed into uint64 words, 64 rows
a word, with its id (``Cells.literal_ids``); the kernel ANDs a rule's words
(``conjoin``) and counts set bits, a fixed budget of words at a time. The
adaptation loss (``adaptation.RuleGroups``) reads its statistics and
literals with a ``Cells`` of the whole test table, unpacks the literals
(``unpack_words``) and joins them with ``conjoin``; it masks and counts
with ``applies`` and ``outside``.
"""
from __future__ import annotations

from itertools import chain

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

    Each distinct per-sample statistic (values and present mask), guard
    class (mask) and literal is read once, on first use, and kept, however
    many rules read it. Guard classes are read from ``label_column`` with
    ``match_class``, so a numeric class column compares numbers.
    ``registry`` resolves statistic names. Statistic and guard read errors
    are raised, never kept; a literal's or a consequent class's is kept, for
    the count kernel to give each rule its own (``score_logic_rules``).
    """

    def __init__(self, dataset, rows, label_column, registry):
        self.dataset, self.rows = dataset, np.asarray(rows, dtype=int)
        self.label_column, self.registry = label_column, registry
        self.statistics = {}  # name -> (values, present)
        self._guards = {}  # class -> mask
        self._classes = {}  # class -> (words, error), see ``class_words``
        # literal -> id: its row of ``holds``, ``present`` and ``literal_errors``;
        # id 0 is the always-true literal, which pads a rule's ids
        self.literals = {}
        self.holds = pack_words(np.ones((1, *self.rows.shape), dtype=bool))
        self.present = self.holds.copy()
        self.literal_errors = [None]

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

    def class_words(self, cls):
        """(words, error) of the consequent class ``cls``: the rows of its
        guard mask whose label is present, every such row when ``cls`` is
        None, packed into words (``pack_words``), and None; or no row and
        the error reading the class raised. Read once per class."""
        if cls not in self._classes:
            labelled = ~self.dataset.missing(self.label_column)[self.rows]
            try:
                mask, error = self.guard(cls) & labelled, None
            except (ResolutionError, TypeMismatchError) as exc:
                mask, error = np.zeros(self.rows.shape, dtype=bool), exc
            self._classes[cls] = pack_words(mask), error
        return self._classes[cls]

    def literal_ids(self, rules):
        """Each logic rule's literal ids in rule order, left-padded with the
        always-true id 0, as an (R, k) array. A literal is read on first
        use with ``literal_cells``: its masks of true present cells
        (``holds``) and of present cells (``present``) packed into words
        (``pack_words``), and None in ``literal_errors``; or no cell and its
        read error."""
        literals = [rule.literals for rule in rules]
        lengths = np.fromiter(map(len, literals), dtype=int, count=len(literals))
        ids = np.zeros((len(rules), lengths.max()), dtype=int)
        # each row's last lengths[r] places, which row-major order fills in turn
        ids[np.arange(ids.shape[1]) >= ids.shape[1] - lengths[:, None]] = self._ids(
            list(chain.from_iterable(literals)))
        return ids

    def _ids(self, literals):
        """The id of each of ``literals``, one lookup each; the literals not
        read yet are read first."""
        try:
            return np.fromiter(map(self.literals.__getitem__, literals), dtype=int,
                               count=len(literals))
        except KeyError:  # a literal not read yet: read each new one, then look again
            pass
        new = [lit for lit in dict.fromkeys(literals) if lit not in self.literals]
        holds = np.zeros((len(new), *self.rows.shape), dtype=bool)
        present = holds.copy()
        for j, lit in enumerate(new):
            self.literals[lit] = len(self.literal_errors)
            try:
                truth, cells = literal_cells(lit, self.dataset, self.rows)
                holds[j], present[j] = cells & truth, cells
                self.literal_errors.append(None)
            except (ResolutionError, TypeMismatchError) as exc:
                self.literal_errors.append(exc)
        self.holds = np.concatenate([self.holds, pack_words(holds)])
        self.present = np.concatenate([self.present, pack_words(present)])
        return self._ids(literals)

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
        k's learned s1 interval, or None. The logic rules' rows come from
        one count kernel call on them (``score_logic_rules``); any other
        rule's through ``values``. A block of one such rule holds views of
        its arrays, which the caller must not write: a per-sample rule on a
        whole table fills a chunk alone, and copying it was about a sixth of
        boxes' ``evaluate``."""
        logic = np.fromiter((rule.kind == LOGIC for rule in rules), dtype=bool,
                            count=len(rules))
        if logic.all():  # the kernel's own arrays, not copied
            return score_logic_rules(self, rules)
        errors = np.full(len(rules), None, dtype=object)
        read = {}  # position -> (values, mask) of a rule read through ``values``
        for k in np.flatnonzero(~logic).tolist():
            try:
                read[k] = self.values(rules[k], s1_intervals[k])
            except (QuantrulesError, ValueError) as exc:
                errors[k] = exc
        if len(read) == len(rules) == 1:  # one rule's own arrays, not copied
            return read[0][0][None], read[0][1][None], errors
        shape = self.rows.shape if at_each else self.rows.shape[:-1]
        values = np.zeros((len(rules), *shape))
        masks = np.zeros(values.shape, dtype=bool)
        if logic.any():
            at = np.flatnonzero(logic)
            values[at], masks[at], errors[at] = score_logic_rules(
                self, [rules[k] for k in at.tolist()])
        for k, (value, mask) in read.items():
            values[k], masks[k] = value, mask
        return values, masks, errors


def at_each(rule, registry):
    """Whether ``rule`` is read at each position (a rule on a per-sample
    statistic) or once per batch (a summary or logic rule). Raises the error
    ``Cells.values`` raises first for a rule whose statistic cannot be
    resolved or read per minibatch."""
    return rule.kind != LOGIC and reads(registry.resolve(rule.statistic))[1]


def batch_sets(dataset, size_of, count, seed, label_column, registry):
    """A function from a rule to the reader of its minibatch set: ``count``
    minibatches of ``dataset`` of the rule's size ``size_of(rule)``, drawn
    with ``seed``. The reader of a size is made on first use."""
    readers = {}

    def reader(rule):
        size = size_of(rule)
        if size not in readers:
            readers[size] = Cells(dataset, sample_minibatches(dataset, size, count, seed),
                                  label_column, registry)
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


def pack_words(masks):
    """Bool ``masks`` packed along their last axis into uint64 words, 64 cells
    a word; the bits past the last cell are 0, so they count nowhere."""
    n_bytes = -(-masks.shape[-1] // 8)
    packed = np.zeros((*masks.shape[:-1], -(-n_bytes // 8) * 8), dtype=np.uint8)
    packed[..., :n_bytes] = np.packbits(masks, axis=-1, bitorder="little")
    return packed.view(np.uint64)


def unpack_words(words, count):
    """The bool masks of ``count`` cells that ``pack_words`` packed into
    ``words`` along their last axis."""
    return np.unpackbits(words.view(np.uint8), axis=-1, count=count,
                         bitorder="little").view(bool)


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


def score_logic_rules(cells, rules):
    """(value, valued, errors) of the logic ``rules`` on the (B, m) row
    matrix of the reader ``cells``, with consequent classes read from its
    label column: each rule's F1 on each batch, as an (R, B) matrix, whether
    the batch has a usable row (the F1 is 0 where it has none), and the read
    error each rule raises first, its literals' in rule order, then its
    consequent's, or None. A rule with an error has no usable batch.

    The reader keeps each literal's holds and present masks, the label's
    present mask ``y`` and each class's mask within ``y`` packed into words
    per batch (``Cells.literal_ids``, ``Cells.class_words``). A rule's
    antecedent is the AND of its literals' holds words, its usable cells the
    AND of their present words, and its counts are set bits: true positives
    (antecedent and class), predicted positives (antecedent and y), actual
    positives (usable and class) and usable rows (usable and y). The counts
    are exact integers, so the F1 does not depend on how rules or words are
    chunked, or on which rules are scored together.
    """
    ids = cells.literal_ids(rules)
    classes = {}
    consequent = np.array([classes.setdefault(rule.consequent, len(classes))
                           for rule in rules])
    y = cells.class_words(None)[0]
    labels, class_failed = zip(*map(cells.class_words, classes))
    labels = np.stack(labels)
    # each rule's first error: its literals' in rule order, then its class's
    failed = np.array(cells.literal_errors + list(class_failed), dtype=object)
    keys = np.column_stack([ids, len(cells.literal_errors) + consequent])
    bad = np.not_equal(failed, None)[keys]
    broken = bad.any(axis=1)
    errors = np.where(broken, failed[keys[np.arange(len(keys)), bad.argmax(axis=1)]], None)

    value = np.zeros((len(rules), len(cells.rows)))
    valued = np.zeros(value.shape, dtype=bool)
    step = max(1, CHUNK_CELLS // max(y.size, 1))
    for s in range(0, len(rules), step):
        antecedent, usable = conjoin(cells.holds, cells.present, ids[s:s + step])
        label = labels[consequent[s:s + step]]
        value[s:s + step] = f1_from_counts(_count(antecedent & label), _count(antecedent & y),
                                           _count(usable & label))
        valued[s:s + step] = _count(usable & y) > 0
    valued[broken] = False
    return value, valued, errors
