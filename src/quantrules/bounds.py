"""Quantile bound learning and train/validation consistency selection.

For each abstract rule, statistics are collected over seeded minibatches of
the training and validation sets, quantile bounds are taken on each side,
and the rule is kept only when the two bound intervals overlap strongly
under the interval Jaccard index.

``learn_and_select`` reads and selects a whole rule list in the blocks of
``rule_eval.blocks``: rules of one batch size and one value shape, read by
one ``rule_eval.Cells.block`` call on the train and one on the valid reader
of that size. It stacks the values of the rules with equal value counts and
quantile levels into (R, n) matrices, one per batch set, sorts each row,
and takes the linear-interpolation percentiles (``interval_rows``) and the
interval Jaccard index (``jaccard_rows``) element-wise on whole columns. A
rule's bounds and score do not depend on the rules stacked with it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dataset import bucket_edges as fit_bucket_edges
from .dataset import sorted_percentiles
from .errors import EmptyStatisticError, QuantrulesError
from . import rule_eval
from .rule_eval import Cells, applies
from .schema import LOWER, PAIRED, TWO_SIDED, UPPER, ConcreteRule
from .statistics import StatisticRegistry

INF = float("inf")


@dataclass(frozen=True)
class Interval:
    """Closed interval; one endpoint may be infinite for one-sided rules."""

    lo: float = -INF
    hi: float = INF

    def __post_init__(self):
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise ValueError("interval endpoints cannot be NaN")
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")
        if math.isinf(self.lo) and math.isinf(self.hi):
            raise ValueError("at least one endpoint must be finite")


@dataclass(frozen=True)
class BoundJob:
    """Shared parameters for learning bounds over a rule list.

    ``batch_size`` and ``delta`` override the per-rule values from the
    schema when set; normally the schema values apply.
    """

    n_train_batches: int = 200
    n_valid_batches: int = 50
    batch_size: int | None = None
    delta: float | None = None
    epsilon: float = 0.2
    train_seed: int = 0
    valid_seed: int = 1

    def __post_init__(self):
        if self.n_train_batches < 1 or self.n_valid_batches < 1:
            raise ValueError("batch counts must be >= 1")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if self.delta is not None and not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")


def s1_bucket_edges(rule, cells):
    """Equal-frequency edges of a paired rule's first statistic, fitted on the
    guard class's rows of ``cells``, a reader over every row of a dataset;
    None when no row has a value.

    The edges depend only on the rule's guard, s1 and s1_bucket_count.
    """
    vals, present = cells.statistic(rule.s1)
    vals = vals[applies(cells.guard(rule.guard), present)]
    return fit_bucket_edges(vals, rule.s1_bucket_count) if vals.size else None


def s1_bucket_interval(rule, edges):
    """Learned first-statistic interval for a paired rule's bucket.

    Bucket j covers (edge[j-1], edge[j]] with open ends at the extremes.
    """
    if edges is None:
        raise EmptyStatisticError(f"rule {rule.signature}: no rows for bucket edges")
    lo = -INF if rule.s1_bucket == 0 else edges[rule.s1_bucket - 1]
    hi = INF if rule.s1_bucket == rule.s1_bucket_count - 1 else edges[rule.s1_bucket]
    return float(lo), float(hi)


def _empty(signature):
    """The error of a rule with no statistic values on a batch set: it is
    skipped."""
    return EmptyStatisticError(f"rule {signature}: no statistic values collected")


def quantile_levels(delta, sided):
    """The percentile levels of a rule's (lower, upper) bounds, None on an
    open side, for a ``delta`` in [0, 1]."""
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta must lie in [0, 1], got {delta}")
    if sided == TWO_SIDED:
        return delta / 2.0, 1.0 - delta / 2.0
    if sided == LOWER:
        return delta, None
    if sided == UPPER:
        return None, 1.0 - delta
    raise ValueError(f"unknown sidedness {sided!r}")


def _levels(delta, sided):
    """``quantile_levels``, or the ValueError it raises."""
    try:
        return quantile_levels(delta, sided)
    except ValueError as exc:
        return exc


def interval_rows(rows, levels):
    """The bounds of each row of the row-sorted (R, n) matrix ``rows`` at the
    ``quantile_levels``, all in [0, 1], as (lo, hi) arrays: the row's
    percentile at each level, an infinite end on an open side. The bounds of
    a row holding NaN mean nothing; ``_select_rows`` raises on it."""
    return tuple(np.full(len(rows), end) if q is None else sorted_percentiles(rows, q)
                 for q, end in zip(levels, (-INF, INF)))


def _first(a, b, pick):
    """Python's min (``pick`` np.less) or max (np.greater) of a and b,
    element-wise: b where pick(b, a), else a, so a tie keeps a and its sign
    of zero."""
    return np.where(pick(b, a), b, a)


def jaccard_rows(t_lo, t_hi, v_lo, v_hi, range_lo, range_hi):
    """Interval Jaccard index, intersection length over union length, of each
    row's train interval [t_lo, t_hi] and valid interval [v_lo, v_hi], all
    1-D arrays. Infinite ends are first replaced by the statistic range
    [range_lo, range_hi], which must be finite, widened to the finite ends.
    The intersection is clamped at 0, so disjoint intervals score 0; where
    the union has no length, two identical intervals score 1, others 0. Min
    and max keep Python's tie rule: a tie of -0.0 and 0.0 keeps the first."""
    for end in (t_lo, t_hi, v_lo, v_hi):
        finite = np.isfinite(end)
        range_lo = np.where(finite & (end < range_lo), end, range_lo)
        range_hi = np.where(finite & (end > range_hi), end, range_hi)
    t_lo, v_lo = (np.where(np.isinf(lo), range_lo, lo) for lo in (t_lo, v_lo))
    t_hi, v_hi = (np.where(np.isinf(hi), range_hi, hi) for hi in (t_hi, v_hi))
    inter = _first(_first(t_hi, v_hi, np.less) - _first(t_lo, v_lo, np.greater), 0.0,
                   np.greater)
    union = _first(t_hi, v_hi, np.greater) - _first(t_lo, v_lo, np.less)
    same = (t_lo == v_lo) & (t_hi == v_hi)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(union <= 0.0, np.where(same, 1.0, 0.0), inter / union)


def _valid(lo, hi):
    """Where Interval(lo, hi) accepts the bounds."""
    return (lo <= hi) & (np.isfinite(lo) | np.isfinite(hi))


def _select_rows(t_vals, v_vals, levels):
    """Train bounds and Jaccard score of each row pair of the (R, n_t) train
    and (R, n_v) valid value matrices at the ``quantile_levels``, with the
    statistic range pooled over both rows.

    Returns (lo, hi, score, errors), where ``errors`` maps a row to the first
    ValueError its checks raise, in this order: a NaN value on the train,
    then the valid side, the Interval checks of the train and valid bounds
    and of the pooled range, and the range's finiteness.
    """
    t, v = np.sort(t_vals, axis=1), np.sort(v_vals, axis=1)
    nan = np.isnan(t[:, -1]), np.isnan(v[:, -1])  # NaN sorts last
    range_lo = _first(t[:, 0], v[:, 0], np.less)
    range_hi = _first(t[:, -1], v[:, -1], np.greater)
    with np.errstate(invalid="ignore", over="ignore"):
        bounds = interval_rows(t, levels), interval_rows(v, levels)
        score = jaccard_rows(*bounds[0], *bounds[1], range_lo, range_hi)
    usable = (~nan[0] & ~nan[1] & np.isfinite(range_lo) & np.isfinite(range_hi)
              & _valid(*bounds[0]) & _valid(*bounds[1]))
    errors = {}
    for k in np.flatnonzero(~usable):
        try:
            for side, (lo, hi) in enumerate(bounds):
                if nan[side][k]:
                    raise ValueError("percentile input contains NaN")
                Interval(float(lo[k]), float(hi[k]))
            Interval(float(range_lo[k]), float(range_hi[k]))
            raise ValueError("stat_range must be finite")
        except ValueError as exc:
            errors[int(k)] = exc
    return bounds[0][0], bounds[0][1], score, errors


def _select_block(rules, part, readers, at_each, s1_intervals, level, levels, outcome,
                  bounds):
    """Read and select the rules at positions ``part`` of ``rules``, a block
    of ``rule_eval.blocks``, with one ``Cells.block`` read on the train and
    one on the valid reader (``readers``).

    Each rule's outcome goes in by position: its train bounds and Jaccard
    score into the (3, n) array ``bounds``, or its error into ``outcome``,
    an EmptyStatisticError if it is skipped. The checks run per rule in this
    order: a train read error, no train value, a valid read error, no valid
    value, a ``quantile_levels`` error (rule k's levels, or their error, are
    ``levels[level[k]]``), then ``_select_rows``'. Rules with equal train
    and valid value counts and levels are selected as one matrix.
    """
    block = [rules[i] for i in part.tolist()]
    s1 = [s1_intervals.get(i) for i in part.tolist()]
    go = np.ones(len(block), dtype=bool)
    read = []
    for cells in readers:
        if not go.any():
            return
        values, masks, errors = cells.block(block, s1, at_each)
        count = masks.reshape(len(block), -1).sum(axis=1)
        for k in np.flatnonzero(go & (np.not_equal(errors, None) | (count == 0))):
            outcome[int(part[k])] = _empty(block[k].signature) if errors[k] is None \
                else errors[k]
        go &= np.equal(errors, None) & (count > 0)
        read.append((values, masks, count))
    for k in np.flatnonzero(go):
        if isinstance(levels[level[k]], ValueError):
            outcome[int(part[k])], go[k] = levels[level[k]], False
    if not go.any():
        return

    # one matrix per distinct (train count, valid count, levels)
    (t_values, t_masks, n_t), (v_values, v_masks, n_v) = read
    ks = np.flatnonzero(go)
    ks = ks[np.lexsort((level[ks], n_v[ks], n_t[ks]))]
    key = np.column_stack([n_t[ks], n_v[ks], level[ks]])
    cuts = np.flatnonzero((np.diff(key, axis=0) != 0).any(axis=1)) + 1
    for same in np.split(ks, cuts):
        k = same[0]
        lo, hi, score, errors = _select_rows(
            t_values[same][t_masks[same]].reshape(len(same), n_t[k]),
            v_values[same][v_masks[same]].reshape(len(same), n_v[k]), levels[level[k]])
        bounds[:, part[same]] = lo, hi, score
        outcome.update((int(part[same[j]]), exc) for j, exc in errors.items())


def learn_and_select(rules, train, valid, job, *, registry=None,
                     label_column=None, log=None):
    """Learn train bounds for each rule and keep the consistent ones.

    A rule passes when Jaccard(train bounds, valid bounds) > 1 - epsilon;
    its training-side bounds become the ConcreteRule. Rules whose statistic
    collapses to nothing are skipped and reported through ``log`` (a list
    receiving dict entries), never raised. Output preserves input order.

    The rules are read and selected in the blocks of ``rule_eval.blocks``
    (``_select_block``), and each rule's outcome is kept by position. Events
    and rules come out in input order. A read error, or an error of a rule's
    checks (a NaN value, an infinite bound), is raised at its own rule,
    after the events of the rules before it are logged; the rules after it
    have been read too. A selected rule records the batch size and delta its
    bounds were learned at, the job's where it sets them.
    """
    if registry is None:
        registry = StatisticRegistry.from_dataset(train)
    if label_column is None:
        label_column = train.label_column
    if not rules:
        return []
    # the readers and their kernel matrices are gone before the rules are made
    outcome, bounds, s1_intervals = _read_and_select(rules, train, valid, job, registry,
                                                     label_column)
    lo, hi, score = bounds.tolist()
    provenance = {"train": train.origin or "", "train_seed": job.train_seed,
                  "valid_seed": job.valid_seed}
    selected = []
    for i, rule in enumerate(rules):
        if i in outcome:
            if not isinstance(outcome[i], EmptyStatisticError):
                raise outcome[i]
            if log is not None:
                log.append({"event": "skipped", "signature": rule.signature,
                            "reason": str(outcome[i])})
            continue
        if score[i] <= 1.0 - job.epsilon:
            if log is not None:
                log.append({"event": "rejected", "signature": rule.signature,
                            "jaccard": score[i]})
            continue
        s1_interval = s1_intervals.get(i)
        delta = job.delta if job.delta is not None else rule.delta
        size = job.batch_size or rule.batch_size
        if (size, delta) != (rule.batch_size, rule.delta):  # a copy only where the job overrides
            rule = replace(rule, batch_size=size, delta=delta)
        selected.append(ConcreteRule(
            rule=rule, lo=lo[i], hi=hi[i], delta=delta,
            s1_lo=None if s1_interval is None else s1_interval[0],
            s1_hi=None if s1_interval is None else s1_interval[1],
            provenance=dict(provenance),
        ))
        if log is not None:
            log.append({"event": "selected", "signature": rule.signature, "jaccard": score[i]})
    return selected


def _read_and_select(rules, train, valid, job, registry, label_column):
    """(outcome, bounds, s1_intervals) of ``learn_and_select``: each rule's
    error by position, an EmptyStatisticError if it is skipped; the (3, n)
    train lo, train hi and Jaccard score of the others; and each paired
    rule's learned s1 interval by position."""
    everywhere = Cells(train, np.arange(train.n_rows), label_column, registry)
    s1_edges = {}  # (guard, s1, s1_bucket_count) -> edges, fitted once per key
    s1_intervals = {}  # paired rule position -> its learned s1 interval
    outcome = {}  # rule position -> the error raised at it, EmptyStatisticError if skipped
    for i, rule in enumerate(rules):
        if rule.kind == PAIRED:
            try:
                key = (rule.guard, rule.s1, rule.s1_bucket_count)
                if key not in s1_edges:
                    s1_edges[key] = s1_bucket_edges(rule, everywhere)
                s1_intervals[i] = s1_bucket_interval(rule, s1_edges[key])
            except (QuantrulesError, ValueError) as exc:
                outcome[i] = exc
    level_of = {}  # (delta, sidedness) -> index into levels
    level = np.array([level_of.setdefault(
        (job.delta if job.delta is not None else rule.delta, rule.sided), len(level_of))
        for rule in rules])
    levels = [_levels(*key) for key in level_of]

    bounds = np.empty((3, len(rules)))  # train lo, train hi, Jaccard score
    sets = ((train, job.n_train_batches, job.train_seed),
            (valid, job.n_valid_batches, job.valid_seed))
    for part, readers, at_each in rule_eval.blocks(
            rules, outcome, lambda rule, at_each: job.batch_size or rule.batch_size, sets,
            label_column, registry):
        _select_block(rules, part, readers, at_each, s1_intervals, level[part], levels,
                      outcome, bounds)
    return outcome, bounds, s1_intervals
