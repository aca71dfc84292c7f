"""Quantile bound learning and train/validation consistency selection.

For each abstract rule, statistics are collected over seeded minibatches of
the training and validation sets, quantile bounds are taken on each side,
and the rule is kept only when the two bound intervals overlap strongly
under the interval Jaccard index.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import schema as schema_mod
from .dataset import bucket_edges as fit_bucket_edges
from .dataset import checked_rows, percentile, sample_minibatches
from .errors import EmptyStatisticError
from .rule_eval import Cells, applies, batch_values, score_logic_rules
from .schema import LOGIC, LOWER, PAIRED, TWO_SIDED, UPPER, ConcreteRule
from .statistics import PER_SAMPLE, StatisticRegistry

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


def interval_from_values(values, delta, sided) -> Interval:
    if sided == TWO_SIDED:
        return Interval(percentile(values, delta / 2.0),
                        percentile(values, 1.0 - delta / 2.0))
    if sided == LOWER:
        return Interval(percentile(values, delta), INF)
    if sided == UPPER:
        return Interval(-INF, percentile(values, 1.0 - delta))
    raise ValueError(f"unknown sidedness {sided!r}")


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
        raise EmptyStatisticError(
            f"rule {schema_mod.rule_signature(rule)}: no rows for bucket edges")
    lo = -INF if rule.s1_bucket == 0 else edges[rule.s1_bucket - 1]
    hi = INF if rule.s1_bucket == rule.s1_bucket_count - 1 else edges[rule.s1_bucket]
    return float(lo), float(hi)


def collect_statistics(rule, cells, s1_interval=None):
    """A rule's statistic values over the minibatches ``cells`` reads, a
    (count, size) row matrix: per-sample values pooled across batches in
    row-major order, or one value per batch with a usable row, matching the
    rule's structure. A logic rule is scored by the count kernel alone."""
    if rule.kind == LOGIC:
        return score_logic_rules([rule], cells.dataset, cells.rows,
                                 cells.label_column).collected(0)
    stat, values, mask = cells.applicable(rule, s1_interval)
    if stat.arity == PER_SAMPLE:
        return values[mask]
    value, valued = batch_values(stat, values, mask)
    return value[valued]


def _collect(rule, per_set):
    """One rule's statistic values of each batch set, drawn from ``per_set``
    one set at a time, so a later set is not evaluated after an empty one.

    Raises EmptyStatisticError naming the rule when a set yields no value.
    """
    collected = []
    for values in per_set:
        if values.size == 0:
            raise EmptyStatisticError(
                f"rule {schema_mod.rule_signature(rule)}: no statistic values collected")
        collected.append(values)
    return collected


def compute_bounds(rule, dataset, rows, delta=None, sided=None, *, registry=None,
                   label_column=None, s1_interval=None) -> Interval:
    """Quantile bounds for one rule over pre-sampled minibatches of ``dataset``.

    ``rows`` is a (count, size) matrix of row indices, one minibatch per
    matrix row, as ``sample_minibatches`` draws them. delta and sidedness
    default to the rule's own schema values. A paired rule's s1 interval is
    learned on ``dataset`` unless given. Raises EmptyStatisticError naming
    the rule when no statistic value survives.
    """
    rows = checked_rows(dataset, rows)
    if registry is None:
        registry = StatisticRegistry.from_dataset(dataset)
    if label_column is None:
        label_column = dataset.label_column
    if rule.kind == PAIRED and s1_interval is None:
        everywhere = Cells(dataset, np.arange(dataset.n_rows), label_column, registry)
        s1_interval = s1_bucket_interval(rule, s1_bucket_edges(rule, everywhere))
    cells = Cells(dataset, rows, label_column, registry)
    (values,) = _collect(rule, [collect_statistics(rule, cells, s1_interval)])
    return interval_from_values(values, rule.delta if delta is None else delta,
                                rule.sided if sided is None else sided)


def jaccard(train: Interval, valid: Interval, stat_range: Interval) -> float:
    """Interval Jaccard index: intersection length over union length.

    Infinite endpoints are first replaced by the statistic's observed
    range. The intersection is clamped at 0, so disjoint intervals score 0;
    two identical point intervals score 1.
    """
    if not (math.isfinite(stat_range.lo) and math.isfinite(stat_range.hi)):
        raise ValueError("stat_range must be finite")
    finite = [v for v in (train.lo, train.hi, valid.lo, valid.hi) if math.isfinite(v)]
    range_lo = min([stat_range.lo] + finite)
    range_hi = max([stat_range.hi] + finite)

    def resolve(iv):
        lo = range_lo if math.isinf(iv.lo) else iv.lo
        hi = range_hi if math.isinf(iv.hi) else iv.hi
        return lo, hi

    t_lo, t_hi = resolve(train)
    v_lo, v_hi = resolve(valid)
    inter = max(min(t_hi, v_hi) - max(t_lo, v_lo), 0.0)
    union = max(t_hi, v_hi) - min(t_lo, v_lo)
    if union <= 0.0:
        return 1.0 if (t_lo, t_hi) == (v_lo, v_hi) else 0.0
    return inter / union


def _group_batches(rules, train, valid, job, label_column, registry):
    """Per batch size, the readers of the train and valid batch sets."""
    sizes = {job.batch_size or rule.batch_size for rule in rules}
    groups = {}
    for size in sizes:
        groups[size] = tuple(
            Cells(dataset, sample_minibatches(dataset, size, count, seed),
                  label_column, registry)
            for dataset, count, seed in ((train, job.n_train_batches, job.train_seed),
                                         (valid, job.n_valid_batches, job.valid_seed)))
    return groups


def learn_and_select(rules, train, valid, job, *, registry=None,
                     label_column=None, log=None):
    """Learn train bounds for each rule and keep the consistent ones.

    A rule passes when Jaccard(train bounds, valid bounds) > 1 - epsilon;
    its training-side bounds become the ConcreteRule. Rules whose statistic
    collapses to nothing are skipped and reported through ``log`` (a list
    receiving dict entries), never raised. Output preserves input order.
    """
    if registry is None:
        registry = StatisticRegistry.from_dataset(train)
    if label_column is None:
        label_column = train.label_column
    if not rules:
        return []
    groups = _group_batches(rules, train, valid, job, label_column, registry)
    provenance = {"train": train.origin or "", "train_seed": job.train_seed,
                  "valid_seed": job.valid_seed}

    # every logic rule of a batch size, scored at once on each of its sets
    logic = {}  # rule position -> (LogicScores of each set, row in them)
    for size, batch_sets in groups.items():
        positions = [i for i, rule in enumerate(rules)
                     if rule.kind == LOGIC and (job.batch_size or rule.batch_size) == size]
        if positions:
            scores = [score_logic_rules([rules[i] for i in positions], cells.dataset,
                                        cells.rows, label_column)
                      for cells in batch_sets]
            logic.update((i, (scores, r)) for r, i in enumerate(positions))

    everywhere = Cells(train, np.arange(train.n_rows), label_column, registry)
    s1_edges = {}  # (guard, s1, s1_bucket_count) -> edges, fitted once per key
    selected = []
    for i, rule in enumerate(rules):
        delta = job.delta if job.delta is not None else rule.delta
        try:
            s1_interval = None
            if rule.kind == PAIRED:
                key = (rule.guard, rule.s1, rule.s1_bucket_count)
                if key not in s1_edges:
                    s1_edges[key] = s1_bucket_edges(rule, everywhere)
                s1_interval = s1_bucket_interval(rule, s1_edges[key])
            if i in logic:
                scores, r = logic[i]
                per_set = (s.collected(r) for s in scores)
            else:
                per_set = (collect_statistics(rule, cells, s1_interval)
                           for cells in groups[job.batch_size or rule.batch_size])
            t_vals, v_vals = _collect(rule, per_set)
        except EmptyStatisticError as exc:
            if log is not None:
                log.append({"event": "skipped", "signature": schema_mod.rule_signature(rule),
                            "reason": str(exc)})
            continue
        t_int = interval_from_values(t_vals, delta, rule.sided)
        v_int = interval_from_values(v_vals, delta, rule.sided)
        pooled = np.concatenate([t_vals, v_vals])
        stat_range = Interval(float(pooled.min()), float(pooled.max()))
        score = jaccard(t_int, v_int, stat_range)
        if score <= 1.0 - job.epsilon:
            if log is not None:
                log.append({"event": "rejected", "signature": schema_mod.rule_signature(rule),
                            "jaccard": score})
            continue
        concrete = ConcreteRule(
            rule=rule, lo=t_int.lo, hi=t_int.hi, delta=delta,
            s1_lo=None if s1_interval is None else s1_interval[0],
            s1_hi=None if s1_interval is None else s1_interval[1],
            provenance=dict(provenance),
        )
        selected.append(concrete)
        if log is not None:
            log.append({"event": "selected", "signature": concrete.signature,
                        "jaccard": score})
    return selected
