"""Quantile bound learning and train/validation consistency selection.

For each abstract rule, statistics are collected over seeded minibatches of
the training and validation sets, quantile bounds are taken on each side,
and the rule is kept only when the two bound intervals overlap strongly
under the interval Jaccard index. Every rule's values are read on the
reader of the rule's batch size (``rule_eval.batch_sets``): a logic rule's
from the count kernel's matrices, which ``_select_logic`` reads for all
logic rules of a size at once, and any other rule's by
``collect_statistics`` through ``rule_eval.Cells.values``.

``learn_and_select`` selects a whole rule list over arrays: it stacks the
values of the rules with equal value counts and quantile levels into
(R, n) matrices, one per batch set, sorts each row, and takes the
linear-interpolation percentiles (``interval_rows``) and the interval
Jaccard index (``jaccard_rows``) element-wise on whole columns. A rule's
bounds and score do not depend on the rules stacked with it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dataset import bucket_edges as fit_bucket_edges
from .dataset import sorted_percentiles
from .errors import EmptyStatisticError, QuantrulesError
from .rule_eval import Cells, applies, batch_sets, logic_tables
from .schema import LOGIC, LOWER, PAIRED, TWO_SIDED, UPPER, ConcreteRule
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


def collect_statistics(rule, cells, s1_interval=None):
    """A rule's statistic values over the minibatches ``cells`` reads, a
    (count, size) row matrix: per-sample values pooled across batches in
    row-major order, or one value per batch with a usable row, as
    ``Cells.values`` reads the rule."""
    values, mask = cells.values(rule, s1_interval)
    return values[mask]


def _empty(signature):
    """The reason a rule with no statistic values on a batch set is skipped."""
    return f"rule {signature}: no statistic values collected"


def _collect(signature, per_set):
    """One rule's statistic values of each batch set, drawn from ``per_set``
    one set at a time, so a later set is not evaluated after an empty one.

    Raises EmptyStatisticError naming the rule's ``signature`` when a set
    yields no value.
    """
    collected = []
    for values in per_set:
        if values.size == 0:
            raise EmptyStatisticError(_empty(signature))
        collected.append(values)
    return collected


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


# value cells per matrix of stacked rules, 256 KiB of float64, however many
# rules share a shape. Matrices of 1 MiB raised the peak RSS of a process that
# mines and evaluates cardio20k repeatedly by 1.9 MB (see CHANGES.md).
_CHUNK_CELLS = 2**15


class _Selection:
    """Bounds and Jaccard scores of rules computed over arrays: rules added
    one at a time with equal counts of train and valid values and equal
    quantile levels are stacked into (R, n) matrices, computed before they
    would pass _CHUNK_CELLS cells; ``store`` takes such matrices whole.
    """

    def __init__(self, n_rules):
        self.lo, self.hi, self.score = np.empty(n_rules), np.empty(n_rules), np.empty(n_rules)
        self.errors = {}  # rule position -> the ValueError raised at it
        self.values = {}  # (n_t, n_v, levels) -> (positions, train values, valid values)
        self.held = 0

    def add(self, i, t_vals, v_vals, levels):
        if self.held + t_vals.size + v_vals.size > _CHUNK_CELLS:
            self.compute()
        positions, ts, vs = self.values.setdefault((t_vals.size, v_vals.size, levels),
                                                   ([], [], []))
        positions.append(i)
        ts.append(t_vals)
        vs.append(v_vals)
        self.held += t_vals.size + v_vals.size

    def compute(self):
        """``store`` the rules held."""
        for (_, _, levels), (positions, ts, vs) in self.values.items():
            self.store(positions, np.stack(ts), np.stack(vs), levels)
        self.values, self.held = {}, 0

    def store(self, positions, t_vals, v_vals, levels):
        """Store the train bounds and Jaccard score of the rule at each of
        ``positions``, whose values are the rows of the (R, n_t) train and
        (R, n_v) valid matrices, or the error it raises, at its position."""
        lo, hi, score, errors = _select_rows(t_vals, v_vals, levels)
        self.lo[positions], self.hi[positions], self.score[positions] = lo, hi, score
        self.errors.update((int(positions[k]), exc) for k, exc in errors.items())


def _select_logic(rules, positions, readers, delta_of, selection, skipped, failed):
    """Read and select the logic rules at ``positions`` of ``rules``, all of
    one batch size, as ``learn_and_select`` would one at a time, from the
    count kernel's matrices of the train and the valid reader (``readers``).

    Each rule is skipped (its reason into ``skipped``), fails (its error into
    ``failed``) or is stored in ``selection``, by position: a train read
    error, then no train value, then a valid read error, then no valid
    value, then a ``quantile_levels`` error. A reader is made at the first
    rule that reaches it, and an error in making it fails that rule. Rules
    with equal train and valid value counts and levels are stored as blocks
    of at most _CHUNK_CELLS batch cells.
    """
    block = [rules[i] for i in positions]
    positions = np.asarray(positions)
    go = np.ones(len(block), dtype=bool)
    scores = []
    for reader in readers:
        if not go.any():
            return
        try:
            cells = reader(block[go.argmax()])
        except (QuantrulesError, ValueError) as exc:
            failed[int(positions[go.argmax()])] = exc
            return
        value, valued, at, errors = cells.logic_scores(block)
        bad = go & np.not_equal(errors, None)
        failed.update((int(positions[k]), errors[k]) for k in np.flatnonzero(bad))
        count = valued.sum(axis=1)[at]
        empty = go & ~bad & (count == 0)
        skipped.update((int(positions[k]), _empty(block[k].signature))
                       for k in np.flatnonzero(empty))
        go &= ~bad & ~empty
        scores.append((value, valued, at, count))

    # the levels of each distinct (delta, sidedness), or the error they raise
    levels, level_of = [], {}
    level = np.zeros(len(block), dtype=int)
    for k in np.flatnonzero(go):
        key = (delta_of(block[k]), block[k].sided)
        if key not in level_of:
            try:
                levels.append(quantile_levels(*key))
                level_of[key] = len(levels) - 1
            except ValueError as exc:
                level_of[key] = exc
        if isinstance(level_of[key], ValueError):
            failed[int(positions[k])], go[k] = level_of[key], False
        else:
            level[k] = level_of[key]

    # blocks of equal (train count, valid count, levels), in chunks of rows
    (t_value, t_valued, t_at, n_t), (v_value, v_valued, v_at, n_v) = scores
    ks = np.flatnonzero(go)
    ks = ks[np.lexsort((level[ks], n_v[ks], n_t[ks]))]
    key = np.column_stack([n_t[ks], n_v[ks], level[ks]])
    cuts = np.flatnonzero((np.diff(key, axis=0) != 0).any(axis=1)) + 1
    step = max(1, _CHUNK_CELLS // (t_value.shape[1] + v_value.shape[1]))
    for group in np.split(ks, cuts):
        for part in (group[s:s + step] for s in range(0, len(group), step)):
            t, v, k = t_at[part], v_at[part], part[0]
            selection.store(positions[part],
                            t_value[t][t_valued[t]].reshape(len(part), n_t[k]),
                            v_value[v][v_valued[v]].reshape(len(part), n_v[k]),
                            levels[level[k]])


def learn_and_select(rules, train, valid, job, *, registry=None,
                     label_column=None, log=None):
    """Learn train bounds for each rule and keep the consistent ones.

    A rule passes when Jaccard(train bounds, valid bounds) > 1 - epsilon;
    its training-side bounds become the ConcreteRule. Rules whose statistic
    collapses to nothing are skipped and reported through ``log`` (a list
    receiving dict entries), never raised. Output preserves input order.

    A rule's values are read through the readers of its batch size. Each
    other rule is read on its own, through ``collect_statistics``; the logic
    rules of a size are read and selected together, at the first of them,
    from the matrices of the count kernel, which each reader runs once
    (``_select_logic``). Bounds and scores are computed over arrays
    (``_Selection``). Events and rules come out in input order.
    A read error, or an error of a rule's checks (a NaN value, an infinite
    bound), is raised at its own rule, after the events of the rules before
    it are logged. A selected rule records the batch size and delta its
    bounds were learned at, the job's where it sets them.
    """
    if registry is None:
        registry = StatisticRegistry.from_dataset(train)
    if label_column is None:
        label_column = train.label_column
    if not rules:
        return []
    size_of = lambda rule: job.batch_size or rule.batch_size
    tables = logic_tables(rules, size_of)  # shared by train and valid
    readers = [batch_sets(dataset, tables, size_of, count, seed, label_column, registry)
               for dataset, count, seed in ((train, job.n_train_batches, job.train_seed),
                                            (valid, job.n_valid_batches, job.valid_seed))]
    provenance = {"train": train.origin or "", "train_seed": job.train_seed,
                  "valid_seed": job.valid_seed}
    everywhere = Cells(train, np.arange(train.n_rows), label_column, registry)
    delta_of = lambda rule: job.delta if job.delta is not None else rule.delta
    logic = {}  # batch size -> positions of its logic rules, until they are selected
    for i, rule in enumerate(rules):
        if rule.kind == LOGIC:
            logic.setdefault(size_of(rule), []).append(i)
    s1_edges = {}  # (guard, s1, s1_bucket_count) -> edges, fitted once per key
    s1_intervals = {}  # paired rule position -> its learned s1 interval
    skipped = {}  # rule position -> reason
    failed = {}  # logic rule position -> the error raised at it
    selection = _Selection(len(rules))
    read, error = len(rules), None
    for i, rule in enumerate(rules):
        try:
            if rule.kind == LOGIC:  # with all of its size, at the first
                if size_of(rule) in logic:
                    _select_logic(rules, logic.pop(size_of(rule)), readers, delta_of,
                                  selection, skipped, failed)
                if i in failed:
                    raise failed[i]
                continue
            s1_interval = None
            if rule.kind == PAIRED:
                key = (rule.guard, rule.s1, rule.s1_bucket_count)
                if key not in s1_edges:
                    s1_edges[key] = s1_bucket_edges(rule, everywhere)
                s1_interval = s1_intervals[i] = s1_bucket_interval(rule, s1_edges[key])
            t_vals, v_vals = _collect(rule.signature, (
                collect_statistics(rule, reader(rule), s1_interval) for reader in readers))
            selection.add(i, t_vals, v_vals, quantile_levels(delta_of(rule), rule.sided))
        except EmptyStatisticError as exc:
            skipped[i] = str(exc)
        except (QuantrulesError, ValueError) as exc:  # raised after the earlier rules' events
            read, error = i, exc
            break
    selection.compute()
    lo, hi, score = selection.lo.tolist(), selection.hi.tolist(), selection.score.tolist()

    selected = []
    for i in range(read):
        rule = rules[i]
        if i in skipped:
            if log is not None:
                log.append({"event": "skipped", "signature": rule.signature,
                            "reason": skipped[i]})
            continue
        if i in selection.errors:
            raise selection.errors[i]
        if score[i] <= 1.0 - job.epsilon:
            if log is not None:
                log.append({"event": "rejected", "signature": rule.signature,
                            "jaccard": score[i]})
            continue
        s1_interval = s1_intervals.get(i)
        delta = delta_of(rule)
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
    if error is not None:
        raise error
    return selected
