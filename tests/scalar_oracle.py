"""Per-batch and per-rule scalar code, kept as the reference for the tests.

The first part is the rule evaluation that ``rule_eval`` replaced when
minibatches became one (count, size) row matrix: every function here takes
one minibatch at a time, a 1-d row index array, reads each rule's cells on
its own, and loops over batches in Python. Cells are read through the
package's leaf readers (``match_class``, ``sample_values_aligned``,
``literal_cells``), which act element-wise on a 1-d batch.

The second part is the adaptation loss that ``adaptation.RuleGroups``
replaced: one ``evaluate_batch`` call, one hinge and one surrogate F1 per
rule, with the losses and d loss / d probs summed rule by rule. It reads
the cells of a batch table, ``batch_table``: the batch rows of the table
with the model's output columns appended.

The third part is bound learning and selection for one rule at a time,
which ``bounds.learn_and_select`` and ``dataset.bucket_edges`` replaced
with sorted-row array passes: ``percentile`` sorts one rule's values on
each call, ``interval_from_values`` and ``jaccard`` act on one rule's
values and intervals, and ``compute_bounds`` reads one rule's values with
a reader of its own. Then comes ``report_to_obj``, the report.json
document as Python objects, which ``violations.report_to_json`` writes
without building the per-sample entries.

Last is the storage that bool columns replaced: ``FloatTable`` holds every
column but a label column as float64, with bucket indicators built as an
(n, count) 0/1 float matrix (``float_bucket_indicators``), and the
``float_*`` readers read literals, per-sample values, mean/std summaries
and logic-rule F1 from it as the package read them then.
"""
import math
from dataclasses import dataclass

import numpy as np

from quantrules.bounds import Interval, quantile_levels, s1_bucket_edges, s1_bucket_interval
from quantrules.dataset import BOOLEAN, LABEL, checked_rows
from quantrules.errors import (DivergenceError, EmptyStatisticError, ResolutionError,
                               TypeMismatchError)
from quantrules.rule_eval import Cells
from quantrules.schema import LOGIC, PAIRED, rule_signature
from quantrules.statistics import (PER_SAMPLE, Statistic, StatisticRegistry,
                                   match_class, sample_values_aligned, soften_scores)
from quantrules.violations import REPORT_FORMAT_VERSION


def exact_f1(antecedent, consequent):
    """F1 of hard 0/1 vectors; 0 on a zero denominator, None when empty."""
    if antecedent.size == 0:
        return None
    tp = float((antecedent * consequent).sum())
    denom = float(antecedent.sum() + consequent.sum())  # == 2tp + fp + fn
    if denom == 0.0:
        return 0.0
    return 2.0 * tp / denom


def sample_values(stat, dataset, rows):
    """Per-sample values over ``rows`` plus the row ids that were usable."""
    rows = np.asarray(rows, dtype=int)
    vals, valid = sample_values_aligned(stat, dataset, rows)
    return vals[valid], rows[valid]


def batch_value(stat, dataset, rows):
    """Scalar minibatch summary, or None when no row was usable."""
    base = Statistic(stat.column, PER_SAMPLE, "column", column=stat.column)
    vals, _ = sample_values(base, dataset, rows)
    if vals.size == 0:
        return None
    return float(vals.mean()) if stat.summary == "mean" else float(vals.std())


def formula_parts(formula, dataset, rows, label_column):
    """Hard antecedent and consequent of a logic rule on one batch, and the
    usable mask: rows missing a literal or label cell are unusable."""
    antecedent = np.ones(len(rows))
    usable = np.ones(len(rows), dtype=bool)
    for lit in formula.literals:
        truth, present = float_literal_cells(lit, dataset, rows)
        usable &= present
        antecedent *= truth
    usable &= ~dataset.missing(label_column)[rows]
    consequent = match_class(dataset, rows, label_column, formula.consequent)
    return antecedent, consequent, usable


@dataclass(frozen=True)
class BatchValues:
    per_sample: bool
    mask: np.ndarray
    samples: np.ndarray | None = None
    value: float | None = None


def evaluate_batch(rule, dataset, rows, label_column, registry, s1_interval=None):
    """A rule on one batch: the applicable mask, per-sample values or the
    antecedent truth, and the minibatch value (None when no row is usable)."""
    rows = np.asarray(rows, dtype=int)
    if rule.kind == LOGIC:
        antecedent, consequent, usable = formula_parts(rule, dataset, rows, label_column)
        return BatchValues(False, usable, antecedent,
                           exact_f1(antecedent[usable], consequent[usable]))
    stat = registry.resolve(rule.statistic)
    if rule.guard is None:
        mask = np.ones(len(rows), dtype=bool)
    else:
        mask = match_class(dataset, rows, label_column, rule.guard)
    if rule.kind == PAIRED:
        s1, present = sample_values_aligned(registry.resolve(rule.s1), dataset, rows)
        mask = mask & present & (s1 > s1_interval[0]) & (s1 <= s1_interval[1])
    if stat.arity == PER_SAMPLE:
        samples, valid = sample_values_aligned(stat, dataset, rows)
        return BatchValues(True, mask & valid, samples)
    value = batch_value(stat, dataset, rows[mask]) if mask.any() else None
    return BatchValues(False, mask, value=value)


def collect_statistics(rule, dataset, batches, registry, label_column, s1_interval=None):
    """Per-sample values pooled over the concatenated batches, or one value
    per batch with a usable row."""
    stat = None if rule.kind == LOGIC else registry.resolve(rule.statistic)
    if stat is not None and stat.arity == PER_SAMPLE:
        rows = np.concatenate(list(batches))
        ev = evaluate_batch(rule, dataset, rows, label_column, registry, s1_interval)
        return ev.samples[ev.mask]
    values = [evaluate_batch(rule, dataset, rows, label_column, registry, s1_interval).value
              for rows in batches]
    return np.asarray([v for v in values if v is not None], dtype=float)


@dataclass(frozen=True)
class CheckResult:
    evaluated: bool
    violated: bool = False


def check_rule(crule, dataset, rows, *, registry=None, label_column=None) -> CheckResult:
    """Check one concrete rule on one batch. Per-sample statistics violate if
    any applicable row falls outside the bounds; a batch with no applicable
    row is not evaluated."""
    if registry is None:
        registry = StatisticRegistry.from_dataset(dataset)
    if label_column is None:
        label_column = dataset.label_column
    ev = evaluate_batch(crule.rule, dataset, rows, label_column, registry,
                        (crule.s1_lo, crule.s1_hi))
    if ev.per_sample:
        if not ev.mask.any():
            return CheckResult(evaluated=False)
        outside = ev.mask & ((ev.samples < crule.lo) | (ev.samples > crule.hi))
        return CheckResult(evaluated=True, violated=bool(outside.any()))
    if ev.value is None:
        return CheckResult(evaluated=False)
    inside = crule.lo <= ev.value <= crule.hi
    return CheckResult(evaluated=True, violated=not inside)


def scan_sample_rule(crule, dataset, registry, label_column, sample_counts):
    ev = evaluate_batch(crule.rule, dataset, np.arange(dataset.n_rows), label_column,
                        registry, (crule.s1_lo, crule.s1_hi))
    outside = ev.mask & ((ev.samples < crule.lo) | (ev.samples > crule.hi))
    sample_counts[outside] += 1
    return int(outside.sum()), int(ev.mask.sum())


def scan_batch_rule(crule, dataset, batches, registry, label_column, sample_counts):
    violations = 0
    evaluations = 0
    for rows in batches:
        result = check_rule(crule, dataset, rows, registry=registry,
                            label_column=label_column)
        if not result.evaluated:
            continue
        evaluations += rows.size
        if result.violated:
            violations += rows.size
            np.add.at(sample_counts, rows, 1)
    return violations, evaluations


def evaluate_counts(rules, test, batches, registry, label_column):
    """Per-rule (signature, violations, evaluations) and per-sample counts of
    ``violations.evaluate``, with the minibatch rules checked on ``batches``."""
    sample_counts = np.zeros(test.n_rows, dtype=int)
    per_rule = []
    for crule in rules:
        rule = crule.rule
        try:
            if rule.kind != LOGIC and registry.resolve(rule.statistic).arity == PER_SAMPLE:
                v, n = scan_sample_rule(crule, test, registry, label_column, sample_counts)
            else:
                v, n = scan_batch_rule(crule, test, batches, registry, label_column,
                                       sample_counts)
        except (ResolutionError, EmptyStatisticError):
            v, n = 0, 0
        per_rule.append((crule.signature, v, n))
    return per_rule, sample_counts.tolist()


# -- the per-rule adaptation loss ------------------------------------------------

LOSS_CLIP = 1.0


def hinge(values, lo, hi, clip=LOSS_CLIP):
    """Clipped violation losses and slopes d loss / d value, element-wise,
    for scalar bounds."""
    v = np.asarray(values, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # inside positions are discarded
        if math.isinf(hi):
            raw, slope = lo - v, np.full(v.shape, -1.0)
        elif math.isinf(lo):
            raw, slope = v - hi, np.ones(v.shape)
        else:
            raw, slope = (lo - v) * (hi - v), 2.0 * v - lo - hi
    inside = (lo <= v) & (v <= hi)
    plateau = ~(raw < clip)  # NaN is past the clip
    return (np.where(inside, 0.0, np.where(plateau, clip, raw)),
            np.where(inside | plateau, 0.0, slope))


def surrogate_f1_grad(antecedent, scores, temperature=1.0):
    """Differentiable F1 with softened consequent scores, and its gradient
    with respect to the raw scores.

    The hard confusion counts are relaxed through soften_scores, keeping
    tp = sum(a * c) and denominator sum(a) + sum(c). Converges to the exact
    F1 of the thresholded scores as temperature -> 0.
    """
    a = np.asarray(antecedent, dtype=float)
    s = np.asarray(scores, dtype=float)
    c = soften_scores(s, temperature)
    tp = float((a * c).sum())
    denom = float(a.sum() + c.sum())
    if denom == 0.0:
        return 0.0, np.zeros_like(s)
    value = 2.0 * tp / denom
    dvalue_dc = (2.0 * a - value) / denom
    # chain through c = sigmoid(logit(s)/T); zero at saturated scores and
    # where c (1 - c) is 0 (a subnormal score at T < 1)
    interior = (s > 0.0) & (s < 1.0) & (c * (1.0 - c) != 0.0)
    dc_ds = np.zeros_like(s)
    dc_ds[interior] = (c[interior] * (1.0 - c[interior])
                       / (temperature * s[interior] * (1.0 - s[interior])))
    return value, dvalue_dc * dc_ds


def _check_finite(value, rule):
    if not math.isfinite(value):
        raise DivergenceError(
            f"rule {rule_signature(rule)}: non-finite statistic value {value}")


def batch_table(table, out):
    """The rows of ``table`` that the batch output ``out`` read, with the
    model's output columns (``score_<class>`` and ``pred``) appended."""
    return table.take(out.rows).with_columns(out.model.output_columns(out.probs))


def rule_loss_grad(crule, batch, out, temperature, registry):
    """Loss of one rule on the batch table ``batch`` of the batch output
    ``out``, d loss / d probs (None when flat), and the rule's
    member-attributed violation count on the predicted labels."""
    rule = crule.rule
    ev = evaluate_batch(rule, batch, np.arange(batch.n_rows), "pred", registry,
                        (crule.s1_lo, crule.s1_hi))
    if ev.per_sample:
        violations = np.count_nonzero(
            ev.mask & ((ev.samples < crule.lo) | (ev.samples > crule.hi)))
        if not ev.mask.any():
            return 0.0, None, violations
    elif ev.value is None:
        return 0.0, None, 0
    else:
        violations = 0 if crule.lo <= ev.value <= crule.hi else batch.n_rows

    if rule.kind == LOGIC:
        j = out.model.class_names.index(rule.consequent)
        value, dvalue = surrogate_f1_grad(ev.samples[ev.mask], out.probs[ev.mask, j],
                                          temperature)
        _check_finite(value, rule)
    else:
        # j is None for a statistic of fixed data columns: a loss but no gradient
        stat = registry.resolve(rule.statistic)
        j = {out.model.score_column(c): j
             for j, c in enumerate(out.model.class_names)}.get(stat.column)
        if ev.per_sample:
            losses, slopes = hinge(ev.samples[ev.mask], crule.lo, crule.hi)
            if j is None or not slopes.any():
                return float(losses.mean()), None, violations
            dprobs = np.zeros_like(out.probs)
            dprobs[ev.mask, j] = slopes / slopes.size
            return float(losses.mean()), dprobs, violations
        value = float(ev.value)
        _check_finite(value, rule)
        if j is not None:
            vals = out.probs[ev.mask, j]
            n = vals.size
            if stat.summary == "mean":
                dvalue = np.full(n, 1.0 / n)
            else:  # std
                dvalue = np.zeros(n) if value == 0.0 else (vals - vals.mean()) / (n * value)

    loss, slope = hinge(value, crule.lo, crule.hi)
    if j is None or slope == 0.0:
        return float(loss), None, violations
    dprobs = np.zeros_like(out.probs)
    dprobs[ev.mask, j] = slope * dvalue
    return float(loss), dprobs, violations


def total_loss_grad(rules, table, out, temperature=1.0):
    """(mean loss, d loss / d scale, d loss / d shift, batch violations) over
    all rules on the batch output ``out`` of ``table``, one ``rule_loss_grad``
    per rule."""
    if not rules:
        raise ValueError("total_loss_grad needs at least one rule")
    batch = batch_table(table, out)
    registry = StatisticRegistry.from_dataset(batch)
    total = 0.0
    violations = 0
    dprobs_sum = None
    for crule in rules:
        loss, dprobs, count = rule_loss_grad(crule, batch, out, temperature, registry)
        total += loss
        violations += count
        if dprobs is not None:
            dprobs_sum = dprobs if dprobs_sum is None else dprobs_sum + dprobs
    n = len(rules)
    if dprobs_sum is None:
        d = len(out.model.feature_names)
        return total / n, np.zeros(d), np.zeros(d), violations
    dscale, dshift = out.model.backward(out.cache, dprobs_sum / n)
    return total / n, dscale, dshift, violations


# -- single-rule bound learning and selection ------------------------------------

INF = float("inf")


def percentile(values, q) -> float:
    """Linear-interpolation percentile of a value list.

    Sorts ascending and evaluates at rank h = q*(n-1): the value is
    v[floor(h)] + (h - floor(h)) * (v[floor(h)+1] - v[floor(h)]), so q=0
    gives the minimum and q=1 the maximum.
    """
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("percentile of an empty value list")
    if np.isnan(v).any():
        raise ValueError("percentile input contains NaN")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1], got {q}")
    v = np.sort(v)
    h = q * (v.size - 1)
    i = int(math.floor(h))
    if i + 1 >= v.size:
        return float(v[-1])
    return float(v[i] + (h - i) * (v[i + 1] - v[i]))


def interval_from_values(values, delta, sided) -> Interval:
    return Interval(*(end if q is None else percentile(values, q)
                      for q, end in zip(quantile_levels(delta, sided), (-INF, INF))))


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


def compute_bounds(rule, dataset, rows, delta=None, sided=None, *, registry=None,
                   label_column=None, s1_interval=None) -> Interval:
    """Quantile bounds for one rule over pre-sampled minibatches of ``dataset``.

    ``rows`` is a (count, size) matrix of row indices, one minibatch per
    matrix row, as ``sample_minibatches`` draws them. delta and sidedness
    default to the rule's own schema values. A paired rule's s1 interval is
    learned on ``dataset`` unless given. The rule's values are read by a
    reader made with the rule alone. Raises EmptyStatisticError naming the
    rule when no statistic value survives.
    """
    rows = checked_rows(dataset, rows)
    if registry is None:
        registry = StatisticRegistry.from_dataset(dataset)
    if label_column is None:
        label_column = dataset.label_column
    if rule.kind == PAIRED and s1_interval is None:
        everywhere = Cells(dataset, np.arange(dataset.n_rows), label_column, registry)
        s1_interval = s1_bucket_interval(rule, s1_bucket_edges(rule, everywhere))
    values, mask = Cells(dataset, rows, label_column, registry).values(rule, s1_interval)
    values = values[mask]
    if values.size == 0:
        raise EmptyStatisticError(f"rule {rule_signature(rule)}: no statistic values collected")
    return interval_from_values(values, rule.delta if delta is None else delta,
                                rule.sided if sided is None else sided)


# -- the report document ---------------------------------------------------------

def report_to_obj(report) -> dict:
    """The report.json document of a ``ViolationReport`` as Python objects."""
    return {
        "format_version": REPORT_FORMAT_VERSION,
        "per_rule": [{"signature": s, "violations": v, "evaluations": n}
                     for s, v, n in report.per_rule],
        "per_sample": [{"sample": i, "violations": c}
                       for i, c in enumerate(report.per_sample.tolist())],
        "totals": {
            "violations": report.total_violations,
            "per_sample_mean": report.per_sample_mean,
            "per_sample_std": report.per_sample_std,
            "rules": len(report.per_rule),
            "samples": len(report.per_sample),
        },
    }


# -- float64 storage -------------------------------------------------------------

def float_bucket_indicators(values, edges, count):
    """(n, count) 0/1 float matrix: row i sets the bucket of ``values[i]``,
    ties going to the lower bucket."""
    idx = np.searchsorted(np.asarray(edges, dtype=float), np.asarray(values, dtype=float),
                          side="left")
    out = np.zeros((len(idx), count))
    out[np.arange(len(idx)), idx] = 1.0
    return out


class FloatTable:
    """A table with every column but a label column stored as float64.

    ``columns`` maps a name to (kind, values, missing mask). It answers the
    reads ``match_class`` and the ``float_*`` readers make of a ``Dataset``.
    """

    def __init__(self, columns):
        self._columns = {name: (kind, vals if kind == LABEL else np.asarray(vals, dtype=float),
                                np.asarray(missing, dtype=bool))
                         for name, (kind, vals, missing) in columns.items()}

    def has_column(self, name):
        return name in self._columns

    def kind(self, name):
        return self._columns[name][0]

    def values(self, name):
        return self._columns[name][1]

    def missing(self, name):
        return self._columns[name][2]


def float_literal_cells(lit, table, rows):
    """A literal's 0/1 float truth at ``rows`` and the mask of its present
    cells, read from a boolean column of a ``FloatTable`` or a ``Dataset``."""
    if not table.has_column(lit.feature):
        raise ResolutionError(f"column {lit.feature!r} not present in dataset")
    if table.kind(lit.feature) != BOOLEAN:
        raise TypeMismatchError(f"literal {lit.feature!r} refers to a non-boolean column")
    vals = table.values(lit.feature)[rows]
    return (1.0 - vals) if lit.negated else vals, ~table.missing(lit.feature)[rows]


def float_literal_read(literals, table, rows):
    """(holds, present): each literal's masks of true, present cells and of
    present cells at ``rows``, in the order of ``literals``."""
    holds, present = [], []
    for lit in literals:
        truth, here = float_literal_cells(lit, table, rows)
        holds.append(here & (truth == 1.0))
        present.append(here)
    return np.array(holds), np.array(present)


def float_sample_values(table, column, rows):
    """(values, present) of ``column`` at ``rows``."""
    return table.values(column)[rows], ~table.missing(column)[rows]


def float_summaries(table, column, summary, rows):
    """The mean or std of ``column``'s present cells in each batch (row) of
    the (B, m) matrix ``rows``; None for a batch with no present cell."""
    out = []
    for batch in rows:
        vals, present = float_sample_values(table, column, batch)
        vals = vals[present]
        out.append(None if vals.size == 0 else
                   float(vals.mean()) if summary == "mean" else float(vals.std()))
    return out


def float_f1(rule, table, rows, label_column):
    """A logic rule's F1 on each batch (row) of the (B, m) matrix ``rows``;
    None for a batch with no usable row."""
    out = []
    for batch in rows:
        antecedent, consequent, usable = formula_parts(rule, table, batch, label_column)
        out.append(exact_f1(antecedent[usable], consequent[usable]))
    return out
