"""Rule-violation losses and the test-time adaptation loop.

The loss of a satisfied rule is 0. A violated one-sided rule pays the
clipped distance to its bound, min{bound - value, 1}; a violated two-sided
rule pays the clipped quadratic min{(lo - value)(hi - value), 1}, positive
exactly outside [lo, hi]. Logic rules substitute the differentiable
surrogate F1 for the exact score so gradients flow into the model's
consequent probabilities. The adaptation loop repeatedly samples a test
batch, averages the loss over all rules, and takes one gradient step on
the normalization parameters whenever the loss is positive.

``forward_batch`` records one batch's output as a ``BatchView``: its rows
of the test table, the model's probabilities and the cache for the
backward pass. No batch table is built: each batch gathers its rows of
the feature matrix that the loop builds once. ``RuleGroups`` reads everything
else once per run. It rejects a test table that already holds a model
output column, resolves the rules' statistics from the table's columns
and the model's outputs, and keeps the rules in two tables: statistic
rules (per-sample, paired and summary rules) and logic rules. Every data
cell is read once, on the whole test table, by one ``rule_eval.Cells``:
each distinct statistic, and each distinct literal, whose packed words the
groups unpack and index by the rules' literal ids (``Cells.literal_ids``).
Each batch gathers these stacks by its rows. Only the model outputs change
from batch to batch: the score columns ``probs[:, j]`` and the predicted
class, which is the guard.

Each batch takes one pool gather and one ``rule_eval.applies`` mask, the
mask violation counting uses, for all statistic rules, and one array pass
for the logic rules. Per-sample rules are hinged at every position. Summary
and logic rules have one value per batch, and every such value outside its
bounds goes through one shared ``hinge`` call. Each rule's reductions (a
mean, a std, the surrogate F1's sums) stay 1-d reductions over its own
compacted values, and the losses and d loss / d probs are summed in rule
order, so the result is bit-equal to evaluating the rules one by one. The
passes need the softened scores and their derivatives on each iteration's
batch, so they stay apart from the count kernel, which counts hard cells;
the logic pass takes its antecedents with the kernel's ``rule_eval.conjoin``.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import checked_rows
from .errors import DivergenceError, ResolutionError, TypeMismatchError
from .rule_eval import Cells, applies, conjoin, outside, reads, unpack_words
from .schema import LOGIC, PAIRED
from .statistics import StatisticRegistry, f1_from_counts, soften_grad, summarize

LOSS_CLIP = 1.0


@dataclass(frozen=True)
class AdaptationConfig:
    iterations: int
    batch_size: int
    learning_rate: float = 1e-2
    seed: int = 0
    grad_clip: float | None = None
    temperature: float = 1.0

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        # comparisons, not math.isfinite, so NaN fails and no int overflows
        if not 0 <= self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be a number in [0, inf), "
                             f"got {self.learning_rate!r}")
        if not 0 < self.temperature < math.inf:
            raise ValueError(f"temperature must be a number in (0, inf), "
                             f"got {self.temperature!r}")
        if self.grad_clip is not None and not self.grad_clip > 0:
            raise ValueError(f"grad_clip must be a number > 0, got {self.grad_clip!r}")


@dataclass(frozen=True)
class TraceRow:
    iteration: int
    loss: float
    batch_violations: int
    update_norm: float


@dataclass(frozen=True, eq=False)
class BatchView:
    """One batch's output: ``model``'s probabilities ``probs`` on ``rows`` of
    the table it read, and the ``cache`` that ``model.backward`` takes."""

    model: object
    rows: np.ndarray
    probs: np.ndarray
    cache: dict


def iterations_for_epochs(epochs, n_rows, batch_size) -> int:
    """One epoch is ceil(rows / batch) iterations."""
    return int(epochs) * int(math.ceil(n_rows / batch_size))


def forward_batch(model, features, rows) -> BatchView:
    """``model``'s output on ``rows`` of a table whose feature matrix
    (``model.feature_matrix``) is ``features``; raises DivergenceError if a
    probability is not finite."""
    rows = np.asarray(rows, dtype=int)
    probs, cache = model.forward(features[rows])
    if not np.isfinite(probs).all():
        raise DivergenceError("model produced non-finite output probabilities")
    return BatchView(model, rows, probs, cache)


def hinge(values, lo, hi, clip=LOSS_CLIP):
    """Clipped violation losses and slopes d loss / d value, element-wise.

    ``lo`` and ``hi`` broadcast against ``values``: scalars, or one pair per
    row of a (rules, m) value array as (rules, 1) columns. 0 inside the
    closed interval; at or past the clip the slope is 0 (the plateau
    subgradient). A raw loss that overflows to inf is past the clip, and so
    is a NaN value, which lies outside every interval: loss ``clip``, slope 0.
    """
    v = np.asarray(values, dtype=float)
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    lower, upper = np.isinf(hi), np.isinf(lo)  # one-sided: only lo, only hi
    with np.errstate(over="ignore", invalid="ignore"):  # inf bounds, huge values
        raw, slope = (lo - v) * (hi - v), 2.0 * v - lo - hi
        if lower.any() or upper.any():
            raw = np.where(lower, lo - v, np.where(upper, v - hi, raw))
            slope = np.where(lower, -1.0, np.where(upper, 1.0, slope))
    inside = (lo <= v) & (v <= hi)
    plateau = ~(raw < clip)
    return (np.where(inside, 0.0, np.where(plateau, clip, raw)),
            np.where(inside | plateau, 0.0, slope))


class RuleGroups:
    """The rules of one adapt run or gradient check in two tables, statistic
    rules and logic rules, with every data-only cell read once at all rows
    of ``table``.

    ``table`` supplies the data columns and must not hold a model output
    column (``score_<class>`` or ``pred``): those come from each batch's
    probabilities. ``table``'s columns and the model's outputs resolve the
    rules' statistics. Raises ValueError, naming ``table``'s file, for a
    table with no row, which no batch can be drawn from, and, naming the
    column too, for a model output column in ``table``; and ResolutionError,
    naming the rule and the reason, for a rule that cannot be evaluated on
    these columns.
    """

    def __init__(self, rules, model, table):
        if not rules:
            raise ValueError("the adaptation loss needs at least one rule")
        if table.n_rows == 0:
            where = f"{table.origin}: " if table.origin else ""
            raise ValueError(f"{where}cannot sample from an empty dataset")
        model.check_outputs_absent(table)
        # names and kinds only: the table's columns and the outputs, no rows
        no_rows = table.take(np.arange(0)).with_columns(
            model.output_columns(np.zeros((0, len(model.class_names)))))
        registry = StatisticRegistry.from_dataset(no_rows)
        cells = Cells(table, np.arange(table.n_rows), None, registry)
        self.rules = list(rules)
        classes = list(model.class_names)
        self._n_classes = len(classes)
        # logic rules: literal stacks in the reader's id order, which the ids index
        self._logic_at = [r for r, crule in enumerate(self.rules) if crule.rule.kind == LOGIC]
        if self._logic_at:
            self._ids = cells.literal_ids([self.rules[r].rule for r in self._logic_at])
            self._holds, self._present = (unpack_words(words, table.n_rows)
                                          for words in (cells.holds, cells.present))
            logic_ids = iter(self._ids)  # each logic rule's, in rule order
            self._logic_lo = np.array([self.rules[r].lo for r in self._logic_at])
            self._logic_hi = np.array([self.rules[r].hi for r in self._logic_at])
        # stack rows in the order first read: the value pool of a batch is its
        # score columns, then the data statistics at its rows
        pool = {model.score_column(c): j for j, c in enumerate(classes)}
        data = []

        def row(key):  # key's pool row, read onto data on first use
            if key not in pool:
                data.append(cells.statistic(key))
                pool[key] = len(pool)
            return pool[key]

        sample, summary = [], []  # table rows, each in rule order
        for r, crule in enumerate(self.rules):
            rule = crule.rule
            try:
                if rule.kind == LOGIC:
                    if rule.consequent not in classes:
                        raise ResolutionError(
                            f"consequent {rule.consequent!r} is not a model class; "
                            f"classes: {', '.join(classes)}")
                    failed = [cells.literal_errors[j] for j in next(logic_ids)]
                    error = next((exc for exc in failed if exc is not None), None)
                    if error is not None:  # the rule's first literal that cannot be read
                        raise error
                    continue
                stat = registry.resolve(rule.statistic)
                column, at_each = reads(stat)
                into = sample if at_each else summary
                src = row(column)
                # an unpaired rule's s1 is score column 0 in the bucket
                # (-inf, inf]: always present and inside
                s1 = (0, -math.inf, math.inf)
                if rule.kind == PAIRED:
                    s1 = (row(rule.s1), crule.s1_lo, crule.s1_hi)
                guard = -1 if rule.guard is None or str(rule.guard) not in classes \
                    else classes.index(str(rule.guard))
                into.append((r, stat, src, guard, rule.guard is None,
                             rule.kind == PAIRED, *s1, crule.lo, crule.hi))
            except (ResolutionError, TypeMismatchError) as exc:
                raise ResolutionError(f"rule {crule.signature}: {exc}") from None

        n = table.n_rows
        self._data_values = np.array([v for v, _ in data], dtype=float).reshape(len(data), n)
        self._data_present = np.array([p for _, p in data], dtype=bool).reshape(len(data), n)
        # statistic rules: the per-sample rules, then the summary rules
        self._n_sample = len(sample)
        self._summaries = [stat for _, stat, *_ in summary]
        self._at = [r for r, *_ in sample + summary]
        if self._at:
            self._src, guard, free, paired, self._s1, s1_lo, s1_hi, lo, hi = (
                np.array(c) for c in list(zip(*sample + summary))[2:])
            self._guard, self._free = guard[:, None], free[:, None]
            self._s1_bucket = (s1_lo[:, None], s1_hi[:, None]) if paired.any() else None
            # the per-sample rules' bounds as (rules, 1) columns
            self._lo, self._hi = lo[:len(sample), None], hi[:len(sample), None]
        if self._logic_at:  # each distinct consequent's model class, and each rule's
            self._classes, self._consequent = np.unique(
                [classes.index(self.rules[r].rule.consequent) for r in self._logic_at],
                return_inverse=True)

    # -- one batch ---------------------------------------------------------------

    def loss_grad(self, out, temperature):
        """(mean loss, d loss / d scale, d loss / d shift, batch violations) of
        the batch output ``out`` on ``out.rows`` of the table the groups read.

        Summary and logic rules have one value per batch; those outside their
        bounds share one hinge, and charge every position of the batch."""
        pred = out.probs.argmax(axis=1)
        losses = [0.0] * len(self.rules)
        grads = [None] * len(self.rules)  # (class index, d loss / d probs[:, j])
        batch = []  # (rule, value, class index, d value / d probs[:, j] or None)
        violations = 0
        if self._at:
            violations += self._statistic_pass(out, pred, losses, grads, batch)
        if self._logic_at:
            violations += self._logic_pass(out, pred, temperature, batch)
        if batch:
            at, value, classes, dvalues = zip(*batch)
            loss, slope = hinge(value, [self.rules[r].lo for r in at],
                                [self.rules[r].hi for r in at])
            for r, rule_loss, sl, j, dvalue in zip(at, loss.tolist(), slope.tolist(),
                                                   classes, dvalues):
                losses[r] = rule_loss
                if sl != 0.0 and dvalue is not None:
                    grads[r] = (j, sl * dvalue)

        n = len(self.rules)
        total = sum(losses)
        if all(g is None for g in grads):
            d = len(out.model.feature_names)
            return total / n, np.zeros(d), np.zeros(d), violations
        dprobs = np.zeros_like(out.probs)
        for g in grads:  # in rule order, as the per-rule sums were taken
            if g is not None:
                dprobs[:, g[0]] += g[1]
        dscale, dshift = out.model.backward(out.cache, dprobs / n)
        return total / n, dscale, dshift, violations

    def _statistic_pass(self, out, pred, losses, grads, batch):
        """Every statistic rule's values and the (rules, m) mask of the
        positions it applies to, from one pool gather. A per-sample rule's
        loss is the mean hinge over its positions, each of which may be a
        violation; a summary rule's value is its mean or std over them."""
        probs, rows = out.probs, out.rows
        # score columns are always present
        pool = np.concatenate([probs.T, self._data_values[:, rows]])
        present = np.concatenate([np.ones(probs.T.shape, dtype=bool),
                                  self._data_present[:, rows]])
        s1 = () if self._s1_bucket is None \
            else (pool[self._s1], present[self._s1], *self._s1_bucket)
        values = pool[self._src]
        mask = applies((pred == self._guard) | self._free, present[self._src], *s1)
        p, violations = self._n_sample, 0
        if p:
            values_p, mask_p = values[:p], mask[:p]
            loss, slope = hinge(values_p, self._lo, self._hi)
            violations = int(np.count_nonzero(mask_p & outside(values_p, self._lo, self._hi)))
            # a rule gets a gradient only where a slope is not 0
            sloped = (mask_p & (slope != 0.0)).any(axis=1)
            counts = np.count_nonzero(mask_p, axis=1)
            # slopes / count where a rule applies: element-wise, so bit-equal
            # to dividing the rule's compacted slopes
            dvalues = np.where(mask_p, slope, 0.0) / np.maximum(counts, 1)[:, None]
            for k in np.flatnonzero(counts):
                r = self._at[k]
                losses[r] = float(loss[k][mask_p[k]].sum() / counts[k])  # == .mean()
                if sloped[k] and self._src[k] < self._n_classes:
                    grads[r] = (self._src[k], dvalues[k])
        m = len(rows)
        for k in p + np.flatnonzero(mask[p:].any(axis=1)):
            r, keep, j = self._at[k], mask[k], self._src[k]
            vals, stat, crule = values[k][keep], self._summaries[k - p], self.rules[r]
            value = summarize(stat, vals)
            if not math.isfinite(value):
                raise DivergenceError(
                    f"rule {crule.signature}: non-finite statistic value {value}")
            if crule.lo <= value <= crule.hi:
                continue
            violations += m
            dvalue = np.zeros(m)  # d value / d probs[:, j]
            if stat.summary == "mean":
                dvalue[keep] = 1.0 / vals.size
            elif value != 0.0:
                dvalue[keep] = (vals - vals.mean()) / (vals.size * value)
            batch.append((r, value, j, dvalue if j < self._n_classes else None))
        return violations

    def _logic_pass(self, out, pred, temperature, batch):
        """Violations from the exact F1 of the predicted labels; the value
        hinged from the surrogate F1 2 sum(a c) / (sum(a) + sum(c)) over a
        rule's usable positions, where a is the antecedent and c the softened
        consequent score. It tends to the exact F1 of the thresholded scores
        as the temperature tends to 0."""
        # each literal's cells at the batch rows; a literal holds only if present
        antecedent, usable = conjoin(self._holds[:, out.rows], self._present[:, out.rows],
                                     self._ids)
        consequent = (pred == self._classes[:, None])[self._consequent]
        n_predicted = antecedent.sum(axis=1)
        f1 = f1_from_counts((antecedent & consequent).sum(axis=1), n_predicted,
                            (consequent & usable).sum(axis=1))
        valued = usable.any(axis=1)
        violations = len(out.rows) * int(np.count_nonzero(
            valued & outside(f1, self._logic_lo, self._logic_hi)))
        # softened consequent scores and d soft / d score, once per class
        soft, dsoft = soften_grad(out.probs.T[self._classes], temperature)
        soft, dsoft = soft[self._consequent], dsoft[self._consequent]
        hits = antecedent * soft
        for k in np.flatnonzero(valued):
            r, keep = self._logic_at[k], usable[k]
            denom = float(n_predicted[k] + soft[k][keep].sum())
            # finite, as every score is: forward_batch checks them
            value = 0.0 if denom == 0.0 else 2.0 * float(hits[k][keep].sum()) / denom
            if self._logic_lo[k] <= value <= self._logic_hi[k]:
                continue
            dvalue = None if denom == 0.0 else np.where(
                keep, ((2.0 * antecedent[k] - value) / denom) * dsoft[k], 0.0)
            batch.append((r, value, self._classes[self._consequent[k]], dvalue))
        return violations


def total_loss_grad(groups, out, temperature=1.0):
    """(mean loss, d loss / d scale, d loss / d shift, batch violations) of the
    rule groups ``groups`` on the batch output ``out`` of their table; the
    violations are member-attributed, as in ``evaluate``."""
    return groups.loss_grad(out, temperature)


def adapt(model, rules, test, config: AdaptationConfig, groups=None):
    """Run the adaptation loop and return (adapted model, trace).

    Each iteration samples a seeded batch, computes the mean rule loss on
    the model's current outputs, and descends on (scale, shift) only when
    the loss is positive; the frozen linear layer is untouched. Raises
    DivergenceError with the partial trace if the loss or gradient goes
    non-finite. ``groups`` are the rules' ``RuleGroups`` on ``test``; built
    here by default, raising ValueError if ``test`` already has a model
    output column and ResolutionError for a rule that cannot be evaluated.
    """
    if groups is None:
        groups = RuleGroups(rules, model, test)
    features = model.feature_matrix(test)  # each batch gathers its rows
    work = model.copy()
    frozen = work.frozen_checksum()
    rng = np.random.default_rng(config.seed)
    n = test.n_rows
    replace = config.batch_size > n
    trace = []
    for it in range(config.iterations):
        rows = rng.choice(n, size=config.batch_size, replace=replace)
        try:
            out = forward_batch(work, features, rows)
            loss, dscale, dshift, violations = total_loss_grad(
                groups, out, config.temperature)
        except DivergenceError as exc:
            raise DivergenceError(str(exc), trace=trace)
        if not math.isfinite(loss):
            raise DivergenceError(f"non-finite loss at iteration {it}", trace=trace)
        update_norm = 0.0
        if loss > 0.0:
            grad = np.concatenate([dscale, dshift])
            if not np.isfinite(grad).all():
                raise DivergenceError(f"non-finite gradient at iteration {it}", trace=trace)
            if config.grad_clip is not None:
                norm = float(np.linalg.norm(grad))
                if norm > config.grad_clip:
                    scale_by = config.grad_clip / norm
                    dscale = dscale * scale_by
                    dshift = dshift * scale_by
            with np.errstate(over="ignore"):
                step_scale = config.learning_rate * dscale
                step_shift = config.learning_rate * dshift
                work.scale -= step_scale
                work.shift -= step_shift
                update_norm = float(np.sqrt((step_scale ** 2).sum()
                                            + (step_shift ** 2).sum()))
        trace.append(TraceRow(it, float(loss), int(violations), update_norm))
    if work.frozen_checksum() != frozen:
        raise AssertionError("frozen parameters changed during adaptation")
    return work, trace


def grad_check(model, rules, dataset, rows, step=1e-5, temperature=1.0) -> float:
    """Max relative error between analytic and central-difference gradients
    on the minibatch ``rows`` of ``dataset``.

    Requires a positive loss on the batch (otherwise both gradients vanish
    and the check is vacuous).
    """
    if not 0.0 < step <= 1e-2:
        raise ValueError(f"step must lie in (0, 1e-2], got {step}")
    rows = checked_rows(dataset, rows)
    groups = RuleGroups(rules, model, dataset)
    features = model.feature_matrix(dataset)
    loss0, dscale, dshift, _ = total_loss_grad(
        groups, forward_batch(model, features, rows), temperature)
    if loss0 <= 0.0:
        raise ValueError("grad_check needs a batch with positive total loss")
    analytic = np.concatenate([dscale, dshift])

    def loss_at(scale, shift):
        probe = model.copy()
        probe.scale, probe.shift = scale, shift
        return total_loss_grad(groups, forward_batch(probe, features, rows),
                               temperature)[0]

    d = len(model.feature_names)
    numeric = np.zeros(2 * d)
    for i in range(2 * d):
        delta = np.zeros(2 * d)
        delta[i] = step
        hi = loss_at(model.scale + delta[:d], model.shift + delta[d:])
        lo = loss_at(model.scale - delta[:d], model.shift - delta[d:])
        numeric[i] = (hi - lo) / (2.0 * step)

    scale_ref = np.maximum(np.abs(analytic), np.abs(numeric))
    err = np.zeros(2 * d)
    nonzero = scale_ref > 1e-10
    err[nonzero] = np.abs(analytic - numeric)[nonzero] / scale_ref[nonzero]
    return float(err.max()) if err.size else 0.0


def write_trace(trace, path):
    """Trace CSV with columns iteration, loss, batch_violations, update_norm."""
    with open(Path(path), "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["iteration", "loss", "batch_violations", "update_norm"])
        for row in trace:
            writer.writerow([row.iteration, repr(row.loss), row.batch_violations,
                             repr(row.update_norm)])
