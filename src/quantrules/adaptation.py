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
backward pass. No batch table is built. ``RuleGroups`` reads everything
else once per run. It rejects a test table that already holds a model
output column, resolves the rules' statistics from the table's columns
and the model's outputs, and splits the rules into three groups:
per-sample rules (conditional and paired rules on a per-sample statistic),
summary rules (mean and std) and logic rules. Every cell that reads only
data columns is read once, on the whole test table, by the rule reader
``rule_eval.Cells``: literal truth and presence, data-column and
box-statistic values and their missing masks, which also serve as paired
rules' s1 values. They are stored per distinct literal or statistic, not
per rule, and each batch gathers them by its rows. Only the model outputs
change from batch to batch: the score columns ``probs[:, j]`` and the
predicted class, which is the guard. Each batch then takes one array pass
per group, masked by ``rule_eval.applies``, the mask violation counting
uses. Each rule's reductions (a mean, a std, the surrogate F1's sums) stay
1-d reductions over its own compacted values, and the losses and d loss /
d probs are summed in rule order, so the result is bit-equal to evaluating
the rules one by one.

The passes stay here, apart from ``rule_eval.score_logic_rules``: the loss
needs the softened scores and their derivatives on each iteration's batch,
while the kernel counts hard cells of whole batch sets.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import checked_rows
from .errors import DivergenceError, ResolutionError, TypeMismatchError
from .rule_eval import Cells, applies
from .schema import LOGIC, PAIRED, rule_signature
from .statistics import PER_SAMPLE, StatisticRegistry, f1_from_counts, soften_grad

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


def forward_batch(model, table, rows) -> BatchView:
    """``model``'s output on ``rows`` of ``table``; raises DivergenceError if a
    probability is not finite."""
    rows = np.asarray(rows, dtype=int)
    probs, cache = model.forward(model.feature_matrix(table, rows))
    if not np.isfinite(probs).all():
        raise DivergenceError("model produced non-finite output probabilities")
    return BatchView(model, rows, probs, cache)


def hinge(values, lo, hi, clip=LOSS_CLIP):
    """Clipped violation losses and slopes d loss / d value, element-wise.

    ``lo`` and ``hi`` broadcast against ``values``: scalars, or one pair per
    row of a (rules, m) value array as (rules, 1) columns. 0 inside the
    closed interval; at or past the clip the slope is 0 (the plateau
    subgradient). A raw loss that overflows to inf is past the clip.
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
    plateau = raw >= clip
    return (np.where(inside, 0.0, np.where(plateau, clip, raw)),
            np.where(inside | plateau, 0.0, slope))


def _check_finite(value, rule):
    if not math.isfinite(value):
        raise DivergenceError(
            f"rule {rule_signature(rule)}: non-finite statistic value {value}")


class _Rows:
    """Per-rule parameters of one group, as arrays with one row per rule."""

    def __init__(self, entries):
        for key in entries[0] if entries else ():
            column = np.array([e[key] for e in entries])
            setattr(self, key, column[:, None] if key in _COLUMNS else column)
        self.n = len(entries)


# parameters that broadcast against a group's (rules, m) arrays
_COLUMNS = ("lo", "hi", "guard", "free", "s1_lo", "s1_hi", "cls")


class RuleGroups:
    """The rules of one adapt run or gradient check, split into three groups,
    with every data-only cell read once at all rows of ``table``.

    ``table`` supplies the data columns and must not hold a model output
    column (``score_<class>`` or ``pred``): those come from each batch's
    probabilities. ``table``'s columns and the model's outputs resolve the
    rules' statistics. Raises ValueError, naming ``table``'s file and the
    column, for a model output column in ``table``, and ResolutionError,
    naming the rule and the reason, for a rule that cannot be evaluated on
    these columns.
    """

    def __init__(self, rules, model, table):
        if not rules:
            raise ValueError("the adaptation loss needs at least one rule")
        model.check_outputs_absent(table)
        # names and kinds only: the table's columns and the outputs, no rows
        no_rows = table.take(np.arange(0)).with_columns(
            model.output_columns(np.zeros((0, len(model.class_names)))))
        registry = StatisticRegistry.from_dataset(no_rows)
        self.rules = list(rules)
        self._classes = list(model.class_names)
        self._scores = {model.score_column(c): j for j, c in enumerate(self._classes)}
        # build-time reader of the data cells at all rows, dropped once stacked
        self._cells = Cells(table, np.arange(table.n_rows), None, registry)
        per_sample, summary, logic = [], [], []
        for r, crule in enumerate(self.rules):
            try:
                entry = self._entry(r, crule)
            except (ResolutionError, TypeMismatchError) as exc:
                raise ResolutionError(f"rule {crule.signature}: {exc}") from None
            {"sample": per_sample, "summary": summary, "logic": logic}[entry.pop("group")] \
                .append(entry)
        data, literals = self._cells.statistics.values(), self._cells.literals.values()
        # pad every literal list to the longest with the always-true row
        width = max((len(e["lits"]) for e in logic), default=0)
        for e in logic:
            e["lits"] += [len(literals)] * (width - len(e["lits"]))
        self._per_sample, self._summary = _Rows(per_sample), _Rows(summary)
        self._logic = _Rows(logic)
        if logic:  # the distinct consequent classes, and each rule's among them
            self._logic.classes, self._logic.class_at = np.unique(
                self._logic.cls[:, 0], return_inverse=True)
        n = table.n_rows
        # the value pool of a batch is its score columns, then these rows
        shape = (len(data), n)
        self._data_values = np.array([vals for vals, _ in data], dtype=float).reshape(shape)
        self._data_present = np.array([present for _, present in data],
                                      dtype=bool).reshape(shape)
        # literal stacks end with the always-true, always-present row
        self._truth = np.array([t for t, _ in literals] + [np.ones(n)])
        self._present = np.array([p for _, p in literals] + [np.ones(n, bool)])
        del self._cells

    # -- run-level reads --------------------------------------------------------

    def _source(self, name):
        """Pool row of the per-sample statistic ``name``: a score column's
        class index, or a data statistic's row after the score columns."""
        if name in self._scores:
            return self._scores[name]
        self._cells.statistic(name)
        return len(self._scores) + list(self._cells.statistics).index(name)

    def _literal(self, lit):
        self._cells.literal(lit)
        return list(self._cells.literals).index(lit)

    def _entry(self, r, crule):
        """One rule's group and parameters; reads its data-only cells."""
        rule = crule.rule
        if rule.kind == LOGIC:
            if rule.consequent not in self._classes:
                raise ResolutionError(
                    f"consequent {rule.consequent!r} is not a model class; "
                    f"classes: {', '.join(self._classes)}")
            return dict(group="logic", index=r, lo=crule.lo, hi=crule.hi,
                        cls=self._classes.index(rule.consequent),
                        lits=[self._literal(lit) for lit in rule.literals])
        registry = self._cells.registry
        stat = registry.resolve(rule.statistic)
        if stat.arity == PER_SAMPLE:
            group, column, std = "sample", rule.statistic, False
        elif stat.kind == "summary":
            group, column, std = "summary", stat.column, stat.summary == "std"
        else:
            raise TypeMismatchError(f"statistic {stat.name!r} has no per-minibatch evaluator")
        guard = -1 if rule.guard is None or str(rule.guard) not in self._classes \
            else self._classes.index(str(rule.guard))
        entry = dict(group=group, index=r, lo=crule.lo, hi=crule.hi, std=std,
                     src=self._source(column), score=self._scores.get(column, -1),
                     guard=guard, free=rule.guard is None,
                     paired=False, s1=0, s1_lo=-math.inf, s1_hi=math.inf)
        if rule.kind == PAIRED:
            if crule.s1_lo is None or crule.s1_hi is None:
                raise ResolutionError("paired rule has no learned s1 interval")
            if registry.resolve(rule.s1).arity != PER_SAMPLE:
                raise TypeMismatchError(f"statistic {rule.s1!r} is not per-sample")
            entry.update(paired=True, s1=self._source(rule.s1),
                         s1_lo=crule.s1_lo, s1_hi=crule.s1_hi)
        return entry

    # -- one batch ---------------------------------------------------------------

    def loss_grad(self, out, temperature):
        """(mean loss, d loss / d scale, d loss / d shift, batch violations) of
        the batch output ``out`` on ``out.rows`` of the table the groups read."""
        probs, rows = out.probs, out.rows
        pred = probs.argmax(axis=1)
        # score columns are always present
        pool, present = probs.T, np.ones((probs.shape[1], 1), dtype=bool)
        if len(self._data_values):
            pool = np.concatenate([pool, self._data_values[:, rows]])
            present = np.concatenate([np.ones(probs.T.shape, dtype=bool),
                                      self._data_present[:, rows]])
        losses = [0.0] * len(self.rules)
        grads = [None] * len(self.rules)  # (class index, d loss / d probs[:, j])
        violations = 0
        if self._per_sample.n:
            violations += self._per_sample_pass(pool, present, pred, losses, grads)
        if self._summary.n:
            violations += self._summary_pass(pool, present, pred, losses, grads)
        if self._logic.n:
            violations += self._logic_pass(probs, rows, pred, temperature, losses, grads)

        n = len(self.rules)
        total = sum(losses)
        if all(g is None for g in grads):
            d = len(out.model.feature_names)
            return total / n, np.zeros(d), np.zeros(d), violations
        dprobs = np.zeros_like(probs)
        for g in grads:  # in rule order, as the per-rule sums were taken
            if g is not None:
                dprobs[:, g[0]] += g[1]
        dscale, dshift = out.model.backward(out.cache, dprobs / n)
        return total / n, dscale, dshift, violations

    @staticmethod
    def _masks(g, pool, present, pred):
        """(rules, m) masks of the positions each rule of ``g`` applies to.
        An unpaired rule's s1 is score column 0 in the bucket (-inf, inf]:
        always present and inside."""
        s1 = (pool[g.s1], present[g.s1], g.s1_lo, g.s1_hi) if g.paired.any() else ()
        return applies((pred == g.guard) | g.free, present[g.src], *s1)

    def _per_sample_pass(self, pool, present, pred, losses, grads):
        """One hinge over the (rules, m) values: a rule's loss is the mean
        over the positions it applies to, each of which may be a violation."""
        g = self._per_sample
        values = pool[g.src]
        mask = self._masks(g, pool, present, pred)
        loss, slope = hinge(values, g.lo, g.hi)
        violations = int(np.count_nonzero(mask & ((values < g.lo) | (values > g.hi))))
        sloped = (mask & (slope != 0.0)).any(axis=1)
        # a rule whose applicable losses and slopes are all 0 has loss 0
        # and no gradient
        active = np.flatnonzero((mask & (loss != 0.0)).any(axis=1) | sloped)
        if not active.size:
            return violations
        counts = np.count_nonzero(mask, axis=1)
        # slopes / count where a rule applies: element-wise, so bit-equal to
        # dividing the rule's compacted slopes
        dvalues = np.where(mask, slope, 0.0) / np.maximum(counts, 1)[:, None]
        for k in active:
            r = g.index[k]
            losses[r] = float(loss[k][mask[k]].sum() / counts[k])  # == .mean()
            if sloped[k] and g.score[k] >= 0:
                grads[r] = (g.score[k], dvalues[k])
        return violations

    def _summary_pass(self, pool, present, pred, losses, grads):
        """A mean or std per rule over its positions; one hinge over the
        values outside their bounds, since a value inside costs 0. A violated
        rule charges every position of the batch."""
        g = self._summary
        values = pool[g.src]
        mask = self._masks(g, pool, present, pred)
        violated = []  # (rule row, its compacted values, value, bounds)
        for k in np.flatnonzero(mask.any(axis=1)):
            vals = values[k][mask[k]]
            value = float(vals.std()) if g.std[k] else float(vals.mean())
            _check_finite(value, self.rules[g.index[k]].rule)
            lo, hi = float(g.lo[k, 0]), float(g.hi[k, 0])
            if not lo <= value <= hi:
                violated.append((k, vals, value, lo, hi))
        if not violated:
            return 0
        ks, kept, value, lo, hi = zip(*violated)
        loss, slope = hinge(value, lo, hi)
        m = mask.shape[1]
        for k, vals, v, rule_loss, sl in zip(ks, kept, value, loss.tolist(), slope.tolist()):
            r, keep, j = g.index[k], mask[k], g.score[k]
            losses[r] = rule_loss
            if j < 0 or sl == 0.0:
                continue
            n = vals.size
            if not g.std[k]:
                grads[r] = (j, np.where(keep, sl * (1.0 / n), 0.0))
                continue
            dvalue = np.zeros(n) if v == 0.0 else (vals - vals.mean()) / (n * v)
            column = np.zeros(m)
            column[keep] = sl * dvalue
            grads[r] = (j, column)
        return m * len(violated)

    def _logic_pass(self, probs, rows, pred, temperature, losses, grads):
        """Violations from the exact F1 of the predicted labels; the loss from
        the surrogate F1 2 sum(a c) / (sum(a) + sum(c)) over a rule's usable
        positions, where a is the antecedent and c the softened consequent
        score, hinged once over the rules outside their bounds. It tends to
        the exact F1 of the thresholded scores as the temperature tends to
        0."""
        g = self._logic
        m = probs.shape[0]
        # (rules, literals, m) cells at the batch rows; products of 0/1 are exact
        cells = (g.lits[:, :, None], rows)
        antecedent = self._truth[cells].prod(axis=1)
        usable = self._present[cells].all(axis=1)
        consequent = pred == g.cls
        predicted = (antecedent == 1.0) & usable
        n_predicted = predicted.sum(axis=1)
        f1 = f1_from_counts((predicted & consequent).sum(axis=1), n_predicted,
                            (consequent & usable).sum(axis=1))
        valued = usable.any(axis=1)
        outside = valued & ~((g.lo[:, 0] <= f1) & (f1 <= g.hi[:, 0]))
        violations = m * int(np.count_nonzero(outside))
        # softened consequent scores and d soft / d score, once per class
        soft, dsoft = soften_grad(probs.T[g.classes], temperature)
        soft, dsoft = soft[g.class_at], dsoft[g.class_at]
        hits = antecedent * soft
        violated = []  # (rule row, surrogate F1, its denominator, bounds)
        for k in np.flatnonzero(valued):
            keep = usable[k]
            denom = float(n_predicted[k] + soft[k][keep].sum())
            value = 0.0 if denom == 0.0 else 2.0 * float(hits[k][keep].sum()) / denom
            _check_finite(value, self.rules[g.index[k]].rule)
            lo, hi = float(g.lo[k, 0]), float(g.hi[k, 0])
            if not lo <= value <= hi:
                violated.append((k, value, denom, lo, hi))
        if not violated:
            return violations
        ks, value, denom, lo, hi = zip(*violated)
        loss, slope = hinge(value, lo, hi)
        sloped, surrogate = [], []
        for k, v, d, rule_loss, sl in zip(ks, value, denom, loss.tolist(), slope.tolist()):
            losses[g.index[k]] = rule_loss
            if sl != 0.0 and d != 0.0:
                sloped.append(k)
                surrogate.append((v, d, sl))
        if sloped:
            value, denom, slope = (np.array(c)[:, None] for c in zip(*surrogate))
            dvalue = ((2.0 * antecedent[sloped] - value) / denom) * dsoft[sloped]
            dprobs = np.where(usable[sloped], slope * dvalue, 0.0)
            for k, column in zip(sloped, dprobs):
                grads[g.index[k]] = (g.cls[k, 0], column)
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
    work = model.copy()
    frozen = work.frozen_checksum()
    rng = np.random.default_rng(config.seed)
    n = test.n_rows
    replace = config.batch_size > n
    trace = []
    for it in range(config.iterations):
        rows = rng.choice(n, size=config.batch_size, replace=replace)
        try:
            out = forward_batch(work, test, rows)
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
    loss0, dscale, dshift, _ = total_loss_grad(
        groups, forward_batch(model, dataset, rows), temperature)
    if loss0 <= 0.0:
        raise ValueError("grad_check needs a batch with positive total loss")
    analytic = np.concatenate([dscale, dshift])

    def loss_at(scale, shift):
        probe = model.copy()
        probe.scale, probe.shift = scale, shift
        return total_loss_grad(groups, forward_batch(probe, dataset, rows),
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
