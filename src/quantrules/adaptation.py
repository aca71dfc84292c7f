"""Rule-violation losses and the test-time adaptation loop.

The loss of a satisfied rule is 0. A violated one-sided rule pays the
clipped distance to its bound, min{bound - value, 1}; a violated two-sided
rule pays the clipped quadratic min{(lo - value)(hi - value), 1}, positive
exactly outside [lo, hi]. Logic rules substitute the differentiable
surrogate F1 for the exact score so gradients flow into the model's
consequent probabilities. The adaptation loop repeatedly samples a test
batch, averages the loss over all rules, and takes one gradient step on
the normalization parameters whenever the loss is positive.

Rules are evaluated on a ``BatchView`` per batch: the test table's columns at
the batch rows plus the model's output columns. Every batch of a run has the
same columns, so one statistic registry serves the whole run.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import checked_rows
from .errors import DivergenceError
from .rule_eval import evaluate_rule
from .schema import LOGIC, rule_signature
from .statistics import StatisticRegistry, surrogate_f1_grad

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
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")


@dataclass(frozen=True)
class TraceRow:
    iteration: int
    loss: float
    batch_violations: int
    update_norm: float


class BatchView:
    """A model's output on ``rows`` of ``table``, read like a ``Dataset``: the
    table's columns at ``rows``, then ``model.output_columns(probs)``, which the
    table must not have. ``probs`` and ``cache`` feed ``model.backward``."""

    def __init__(self, model, table, rows, probs, cache):
        self.model, self.probs, self.cache = model, probs, cache
        self.n_rows = len(rows)
        self._table, self._rows = table, rows
        model.check_outputs_absent(table)
        self._outputs = {name: (kind, vals) for name, kind, vals in model.output_columns(probs)}
        self.score_index = {model.score_column(c): j for j, c in enumerate(model.class_names)}

    @property
    def names(self):
        return self._table.names + list(self._outputs)

    def has_column(self, name) -> bool:
        return name in self._outputs or self._table.has_column(name)

    def kind(self, name) -> str:
        if name in self._outputs:
            return self._outputs[name][0]
        return self._table.kind(name)

    def values(self, name) -> np.ndarray:
        if name in self._outputs:
            return self._outputs[name][1]
        return self._table.values(name)[self._rows]

    def missing(self, name) -> np.ndarray:
        if name in self._outputs:
            return np.zeros(self.n_rows, dtype=bool)
        return self._table.missing(name)[self._rows]


def iterations_for_epochs(epochs, n_rows, batch_size) -> int:
    """One epoch is ceil(rows / batch) iterations."""
    return int(epochs) * int(math.ceil(n_rows / batch_size))


def forward_batch(model, table, rows) -> BatchView:
    rows = np.asarray(rows, dtype=int)
    probs, cache = model.forward(model.feature_matrix(table, rows))
    if not np.isfinite(probs).all():
        raise DivergenceError("model produced non-finite output probabilities")
    return BatchView(model, table, rows, probs, cache)


def hinge(values, lo, hi, clip=LOSS_CLIP):
    """Clipped violation losses and slopes d loss / d value, element-wise.

    0 inside the closed interval; at or past the clip the slope is 0 (the
    plateau subgradient). A raw loss that overflows to inf is past the clip.
    """
    v = np.asarray(values, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # inside positions are discarded
        if math.isinf(hi):
            raw, slope = lo - v, np.full(v.shape, -1.0)
        elif math.isinf(lo):
            raw, slope = v - hi, np.ones(v.shape)
        else:
            raw, slope = (lo - v) * (hi - v), 2.0 * v - lo - hi
    inside = (lo <= v) & (v <= hi)
    plateau = raw >= clip
    return (np.where(inside, 0.0, np.where(plateau, clip, raw)),
            np.where(inside | plateau, 0.0, slope))


def _check_finite(value, rule):
    if not math.isfinite(value):
        raise DivergenceError(
            f"rule {rule_signature(rule)}: non-finite statistic value {value}")


def _rule_loss_grad(crule, out, temperature, registry):
    """Loss of one rule on a batch, d loss / d probs (None when flat), and
    the rule's member-attributed violation count on the predicted labels."""
    rule = crule.rule
    ev = evaluate_rule(rule, out, np.arange(out.n_rows), "pred", registry,
                       (crule.s1_lo, crule.s1_hi))
    violations = np.count_nonzero(ev.violated(crule.lo, crule.hi))
    if not ev.mask.any():
        return 0.0, None, violations

    if rule.kind == LOGIC:
        j = out.model.class_names.index(rule.consequent)
        value, dvalue = surrogate_f1_grad(ev.samples[ev.mask], out.probs[ev.mask, j],
                                          temperature)
        _check_finite(value, rule)
    else:
        # j is None for a statistic of fixed data columns: a loss but no gradient
        stat = registry.resolve(rule.statistic)
        j = out.score_index.get(stat.column)
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


def total_loss_grad(rules, batch_output, temperature=1.0, registry=None):
    """(mean loss, d loss / d scale, d loss / d shift, batch violations) over
    all rules; the violations are member-attributed, as in ``evaluate``.
    ``registry`` defaults to the one built from ``batch_output``'s columns."""
    if not rules:
        raise ValueError("total_loss_grad needs at least one rule")
    if registry is None:
        registry = StatisticRegistry.from_dataset(batch_output)
    total = 0.0
    violations = 0
    dprobs_sum = None
    for crule in rules:
        loss, dprobs, count = _rule_loss_grad(crule, batch_output, temperature, registry)
        total += loss
        violations += count
        if dprobs is not None:
            dprobs_sum = dprobs if dprobs_sum is None else dprobs_sum + dprobs
    n = len(rules)
    if dprobs_sum is None:
        d = len(batch_output.model.feature_names)
        return total / n, np.zeros(d), np.zeros(d), violations
    dscale, dshift = batch_output.model.backward(batch_output.cache, dprobs_sum / n)
    return total / n, dscale, dshift, violations


def adapt(model, rules, test, config: AdaptationConfig):
    """Run the adaptation loop and return (adapted model, trace).

    Each iteration samples a seeded batch, computes the mean rule loss on
    the model's current outputs, and descends on (scale, shift) only when
    the loss is positive; the frozen linear layer is untouched. Raises
    DivergenceError with the partial trace if the loss or gradient goes
    non-finite, and ValueError if ``test`` already has a model output column.
    """
    work = model.copy()
    frozen = work.frozen_checksum()
    rng = np.random.default_rng(config.seed)
    n = test.n_rows
    replace = config.batch_size > n
    trace = []
    registry = None
    for it in range(config.iterations):
        rows = rng.choice(n, size=config.batch_size, replace=replace)
        try:
            out = forward_batch(work, test, rows)
            registry = registry or StatisticRegistry.from_dataset(out)
            loss, dscale, dshift, violations = total_loss_grad(
                rules, out, config.temperature, registry)
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
    out = forward_batch(model, dataset, rows)
    registry = StatisticRegistry.from_dataset(out)
    loss0, dscale, dshift, _ = total_loss_grad(rules, out, temperature, registry)
    if loss0 <= 0.0:
        raise ValueError("grad_check needs a batch with positive total loss")
    analytic = np.concatenate([dscale, dshift])

    def loss_at(scale, shift):
        probe = model.copy()
        probe.scale, probe.shift = scale, shift
        probed = forward_batch(probe, dataset, rows)
        return total_loss_grad(rules, probed, temperature, registry)[0]

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
