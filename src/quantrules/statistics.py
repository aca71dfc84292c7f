"""Sample- and minibatch-level statistics.

A statistic is either per-sample (column reads, bounding-box geometry) or
per-minibatch (mean/std summaries of a column, the F1 score of a boolean
implication). Per-sample statistics lift to a minibatch element-wise; rows
with a missing required cell are skipped and reported to the caller.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dataset as ds_mod
from .dataset import Dataset, Minibatch
from .errors import EmptyStatisticError, ParseError, ResolutionError, TypeMismatchError

PER_SAMPLE = "sample"
PER_BATCH = "batch"

BOX_COLUMNS = ("x_min", "y_min", "x_max", "y_max")
BOX_FIELDS = ("aspect_ratio", "width", "height", "area", "center_x", "bottom_y")


@dataclass(frozen=True)
class Statistic:
    name: str
    arity: str
    kind: str  # "column" | "box" | "summary" | "formula"
    column: str | None = None
    summary: str | None = None
    box_field: str | None = None


@dataclass(frozen=True)
class BoxRecord:
    """One labelled bounding box in pixel coordinates."""

    label: str
    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        coords = (self.x_min, self.y_min, self.x_max, self.y_max)
        if not all(np.isfinite(c) and c >= 0 for c in coords):
            raise ValueError(f"box coordinates must be finite and >= 0, got {coords}")
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError(f"degenerate box {coords}")


class StatisticRegistry:
    """Immutable name -> Statistic mapping, shareable across workers."""

    def __init__(self, statistics):
        self._stats = {}
        for stat in statistics:
            if stat.name in self._stats:
                raise ValueError(f"duplicate statistic name {stat.name!r}")
            self._stats[stat.name] = stat

    @property
    def names(self):
        return sorted(self._stats)

    def resolve(self, name) -> Statistic:
        try:
            return self._stats[name]
        except KeyError:
            raise ResolutionError(
                f"unknown statistic {name!r}; known statistics: " + ", ".join(self.names))

    @classmethod
    def from_dataset(cls, dataset: Dataset) -> "StatisticRegistry":
        stats = [Statistic("f1", PER_BATCH, "formula")]
        for name in dataset.names:
            kind = dataset.kind(name)
            if kind == ds_mod.LABEL:
                continue
            stats.append(Statistic(name, PER_SAMPLE, "column", column=name))
            stats.append(Statistic(f"mean({name})", PER_BATCH, "summary",
                                   column=name, summary="mean"))
            stats.append(Statistic(f"std({name})", PER_BATCH, "summary",
                                   column=name, summary="std"))
        if all(dataset.has_column(c) for c in BOX_COLUMNS):
            for field in BOX_FIELDS:
                stats.append(Statistic(field, PER_SAMPLE, "box", box_field=field))
        return cls(stats)


def _require_column(dataset, name):
    if not dataset.has_column(name):
        raise ResolutionError(f"column {name!r} not present in dataset")


def _box_values(dataset, rows, field):
    for c in BOX_COLUMNS:
        _require_column(dataset, c)
    x0 = dataset.values("x_min")[rows]
    y0 = dataset.values("y_min")[rows]
    x1 = dataset.values("x_max")[rows]
    y1 = dataset.values("y_max")[rows]
    if field == "width":
        return x1 - x0
    if field == "height":
        return y1 - y0
    if field == "aspect_ratio":
        return (x1 - x0) / (y1 - y0)
    if field == "area":
        return (x1 - x0) * (y1 - y0)
    if field == "center_x":
        return (x0 + x1) / 2.0
    if field == "bottom_y":
        return y1
    raise ValueError(f"unknown box field {field!r}")


def sample_values_aligned(stat, dataset, rows):
    """Per-sample values aligned with ``rows`` plus a validity mask.

    Invalid positions (missing cells) hold zeros and are marked False;
    ``rows`` may contain duplicates, so alignment is positional.
    """
    rows = np.asarray(rows, dtype=int)
    if stat.arity != PER_SAMPLE:
        raise TypeMismatchError(f"statistic {stat.name!r} is not per-sample")
    if stat.kind == "column":
        _require_column(dataset, stat.column)
        valid = ~dataset.missing(stat.column)[rows]
        return dataset.values(stat.column)[rows], valid
    if stat.kind == "box":
        valid = np.ones(rows.size, dtype=bool)
        for c in BOX_COLUMNS:
            _require_column(dataset, c)
            valid &= ~dataset.missing(c)[rows]
        vals = np.zeros(rows.size)
        vals[valid] = _box_values(dataset, rows[valid], stat.box_field)
        return vals, valid
    raise TypeMismatchError(f"statistic {stat.name!r} has no per-sample evaluator")


def sample_values(stat, dataset, rows):
    """Per-sample values over ``rows`` plus the row ids that were usable."""
    rows = np.asarray(rows, dtype=int)
    vals, valid = sample_values_aligned(stat, dataset, rows)
    return vals[valid], rows[valid]


def batch_value(stat, dataset, rows):
    """Scalar minibatch statistic, or None when no row was usable."""
    rows = np.asarray(rows, dtype=int)
    if stat.arity != PER_BATCH:
        raise TypeMismatchError(f"statistic {stat.name!r} is not per-minibatch")
    if stat.kind == "summary":
        base = Statistic(stat.column, PER_SAMPLE, "column", column=stat.column)
        vals, _ = sample_values(base, dataset, rows)
        if vals.size == 0:
            return None
        return float(vals.mean()) if stat.summary == "mean" else float(vals.std())
    raise TypeMismatchError(f"statistic {stat.name!r} has no per-minibatch evaluator")


def eval_statistic(stat, batch: Minibatch):
    """Evaluate a statistic on a minibatch.

    Per-sample statistics return one value per usable row; minibatch
    statistics return a single float. Raises EmptyStatisticError when no
    row is usable.
    """
    if stat.arity == PER_SAMPLE:
        vals, _ = sample_values(stat, batch.dataset, batch.rows)
        if vals.size == 0:
            raise EmptyStatisticError(f"statistic {stat.name!r}: every row was missing")
        return vals
    value = batch_value(stat, batch.dataset, batch.rows)
    if value is None:
        raise EmptyStatisticError(f"statistic {stat.name!r}: every row was missing")
    return float(value)


def match_class(dataset, rows, column, class_value):
    """Bool mask of the ``rows`` whose ``column`` equals ``class_value``, read
    as a string for a label column and as a number for any other column."""
    _require_column(dataset, column)
    if dataset.kind(column) == ds_mod.LABEL:
        target = str(class_value)
    else:
        try:
            target = float(class_value)
        except (TypeError, ValueError):
            raise TypeMismatchError(
                f"class value {class_value!r} does not match numeric column {column!r}")
    return dataset.values(column)[rows] == target


def antecedent_values(formula, dataset, rows):
    """Conjunction truth of a formula's literals, aligned with ``rows``.

    Returns (antecedent 0/1 vector, usable mask); rows missing any literal
    cell are unusable.
    """
    rows = np.asarray(rows, dtype=int)
    usable = np.ones(rows.size, dtype=bool)
    antecedent = np.ones(rows.size)
    for lit in formula.literals:
        _require_column(dataset, lit.feature)
        if dataset.kind(lit.feature) != ds_mod.BOOLEAN:
            raise TypeMismatchError(
                f"literal {lit.feature!r} refers to a non-boolean column")
        usable &= ~dataset.missing(lit.feature)[rows]
        vals = dataset.values(lit.feature)[rows]
        antecedent *= (1.0 - vals) if lit.negated else vals
    return antecedent, usable


def formula_parts(formula, dataset, rows, label_column):
    """Hard antecedent and consequent vectors aligned with ``rows``, plus the
    usable mask: rows missing a literal or label cell are unusable."""
    rows = np.asarray(rows, dtype=int)
    antecedent, usable = antecedent_values(formula, dataset, rows)
    usable &= ~dataset.missing(label_column)[rows]
    consequent = match_class(dataset, rows, label_column, formula.consequent)
    return antecedent, consequent, usable


def f1_score(formula, dataset, rows, label_column):
    """Exact F1 of an implication over a batch; 0 on a zero denominator.

    Returns None when every row of the batch is missing a required cell.
    """
    antecedent, consequent, usable = formula_parts(formula, dataset, rows, label_column)
    return exact_f1(antecedent[usable], consequent[usable])


def exact_f1(antecedent, consequent):
    """F1 of hard 0/1 vectors; 0 on a zero denominator, None when empty.

    The antecedent is the predicted-positive set and the consequent the
    actual-positive set: tp counts rows where both hold.
    """
    if antecedent.size == 0:
        return None
    tp = float((antecedent * consequent).sum())
    denom = float(antecedent.sum() + consequent.sum())  # == 2tp + fp + fn
    if denom == 0.0:
        return 0.0
    return 2.0 * tp / denom


def sigmoid(x):
    """Numerically stable logistic; exact at +-inf."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def soften_scores(scores, temperature):
    """Sharpen or smooth probabilities through a temperature-scaled sigmoid.

    Maps s -> sigmoid(logit(s) / T). T=1 is the identity; T -> 0 hardens at
    the 0.5 threshold; scores that are exactly 0 or 1 stay exact.
    """
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    s = np.asarray(scores, dtype=float)
    if s.size and (s.min() < 0.0 or s.max() > 1.0):
        raise ValueError("scores must lie in [0, 1]")
    with np.errstate(divide="ignore"):
        logits = np.log(s) - np.log1p(-s)
    return sigmoid(logits / temperature)


def surrogate_f1(antecedent, scores, temperature=1.0):
    """Differentiable F1 with softened consequent scores.

    The hard confusion counts are relaxed through soften_scores, keeping
    tp = sum(a * c) and denominator sum(a) + sum(c). Converges to the exact
    F1 of the thresholded scores as temperature -> 0.
    """
    value, _ = surrogate_f1_grad(antecedent, scores, temperature)
    return value


def surrogate_f1_grad(antecedent, scores, temperature=1.0):
    """Surrogate F1 and its gradient with respect to the raw scores."""
    a = np.asarray(antecedent, dtype=float)
    s = np.asarray(scores, dtype=float)
    c = soften_scores(s, temperature)
    tp = float((a * c).sum())
    denom = float(a.sum() + c.sum())
    if denom == 0.0:
        return 0.0, np.zeros_like(s)
    value = 2.0 * tp / denom
    dvalue_dc = (2.0 * a - value) / denom
    # chain through c = sigmoid(logit(s)/T); zero at saturated scores
    interior = (s > 0.0) & (s < 1.0)
    dc_ds = np.zeros_like(s)
    dc_ds[interior] = (c[interior] * (1.0 - c[interior])
                       / (temperature * s[interior] * (1.0 - s[interior])))
    return value, dvalue_dc * dc_ds


def load_boxes(path) -> Dataset:
    """Read a JSON array of box predictions into a dataset.

    Each object carries label, x_min, y_min, x_max, y_max and an optional
    score; geometry is validated via BoxRecord.
    """
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        try:
            records = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON: {exc.msg}", line=exc.lineno)
    if not isinstance(records, list):
        raise ParseError(f"{path}: expected a JSON array of box objects")
    labels, coords, scores, score_missing = [], [], [], []
    for i, rec in enumerate(records):
        try:
            box = BoxRecord(str(rec["label"]), float(rec["x_min"]), float(rec["y_min"]),
                            float(rec["x_max"]), float(rec["y_max"]))
            score = rec.get("score")
            scores.append(0.0 if score is None else float(score))
        except KeyError as exc:
            raise ParseError(f"{path}: box object at index {i} has no key {exc}")
        except (TypeError, ValueError) as exc:
            raise ParseError(f"{path}: bad box object at index {i}: {exc}")
        labels.append(box.label)
        coords.append((box.x_min, box.y_min, box.x_max, box.y_max))
        score_missing.append(score is None)
    coords = np.asarray(coords, dtype=float).reshape(len(records), 4)
    columns = [("label", ds_mod.LABEL)] + [(c, ds_mod.NUMERIC) for c in BOX_COLUMNS]
    values = {"label": np.array(labels, dtype=str)}
    for j, c in enumerate(BOX_COLUMNS):
        values[c] = coords[:, j]
    missing = {}
    if any(score_missing):
        missing["score"] = np.array(score_missing)
    columns.append(("score", ds_mod.NUMERIC))
    values["score"] = np.array(scores)
    return Dataset(columns, values, missing, origin=str(path))
