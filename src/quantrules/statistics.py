"""Sample- and minibatch-level statistics.

A statistic is either per-sample (column reads, bounding-box geometry) or
per-minibatch (mean/std summaries of a column, the F1 score of a boolean
implication). Per-sample statistics lift to a minibatch element-wise; rows
with a missing required cell are skipped and reported to the caller.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from pathlib import Path

import numpy as np

from . import dataset as ds_mod
from .dataset import Dataset
from .errors import ParseError, ResolutionError, TypeMismatchError

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


class StatisticRegistry:
    """Immutable name -> Statistic mapping."""

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
        # a flat box's ratio is inf and a point box's is 0 / 0 = NaN, which
        # lies outside every interval
        with np.errstate(divide="ignore", invalid="ignore"):
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

    ``rows`` is an index array of any shape, e.g. one minibatch or a
    (count, size) matrix of them, and may repeat rows: both results have
    its shape. Invalid positions (missing cells) hold zeros and are marked
    False. Values are float64, a boolean column's included.
    """
    rows = np.asarray(rows, dtype=int)
    if stat.arity != PER_SAMPLE:
        raise TypeMismatchError(f"statistic {stat.name!r} is not per-sample")
    if stat.kind == "column":
        _require_column(dataset, stat.column)
        valid = ~dataset.missing(stat.column)[rows]
        # a boolean column's cells read as the numbers 0.0 and 1.0
        return dataset.values(stat.column)[rows].astype(float, copy=False), valid
    if stat.kind == "box":
        valid = np.ones(rows.shape, dtype=bool)
        for c in BOX_COLUMNS:
            _require_column(dataset, c)
            valid &= ~dataset.missing(c)[rows]
        vals = np.zeros(rows.shape)
        vals[valid] = _box_values(dataset, rows[valid], stat.box_field)
        return vals, valid
    raise TypeMismatchError(f"statistic {stat.name!r} has no per-sample evaluator")


def summarize(stat, values):
    """A summary statistic (mean or std) of a nonempty 1-d value array."""
    return float(values.mean()) if stat.summary == "mean" else float(values.std())


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


def literal_cells(lit, dataset, rows):
    """A literal's truth at ``rows`` as a bool array, the column's cells or,
    for a negated literal, their complement, and the mask of its present
    cells. A missing cell's truth is meaningless.

    Raises ResolutionError for an absent column and TypeMismatchError, naming
    the dataset's file, for a column that is not boolean.
    """
    _require_column(dataset, lit.feature)
    if dataset.kind(lit.feature) != ds_mod.BOOLEAN:
        where = f"{dataset.origin}: " if dataset.origin else ""
        raise TypeMismatchError(
            f"{where}literal {lit.feature!r} refers to a non-boolean column")
    vals = dataset.values(lit.feature)[rows]
    return ~vals if lit.negated else vals, ~dataset.missing(lit.feature)[rows]


def f1_from_counts(tp, predicted, consequent):
    """F1 from integer counts of true positives, predicted positives and
    actual positives; 0 where there are neither predicted nor actual ones."""
    return 2.0 * tp / np.maximum(predicted + consequent, 1)  # == 2tp + fp + fn


def sigmoid(x):
    """Numerically stable logistic; exact at +-inf."""
    x = np.asarray(x, dtype=float)
    ex = np.exp(-np.abs(x))  # exp(-x) at x >= 0, exp(x) below: never overflows
    return np.where(x >= 0, 1.0 / (1.0 + ex), ex / (1.0 + ex))


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


def soften_grad(scores, temperature):
    """``soften_scores`` of ``scores`` and its derivative d soft / d score,
    element-wise. The derivative is 0 at saturated scores (exactly 0 or 1)
    and wherever c (1 - c) is 0, its limit for T < 1."""
    s = np.asarray(scores, dtype=float)
    c = soften_scores(s, temperature)
    # chain through c = sigmoid(logit(s)/T). c (1 - c) is 0 at saturated
    # scores, which soften_scores keeps exact, and at a subnormal score for
    # T < 1, where T s (1 - s) is 0 too; the derivative is 0 there
    spread = c * (1.0 - c)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = spread / (temperature * s * (1.0 - s))
    return c, np.where(spread > 0.0, ratio, 0.0)


def load_boxes(path) -> Dataset:
    """Read a JSON array of box predictions into a dataset.

    Each object carries label, x_min, y_min, x_max, y_max and an optional
    score. Coordinates must be finite and >= 0 with x_min < x_max and
    y_min < y_max, and a score must be finite. An object that cannot be read
    is reported before any bad value; among the rest, the first box with
    bad geometry or a non-finite score is named.
    """
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        try:
            records = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON: {exc.msg}", line=exc.lineno)
    if not isinstance(records, list):
        raise ParseError(f"{path}: expected a JSON array of box objects")
    # Read by key into columns. np.fromiter takes one value float() refuses:
    # None, as NaN. On a NaN coordinate, or on any error, the objects are
    # read again one by one to name the first fault.
    n = len(records)
    try:
        labels = [str(label) for label in map(itemgetter("label"), records)]
        coords = np.fromiter(chain.from_iterable(map(itemgetter(*BOX_COLUMNS), records)),
                             dtype=float, count=4 * n).reshape(n, 4)
        raw_scores = [rec.get("score") for rec in records]
        scores = np.fromiter((0.0 if s is None else s for s in raw_scores),
                             dtype=float, count=n)
        reread = bool(np.isnan(coords).any())
    except (KeyError, TypeError, ValueError, OverflowError):
        reread = True
    if reread:
        labels, coords, scores, raw_scores = _read_box_objects(path, records)
    in_range = (np.isfinite(coords) & (coords >= 0)).all(axis=1)
    proper = (coords[:, 0] < coords[:, 2]) & (coords[:, 1] < coords[:, 3])
    bad = np.flatnonzero(~(in_range & proper & np.isfinite(scores)))
    if bad.size:
        i = int(bad[0])
        box = tuple(coords[i].tolist())
        if not in_range[i]:
            reason = f"box coordinates must be finite and >= 0, got {box}"
        elif not proper[i]:
            reason = f"degenerate box {box}"
        else:
            reason = f"score must be finite, got {float(scores[i])!r}"
        raise ParseError(f"{path}: bad box object at index {i}: {reason}")
    columns = [("label", ds_mod.LABEL)] + [(c, ds_mod.NUMERIC) for c in BOX_COLUMNS]
    values = {"label": np.array(labels, dtype=str)}
    for j, c in enumerate(BOX_COLUMNS):
        values[c] = coords[:, j]
    missing = {}
    score_missing = np.array([score is None for score in raw_scores], dtype=bool)
    if score_missing.any():
        missing["score"] = score_missing
    columns.append(("score", ds_mod.NUMERIC))
    values["score"] = scores
    return Dataset(columns, values, missing, origin=str(path))


def _read_box_objects(path, records):
    """load_boxes' columns read object by object, raising ParseError for the
    first object that cannot be read: its missing key, or the value that
    float() refuses (None, a non-numeric string, a list...)."""
    labels, coords, scores, raw_scores = [], [], [], []
    for i, rec in enumerate(records):
        try:
            labels.append(str(rec["label"]))
            coords.append([float(rec[c]) for c in BOX_COLUMNS])
            score = rec.get("score")
            scores.append(0.0 if score is None else float(score))
        except KeyError as exc:
            raise ParseError(f"{path}: box object at index {i} has no key {exc}")
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"{path}: bad box object at index {i}: {exc}")
        raw_scores.append(score)
    return (labels, np.array(coords, dtype=float).reshape(len(records), 4),
            np.array(scores, dtype=float), raw_scores)
