"""A small differentiable classifier with an adaptable normalization layer.

The forward map is softmax(V.T @ (scale * x + shift) + bias). Only the
per-feature scale and shift (the normalization layer) are adaptable at
test time; the linear weights and bias stay frozen, mirroring the usual
practice of fine-tuning only normalization parameters.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from . import dataset as ds_mod
from .errors import ParseError, TypeMismatchError

ADAPTABLE = ("scale", "shift")


def _softmax(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


class SoftmaxModel:
    def __init__(self, feature_names, class_names, scale, shift, weights, bias):
        self.feature_names = list(feature_names)
        self.class_names = list(class_names)
        self.scale = np.asarray(scale, dtype=float).copy()
        self.shift = np.asarray(shift, dtype=float).copy()
        self.weights = np.asarray(weights, dtype=float).copy()
        self.bias = np.asarray(bias, dtype=float).copy()
        d, c = len(self.feature_names), len(self.class_names)
        if len(set(self.class_names)) != c:  # each class names a score column
            raise ValueError(f"duplicate class names in {self.class_names}")
        if self.scale.shape != (d,) or self.shift.shape != (d,):
            raise ValueError("scale/shift must have one entry per feature")
        if self.weights.shape != (d, c) or self.bias.shape != (c,):
            raise ValueError(f"weights must be ({d}, {c}) and bias ({c},)")

    # -- construction --------------------------------------------------------

    @classmethod
    def standardized(cls, feature_names, class_names, X):
        """Initialize the normalization layer from training feature moments."""
        X = np.asarray(X, dtype=float)
        mu = X.mean(axis=0)
        sd = X.std(axis=0)
        sd[sd == 0.0] = 1.0
        d, c = X.shape[1], len(class_names)
        return cls(feature_names, class_names,
                   scale=1.0 / sd, shift=-mu / sd,
                   weights=np.zeros((d, c)), bias=np.zeros(c))

    def fit(self, X, y_index, learning_rate=0.5, iterations=500, weight_decay=0.0):
        """Full-batch gradient descent on (optionally ridge-penalized)
        cross-entropy; trains only the frozen half (weights, bias), leaving
        the normalization layer at its initialization."""
        X = np.asarray(X, dtype=float)
        y = np.asarray(y_index, dtype=int)
        onehot = np.zeros((X.shape[0], len(self.class_names)))
        onehot[np.arange(X.shape[0]), y] = 1.0
        for _ in range(iterations):
            probs, cache = self.forward(X)
            err = (probs - onehot) / X.shape[0]
            grad_w = cache["z"].T @ err + weight_decay * self.weights
            self.weights -= learning_rate * grad_w
            self.bias -= learning_rate * err.sum(axis=0)
        return self

    # -- forward / backward ----------------------------------------------------

    def forward(self, X):
        """Per-class probabilities (rows sum to 1) plus the backprop cache.

        Overflowing inputs yield NaN probabilities rather than warnings;
        callers decide whether that is a divergence.
        """
        X = np.asarray(X, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            z = X * self.scale + self.shift
            probs = _softmax(z @ self.weights + self.bias)
        return probs, {"X": X, "z": z, "probs": probs}

    def backward(self, cache, dprobs):
        """Gradients of a scalar loss wrt (scale, shift) given d loss / d probs."""
        probs = cache["probs"]
        inner = (dprobs * probs).sum(axis=1, keepdims=True)
        dlogits = probs * (dprobs - inner)
        dz = dlogits @ self.weights.T
        dscale = (dz * cache["X"]).sum(axis=0)
        dshift = dz.sum(axis=0)
        return dscale, dshift

    # -- dataset integration ---------------------------------------------------

    def feature_matrix(self, dataset):
        """The (rows, features) float64 matrix of the model's feature columns
        of ``dataset``; boolean columns read as 0/1. Raises, naming the
        dataset's file and the column, ValueError for an absent column or a
        missing cell, with the first such row (rows count from 0), and
        TypeMismatchError for a column that holds text."""
        where = f"{dataset.origin}: " if dataset.origin else ""
        cols = []
        for name in self.feature_names:
            if not dataset.has_column(name):
                raise ValueError(f"{where}model feature {name!r} not in dataset")
            if dataset.kind(name) == ds_mod.LABEL:
                raise TypeMismatchError(f"{where}model feature {name!r} holds text")
            missing = np.flatnonzero(dataset.missing(name))
            if missing.size:
                raise ValueError(f"{where}model feature {name!r} has a missing cell, "
                                 f"first in row {missing[0]} (rows count from 0)")
            cols.append(dataset.values(name))
        return np.stack(cols, axis=1).astype(float, copy=False)

    def score_column(self, class_name) -> str:
        return f"score_{class_name}"

    def output_columns(self, probs):
        """Column tuples for appending: a score per class from ``probs`` plus
        the argmax prediction ``pred``."""
        out = [(self.score_column(c), ds_mod.NUMERIC, probs[:, j])
               for j, c in enumerate(self.class_names)]
        pred = np.asarray(self.class_names, dtype=str)[probs.argmax(axis=1)]
        out.append(("pred", ds_mod.LABEL, pred))
        return out

    def check_outputs_absent(self, table):
        """Raise ValueError, naming ``table``'s file and the column, if the
        table already has a column that ``output_columns`` adds."""
        for name in [self.score_column(c) for c in self.class_names] + ["pred"]:
            if table.has_column(name):
                where = f"{table.origin}: " if table.origin else ""
                raise ValueError(f"{where}data already carries model output column {name!r}")

    def predict_columns(self, dataset):
        """``output_columns`` of the model's probabilities on every row, for a
        dataset that has none of them (see ``check_outputs_absent``)."""
        self.check_outputs_absent(dataset)
        probs, _ = self.forward(self.feature_matrix(dataset))
        return self.output_columns(probs)

    # -- persistence -------------------------------------------------------------

    def copy(self) -> "SoftmaxModel":
        return SoftmaxModel(self.feature_names, self.class_names, self.scale,
                            self.shift, self.weights, self.bias)

    def frozen_checksum(self) -> str:
        h = hashlib.sha256()
        h.update(self.weights.tobytes())
        h.update(self.bias.tobytes())
        return h.hexdigest()

    def save(self, path):
        obj = {
            "features": self.feature_names,
            "classes": self.class_names,
            "scale": list(self.scale),
            "shift": list(self.shift),
            "weights": [list(row) for row in self.weights],
            "bias": list(self.bias),
            "adaptable": list(ADAPTABLE),
        }
        with open(Path(path), "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "SoftmaxModel":
        """Read a checkpoint written by ``save``. Invalid JSON, a missing or
        unknown field, a name list that is not a list of distinct strings, an
        adaptable set other than (scale, shift), and a parameter that is not an
        array of finite numbers of its shape raise ParseError naming the file
        and the field."""
        path = Path(path)
        with open(path, encoding="utf-8") as fh:
            try:
                obj = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{path}: invalid JSON: {exc.msg}", line=exc.lineno)
        if not isinstance(obj, dict):
            raise ParseError(f"{path}: expected a JSON object")
        fields = ("features", "classes", "scale", "shift", "weights", "bias")
        for key in fields:
            if key not in obj:
                raise ParseError(f"{path}: missing field {key!r}")
        for key in obj:
            if key not in fields + ("adaptable",):
                raise ParseError(f"{path}: unknown field {key!r}")
        for key in ("features", "classes"):
            names = obj[key]
            if not (isinstance(names, list) and all(isinstance(n, str) for n in names)
                    and len(set(names)) == len(names)):
                raise ParseError(f"{path}: field {key!r} must be a list of distinct names")
        if obj.get("adaptable", list(ADAPTABLE)) != list(ADAPTABLE):
            raise ParseError(f"{path}: field 'adaptable' must be {list(ADAPTABLE)}, "
                             f"got {obj['adaptable']!r}")
        d, c = len(obj["features"]), len(obj["classes"])
        params = {}
        for key, shape in (("scale", (d,)), ("shift", (d,)), ("weights", (d, c)),
                           ("bias", (c,))):
            try:
                arr = np.asarray(obj[key])
            except ValueError:  # ragged nesting
                arr = None
            if arr is None or arr.dtype.kind not in "iuf" or arr.shape != shape:
                raise ParseError(f"{path}: field {key!r} must be numbers of shape {shape}")
            if not np.isfinite(arr).all():
                raise ParseError(f"{path}: field {key!r} has a non-finite value")
            params[key] = arr
        return cls(obj["features"], obj["classes"], **params)
