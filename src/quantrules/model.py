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

    def feature_matrix(self, dataset, rows=None):
        rows = np.arange(dataset.n_rows) if rows is None else np.asarray(rows, dtype=int)
        cols = []
        for name in self.feature_names:
            if not dataset.has_column(name):
                raise ValueError(f"model feature {name!r} not in dataset")
            cols.append(dataset.values(name)[rows])
        return np.stack(cols, axis=1)

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

    def predict_columns(self, dataset):
        """``output_columns`` of the model's probabilities on every row."""
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
        with open(Path(path), encoding="utf-8") as fh:
            obj = json.load(fh)
        model = cls(obj["features"], obj["classes"], obj["scale"], obj["shift"],
                    obj["weights"], obj["bias"])
        if tuple(obj.get("adaptable", ADAPTABLE)) != ADAPTABLE:
            raise ValueError(f"unsupported adaptable set {obj.get('adaptable')!r}")
        return model
