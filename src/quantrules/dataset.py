"""Tabular datasets: typed columns, bucket-derived boolean features, splits, minibatches.

Columns come in three kinds: ``boolean`` (values in {0, 1}), ``numeric``
(finite reals), and ``label`` (categorical strings, stored as a numpy ``str``
array whatever the input dtype). Missing cells are tracked per column in a
boolean mask; a missing row is excluded from any statistic that reads the
column but stays in the dataset.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParseError, TypeMismatchError

BOOLEAN = "boolean"
NUMERIC = "numeric"
LABEL = "label"
KINDS = (BOOLEAN, NUMERIC, LABEL)


@dataclass(frozen=True)
class FeatureSpec:
    """Ingestion rule for one source column.

    ``buckets=None`` keeps the column as-is; ``buckets=n`` replaces a numeric
    column with n boolean indicator features at equal-frequency edges.
    """

    source: str
    buckets: int | None = None

    def __post_init__(self):
        if self.buckets is not None and self.buckets < 2:
            raise ValueError(f"bucket count must be >= 2, got {self.buckets}")

    def derived_names(self) -> list[str]:
        if self.buckets is None:
            return [self.source]
        return [f"{self.source}__b{j}" for j in range(self.buckets)]


class Dataset:
    """Immutable rectangular table of typed columns.

    Safe for concurrent reads; all mutating-looking helpers return new
    instances. ``bucket_edges`` records the fitted edges of bucket-derived
    features so a held-out set can be bucketed identically, and ``sources``
    maps each derived indicator back to its source column (indicators from
    the same source are mutually exclusive).
    """

    def __init__(self, columns, values, missing=None, bucket_edges=None,
                 sources=None, origin=None):
        self._columns = [(str(n), str(k)) for n, k in columns]
        self._kinds = dict(self._columns)
        if len(self._kinds) != len(self._columns):
            raise ValueError("duplicate column names")
        for name, kind in self._columns:
            if kind not in KINDS:
                raise ValueError(f"unknown column kind {kind!r} for {name!r}")
        self._values = {}
        self._missing = dict(missing) if missing else {}
        n_rows = None
        for name, kind in self._columns:
            if name not in values:
                raise ValueError(f"no values for column {name!r}")
            if kind == LABEL:
                arr = np.asarray(values[name], dtype=str)
            else:
                arr = np.asarray(values[name], dtype=float)
            if arr.ndim != 1:
                raise ValueError(f"column {name!r} is not 1-dimensional")
            if n_rows is None:
                n_rows = arr.shape[0]
            elif arr.shape[0] != n_rows:
                raise ValueError(f"column {name!r} has {arr.shape[0]} rows, expected {n_rows}")
            mask = self._missing.get(name)
            if mask is not None:
                mask = np.asarray(mask, dtype=bool)
                if mask.shape != arr.shape:
                    raise ValueError(f"missing mask shape mismatch for {name!r}")
                self._missing[name] = mask
            present = ~mask if mask is not None else np.ones(arr.shape[0], dtype=bool)
            if kind == NUMERIC and not np.isfinite(arr[present]).all():
                raise ValueError(f"non-finite value in numeric column {name!r}")
            if kind == BOOLEAN:
                ok = np.isin(arr[present], (0.0, 1.0))
                if not ok.all():
                    raise ValueError(f"boolean column {name!r} contains values outside {{0, 1}}")
            self._values[name] = arr
        self.n_rows = n_rows if n_rows is not None else 0
        self.bucket_edges = dict(bucket_edges) if bucket_edges else {}
        self.sources = dict(sources) if sources else {}
        self.origin = origin

    # -- introspection -----------------------------------------------------

    @property
    def columns(self):
        return list(self._columns)

    @property
    def names(self):
        return [n for n, _ in self._columns]

    def kind(self, name) -> str:
        return self._kinds[name]

    def has_column(self, name) -> bool:
        return name in self._values

    def values(self, name) -> np.ndarray:
        return self._values[name]

    def missing(self, name) -> np.ndarray:
        mask = self._missing.get(name)
        if mask is None:
            return np.zeros(self.n_rows, dtype=bool)
        return mask

    def boolean_columns(self):
        return [n for n, k in self._columns if k == BOOLEAN]

    def numeric_columns(self):
        return [n for n, k in self._columns if k == NUMERIC]

    @property
    def label_column(self):
        for n, k in self._columns:
            if k == LABEL:
                return n
        return None

    # -- derivation --------------------------------------------------------

    def take(self, rows) -> "Dataset":
        rows = np.asarray(rows, dtype=int)
        values = {n: self._values[n][rows] for n in self._values}
        missing = {n: m[rows] for n, m in self._missing.items()}
        return Dataset(self._columns, values, missing, self.bucket_edges,
                       self.sources, self.origin)

    def with_columns(self, new_columns) -> "Dataset":
        """Append columns given as (name, kind, values[, missing]) tuples."""
        columns = list(self._columns)
        values = dict(self._values)
        missing = dict(self._missing)
        for entry in new_columns:
            name, kind, vals = entry[0], entry[1], entry[2]
            columns.append((name, kind))
            values[name] = vals
            if len(entry) > 3 and entry[3] is not None:
                missing[name] = entry[3]
        return Dataset(columns, values, missing, self.bucket_edges,
                       self.sources, self.origin)


@dataclass(frozen=True)
class Minibatch:
    """A view of ``size`` rows of a parent dataset."""

    dataset: Dataset
    rows: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=int)
        object.__setattr__(self, "rows", rows)
        if rows.ndim != 1 or rows.size == 0:
            raise ValueError("minibatch rows must be a nonempty 1-d index array")
        if rows.min() < 0 or rows.max() >= self.dataset.n_rows:
            raise ValueError("minibatch row index out of range")

    @property
    def size(self) -> int:
        return int(self.rows.size)


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


def bucket_edges(values, count) -> list:
    """Equal-frequency bucket edges: the j/count quantiles for j = 1..count-1."""
    if count < 2:
        raise ValueError(f"bucket count must be >= 2, got {count}")
    vals = np.asarray(values, dtype=float)
    if vals.size == 0:
        raise ValueError("cannot bucket empty values")
    return [percentile(vals, j / count) for j in range(1, count)]


def bucket_index(values, edges) -> np.ndarray:
    """Bucket membership with ties going to the lower bucket."""
    edges = np.asarray(edges, dtype=float)
    return np.searchsorted(edges, np.asarray(values, dtype=float), side="left")


def bucket_indicators(values, edges, count) -> np.ndarray:
    """(n, count) 0/1 matrix; exactly one indicator set per row."""
    idx = bucket_index(values, edges)
    out = np.zeros((len(idx), count))
    out[np.arange(len(idx)), idx] = 1.0
    return out


def _infer_kind(cells):
    """numeric unless a cell fails to parse; boolean when all values are 0/1."""
    parsed = []
    for cell in cells:
        try:
            parsed.append(float(cell))
        except ValueError:
            return LABEL, None
    if all(v in (0.0, 1.0) for v in parsed):
        return BOOLEAN, parsed
    return NUMERIC, parsed


def load_table(path, specs=None, edges=None) -> Dataset:
    """Load a comma-separated table with a header row.

    ``specs`` selects and derives columns; None passes every column through.
    Empty cells are missing. ``edges`` supplies pre-fitted bucket edges
    (e.g. from the training set) keyed by source column; without them edges
    are fitted on the file's own values.
    """
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file, expected a header row")
        header = [h.strip() for h in header]
        raw_rows = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ParseError(
                    f"{path}: row has {len(row)} fields, expected {len(header)}",
                    line=lineno,
                )
            raw_rows.append(row)

    if specs is None:
        specs = [FeatureSpec(name) for name in header]
    for spec in specs:
        if spec.source not in header:
            raise ParseError(f"{path}: column {spec.source!r} not in header")

    col_idx = {name: i for i, name in enumerate(header)}
    n = len(raw_rows)

    columns, values, missing, fitted, sources = [], {}, {}, {}, {}
    for spec in specs:
        cells = [row[col_idx[spec.source]].strip() for row in raw_rows]
        present = np.array([c != "" for c in cells], dtype=bool)

        if spec.buckets is None:
            kind, parsed = _infer_kind([c for c in cells if c != ""])
            if kind == LABEL:
                arr = np.array(cells, dtype=str)
            else:
                arr = np.zeros(n)
                it = iter(parsed)
                for i in range(n):
                    if present[i]:
                        arr[i] = next(it)
            columns.append((spec.source, kind))
            values[spec.source] = arr
            if not present.all():
                missing[spec.source] = ~present
            continue

        # bucket derivation requires a numeric source
        raw = np.zeros(n)
        for i, cell in enumerate(cells):
            if not present[i]:
                continue
            try:
                raw[i] = float(cell)
            except ValueError:
                raise TypeMismatchError(
                    f"{path}: non-numeric value {cell!r} in bucketed column "
                    f"{spec.source!r} (line {i + 2})"
                )
        if edges and spec.source in edges:
            col_edges = list(edges[spec.source])
        else:
            if not present.any():
                raise TypeMismatchError(
                    f"{path}: cannot fit bucket edges for all-missing column {spec.source!r}")
            col_edges = bucket_edges(raw[present], spec.buckets)
        fitted[spec.source] = col_edges
        indicators = bucket_indicators(raw, col_edges, spec.buckets)
        indicators[~present] = 0.0
        for j, name in enumerate(spec.derived_names()):
            columns.append((name, BOOLEAN))
            values[name] = indicators[:, j]
            sources[name] = spec.source
            if not present.all():
                missing[name] = ~present

    return Dataset(columns, values, missing, fitted, sources, origin=str(path))


def split(dataset, fractions, seed):
    """Seeded (train, valid, test) partition; floor-rounded, remainder to train."""
    fractions = tuple(float(f) for f in fractions)
    if len(fractions) != 3:
        raise ValueError("expected three fractions")
    if any(not 0.0 < f < 1.0 for f in fractions):
        raise ValueError(f"fractions must each lie in (0, 1), got {fractions}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got {sum(fractions)}")
    n = dataset.n_rows
    n_valid = int(np.floor(fractions[1] * n))
    n_test = int(np.floor(fractions[2] * n))
    n_train = n - n_valid - n_test
    perm = np.random.default_rng(seed).permutation(n)
    return (
        dataset.take(perm[:n_train]),
        dataset.take(perm[n_train:n_train + n_valid]),
        dataset.take(perm[n_train + n_valid:]),
    )


def sample_minibatches(dataset, batch_size, count, seed):
    """Draw ``count`` seeded minibatches of ``batch_size`` rows.

    Rows within a batch are drawn without replacement when the dataset is
    large enough, with replacement otherwise; batches are independent draws.
    """
    if batch_size < 1 or count < 1:
        raise ValueError("batch_size and count must be positive")
    if dataset.n_rows == 0:
        raise ValueError("cannot sample from an empty dataset")
    rng = np.random.default_rng(seed)
    replace = batch_size > dataset.n_rows
    return [
        Minibatch(dataset, rng.choice(dataset.n_rows, size=batch_size, replace=replace))
        for _ in range(count)
    ]
