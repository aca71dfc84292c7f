"""Tabular datasets: typed columns, bucket-derived boolean features, splits, minibatches.

Columns come in three kinds: ``boolean`` (values in {0, 1}, stored as a
numpy ``bool`` array, one byte a cell, whether given as bool, int or float),
``numeric`` (finite reals, stored as float64), and ``label`` (categorical
strings, stored as a numpy ``str`` array whatever the input dtype). Missing
cells are tracked per column in a boolean mask; a missing row is excluded
from any statistic that reads the column but stays in the dataset.
"""
from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .errors import ParseError

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
            elif kind == BOOLEAN:
                arr = np.asarray(values[name])
                if arr.dtype != bool:
                    arr = np.asarray(arr, dtype=float)
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
            if kind == BOOLEAN and arr.dtype != bool:
                # not np.isin, which on a column of no rows sorts through
                # np.unique and so imports numpy.ma, about 1 MB
                cells = arr[present]
                if not ((cells == 0.0) | (cells == 1.0)).all():
                    raise ValueError(f"boolean column {name!r} contains values outside {{0, 1}}")
                arr = arr == 1.0
            self._values[name] = arr
        self.n_rows = n_rows if n_rows is not None else 0
        self._none_missing = np.zeros(self.n_rows, dtype=bool)
        self._none_missing.flags.writeable = False
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
        """Missing-cell mask of a column; read-only when no cell is missing."""
        return self._missing.get(name, self._none_missing)

    def boolean_columns(self):
        return [n for n, k in self._columns if k == BOOLEAN]

    @property
    def label_column(self):
        for n, k in self._columns:
            if k == LABEL:
                return n
        return None

    # -- derivation --------------------------------------------------------

    def take(self, rows) -> "Dataset":
        """The table of ``rows``; columns that share a missing mask (the
        indicators of one bucketed source) share one taken mask."""
        rows = np.asarray(rows, dtype=int)
        values = {n: self._values[n][rows] for n in self._values}
        taken = {}  # id of a mask -> the mask at rows
        for m in self._missing.values():
            if id(m) not in taken:
                taken[id(m)] = m[rows]
        missing = {n: taken[id(m)] for n, m in self._missing.items()}
        return Dataset(self._columns, values, missing, self.bucket_edges,
                       self.sources, self.origin)

    def with_columns(self, new_columns) -> "Dataset":
        """Append columns without missing cells, given as (name, kind, values)."""
        columns = list(self._columns)
        values = dict(self._values)
        for name, kind, vals in new_columns:
            columns.append((name, kind))
            values[name] = vals
        return Dataset(columns, values, self._missing, self.bucket_edges,
                       self.sources, self.origin)


def checked_rows(dataset, rows):
    """``rows`` as an int index array; raises ValueError unless it is
    nonempty and every index is a row of ``dataset``."""
    rows = np.asarray(rows, dtype=int)
    if rows.size == 0:
        raise ValueError("rows must be a nonempty index array")
    if rows.min() < 0 or rows.max() >= dataset.n_rows:
        raise ValueError("row index out of range")
    return rows


def sorted_percentiles(rows, q):
    """The linear-interpolation percentile at q in [0, 1] of each row of
    ``rows``, an (R, n) matrix sorted along its rows: at rank h = q*(n-1),
    v[i] + (h - i) * (v[i+1] - v[i]) with i = floor(h), evaluated
    element-wise on whole columns, so q=0 gives a row's minimum and q=1 its
    maximum."""
    n = rows.shape[1]
    h = q * (n - 1)
    i = math.floor(h)
    if i + 1 >= n:
        return rows[:, -1]
    return rows[:, i] + (h - i) * (rows[:, i + 1] - rows[:, i])


def bucket_edges(values, count) -> list:
    """Equal-frequency bucket edges: the j/count percentiles for j = 1..count-1,
    from one sort of the values."""
    if count < 2:
        raise ValueError(f"bucket count must be >= 2, got {count}")
    vals = np.sort(np.asarray(values, dtype=float))[None, :]
    if vals.size == 0:
        raise ValueError("cannot bucket empty values")
    if np.isnan(vals[0, -1]):  # NaN sorts last
        raise ValueError("percentile input contains NaN")
    return [float(sorted_percentiles(vals, j / count)[0]) for j in range(1, count)]


def bucket_index(values, edges) -> np.ndarray:
    """Bucket membership with ties going to the lower bucket."""
    edges = np.asarray(edges, dtype=float)
    return np.searchsorted(edges, np.asarray(values, dtype=float), side="left")


def bucket_indicators(values, edges, count) -> np.ndarray:
    """(count, n) bool matrix: row j is the indicator of bucket j, so each
    indicator is contiguous; exactly one row is set in each column."""
    return bucket_index(values, edges) == np.arange(count)[:, None]


def _is_number(cell):
    """True when numpy parses ``cell`` as a float, as it parses a block."""
    try:
        np.array([cell], dtype=float)
    except ValueError:
        return False
    return True


def _joined(parts, dtype):
    """One array of the parts, in order; the part itself when there is one."""
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts) if parts else np.zeros(0, dtype=dtype)


class _Column:
    """One source column of a table, parsed block by block as it is read:
    a float64 part (0 at an empty cell) and a present mask per block while
    every cell is a number or empty, the stripped cells once one is not.
    Faults are held, not raised, so that a record fault later in the file
    is raised first."""

    def __init__(self, text=False):
        self.values, self.present = [], []
        self.text = [] if text else None
        self.reread = False  # it held numbers before its first text block
        self.non_number = None  # (row, cell) of the first cell that is not a number
        self.non_finite = None  # (row, cell) of the first nan or inf

    def add(self, cells, row):
        """Parse the cells of rows ``row``, ``row`` + 1, ... of the column."""
        if self.text is None:
            # float() ignores surrounding whitespace and rejects an empty
            # cell, so a block that parses unstripped has every cell present
            try:
                values = np.array(cells, dtype=float)
            except ValueError:
                pass
            else:
                self._add_numbers(values, np.ones(len(cells), dtype=bool), cells, row)
                return
        cells = list(map(str.strip, cells))
        present = np.fromiter(map(bool, cells), dtype=bool, count=len(cells))
        if self.text is None:
            try:
                parsed = np.array(list(filter(None, cells)), dtype=float)
            except ValueError:
                i = next(i for i, c in enumerate(cells) if c and not _is_number(c))
                self.non_number = (row + i, cells[i])
                self.reread = bool(self.values)
                self.text = []
            else:
                values = np.zeros(len(cells))
                values[present] = parsed
                self._add_numbers(values, present, cells, row)
                return
        self.text.append(np.array(cells, dtype=str))
        self.present.append(present)

    def _add_numbers(self, values, present, cells, row):
        if self.non_finite is None:
            bad = np.flatnonzero(~np.isfinite(values))
            if bad.size:
                self.non_finite = (row + int(bad[0]), cells[bad[0]].strip())
        self.values.append(values)
        self.present.append(present)

    def join(self):
        """(kind, values, present) of the whole column: label with its
        stripped cells, else boolean when every present value is 0/1 and
        numeric otherwise, with float64 values. Each list of parts becomes
        its one joined part."""
        self.present = [_joined(self.present, bool)]
        if self.text is not None:
            self.text = [_joined(self.text, str)]
            return LABEL, self.text[0], self.present[0]
        self.values = [_joined(self.values, float)]
        values = self.values[0]
        # not np.isin, for the reason given in Dataset
        kind = BOOLEAN if ((values == 0.0) | (values == 1.0)).all() else NUMERIC
        return kind, values, self.present[0]


# both readers hand on a table in blocks of whole records of about this many
# characters, so no buffer holds the whole file and each block's cells are
# freed once it is parsed. A block stays below malloc's default mmap
# threshold (128 KiB): freeing a larger one raises the threshold, after which
# later arrays stay on the heap and the peak RSS grows
_BLOCK_CHARS = 1 << 16


def _raise_not_utf8(path):
    """Raise ParseError naming the line of the first byte of ``path`` that is
    not UTF-8, if there is one."""
    data = path.read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: byte 0x{data[exc.start]:02x} is not UTF-8 "
                         f"({exc.reason})", line=data.count(b"\n", 0, exc.start) + 1) from None


def _check_record(path, fields, width, lineno, limit):
    """Raise the ParseError that reading this record through csv.reader gives."""
    if max(map(len, fields), default=0) > limit:
        raise ParseError(f"{path}: field larger than field limit ({limit})", line=lineno)
    if len(fields) != width:
        raise ParseError(f"{path}: row has {len(fields)} fields, expected {width}",
                         line=lineno)


class _NotPlain(Exception):
    """The file holds a quote or a CR, where csv.reader and ``str`` methods
    may split it differently."""


def _plain_blocks(path, limit):
    """The header's fields, then (row count, the cells in row order) of each
    block, of a file in which csv.reader ends every record at a newline and
    every field at a comma; raises _NotPlain on the first quote or CR."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            header = fh.readline()
            if not header:
                raise ParseError(f"{path}: empty file, expected a header row")
            if '"' in header or "\r" in header:
                raise _NotPlain
            header = header.removesuffix("\n")
            header = header.split(",") if header else []  # a blank line has no fields
            width = len(header)
            _check_record(path, header, width, 1, limit)
            yield header
            lineno, rest = 2, ""
            while True:
                chunk = fh.read(_BLOCK_CHARS)
                text = rest + chunk
                if '"' in text or "\r" in text:
                    raise _NotPlain
                if chunk:  # hold back the last line, which may go on in the next chunk
                    end = text.rfind("\n")
                    if end < 0:
                        rest = text
                        continue
                    text, rest = text[:end], text[end + 1:]
                elif not text:
                    return
                lines = text.split("\n")
                if (list(map(str.count, lines, repeat(","))).count(width - 1) != len(lines)
                        or "" in lines or max(map(len, lines)) > limit):
                    for i, line in enumerate(lines):
                        _check_record(path, line.split(",") if line else [], width,
                                      lineno + i, limit)
                n = len(lines)
                del lines
                lineno += n
                yield n, text.replace("\n", ",").split(",")
                if not chunk:
                    return
    except UnicodeDecodeError:
        _raise_not_utf8(path)
        raise


def _quoted_blocks(path, limit):
    """The header's fields, then (row count, the cells in row order) of each
    block of records of about _BLOCK_CHARS characters, of any table, through
    csv.reader."""
    lineno = 0
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader)  # the plain reader saw that the file is not empty
            lineno = 1
            yield header
            width = len(header)
            rows, chars = [], 0
            for lineno, row in enumerate(reader, start=2):
                _check_record(path, row, width, lineno, limit)
                rows.append(row)
                chars += sum(map(len, row)) + width
                if chars >= _BLOCK_CHARS:
                    yield len(rows), list(chain.from_iterable(rows))
                    rows, chars = [], 0
            if rows:
                yield len(rows), list(chain.from_iterable(rows))
    except csv.Error as exc:
        raise ParseError(f"{path}: {exc}", line=lineno + 1) from None
    except UnicodeDecodeError:
        _raise_not_utf8(path)
        raise


def _parse(blocks, pick, text):
    """(stripped header, {column index: _Column}) of the header and blocks
    that ``blocks`` yields (see _read)."""
    header = [h.strip() for h in next(blocks)]
    width = len(header)
    columns = {j: _Column(j in text) for j in pick(header)}
    row = 0
    for n, cells in blocks:
        for j, column in columns.items():
            column.add(cells[j::width], row)
        row += n
        del cells  # before the next block is split
    return header, columns


def _read(path, pick, text=()):
    """(stripped header, {column index: _Column}) of a table, parsed block by
    block as it is read: the columns at the indices that ``pick(header)``
    gives, those in ``text`` as text from the first block. Records and fields
    are read as csv.reader reads them; a file with no quote and no CR is
    split with ``str`` methods, which give the same cells."""
    limit = csv.field_size_limit()
    try:
        header, columns = _parse(_plain_blocks(path, limit), pick, text)
    except _NotPlain:
        header, columns = _parse(_quoted_blocks(path, limit), pick, text)
    reread = [j for j, column in columns.items() if column.reread]
    if reread:  # these columns' cells before their first text block are gone
        again = _read(path, lambda header: reread, reread)[1]
        for j in reread:
            columns[j].text, columns[j].present = again[j].text, again[j].present
    return header, columns


def _maker(spec):
    """How ``spec`` makes its columns, for an error message."""
    if spec.buckets is None:
        return f"column {spec.source!r}"
    return f"bucketing column {spec.source!r}"


def _checked_specs(path, header, specs):
    """``specs``, or one spec per column of ``header`` when it is None;
    ParseError names the file and the column when a spec's column is not in
    the header or is in it twice, or when two specs make the same column."""
    if specs is None:
        specs = [FeatureSpec(name) for name in header]
    counts = Counter(header)
    for spec in specs:
        if spec.source not in counts:
            raise ParseError(f"{path}: column {spec.source!r} not in header")
        if counts[spec.source] > 1:
            raise ParseError(f"{path}: column {spec.source!r} appears "
                             f"{counts[spec.source]} times in the header")
    made = {}
    for spec in specs:
        for name in spec.derived_names():
            if name in made:
                raise ParseError(f"{path}: duplicate column {name!r}, made by "
                                 f"{_maker(made[name])} and by {_maker(spec)}")
            made[name] = spec
    return specs


def load_table(path, specs=None, edges=None) -> Dataset:
    """Load a comma-separated table with a header row.

    ``specs`` selects and derives columns; None passes every column through.
    Empty cells are missing; a cell of a numeric, boolean or bucketed column
    that parses to nan or +-inf is rejected. ``edges`` supplies pre-fitted
    bucket edges (e.g. from the training set) keyed by source column;
    without them edges are fitted on the file's own values. The file is
    read and parsed in blocks of about ``_BLOCK_CHARS`` characters
    (``_read``), so the memory it takes follows the table it returns. A
    record fault anywhere in the file is raised before any cell fault, and
    cell faults in the order of ``specs``.
    """
    path = Path(path)
    wanted = None if specs is None else {spec.source for spec in specs}
    header, read = _read(path, lambda header: [j for j, name in enumerate(header)
                                               if wanted is None or name in wanted])
    specs = _checked_specs(path, header, specs)
    col_idx = {name: j for j, name in enumerate(header)}

    columns, values, missing, fitted, sources = [], {}, {}, {}, {}
    for spec in specs:
        column = read[col_idx[spec.source]]
        kind, arr, present = column.join()
        if kind == LABEL:
            if spec.buckets is not None:
                row, cell = column.non_number
                raise ParseError(f"{path}: non-numeric value {cell!r} in bucketed "
                                 f"column {spec.source!r}", line=row + 2)
        elif column.non_finite is not None:
            row, cell = column.non_finite
            raise ParseError(f"{path}: non-finite value {cell!r} in "
                             f"column {spec.source!r}", line=row + 2)

        if spec.buckets is None:
            columns.append((spec.source, kind))
            # a boolean column is stored as bool; a bucketed one is read as numbers
            values[spec.source] = arr == 1.0 if kind == BOOLEAN else arr
            if not present.all():
                missing[spec.source] = ~present
            continue

        if edges and spec.source in edges:
            col_edges = list(edges[spec.source])
        else:
            if not present.any():
                raise ParseError(f"{path}: cannot fit bucket edges for column "
                                 f"{spec.source!r}: every cell is empty")
            col_edges = bucket_edges(arr[present], spec.buckets)
        fitted[spec.source] = col_edges
        indicators = bucket_indicators(arr, col_edges, spec.buckets)
        indicators &= present
        absent = None if present.all() else ~present  # shared by the indicators
        for j, name in enumerate(spec.derived_names()):
            columns.append((name, BOOLEAN))
            values[name] = indicators[j]
            sources[name] = spec.source
            if absent is not None:
                missing[name] = absent

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
    """Draw ``count`` seeded minibatches of ``batch_size`` rows as a
    (count, batch_size) int matrix: row b holds the row indices of batch b.

    Rows within a batch are drawn without replacement when the dataset is
    large enough, with replacement otherwise; batches are independent draws.
    """
    if batch_size < 1 or count < 1:
        raise ValueError("batch_size and count must be positive")
    if dataset.n_rows == 0:
        where = f"{dataset.origin}: " if dataset.origin else ""
        raise ValueError(f"{where}cannot sample from an empty dataset")
    rng = np.random.default_rng(seed)
    replace = batch_size > dataset.n_rows
    return np.stack([rng.choice(dataset.n_rows, size=batch_size, replace=replace)
                     for _ in range(count)])
