import csv
import io
import json
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_dataset, write_csv
from quantrules import dataset
from quantrules.dataset import (BOOLEAN, LABEL, NUMERIC, Dataset, FeatureSpec,
                                bucket_edges, bucket_indicators, checked_rows,
                                load_table, sample_minibatches, split)
from quantrules.errors import ParseError, TypeMismatchError
from quantrules.statistics import load_boxes, match_class
from scalar_oracle import percentile


# -- load_table ---------------------------------------------------------------

def test_load_passthrough_identity(tmp_path):
    path = write_csv(tmp_path / "t.csv", ["age", "smoke", "label"],
                     [[34, 1, "yes"], [51, 0, "no"], [29, 0, "no"]])
    ds = load_table(path, [FeatureSpec("age"), FeatureSpec("smoke"), FeatureSpec("label")])
    assert ds.n_rows == 3
    assert ds.names == ["age", "smoke", "label"]
    assert ds.kind("age") == NUMERIC
    assert ds.kind("smoke") == BOOLEAN
    assert ds.kind("label") == LABEL
    assert list(ds.values("age")) == [34.0, 51.0, 29.0]


def test_load_header_only_file(tmp_path):
    path = write_csv(tmp_path / "t.csv", ["a", "b"], [])
    ds = load_table(path)
    assert ds.n_rows == 0
    assert ds.names == ["a", "b"]


def test_load_wrong_arity_names_line(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n1,2\n3\n", encoding="utf-8")
    with pytest.raises(ParseError, match="line 3"):
        load_table(path)


def test_load_non_numeric_in_bucket_source(tmp_path):
    path = write_csv(tmp_path / "t.csv", ["x"], [[1], ["oops"], [3]])
    with pytest.raises(ParseError, match="line 3: .*'oops'.*'x'"):
        load_table(path, [FeatureSpec("x", buckets=2)])


def test_load_all_missing_bucket_source(tmp_path):
    path = write_csv(tmp_path / "t.csv", ["x", "y"], [["", 1], ["", 2]])
    with pytest.raises(ParseError, match="'x'.*every cell is empty"):
        load_table(path, [FeatureSpec("x", buckets=2)])
    ds = load_table(path, [FeatureSpec("x", buckets=2)], edges={"x": [0.5]})
    assert ds.missing("x__b0").tolist() == [True, True]


@pytest.mark.parametrize("cell, buckets, edges", [
    ("nan", None, None), ("inf", None, None), ("1e400", None, None),
    ("-Infinity", None, None), ("nan", 2, None), ("inf", 2, None),
    ("nan", 2, {"x": [2.5]}), ("inf", 2, {"x": [2.5]}),
], ids=["numeric-nan", "numeric-inf", "numeric-overflow", "numeric-minus-inf",
        "bucketed-nan", "bucketed-inf", "edges-nan", "edges-inf"])
def test_load_rejects_non_finite_cells(tmp_path, cell, buckets, edges):
    path = write_csv(tmp_path / "t.csv", ["x", "y"], [[1, "a"], [cell, "b"], [3, "a"]])
    with pytest.raises(ParseError) as info:
        load_table(path, [FeatureSpec("x", buckets), FeatureSpec("y")], edges=edges)
    assert str(info.value) == (f"line 3: {path}: non-finite value {cell!r} "
                               f"in column 'x'")


def test_load_missing_cells_masked(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("x,y\n1,\n2,5\n", encoding="utf-8")
    ds = load_table(path)
    assert ds.missing("y").tolist() == [True, False]
    assert ds.missing("x").tolist() == [False, False]


def test_bucket_derivation_equal_frequency(tmp_path):
    # oracle: sort 1..8, split into 4 equal-count groups of two
    path = write_csv(tmp_path / "t.csv", ["v"], [[i] for i in range(1, 9)])
    ds = load_table(path, [FeatureSpec("v", buckets=4)])
    assert ds.names == [f"v__b{j}" for j in range(4)]
    got = np.stack([ds.values(f"v__b{j}") for j in range(4)], axis=1)
    expect = np.zeros((8, 4))
    for i in range(8):
        expect[i, i // 2] = 1.0
    assert np.array_equal(got, expect)
    assert ds.sources["v__b0"] == "v"


def test_bucket_edges_reused_for_other_split(tmp_path):
    train = write_csv(tmp_path / "a.csv", ["v"], [[i] for i in range(1, 9)])
    test = write_csv(tmp_path / "b.csv", ["v"], [[100], [-5]])
    ds_train = load_table(train, [FeatureSpec("v", buckets=4)])
    ds_test = load_table(test, [FeatureSpec("v", buckets=4)], edges=ds_train.bucket_edges)
    assert ds_test.values("v__b3").tolist() == [1.0, 0.0]
    assert ds_test.values("v__b0").tolist() == [0.0, 1.0]


def _infer_kind_oracle(cells):
    """The per-cell kind inference that load_table replaced."""
    parsed = []
    for cell in cells:
        try:
            parsed.append(float(cell))
        except ValueError:
            return LABEL, None
    if all(v in (0.0, 1.0) for v in parsed):
        return BOOLEAN, parsed
    return NUMERIC, parsed


def _reject_non_finite_oracle(path, spec, cells):
    for i, cell in enumerate(cells):
        if cell != "" and not math.isfinite(float(cell)):
            raise ParseError(f"{path}: non-finite value {cell!r} in column "
                             f"{spec.source!r}", line=i + 2)


def _load_table_oracle(path, specs=None, edges=None):
    """The per-cell load_table that the column-wise one replaced, plus the
    rejection of non-finite cells in columns that are not label columns; a
    bucketed column's non-numeric cell is reported before a non-finite one."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader)]
        raw_rows = list(reader)
    if specs is None:
        specs = [FeatureSpec(name) for name in header]
    col_idx = {name: i for i, name in enumerate(header)}
    n = len(raw_rows)
    columns, values, missing, fitted, sources = [], {}, {}, {}, {}
    for spec in specs:
        cells = [row[col_idx[spec.source]].strip() for row in raw_rows]
        present = np.array([c != "" for c in cells], dtype=bool)
        if spec.buckets is None:
            kind, parsed = _infer_kind_oracle([c for c in cells if c != ""])
            if kind == LABEL:
                arr = np.array(cells, dtype=str)
            else:
                _reject_non_finite_oracle(path, spec, cells)
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
        raw = np.zeros(n)
        for i, cell in enumerate(cells):
            if not present[i]:
                continue
            try:
                raw[i] = float(cell)
            except ValueError:
                raise TypeMismatchError(
                    f"non-numeric value {cell!r} in bucketed column {spec.source!r}"
                    f" (line {i + 2})")
        _reject_non_finite_oracle(path, spec, cells)
        if edges and spec.source in edges:
            col_edges = list(edges[spec.source])
        else:
            if not present.any():
                raise TypeMismatchError(
                    f"cannot fit bucket edges for all-missing column {spec.source!r}")
            col_edges = bucket_edges(raw[present], spec.buckets)
        fitted[spec.source] = col_edges
        indicators = bucket_indicators(raw, col_edges, spec.buckets)
        indicators[:, ~present] = False
        for j, name in enumerate(spec.derived_names()):
            columns.append((name, BOOLEAN))
            values[name] = indicators[j]
            sources[name] = spec.source
            if not present.all():
                missing[name] = ~present
    return Dataset(columns, values, missing, fitted, sources, origin=str(path))


def _outcome(load, path, specs, edges):
    """Everything a loaded table exposes, bit for bit, or the error raised."""
    try:
        ds = load(path, specs, edges)
    except Exception as exc:  # the oracle's errors are part of its behaviour
        return type(exc), str(exc)
    return (ds.columns,
            {n: ds.values(n).tolist() if k == LABEL else ds.values(n).tobytes()
             for n, k in ds.columns},
            {n: ds.missing(n).tolist() for n in ds.names},
            ds.bucket_edges, ds.sources)


# empty and whitespace cells, 0/1 spellings, -0.0, 1_000, non-finite and
# non-numeric cells next to ordinary floats; cells that csv must quote; and
# padded cells, of which an error quotes only the stripped text
_CELLS = st.one_of(
    st.sampled_from(["", " ", "0", "1", "1.0", " 1 ", "-0.0", "0e5", "1_000", "nan",
                     "inf", "-Infinity", "1e400", "0x10", "abc", "١٢", " nan ",
                     " 1_000 ", "a,b", 'say "hi"', "two\nlines", "cr\rcell"]),
    st.floats(-1e3, 1e3).map(repr))


@st.composite
def _tables(draw):
    n_cols = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(_CELLS, min_size=n_cols, max_size=n_cols),
                         max_size=8))
    if draw(st.integers(0, 3)) == 0:  # an all-missing column
        rows = [[""] + row[1:] for row in rows]
    if rows and draw(st.integers(0, 3)) == 0:  # a ragged row
        i = draw(st.integers(0, len(rows) - 1))
        rows[i] = rows[i][:-1] if draw(st.booleans()) else rows[i] + ["1"]
    for _ in range(draw(st.integers(0, 2)) if draw(st.integers(0, 3)) == 0 else 0):
        rows.insert(draw(st.integers(0, len(rows))), [])  # a blank line
    header = [f"c{j}" for j in range(n_cols)]
    specs = None
    if draw(st.booleans()):
        specs = [FeatureSpec(h, draw(st.sampled_from([None, 2, 3]))) for h in header]
    edges = None
    if draw(st.booleans()):
        edges = {h: sorted(draw(st.lists(st.floats(-5, 5), min_size=2, max_size=2)))
                 for h in header}
    layout = {"quoting": draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL])),
              "lineterminator": draw(st.sampled_from(["\n", "\r\n"])),
              "final_newline": draw(st.booleans()),
              "field_limit": draw(st.sampled_from([None, 6])),
              "block_chars": draw(st.integers(1, 40))}
    return header, rows, specs, edges, layout


def _reader_fault(path):
    """The error message of the first record that csv.reader rejects or that
    has a field count other than the header's, or None."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        lineno = 0
        try:
            for lineno, row in enumerate(reader, start=1):
                if lineno == 1:
                    width = len(row)
                elif len(row) != width:
                    return f"line {lineno}: {path}: row has {len(row)} fields, expected {width}"
        except csv.Error as exc:
            return f"line {lineno + 1}: {path}: {exc}"
    return None


def _raise(*args, **kwargs):
    raise AssertionError("csv.reader called")


def _assert_matches_oracle(path, specs, edges, field_limit=None, block_chars=1 << 20):
    data = path.read_bytes()
    # csv.reader is only for a text that holds a quote or a CR; with it
    # patched to raise, an accidental fallback would fail here
    plain = b'"' not in data and b"\r" not in data
    default_limit = csv.field_size_limit()
    try:
        if field_limit is not None:
            csv.field_size_limit(field_limit)
        fault = _reader_fault(path)
        if fault is None:
            expect = _outcome(_load_table_oracle, path, specs, edges)
        with mock.patch.object(dataset, "_BLOCK_CHARS", block_chars), \
                mock.patch.object(csv, "reader", _raise if plain else csv.reader):
            got = _outcome(load_table, path, specs, edges)
    finally:
        csv.field_size_limit(default_limit)
    if fault is not None:
        assert got == (ParseError, fault)
    elif expect[0] is TypeMismatchError:
        # a bucketed column the loader cannot parse is now a ParseError
        assert got[0] is ParseError
        column = re.search(r"column '(c\d)'", expect[1]).group(1)
        assert f"'{column}'" in got[1]
        line = re.search(r"\(line (\d+)\)", expect[1])
        if line:
            assert got[1].startswith(f"line {line.group(1)}: ")
            assert expect[1].split(" in bucketed")[0] in got[1]
    else:
        assert got == expect


@settings(max_examples=400, deadline=None)
@given(_tables())
def test_load_table_matches_per_cell_oracle(tmp_path_factory, table):
    header, rows, specs, edges, layout = table
    path = tmp_path_factory.mktemp("table") / "t.csv"
    out = io.StringIO()
    csv.writer(out, quoting=layout["quoting"],
               lineterminator=layout["lineterminator"]).writerows([header] + rows)
    text = out.getvalue()
    if not layout["final_newline"]:
        text = text[:-len(layout["lineterminator"])]
    path.write_text(text, encoding="utf-8", newline="")
    if edges is not None and specs is not None:
        edges = {s.source: edges[s.source][:s.buckets - 1] for s in specs if s.buckets}
    _assert_matches_oracle(path, specs, edges, layout["field_limit"], layout["block_chars"])


@pytest.mark.parametrize("block_chars", [1, 1 << 20])
@pytest.mark.parametrize("text", [
    "c0\n1\n\n2\n", "c0\n1\n2\n\n", "c0\n1\n2\n\n\n", "c0\n1\r\n\r\n2\r\n",
    "c0,c1\n", "c0,c1", "c0,c1\n1,2\n3,4", "c0,c1\r\n1,2\r\n3,4", "\n", "\n\n",
    "\n1\n", 'c0\n"1"\n\n'])
def test_load_table_matches_oracle_on_line_layouts(tmp_path, text, block_chars):
    # blank lines in a one-column table, where a blank line and a one-field
    # line hold the same number of commas; header-only files, no final newline
    path = tmp_path / "t.csv"
    path.write_text(text, encoding="utf-8", newline="")
    _assert_matches_oracle(path, None, None, block_chars=block_chars)


def _rows_past_one_block(row):
    """Enough copies of the line ``row`` to fill more than one block of the
    default size."""
    return [row] * (dataset._BLOCK_CHARS // (len(row) + 1) + 10)


def test_column_of_numbers_then_text_loads_as_the_oracles_label_column(tmp_path):
    path = tmp_path / "t.csv"
    lines = ["v,w"] + _rows_past_one_block(" 1.5 ,2") + ["x,3", ",4", " 0 ,5"]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    ds = load_table(path)
    assert ds.kind("v") == LABEL and ds.kind("w") == NUMERIC
    assert ds.values("v").tolist() == ["1.5"] * (len(lines) - 4) + ["x", "", "0"]
    assert ds.missing("v").tolist() == [False] * (len(lines) - 3) + [True, False]
    _assert_matches_oracle(path, None, None, block_chars=dataset._BLOCK_CHARS)
    with pytest.raises(ParseError) as info:
        load_table(path, [FeatureSpec("v", 2)])
    assert str(info.value) == (f"line {len(lines) - 2}: {path}: non-numeric value 'x' "
                               f"in bucketed column 'v'")


def test_quote_after_the_first_block_loads_as_the_oracle(tmp_path):
    path = tmp_path / "t.csv"
    lines = ["v,w"] + _rows_past_one_block("1.5,a") + ['2,"b,c"', "3,d"]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    ds = load_table(path)
    assert ds.values("w").tolist()[-2:] == ["b,c", "d"]
    _assert_matches_oracle(path, None, None, block_chars=dataset._BLOCK_CHARS)
    _assert_matches_oracle(path, [FeatureSpec("v", 3), FeatureSpec("w")], None,
                           block_chars=dataset._BLOCK_CHARS)


def test_ragged_row_after_the_first_block_is_raised_before_a_bad_cell(tmp_path):
    path = tmp_path / "t.csv"
    lines = ["v,w", "nan,a", "oops,a"] + _rows_past_one_block("1.5,a") + ["2"]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    for specs in (None, [FeatureSpec("v", 2)]):
        with pytest.raises(ParseError) as info:
            load_table(path, specs)
        assert str(info.value) == f"line {len(lines)}: {path}: row has 1 fields, expected 2"


def test_load_table_peak_is_a_small_multiple_of_its_table(tmp_path):
    # reading every cell as a str before parsing its column peaked at about
    # 8.2 times the retained table on this file; block by block it is about 2
    rng = np.random.default_rng(0)
    n = 20_000
    x = rng.normal(size=(n, 4))
    flags = (rng.random((n, 2)) < 0.3).astype(int)
    labels = np.where(rng.random(n) < 0.5, "yes", "no")
    rows = [[repr(float(v)) for v in x[i]] + [str(b) for b in flags[i]] + [labels[i]]
            for i in range(n)]
    for row in rows[::17]:
        row[1] = ""
    path = write_csv(tmp_path / "t.csv", ["x0", "x1", "x2", "x3", "f0", "f1", "label"], rows)
    specs = [FeatureSpec("x0", 8), FeatureSpec("x1", 8), FeatureSpec("x2"),
             FeatureSpec("x3"), FeatureSpec("f0"), FeatureSpec("f1"), FeatureSpec("label")]
    tracemalloc.start()
    try:
        ds = load_table(path, specs)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ds.n_rows == n
    assert peak <= 4.1 * retained, (peak, retained)


def test_columns_made_twice_name_the_file_and_the_column(tmp_path):
    path = write_csv(tmp_path / "t.csv", ["x", "x__b1", " y", "y "], [[1, 0, 2, 3], [2, 1, 4, 5]])
    with pytest.raises(ParseError) as info:
        load_table(path, [FeatureSpec("x", 2), FeatureSpec("x__b1")])
    assert str(info.value) == (f"{path}: duplicate column 'x__b1', made by bucketing "
                               f"column 'x' and by column 'x__b1'")
    for specs in (None, [FeatureSpec("x"), FeatureSpec("y", 2)]):
        with pytest.raises(ParseError) as info:
            load_table(path, specs)
        assert str(info.value) == f"{path}: column 'y' appears 2 times in the header"
    assert load_table(path, [FeatureSpec("x"), FeatureSpec("x", 2)]).names == [
        "x", "x__b0", "x__b1"]


@pytest.mark.parametrize("text", ["a,b\n1,2\n", "a,b\r\n1,2\r\n", '"a",b\n1,"2"\n'],
                         ids=["plain", "crlf", "quoted"])
def test_field_over_the_csv_limit_names_file_and_line(tmp_path, text):
    path = tmp_path / "t.csv"
    limit = csv.field_size_limit()
    path.write_text(text + f"3,{'9' * limit}\n" + f"5,{'9' * (limit + 1)}\n",
                    encoding="utf-8", newline="")
    with pytest.raises(ParseError) as info:
        load_table(path)
    assert str(info.value) == f"line 4: {path}: field larger than field limit ({limit})"


# -- bucket_edges -------------------------------------------------------------

def test_bucket_edges_constant_data():
    assert bucket_edges([0, 0, 0, 0], 2) == [0.0]


def test_bucket_edges_1_to_100():
    # oracle: linear-interpolation percentile at q=0.25, 0.5, 0.75
    edges = bucket_edges(list(range(1, 101)), 4)
    assert edges == pytest.approx([25.75, 50.5, 75.25], abs=1e-12)


def test_bucket_edges_singleton():
    assert bucket_edges([5], 2) == [5.0]


def test_bucket_edges_count_too_small():
    with pytest.raises(ValueError):
        bucket_edges([1, 2, 3], 1)


@settings(max_examples=300)
@given(st.lists(st.sampled_from([0.0, -0.0, 1.0, -2.5]) | st.floats(-1e9, 1e9),
                min_size=1, max_size=40),
       st.integers(2, 9))
@example(values=[0.0, -0.0, 0.0, -0.0], count=3)
@example(values=[-0.0], count=2)
@example(values=[7.0], count=9)
@example(values=[1.0, 1.0, 2.0, 2.0, 2.0], count=4)
def test_bucket_edges_match_percentile_oracle(values, count):
    """One sort per column gives the per-edge percentiles bit for bit: ties,
    signs of zero and single values included."""
    got = bucket_edges(values, count)
    assert all(type(edge) is float for edge in got)
    assert [e.hex() for e in got] == [percentile(values, j / count).hex()
                                      for j in range(1, count)]


@pytest.mark.parametrize("values", [[1.0, math.nan], [math.nan], [math.nan, -math.inf, 2.0]])
def test_bucket_edges_nan_error_matches_percentile_oracle(values):
    with pytest.raises(ValueError) as want:
        percentile(values, 0.5)
    with pytest.raises(ValueError) as got:
        bucket_edges(values, 3)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value) == "percentile input contains NaN"


def test_bucket_edges_empty_error():
    with pytest.raises(ValueError) as got:
        bucket_edges([], 3)
    assert type(got.value) is ValueError and str(got.value) == "cannot bucket empty values"


def test_bucket_tie_goes_to_lower_bucket():
    ind = bucket_indicators([2.75, 2.7500001], [2.75, 4.5, 6.25], 4)
    assert ind.dtype == bool and ind.shape == (4, 2)
    assert ind[:, 0].tolist() == [1, 0, 0, 0]
    assert ind[:, 1].tolist() == [0, 1, 0, 0]


@settings(max_examples=50)
@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=60),
       st.integers(2, 6))
def test_bucket_indicators_partition_rows(values, count):
    edges = bucket_edges(values, count)
    ind = bucket_indicators(values, edges, count)
    assert np.array_equal(ind.sum(axis=0), np.ones(len(values)))


# -- split ----------------------------------------------------------------------

def _toy(n):
    return make_dataset({"x": (NUMERIC, np.arange(n, dtype=float))})


def test_split_exact_division():
    parts = split(_toy(100), (0.65, 0.15, 0.20), seed=7)
    assert tuple(p.n_rows for p in parts) == (65, 15, 20)


def test_split_floor_rounding_remainder_to_train():
    parts = split(_toy(10), (0.7, 0.1, 0.2), seed=0)
    assert tuple(p.n_rows for p in parts) == (7, 1, 2)


def test_split_deterministic_and_exhaustive():
    ds = _toy(37)
    a1 = split(ds, (0.5, 0.25, 0.25), seed=3)
    a2 = split(ds, (0.5, 0.25, 0.25), seed=3)
    for p1, p2 in zip(a1, a2):
        assert np.array_equal(p1.values("x"), p2.values("x"))
    merged = np.concatenate([p.values("x") for p in a1])
    assert sorted(merged.tolist()) == list(range(37))


def test_split_rejects_bad_fractions():
    with pytest.raises(ValueError):
        split(_toy(10), (0.5, 0.5, 0.5), seed=0)
    with pytest.raises(ValueError):
        split(_toy(10), (1.0, 0.0, 0.0), seed=0)


@settings(max_examples=30)
@given(st.integers(3, 200), st.integers(0, 2**32 - 1))
def test_split_is_bijection(n, seed):
    parts = split(_toy(n), (0.6, 0.2, 0.2), seed=seed)
    merged = sorted(np.concatenate([p.values("x") for p in parts]).tolist())
    assert merged == list(range(n))


# -- sample_minibatches --------------------------------------------------------

def test_minibatches_deterministic_per_seed():
    ds = _toy(5)
    a = sample_minibatches(ds, 1, 3, seed=0)
    b = sample_minibatches(ds, 1, 3, seed=0)
    assert a.tolist() == b.tolist()
    assert a.shape == (3, 1)


def test_minibatches_small_data_samples_with_replacement():
    batches = sample_minibatches(_toy(3), 4096, 2, seed=1)
    assert batches.shape == (2, 4096)
    assert set(batches.ravel().tolist()) <= {0, 1, 2}


def test_minibatches_no_replacement_when_data_suffices():
    batches = sample_minibatches(_toy(50), 50, 4, seed=2)
    for rows in batches:
        assert len(set(rows.tolist())) == 50


def test_minibatches_rejects_zero_args():
    with pytest.raises(ValueError):
        sample_minibatches(_toy(5), 0, 3, seed=0)
    with pytest.raises(ValueError):
        sample_minibatches(_toy(5), 2, 0, seed=0)


# -- Dataset invariants ----------------------------------------------------------

def test_dataset_rejects_duplicate_columns():
    with pytest.raises(ValueError):
        Dataset([("x", NUMERIC), ("x", NUMERIC)], {"x": [1.0]})


def test_dataset_rejects_non_boolean_values():
    with pytest.raises(ValueError, match="boolean"):
        make_dataset({"b": (BOOLEAN, [0.0, 2.0])})


def test_dataset_rejects_non_finite_numeric():
    with pytest.raises(ValueError, match="non-finite"):
        make_dataset({"x": (NUMERIC, [1.0, float("nan")])})


def test_dataset_allows_missing_non_finite_slots():
    ds = Dataset([("x", NUMERIC)], {"x": [1.0, 0.0]},
                 missing={"x": [False, True]})
    assert ds.missing("x").tolist() == [False, True]


def test_minibatch_validates_indices():
    ds = _toy(4)
    assert checked_rows(ds, [3, 0]).tolist() == [3, 0]
    with pytest.raises(ValueError):
        checked_rows(ds, np.array([0, 7]))


def test_take_and_with_columns():
    ds = make_dataset({"x": (NUMERIC, [1.0, 2.0, 3.0]),
                       "y": (LABEL, np.array(["a", "b", "a"], dtype=object))})
    sub = ds.take([2, 0])
    assert sub.values("x").tolist() == [3.0, 1.0]
    ext = sub.with_columns([("z", NUMERIC, np.array([9.0, 8.0]))])
    assert ext.names == ["x", "y", "z"]
    assert ext.values("z").tolist() == [9.0, 8.0]


# -- label columns ------------------------------------------------------------

# numeric-looking and empty cells next to plain words
_LABEL_CELLS = st.one_of(st.sampled_from(["", "a", "b", "1", "1.0", "01", " 1", "nan"]),
                         st.text(max_size=3))
_CLASS_VALUES = st.one_of(_LABEL_CELLS, st.integers(-2, 2), st.sampled_from([1.0, 0.5]))


@st.composite
def _label_arrays(draw):
    """A label column as an object, str or int array."""
    flavour = draw(st.sampled_from(["object", "str", "int"]))
    if flavour == "int":
        return np.array(draw(st.lists(st.integers(-3, 12), min_size=1, max_size=12)))
    if flavour == "str":
        return np.array(draw(st.lists(_LABEL_CELLS, min_size=1, max_size=12)), dtype=str)
    cells = st.one_of(_LABEL_CELLS, st.integers(-3, 12))
    return np.array(draw(st.lists(cells, min_size=1, max_size=12)), dtype=object)


@settings(max_examples=200, deadline=None)
@given(_label_arrays(), st.data())
def test_labels_are_str_and_match_class_agrees_with_string_oracle(vals, data):
    ds = make_dataset({"x": (NUMERIC, np.arange(vals.size, dtype=float)),
                       "y": (LABEL, vals)})
    class_value = data.draw(st.one_of(_CLASS_VALUES, st.sampled_from(vals.tolist())))
    rows = np.array(data.draw(st.lists(st.integers(0, vals.size - 1), max_size=20)),
                    dtype=int)
    got = match_class(ds, rows, "y", class_value)
    assert got.dtype == bool
    assert got.tolist() == (vals.astype(str) == str(class_value))[rows].tolist()
    derived = [ds, ds.take(rows), ds.with_columns([("z", LABEL, vals[::-1].copy())])]
    for d in derived:
        assert all(d.values(n).dtype.kind == "U" for n, k in d.columns if k == LABEL)


def test_loaded_label_columns_are_str(tmp_path):
    path = write_csv(tmp_path / "t.csv", ["x", "y"], [[1, "a"], [2, ""], [3, "7"]])
    table = load_table(path)
    assert table.values("y").dtype.kind == "U"
    assert table.values("y").tolist() == ["a", "", "7"]
    boxes = tmp_path / "b.json"
    boxes.write_text(json.dumps([{"label": 3, "x_min": 0, "y_min": 0,
                                  "x_max": 1, "y_max": 1}]), encoding="utf-8")
    assert load_boxes(boxes).values("label").dtype.kind == "U"
