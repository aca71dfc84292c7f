import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_dataset, write_csv
from quantrules.dataset import (BOOLEAN, LABEL, NUMERIC, Dataset, FeatureSpec,
                                Minibatch, bucket_edges, bucket_indicators,
                                load_table, sample_minibatches, split)
from quantrules.errors import ParseError, TypeMismatchError
from quantrules.statistics import load_boxes, match_class


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
    with pytest.raises(TypeMismatchError, match="oops"):
        load_table(path, [FeatureSpec("x", buckets=2)])


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


def test_bucket_tie_goes_to_lower_bucket():
    ind = bucket_indicators([2.75, 2.7500001], [2.75, 4.5, 6.25], 4)
    assert ind[0].tolist() == [1, 0, 0, 0]
    assert ind[1].tolist() == [0, 1, 0, 0]


@settings(max_examples=50)
@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=60),
       st.integers(2, 6))
def test_bucket_indicators_partition_rows(values, count):
    edges = bucket_edges(values, count)
    ind = bucket_indicators(values, edges, count)
    assert np.array_equal(ind.sum(axis=1), np.ones(len(values)))


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
    assert [m.rows.tolist() for m in a] == [bm.rows.tolist() for bm in b]
    assert all(m.size == 1 for m in a)


def test_minibatches_small_data_samples_with_replacement():
    batches = sample_minibatches(_toy(3), 4096, 2, seed=1)
    assert all(m.size == 4096 for m in batches)
    assert all(set(m.rows.tolist()) <= {0, 1, 2} for m in batches)


def test_minibatches_no_replacement_when_data_suffices():
    batches = sample_minibatches(_toy(50), 50, 4, seed=2)
    for m in batches:
        assert len(set(m.rows.tolist())) == 50


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
    with pytest.raises(ValueError):
        Minibatch(ds, np.array([0, 7]))


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
