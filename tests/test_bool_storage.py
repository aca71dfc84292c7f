"""Boolean columns stored as bool, one byte a cell, against the float64
storage they replaced (``scalar_oracle.FloatTable``): the per-sample values,
mean/std summaries, literal reads and count-kernel F1 must be bit-equal."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_oracle as oracle
from conftest import make_dataset, write_csv
from quantrules.dataset import (BOOLEAN, LABEL, NUMERIC, FeatureSpec, bucket_edges,
                                load_table, split)
from quantrules.rule_eval import Cells, score_logic_rules, unpack_words
from quantrules.schema import AbstractRule, Literal
from quantrules.statistics import Statistic, StatisticRegistry, sample_values_aligned

# a boolean cell: 0, 1 or missing; few distinct numbers, so bucket edges tie
_FLAG = st.sampled_from(["0", "1", ""])
_NUMBER = st.sampled_from(["", "-1.5", "0", "0.25", "2", "2", "7.75"])
_LABEL = st.sampled_from(["a", "b", ""])


@st.composite
def _tables(draw):
    """(cells by column, bucket count): flags p and q, a bucketed numeric
    column x with at least one present cell, and a label column y with at
    least one present cell."""
    n = draw(st.integers(1, 24))
    cells = {"p": draw(st.lists(_FLAG, min_size=n, max_size=n)),
             "q": draw(st.lists(_FLAG, min_size=n, max_size=n)),
             "x": draw(st.lists(_NUMBER, min_size=n, max_size=n)),
             "y": draw(st.lists(_LABEL, min_size=n, max_size=n))}
    cells["x"][draw(st.integers(0, n - 1))] = draw(_NUMBER.filter(bool))
    cells["y"][draw(st.integers(0, n - 1))] = draw(_LABEL.filter(bool))
    return cells, draw(st.integers(2, 4))


def _float_table(cells, count):
    """The float64-storage oracle of the table ``load_table`` reads from
    ``cells`` with x in ``count`` buckets."""
    columns = {}
    for name in ("p", "q"):
        missing = np.array([c == "" for c in cells[name]])
        columns[name] = (BOOLEAN, [float(c) if c else 0.0 for c in cells[name]], missing)
    missing = np.array([c == "" for c in cells["x"]])
    x = np.array([float(c) if c else 0.0 for c in cells["x"]])
    indicators = oracle.float_bucket_indicators(x, bucket_edges(x[~missing], count), count)
    indicators[missing] = 0.0
    for j in range(count):
        columns[f"x__b{j}"] = (BOOLEAN, indicators[:, j], missing)
    columns["y"] = (LABEL, np.array(cells["y"], dtype=str),
                    np.array([c == "" for c in cells["y"]]))
    return oracle.FloatTable(columns)


@settings(max_examples=150, deadline=None)
@given(_tables(), st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 8))
def test_bool_storage_matches_float_storage(tmp_path_factory, table, seed, n_batches, size):
    cells, count = table
    n = len(cells["p"])
    path = write_csv(tmp_path_factory.mktemp("t") / "t.csv", list(cells),
                     list(zip(*cells.values())))
    ds = load_table(path, [FeatureSpec("p"), FeatureSpec("q"), FeatureSpec("x", count),
                           FeatureSpec("y")])
    ft = _float_table(cells, count)
    rows = np.random.default_rng(seed).integers(0, n, (n_batches, size))
    flags = ds.boolean_columns()
    assert flags == ["p", "q"] + [f"x__b{j}" for j in range(count)]
    registry = StatisticRegistry.from_dataset(ds)
    literals = [Literal(f, neg) for f in flags for neg in (False, True)]
    rules = [AbstractRule(kind="logic", statistic="f1", literals=lits, consequent=cls)
             for cls in ("a", "b")
             for lits in [(lit,) for lit in literals] + [(Literal("p"), Literal("x__b0", True)),
                                                         (Literal("q", True), Literal("x__b1"))]]
    cells_of = Cells(ds, rows, "y", registry)

    for name in flags:
        got, valid = sample_values_aligned(Statistic(name, "sample", "column", column=name),
                                           ds, rows)
        want, present = oracle.float_sample_values(ft, name, rows)
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes(), name
        assert np.array_equal(valid, present), name
        for summary in ("mean", "std"):
            value, valued = cells_of.values(AbstractRule(kind="conditional",
                                                         statistic=f"{summary}({name})"))
            want = oracle.float_summaries(ft, name, summary, rows)
            assert valued.tolist() == [w is not None for w in want], (name, summary)
            assert value.tolist() == [0.0 if w is None else w for w in want], (name, summary)

    cells_of.literal_ids(rules)
    holds, present = (unpack_words(words, size) for words in (cells_of.holds, cells_of.present))
    want_holds, want_present = oracle.float_literal_read(list(cells_of.literals), ft, rows)
    assert cells_of.literal_errors == [None] * (len(cells_of.literals) + 1)
    assert np.array_equal(holds[1:], want_holds) and np.array_equal(present[1:], want_present)
    assert holds[0].all() and present[0].all()  # the always-true literal

    value, valued, errors = score_logic_rules(cells_of, rules)
    assert errors.tolist() == [None] * len(rules)
    for r, rule in enumerate(rules):
        want = oracle.float_f1(rule, ft, rows, "y")
        assert valued[r].tolist() == [w is not None for w in want], rule
        assert value[r].tolist() == [0.0 if w is None else w for w in want], rule


def test_load_table_stores_flags_and_indicators_as_bool(tmp_path):
    path = write_csv(tmp_path / "t.csv", ["flag", "x", "name"],
                     [[1, 0.5, "u"], ["", 2.5, "v"], [0, "", "w"], [1, 4.0, "u"]])
    ds = load_table(path, [FeatureSpec("flag"), FeatureSpec("x", 2), FeatureSpec("x"),
                           FeatureSpec("name")])
    assert {n: (k, ds.values(n).dtype.kind) for n, k in ds.columns} == {
        "flag": (BOOLEAN, "b"), "x__b0": (BOOLEAN, "b"), "x__b1": (BOOLEAN, "b"),
        "x": (NUMERIC, "f"), "name": (LABEL, "U")}
    assert ds.values("flag").tolist() == [True, False, False, True]
    # the edge is the median, 2.5, which goes to the lower bucket
    assert ds.values("x__b0").tolist() == [True, True, False, False]
    assert ds.values("x__b1").tolist() == [False, False, False, True]
    # each indicator is contiguous, and the indicators of x share one missing mask
    assert ds.values("x__b0").flags.c_contiguous and ds.values("x__b1").flags.c_contiguous
    assert ds.missing("x__b0") is ds.missing("x__b1")
    assert ds.missing("x__b0").tolist() == [False, False, True, False]


def test_take_and_split_keep_one_missing_mask_per_shared_mask(tmp_path):
    """The indicators of one source keep sharing one missing mask through
    ``take`` and ``split``; columns with masks of their own keep their own."""
    path = write_csv(tmp_path / "t.csv", ["flag", "x"],
                     [[1, 0.5], ["", 2.5], [0, ""], [1, 4.0], [0, 1.0], [1, 3.0]])
    ds = load_table(path, [FeatureSpec("flag"), FeatureSpec("x", 3)])
    for part in (ds.take([0, 1, 2]), *split(ds, (0.5, 0.25, 0.25), seed=3)):
        assert part.missing("x__b0") is part.missing("x__b1") is part.missing("x__b2")
        assert part.missing("flag") is not part.missing("x__b0")
    taken = ds.take([0, 1, 2])
    assert taken.missing("x__b0").tolist() == [False, False, True]
    assert taken.missing("flag").tolist() == [False, True, False]


@pytest.mark.parametrize("cells", [[True, False, True], [1, 0, 1], [1.0, -0.0, 1.0],
                                   np.array([1, 0, 1], dtype=np.int8)])
def test_dataset_stores_boolean_columns_as_bool(cells):
    ds = make_dataset({"b": (BOOLEAN, cells), "v": (NUMERIC, [1, 2, 3]),
                       "y": (LABEL, ["a", "b", "a"])})
    assert ds.values("b").dtype == bool and ds.values("b").tolist() == [True, False, True]
    assert ds.values("v").dtype == np.float64
    taken = ds.take([2, 1])
    assert taken.values("b").dtype == bool and taken.values("b").tolist() == [True, False]
    wider = ds.with_columns([("c", BOOLEAN, [0, 1, 1]), ("w", NUMERIC, [0, 1, 1])])
    assert wider.values("b").dtype == wider.values("c").dtype == bool
    assert wider.values("c").tolist() == [False, True, True]
    assert wider.values("w").dtype == np.float64


@pytest.mark.parametrize("cells", [[1, 2, 0], [1.0, 2.0, 0.0], [0.5, 1.0, 0.0]])
def test_boolean_value_outside_0_1_raises(cells):
    with pytest.raises(ValueError) as got:
        make_dataset({"b": (BOOLEAN, cells)})
    assert type(got.value) is ValueError
    assert str(got.value) == "boolean column 'b' contains values outside {0, 1}"


def test_boolean_value_outside_0_1_in_a_missing_cell_is_not_read():
    ds = make_dataset({"b": (BOOLEAN, [1, 2, 0])}, missing={"b": [False, True, False]})
    assert ds.values("b").dtype == bool
    assert ds.values("b")[[0, 2]].tolist() == [True, False]
