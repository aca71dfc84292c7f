import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_dataset
from quantrules.dataset import BOOLEAN, LABEL, NUMERIC, Minibatch
from quantrules.errors import (EmptyStatisticError, ParseError, ResolutionError,
                               TypeMismatchError)
from quantrules.schema import AbstractRule, Literal
from quantrules.statistics import (BoxRecord, Statistic, StatisticRegistry,
                                   eval_statistic, f1_score, load_boxes,
                                   soften_scores, surrogate_f1,
                                   surrogate_f1_grad)


def box_dataset(boxes):
    arr = np.asarray(boxes, dtype=float)
    return make_dataset({
        "label": (LABEL, np.array(["car"] * len(boxes), dtype=object)),
        "x_min": (NUMERIC, arr[:, 0]), "y_min": (NUMERIC, arr[:, 1]),
        "x_max": (NUMERIC, arr[:, 2]), "y_max": (NUMERIC, arr[:, 3]),
    })


def formula(literals, consequent):
    return AbstractRule(kind="logic", statistic="f1",
                        literals=tuple(literals), consequent=consequent)


# -- box geometry ----------------------------------------------------------------

def test_aspect_ratio_is_width_over_height():
    ds = box_dataset([(0, 0, 10, 20)])
    reg = StatisticRegistry.from_dataset(ds)
    value = eval_statistic(reg.resolve("aspect_ratio"), Minibatch(ds, [0]))
    assert value.tolist() == [0.5]


def test_box_statistics_coordinate_arithmetic():
    # oracle: (2,3,6,9) -> width 4, height 6, area 24, center_x 4, bottom_y 9
    ds = box_dataset([(2, 3, 6, 9)])
    reg = StatisticRegistry.from_dataset(ds)
    expected = {"width": 4.0, "height": 6.0, "aspect_ratio": 4.0 / 6.0,
                "area": 24.0, "center_x": 4.0, "bottom_y": 9.0}
    for name, want in expected.items():
        got = eval_statistic(reg.resolve(name), Minibatch(ds, [0]))
        assert got.tolist() == [want], name


def test_batch_mean_summary():
    ds = make_dataset({"c": (NUMERIC, [1.0, 2.0, 3.0])})
    reg = StatisticRegistry.from_dataset(ds)
    assert eval_statistic(reg.resolve("mean(c)"), Minibatch(ds, [0, 1, 2])) == 2.0


def test_missing_rows_are_skipped():
    ds = make_dataset({"c": (NUMERIC, [1.0, 0.0, 3.0])},
                      missing={"c": [False, True, False]})
    reg = StatisticRegistry.from_dataset(ds)
    vals = eval_statistic(reg.resolve("c"), Minibatch(ds, [0, 1, 2]))
    assert vals.tolist() == [1.0, 3.0]


def test_all_missing_raises_empty_statistic():
    ds = make_dataset({"c": (NUMERIC, [0.0, 0.0])}, missing={"c": [True, True]})
    reg = StatisticRegistry.from_dataset(ds)
    with pytest.raises(EmptyStatisticError):
        eval_statistic(reg.resolve("c"), Minibatch(ds, [0, 1]))


def test_registry_unknown_name_lists_known():
    ds = make_dataset({"c": (NUMERIC, [1.0])})
    reg = StatisticRegistry.from_dataset(ds)
    with pytest.raises(ResolutionError, match="mean\\(c\\)"):
        reg.resolve("not_a_stat")


def test_missing_column_is_resolution_error():
    ds = make_dataset({"c": (NUMERIC, [1.0])})
    stat = Statistic("z", "sample", "column", column="z")
    with pytest.raises(ResolutionError):
        eval_statistic(stat, Minibatch(ds, [0]))


@settings(max_examples=40)
@given(st.lists(st.floats(-100, 100), min_size=2, max_size=30),
       st.randoms(use_true_random=False))
def test_lifted_summaries_are_permutation_invariant(values, rnd):
    ds = make_dataset({"c": (NUMERIC, np.asarray(values))})
    reg = StatisticRegistry.from_dataset(ds)
    rows = list(range(len(values)))
    shuffled = rows[:]
    rnd.shuffle(shuffled)
    for name in (f"mean(c)", f"std(c)"):
        a = eval_statistic(reg.resolve(name), Minibatch(ds, rows))
        b = eval_statistic(reg.resolve(name), Minibatch(ds, shuffled))
        assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


# -- exact F1 --------------------------------------------------------------------

def labelled(a_col, labels):
    return make_dataset({
        "A": (BOOLEAN, np.asarray(a_col, dtype=float)),
        "y": (LABEL, np.array(labels, dtype=object)),
    })


def test_f1_perfect_agreement():
    ds = labelled([1, 0, 1, 0], ["p", "n", "p", "n"])
    assert f1_score(formula([Literal("A")], "p"), ds, range(4), "y") == 1.0


def test_f1_confusion_count_arithmetic():
    # oracle: TP=8, FP=1, FN=1 -> 2*8 / (2*8 + 1 + 1)
    a = [1] * 9 + [0] * 3
    y = ["p"] * 8 + ["n"] + ["p"] + ["n"] * 2
    ds = labelled(a, y)
    got = f1_score(formula([Literal("A")], "p"), ds, range(12), "y")
    assert got == pytest.approx(16 / 18, abs=1e-12)


def test_f1_vacuous_case_is_zero():
    ds = labelled([0, 0, 0], ["n", "n", "n"])
    assert f1_score(formula([Literal("A")], "p"), ds, range(3), "y") == 0.0


def test_f1_rejects_non_boolean_literal():
    ds = make_dataset({"A": (NUMERIC, [1.0, 2.0]),
                       "y": (LABEL, np.array(["p", "n"], dtype=object))})
    with pytest.raises(TypeMismatchError):
        f1_score(formula([Literal("A")], "p"), ds, range(2), "y")


def test_f1_negated_literal():
    ds = labelled([1, 0, 0, 0], ["n", "p", "p", "n"])
    got = f1_score(formula([Literal("A", negated=True)], "p"), ds, range(4), "y")
    # antecedent !A on rows 1..3; TP=2, FP=1, FN=0
    assert got == pytest.approx(4 / 5)


def test_f1_boolean_consequent_column():
    ds = make_dataset({"A": (BOOLEAN, [1.0, 1.0, 0.0]),
                       "c": (BOOLEAN, [1.0, 0.0, 0.0])})
    got = f1_score(formula([Literal("A")], "1"), ds, range(3), "c")
    assert got == pytest.approx(2 / 3)  # TP=1, FP=1, FN=0


# -- surrogate F1 -----------------------------------------------------------------

def test_surrogate_equals_exact_on_saturated_scores():
    a = np.array([1.0, 1.0, 0.0, 1.0, 0.0])
    hard = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
    tp, fp, fn = 2.0, 1.0, 1.0
    exact = 2 * tp / (2 * tp + fp + fn)
    for temperature in (1e-3, 0.1, 1.0):
        assert surrogate_f1(a, hard, temperature) == pytest.approx(exact, abs=1e-6)


def test_surrogate_half_scores_hand_expansion():
    # a = 1 everywhere, scores 0.5: tp = B/2, fp = B/2, fn = 0 -> 2/3
    a = np.ones(4)
    s = np.full(4, 0.5)
    assert surrogate_f1(a, s, 1.0) == pytest.approx(2 / 3, abs=1e-12)


def test_surrogate_empty_antecedent_support():
    assert surrogate_f1(np.zeros(4), np.zeros(4), 1.0) == 0.0


def test_surrogate_rejects_bad_temperature():
    with pytest.raises(ValueError):
        surrogate_f1(np.ones(2), np.full(2, 0.5), 0.0)


def test_soften_identity_at_unit_temperature():
    s = np.array([0.0, 0.2, 0.5, 0.9, 1.0])
    assert soften_scores(s, 1.0) == pytest.approx(s, abs=1e-12)


def test_soften_hardens_as_temperature_vanishes():
    s = np.array([0.2, 0.6])
    out = soften_scores(s, 1e-4)
    assert out == pytest.approx([0.0, 1.0], abs=1e-9)


@settings(max_examples=40)
@given(st.integers(2, 12), st.integers(0, 10_000))
def test_surrogate_monotone_in_true_positive_scores(n, seed):
    rng = np.random.default_rng(seed)
    a = (rng.random(n) < 0.6).astype(float)
    a[0] = 1.0
    s = rng.uniform(0.05, 0.95, n)
    base = surrogate_f1(a, s, 1.0)
    bumped = s.copy()
    bumped[0] = min(bumped[0] + 0.04, 0.95)
    assert surrogate_f1(a, bumped, 1.0) >= base - 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 16), st.integers(0, 10_000),
       st.sampled_from([0.5, 1.0, 2.0]))
def test_surrogate_gradient_matches_finite_differences(n, seed, temperature):
    rng = np.random.default_rng(seed)
    a = (rng.random(n) < 0.5).astype(float)
    a[rng.integers(n)] = 1.0
    s = rng.uniform(0.1, 0.9, n)
    _, grad = surrogate_f1_grad(a, s, temperature)
    h = 1e-6
    for i in range(n):
        up, dn = s.copy(), s.copy()
        up[i] += h
        dn[i] -= h
        fd = (surrogate_f1(a, up, temperature) - surrogate_f1(a, dn, temperature)) / (2 * h)
        ref = max(abs(grad[i]), abs(fd), 1e-8)
        assert abs(grad[i] - fd) / ref < 1e-4


# -- box files ---------------------------------------------------------------------

def test_load_boxes_round_trip(tmp_path):
    path = tmp_path / "boxes.json"
    path.write_text(json.dumps([
        {"label": "car", "x_min": 0, "y_min": 0, "x_max": 10, "y_max": 20, "score": 0.9},
        {"label": "person", "x_min": 2, "y_min": 3, "x_max": 6, "y_max": 9},
    ]), encoding="utf-8")
    ds = load_boxes(path)
    assert ds.n_rows == 2
    assert ds.values("label").tolist() == ["car", "person"]
    assert ds.values("x_max").tolist() == [10.0, 6.0]
    assert ds.missing("score").tolist() == [False, True]


def test_load_boxes_rejects_degenerate_geometry(tmp_path):
    path = tmp_path / "boxes.json"
    path.write_text(json.dumps([
        {"label": "car", "x_min": 5, "y_min": 0, "x_max": 5, "y_max": 20},
    ]), encoding="utf-8")
    with pytest.raises(ParseError, match="degenerate"):
        load_boxes(path)


def test_box_record_validates_coordinates():
    with pytest.raises(ValueError):
        BoxRecord("car", -1, 0, 10, 10)
    with pytest.raises(ValueError):
        BoxRecord("car", 0, 5, 10, 4)
    BoxRecord("car", 0, 0, 1, 1)
