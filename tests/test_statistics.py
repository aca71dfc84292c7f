import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_dataset
from quantrules.dataset import BOOLEAN, LABEL, NUMERIC
from quantrules.errors import (EmptyStatisticError, ParseError, ResolutionError,
                               TypeMismatchError)
from quantrules.rule_eval import Cells
from quantrules.schema import AbstractRule, Literal
from quantrules.statistics import (BOX_COLUMNS, Statistic, StatisticRegistry,
                                   load_boxes, sigmoid, soften_grad, soften_scores)
from scalar_oracle import compute_bounds, surrogate_f1_grad


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


def evaluated(ds, statistic, rows, registry=None):
    """A conditional rule on ``statistic`` at ``rows`` of ``ds``: (values,
    mask) of a per-sample rule at each position, or of a summary rule on each
    batch (the last axis of ``rows``)."""
    cells = Cells(ds, rows, None, registry or StatisticRegistry.from_dataset(ds))
    return cells.values(AbstractRule(kind="conditional", statistic=statistic))


def f1_of(rule, ds, n, label_column):
    value, valued = Cells(ds, np.arange(n)[None], label_column,
                          StatisticRegistry.from_dataset(ds)).values(rule)
    (value,) = value[valued]
    return float(value)


# -- box geometry ----------------------------------------------------------------

def test_aspect_ratio_is_width_over_height():
    ds = box_dataset([(0, 0, 10, 20)])
    values, mask = evaluated(ds, "aspect_ratio", [0])
    assert values[mask].tolist() == [0.5]


def test_box_statistics_coordinate_arithmetic():
    # oracle: (2,3,6,9) -> width 4, height 6, area 24, center_x 4, bottom_y 9
    ds = box_dataset([(2, 3, 6, 9)])
    expected = {"width": 4.0, "height": 6.0, "aspect_ratio": 4.0 / 6.0,
                "area": 24.0, "center_x": 4.0, "bottom_y": 9.0}
    for name, want in expected.items():
        values, mask = evaluated(ds, name, [0])
        assert values[mask].tolist() == [want], name


def test_batch_mean_summary():
    ds = make_dataset({"c": (NUMERIC, [1.0, 2.0, 3.0])})
    value, valued = evaluated(ds, "mean(c)", [[0, 1, 2]])
    assert valued.tolist() == [True] and value.tolist() == [2.0]


def test_missing_rows_are_skipped():
    ds = make_dataset({"c": (NUMERIC, [1.0, 0.0, 3.0])},
                      missing={"c": [False, True, False]})
    values, mask = evaluated(ds, "c", [0, 1, 2])
    assert values[mask].tolist() == [1.0, 3.0]
    _, mask = evaluated(ds, "mean(c)", [[0], [1], [2]])  # one row per batch
    assert mask.tolist() == [True, False, True]
    assert evaluated(ds, "mean(c)", [[0, 1, 2]])[0].tolist() == [2.0]


def test_all_missing_raises_empty_statistic():
    ds = make_dataset({"c": (NUMERIC, [0.0, 0.0])}, missing={"c": [True, True]})
    for name in ("c", "mean(c)"):
        _, mask = evaluated(ds, name, [0, 1])
        assert not mask.any(), name
        with pytest.raises(EmptyStatisticError):
            compute_bounds(AbstractRule(kind="conditional", statistic=name), ds, [[0, 1]])


def test_registry_unknown_name_lists_known():
    ds = make_dataset({"c": (NUMERIC, [1.0])})
    reg = StatisticRegistry.from_dataset(ds)
    with pytest.raises(ResolutionError, match="mean\\(c\\)"):
        reg.resolve("not_a_stat")


def test_missing_column_is_resolution_error():
    ds = make_dataset({"c": (NUMERIC, [1.0])})
    registry = StatisticRegistry([Statistic("z", "sample", "column", column="z")])
    with pytest.raises(ResolutionError):
        evaluated(ds, "z", [0], registry=registry)


@settings(max_examples=40)
@given(st.lists(st.floats(-100, 100), min_size=2, max_size=30),
       st.randoms(use_true_random=False))
def test_lifted_summaries_are_permutation_invariant(values, rnd):
    ds = make_dataset({"c": (NUMERIC, np.asarray(values))})
    rows = list(range(len(values)))
    shuffled = rows[:]
    rnd.shuffle(shuffled)
    for name in (f"mean(c)", f"std(c)"):
        a, b = evaluated(ds, name, [rows, shuffled])[0]  # one batch each
        assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


# -- exact F1 --------------------------------------------------------------------

def labelled(a_col, labels):
    return make_dataset({
        "A": (BOOLEAN, np.asarray(a_col, dtype=float)),
        "y": (LABEL, np.array(labels, dtype=object)),
    })


def test_f1_perfect_agreement():
    ds = labelled([1, 0, 1, 0], ["p", "n", "p", "n"])
    assert f1_of(formula([Literal("A")], "p"), ds, 4, "y") == 1.0


def test_f1_confusion_count_arithmetic():
    # oracle: TP=8, FP=1, FN=1 -> 2*8 / (2*8 + 1 + 1)
    a = [1] * 9 + [0] * 3
    y = ["p"] * 8 + ["n"] + ["p"] + ["n"] * 2
    ds = labelled(a, y)
    got = f1_of(formula([Literal("A")], "p"), ds, 12, "y")
    assert got == pytest.approx(16 / 18, abs=1e-12)


def test_f1_vacuous_case_is_zero():
    ds = labelled([0, 0, 0], ["n", "n", "n"])
    assert f1_of(formula([Literal("A")], "p"), ds, 3, "y") == 0.0


def test_f1_rejects_non_boolean_literal():
    ds = make_dataset({"A": (NUMERIC, [1.0, 2.0]),
                       "y": (LABEL, np.array(["p", "n"], dtype=object))})
    with pytest.raises(TypeMismatchError):
        f1_of(formula([Literal("A")], "p"), ds, 2, "y")


def test_f1_negated_literal():
    ds = labelled([1, 0, 0, 0], ["n", "p", "p", "n"])
    got = f1_of(formula([Literal("A", negated=True)], "p"), ds, 4, "y")
    # antecedent !A on rows 1..3; TP=2, FP=1, FN=0
    assert got == pytest.approx(4 / 5)


def test_f1_boolean_consequent_column():
    ds = make_dataset({"A": (BOOLEAN, [1.0, 1.0, 0.0]),
                       "c": (BOOLEAN, [1.0, 0.0, 0.0])})
    got = f1_of(formula([Literal("A")], "1"), ds, 3, "c")
    assert got == pytest.approx(2 / 3)  # TP=1, FP=1, FN=0


# -- surrogate F1 -----------------------------------------------------------------

def test_surrogate_equals_exact_on_saturated_scores():
    a = np.array([1.0, 1.0, 0.0, 1.0, 0.0])
    hard = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
    tp, fp, fn = 2.0, 1.0, 1.0
    exact = 2 * tp / (2 * tp + fp + fn)
    for temperature in (1e-3, 0.1, 1.0):
        assert surrogate_f1_grad(a, hard, temperature)[0] == pytest.approx(exact, abs=1e-6)


def test_surrogate_half_scores_hand_expansion():
    # a = 1 everywhere, scores 0.5: tp = B/2, fp = B/2, fn = 0 -> 2/3
    a = np.ones(4)
    s = np.full(4, 0.5)
    assert surrogate_f1_grad(a, s, 1.0)[0] == pytest.approx(2 / 3, abs=1e-12)


def test_surrogate_empty_antecedent_support():
    assert surrogate_f1_grad(np.zeros(4), np.zeros(4), 1.0)[0] == 0.0


def test_surrogate_rejects_bad_temperature():
    with pytest.raises(ValueError):
        surrogate_f1_grad(np.ones(2), np.full(2, 0.5), 0.0)


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
    base = surrogate_f1_grad(a, s, 1.0)[0]
    bumped = s.copy()
    bumped[0] = min(bumped[0] + 0.04, 0.95)
    assert surrogate_f1_grad(a, bumped, 1.0)[0] >= base - 1e-12


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
        fd = (surrogate_f1_grad(a, up, temperature)[0] - surrogate_f1_grad(a, dn, temperature)[0]) / (2 * h)
        ref = max(abs(grad[i]), abs(fd), 1e-8)
        assert abs(grad[i] - fd) / ref < 1e-4


def test_sigmoid_equals_the_branchwise_formula():
    """1 / (1 + e^-x) at x >= 0 and e^x / (1 + e^x) below, bit for bit, each
    branch evaluated on its own positions."""
    rng = np.random.default_rng(0)
    x = np.concatenate([rng.normal(0.0, scale, 300) for scale in (1.0, 30.0, 1000.0)]
                       + [[0.0, -0.0, np.inf, -np.inf, 745.0, -745.0, 5e-324, -5e-324]])
    expect = np.empty_like(x)
    pos = x >= 0
    expect[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    expect[~pos] = ex / (1.0 + ex)
    assert sigmoid(x).tobytes() == expect.tobytes()


@pytest.mark.parametrize("temperature", [0.5, 1.0, 2.0])
def test_soften_grad_is_soften_and_its_derivative(temperature):
    s = np.array([0.0, 0.1, 0.35, 0.5, 0.8, 1.0])
    soft, dsoft = soften_grad(s, temperature)
    assert soft.tolist() == soften_scores(s, temperature).tolist()
    assert dsoft[0] == dsoft[-1] == 0.0  # saturated scores
    h = 1e-6
    fd = (soften_scores(s[1:-1] + h, temperature)
          - soften_scores(s[1:-1] - h, temperature)) / (2 * h)
    assert dsoft[1:-1] == pytest.approx(fd, rel=1e-5)


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


@pytest.mark.parametrize("coords, expected", [
    ((-1, 0, 10, 10), "finite and >= 0"),
    ((float("nan"), 0, 10, 10), "finite and >= 0"),
    ((0, 0, float("inf"), 10), "finite and >= 0"),
    ((0, 5, 10, 4), "degenerate box"),
], ids=["negative", "nan", "infinity", "degenerate"])
def test_load_boxes_validates_coordinates(tmp_path, coords, expected):
    good = {"label": "car", "x_min": 0, "y_min": 0, "x_max": 1, "y_max": 1}
    path = tmp_path / "boxes.json"
    path.write_text(json.dumps([good, dict(zip(BOX_COLUMNS, coords), label="car")]),
                    encoding="utf-8")
    with pytest.raises(ParseError, match=f"index 1: .*{expected}"):
        load_boxes(path)
    path.write_text(json.dumps([good]), encoding="utf-8")
    assert load_boxes(path).n_rows == 1


def _boxes_oracle(records):
    """Per-box loops in the README's order: the first object that cannot be
    read, else the first box with bad geometry or score. Returns that fault's message
    or the (labels, coords, scores, score_missing) columns."""
    labels, coords, scores, score_missing = [], [], [], []
    for i, rec in enumerate(records):
        try:
            label = str(rec["label"])
            box = (float(rec["x_min"]), float(rec["y_min"]),
                   float(rec["x_max"]), float(rec["y_max"]))
            score = rec.get("score")
            scores.append(0.0 if score is None else float(score))
        except KeyError as exc:
            return f"box object at index {i} has no key {exc}"
        except (TypeError, ValueError, OverflowError) as exc:
            return f"bad box object at index {i}: {exc}"
        labels.append(label)
        coords.append(box)
        score_missing.append(score is None)
    for i, (box, score) in enumerate(zip(coords, scores)):
        if not all(np.isfinite(c) and c >= 0 for c in box):
            return f"bad box object at index {i}: box coordinates must be finite and >= 0, got {box}"
        if not (box[0] < box[2] and box[1] < box[3]):
            return f"bad box object at index {i}: degenerate box {box}"
        if not np.isfinite(score):
            return f"bad box object at index {i}: score must be finite, got {score!r}"
    return labels, coords, scores, score_missing


# "missing" leaves the key out; 10**400 is an integer too large for a float
_COORDINATES = [0, -0.0, 1, 5, 10.5, -1, float("nan"), float("inf"), "3", " 7.5 ", "low",
                None, True, False, 10**400, [1], {"v": 1}, "missing"]
_SCORES = [None, 0.5, "0.25", "high", True, False, float("nan"), [0.5], "missing"]


@st.composite
def _box_object(draw):
    rec = {"label": draw(st.sampled_from(["car", "person", 1]))}
    for c in BOX_COLUMNS:
        rec[c] = draw(st.one_of(st.sampled_from(_COORDINATES), st.floats(-2, 50)))
    rec["score"] = draw(st.sampled_from(_SCORES))
    return {k: v for k, v in rec.items() if not (isinstance(v, str) and v == "missing")}


_valid_box = st.builds(
    lambda x, y, w, h, score: {"label": "car", "x_min": x, "y_min": y,
                               "x_max": x + w, "y_max": y + h, "score": score},
    st.floats(0, 100), st.floats(0, 100), st.floats(0.5, 10), st.floats(0.5, 10),
    st.one_of(st.none(), st.floats(0, 1)))

_GOOD = {"label": "car", "x_min": 0, "y_min": 0, "x_max": 1, "y_max": 1}


@settings(max_examples=300, deadline=None)
@given(records=st.lists(st.one_of(_valid_box, _box_object(),
                                  st.sampled_from([7, None, "box", [1, 2]])),
                        max_size=6))
@example(records=[_GOOD, {**_GOOD, "y_max": None}, {**_GOOD, "x_min": "low"}])
@example(records=[_GOOD, {**_GOOD, "score": "high"}, {"label": "car", "x_min": 0}])
@example(records=[{**_GOOD, "x_min": float("nan")}, {**_GOOD, "y_min": None}])
@example(records=[{**_GOOD, "x_max": 0}, _GOOD, {**_GOOD, "score": [0.5]}])
@example(records=[{**_GOOD, "x_min": True, "x_max": "3", "score": "0.25"},
                  {**_GOOD, "y_max": " 7.5 ", "score": False}])
@example(records=[_GOOD, {**_GOOD, "y_min": 10**400}])
@example(records=[_GOOD, {**_GOOD, "score": float("nan")}, {**_GOOD, "x_max": 0}])
@example(records=[_GOOD, {**_GOOD, "score": "inf"}])
@example(records=[])
def test_load_boxes_matches_per_box_oracle(tmp_path_factory, records):
    """Differential test: identical columns, and for a faulty file the same
    message as the oracle, in the README's order: the first object that
    cannot be read, else the first bad box."""
    path = tmp_path_factory.mktemp("boxes") / "boxes.json"
    path.write_text(json.dumps(records), encoding="utf-8")
    expect = _boxes_oracle(records)
    try:
        ds = load_boxes(path)
    except ParseError as exc:
        assert str(exc) == f"{path}: {expect}"
        return
    assert not isinstance(expect, str), expect
    labels, coords, scores, score_missing = expect
    assert ds.values("label").tolist() == labels
    got = np.stack([ds.values(c) for c in BOX_COLUMNS], axis=1)
    assert got.tobytes() == np.asarray(coords, dtype=float).reshape(-1, 4).tobytes()
    assert ds.values("score").tobytes() == np.asarray(scores, dtype=float).tobytes()
    assert ds.missing("score").tolist() == score_missing
