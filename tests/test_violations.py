import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_dataset, write_csv
from quantrules.dataset import BOOLEAN, LABEL, NUMERIC, load_table
from quantrules.errors import ParseError
from quantrules.rule_eval import Cells
from quantrules.schema import AbstractRule, ConcreteRule, Literal
from quantrules.statistics import StatisticRegistry
from quantrules.violations import (ViolationReport, evaluate, read_report,
                                   report_from_obj, write_report)
from scalar_oracle import report_to_obj


def aspect_rule(lo=0.07, hi=2.77, guard="car"):
    return ConcreteRule(
        rule=AbstractRule(kind="conditional", guard=guard, statistic="aspect_ratio"),
        lo=lo, hi=hi, delta=0.02)


def box_ds(ratios, labels=None):
    n = len(ratios)
    labels = labels or ["car"] * n
    return make_dataset({
        "label": (LABEL, np.array(labels, dtype=object)),
        "x_min": (NUMERIC, np.zeros(n)),
        "y_min": (NUMERIC, np.zeros(n)),
        "x_max": (NUMERIC, np.asarray(ratios, dtype=float)),
        "y_max": (NUMERIC, np.ones(n)),
    })


# -- checking one rule --------------------------------------------------------

def check_one(rule, ds, label_column="label"):
    """(violations, evaluations) of ``rule`` and the per-sample counts."""
    report = evaluate([rule], ds, label_column=label_column)
    (sig, v, n), = report.per_rule
    assert sig == rule.signature
    return (v, n), report.per_sample.tolist()


def test_check_inside_bounds_satisfied():
    assert check_one(aspect_rule(), box_ds([1.5])) == ((0, 1), [0])


def test_check_outside_upper_bound_violated():
    assert check_one(aspect_rule(), box_ds([5.0])) == ((1, 1), [1])


def test_check_outside_upper_bound_carries_value():
    ds = box_ds([5.0])
    rule = aspect_rule()
    cells = Cells(ds, np.array([0]), "label", StatisticRegistry.from_dataset(ds))
    values, mask = cells.values(rule.rule)
    assert mask.tolist() == [True] and values.tolist() == [5.0]
    assert not rule.lo <= values[0] <= rule.hi


def test_check_boundary_value_satisfied():
    assert check_one(aspect_rule(), box_ds([2.77])) == ((0, 1), [0])


def test_check_guard_mismatch_not_evaluated():
    assert check_one(aspect_rule(), box_ds([5.0], labels=["person"])) == ((0, 0), [0])


def test_check_missing_cell_not_evaluated():
    ds = make_dataset({"v": (NUMERIC, [0.0])}, missing={"v": [True]})
    rule = ConcreteRule(rule=AbstractRule(kind="conditional", statistic="v"),
                        lo=0.0, hi=1.0, delta=0.02)
    assert check_one(rule, ds, label_column=None) == ((0, 0), [0])


def test_check_nan_value_violated(tmp_path):
    """A point box in a CSV table has aspect ratio 0 / 0 = NaN, which lies
    outside every interval: a violation, as a NaN minibatch value is."""
    path = write_csv(tmp_path / "boxes.csv", ["label", "x_min", "y_min", "x_max", "y_max"],
                     [["car", 0, 0, 1, 1], ["car", 2, 2, 2, 2], ["car", 0, 0, 1.5, 1]])
    assert check_one(aspect_rule(0.5, 2.0), load_table(path)) == ((1, 3), [0, 1, 0])


# -- evaluate -------------------------------------------------------------------

def value_rule(lo, hi, column="v"):
    return ConcreteRule(rule=AbstractRule(kind="conditional", statistic=column),
                        lo=lo, hi=hi, delta=0.02)


def test_evaluate_zero_rules_zero_totals():
    ds = make_dataset({"v": (NUMERIC, np.arange(5.0))})
    report = evaluate([], ds)
    assert report.total_violations == 0
    assert report.per_rule == []
    assert len(report.per_sample) == 5


def test_evaluate_vacuous_bounds_no_violations():
    ds = make_dataset({"v": (NUMERIC, np.arange(100.0))})
    report = evaluate([value_rule(0.0, 99.0)], ds)
    assert report.total_violations == 0
    assert report.per_rule[0][2] == 100


def test_evaluate_counts_known_outliers():
    # oracle: direct scan, 10 of 100 values fall outside [10, 99]
    vals = np.arange(100.0)
    ds = make_dataset({"v": (NUMERIC, vals)})
    report = evaluate([value_rule(10.0, 99.0)], ds)
    assert report.per_rule[0][1] == 10
    assert report.total_violations == 10
    flagged = np.flatnonzero(report.per_sample).tolist()
    assert flagged == list(range(10))


def test_evaluate_accounting_identity_with_batch_rules():
    rng = np.random.default_rng(0)
    n = 400
    ds = make_dataset({
        "A": (BOOLEAN, (rng.random(n) < 0.5).astype(float)),
        "y": (LABEL, np.where(rng.random(n) < 0.5, "p", "n").astype(object)),
    })
    logic = ConcreteRule(
        rule=AbstractRule(kind="logic", statistic="f1", consequent="p",
                          literals=(Literal("A"),), batch_size=64),
        lo=0.9, hi=1.0, delta=0.02)  # F1 ~ 0.5, so every batch violates
    report = evaluate([logic], ds, batching=(64, 5, 3), label_column="y")
    assert report.per_rule[0][1] == 5 * 64
    assert report.total_violations == 5 * 64
    assert report.per_sample.sum() == 5 * 64


def test_evaluate_is_deterministic_and_monotone(tmp_path):
    rng = np.random.default_rng(1)
    ds = make_dataset({"v": (NUMERIC, rng.normal(0, 1, 300))})
    tight = value_rule(-1.0, 1.0)
    tighter = value_rule(-0.5, 0.5)
    r1 = evaluate([tight], ds)
    r2 = evaluate([tight, tighter], ds)
    assert r2.total_violations >= r1.total_violations
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_report(evaluate([tight, tighter], ds), p1)
    write_report(evaluate([tight, tighter], ds), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_evaluate_skips_rules_on_absent_columns():
    ds = make_dataset({"v": (NUMERIC, np.arange(10.0))})
    ghost = value_rule(0.0, 1.0, column="ghost")
    report = evaluate([ghost, value_rule(0.0, 4.0)], ds)
    assert report.per_rule[0] == ("cond|two|y=*|phi=ghost", 0, 0)
    assert report.per_rule[1][1] == 5


def test_evaluate_lists_unevaluable_rules_apart_from_unmatched_ones():
    ds = make_dataset({"v": (NUMERIC, np.arange(10.0)),
                       "y": (LABEL, np.array(["a"] * 10, dtype=object))})
    ghost = value_rule(0.0, 1.0, column="ghost")
    unmatched = ConcreteRule(rule=AbstractRule(kind="conditional", guard="b",
                                               statistic="v"),
                             lo=0.0, hi=1.0, delta=0.02)
    report = evaluate([ghost, unmatched], ds, label_column="y")
    assert [n for _, _, n in report.per_rule] == [0, 0]
    assert report.unevaluable == [ghost.signature]


def test_paired_rule_checks_only_its_bucket():
    ds = make_dataset({
        "s1": (NUMERIC, np.array([0.1, 0.9, 0.2, 0.8])),
        "s2": (NUMERIC, np.array([5.0, 5.0, 1.0, 1.0])),
        "y": (LABEL, np.array(["c"] * 4, dtype=object)),
    })
    rule = ConcreteRule(
        rule=AbstractRule(kind="paired", guard="c", statistic="s2", s1="s1",
                          s1_bucket=0, s1_bucket_count=2),
        lo=0.0, hi=2.0, delta=0.02, s1_lo=float("-inf"), s1_hi=0.5)
    report = evaluate([rule], ds, label_column="y")
    # rows 0 and 2 are in bucket s1 <= 0.5; only row 0 violates s2 <= 2
    assert report.per_rule[0] == (rule.signature, 1, 2)
    assert report.per_sample[0] == 1


# -- report io --------------------------------------------------------------------

def test_report_round_trip(tmp_path):
    ds = make_dataset({"v": (NUMERIC, np.arange(20.0))})
    report = evaluate([value_rule(2.0, 18.0)], ds)
    path = tmp_path / "report.json"
    write_report(report, path)
    restored = read_report(path)
    assert restored == report


def test_report_json_shape_and_ordering(tmp_path):
    ds = make_dataset({"v": (NUMERIC, np.arange(5.0))})
    path = tmp_path / "report.json"
    write_report(evaluate([value_rule(1.0, 3.0)], ds), path)
    obj = json.loads(path.read_text(encoding="utf-8"))
    assert obj["format_version"] == 1
    assert [r["sample"] for r in obj["per_sample"]] == [0, 1, 2, 3, 4]
    assert obj["totals"]["violations"] == 2
    assert isinstance(obj["totals"]["violations"], int)


def test_empty_report_is_valid_json_with_zero_totals(tmp_path):
    ds = make_dataset({"v": (NUMERIC, np.zeros(0))})
    path = tmp_path / "report.json"
    write_report(evaluate([], ds), path)
    obj = json.loads(path.read_text(encoding="utf-8"))
    assert obj["totals"] == {"violations": 0, "per_sample_mean": 0.0,
                             "per_sample_std": 0.0, "rules": 0, "samples": 0}


def test_report_csv_format(tmp_path):
    ds = make_dataset({"v": (NUMERIC, np.arange(3.0))})
    path = tmp_path / "report.csv"
    write_report(evaluate([value_rule(0.0, 1.0)], ds), path, fmt="csv")
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "section,key,violations,evaluations"
    assert any(line.startswith("total,violations,1") for line in lines)


def test_report_validate_catches_mismatch():
    obj = report_to_obj(evaluate([], make_dataset({"v": (NUMERIC, np.zeros(3))})))
    obj["totals"]["violations"] = 5
    with pytest.raises(AssertionError):
        report_from_obj(obj)


_TRICKY_SIGNATURES = ['say "hi"', "back\\slash", "caf\u00e9 \u2603", "tab\tnew\nline", ""]
_TRICKY_FLOATS = [0.1, 1 / 3, 2 / 3, 1e-300, 5e-324, 1.7976931348623157e308, -0.0,
                  1e16, 123456789.12345679, 0.30000000000000004]


@st.composite
def _reports(draw):
    """A report whose accounting holds: the first rule carries every violation."""
    signatures = draw(st.lists(st.one_of(st.sampled_from(_TRICKY_SIGNATURES), st.text()),
                               max_size=4))
    counts = draw(st.lists(st.integers(0, 2**40), max_size=30))
    if not signatures:
        counts = [0] * len(counts)
    total = sum(counts)
    per_rule = [(sig, total if j == 0 else 0, (total if j == 0 else 0)
                 + draw(st.integers(0, 2**40))) for j, sig in enumerate(signatures)]
    floats = st.one_of(st.sampled_from(_TRICKY_FLOATS),
                       st.floats(allow_nan=False, allow_infinity=False))
    return ViolationReport(per_rule=per_rule, per_sample=np.array(counts, dtype=np.int64),
                           total_violations=total, per_sample_mean=draw(floats),
                           per_sample_std=draw(floats))


@settings(max_examples=300, deadline=None)
@given(report=_reports())
@example(report=ViolationReport())
@example(report=ViolationReport(per_sample=np.zeros(3, dtype=np.int64)))
@example(report=ViolationReport(per_rule=[('q"\\\u00e9', 0, 0)]))
@example(report=ViolationReport(per_rule=[("r", 3, 9)], per_sample=np.array([0, 2, 1]),
                                total_violations=3, per_sample_mean=1.0,
                                per_sample_std=0.816496580927726))
def test_report_json_equals_json_dumps_and_round_trips(tmp_path_factory, report):
    """Differential test: the columnar writer against the json encoder."""
    path = tmp_path_factory.mktemp("report") / "report.json"
    write_report(report, path)
    expect = json.dumps(report_to_obj(report), indent=2) + "\n"
    assert path.read_bytes() == expect.encode("utf-8")
    assert read_report(path) == report


def _good_report_obj():
    ds = make_dataset({"v": (NUMERIC, np.arange(5.0))})
    return report_to_obj(evaluate([value_rule(1.0, 3.0), value_rule(0.0, 9.0)], ds))


def _set(*keys, value):
    def change(obj):
        *parents, last = keys
        for key in parents:
            obj = obj[key]
        obj[last] = value
    return change


def _delete(*keys):
    def change(obj):
        *parents, last = keys
        for key in parents:
            obj = obj[key]
        del obj[last]
    return change


def _counts_wrapping_to_zero(obj):
    """Per-sample counts whose int64 sum wraps to 0, beside zero rule and
    total violations."""
    counts = [2**63 - 1, 2**63 - 1, 2, 0, 0]
    for entry, count in zip(obj["per_sample"], counts):
        entry["violations"] = count
    for entry in obj["per_rule"]:
        entry["violations"] = 0
    obj["totals"]["violations"] = 0


def _swap_sample_ids(obj):
    first, second = obj["per_sample"][:2]
    first["sample"], second["sample"] = second["sample"], first["sample"]


@pytest.mark.parametrize("change, field, message", [
    (_delete("totals"), "report.json", "missing key 'totals'"),
    (_set("extra", value=1), "report.json", "unknown key 'extra'"),
    (_set("format_version", value=2), "report.json", "format_version 2"),
    (_delete("per_sample", 2, "violations"), "per_sample[2]", "missing key 'violations'"),
    (_set("per_sample", 1, "note", value="x"), "per_sample[1]", "unknown key 'note'"),
    (_set("per_sample", 0, "violations", value=1.0), "per_sample[0]",
     "violations must be a non-negative integer, got 1.0"),
    (_set("per_sample", 0, "violations", value=True), "per_sample[0]",
     "violations must be a non-negative integer, got True"),
    (_set("per_sample", 4, "violations", value="1"), "per_sample[4]",
     "violations must be a non-negative integer, got '1'"),
    (_set("per_sample", 3, "violations", value=-1), "per_sample[3]",
     "violations must be a non-negative integer, got -1"),
    (_set("per_sample", 3, value=[3, 0]), "per_sample[3]", "must be an object"),
    (_set("per_sample", value={}), "report.json", "per_sample must be a list"),
    (_swap_sample_ids, "per_sample[0]", "sample must be 0"),
    (_delete("per_sample", 4), "totals", "samples is 5 but per_sample has 4 entries"),
    (_set("totals", "rules", value=3), "totals", "rules is 3 but per_rule has 2 entries"),
    (_set("per_rule", 1, "evaluations", value=2.5), "per_rule[1]",
     "evaluations must be a non-negative integer, got 2.5"),
    (_set("per_rule", 0, "signature", value=7), "per_rule[0]",
     "signature must be a string, got 7"),
    (_delete("per_rule", 0, "evaluations"), "per_rule[0]", "missing key 'evaluations'"),
    (_set("totals", "per_sample_mean", value="0.4"), "totals",
     "per_sample_mean must be a number"),
    (_set("totals", "violations", value=5), "report.json",
     "violation accounting mismatch"),
    (_set("per_sample", 2, "violations", value=1), "report.json",
     "violation accounting mismatch"),
    (_set("per_sample", 1, "violations", value=2**63), "per_sample[1]",
     f"violations {2**63} exceeds the int64 maximum"),
    (_counts_wrapping_to_zero, "per_sample[1]",
     "the per-sample violations sum past the int64 maximum"),
], ids=["no-totals", "extra-key", "version", "sample-no-count", "sample-extra-key",
        "float-count", "bool-count", "string-count", "negative-count", "sample-not-object",
        "per-sample-not-list", "ids-out-of-order", "samples-total", "rules-total",
        "float-evaluations", "signature-not-string", "rule-no-evaluations", "mean-string",
        "violations-total", "sample-sum", "count-above-int64", "sum-above-int64"])
def test_read_report_rejects_a_bad_file_naming_file_and_field(tmp_path, change, field,
                                                              message):
    obj = _good_report_obj()
    path = tmp_path / "report.json"
    path.write_text(json.dumps(obj, indent=2), encoding="utf-8")
    assert read_report(path) == report_from_obj(obj)
    change(obj)
    path.write_text(json.dumps(obj, indent=2), encoding="utf-8")
    with pytest.raises(ParseError) as info:
        read_report(path)
    text = str(info.value)
    assert text.startswith(f"{path}") and field in text and message in text


def test_read_report_rejects_invalid_json(tmp_path):
    path = tmp_path / "report.json"
    path.write_text('{"format_version": 1,', encoding="utf-8")
    with pytest.raises(ParseError, match=f"line 1: {path}: invalid JSON"):
        read_report(path)
