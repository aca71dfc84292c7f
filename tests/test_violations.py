import json

import numpy as np
import pytest

from conftest import make_dataset
from quantrules.dataset import BOOLEAN, LABEL, NUMERIC
from quantrules.rule_eval import evaluate_rule
from quantrules.schema import AbstractRule, ConcreteRule, Literal
from quantrules.statistics import StatisticRegistry
from quantrules.violations import (evaluate, read_report, report_from_obj,
                                   report_to_obj, write_report)


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
    return (v, n), [c for _, c in report.per_sample]


def test_check_inside_bounds_satisfied():
    assert check_one(aspect_rule(), box_ds([1.5])) == ((0, 1), [0])


def test_check_outside_upper_bound_violated():
    assert check_one(aspect_rule(), box_ds([5.0])) == ((1, 1), [1])


def test_check_outside_upper_bound_carries_value():
    ds = box_ds([5.0])
    rule = aspect_rule()
    ev = evaluate_rule(rule.rule, ds, np.array([0]), "label",
                       StatisticRegistry.from_dataset(ds))
    assert ev.violated(rule.lo, rule.hi).tolist() == [True]
    assert ev.samples[0] == 5.0


def test_check_boundary_value_satisfied():
    assert check_one(aspect_rule(), box_ds([2.77])) == ((0, 1), [0])


def test_check_guard_mismatch_not_evaluated():
    assert check_one(aspect_rule(), box_ds([5.0], labels=["person"])) == ((0, 0), [0])


def test_check_missing_cell_not_evaluated():
    ds = make_dataset({"v": (NUMERIC, [0.0])}, missing={"v": [True]})
    rule = ConcreteRule(rule=AbstractRule(kind="conditional", statistic="v"),
                        lo=0.0, hi=1.0, delta=0.02)
    assert check_one(rule, ds, label_column=None) == ((0, 0), [0])


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
    flagged = [i for i, c in report.per_sample if c]
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
    assert sum(c for _, c in report.per_sample) == 5 * 64


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
    assert dict(report.per_sample)[0] == 1


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
