import json
from math import comb

import numpy as np
import pytest
import yaml

from quantrules.cli import main
from quantrules.model import SoftmaxModel
from quantrules.rules_io import load_rules, save_rules
from quantrules.schema import AbstractRule, ConcreteRule

SCHEMA = """
template conditional_statistic
labels: a b
statistics: x0 x1
quantile: 0.98

template logic_implication
labels: a b
max_literals: 1
literals: signed
batch: 64
"""


def write_workspace(root, n=600, seed=0, test_shift=0.0):
    rng = np.random.default_rng(seed)

    def table(path, n, shift):
        y = rng.random(n) < 0.5
        x0 = rng.normal(0, 1, n) + shift
        x1 = rng.normal(2, 1, n) + shift
        flag = (rng.random(n) < np.where(y, 0.7, 0.3)).astype(int)
        lines = ["x0,x1,flag,label"]
        for i in range(n):
            lines.append(f"{float(x0[i])!r},{float(x1[i])!r},{flag[i]},"
                         f"{'b' if y[i] else 'a'}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    table(root / "train.csv", n, 0.0)
    table(root / "valid.csv", n, 0.0)
    table(root / "test.csv", n, test_shift)
    (root / "schema.txt").write_text(SCHEMA, encoding="utf-8")
    cfg = {
        "data": {"train": str(root / "train.csv"), "valid": str(root / "valid.csv"),
                 "test": str(root / "test.csv"), "label_column": "label"},
        "mine": {"schema": str(root / "schema.txt"),
                 "rules_out": str(root / "rules.jsonl"),
                 "n_train_batches": 40, "n_valid_batches": 20, "seed": 3},
        "evaluate": {"rules": str(root / "rules.jsonl"),
                     "report_out": str(root / "report.json"),
                     "batch_size": 64, "n_batches": 10, "seed": 5},
    }
    (root / "config.yaml").write_text(yaml.safe_dump(cfg), encoding="utf-8")
    return root / "config.yaml"


def test_mine_writes_rules_and_counts(tmp_path, capsys):
    cfg = write_workspace(tmp_path)
    assert main(["mine", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    # closed form: 2 labels x 2 statistics + 2 classes x 1 feature x 2 signs
    expected = 2 * 2 + 2 * 1 * 2
    assert f"enumerated={expected}" in out
    assert "selected=" in out
    rules, header = load_rules(tmp_path / "rules.jsonl")
    assert header["format_version"] == 1
    assert rules


def test_mine_is_deterministic(tmp_path):
    cfg = write_workspace(tmp_path)
    assert main(["mine", "--config", str(cfg)]) == 0
    first = (tmp_path / "rules.jsonl").read_bytes()
    assert main(["mine", "--config", str(cfg)]) == 0
    assert (tmp_path / "rules.jsonl").read_bytes() == first


def test_mine_empty_label_schema_exits_2(tmp_path, capsys):
    cfg = write_workspace(tmp_path)
    (tmp_path / "schema.txt").write_text(
        "template conditional_statistic\nstatistics: x0\n", encoding="utf-8")
    assert main(["mine", "--config", str(cfg)]) == 2
    assert "error:" in capsys.readouterr().err


def test_mine_unknown_statistic_exits_2(tmp_path, capsys):
    cfg = write_workspace(tmp_path)
    (tmp_path / "schema.txt").write_text(
        "template conditional_statistic\nlabels: a\nstatistics: bogus\n",
        encoding="utf-8")
    assert main(["mine", "--config", str(cfg)]) == 2
    assert "bogus" in capsys.readouterr().err


def test_evaluate_malformed_rule_line_exits_2(tmp_path, capsys):
    cfg = write_workspace(tmp_path)
    assert main(["mine", "--config", str(cfg)]) == 0
    path = tmp_path / "rules.jsonl"
    header, first, *rest = path.read_text(encoding="utf-8").splitlines()
    rule = json.loads(first)
    rule["literals"] = 5
    path.write_text("\n".join([header, json.dumps(rule)] + rest) + "\n", encoding="utf-8")
    assert main(["evaluate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err and "rules.jsonl" in err


def test_evaluate_roundtrip_and_seeds(tmp_path, capsys):
    cfg = write_workspace(tmp_path)
    assert main(["mine", "--config", str(cfg)]) == 0
    assert main(["evaluate", "--config", str(cfg), "--seeds", "1,2,3"]) == 0
    out = capsys.readouterr().out
    assert "total_violations_mean=" in out
    assert "total_violations_std=" in out
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    totals = report["totals"]
    assert totals["violations"] == sum(r["violations"] for r in report["per_rule"])


def test_evaluate_empty_rules_file_zero_totals(tmp_path, capsys):
    cfg = write_workspace(tmp_path)
    save_rules(tmp_path / "rules.jsonl", [])
    assert main(["evaluate", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert report["totals"]["violations"] == 0


def test_evaluate_version_mismatch_exits_2(tmp_path, capsys):
    cfg = write_workspace(tmp_path)
    path = tmp_path / "rules.jsonl"
    path.write_text('{"format_version": 99}\n', encoding="utf-8")
    assert main(["evaluate", "--config", str(cfg)]) == 2
    assert "format_version" in capsys.readouterr().err


def test_evaluate_shifted_data_has_more_violations(tmp_path, capsys):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    cfg_a = write_workspace(tmp_path / "a", seed=1)
    cfg_b = write_workspace(tmp_path / "b", seed=1, test_shift=8.0)
    for cfg in (cfg_a, cfg_b):
        assert main(["mine", "--config", str(cfg)]) == 0
        assert main(["evaluate", "--config", str(cfg)]) == 0
    clean = json.loads(((tmp_path / "a") / "report.json").read_text())
    shifted = json.loads(((tmp_path / "b") / "report.json").read_text())
    assert shifted["totals"]["violations"] > clean["totals"]["violations"]


def _add_adapt_section(cfg_path, root, **overrides):
    cfg = yaml.safe_load(cfg_path.read_text(encoding="utf-8"))
    cfg["adapt"] = {
        "rules": str(root / "rules.jsonl"),
        "model_in": str(root / "model.json"),
        "model_out": str(root / "adapted.json"),
        "trace_out": str(root / "trace.csv"),
        "report_before": str(root / "before.json"),
        "report_after": str(root / "after.json"),
        "iterations": 40, "batch_size": 64, "learning_rate": 0.01, "seed": 2,
        "eval_n_batches": 10,
    }
    cfg["adapt"].update(overrides)
    cfg_path.write_text(yaml.safe_dump(cfg), encoding="utf-8")


def _write_model(root):
    rng = np.random.default_rng(0)
    X = rng.normal(0, 1, (200, 2))
    model = SoftmaxModel.standardized(["x0", "x1"], ["a", "b"], X)
    model.fit(X, (X[:, 0] > 0).astype(int), iterations=50)
    model.save(root / "model.json")


def test_adapt_zero_violation_start_notes_and_exits_0(tmp_path, capsys):
    cfg = write_workspace(tmp_path)
    _write_model(tmp_path)
    vacuous = ConcreteRule(rule=AbstractRule(kind="conditional", statistic="x0"),
                           lo=-1e9, hi=1e9, delta=0.02)
    save_rules(tmp_path / "rules.jsonl", [vacuous])
    _add_adapt_section(cfg, tmp_path)
    assert main(["adapt", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "pct_reduced=0.0" in out
    assert "note=" in out


def test_adapt_zero_learning_rate_reduces_nothing(tmp_path, capsys):
    cfg = write_workspace(tmp_path)
    _write_model(tmp_path)
    assert main(["mine", "--config", str(cfg)]) == 0
    _add_adapt_section(cfg, tmp_path, learning_rate=0.0)
    assert main(["adapt", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "pct_reduced=0.0" in out
    before = json.loads((tmp_path / "before.json").read_text())
    after = json.loads((tmp_path / "after.json").read_text())
    assert before["totals"]["violations"] == after["totals"]["violations"]
    assert (tmp_path / "trace.csv").exists()
    assert (tmp_path / "adapted.json").exists()


def test_report_command_summarizes(tmp_path, capsys):
    cfg = write_workspace(tmp_path)
    assert main(["mine", "--config", str(cfg)]) == 0
    assert main(["evaluate", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["report", "--report", str(tmp_path / "report.json")]) == 0
    out = capsys.readouterr().out
    assert "total_violations=" in out
    assert main(["report", "--report", str(tmp_path / "report.json"),
                 "--out", str(tmp_path / "report.csv"), "--format", "csv"]) == 0
    assert (tmp_path / "report.csv").read_text().startswith("section,key")


def test_missing_config_section_exits_2(tmp_path, capsys):
    cfg = tmp_path / "config.yaml"
    cfg.write_text(yaml.safe_dump({"data": {}}), encoding="utf-8")
    assert main(["mine", "--config", str(cfg)]) == 2


BOX_SCHEMA = """
template conditional_statistic
labels: car person
statistics: aspect_ratio width height area center_x bottom_y
quantile: 0.98

template paired_bucketed
labels: car person
statistics: aspect_ratio width
pair_buckets: 4
"""


def write_boxes(path, rng, n, label, width_range, height_range):
    boxes = []
    for _ in range(n):
        w = rng.uniform(*width_range)
        h = rng.uniform(*height_range)
        x = rng.uniform(0, 1800)
        y = rng.uniform(0, 900)
        boxes.append({"label": label, "x_min": x, "y_min": y,
                      "x_max": x + w, "y_max": y + h,
                      "score": float(rng.uniform(0.5, 1.0))})
    return boxes


def test_box_prediction_pipeline(tmp_path, capsys):
    rng = np.random.default_rng(8)

    def dump(path, stretch=1.0):
        boxes = (write_boxes(path, rng, 300, "car", (80, 200), (40, 90))
                 + write_boxes(path, rng, 300, "person",
                               (20 * stretch, 45 * stretch), (60, 170)))
        path.write_text(json.dumps(boxes), encoding="utf-8")

    dump(tmp_path / "train.json")
    dump(tmp_path / "valid.json")
    dump(tmp_path / "test.json", stretch=8.0)  # implausibly wide people
    (tmp_path / "schema.txt").write_text(BOX_SCHEMA, encoding="utf-8")
    cfg = {
        "data": {"train": str(tmp_path / "train.json"),
                 "valid": str(tmp_path / "valid.json"),
                 "test": str(tmp_path / "test.json"),
                 "label_column": "label"},
        "mine": {"schema": str(tmp_path / "schema.txt"),
                 "rules_out": str(tmp_path / "rules.jsonl"),
                 "n_train_batches": 40, "n_valid_batches": 20,
                 "batch_size": 64, "seed": 1},
        "evaluate": {"rules": str(tmp_path / "rules.jsonl"),
                     "report_out": str(tmp_path / "report.json"),
                     "batch_size": 64, "n_batches": 10, "seed": 2},
    }
    cfg["mine"]["batch_size"] = 64
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump(cfg), encoding="utf-8")

    assert main(["mine", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    # 2 labels x 6 statistics singles + 2 x 2 x 1 x 4 paired-bucket rules
    assert "enumerated=28" in out
    rules, _ = load_rules(tmp_path / "rules.jsonl")
    assert any(c.rule.kind == "paired" for c in rules)

    assert main(["evaluate", "--config", str(config)]) == 0
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    per_rule = {r["signature"]: r["violations"] for r in report["per_rule"]}
    person_ar = [v for s, v in per_rule.items()
                 if "y=person" in s and "phi=aspect_ratio" in s]
    assert person_ar and person_ar[0] > 100  # stretched people break their bounds
    car_ar = [v for s, v in per_rule.items()
              if "y=car" in s and "phi=aspect_ratio" in s]
    # cars kept the training geometry: only the ~2% quantile tail violates
    assert car_ar and car_ar[0] <= 0.05 * 300


BOX = {"label": "car", "x_min": 0, "y_min": 0, "x_max": 4, "y_max": 2}


@pytest.mark.parametrize("payload, expected", [
    ([BOX, {k: v for k, v in BOX.items() if k != "y_max"}], "index 1 has no key 'y_max'"),
    (BOX, "expected a JSON array"),
    ([BOX, dict(BOX, x_max=0)], "index 1: degenerate box"),
    ([BOX, dict(BOX, y_min="low")], "index 1: could not convert"),
    ([BOX, dict(BOX, score="high")], "index 1: could not convert"),
    ([BOX, 7], "index 1: "),
    ('[{"label": "car",', "line 1: "),
])
def test_bad_box_file_exits_2_naming_file_and_index(tmp_path, capsys, payload, expected):
    cfg_path = write_workspace(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text(payload if isinstance(payload, str) else json.dumps(payload),
                   encoding="utf-8")
    cfg = yaml.safe_load(cfg_path.read_text(encoding="utf-8"))
    cfg["data"]["train"] = str(bad)
    cfg_path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    assert main(["mine", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and expected in err


def test_adapt_divergence_exits_3_with_partial_trace(tmp_path, capsys):
    rng = np.random.default_rng(11)
    n = 32
    lines = ["x0,x1"]
    for i in range(n):
        lines.append(f"{float(rng.uniform(1e120, 2e120))!r},"
                     f"{float(rng.uniform(-2e120, -1e120))!r}")
    (tmp_path / "test.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    model = SoftmaxModel(["x0", "x1"], ["a", "b"],
                         np.ones(2) * 1e-120, np.zeros(2),
                         np.array([[0.8, -0.8], [-0.5, 0.5]]), np.zeros(2))
    model.save(tmp_path / "model.json")
    from quantrules.dataset import load_table
    from quantrules.adaptation import forward_batch
    test_ds = load_table(tmp_path / "test.csv")
    out = forward_batch(model, test_ds, np.arange(n))
    phi = float(out.probs[:, 1].mean())
    rule = ConcreteRule(
        rule=AbstractRule(kind="conditional", statistic="mean(score_b)"),
        lo=phi + 0.1, hi=phi + 0.3, delta=0.02)  # violated, unclipped gradient
    save_rules(tmp_path / "rules.jsonl", [rule])

    cfg = {
        "data": {"test": str(tmp_path / "test.csv")},
        "adapt": {"rules": str(tmp_path / "rules.jsonl"),
                  "model_in": str(tmp_path / "model.json"),
                  "trace_out": str(tmp_path / "trace.csv"),
                  "iterations": 10, "batch_size": 16,
                  "learning_rate": 1e300, "seed": 0, "eval_n_batches": 2},
    }
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    assert main(["adapt", "--config", str(config)]) == 3
    assert "error:" in capsys.readouterr().err
    trace_lines = (tmp_path / "trace.csv").read_text(encoding="utf-8").splitlines()
    assert len(trace_lines) >= 2  # header plus the iterations before failure


def test_cardio_style_feature_expansion_count(tmp_path, capsys):
    # 6 numeric columns bucketed 8 ways plus 4 booleans = 52 features
    rng = np.random.default_rng(0)
    n = 400
    header = [f"n{j}" for j in range(6)] + [f"b{j}" for j in range(4)] + ["label"]
    rows = []
    for i in range(n):
        cells = [f"{float(v)!r}" for v in rng.normal(0, 1, 6)]
        cells += [str(int(v)) for v in rng.integers(0, 2, 4)]
        cells.append("yes" if rng.random() < 0.5 else "no")
        rows.append(",".join(cells))
    for name in ("train", "valid", "test"):
        (tmp_path / f"{name}.csv").write_text(
            ",".join(header) + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    (tmp_path / "schema.txt").write_text(
        "template logic_implication\nlabels: yes no\nmax_literals: 2\nbatch: 32\n",
        encoding="utf-8")
    features = ([{"column": f"n{j}", "buckets": 8} for j in range(6)]
                + [{"column": f"b{j}"} for j in range(4)]
                + [{"column": "label"}])
    cfg = {
        "data": {"train": str(tmp_path / "train.csv"),
                 "valid": str(tmp_path / "valid.csv"),
                 "test": str(tmp_path / "test.csv"),
                 "label_column": "label", "features": features},
        "mine": {"schema": str(tmp_path / "schema.txt"),
                 "rules_out": str(tmp_path / "rules.jsonl"),
                 "n_train_batches": 3, "n_valid_batches": 2, "seed": 1},
    }
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    assert main(["mine", "--config", str(config)]) == 0
    # closed form: per class, 52 singles plus C(52,2) pairs excluding the
    # C(8,2) same-source pairs inside each of the 6 bucketed columns
    pairs = comb(52, 2) - 6 * comb(8, 2)
    expected = 2 * (52 + pairs)
    assert f"enumerated={expected}" in capsys.readouterr().out


def test_inputs_never_mutated(tmp_path):
    cfg = write_workspace(tmp_path)
    before = {p.name: p.read_bytes() for p in tmp_path.glob("*.csv")}
    assert main(["mine", "--config", str(cfg)]) == 0
    assert main(["evaluate", "--config", str(cfg)]) == 0
    after = {p.name: p.read_bytes() for p in tmp_path.glob("*.csv")}
    assert before == after
