import csv
import json
import re
from collections import Counter
from math import comb
from pathlib import Path

import numpy as np
import pytest
import yaml

from quantrules import cli, rules_io, schema
from quantrules.cli import _load_config, main
from quantrules.model import SoftmaxModel
from quantrules.rules_io import load_rules, save_rules
from quantrules.schema import AbstractRule, ConcreteRule, Literal

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


def test_mine_records_batch_size_and_delta_overrides(tmp_path, monkeypatch):
    """Rules mined at mine.batch_size and mine.delta record them, so evaluate
    and adapt read the batches the bounds were learned on, and the selected
    rules equal their own rules-file round trip."""
    cfg_path = write_workspace(tmp_path)
    cfg = yaml.safe_load(cfg_path.read_text(encoding="utf-8"))
    cfg["mine"].update(batch_size=16, delta=0.1)
    cfg_path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    saved, save = [], rules_io.save_rules

    def kept(path, rules, bucket_edges=None):
        saved.extend(rules)
        return save(path, rules, bucket_edges)

    monkeypatch.setattr(rules_io, "save_rules", kept)
    assert main(["mine", "--config", str(cfg_path)]) == 0
    lines = (tmp_path / "rules.jsonl").read_text(encoding="utf-8").splitlines()[1:]
    kinds = {json.loads(line)["kind"] for line in lines}
    assert len(lines) == len(saved) > 0 and kinds == {"conditional", "logic"}
    for line in lines:
        obj = json.loads(line)
        assert (obj["batch_size"], obj["delta"]) == (16, 0.1), line
    assert load_rules(tmp_path / "rules.jsonl")[0] == saved


def test_mine_takes_each_rule_signature_once(tmp_path, capsys, monkeypatch):
    """Once, when the rule is made: enumeration sorts and dedups the rules by
    it, and selection logs it and writes it out."""
    cfg = write_workspace(tmp_path)
    calls, signature = Counter(), schema.rule_signature

    def counted(rule):
        calls[rule] += 1
        return signature(rule)

    monkeypatch.setattr(schema, "rule_signature", counted)
    assert main(["mine", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert f" enumerated={len(calls)} " in out and "selected=0 " not in out
    assert max(calls.values()) == 1


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


def test_evaluate_seeds_logs_the_totals_of_each_seed_alone(tmp_path, capsys):
    """``evaluate --seeds 8,9,10`` logs the totals that one evaluate per seed
    gives, on logic rules of two batch sizes."""
    cfg = write_workspace(tmp_path)
    rules = [ConcreteRule(rule=AbstractRule(kind="logic", statistic="f1", consequent=cls,
                                            literals=(Literal("flag", neg),), batch_size=size),
                          lo=0.4, hi=0.6, delta=0.02)
             for size in (32, 64) for cls in ("a", "b") for neg in (False, True)]
    rules.append(ConcreteRule(rule=AbstractRule(kind="conditional", statistic="mean(x0)",
                                                batch_size=64), lo=-0.1, hi=0.1, delta=0.02))
    save_rules(tmp_path / "rules.jsonl", rules)
    totals = []
    for seed in ("8", "9", "10"):
        capsys.readouterr()
        assert main(["evaluate", "--config", str(cfg), "--seed", seed]) == 0
        totals.append(int(re.search(r" total_violations=(\d+) ", capsys.readouterr().out)[1]))
    assert main(["evaluate", "--config", str(cfg), "--seeds", "8,9,10"]) == 0
    out = capsys.readouterr().out
    assert min(totals) > 0
    assert f" total_violations_mean={float(np.mean(totals))} " in out
    assert f" total_violations_std={float(np.std(totals))} " in out


@pytest.mark.parametrize("seeds", ["1,,2", "1,a", ""])
def test_evaluate_bad_seeds_flag_exits_2_naming_the_flag(tmp_path, capsys, seeds):
    cfg = write_workspace(tmp_path)
    with pytest.raises(SystemExit) as excinfo:
        main(["evaluate", "--config", str(cfg), "--seeds", seeds])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --seeds: expected comma-separated integers, got {seeds!r}" in err


def test_evaluate_seed_flag_overrides_config_seeds(tmp_path, capsys):
    """``--seed`` overrides ``evaluate.seeds`` as well as ``evaluate.seed``,
    and ``--seeds`` overrides all three."""
    cfg = write_workspace(tmp_path)
    data = yaml.safe_load(cfg.read_text(encoding="utf-8"))
    data["evaluate"]["seeds"] = [1, 2]
    cfg.write_text(yaml.safe_dump(data), encoding="utf-8")
    assert main(["mine", "--config", str(cfg)]) == 0
    capsys.readouterr()
    runs = [([], "1,2"), (["--seed", "9"], "9"), (["--seeds", "4,5", "--seed", "9"], "4,5")]
    reports = []
    for flags, logged in runs:
        assert main(["evaluate", "--config", str(cfg), *flags]) == 0
        assert f" seeds={logged} " in capsys.readouterr().out
        reports.append((tmp_path / "report.json").read_bytes())
    # the --seed 9 report is the one a config with seed 9 and no seeds writes
    del data["evaluate"]["seeds"]
    data["evaluate"]["seed"] = 9
    cfg.write_text(yaml.safe_dump(data), encoding="utf-8")
    assert main(["evaluate", "--config", str(cfg)]) == 0
    assert (tmp_path / "report.json").read_bytes() == reports[1]


@pytest.mark.parametrize("command, flags", [("mine", ["--seeds", "4,5"]),
                                            ("mine", ["--format", "csv"]),
                                            ("adapt", ["--seeds", "4,5"])])
def test_flags_a_command_never_reads_exit_2(tmp_path, capsys, command, flags):
    cfg = write_workspace(tmp_path)
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--config", str(cfg), *flags])
    assert excinfo.value.code == 2
    assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err


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


def _set_edges(edges):
    def change(header):
        header["bucket_edges"] = edges
        return header
    return change


@pytest.mark.parametrize("command", ["evaluate", "adapt"])
@pytest.mark.parametrize("change, field", [
    (_set_edges("x"), "bucket_edges"),
    (_set_edges({"x0": [-0.5]}), "'x0'"),  # buckets: 3 needs 2 edges
    (_set_edges({"x0": [0.5, -0.5]}), "'x0'"),
    (_set_edges({}), "'x0'"),
    (_set_edges({"x0": [None, None]}), "'x0'"),
    (_set_edges({"x0": [-0.5, float("nan")]}), "'x0'"),
    (_set_edges({"x0": [-0.5, True]}), "'x0'"),
    (lambda h: dict(h, format_version=True), "format_version"),
    (lambda h: dict(h, format_version=1.0), "format_version"),
    (lambda h: dict(h, extra=1), "'extra'"),
    (lambda h: {"format_version": 1}, "'bucket_edges'"),
    (lambda h: [1], "[1]"),
], ids=["edges-str", "edges-short", "edges-reversed", "edges-missing", "edges-null",
        "edges-nan", "edges-bool", "version-bool", "version-float", "unknown-key",
        "no-edges", "not-object"])
def test_rules_header_faults_exit_2_naming_file_and_field(tmp_path, capsys, command,
                                                          change, field):
    """The rules header holds exactly format_version 1 and bucket_edges, with
    n - 1 finite, non-decreasing edges for each features column of n
    buckets; anything else fails before the test table's edges are used."""
    cfg_path = write_workspace(tmp_path)
    cfg = yaml.safe_load(cfg_path.read_text(encoding="utf-8"))
    cfg["data"]["features"] = [{"column": "x0", "buckets": 3}, {"column": "x1"},
                               {"column": "flag"}, {"column": "label"}]
    cfg_path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    _write_model(tmp_path)
    _add_adapt_section(cfg_path, tmp_path)
    rules = tmp_path / "rules.jsonl"
    save_rules(rules, [ConcreteRule(rule=AbstractRule(kind="conditional", statistic="x1"),
                                    lo=-1e9, hi=1e9, delta=0.02)],
               bucket_edges={"x0": [-0.5, 0.5]})
    assert main(["evaluate", "--config", str(cfg_path)]) == 0
    header, *lines = rules.read_text(encoding="utf-8").splitlines()
    header = json.dumps(change(json.loads(header)))
    rules.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main([command, "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert f"{rules}: header" in err and field in err


@pytest.mark.parametrize("command", ["adapt", "mine", "evaluate"])
@pytest.mark.parametrize("iterations, epochs", [(3, 1), (1, 1)])
def test_adapt_iterations_and_epochs_together_exit_2(tmp_path, capsys, command,
                                                     iterations, epochs):
    """A config that sets both adapt.iterations and adapt.epochs fails, naming
    both keys, instead of running one and dropping the other."""
    cfg_path = write_workspace(tmp_path)
    _write_model(tmp_path)
    assert main(["mine", "--config", str(cfg_path)]) == 0
    _add_adapt_section(cfg_path, tmp_path, iterations=iterations, epochs=epochs)
    capsys.readouterr()
    assert main([command, "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert str(cfg_path) in err and "'iterations'" in err and "'epochs'" in err
    assert not (tmp_path / "trace.csv").exists()


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
    line, = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("command=adapt ")]
    assert re.findall(r"(?:^| )(\w+)=", line) == [
        "command", "note", "before", "after", "pct_reduced", "iterations", "seed",
        "zero_loss_iters"]
    assert line.startswith("command=adapt note=no violations before adaptation before=0 "
                           "after=0 pct_reduced=0.0 ")


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


@pytest.mark.parametrize("change, expected", [
    (lambda obj: obj.pop("bias"), "missing field 'bias'"),
    (lambda obj: obj.update(bogus=1), "unknown field 'bogus'"),
    (lambda obj: obj["scale"].__setitem__(0, float("nan")), "field 'scale' has a non-finite"),
    (lambda obj: obj["weights"].pop(), "field 'weights' must be numbers of shape (2, 2)"),
    (lambda obj: obj["shift"].__setitem__(1, "0.5"), "field 'shift' must be numbers"),
    (lambda obj: obj.update(adaptable=["scale"]), "field 'adaptable' must be"),
    (lambda obj: obj["classes"].__setitem__(1, "a"), "'classes' must be a list of distinct"),
], ids=["missing-key", "unknown-key", "nan", "shape", "string", "adaptable", "duplicate"])
def test_bad_model_checkpoint_exits_2_naming_file_and_field(tmp_path, capsys,
                                                             change, expected):
    cfg_path = write_workspace(tmp_path)
    _write_model(tmp_path)
    model_path = tmp_path / "model.json"
    obj = json.loads(model_path.read_text(encoding="utf-8"))
    change(obj)
    model_path.write_text(json.dumps(obj), encoding="utf-8")
    cfg = yaml.safe_load(cfg_path.read_text(encoding="utf-8"))
    cfg["mine"]["model_in"] = str(model_path)
    cfg_path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    assert main(["mine", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert str(model_path) in err and expected in err


@pytest.mark.parametrize("x0_cells, expected", [
    (["0.5", "oops", "1.5"], "line 3: "),
    (["", "", ""], "every cell is empty"),
    (["0.5", "1.5", "nan"], "line 4: "),
], ids=["non-numeric", "all-missing", "non-finite"])
def test_bad_bucketed_column_exits_2_naming_file_and_column(tmp_path, capsys,
                                                            x0_cells, expected):
    cfg_path = write_workspace(tmp_path)
    bad = tmp_path / "bad.csv"
    bad.write_text("x0,x1,flag,label\n" + "".join(
        f"{x0},1.0,0,a\n" for x0 in x0_cells), encoding="utf-8")
    cfg = yaml.safe_load(cfg_path.read_text(encoding="utf-8"))
    cfg["data"]["train"] = str(bad)
    cfg["data"]["features"] = [{"column": "x0", "buckets": 2}, {"column": "label"}]
    cfg_path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    assert main(["mine", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "'x0'" in err and expected in err


@pytest.mark.parametrize("quoted", [False, True], ids=["plain", "quoted"])
@pytest.mark.parametrize("label, expected", [
    (b"caf\xe9", "byte 0xe9 is not UTF-8 (invalid continuation byte)"),
    (b"a" * 131073, "field larger than field limit (131072)"),
], ids=["not-utf8", "field-over-limit"])
def test_unreadable_table_exits_2_naming_file_and_line(tmp_path, capsys, quoted,
                                                       label, expected):
    cfg = write_workspace(tmp_path)
    train = tmp_path / "train.csv"
    lines = train.read_bytes().split(b"\n")
    if quoted:
        lines[2] = lines[2].replace(b",a", b',"a"').replace(b",b", b',"b"')
    lines[4] = lines[4].rsplit(b",", 1)[0] + b"," + label
    train.write_bytes(b"\n".join(lines))
    assert main(["mine", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: line 5: {train}: {expected}\n"


def test_adapt_reads_box_json_test_set(tmp_path, capsys):
    rng = np.random.default_rng(4)
    boxes = (write_boxes(None, rng, 100, "car", (80, 200), (40, 90))
             + write_boxes(None, rng, 100, "person", (20, 45), (60, 170)))
    (tmp_path / "test.json").write_text(json.dumps(boxes), encoding="utf-8")
    X = np.array([[b["x_max"], b["y_max"]] for b in boxes])
    model = SoftmaxModel.standardized(["x_max", "y_max"], ["car", "person"], X)
    model.save(tmp_path / "model.json")
    rule = ConcreteRule(rule=AbstractRule(kind="conditional", statistic="mean(score_car)"),
                        lo=0.9, hi=1.0, delta=0.02)
    save_rules(tmp_path / "rules.jsonl", [rule])
    cfg = {"data": {"test": str(tmp_path / "test.json"), "label_column": "label"}}
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    _add_adapt_section(config, tmp_path, iterations=5)
    assert main(["adapt", "--config", str(config)]) == 0
    assert "command=adapt" in capsys.readouterr().out
    trace_lines = (tmp_path / "trace.csv").read_text(encoding="utf-8").splitlines()
    assert len(trace_lines) == 1 + 5


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
    out = forward_batch(model, model.feature_matrix(test_ds), np.arange(n))
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


def test_evaluate_test_table_with_model_output_column_exits_2(tmp_path, capsys):
    cfg_path = write_workspace(tmp_path)
    _write_model(tmp_path)
    assert main(["mine", "--config", str(cfg_path)]) == 0
    test_csv = tmp_path / "test.csv"
    lines = test_csv.read_text(encoding="utf-8").splitlines()
    test_csv.write_text("\n".join([lines[0] + ",pred"] + [line + ",a" for line in lines[1:]])
                        + "\n", encoding="utf-8")
    cfg = yaml.safe_load(cfg_path.read_text(encoding="utf-8"))
    cfg["evaluate"]["model_in"] = str(tmp_path / "model.json")
    cfg_path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    assert main(["evaluate", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert f"{test_csv}: data already carries model output column 'pred'" in err


def readme_config():
    """The YAML config example in README.md."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Config file", 1)[1]
    return yaml.safe_load(section.split("```yaml\n", 1)[1].split("```", 1)[0])


def test_readme_config_example_keys_are_accepted(tmp_path):
    cfg = readme_config()
    assert set(cfg) == {"data", "mine", "evaluate", "adapt"}
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    for command in ("mine", "evaluate", "adapt"):
        assert _load_config(path, command) == cfg


@pytest.mark.parametrize("command, change, where, key", [
    ("mine", lambda c: c["data"].update(trian="x.csv"), "section 'data'", "'trian'"),
    ("mine", lambda c: c["mine"].update(n_train_batchs=3), "section 'mine'",
     "'n_train_batchs'"),
    ("evaluate", lambda c: c["evaluate"].update(n_batchs=3), "section 'evaluate'",
     "'n_batchs'"),
    ("adapt", lambda c: c["adapt"].update(iteratons=3), "section 'adapt'", "'iteratons'"),
    ("mine", lambda c: c["data"]["features"][1].update(bucket=2),
     "section 'data': features[1]", "'bucket'"),
    ("mine", lambda c: c.update(evalute={}), "unknown section", "'evalute'"),
    ("evaluate", lambda c: c["evaluate"].update(n_batches="3"), "section 'evaluate'",
     "'n_batches' must be an integer"),
    ("mine", lambda c: c["mine"].update(seed=True), "section 'mine'",
     "'seed' must be an integer"),
    ("adapt", lambda c: c["adapt"].update(learning_rate="1e-2"), "section 'adapt'",
     "'learning_rate' must be a number"),
    ("evaluate", lambda c: c["evaluate"].update(seeds=[1, "2"]), "section 'evaluate'",
     "'seeds' must be a list of integers"),
    ("mine", lambda c: c["data"]["features"][0].pop("column"),
     "section 'data': features[0]", "missing key 'column'"),
    ("mine", lambda c: c.update(mine=[1]), "section 'mine'", "must be a mapping"),
    ("adapt", lambda c: c["adapt"].update(batch_size=0), "section 'adapt'",
     "'batch_size' must be an integer >= 1, got 0"),
    ("evaluate", lambda c: c["evaluate"].update(n_batches=0), "section 'evaluate'",
     "'n_batches' must be an integer >= 1, got 0"),
    ("evaluate", lambda c: c["evaluate"].update(batch_size=-3), "section 'evaluate'",
     "'batch_size' must be an integer >= 1, got -3"),
    ("mine", lambda c: c["mine"].update(n_train_batches=0), "section 'mine'",
     "'n_train_batches' must be an integer >= 1"),
    ("mine", lambda c: c["mine"].update(n_valid_batches=0), "section 'mine'",
     "'n_valid_batches' must be an integer >= 1"),
    ("mine", lambda c: c["mine"].update(batch_size=0), "section 'mine'",
     "'batch_size' must be an integer >= 1"),
    ("adapt", lambda c: c["adapt"].update(iterations=0), "section 'adapt'",
     "'iterations' must be an integer >= 1"),
    ("adapt", lambda c: c["adapt"].update(epochs=0), "section 'adapt'",
     "'epochs' must be an integer >= 1"),
    ("adapt", lambda c: c["adapt"].update(eval_batch_size=0), "section 'adapt'",
     "'eval_batch_size' must be an integer >= 1"),
    ("adapt", lambda c: c["adapt"].update(eval_n_batches=0), "section 'adapt'",
     "'eval_n_batches' must be an integer >= 1"),
    ("adapt", lambda c: c["adapt"].update(learning_rate=float("nan")), "section 'adapt'",
     "'learning_rate' must be a number in [0, inf), got nan"),
    ("adapt", lambda c: c["adapt"].update(learning_rate=float("inf")), "section 'adapt'",
     "'learning_rate' must be a number in [0, inf), got inf"),
    ("adapt", lambda c: c["adapt"].update(learning_rate=-0.5), "section 'adapt'",
     "'learning_rate' must be a number in [0, inf)"),
    ("adapt", lambda c: c["adapt"].update(temperature=float("nan")), "section 'adapt'",
     "'temperature' must be a number in (0, inf), got nan"),
    ("adapt", lambda c: c["adapt"].update(temperature=0), "section 'adapt'",
     "'temperature' must be a number in (0, inf)"),
    ("adapt", lambda c: c["adapt"].update(grad_clip=-1), "section 'adapt'",
     "'grad_clip' must be a number > 0, got -1"),
    ("adapt", lambda c: c["adapt"].update(grad_clip=0), "section 'adapt'",
     "'grad_clip' must be a number > 0, got 0"),
    ("adapt", lambda c: c["adapt"].update(grad_clip=float("nan")), "section 'adapt'",
     "'grad_clip' must be a number > 0, got nan"),
    ("evaluate", lambda c: c["evaluate"].update(seeds=[]), "section 'evaluate'",
     "'seeds' must be a list of integers with at least one entry, got []"),
    ("mine", lambda c: c["mine"].update(delta=3.0), "section 'mine'",
     "'delta' must be a number in (0, 1), got 3.0"),
    ("mine", lambda c: c["mine"].update(delta=0), "section 'mine'",
     "'delta' must be a number in (0, 1), got 0"),
    ("mine", lambda c: c["mine"].update(epsilon=5.0), "section 'mine'",
     "'epsilon' must be a number in (0, 1), got 5.0"),
    ("mine", lambda c: c["mine"].update(epsilon=1), "section 'mine'",
     "'epsilon' must be a number in (0, 1), got 1"),
], ids=["data", "mine", "evaluate", "adapt", "features", "section", "type-str",
        "type-bool", "type-number", "type-list", "no-column", "not-mapping",
        "adapt-batch-size", "n-batches", "evaluate-batch-size", "n-train-batches",
        "n-valid-batches", "mine-batch-size", "iterations", "epochs", "eval-batch-size",
        "eval-n-batches", "learning-rate-nan", "learning-rate-inf", "learning-rate-negative",
        "temperature-nan", "temperature-zero", "grad-clip-negative", "grad-clip-zero",
        "grad-clip-nan", "seeds-empty", "delta-above", "delta-zero", "epsilon-above",
        "epsilon-one"])
def test_config_key_faults_exit_2_naming_file_section_and_key(tmp_path, capsys, command,
                                                               change, where, key):
    cfg_path = write_workspace(tmp_path)
    cfg = yaml.safe_load(cfg_path.read_text(encoding="utf-8"))
    cfg["data"]["features"] = [{"column": "x0", "buckets": 2}, {"column": "label"}]
    _write_model(tmp_path)
    cfg_path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    _add_adapt_section(cfg_path, tmp_path)
    cfg = yaml.safe_load(cfg_path.read_text(encoding="utf-8"))
    change(cfg)
    cfg_path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    assert main([command, "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert str(cfg_path) in err and where in err and key in err


@pytest.mark.parametrize("command, section, key", [
    ("mine", "mine", "rules_out"),
    ("mine", "mine", "schema"),
    ("mine", "data", "train"),
    ("mine", "data", "valid"),
    ("evaluate", "evaluate", "report_out"),
    ("evaluate", "data", "test"),
    ("adapt", "adapt", "rules"),
    ("adapt", "adapt", "model_in"),
])
def test_missing_needed_key_exits_2_before_any_work(tmp_path, capsys, monkeypatch,
                                                    command, section, key):
    cfg_path = write_workspace(tmp_path)
    _add_adapt_section(cfg_path, tmp_path)
    cfg = yaml.safe_load(cfg_path.read_text(encoding="utf-8"))
    del cfg[section][key]
    cfg_path.write_text(yaml.safe_dump(cfg), encoding="utf-8")

    def no_work(*args, **kwargs):
        raise AssertionError("a data file was read before the config was checked")

    monkeypatch.setattr(cli, "_load_with_model", no_work)
    assert main([command, "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert str(cfg_path) in err and f"section {section!r}" in err and repr(key) in err
    assert not (tmp_path / "rules.jsonl").exists()


def test_evaluate_logs_unevaluable_rules(tmp_path, capsys):
    cfg = write_workspace(tmp_path)
    ghost = ConcreteRule(rule=AbstractRule(kind="conditional", statistic="ghost"),
                         lo=0.0, hi=1.0, delta=0.02)
    present = ConcreteRule(rule=AbstractRule(kind="conditional", statistic="x0"),
                           lo=-1e9, hi=1e9, delta=0.02)
    save_rules(tmp_path / "rules.jsonl", [ghost, present])
    assert main(["evaluate", "--config", str(cfg)]) == 0
    assert "command=evaluate rules=2 unevaluable=1 " in capsys.readouterr().out
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert list(report) == ["format_version", "per_rule", "per_sample", "totals"]
    assert report["per_rule"][0] == {"signature": ghost.signature, "violations": 0,
                                     "evaluations": 0}


# one rule of each kind, and edits of one field of one of them; each edited
# file must exit 2 naming the file, the line and the field
FIELD_RULES = [
    ConcreteRule(rule=AbstractRule(kind="conditional", guard="a", statistic="x0"),
                 lo=-1.0, hi=1.0, delta=0.02),
    ConcreteRule(rule=AbstractRule(kind="logic", statistic="f1", literals=(Literal("flag"),),
                                   consequent="b", batch_size=64), lo=0.1, hi=0.9, delta=0.02),
    ConcreteRule(rule=AbstractRule(kind="paired", guard="a", statistic="x1", s1="x0",
                                   s1_bucket=0, s1_bucket_count=2),
                 lo=0.0, hi=4.0, delta=0.02, s1_lo=-np.inf, s1_hi=0.0),
]


@pytest.mark.parametrize("at, edit, field", [
    (0, {"sideways": 1}, "unknown key 'sideways'"),
    (0, {"sided": "sideways"}, "sided must be"),
    (0, {"delta": 5}, "delta must be"),
    (0, {"lo": "0.09"}, "lo must be"),
    (0, {"hi": float("nan")}, "hi must be"),
    (0, {"sided": "lower"}, "hi must be null"),
    (0, {"sided": "upper"}, "lo must be null"),
    (0, {"signature": FIELD_RULES[1].signature}, "signature"),
    (1, {"literals": [["flag", "yes"]]}, "literals must be"),
    (0, {"s1": "x1", "s1_bucket": 0, "s1_bucket_count": 2}, "has no s1"),
    (0, {"s1_lo": 0.0, "s1_hi": 1.0}, "has no s1_lo"),
    (1, {"batch_size": "128"}, "batch_size must be"),
    (1, {"batch_size": 2.5}, "batch_size must be"),
    (1, {"literals": []}, "needs literals"),
    (1, {"guard": "a"}, "has no guard"),
    (0, {"statistic": "f1"}, "statistic is f1"),
    (2, {"s1": None}, "needs s1"),
    (2, {"s1_bucket": 2}, "s1_bucket 2 is not below"),
    (2, {"kind": "conditional"}, "has no s1"),
    (2, {"provenance": []}, "provenance must be"),
], ids=["unknown-key", "sided", "delta", "lo", "nan-bound", "lower-with-hi", "upper-with-lo",
        "signature", "literal", "s1-on-conditional", "s1-interval-on-conditional",
        "batch-size-string", "batch-size-float", "no-literals", "guard-on-logic",
        "f1-on-conditional", "paired-without-s1", "s1-bucket", "kind", "provenance"])
def test_evaluate_bad_rule_field_exits_2(tmp_path, capsys, at, edit, field):
    cfg = write_workspace(tmp_path)
    path = tmp_path / "rules.jsonl"
    save_rules(path, FIELD_RULES)
    assert main(["evaluate", "--config", str(cfg)]) == 0  # the file as written is read
    lines = path.read_text(encoding="utf-8").splitlines()
    obj = json.loads(lines[1 + at])
    obj.update(edit)
    lines[1 + at] = json.dumps(obj)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["evaluate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"{path}: line {2 + at}: " in err and field in err, err
    assert "Traceback" not in err


@pytest.mark.parametrize("rule, reason", [
    (AbstractRule(kind="logic", statistic="f1", literals=(Literal("zz"),), consequent="a"),
     "column 'zz' not present"),
    (AbstractRule(kind="conditional", statistic="mean(zz)"), "unknown statistic 'mean(zz)'"),
    (AbstractRule(kind="logic", statistic="f1", literals=(Literal("x0"),), consequent="a"),
     "literal 'x0' refers to a non-boolean column"),
    (AbstractRule(kind="logic", statistic="f1", literals=(Literal("flag"),), consequent="q"),
     "consequent 'q' is not a model class"),
], ids=["absent-column", "unknown-statistic", "non-boolean-literal", "consequent"])
def test_adapt_unevaluable_rule_exits_2_before_any_report(tmp_path, capsys, rule, reason):
    cfg = write_workspace(tmp_path)
    _write_model(tmp_path)
    crule = ConcreteRule(rule=rule, lo=0.0, hi=1.0, delta=0.02)
    ok = ConcreteRule(rule=AbstractRule(kind="conditional", statistic="x0"),
                      lo=-1e9, hi=1e9, delta=0.02)
    save_rules(tmp_path / "rules.jsonl", [ok, crule])
    _add_adapt_section(cfg, tmp_path)
    assert main(["adapt", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"{tmp_path / 'rules.jsonl'}: rule {crule.signature}: " in err
    assert reason in err
    assert not (tmp_path / "before.json").exists()


def _drift_flag(path):
    """Rewrite the first data row's boolean ``flag`` cell of the table at
    ``path`` to 2, so the column reads as numeric."""
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[1].split(",")
    cells[2] = "2"
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


DRIFT = "literal 'flag' refers to a non-boolean column"


def test_mine_type_drift_in_valid_exits_2_naming_the_file(tmp_path, capsys):
    cfg = write_workspace(tmp_path)
    _drift_flag(tmp_path / "valid.csv")
    assert main(["mine", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"{tmp_path / 'valid.csv'}: {DRIFT}" in err and "Traceback" not in err
    assert not (tmp_path / "rules.jsonl").exists()


def _save_flag_rules(root):
    """A rules file of a conditional rule and a logic rule on ``flag``."""
    save_rules(root / "rules.jsonl", [
        ConcreteRule(rule=AbstractRule(kind="conditional", statistic="x0"),
                     lo=-1e9, hi=1e9, delta=0.02),
        ConcreteRule(rule=AbstractRule(kind="logic", statistic="f1", literals=(Literal("flag"),),
                                       consequent="b", batch_size=64),
                     lo=0.1, hi=0.9, delta=0.02)])


def test_evaluate_type_drift_in_test_exits_2_naming_the_file(tmp_path, capsys):
    cfg = write_workspace(tmp_path)
    _save_flag_rules(tmp_path)
    assert main(["evaluate", "--config", str(cfg)]) == 0
    _drift_flag(tmp_path / "test.csv")
    (tmp_path / "report.json").unlink()
    capsys.readouterr()
    assert main(["evaluate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"{tmp_path / 'test.csv'}: {DRIFT}" in err and "Traceback" not in err
    assert not (tmp_path / "report.json").exists()


def test_adapt_type_drift_in_test_exits_2_naming_the_file(tmp_path, capsys):
    cfg = write_workspace(tmp_path)
    _write_model(tmp_path)
    _save_flag_rules(tmp_path)
    _drift_flag(tmp_path / "test.csv")
    _add_adapt_section(cfg, tmp_path)
    assert main(["adapt", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"{tmp_path / 'rules.jsonl'}: rule " in err
    assert f"{tmp_path / 'test.csv'}: {DRIFT}" in err and "Traceback" not in err
    assert not (tmp_path / "before.json").exists()


# a model feature cell the model cannot read: (column, cell, the error)
FEATURE_FAULTS = {
    "text": (0, "abc", "model feature 'x0' holds text"),
    "missing": (1, "", "model feature 'x1' has a missing cell, first in row 3 (rows count "
                       "from 0)"),
}


def _feature_fault(root, table, fault, command):
    """A workspace whose model reads x0 and x1, with ``fault`` in data row 3
    of ``table`` and a rules file of one logic rule on ``flag``, set up for
    ``command`` to read the model; returns the config path and the error."""
    cfg = write_workspace(root)
    _write_model(root)
    save_rules(root / "rules.jsonl", [ConcreteRule(
        rule=AbstractRule(kind="logic", statistic="f1", literals=(Literal("flag"),),
                          consequent="b", batch_size=64), lo=0.1, hi=0.9, delta=0.02)])
    if command == "adapt":
        _add_adapt_section(cfg, root)
    else:
        config = yaml.safe_load(cfg.read_text(encoding="utf-8"))
        config[command]["model_in"] = str(root / "model.json")
        cfg.write_text(yaml.safe_dump(config), encoding="utf-8")
    column, cell, message = FEATURE_FAULTS[fault]
    lines = (root / table).read_text(encoding="utf-8").splitlines()
    cells = lines[4].split(",")
    cells[column] = cell
    lines[4] = ",".join(cells)
    (root / table).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return cfg, f"{root / table}: {message}"


@pytest.mark.parametrize("fault", sorted(FEATURE_FAULTS))
def test_mine_model_feature_fault_in_valid_exits_2_naming_the_file(tmp_path, capsys, fault):
    cfg, message = _feature_fault(tmp_path, "valid.csv", fault, "mine")
    (tmp_path / "rules.jsonl").unlink()
    assert main(["mine", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "rules.jsonl").exists()


@pytest.mark.parametrize("fault", sorted(FEATURE_FAULTS))
def test_evaluate_model_feature_fault_in_test_exits_2_naming_the_file(tmp_path, capsys,
                                                                      fault):
    cfg, message = _feature_fault(tmp_path, "test.csv", fault, "evaluate")
    assert main(["evaluate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("fault", sorted(FEATURE_FAULTS))
def test_adapt_model_feature_fault_in_test_exits_2_naming_the_file(tmp_path, capsys, fault):
    cfg, message = _feature_fault(tmp_path, "test.csv", fault, "adapt")
    assert main(["adapt", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "before.json").exists()


def test_adapt_logs_zero_loss_iterations(tmp_path, capsys):
    cfg = write_workspace(tmp_path)
    _write_model(tmp_path)
    assert main(["mine", "--config", str(cfg)]) == 0
    _add_adapt_section(cfg, tmp_path)
    capsys.readouterr()
    assert main(["adapt", "--config", str(cfg)]) == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    keys = [item.split("=", 1)[0] for item in line.split()]
    assert keys == ["command", "before", "after", "pct_reduced", "iterations", "seed",
                    "zero_loss_iters"]
    with open(tmp_path / "trace.csv", encoding="utf-8") as fh:
        losses = [float(row["loss"]) for row in csv.DictReader(fh)]
    assert line.endswith(f" zero_loss_iters={losses.count(0.0)}")


def test_report_command_rewrites_same_bytes_and_rejects_bad_file(tmp_path, capsys):
    cfg = write_workspace(tmp_path)
    assert main(["mine", "--config", str(cfg)]) == 0
    assert main(["evaluate", "--config", str(cfg)]) == 0
    capsys.readouterr()
    path = tmp_path / "report.json"
    assert main(["report", "--report", str(path), "--out", str(tmp_path / "rt.json")]) == 0
    assert "samples=600" in capsys.readouterr().out
    assert (tmp_path / "rt.json").read_bytes() == path.read_bytes()
    obj = json.loads(path.read_text(encoding="utf-8"))
    obj["per_sample"][0]["sample"] = 1
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["report", "--report", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"{path}: per_sample[0]: sample must be 0" in err
