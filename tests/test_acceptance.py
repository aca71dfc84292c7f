"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every expected value is either derived from an independent oracle
inside the test or asserted at the tolerance stated alongside it.
"""
import subprocess
import sys
import time
from itertools import combinations, product
from math import comb
from pathlib import Path

import numpy as np
import yaml

from conftest import make_dataset
from scalar_oracle import (batch_table, check_rule, compute_bounds, jaccard, percentile,
                           surrogate_f1_grad)
from quantrules.adaptation import AdaptationConfig, RuleGroups, adapt, forward_batch, \
    grad_check, total_loss_grad
from quantrules.bounds import BoundJob, Interval, learn_and_select
from quantrules.dataset import BOOLEAN, LABEL, NUMERIC, load_table, sample_minibatches
from quantrules.model import SoftmaxModel
from quantrules.schema import AbstractRule, ConcreteRule, Literal, \
    enumerate_abstract_rules, parse_schema
from quantrules.statistics import literal_cells
from quantrules.violations import evaluate

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import WORKLOADS  # noqa: E402

INF = float("inf")


def ok(number, text):
    print(f"criterion {number}: PASS  {text}")


# -- 1. quantile validity by construction -------------------------------------------


def test_c01_quantile_validity_by_construction():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    values = rng.uniform(0.0, 1.0, 10_000)
    ds = make_dataset({"u": (NUMERIC, values)})
    rule = AbstractRule(kind="conditional", statistic="u")
    batches = sample_minibatches(ds, 10_000, 1, seed=0)
    interval = compute_bounds(rule, ds, batches, delta=0.02, sided="two")
    assert abs(interval.lo - 0.01) <= 0.01
    assert abs(interval.hi - 0.99) <= 0.01
    inside = np.mean((values >= interval.lo) & (values <= interval.hi))
    assert inside >= 0.978
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    ok(1, f"bounds=({interval.lo:.4f}, {interval.hi:.4f}) inside={inside:.4f} "
          f"runtime={elapsed:.2f}s")


# -- 2. percentile oracle --------------------------------------------------------------


def test_c02_percentile_oracle():
    hand = 98.0 + (0.98 * 99 - 97) * (99.0 - 98.0)  # linear interpolation by hand
    got = percentile(range(1, 101), 0.98)
    assert got == hand  # binary-float equality

    def oracle(values, q):
        v = sorted(float(x) for x in values)
        h = q * (len(v) - 1)
        i = int(np.floor(h))
        if i + 1 >= len(v):
            return v[-1]
        return v[i] + (h - i) * (v[i + 1] - v[i])

    rng = np.random.default_rng(7)
    for trial in range(20):
        values = rng.normal(0, 100, rng.integers(1, 200)).tolist()
        q = float(rng.uniform(0, 1))
        ours = percentile(values, q)
        ref = oracle(values, q)
        np_ref = float(np.percentile(np.asarray(values), 100 * q))
        scale = max(abs(ref), 1e-9)
        assert abs(ours - ref) / scale <= 1e-12
        assert abs(ours - np_ref) / scale <= 1e-12
    ok(2, f"percentile(1..100, 0.98)={got!r}; 20 randomized cross-checks at 1e-12")


# -- 3. jaccard oracle ------------------------------------------------------------------


def test_c03_jaccard_oracle():
    data_range = Interval(-5.0, 5.0)
    assert abs(jaccard(Interval(0, 2), Interval(1, 3), data_range) - 1 / 3) <= 1e-12
    assert jaccard(Interval(1, 4), Interval(1, 4), data_range) == 1.0
    assert jaccard(Interval(0, 1), Interval(2, 3), data_range) == 0.0
    # one-sided endpoints resolve to the dataset min/max before the formula
    resolved = jaccard(Interval(0.5, INF), Interval(1.0, INF), data_range)
    assert abs(resolved - (5.0 - 1.0) / (5.0 - 0.5)) <= 1e-12
    resolved = jaccard(Interval(-INF, 2.0), Interval(-INF, 3.0), data_range)
    assert abs(resolved - (2.0 - -5.0) / (3.0 - -5.0)) <= 1e-12
    ok(3, "interval formula, clamping, and one-sided min/max resolution")


# -- 4. selection consistency -------------------------------------------------------------


def _selection_dataset(n, seed, shift=0.0):
    rng = np.random.default_rng(seed)
    cols = {}
    for j in range(4):
        cols[f"x{j}"] = (NUMERIC, rng.normal(j, 1.0, n) + shift)  # unit sigma
    cols["label"] = (LABEL, np.where(rng.random(n) < 0.5, "a", "b").astype(object))
    return make_dataset(cols)


def test_c04_selection_consistency():
    schema = parse_schema("""
template conditional_statistic
labels: a b
statistics: x0 x1 x2 x3
quantile: 0.98
batch: 256

template conditional_statistic
labels: *
statistics: x0 x1 x2 x3
quantile: 0.98
batch: 256
""")
    rules = enumerate_abstract_rules(schema)
    iid_rates, shifted_rates = [], []
    for seed in range(5):
        job = BoundJob(n_train_batches=200, n_valid_batches=50, epsilon=0.2,
                       train_seed=300 + seed, valid_seed=400 + seed)
        train = _selection_dataset(8000, 100 + seed)
        iid = learn_and_select(rules, train, _selection_dataset(8000, 200 + seed),
                               job, label_column="label")
        shifted = learn_and_select(rules, train,
                                   _selection_dataset(8000, 200 + seed, shift=10.0),
                                   job, label_column="label")
        iid_rates.append(len(iid) / len(rules))
        shifted_rates.append(len(shifted) / len(rules))
    assert all(rate >= 0.90 for rate in iid_rates)
    assert all(rate <= 0.05 for rate in shifted_rates)
    ok(4, f"iid pass rates {iid_rates}, +10-sigma pass rates {shifted_rates}")


# -- 5. enumeration count -------------------------------------------------------------------


def _brute_force_count(m, n, k, signed):
    features = [f"f{i}" for i in range(n)]
    signs = (False, True) if signed else (False,)
    generated = set()
    for size in range(1, k + 1):
        for combo in combinations(features, size):
            for assignment in product(signs, repeat=size):
                for cls in range(m):
                    generated.add((tuple(sorted(zip(combo, assignment))), cls))
    return len(generated)


def test_c05_enumeration_count():
    settings = [(2, 6, 2, True), (3, 5, 1, True), (2, 4, 3, False), (4, 6, 2, False)]
    counts = []
    for m, n, k, signed in settings:
        labels = " ".join(f"c{i}" for i in range(m))
        text = (f"template logic_implication\nlabels: {labels}\n"
                f"max_literals: {k}\n" + ("literals: signed\n" if signed else ""))
        rules = enumerate_abstract_rules(parse_schema(text),
                                         [f"f{i}" for i in range(n)])
        expected = _brute_force_count(m, n, k, signed)
        assert len(rules) == expected, (m, n, k, signed)
        counts.append(expected)
    # closed form for the headline setting: m * sum_j C(n,j) 2^j
    assert counts[0] == 2 * sum(comb(6, j) * 2 ** j for j in (1, 2)) == 144
    ok(5, f"exact counts {counts} for (m, n, k) settings {settings}")


# -- 6. loss arithmetic -----------------------------------------------------------------------


def _const_output(value):
    ds = make_dataset({"x0": (NUMERIC, [0.0]), "v": (NUMERIC, [value])})
    model = SoftmaxModel(["x0"], ["a", "b"], np.ones(1), np.zeros(1),
                         np.zeros((1, 2)), np.zeros(2))
    return ds, forward_batch(model, model.feature_matrix(ds), [0])


def _loss(rules, batch):
    """The loss of ``rules`` on ``batch``, a (table, batch output) pair."""
    table, out = batch
    return total_loss_grad(RuleGroups(rules, out.model, table), out)


def _saturated_setup(seed):
    rng = np.random.default_rng(seed)
    n = 48
    # x0 bounded away from the decision boundary so every logit gap exceeds
    # the float underflow threshold: probabilities are exactly 0 or 1
    x0 = rng.choice([-1.0, 1.0], n) * rng.uniform(1.0, 2.0, n)
    ds = make_dataset({
        "x0": (NUMERIC, x0),
        "x1": (NUMERIC, rng.normal(0, 1, n)),
        "flag": (BOOLEAN, (rng.random(n) < 0.5).astype(float)),
        "v": (NUMERIC, rng.uniform(0, 2, n)),
    })
    model = SoftmaxModel(["x0", "x1"], ["a", "b"], np.ones(2), np.zeros(2),
                         np.array([[800.0, -800.0], [0.0, 0.0]]), np.zeros(2))
    out = forward_batch(model, model.feature_matrix(ds), np.arange(n))
    assert set(np.unique(out.probs)) <= {0.0, 1.0}
    return ds, model, out


def _random_rule(rng, out):
    kind = rng.choice(["data", "score", "mean", "logic"])
    if kind == "logic":
        lits = (Literal("flag", bool(rng.integers(2))),)
        rule = AbstractRule(kind="logic", statistic="f1", consequent="b",
                            literals=lits)
    elif kind == "data":
        rule = AbstractRule(kind="conditional", statistic="v")
    elif kind == "score":
        rule = AbstractRule(kind="conditional", statistic="score_b")
    else:
        rule = AbstractRule(kind="conditional", statistic="mean(score_b)")
    lo = float(rng.uniform(-0.6, 1.2))
    hi = lo + float(rng.uniform(0.05, 1.2))
    return ConcreteRule(rule=rule, lo=lo, hi=hi, delta=0.02)


def test_c06_loss_arithmetic():
    assert _loss([ConcreteRule(
        rule=AbstractRule(kind="conditional", statistic="v"),
        lo=0.0, hi=2.0, delta=0.02)], _const_output(0.5))[0] == 0.0
    assert _loss([ConcreteRule(
        rule=AbstractRule(kind="conditional", sided="lower", statistic="v"),
        lo=2.0, hi=INF, delta=0.02)], _const_output(1.5))[0] == 0.5
    assert _loss([ConcreteRule(
        rule=AbstractRule(kind="conditional", statistic="v"),
        lo=0.0, hi=1.0, delta=0.02)], _const_output(1.5))[0] == 0.75

    rng = np.random.default_rng(99)
    checked = 0
    for trial in range(1000):
        ds, model, out = _saturated_setup(seed=trial % 25)
        crule = _random_rule(rng, out)
        loss = _loss([crule], (ds, out))[0]
        result = check_rule(crule, batch_table(ds, out), np.arange(len(out.rows)),
                            label_column="pred")
        satisfied = not (result.evaluated and result.violated)
        assert (loss == 0.0) == satisfied, (crule.signature, loss, result)
        checked += 1
    assert checked == 1000
    ok(6, "tagged examples (0, 0.5, 0.75) exact; 1000 randomized pairs equivalent")


# -- 7. gradient fidelity -------------------------------------------------------------------


def test_c07_gradient_fidelity():
    start = time.perf_counter()
    worst = 0.0
    for config_id in range(100):
        rng = np.random.default_rng(5000 + config_id)
        n = 24
        ds = make_dataset({
            "x0": (NUMERIC, rng.normal(0, 1.5, n)),
            "x1": (NUMERIC, rng.normal(0, 1.5, n)),
            "flag": (BOOLEAN, (rng.random(n) < 0.5).astype(float)),
        })
        model = SoftmaxModel(
            ["x0", "x1"], ["a", "b"],
            scale=rng.uniform(0.5, 1.5, 2), shift=rng.uniform(-0.3, 0.3, 2),
            weights=rng.normal(0, 0.8, (2, 2)), bias=rng.normal(0, 0.2, 2))
        out = forward_batch(model, model.feature_matrix(ds), np.arange(n))
        phi_mean = float(out.probs[:, 1].mean())
        mean_rule = ConcreteRule(
            rule=AbstractRule(kind="conditional", statistic="mean(score_b)"),
            lo=phi_mean + 0.05, hi=phi_mean + 0.45, delta=0.02)
        formula = AbstractRule(kind="logic", statistic="f1", consequent="b",
                               literals=(Literal("flag"),))
        antecedent, _ = literal_cells(Literal("flag"), batch_table(ds, out), np.arange(n))
        phi_f1 = surrogate_f1_grad(antecedent, out.probs[:, 1], 1.0)[0]
        f1_rule = ConcreteRule(rule=formula, lo=phi_f1 + 0.05, hi=phi_f1 + 0.45,
                               delta=0.02)
        error = grad_check(model, [mean_rule, f1_rule], ds, np.arange(n), step=1e-5)
        worst = max(worst, error)
        assert error <= 1e-4, (config_id, error)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    ok(7, f"max relative error {worst:.2e} over 100 configs, runtime {elapsed:.2f}s")


# -- 8. end-to-end violation reduction ---------------------------------------------------------

def test_c08_end_to_end_violation_reduction(tmp_path):
    """The benchmark's shift workspace: train/valid/test tables of a 2-class
    Gaussian problem with test features scaled x3, and a softmax model fitted
    on train, mined, counted and adapted through the library."""
    start = time.perf_counter()
    WORKLOADS["shift"].write(tmp_path, 1)
    train, valid, test_raw = (load_table(tmp_path / f"{split}.csv")
                              for split in ("train", "valid", "test"))
    model = SoftmaxModel.load(tmp_path / "model.json")

    train_scored = train.with_columns(model.predict_columns(train))
    valid_scored = valid.with_columns(model.predict_columns(valid))
    schema = parse_schema((tmp_path / "schema.txt").read_text(encoding="utf-8"))
    rules = enumerate_abstract_rules(schema, train.boolean_columns(), train.sources)
    selected = learn_and_select(
        rules, train_scored, valid_scored,
        BoundJob(n_train_batches=200, n_valid_batches=50, epsilon=0.2,
                 train_seed=12, valid_seed=13),
        label_column="label")
    kinds = {c.rule.kind for c in selected}
    assert "conditional" in kinds and "logic" in kinds  # score stats + k=1 logic

    batching = (128, 50, 7)
    before = evaluate(selected, test_raw.with_columns(model.predict_columns(test_raw)),
                      batching, label_column="pred")
    assert before.total_violations > 0

    adapted, trace = adapt(model, selected, test_raw,
                           AdaptationConfig(iterations=2000, batch_size=128,
                                            learning_rate=1e-2, seed=5))
    after = evaluate(selected, test_raw.with_columns(adapted.predict_columns(test_raw)),
                     batching, label_column="pred")
    reduction = 100.0 * (before.total_violations - after.total_violations) \
        / before.total_violations
    assert reduction >= 30.0

    losses = np.array([row.loss for row in trace])
    moving = np.convolve(losses, np.ones(50) / 50.0, mode="valid")
    assert moving[-1] <= moving[0]        # non-increasing start to finish
    assert moving.max() <= moving[0] + 1e-9  # never rises above the start

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    ok(8, f"before={before.total_violations} after={after.total_violations} "
          f"reduction={reduction:.1f}% ma {moving[0]:.4f}->{moving[-1]:.4f} "
          f"runtime={elapsed:.1f}s")


# -- 9. accounting identity ---------------------------------------------------------------------


def test_c09_accounting_identity():
    rng = np.random.default_rng(17)
    n = 500
    ds = make_dataset({
        "v": (NUMERIC, rng.normal(0, 1, n)),
        "A": (BOOLEAN, (rng.random(n) < 0.5).astype(float)),
        "y": (LABEL, np.where(rng.random(n) < 0.5, "p", "n").astype(object)),
    })
    rules = [
        ConcreteRule(rule=AbstractRule(kind="conditional", statistic="v"),
                     lo=-1.0, hi=1.0, delta=0.02),
        ConcreteRule(rule=AbstractRule(kind="conditional", statistic="mean(v)",
                                       batch_size=50),
                     lo=0.5, hi=1.0, delta=0.02),
        ConcreteRule(rule=AbstractRule(kind="logic", statistic="f1",
                                       consequent="p", literals=(Literal("A"),),
                                       batch_size=50),
                     lo=0.9, hi=1.0, delta=0.02),
    ]
    for seed in range(5):
        report = evaluate(rules, ds, batching=(50, 8, seed), label_column="y")
        per_rule = sum(v for _, v, _ in report.per_rule)
        per_sample = report.per_sample.sum()
        assert report.total_violations == per_rule == per_sample
    ok(9, "total == per-rule margin == per-sample margin on mixed rule sets, 5 seeds")


# -- 10. determinism ------------------------------------------------------------------------------


def _write_cli_workspace(root):
    rng = np.random.default_rng(33)
    root.mkdir(parents=True, exist_ok=True)

    def write(path, n, scale):
        y = rng.random(n) < 0.5
        x0 = (rng.normal(0, 1, n) + np.where(y, 1.0, -1.0)) * scale
        x1 = (rng.normal(0, 1, n) + np.where(y, -0.5, 0.5)) * scale
        flag = (rng.random(n) < np.where(y, 0.8, 0.2)).astype(int)
        lines = ["x0,x1,flag,label"]
        for i in range(n):
            lines.append(f"{float(x0[i])!r},{float(x1[i])!r},{flag[i]},"
                         f"{'b' if y[i] else 'a'}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    write(root / "train.csv", 600, 1.0)
    write(root / "valid.csv", 400, 1.0)
    write(root / "test.csv", 400, 3.0)
    (root / "schema.txt").write_text("""
template conditional_statistic
labels: *
statistics: score_a score_b mean(score_b)
quantile: 0.98
batch: 64

template logic_implication
labels: a b
max_literals: 1
batch: 64
""", encoding="utf-8")

    X = np.stack([np.fromiter((float(line.split(",")[0])
                               for line in (root / "train.csv").read_text()
                               .splitlines()[1:]), float),
                  np.fromiter((float(line.split(",")[1])
                               for line in (root / "train.csv").read_text()
                               .splitlines()[1:]), float)], axis=1)
    labels = [line.split(",")[3] for line in
              (root / "train.csv").read_text().splitlines()[1:]]
    model = SoftmaxModel.standardized(["x0", "x1"], ["a", "b"], X)
    model.fit(X, np.array([1 if l == "b" else 0 for l in labels]),
              learning_rate=0.5, iterations=150, weight_decay=0.3)
    model.save(root / "model.json")

    cfg = {
        "data": {"train": str(root / "train.csv"), "valid": str(root / "valid.csv"),
                 "test": str(root / "test.csv"), "label_column": "label"},
        "mine": {"schema": str(root / "schema.txt"),
                 "rules_out": str(root / "rules.jsonl"),
                 "model_in": str(root / "model.json"),
                 "n_train_batches": 60, "n_valid_batches": 30, "seed": 9},
        "evaluate": {"rules": str(root / "rules.jsonl"),
                     "report_out": str(root / "report.json"),
                     "model_in": str(root / "model.json"),
                     "batch_size": 64, "n_batches": 10, "seed": 4},
        "adapt": {"rules": str(root / "rules.jsonl"),
                  "model_in": str(root / "model.json"),
                  "model_out": str(root / "adapted.json"),
                  "trace_out": str(root / "trace.csv"),
                  "report_before": str(root / "before.json"),
                  "report_after": str(root / "after.json"),
                  "iterations": 120, "batch_size": 64,
                  "learning_rate": 0.01, "seed": 2, "eval_n_batches": 10},
    }
    (root / "config.yaml").write_text(yaml.safe_dump(cfg), encoding="utf-8")
    return root / "config.yaml"


def test_c10_pipeline_determinism(tmp_path):
    config = _write_cli_workspace(tmp_path / "ws")
    artifacts = ("rules.jsonl", "report.json", "trace.csv", "adapted.json",
                 "before.json", "after.json")

    def run_all():
        for command in ("mine", "evaluate", "adapt"):
            proc = subprocess.run(
                [sys.executable, "-m", "quantrules", command, "--config", str(config)],
                capture_output=True, text=True)
            assert proc.returncode == 0, (command, proc.stderr, proc.stdout)
        return {name: (tmp_path / "ws" / name).read_bytes() for name in artifacts}

    first = run_all()
    second = run_all()
    for name in artifacts:
        assert first[name] == second[name], f"{name} differs between runs"
    ok(10, f"{len(artifacts)} artifacts byte-identical across two runs")
