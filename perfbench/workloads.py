"""Seeded workload generators for the benchmark.

Each workload writes its input tables, rule schema and YAML config into a
work directory and names the CLI commands it runs. The same seed always
writes byte-identical files. Floats are written with ``repr(float(v))``:
under numpy 2 ``repr`` of a numpy scalar reads ``np.float64(...)``, which
the CSV loader would type as a label column.

Config paths are relative to the checkout root, so rules files record the
same ``provenance.train`` wherever the checkout lives.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml


def _floats(values):
    return [repr(float(v)) for v in values]


def _write_csv(path, header, columns):
    """Write equal-length string columns under a header row."""
    lines = [",".join(header)]
    lines.extend(",".join(cells) for cells in zip(*columns))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_config(workdir, cfg):
    path = workdir / "config.yaml"
    path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    return path


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple
    inputs: tuple    # files written by the generator
    kinds: dict      # input file -> {column: kind the loader must infer}
    # Untraced cycles run a command this many times in a row. Short commands
    # vary by 20-40% from call to call on a shared core, so a run needs more
    # of their samples than it has cycles to keep its mean steady.
    repeats: dict = field(default_factory=dict)

    def write(self, workdir, seed):
        """Write every input file for ``seed``; return the config path."""
        workdir = Path(workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        return _WRITERS[self.name](workdir, seed)


# -- shift: covariate shift on a 2-class Gaussian, then adaptation -----------
#
# The tables, model and mining seed are those of the c08 acceptance
# workspace (scripts/run_shift_experiment.py at its default seed 1); the
# benchmark seed picks the evaluation and adaptation batch streams, and
# seed 1 reproduces that workspace exactly. Redrawing the tables instead
# changes how many of the 17 rules are selected (10 to 15 over seeds 0-5),
# and the adapt loop's cost scales with that count.

SHIFT_FEATURES = 4
SHIFT_SIGMA = 3.0
SHIFT_SEPARATION = 0.6
SHIFT_FACTOR = 3.0
SHIFT_DATA_SEED = 1

SHIFT_SCHEMA = """\
template conditional_statistic
labels: *
statistics: score_a score_b mean(score_a) mean(score_b) std(score_a)
quantile: 0.98
batch: 128

template conditional_statistic
labels: a b
statistics: score_a score_b
quantile: 0.98
batch: 128

template logic_implication
labels: a b
max_literals: 1
literals: signed
batch: 128
"""


def _shift_split(n, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    y = rng.random(n) < 0.5
    offset = np.where(y[:, None], SHIFT_SEPARATION * SHIFT_SIGMA,
                      -SHIFT_SEPARATION * SHIFT_SIGMA)
    X = (rng.normal(0, SHIFT_SIGMA, (n, SHIFT_FEATURES)) + offset) * scale
    b0 = (rng.random(n) < np.where(y, 0.75, 0.25)).astype(int)
    b1 = (rng.random(n) < np.where(y, 0.35, 0.65)).astype(int)
    return X, b0, b1, np.where(y, "b", "a"), y


def _write_shift_table(path, X, b0, b1, labels):
    header = [f"x{j}" for j in range(SHIFT_FEATURES)] + ["b0", "b1", "label"]
    columns = [_floats(X[:, j]) for j in range(SHIFT_FEATURES)]
    columns += [[str(v) for v in b0], [str(v) for v in b1], list(labels)]
    _write_csv(path, header, columns)


def _write_shift(workdir, seed):
    from quantrules.model import SoftmaxModel

    data = SHIFT_DATA_SEED
    Xtr, b0, b1, labels, y = _shift_split(3000, data)
    _write_shift_table(workdir / "train.csv", Xtr, b0, b1, labels)
    _write_shift_table(workdir / "valid.csv", *_shift_split(2000, data + 50)[:4])
    _write_shift_table(workdir / "test.csv",
                       *_shift_split(2000, data + 100, scale=SHIFT_FACTOR)[:4])
    model = SoftmaxModel.standardized([f"x{j}" for j in range(SHIFT_FEATURES)],
                                      ["a", "b"], Xtr)
    model.fit(Xtr, y.astype(int), learning_rate=0.5, iterations=400,
              weight_decay=0.5)
    model.save(workdir / "model.json")
    (workdir / "schema.txt").write_text(SHIFT_SCHEMA, encoding="utf-8")
    w = str(workdir)
    return _write_config(workdir, {
        "data": {"train": f"{w}/train.csv", "valid": f"{w}/valid.csv",
                 "test": f"{w}/test.csv", "label_column": "label"},
        "mine": {"schema": f"{w}/schema.txt", "rules_out": f"{w}/rules.jsonl",
                 "model_in": f"{w}/model.json", "n_train_batches": 200,
                 "n_valid_batches": 50, "epsilon": 0.2, "seed": data + 11},
        "evaluate": {"rules": f"{w}/rules.jsonl", "report_out": f"{w}/report.json",
                     "model_in": f"{w}/model.json", "batch_size": 128,
                     "n_batches": 50, "seed": seed + 6},
        "adapt": {"rules": f"{w}/rules.jsonl", "model_in": f"{w}/model.json",
                  "model_out": f"{w}/adapted.json", "trace_out": f"{w}/trace.csv",
                  "report_before": f"{w}/before.json",
                  "report_after": f"{w}/after.json", "iterations": 2000,
                  "batch_size": 128, "learning_rate": 0.01, "seed": seed + 4,
                  "eval_batch_size": 128, "eval_n_batches": 50},
    })


# -- cardio20k: wide logic mining over bucketed numeric columns -------------

CARDIO_ROWS = 20_000
CARDIO_NUMERIC = 6
CARDIO_BOOLEAN = 4
CARDIO_BUCKETS = 8
CARDIO_MISSING = 0.01   # share of empty cells in n5 and b3

CARDIO_SCHEMA = """\
template logic_implication
labels: yes no
max_literals: 2
batch: 256

template conditional_statistic
labels: yes no
statistics: mean(b0) mean(b1) std(b2)
batch: 256
"""


def _cardio_split(path, seed):
    rng = np.random.default_rng(seed)
    n = CARDIO_ROWS
    y = rng.random(n) < 0.45
    header, columns = [], []
    for j in range(CARDIO_NUMERIC):
        effect = 0.15 * (j + 1)
        vals = _floats(rng.normal(0, 1, n) + np.where(y, effect, -effect))
        if j == CARDIO_NUMERIC - 1:
            vals = [("" if gap else v)
                    for v, gap in zip(vals, rng.random(n) < CARDIO_MISSING)]
        header.append(f"n{j}")
        columns.append(vals)
    for j in range(CARDIO_BOOLEAN):
        p_pos, p_neg = 0.3 + 0.1 * j, 0.6 - 0.1 * j
        bits = [str(int(b)) for b in rng.random(n) < np.where(y, p_pos, p_neg)]
        if j == CARDIO_BOOLEAN - 1:
            bits = [("" if gap else b)
                    for b, gap in zip(bits, rng.random(n) < CARDIO_MISSING)]
        header.append(f"b{j}")
        columns.append(bits)
    header.append("label")
    columns.append(list(np.where(y, "yes", "no")))
    _write_csv(path, header, columns)


def _write_cardio(workdir, seed):
    for offset, split in enumerate(("train", "valid", "test")):
        _cardio_split(workdir / f"{split}.csv", [seed, offset])
    (workdir / "schema.txt").write_text(CARDIO_SCHEMA, encoding="utf-8")
    features = ([{"column": f"n{j}", "buckets": CARDIO_BUCKETS}
                 for j in range(CARDIO_NUMERIC)]
                + [{"column": f"b{j}"} for j in range(CARDIO_BOOLEAN)]
                + [{"column": "label"}])
    w = str(workdir)
    return _write_config(workdir, {
        "data": {"train": f"{w}/train.csv", "valid": f"{w}/valid.csv",
                 "test": f"{w}/test.csv", "label_column": "label",
                 "features": features},
        "mine": {"schema": f"{w}/schema.txt", "rules_out": f"{w}/rules.jsonl",
                 "n_train_batches": 40, "n_valid_batches": 10, "epsilon": 0.2,
                 "seed": seed + 11},
        "evaluate": {"rules": f"{w}/rules.jsonl", "report_out": f"{w}/report.json",
                     "batch_size": 256, "n_batches": 10, "seed": seed + 7},
    })


# -- boxes: per-class box geometry audit of an object detector --------------

BOX_CLASSES = ("car", "person", "rider")
BOX_SHARE = (0.5, 0.35, 0.15)
# per class: median width, median height (pixels)
BOX_SIZE = {"car": (140.0, 70.0), "person": (35.0, 110.0), "rider": (50.0, 120.0)}
BOX_TEST_STRETCH = {"car": 1.0, "person": 1.3, "rider": 1.0}  # test-time width shift
BOX_SCORE_MISSING = 0.005

BOX_SCHEMA = """\
template conditional_statistic
labels: car person rider
statistics: aspect_ratio width height area bottom_y
quantile: 0.98
batch: 1

template conditional_statistic
labels: *
statistics: mean(score) std(score)
batch: 64

template paired_bucketed
labels: car person rider
statistics: aspect_ratio width height
pair_buckets: 4
batch: 1
"""


def _boxes(n, seed, stretch=None):
    """Columns label, x_min, y_min, x_max, y_max as arrays, plus score cells."""
    rng = np.random.default_rng(seed)
    cls = rng.choice(len(BOX_CLASSES), size=n, p=BOX_SHARE)
    labels = np.array(BOX_CLASSES)[cls]
    med_w = np.array([BOX_SIZE[c][0] for c in BOX_CLASSES])[cls]
    med_h = np.array([BOX_SIZE[c][1] for c in BOX_CLASSES])[cls]
    if stretch is not None:
        med_w = med_w * np.array([stretch[c] for c in BOX_CLASSES])[cls]
    w = med_w * rng.lognormal(0.0, 0.25, n)
    h = med_h * rng.lognormal(0.0, 0.25, n)
    x0 = rng.uniform(0, 1800, n)
    y0 = rng.uniform(0, 900, n)
    score = rng.beta(5, 2, n)
    score_present = rng.random(n) >= BOX_SCORE_MISSING
    return labels, x0, y0, x0 + w, y0 + h, score, score_present


def _write_box_csv(path, n, seed):
    labels, x0, y0, x1, y1, score, present = _boxes(n, seed)
    scores = [s if ok else "" for s, ok in zip(_floats(score), present)]
    _write_csv(path, ["label", "x_min", "y_min", "x_max", "y_max", "score"],
               [list(labels), _floats(x0), _floats(y0), _floats(x1), _floats(y1),
                scores])


def _write_box_json(path, n, seed):
    labels, x0, y0, x1, y1, score, present = _boxes(n, seed, BOX_TEST_STRETCH)
    records = []
    for i in range(n):
        records.append(json.dumps({
            "label": str(labels[i]), "x_min": float(x0[i]), "y_min": float(y0[i]),
            "x_max": float(x1[i]), "y_max": float(y1[i]),
            "score": float(score[i]) if present[i] else None}))
    Path(path).write_text("[\n" + ",\n".join(records) + "\n]\n", encoding="utf-8")


def _write_boxes(workdir, seed):
    _write_box_csv(workdir / "train.csv", 100_000, [seed, 0])
    _write_box_csv(workdir / "valid.csv", 50_000, [seed, 1])
    _write_box_json(workdir / "test.json", 100_000, [seed, 2])
    (workdir / "schema.txt").write_text(BOX_SCHEMA, encoding="utf-8")
    w = str(workdir)
    return _write_config(workdir, {
        "data": {"train": f"{w}/train.csv", "valid": f"{w}/valid.csv",
                 "test": f"{w}/test.json", "label_column": "label"},
        "mine": {"schema": f"{w}/schema.txt", "rules_out": f"{w}/rules.jsonl",
                 "n_train_batches": 1000, "n_valid_batches": 500, "epsilon": 0.2,
                 "seed": seed + 11},
        "evaluate": {"rules": f"{w}/rules.jsonl", "report_out": f"{w}/report.json",
                     "batch_size": 64, "n_batches": 50, "seed": seed + 7},
    })


_WRITERS = {"shift": _write_shift, "cardio20k": _write_cardio,
            "boxes": _write_boxes}

_SHIFT_KINDS = {**{f"x{j}": "numeric" for j in range(SHIFT_FEATURES)},
                "b0": "boolean", "b1": "boolean", "label": "label"}
_CARDIO_KINDS = {**{f"n{j}__b{k}": "boolean" for j in range(CARDIO_NUMERIC)
                    for k in range(CARDIO_BUCKETS)},
                 **{f"b{j}": "boolean" for j in range(CARDIO_BOOLEAN)},
                 "label": "label"}
_BOX_KINDS = {"label": "label", "x_min": "numeric", "y_min": "numeric",
              "x_max": "numeric", "y_max": "numeric", "score": "numeric"}

WORKLOADS = {
    "shift": Workload(
        "shift", ("mine", "evaluate", "adapt"),
        ("train.csv", "valid.csv", "test.csv", "model.json", "schema.txt",
         "config.yaml"),
        {f: _SHIFT_KINDS for f in ("train.csv", "valid.csv", "test.csv")},
        {"mine": 5, "evaluate": 5}),
    "cardio20k": Workload(
        "cardio20k", ("mine", "evaluate"),
        ("train.csv", "valid.csv", "test.csv", "schema.txt", "config.yaml"),
        {f: _CARDIO_KINDS for f in ("train.csv", "valid.csv", "test.csv")},
        {"evaluate": 3}),
    "boxes": Workload(
        "boxes", ("mine", "evaluate"),
        ("train.csv", "valid.csv", "test.json", "schema.txt", "config.yaml"),
        {"train.csv": _BOX_KINDS, "valid.csv": _BOX_KINDS, "test.json": _BOX_KINDS},
        {"evaluate": 2}),
}
