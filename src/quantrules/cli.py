"""Command-line front end: mine rules, evaluate violations, adapt, report.

All commands read a YAML config (see README for the full schema) and never
mutate their inputs; flags override config keys. Log output is line
oriented ``key=value`` so scripts can scrape counts. Exit codes: 0 success,
2 config or parse error, 3 runtime numeric failure.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np
import yaml

from . import adaptation, bounds, rules_io, violations
from .dataset import FeatureSpec, load_table
from .errors import DivergenceError, ParseError, QuantrulesError, ResolutionError
from .model import SoftmaxModel
from .schema import enumerate_abstract_rules, parse_schema
from .statistics import StatisticRegistry, load_boxes


class _Logger:
    def __init__(self, path=None):
        self.lines = []
        self.path = path

    def emit(self, **kv):
        line = " ".join(f"{k}={v}" for k, v in kv.items())
        print(line)
        self.lines.append(line)

    def flush(self):
        if self.path:
            with open(self.path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(self.lines) + "\n")


def _load_config(path):
    with open(path, encoding="utf-8") as fh:
        cfg = yaml.safe_load(fh)
    if not isinstance(cfg, dict):
        raise ParseError(f"{path}: config must be a mapping of sections")
    return cfg


def _section(cfg, name):
    section = cfg.get(name)
    if section is None:
        raise ParseError(f"config has no '{name}' section")
    return section


def _feature_specs(data_cfg):
    entries = data_cfg.get("features")
    if entries is None:
        return None
    specs = []
    for entry in entries:
        specs.append(FeatureSpec(entry["column"], entry.get("buckets")))
    return specs


def _load_with_model(path, specs, edges, model):
    if str(path).endswith(".json"):
        ds = load_boxes(path)  # bounding-box prediction dump
    else:
        ds = load_table(path, specs, edges)
    if model is not None:
        ds = ds.with_columns(model.predict_columns(ds))
    return ds


def cmd_mine(cfg, args) -> int:
    data_cfg = _section(cfg, "data")
    mine_cfg = _section(cfg, "mine")
    specs = _feature_specs(data_cfg)
    seed = args.seed if args.seed is not None else mine_cfg.get("seed", 0)

    model = None
    if mine_cfg.get("model_in"):
        model = SoftmaxModel.load(mine_cfg["model_in"])
    train = _load_with_model(data_cfg["train"], specs, None, model)
    valid = _load_with_model(data_cfg["valid"], specs, train.bucket_edges, model)

    registry = StatisticRegistry.from_dataset(train)
    schema_text = Path(mine_cfg["schema"]).read_text(encoding="utf-8")
    schema = parse_schema(schema_text, known_statistics=registry.names)
    rules = enumerate_abstract_rules(schema, train.boolean_columns(), dict(train.sources))

    job = bounds.BoundJob(
        n_train_batches=mine_cfg.get("n_train_batches", 200),
        n_valid_batches=mine_cfg.get("n_valid_batches", 50),
        batch_size=mine_cfg.get("batch_size"),
        delta=mine_cfg.get("delta"),
        epsilon=mine_cfg.get("epsilon", 0.2),
        train_seed=seed,
        valid_seed=mine_cfg.get("valid_seed", seed + 1),
    )
    label_column = data_cfg.get("label_column", train.label_column)
    events = []
    selected = bounds.learn_and_select(rules, train, valid, job,
                                       registry=registry, label_column=label_column,
                                       log=events)
    rules_io.save_rules(mine_cfg["rules_out"], selected, train.bucket_edges)

    log = _Logger(mine_cfg.get("log_out"))
    skipped = sum(1 for e in events if e["event"] == "skipped")
    log.emit(command="mine", enumerated=len(rules), skipped=skipped,
             selected=len(selected), rules_out=mine_cfg["rules_out"], seed=seed)
    log.flush()
    return 0


def cmd_evaluate(cfg, args) -> int:
    data_cfg = _section(cfg, "data")
    eval_cfg = _section(cfg, "evaluate")
    specs = _feature_specs(data_cfg)
    rules, header = rules_io.load_rules(eval_cfg["rules"])

    model = None
    if eval_cfg.get("model_in"):
        model = SoftmaxModel.load(eval_cfg["model_in"])
    test = _load_with_model(data_cfg["test"], specs, header.get("bucket_edges"), model)

    label_column = data_cfg.get("prediction_column", "pred")
    if not test.has_column(label_column):
        label_column = data_cfg.get("label_column", test.label_column)

    if args.seeds:
        seeds = [int(s) for s in args.seeds.split(",")]
    else:
        seeds = eval_cfg.get("seeds") or [args.seed if args.seed is not None
                                          else eval_cfg.get("seed", 0)]
    batch = eval_cfg.get("batch_size", 256)
    count = eval_cfg.get("n_batches", 50)

    log = _Logger(eval_cfg.get("log_out"))
    totals = []
    primary = None
    for seed in seeds:
        report = violations.evaluate(rules, test, (batch, count, seed),
                                     label_column=label_column)
        totals.append(report.total_violations)
        if primary is None:
            primary = report
    violations.write_report(primary, eval_cfg["report_out"], fmt=args.format)

    totals_arr = np.asarray(totals, dtype=float)
    log.emit(command="evaluate", rules=len(rules),
             total_violations=primary.total_violations,
             per_sample_mean=primary.per_sample_mean,
             per_sample_std=primary.per_sample_std,
             seeds=",".join(str(s) for s in seeds),
             total_violations_mean=float(totals_arr.mean()),
             total_violations_std=float(totals_arr.std()),
             report_out=eval_cfg["report_out"])
    log.flush()
    return 0


def cmd_adapt(cfg, args) -> int:
    data_cfg = _section(cfg, "data")
    adapt_cfg = _section(cfg, "adapt")
    specs = _feature_specs(data_cfg)
    rules, header = rules_io.load_rules(adapt_cfg["rules"])
    model = SoftmaxModel.load(adapt_cfg["model_in"])
    test = load_table(data_cfg["test"], specs, header.get("bucket_edges"))

    seed = args.seed if args.seed is not None else adapt_cfg.get("seed", 0)
    batch_size = adapt_cfg.get("batch_size", 128)
    if "iterations" in adapt_cfg:
        iterations = adapt_cfg["iterations"]
    elif "epochs" in adapt_cfg:
        iterations = adaptation.iterations_for_epochs(adapt_cfg["epochs"],
                                                      test.n_rows, batch_size)
    else:
        iterations = 1000
    config = adaptation.AdaptationConfig(
        iterations=iterations,
        batch_size=batch_size,
        learning_rate=adapt_cfg.get("learning_rate", 1e-2),
        seed=seed,
        grad_clip=adapt_cfg.get("grad_clip"),
        temperature=adapt_cfg.get("temperature", 1.0),
    )

    eval_batch = adapt_cfg.get("eval_batch_size", batch_size)
    eval_count = adapt_cfg.get("eval_n_batches", 50)
    batching = (eval_batch, eval_count, seed)

    before_ds = test.with_columns(model.predict_columns(test))
    before = violations.evaluate(rules, before_ds, batching, label_column="pred")
    if adapt_cfg.get("report_before"):
        violations.write_report(before, adapt_cfg["report_before"], fmt=args.format)

    log = _Logger(adapt_cfg.get("log_out"))
    try:
        adapted, trace = adaptation.adapt(model, rules, test, config)
    except DivergenceError as exc:
        if adapt_cfg.get("trace_out"):
            adaptation.write_trace(exc.trace, adapt_cfg["trace_out"])
        print(f"error: {exc}", file=sys.stderr)
        return 3

    if adapt_cfg.get("trace_out"):
        adaptation.write_trace(trace, adapt_cfg["trace_out"])
    if adapt_cfg.get("model_out"):
        adapted.save(adapt_cfg["model_out"])

    after_ds = test.with_columns(adapted.predict_columns(test))
    after = violations.evaluate(rules, after_ds, batching, label_column="pred")
    if adapt_cfg.get("report_after"):
        violations.write_report(after, adapt_cfg["report_after"], fmt=args.format)

    if before.total_violations == 0:
        log.emit(command="adapt", note="no violations before adaptation",
                 before=0, after=after.total_violations, pct_reduced=0.0,
                 iterations=config.iterations, seed=seed)
    else:
        pct = 100.0 * (before.total_violations - after.total_violations) \
            / before.total_violations
        log.emit(command="adapt", before=before.total_violations,
                 after=after.total_violations, pct_reduced=pct,
                 iterations=config.iterations, seed=seed)
    log.flush()
    return 0


def cmd_report(args) -> int:
    report = violations.read_report(args.report)
    if args.out:
        violations.write_report(report, args.out, fmt=args.format)
    worst = sorted(report.per_rule, key=lambda r: -r[1])[:10]
    print(f"rules={len(report.per_rule)} samples={len(report.per_sample)}")
    print(f"total_violations={report.total_violations}")
    print(f"per_sample_mean={report.per_sample_mean} per_sample_std={report.per_sample_std}")
    for sig, v, n in worst:
        if v:
            print(f"violated signature={sig} violations={v} evaluations={n}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="quantrules",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("mine", "evaluate", "adapt"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--seeds", default=None,
                       help="comma-separated seed list (evaluate only)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
    p = sub.add_parser("report")
    p.add_argument("--report", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            return cmd_report(args)
        cfg = _load_config(args.config)
        if args.command == "mine":
            return cmd_mine(cfg, args)
        if args.command == "evaluate":
            return cmd_evaluate(cfg, args)
        return cmd_adapt(cfg, args)
    except (ParseError, ResolutionError, ValueError, KeyError, FileNotFoundError,
            yaml.YAMLError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except QuantrulesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
