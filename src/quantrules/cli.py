"""Command-line front end: mine rules, evaluate violations, adapt, report.

All commands read a YAML config (see README for the full schema) and never
mutate their inputs; flags override config keys. Log output is line
oriented ``key=value`` so scripts can scrape counts. Exit codes: 0 success,
2 config, parse or data type error, 3 runtime numeric failure.
"""
from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np
import yaml

from . import adaptation, bounds, rules_io, violations
from .dataset import FeatureSpec, load_table
from .errors import (DivergenceError, ParseError, QuantrulesError, ResolutionError,
                     TypeMismatchError, is_int, is_number)
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


# value kinds of config keys; a trailing "?" also accepts null (unset). The
# ranges are comparisons, so NaN is out of every range and no int overflows.
_VALUE_KINDS = {
    "int": (is_int, "an integer"),
    "count": (lambda v: is_int(v) and v >= 1, "an integer >= 1"),
    "number": (is_number, "a number"),
    "rate": (lambda v: is_number(v) and 0 <= v < math.inf, "a number in [0, inf)"),
    "positive": (lambda v: is_number(v) and 0 < v < math.inf, "a number in (0, inf)"),
    "clip": (lambda v: is_number(v) and v > 0, "a number > 0"),
    "fraction": (lambda v: is_number(v) and 0 < v < 1, "a number in (0, 1)"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "ints": (lambda v: isinstance(v, list) and len(v) > 0 and all(map(is_int, v)),
             "a list of integers with at least one entry"),
    "list": (lambda v: isinstance(v, list), "a list"),
}

# every key of every config section, with its value kind (see README)
_CONFIG_KEYS = {
    "data": {"train": "str", "valid": "str", "test": "str", "label_column": "str",
             "prediction_column": "str", "features": "list?"},
    "mine": {"schema": "str", "rules_out": "str", "model_in": "str?",
             "n_train_batches": "count", "n_valid_batches": "count", "batch_size": "count?",
             "delta": "fraction?", "epsilon": "fraction", "seed": "int", "valid_seed": "int",
             "log_out": "str?"},
    "evaluate": {"rules": "str", "report_out": "str", "model_in": "str?",
                 "batch_size": "count", "n_batches": "count", "seed": "int", "seeds": "ints?",
                 "log_out": "str?"},
    "adapt": {"rules": "str", "model_in": "str", "model_out": "str?", "trace_out": "str?",
              "report_before": "str?", "report_after": "str?", "iterations": "count",
              "epochs": "count", "batch_size": "count", "learning_rate": "rate",
              "seed": "int", "grad_clip": "clip?", "temperature": "positive",
              "eval_batch_size": "count", "eval_n_batches": "count", "log_out": "str?"},
}
_FEATURE_KEYS = {"column": "str", "buckets": "int?"}
# the keys each command needs, by section; a config without one fails before any work
_NEEDED_KEYS = {
    "mine": {"data": ("train", "valid"), "mine": ("schema", "rules_out")},
    "evaluate": {"data": ("test",), "evaluate": ("rules", "report_out")},
    "adapt": {"data": ("test",), "adapt": ("rules", "model_in")},
}


def _check_keys(path, where, section, keys):
    """Raise ParseError naming ``path``, ``where`` and the key unless
    ``section`` is a mapping of known keys to values of their kind."""
    if not isinstance(section, dict):
        raise ParseError(f"{path}: {where} must be a mapping, got {section!r}")
    for key, value in section.items():
        if key not in keys:
            raise ParseError(f"{path}: {where}: unknown key {key!r}; "
                             f"known keys: {', '.join(keys)}")
        kind = keys[key]
        accepts, name = _VALUE_KINDS[kind.rstrip("?")]
        if not (accepts(value) or (value is None and kind.endswith("?"))):
            raise ParseError(f"{path}: {where}: key {key!r} must be {name}, got {value!r}")


def _load_config(path, command):
    """Read a YAML config whose sections and keys are all in _CONFIG_KEYS and
    which holds every key that ``command`` needs (_NEEDED_KEYS)."""
    with open(path, encoding="utf-8") as fh:
        cfg = yaml.safe_load(fh)
    if not isinstance(cfg, dict):
        raise ParseError(f"{path}: config must be a mapping of sections")
    for name, section in cfg.items():
        if name not in _CONFIG_KEYS:
            raise ParseError(f"{path}: unknown section {name!r}; "
                             f"known sections: {', '.join(_CONFIG_KEYS)}")
        _check_keys(path, f"section {name!r}", section, _CONFIG_KEYS[name])
    for i, entry in enumerate(cfg.get("data", {}).get("features") or []):
        where = f"section 'data': features[{i}]"
        _check_keys(path, where, entry, _FEATURE_KEYS)
        if "column" not in entry:
            raise ParseError(f"{path}: {where}: missing key 'column'")
    adapt_cfg = cfg.get("adapt") or {}
    if "iterations" in adapt_cfg and "epochs" in adapt_cfg:
        raise ParseError(f"{path}: section 'adapt': keys 'iterations' and 'epochs' are "
                         f"both set; set one of them")
    for name, keys in _NEEDED_KEYS[command].items():
        if name not in cfg:
            raise ParseError(f"{path}: config has no section {name!r}, "
                             f"which {command} needs")
        for key in keys:
            if key not in cfg[name]:
                raise ParseError(f"{path}: section {name!r}: missing key {key!r}, "
                                 f"which {command} needs")
    return cfg


def _feature_specs(data_cfg):
    entries = data_cfg.get("features")
    if entries is None:
        return None
    specs = []
    for entry in entries:
        specs.append(FeatureSpec(entry["column"], entry.get("buckets")))
    return specs


def _header_edges(rules_path, header, specs):
    """The bucket edges of a rules file's header, if they hold exactly n - 1
    edges for each features column with ``buckets: n``; else ParseError
    naming the rules file and the column."""
    edges = header["bucket_edges"]
    for spec in specs or ():
        got = edges.get(spec.source)
        if spec.buckets is not None and (got is None or len(got) != spec.buckets - 1):
            raise ParseError(f"{rules_path}: header bucket_edges of column {spec.source!r} "
                             f"must hold {spec.buckets - 1} edges, as its features entry has "
                             f"buckets: {spec.buckets}; got {got!r}")
    return edges


def _load_with_model(path, specs, edges, model):
    if str(path).endswith(".json"):
        ds = load_boxes(path)  # bounding-box prediction dump
    else:
        ds = load_table(path, specs, edges)
    if model is not None:
        ds = ds.with_columns(model.predict_columns(ds))
    return ds


def cmd_mine(cfg, args) -> int:
    data_cfg = cfg["data"]
    mine_cfg = cfg["mine"]
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
    data_cfg = cfg["data"]
    eval_cfg = cfg["evaluate"]
    specs = _feature_specs(data_cfg)
    rules, header = rules_io.load_rules(eval_cfg["rules"])

    model = None
    if eval_cfg.get("model_in"):
        model = SoftmaxModel.load(eval_cfg["model_in"])
    test = _load_with_model(data_cfg["test"], specs,
                            _header_edges(eval_cfg["rules"], header, specs), model)

    label_column = data_cfg.get("prediction_column", "pred")
    if not test.has_column(label_column):
        label_column = data_cfg.get("label_column", test.label_column)

    # a flag overrides both config keys: --seeds, then --seed, then seeds, then seed
    if args.seeds:
        seeds = args.seeds
    elif args.seed is not None:
        seeds = [args.seed]
    else:
        seeds = eval_cfg.get("seeds") or [eval_cfg.get("seed", 0)]
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
             unevaluable=len(primary.unevaluable),
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
    data_cfg = cfg["data"]
    adapt_cfg = cfg["adapt"]
    specs = _feature_specs(data_cfg)
    rules, header = rules_io.load_rules(adapt_cfg["rules"])
    model = SoftmaxModel.load(adapt_cfg["model_in"])
    test = _load_with_model(data_cfg["test"], specs,
                            _header_edges(adapt_cfg["rules"], header, specs), None)
    # every rule must be evaluable on the test columns and the model outputs
    try:
        groups = adaptation.RuleGroups(rules, model, test)
    except ResolutionError as exc:
        raise ResolutionError(f"{adapt_cfg['rules']}: {exc}") from None

    seed = args.seed if args.seed is not None else adapt_cfg.get("seed", 0)
    batch_size = adapt_cfg.get("batch_size", 128)
    if "epochs" in adapt_cfg:  # _load_config refuses it next to iterations
        iterations = adaptation.iterations_for_epochs(adapt_cfg["epochs"],
                                                      test.n_rows, batch_size)
    else:
        iterations = adapt_cfg.get("iterations", 1000)
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
        adapted, trace = adaptation.adapt(model, rules, test, config, groups)
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

    zero_loss_iters = sum(1 for row in trace if row.loss == 0.0)
    n_before, n_after = before.total_violations, after.total_violations
    note = {} if n_before else {"note": "no violations before adaptation"}
    log.emit(command="adapt", **note, before=n_before, after=n_after,
             pct_reduced=100.0 * (n_before - n_after) / n_before if n_before else 0.0,
             iterations=config.iterations, seed=seed, zero_loss_iters=zero_loss_iters)
    log.flush()
    return 0


def cmd_report(args) -> int:
    report = violations.read_report(args.report)
    if args.out:
        violations.write_report(report, args.out, fmt=args.format)
    worst = sorted(report.per_rule, key=lambda r: -r[1])[:10]
    print(f"rules={len(report.per_rule)} samples={report.per_sample.size}")
    print(f"total_violations={report.total_violations}")
    print(f"per_sample_mean={report.per_sample_mean} per_sample_std={report.per_sample_std}")
    for sig, v, n in worst:
        if v:
            print(f"violated signature={sig} violations={v} evaluations={n}")
    return 0


def _seed_list(text):
    """The ``--seeds`` value: comma-separated integers."""
    try:
        return [int(item) for item in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


def build_parser():
    parser = argparse.ArgumentParser(prog="quantrules",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("mine", "evaluate", "adapt"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None)
        if name == "evaluate":
            p.add_argument("--seeds", type=_seed_list, default=None,
                           help="comma-separated seed list")
        if name != "mine":  # mine writes no report
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
        cfg = _load_config(args.config, args.command)
        if args.command == "mine":
            return cmd_mine(cfg, args)
        if args.command == "evaluate":
            return cmd_evaluate(cfg, args)
        return cmd_adapt(cfg, args)
    except (ParseError, ResolutionError, TypeMismatchError, ValueError, KeyError,
            FileNotFoundError, yaml.YAMLError) as exc:
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
