"""Quantile rule mining, violation auditing, and rule-driven test-time adaptation."""

from .adaptation import (AdaptationConfig, TraceRow, adapt, forward_batch,
                         grad_check)
from .bounds import BoundJob, Interval, learn_and_select
from .dataset import (Dataset, FeatureSpec, bucket_edges,
                      load_table, sample_minibatches, split)
from .errors import (DivergenceError, EmptyStatisticError, ParseError,
                     QuantrulesError, ResolutionError, TypeMismatchError)
from .model import SoftmaxModel
from .rules_io import load_rules, save_rules
from .schema import (AbstractRule, ConcreteRule, Literal, RuleSchema,
                     TemplateSpec, enumerate_abstract_rules, parse_schema,
                     rule_signature)
from .statistics import Statistic, StatisticRegistry, load_boxes
from .violations import ViolationReport, evaluate, read_report, write_report

__all__ = [
    "AbstractRule", "AdaptationConfig", "BoundJob", "ConcreteRule",
    "Dataset", "DivergenceError", "EmptyStatisticError", "FeatureSpec",
    "Interval", "Literal", "ParseError", "QuantrulesError",
    "ResolutionError", "RuleSchema", "SoftmaxModel", "Statistic",
    "StatisticRegistry", "TemplateSpec", "TraceRow", "TypeMismatchError",
    "ViolationReport", "adapt", "bucket_edges", "enumerate_abstract_rules",
    "evaluate", "forward_batch", "grad_check", "learn_and_select", "load_boxes",
    "load_rules", "load_table", "parse_schema", "read_report",
    "rule_signature", "sample_minibatches", "save_rules", "split",
    "write_report",
]
