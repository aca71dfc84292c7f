"""Batch-matrix rule evaluation against the per-batch scalar code it replaced."""
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_oracle as oracle
from conftest import make_dataset
from quantrules import violations
from quantrules.bounds import collect_statistics
from quantrules.dataset import BOOLEAN, LABEL, NUMERIC, sample_minibatches
from quantrules.schema import AbstractRule, ConcreteRule, Literal
from quantrules.statistics import StatisticRegistry


def random_dataset(rng, n):
    """Labels a/b and a rare c; every column has missing cells, and row 0
    misses every cell, so a batch of row 0 alone has no usable row."""
    def gaps():
        mask = rng.random(n) < 0.25
        mask[0] = True
        return mask

    missing = {name: gaps() for name in ("A", "B", "y", "v", "u")}
    labels = rng.choice(["a", "b", "c"], size=n, p=[0.45, 0.45, 0.1])
    labels[missing["y"]] = ""  # as load_table stores an empty label cell
    return make_dataset({
        "A": (BOOLEAN, (rng.random(n) < 0.5).astype(float)),
        "B": (BOOLEAN, (rng.random(n) < 0.5).astype(float)),
        "y": (LABEL, labels),
        "v": (NUMERIC, rng.normal(0.0, 1.0, n)),
        "u": (NUMERIC, rng.uniform(0.0, 1.0, n)),
    }, missing=missing)


def rule_shapes(s1_interval):
    """Logic rules with plain and negated literals, per-sample and summary
    rules, unguarded and guarded (c is rare), and paired rules; with the s1
    interval each paired rule needs."""
    rules = [AbstractRule(kind="logic", statistic="f1", consequent=cls, literals=lits)
             for cls in ("a", "c")
             for lits in ((Literal("A"),), (Literal("A"), Literal("B", negated=True)))]
    rules += [AbstractRule(kind="conditional", guard=guard, statistic=stat)
              for guard in (None, "b", "c") for stat in ("v", "mean(v)", "std(v)")]
    rules += [AbstractRule(kind="paired", guard="a", statistic=stat, s1="u",
                           s1_bucket=0, s1_bucket_count=2)
              for stat in ("v", "mean(v)")]
    return [(rule, s1_interval if rule.kind == "paired" else None) for rule in rules]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 5),
       st.integers(1, 16), st.floats(-1.0, 1.0), st.floats(0.0, 1.5),
       st.floats(0.0, 0.5), st.floats(0.0, 1.0))
def test_batch_matrix_matches_per_batch_oracle(seed, n, count, size, lo, width,
                                               s1_lo, s1_width):
    rng = np.random.default_rng(seed)
    ds = random_dataset(rng, n)
    registry = StatisticRegistry.from_dataset(ds)
    # rows repeat within and across batches; the last batch is row 0 alone
    rows = np.vstack([rng.integers(0, n, (count, size)), np.zeros((1, size), dtype=int)])
    shapes = rule_shapes((s1_lo, s1_lo + s1_width))

    for rule, s1_interval in shapes:
        got = collect_statistics(rule, ds, rows, registry, "y", s1_interval)
        expect = oracle.collect_statistics(rule, ds, rows, registry, "y", s1_interval)
        assert got.dtype == expect.dtype and got.tobytes() == expect.tobytes(), rule

    crules = [ConcreteRule(rule=rule, lo=lo, hi=lo + width, delta=0.02,
                           s1_lo=None if s1 is None else s1[0],
                           s1_hi=None if s1 is None else s1[1])
              for rule, s1 in shapes]
    with mock.patch.object(violations, "sample_minibatches", lambda *args: rows):
        report = violations.evaluate(crules, ds, batching=(size, count + 1, seed),
                                     label_column="y", registry=registry)
    per_rule, per_sample = oracle.evaluate_counts(crules, ds, rows, registry, "y")
    assert report.per_rule == per_rule
    assert [c for _, c in report.per_sample] == per_sample


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 20), st.integers(1, 40),
       st.integers(1, 6))
def test_sample_minibatches_stacks_sequential_draws(seed, n, size, count):
    ds = make_dataset({"x": (NUMERIC, np.arange(float(n)))})
    rng = np.random.default_rng(seed)
    draws = [rng.choice(n, size=size, replace=size > n) for _ in range(count)]
    got = sample_minibatches(ds, size, count, seed)
    assert got.shape == (count, size)
    assert got.tolist() == [d.tolist() for d in draws]
