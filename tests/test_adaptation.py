import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_dataset, write_csv
from scalar_oracle import batch_table, check_rule
from scalar_oracle import total_loss_grad as oracle_loss_grad
from quantrules import adaptation
from quantrules.adaptation import (AdaptationConfig, RuleGroups, adapt, forward_batch,
                                   grad_check, hinge, iterations_for_epochs,
                                   total_loss_grad, write_trace)
from quantrules.dataset import BOOLEAN, LABEL, NUMERIC, load_table
from quantrules.errors import DivergenceError, ResolutionError
from quantrules.model import SoftmaxModel
from quantrules.schema import AbstractRule, ConcreteRule, Literal
from quantrules.violations import evaluate

INF = float("inf")


def tiny_setup(n=16, seed=0, spread=1.0):
    """A 2-feature 2-class model over a small dataset with a boolean column."""
    rng = np.random.default_rng(seed)
    X = rng.normal(0, spread, (n, 2))
    ds = make_dataset({
        "x0": (NUMERIC, X[:, 0]),
        "x1": (NUMERIC, X[:, 1]),
        "flag": (BOOLEAN, (rng.random(n) < 0.5).astype(float)),
        "v": (NUMERIC, rng.uniform(0, 1, n)),
    })
    model = SoftmaxModel(["x0", "x1"], ["a", "b"],
                         scale=np.ones(2), shift=np.zeros(2),
                         weights=np.array([[0.8, -0.8], [-0.5, 0.5]]),
                         bias=np.array([0.1, -0.1]))
    return ds, model


def data_rule(lo, hi, sided="two", column="v"):
    return ConcreteRule(rule=AbstractRule(kind="conditional", sided=sided,
                                          statistic=column),
                        lo=lo, hi=hi, delta=0.02)


def loss_grad(rules, table, out, temperature=1.0):
    """The loss of ``rules`` on the batch output ``out`` of ``table``."""
    return total_loss_grad(RuleGroups(rules, out.model, table), out, temperature)


def const_output(value):
    """A table whose data column v is a single constant value, and the batch
    output on its one row."""
    ds = make_dataset({"x0": (NUMERIC, [0.0]), "x1": (NUMERIC, [0.0]),
                       "v": (NUMERIC, [value])})
    model = SoftmaxModel(["x0", "x1"], ["a", "b"], np.ones(2), np.zeros(2),
                         np.zeros((2, 2)), np.zeros(2))
    return ds, forward_batch(model, model.feature_matrix(ds), [0])


# -- loss arithmetic -------------------------------------------------------------

def test_loss_zero_when_satisfied():
    batch = const_output(0.5)
    assert loss_grad([data_rule(0.0, 1.0)], *batch)[0] == 0.0


def test_one_sided_linear_loss():
    # lower bound 2, value 1.5 -> min{2 - 1.5, 1} = 0.5
    batch = const_output(1.5)
    assert loss_grad([data_rule(2.0, INF, sided="lower")], *batch)[0] == 0.5


def test_two_sided_quadratic_loss():
    # bounds [0, 1], value 1.5 -> min{(0 - 1.5)(1 - 1.5), 1} = 0.75
    batch = const_output(1.5)
    assert loss_grad([data_rule(0.0, 1.0)], *batch)[0] == 0.75


def test_loss_clips_at_one():
    batch = const_output(100.0)
    assert loss_grad([data_rule(0.0, 1.0)], *batch)[0] == 1.0
    assert loss_grad([data_rule(200.0, INF, sided="lower")], *batch)[0] == 1.0


def test_total_loss_is_mean():
    batch = const_output(1.5)
    half = data_rule(2.0, INF, sided="lower")   # loss 0.5
    ok = data_rule(0.0, 2.0)                    # loss 0
    assert loss_grad([half, ok], *batch)[0] == 0.25
    assert loss_grad([half] * 7, *batch)[0] == pytest.approx(0.5)


def test_total_loss_rejects_empty_rule_list():
    with pytest.raises(ValueError):
        loss_grad([], *const_output(0.5))


def test_hinge_slope_signs():
    loss, slope = hinge(1.5, 2.0, INF)
    assert (loss, slope) == (0.5, -1.0)
    loss, slope = hinge(3.0, -INF, 2.5)
    assert (loss, slope) == (0.5, 1.0)
    loss, slope = hinge(1.5, 0.0, 1.0)
    assert loss == 0.75 and slope == pytest.approx(2 * 1.5 - 0.0 - 1.0)
    assert hinge(0.5, 0.0, 1.0) == (0.0, 0.0)


def test_hinge_nan_is_past_the_clip():
    """A NaN value lies outside every interval: it pays the clip, with no
    slope, on either side and for every sidedness."""
    for lo, hi in ((0.0, 1.0), (2.0, INF), (-INF, 2.5)):
        loss, slope = hinge(np.array([math.nan, 0.5]), lo, hi, 0.5)
        assert loss[0] == 0.5 and slope[0] == 0.0


def scalar_hinge(value, lo, hi, clip=1.0):
    """The scalar hinge the array version replaced, kept as its oracle."""
    if lo <= value <= hi:
        return 0.0, 0.0
    if math.isinf(hi):
        raw, slope = lo - value, -1.0
    elif math.isinf(lo):
        raw, slope = value - hi, 1.0
    else:
        raw, slope = (lo - value) * (hi - value), 2.0 * value - lo - hi
    if raw >= clip:
        return clip, 0.0
    return raw, slope


_FLOATS = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["lower", "upper", "two"]), _FLOATS, st.floats(0.0, 1e6),
       st.lists(st.one_of(_FLOATS, st.sampled_from([-INF, INF])), max_size=8),
       st.integers(0, 8), st.sampled_from([1.0, 0.5, 3.0]))
def test_array_hinge_equals_scalar_oracle(sided, lo, width, extra, clip_at, clip):
    hi = lo + width
    if sided == "lower":
        hi = INF
    elif sided == "upper":
        lo = -INF
    finite = [b for b in (lo, hi) if math.isfinite(b)]
    # values exactly at the bounds and one clip distance past each of them
    values = extra + finite + [b + d for b in finite for d in (-clip, clip)]
    if clip_at < len(values):  # a clip equal to that value's raw loss
        raw = scalar_hinge(values[clip_at], lo, hi, INF)[0]
        clip = raw if 0.0 < raw < INF else clip
    losses, slopes = hinge(np.array(values), lo, hi, clip)
    expected = [scalar_hinge(v, lo, hi, clip) for v in values]
    assert losses.tolist() == [e[0] for e in expected]
    assert slopes.tolist() == [e[1] for e in expected]


def test_array_hinge_takes_one_bound_pair_per_row():
    values = np.array([[0.5, 3.0], [0.5, 3.0], [0.5, 3.0]])
    lo = np.array([[1.0], [-INF], [0.0]])
    hi = np.array([[INF], [2.5], [1.0]])
    losses, slopes = hinge(values, lo, hi)
    for i in range(3):
        expected = hinge(values[i], float(lo[i, 0]), float(hi[i, 0]))
        assert losses[i].tolist() == expected[0].tolist()
        assert slopes[i].tolist() == expected[1].tolist()


def test_loss_zero_iff_check_satisfied_randomized():
    rng = np.random.default_rng(7)
    ds, model = tiny_setup(n=32, seed=1)
    out = forward_batch(model, model.feature_matrix(ds), np.arange(32))
    for _ in range(200):
        lo = rng.uniform(-0.5, 1.0)
        hi = lo + rng.uniform(0.05, 1.0)
        rule = data_rule(lo, hi)
        loss = loss_grad([rule], ds, out)[0]
        result = check_rule(rule, batch_table(ds, out), np.arange(32), label_column="pred")
        assert (loss == 0.0) == (result.evaluated and not result.violated)


PER_SAMPLE_STATS = ("score_a", "v", "x1")


def recount_rules(lo, hi, s1_lo, s1_hi):
    """One rule of each shape: guarded and unguarded, per-sample and
    minibatch, soft model scores and data columns, paired and logic."""
    def rule(stat, guard=None, s1=None):
        kind = "conditional" if s1 is None else "paired"
        abstract = AbstractRule(kind=kind, guard=guard, statistic=stat, s1=s1,
                                s1_bucket=None if s1 is None else 0,
                                s1_bucket_count=None if s1 is None else 2)
        paired = s1 is not None
        return ConcreteRule(rule=abstract, lo=lo, hi=hi, delta=0.02,
                            s1_lo=s1_lo if paired else None,
                            s1_hi=s1_hi if paired else None)

    logic = ConcreteRule(rule=AbstractRule(kind="logic", statistic="f1", consequent="a",
                                           literals=(Literal("flag"),)),
                         lo=lo, hi=hi, delta=0.02)
    return [rule("score_a", guard="a"), rule("v", guard="b"), rule("mean(score_b)"),
            rule("std(score_a)", guard="a"), rule("mean(v)"),
            rule("x1", guard="a", s1="v"), rule("mean(score_a)", guard="b", s1="v"),
            logic]


def random_setup(rng, n=12):
    """A model over a table with missing literal, value and label cells."""
    ds = make_dataset({
        "x0": (NUMERIC, rng.normal(0, 1, n)),
        "x1": (NUMERIC, rng.normal(0, 1, n)),
        "flag": (BOOLEAN, (rng.random(n) < 0.5).astype(float)),
        "v": (NUMERIC, rng.uniform(-1, 1, n)),
        "label": (LABEL, np.where(rng.random(n) < 0.5, "a", "bb")),
    }, missing={"flag": rng.random(n) < 0.2, "v": rng.random(n) < 0.3,
                "label": rng.random(n) < 0.2})
    model = SoftmaxModel(["x0", "x1"], ["a", "b"], np.ones(2), np.zeros(2),
                         rng.normal(0, 1, (2, 2)), rng.normal(0, 0.1, 2))
    return ds, model


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 40),
       st.floats(-0.5, 1.0), st.floats(0.0, 1.0),
       st.floats(-1.0, 0.5), st.floats(0.0, 1.0))
def test_in_pass_violations_match_check_rule_recount(seed, size, lo, width, s1_lo, s1_width):
    rng = np.random.default_rng(seed)
    ds, model = random_setup(rng)
    rows = rng.choice(ds.n_rows, size=size, replace=True)  # rows may repeat
    out = forward_batch(model, model.feature_matrix(ds), rows)
    rules = recount_rules(lo, lo + width, s1_lo, s1_lo + s1_width)
    _, _, _, violations = loss_grad(rules, ds, out)

    batch = batch_table(ds, out)
    recount = 0
    for crule in rules:
        if crule.rule.statistic in PER_SAMPLE_STATS:
            for i in range(size):
                one = check_rule(crule, batch, [i], label_column="pred")
                recount += one.evaluated and one.violated
        else:
            whole = check_rule(crule, batch, np.arange(size), label_column="pred")
            recount += size if whole.evaluated and whole.violated else 0
    assert violations == recount


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 40),
       st.floats(-0.5, 1.0), st.floats(0.0, 1.0),
       st.floats(-1.0, 0.5), st.floats(0.0, 1.0))
def test_forward_batch_columns_equal_predict_columns(seed, size, lo, width, s1_lo,
                                                     s1_width):
    rng = np.random.default_rng(seed)
    ds, model = random_setup(rng)
    rows = rng.choice(ds.n_rows, size=size, replace=True)  # rows may repeat
    out = forward_batch(model, model.feature_matrix(ds), rows)
    assert np.array_equal(out.rows, rows)
    got, expected = model.output_columns(out.probs), model.predict_columns(ds.take(rows))
    assert [(name, kind) for name, kind, _ in got] == \
        [(name, kind) for name, kind, _ in expected]
    for (_, _, values), (_, _, oracle) in zip(got, expected):
        assert values.dtype == oracle.dtype
        assert values.tobytes() == oracle.tobytes()

    # gathering the data cells at the batch rows equals taking the rows first
    taken = ds.take(rows)
    rules = recount_rules(lo, lo + width, s1_lo, s1_lo + s1_width)
    loss, dscale, dshift, violations = loss_grad(rules, ds, out)
    loss_t, dscale_t, dshift_t, violations_t = loss_grad(
        rules, taken, forward_batch(model, model.feature_matrix(taken), np.arange(size)))
    assert loss == loss_t and violations == violations_t
    assert np.array_equal(dscale, dscale_t) and np.array_equal(dshift, dshift_t)


# -- the grouped loss against the per-rule oracle ------------------------------------

def differential_setup(rng, n, gain):
    """A model over a table with numeric, boolean and box columns, missing
    cells in each kind, and a constant column. ``gain`` scales the frozen
    weights; a large gain saturates probabilities at exactly 0 and 1."""
    x_min, y_min = rng.uniform(0, 4, n), rng.uniform(0, 4, n)
    ds = make_dataset({
        "x0": (NUMERIC, rng.normal(0, 1, n)),
        "x1": (NUMERIC, rng.normal(0, 1, n)),
        "flag": (BOOLEAN, (rng.random(n) < 0.5).astype(float)),
        "flag2": (BOOLEAN, (rng.random(n) < 0.5).astype(float)),
        "v": (NUMERIC, rng.uniform(-1, 1, n)),
        "k": (NUMERIC, np.full(n, 0.25)),
        "x_min": (NUMERIC, x_min), "y_min": (NUMERIC, y_min),
        "x_max": (NUMERIC, x_min + rng.uniform(0.1, 3, n)),
        "y_max": (NUMERIC, y_min + rng.uniform(0.1, 3, n)),
        "label": (LABEL, np.where(rng.random(n) < 0.5, "a", "b")),
    }, missing={"flag": rng.random(n) < 0.2, "flag2": rng.random(n) < 0.1,
                "v": rng.random(n) < 0.3, "x_max": rng.random(n) < 0.2})
    model = SoftmaxModel(["x0", "x1"], ["a", "b"], np.ones(2), np.zeros(2),
                         gain * rng.normal(0, 1, (2, 2)), rng.normal(0, 0.1, 2))
    return ds, model


_PER_SAMPLE = ["score_a", "score_b", "v", "x1", "k", "width", "aspect_ratio"]
_SUMMARY = ["mean(score_a)", "std(score_a)", "mean(score_b)", "std(score_b)",
            "mean(v)", "std(v)", "std(k)"]
_LITERALS = [Literal("flag"), Literal("flag", True), Literal("flag2"),
             Literal("flag2", True)]
# bounds near the scores, std and mean values, or anywhere in the data's range
_BOUND = st.one_of(st.floats(-0.1, 0.7), st.floats(-1.5, 2.5))
_WIDTH = st.one_of(st.floats(0.0, 0.5), st.floats(0.0, 2.0), st.sampled_from([0.0, 50.0]))


@st.composite
def drawn_rules(draw):
    """A concrete rule of any shape: per-sample or summary statistics of score,
    data and box columns, guarded by a class, by no class or by one the
    model never predicts, optionally paired; or a logic rule with negated
    and repeated literals. Bounds are one- or two-sided and may sit far
    from every value, so losses reach the clip."""
    kind = draw(st.sampled_from(["conditional", "paired", "logic"]))
    sided = draw(st.sampled_from(["lower", "upper", "two"]))
    lo = draw(_BOUND)
    hi = lo + draw(_WIDTH)
    if sided == "lower":
        hi = INF
    elif sided == "upper":
        lo, hi = -INF, hi
    if kind == "logic":
        literals = tuple(draw(st.lists(st.sampled_from(_LITERALS), min_size=1, max_size=3)))
        rule = AbstractRule(kind="logic", sided=sided, statistic="f1",
                            literals=literals, consequent=draw(st.sampled_from(["a", "b"])))
        return ConcreteRule(rule=rule, lo=lo, hi=hi, delta=0.02)
    statistic = draw(st.sampled_from(_PER_SAMPLE + _SUMMARY))
    guard = draw(st.sampled_from([None, "a", "b", "zz"]))
    if kind == "conditional":
        rule = AbstractRule(kind=kind, sided=sided, guard=guard, statistic=statistic)
        return ConcreteRule(rule=rule, lo=lo, hi=hi, delta=0.02)
    s1_lo = draw(st.floats(-1.0, 2.0))
    rule = AbstractRule(kind=kind, sided=sided, guard=guard, statistic=statistic,
                        s1=draw(st.sampled_from(["score_a", "v", "width"])),
                        s1_bucket=0, s1_bucket_count=2)
    return ConcreteRule(rule=rule, lo=lo, hi=hi, delta=0.02, s1_lo=s1_lo,
                        s1_hi=s1_lo + draw(st.floats(0.0, 2.0)))


def with_dprobs(model, loss_grad):
    """``loss_grad()`` and the d loss / d probs it passed to ``model.backward``
    (None when it did not call it)."""
    seen = []
    model.backward = lambda cache, dprobs: (
        seen.append(dprobs), SoftmaxModel.backward(model, cache, dprobs))[1]
    try:
        return loss_grad(), seen[0] if seen else None
    finally:
        del model.backward


_ONE_SIDED = [  # violated, unclipped one-sided score rules of each group
    ConcreteRule(rule=AbstractRule(kind="conditional", sided=sided, statistic=stat),
                 lo=lo, hi=hi, delta=0.02)
    for stat in ("score_a", "mean(score_a)", "std(score_b)")
    for sided, lo, hi in (("lower", 0.9, INF), ("upper", -INF, 0.05))] + [
    ConcreteRule(rule=AbstractRule(kind="logic", sided=sided, statistic="f1",
                                   literals=(Literal("flag"),), consequent="b"),
                 lo=lo, hi=hi, delta=0.02)
    for sided, lo, hi in (("lower", 0.95, INF), ("upper", -INF, 0.05))]


@settings(max_examples=200, deadline=None)
@example(seed=1, size=12, gain=0.5, temperature=1.0, rules=_ONE_SIDED)
@given(st.integers(0, 10_000), st.integers(1, 30), st.sampled_from([0.5, 2.0, 400.0]),
       st.sampled_from([1.0, 0.5, 2.0]), st.lists(drawn_rules(), min_size=1, max_size=8))
def test_grouped_loss_equals_per_rule_oracle(seed, size, gain, temperature, rules):
    rng = np.random.default_rng(seed)
    ds, model = differential_setup(rng, 16, gain)
    rows = rng.choice(ds.n_rows, size=size, replace=True)  # rows may repeat
    out = forward_batch(model, model.feature_matrix(ds), rows)
    expected, dprobs = with_dprobs(
        model, lambda: oracle_loss_grad(rules, ds, out, temperature))
    groups = RuleGroups(rules, model, ds)  # data cells read once, at all rows
    got, got_dprobs = with_dprobs(model, lambda: total_loss_grad(groups, out, temperature))
    assert got[0] == expected[0]
    assert np.array_equal(got[1], expected[1])
    assert np.array_equal(got[2], expected[2])
    assert got[3] == expected[3]
    # the oracle also back-propagates all-zero terms that the groups skip
    if dprobs is None or got_dprobs is None:
        assert not np.any(dprobs) and not np.any(got_dprobs)
    else:
        assert np.array_equal(got_dprobs, dprobs)


@pytest.mark.parametrize("seed", range(5))
def test_grouped_gradient_sums_in_rule_order(seed):
    """Rules of every group pull on score_a at the same positions, so each
    d loss / d probs cell sums many terms, which only the oracle's order of
    addition reproduces to the last bit. Each rule alone is checked too: its
    loss is then its own mean or surrogate, not rounded into a sum."""
    rng = np.random.default_rng(seed)
    ds, model = differential_setup(rng, 16, 3.0)
    out = forward_batch(model, model.feature_matrix(ds), rng.choice(16, size=64, replace=True))
    flag, not_flag = (Literal("flag"),), (Literal("flag", True),)
    conditional = [AbstractRule(kind="conditional", statistic=stat, guard=guard)
                   for stat in ("score_a", "mean(score_a)", "std(score_a)")
                   for guard in (None, "a", "b")]
    logic = [AbstractRule(kind="logic", statistic="f1", literals=lits, consequent="a")
             for lits in (flag, not_flag, flag + not_flag)]
    rules = [ConcreteRule(rule=rule, lo=float(lo), hi=float(lo + 0.05), delta=0.02)
             for rule, lo in zip(conditional + logic, rng.uniform(0.3, 0.9, 12))]
    for subset in [rules] + [[rule] for rule in rules]:
        expected = oracle_loss_grad(subset, ds, out, 0.5)
        got = total_loss_grad(RuleGroups(subset, model, ds), out, 0.5)
        assert got[0] == expected[0] and got[3] == expected[3]
        assert got[1].tolist() == expected[1].tolist()
        assert got[2].tolist() == expected[2].tolist()


def test_grouped_loss_at_a_subnormal_score():
    """score_b of row 0 is 5e-324, where T s (1 - s) and c (1 - c) are both 0
    at T = 0.5. d soft / d score is 0 there, its limit, so the groups, which
    soften whole score columns, neither warn at a position no rule uses nor
    put a NaN into the gradient at a position a rule uses."""
    ds = make_dataset({"x0": (NUMERIC, [372.2, 0.3, -0.4]), "x1": (NUMERIC, [0.0] * 3),
                       "flag": (BOOLEAN, [1.0, 1.0, 0.0]),
                       "flag2": (BOOLEAN, [1.0, 1.0, 0.0])},
                      missing={"flag": np.array([True, False, False])})
    model = SoftmaxModel(["x0", "x1"], ["a", "b"], np.ones(2), np.zeros(2),
                         np.array([[1.0, -1.0], [0.0, 0.0]]), np.zeros(2))
    out = forward_batch(model, model.feature_matrix(ds), np.arange(3))
    assert out.probs[0, 1] == 5e-324
    rule = ConcreteRule(rule=AbstractRule(kind="logic", sided="lower", statistic="f1",
                                          literals=(Literal("flag"),), consequent="b"),
                        lo=0.9, hi=INF, delta=0.02)
    unused = loss_grad([rule], ds, out, 0.5)  # row 0 lacks the literal cell
    expected = oracle_loss_grad([rule], ds, out, 0.5)
    assert unused[0] == expected[0] and unused[3] == expected[3]
    assert unused[1].tolist() == expected[1].tolist()
    assert np.isfinite(unused[1]).all() and unused[1].any()
    used = ConcreteRule(rule=AbstractRule(kind="logic", sided="lower", statistic="f1",
                                          literals=(Literal("flag2"),), consequent="b"),
                        lo=0.9, hi=INF, delta=0.02)
    expected = oracle_loss_grad([used], ds, out, 0.5)
    got = loss_grad([used], ds, out, 0.5)
    assert got[0] == expected[0] and got[3] == expected[3]
    assert got[1].tolist() == expected[1].tolist()
    assert got[2].tolist() == expected[2].tolist()
    assert np.isfinite(got[1]).all() and np.isfinite(got[2]).all()


def test_one_mask_and_two_hinges_per_batch():
    """On a batch that violates a per-sample, a summary and a logic rule, the
    loss takes one applies mask for the statistic rules and two hinge calls:
    one over the per-sample values, one over every batch-level value outside
    its bounds. The result is the per-rule oracle's."""
    rng = np.random.default_rng(3)
    ds, model = differential_setup(rng, 16, 3.0)
    out = forward_batch(model, model.feature_matrix(ds), rng.choice(16, size=32, replace=True))
    rules = [ConcreteRule(rule=rule, lo=1.2, hi=1.5, delta=0.02) for rule in (
        AbstractRule(kind="conditional", statistic="score_a"),
        AbstractRule(kind="conditional", statistic="mean(score_b)", guard="a"),
        AbstractRule(kind="logic", statistic="f1", literals=(Literal("flag"),),
                     consequent="b"))]
    for rule in rules:  # each rule alone is violated on the batch
        assert oracle_loss_grad([rule], ds, out)[3] > 0
    groups = RuleGroups(rules, model, ds)
    calls = {"hinge": 0, "applies": 0}

    def counted(name):
        original = getattr(adaptation, name)

        def call(*args):
            calls[name] += 1
            return original(*args)
        return call

    with mock.patch.object(adaptation, "hinge", counted("hinge")), \
            mock.patch.object(adaptation, "applies", counted("applies")):
        got = total_loss_grad(groups, out)
    assert calls == {"hinge": 2, "applies": 1}
    expected = oracle_loss_grad(rules, ds, out)
    assert got[0] == expected[0] and got[3] == expected[3]
    assert got[1].tolist() == expected[1].tolist()
    assert got[2].tolist() == expected[2].tolist()


@pytest.mark.parametrize("rule, reason", [
    (AbstractRule(kind="conditional", statistic="zz"), "unknown statistic 'zz'"),
    (AbstractRule(kind="conditional", statistic="f1"), "no per-minibatch evaluator"),
    (AbstractRule(kind="logic", statistic="f1", literals=(Literal("zz"),), consequent="a"),
     "column 'zz' not present"),
    (AbstractRule(kind="logic", statistic="f1", literals=(Literal("v"),), consequent="a"),
     "non-boolean column"),
    (AbstractRule(kind="logic", statistic="f1", literals=(Literal("flag"),), consequent="q"),
     "consequent 'q' is not a model class"),
    (AbstractRule(kind="paired", statistic="v", s1="mean(v)", s1_bucket=0,
                  s1_bucket_count=2), "'mean(v)' is not per-sample"),
    # a rule's consequent is checked first, then its literals in rule order
    (AbstractRule(kind="logic", statistic="f1", consequent="q",
                  literals=(Literal("flag"), Literal("zz"))), "consequent 'q' is not"),
    (AbstractRule(kind="logic", statistic="f1", consequent="a",
                  literals=(Literal("flag"), Literal("v"), Literal("zz"))), "non-boolean"),
], ids=["statistic", "formula", "column", "non-boolean", "consequent", "s1",
        "consequent-first", "first-literal"])
def test_unevaluable_rule_fails_when_grouped(rule, reason):
    ds, model = tiny_setup()
    s1 = (0.0, 1.0) if rule.kind == "paired" else (None, None)
    crule = ConcreteRule(rule=rule, lo=0.0, hi=1.0, delta=0.02, s1_lo=s1[0], s1_hi=s1[1])
    with pytest.raises(ResolutionError, match=f"rule {re.escape(crule.signature)}: .*"
                                              + re.escape(reason)):
        RuleGroups([data_rule(0.0, 1.0), crule], model, ds)


@pytest.mark.parametrize("column", ["pred", "score_a"])
def test_model_output_column_in_table_is_rejected(column):
    ds, model = tiny_setup()
    cells = np.full(16, "a") if column == "pred" else np.zeros(16)
    ds = ds.with_columns([(column, LABEL if column == "pred" else NUMERIC, cells)])
    ds.origin = "test.csv"
    rule = data_rule(-10.0, -5.0)
    with pytest.raises(ValueError, match=f"test.csv: .*{column!r}"):
        RuleGroups([rule], model, ds)
    with pytest.raises(ValueError, match=column):
        grad_check(model, [rule], ds, np.arange(4))
    with pytest.raises(ValueError, match=column):
        adapt(model, [rule], ds, AdaptationConfig(iterations=1, batch_size=4))


# -- gradient checks ------------------------------------------------------------------

def mean_score_rule(lo, hi, sided="two", cls="b"):
    return ConcreteRule(rule=AbstractRule(kind="conditional", sided=sided,
                                          statistic=f"mean(score_{cls})"),
                        lo=lo, hi=hi, delta=0.02)


def test_grad_check_quadratic_region():
    ds, model = tiny_setup(n=24, seed=2)
    out = forward_batch(model, model.feature_matrix(ds), np.arange(24))
    phi = float(out.probs[:, 1].mean())
    rule = mean_score_rule(phi + 0.05, phi + 0.3)  # violated below lower bound
    err = grad_check(model, [rule], ds, np.arange(24), step=1e-5)
    assert err <= 1e-4


def test_grad_check_linear_one_sided_region():
    ds, model = tiny_setup(n=24, seed=3)
    out = forward_batch(model, model.feature_matrix(ds), np.arange(24))
    phi = float(out.probs[:, 1].mean())
    rule = mean_score_rule(phi + 0.2, INF, sided="lower")
    err = grad_check(model, [rule], ds, np.arange(24), step=1e-5)
    assert err <= 1e-5


def test_grad_check_surrogate_f1_rule():
    ds, model = tiny_setup(n=40, seed=4)
    out = forward_batch(model, model.feature_matrix(ds), np.arange(40))
    from quantrules.statistics import literal_cells
    from scalar_oracle import surrogate_f1_grad
    ante, _ = literal_cells(Literal("flag"), batch_table(ds, out), np.arange(40))
    phi = surrogate_f1_grad(ante, out.probs[:, 1], 1.0)[0]
    rule = ConcreteRule(
        rule=AbstractRule(kind="logic", statistic="f1", consequent="b",
                          literals=(Literal("flag"),)),
        lo=phi + 0.1, hi=phi + 0.4, delta=0.02)
    err = grad_check(model, [rule], ds, np.arange(40), step=1e-5)
    assert err <= 1e-4


def test_grad_check_flat_at_clip_plateau():
    ds, model = tiny_setup(n=24, seed=5)
    out = forward_batch(model, model.feature_matrix(ds), np.arange(24))
    phi = float(out.probs[:, 1].mean())
    rule = mean_score_rule(phi + 2.0, phi + 3.0)  # loss pinned at the clip
    assert loss_grad([rule], ds, out)[0] == 1.0
    err = grad_check(model, [rule], ds, np.arange(24), step=1e-5)
    assert err == 0.0


def test_grad_check_per_sample_score_rule():
    ds, model = tiny_setup(n=24, seed=6)
    out = forward_batch(model, model.feature_matrix(ds), np.arange(24))
    top = float(out.probs[:, 1].max())
    rule = ConcreteRule(rule=AbstractRule(kind="conditional", statistic="score_b"),
                        lo=top + 0.05, hi=top + 0.35, delta=0.02)
    err = grad_check(model, [rule], ds, np.arange(24), step=1e-5)
    assert err <= 1e-4


def test_grad_check_requires_positive_loss():
    ds, model = tiny_setup()
    with pytest.raises(ValueError, match="positive"):
        grad_check(model, [data_rule(-10.0, 10.0)], ds, np.arange(16))
    with pytest.raises(ValueError, match="step"):
        grad_check(model, [data_rule(-10.0, 10.0)], ds, np.arange(16), step=0.5)
    with pytest.raises(ValueError, match="out of range"):
        grad_check(model, [data_rule(-10.0, 10.0)], ds, [0, 16])
    with pytest.raises(ValueError, match="nonempty"):
        grad_check(model, [data_rule(-10.0, 10.0)], ds, [])


# -- adapt loop ---------------------------------------------------------------------

def test_adapt_zero_loss_leaves_parameters_unchanged():
    ds, model = tiny_setup()
    rules = [data_rule(-100.0, 100.0)]
    adapted, trace = adapt(model, rules, ds,
                           AdaptationConfig(iterations=5, batch_size=8, seed=0))
    assert np.array_equal(adapted.scale, model.scale)
    assert np.array_equal(adapted.shift, model.shift)
    assert all(row.loss == 0.0 and row.update_norm == 0.0 for row in trace)


def test_adapt_zero_learning_rate_records_losses():
    ds, model = tiny_setup()
    out = forward_batch(model, model.feature_matrix(ds), np.arange(16))
    phi = float(out.probs[:, 1].mean())
    rules = [mean_score_rule(phi + 0.1, phi + 0.4)]
    adapted, trace = adapt(model, rules, ds,
                           AdaptationConfig(iterations=5, batch_size=16,
                                            learning_rate=0.0, seed=0))
    assert np.array_equal(adapted.scale, model.scale)
    assert any(row.loss > 0.0 for row in trace)
    assert all(row.update_norm == 0.0 for row in trace)


def test_adapt_preserves_frozen_parameters_and_reduces_loss():
    ds, model = tiny_setup(n=64, seed=9, spread=3.0)
    out = forward_batch(model, model.feature_matrix(ds), np.arange(64))
    phi = float(out.probs[:, 1].mean())
    rules = [mean_score_rule(phi + 0.05, phi + 0.15)]
    adapted, trace = adapt(model, rules, ds,
                           AdaptationConfig(iterations=300, batch_size=64,
                                            learning_rate=0.05, seed=1))
    assert adapted.frozen_checksum() == model.frozen_checksum()
    assert not np.array_equal(adapted.scale, model.scale)
    assert trace[-1].loss < trace[0].loss


def test_adapt_is_deterministic():
    ds, model = tiny_setup(n=32, seed=10)
    out = forward_batch(model, model.feature_matrix(ds), np.arange(32))
    phi = float(out.probs[:, 1].mean())
    rules = [mean_score_rule(phi + 0.05, phi + 0.3)]
    cfg = AdaptationConfig(iterations=50, batch_size=16, learning_rate=0.02, seed=3)
    a1, t1 = adapt(model, rules, ds, cfg)
    a2, t2 = adapt(model, rules, ds, cfg)
    assert t1 == t2
    assert np.array_equal(a1.scale, a2.scale)
    assert np.array_equal(a1.shift, a2.shift)


def test_adapt_divergence_keeps_partial_trace():
    rng = np.random.default_rng(11)
    ds = make_dataset({
        "x0": (NUMERIC, rng.uniform(1e120, 2e120, 8)),
        "x1": (NUMERIC, rng.uniform(-2e120, -1e120, 8)),
    })
    model = SoftmaxModel(["x0", "x1"], ["a", "b"], np.ones(2) * 1e-120, np.zeros(2),
                         np.array([[0.8, -0.8], [-0.5, 0.5]]), np.zeros(2))
    out = forward_batch(model, model.feature_matrix(ds), np.arange(8))
    phi = float(out.probs[:, 1].mean())
    rules = [mean_score_rule(phi + 0.1, phi + 0.3)]
    with pytest.raises(DivergenceError) as excinfo:
        adapt(model, rules, ds,
              AdaptationConfig(iterations=10, batch_size=8, learning_rate=1e300, seed=0))
    assert len(excinfo.value.trace) >= 1


def test_adapt_charges_a_point_box_the_clip(tmp_path):
    """A point box in a CSV table has aspect ratio 0 / 0 = NaN. ``evaluate``
    counts it as a violation, and the adaptation loss charges it the clip,
    so the loss stays finite and the run goes on."""
    path = write_csv(tmp_path / "boxes.csv", ["label", "x_min", "y_min", "x_max", "y_max"],
                     [["car", 0, 0, 1, 1], ["car", 2, 2, 2, 2], ["car", 0, 0, 1.5, 1]])
    test = load_table(path)
    model = SoftmaxModel(["x_min", "y_min"], ["car", "bus"], np.ones(2), np.zeros(2),
                         np.array([[0.3, -0.3], [-0.2, 0.2]]), np.zeros(2))
    rules = [data_rule(0.5, 2.0, column="aspect_ratio")]
    _, trace = adapt(model, rules, test, AdaptationConfig(iterations=3, batch_size=3))
    # each batch holds all three boxes: the point box pays 1, the others 0
    assert [(row.loss, row.batch_violations) for row in trace] == [(1 / 3, 1)] * 3
    assert evaluate(rules, test).total_violations == 1


def test_trace_csv_round_trip(tmp_path):
    ds, model = tiny_setup()
    adapted, trace = adapt(model, [data_rule(-10, 10)], ds,
                           AdaptationConfig(iterations=3, batch_size=4, seed=0))
    path = tmp_path / "trace.csv"
    write_trace(trace, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "iteration,loss,batch_violations,update_norm"
    assert len(lines) == 4


@pytest.mark.parametrize("field, value", [
    ("grad_clip", -1.0), ("grad_clip", 0.0), ("grad_clip", math.nan),
    ("learning_rate", math.nan), ("learning_rate", math.inf), ("learning_rate", -0.5),
    ("temperature", math.nan), ("temperature", math.inf), ("temperature", 0.0),
])
def test_adaptation_config_rejects_rates_out_of_range(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be a number"):
        AdaptationConfig(iterations=1, batch_size=1, **{field: value})


def test_adaptation_config_accepts_rates_in_range():
    config = AdaptationConfig(iterations=1, batch_size=1, learning_rate=0.0,
                              grad_clip=INF, temperature=1e-3)
    assert config.grad_clip == INF
    assert AdaptationConfig(iterations=1, batch_size=1, grad_clip=None).grad_clip is None


def test_iterations_for_epochs():
    assert iterations_for_epochs(60, 1000, 128) == 60 * 8
    assert iterations_for_epochs(1, 128, 128) == 1
