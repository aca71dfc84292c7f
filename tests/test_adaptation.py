import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_dataset
from quantrules.adaptation import (AdaptationConfig, adapt, forward_batch,
                                   grad_check, hinge, iterations_for_epochs,
                                   rule_loss, total_loss, total_loss_grad,
                                   write_trace)
from quantrules.dataset import BOOLEAN, NUMERIC, Minibatch
from quantrules.errors import DivergenceError
from quantrules.model import SoftmaxModel
from quantrules.schema import AbstractRule, ConcreteRule, Literal
from quantrules.violations import check_rule

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


def const_output(value):
    """Batch output whose data column v is a single constant value."""
    ds = make_dataset({"x0": (NUMERIC, [0.0]), "x1": (NUMERIC, [0.0]),
                       "v": (NUMERIC, [value])})
    model = SoftmaxModel(["x0", "x1"], ["a", "b"], np.ones(2), np.zeros(2),
                         np.zeros((2, 2)), np.zeros(2))
    return forward_batch(model, ds, [0])


# -- loss arithmetic -------------------------------------------------------------

def test_loss_zero_when_satisfied():
    out = const_output(0.5)
    assert rule_loss(data_rule(0.0, 1.0), out) == 0.0


def test_one_sided_linear_loss():
    # lower bound 2, value 1.5 -> min{2 - 1.5, 1} = 0.5
    out = const_output(1.5)
    assert rule_loss(data_rule(2.0, INF, sided="lower"), out) == 0.5


def test_two_sided_quadratic_loss():
    # bounds [0, 1], value 1.5 -> min{(0 - 1.5)(1 - 1.5), 1} = 0.75
    out = const_output(1.5)
    assert rule_loss(data_rule(0.0, 1.0), out) == 0.75


def test_loss_clips_at_one():
    out = const_output(100.0)
    assert rule_loss(data_rule(0.0, 1.0), out) == 1.0
    assert rule_loss(data_rule(200.0, INF, sided="lower"), out) == 1.0


def test_total_loss_is_mean():
    out = const_output(1.5)
    half = data_rule(2.0, INF, sided="lower")   # loss 0.5
    ok = data_rule(0.0, 2.0)                    # loss 0
    assert total_loss([half, ok], out) == 0.25
    assert total_loss([half] * 7, out) == pytest.approx(0.5)


def test_total_loss_rejects_empty_rule_list():
    with pytest.raises(ValueError):
        total_loss([], const_output(0.5))


def test_hinge_slope_signs():
    loss, slope = hinge(1.5, 2.0, INF)
    assert (loss, slope) == (0.5, -1.0)
    loss, slope = hinge(3.0, -INF, 2.5)
    assert (loss, slope) == (0.5, 1.0)
    loss, slope = hinge(1.5, 0.0, 1.0)
    assert loss == 0.75 and slope == pytest.approx(2 * 1.5 - 0.0 - 1.0)
    assert hinge(0.5, 0.0, 1.0) == (0.0, 0.0)


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


def test_forward_batch_columns_equal_predict_columns():
    ds, model = tiny_setup(n=24, seed=4)
    rows = np.array([5, 0, 5, 23, 11])
    out = forward_batch(model, ds, rows)
    for name, kind, vals in model.predict_columns(ds.take(rows)):
        assert out.dataset.kind(name) == kind
        assert out.dataset.values(name).dtype == vals.dtype
        assert out.dataset.values(name).tolist() == vals.tolist()


def test_loss_zero_iff_check_satisfied_randomized():
    rng = np.random.default_rng(7)
    ds, model = tiny_setup(n=32, seed=1)
    out = forward_batch(model, ds, np.arange(32))
    batch = Minibatch(out.dataset, np.arange(32))
    for _ in range(200):
        lo = rng.uniform(-0.5, 1.0)
        hi = lo + rng.uniform(0.05, 1.0)
        rule = data_rule(lo, hi)
        loss = rule_loss(rule, out)
        result = check_rule(rule, batch, label_column="pred")
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


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 40),
       st.floats(-0.5, 1.0), st.floats(0.0, 1.0),
       st.floats(-1.0, 0.5), st.floats(0.0, 1.0))
def test_in_pass_violations_match_check_rule_recount(seed, size, lo, width, s1_lo, s1_width):
    rng = np.random.default_rng(seed)
    n = 12
    ds = make_dataset({
        "x0": (NUMERIC, rng.normal(0, 1, n)),
        "x1": (NUMERIC, rng.normal(0, 1, n)),
        "flag": (BOOLEAN, (rng.random(n) < 0.5).astype(float)),
        "v": (NUMERIC, rng.uniform(-1, 1, n)),
    }, missing={"flag": rng.random(n) < 0.2, "v": rng.random(n) < 0.3})
    model = SoftmaxModel(["x0", "x1"], ["a", "b"], np.ones(2), np.zeros(2),
                         rng.normal(0, 1, (2, 2)), rng.normal(0, 0.1, 2))
    rows = rng.choice(n, size=size, replace=True)  # rows may repeat
    out = forward_batch(model, ds, rows)
    rules = recount_rules(lo, lo + width, s1_lo, s1_lo + s1_width)
    _, _, _, violations = total_loss_grad(rules, out)

    recount = 0
    for crule in rules:
        if crule.rule.statistic in PER_SAMPLE_STATS:
            for i in range(size):
                one = check_rule(crule, Minibatch(out.dataset, [i]), label_column="pred")
                recount += one.evaluated and one.violated
        else:
            whole = check_rule(crule, Minibatch(out.dataset, np.arange(size)),
                               label_column="pred")
            recount += size if whole.evaluated and whole.violated else 0
    assert violations == recount


# -- gradient checks ------------------------------------------------------------------

def batch_of(ds, n):
    return Minibatch(ds, np.arange(n))


def mean_score_rule(lo, hi, sided="two", cls="b"):
    return ConcreteRule(rule=AbstractRule(kind="conditional", sided=sided,
                                          statistic=f"mean(score_{cls})"),
                        lo=lo, hi=hi, delta=0.02)


def test_grad_check_quadratic_region():
    ds, model = tiny_setup(n=24, seed=2)
    out = forward_batch(model, ds, np.arange(24))
    phi = float(out.probs[:, 1].mean())
    rule = mean_score_rule(phi + 0.05, phi + 0.3)  # violated below lower bound
    err = grad_check(model, [rule], batch_of(ds, 24), step=1e-5)
    assert err <= 1e-4


def test_grad_check_linear_one_sided_region():
    ds, model = tiny_setup(n=24, seed=3)
    out = forward_batch(model, ds, np.arange(24))
    phi = float(out.probs[:, 1].mean())
    rule = mean_score_rule(phi + 0.2, INF, sided="lower")
    err = grad_check(model, [rule], batch_of(ds, 24), step=1e-5)
    assert err <= 1e-5


def test_grad_check_surrogate_f1_rule():
    ds, model = tiny_setup(n=40, seed=4)
    out = forward_batch(model, ds, np.arange(40))
    from quantrules.statistics import surrogate_f1, antecedent_values
    ante, _ = antecedent_values(
        AbstractRule(kind="logic", statistic="f1", consequent="b",
                     literals=(Literal("flag"),)), out.dataset, np.arange(40))
    phi = surrogate_f1(ante, out.probs[:, 1], 1.0)
    rule = ConcreteRule(
        rule=AbstractRule(kind="logic", statistic="f1", consequent="b",
                          literals=(Literal("flag"),)),
        lo=phi + 0.1, hi=phi + 0.4, delta=0.02)
    err = grad_check(model, [rule], batch_of(ds, 40), step=1e-5)
    assert err <= 1e-4


def test_grad_check_flat_at_clip_plateau():
    ds, model = tiny_setup(n=24, seed=5)
    out = forward_batch(model, ds, np.arange(24))
    phi = float(out.probs[:, 1].mean())
    rule = mean_score_rule(phi + 2.0, phi + 3.0)  # loss pinned at the clip
    assert total_loss([rule], out) == 1.0
    err = grad_check(model, [rule], batch_of(ds, 24), step=1e-5)
    assert err == 0.0


def test_grad_check_per_sample_score_rule():
    ds, model = tiny_setup(n=24, seed=6)
    out = forward_batch(model, ds, np.arange(24))
    top = float(out.probs[:, 1].max())
    rule = ConcreteRule(rule=AbstractRule(kind="conditional", statistic="score_b"),
                        lo=top + 0.05, hi=top + 0.35, delta=0.02)
    err = grad_check(model, [rule], batch_of(ds, 24), step=1e-5)
    assert err <= 1e-4


def test_grad_check_requires_positive_loss():
    ds, model = tiny_setup()
    with pytest.raises(ValueError, match="positive"):
        grad_check(model, [data_rule(-10.0, 10.0)], batch_of(ds, 16))
    with pytest.raises(ValueError, match="step"):
        grad_check(model, [data_rule(-10.0, 10.0)], batch_of(ds, 16), step=0.5)


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
    out = forward_batch(model, ds, np.arange(16))
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
    out = forward_batch(model, ds, np.arange(64))
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
    out = forward_batch(model, ds, np.arange(32))
    phi = float(out.probs[:, 1].mean())
    rules = [mean_score_rule(phi + 0.05, phi + 0.3)]
    cfg = AdaptationConfig(iterations=50, batch_size=16, learning_rate=0.02, seed=3)
    a1, t1 = adapt(model, rules, ds, cfg)
    a2, t2 = adapt(model, rules, ds, cfg)
    assert t1 == t2
    assert np.array_equal(a1.scale, a2.scale)
    assert np.array_equal(a1.shift, a2.shift)


def test_adapt_rejects_precomputed_model_columns():
    ds, model = tiny_setup()
    ds = ds.with_columns([("score_a", "numeric", np.zeros(16))])
    with pytest.raises(ValueError, match="score_a"):
        adapt(model, [data_rule(0, 1)], ds, AdaptationConfig(iterations=1, batch_size=4))


def test_adapt_divergence_keeps_partial_trace():
    rng = np.random.default_rng(11)
    ds = make_dataset({
        "x0": (NUMERIC, rng.uniform(1e120, 2e120, 8)),
        "x1": (NUMERIC, rng.uniform(-2e120, -1e120, 8)),
    })
    model = SoftmaxModel(["x0", "x1"], ["a", "b"], np.ones(2) * 1e-120, np.zeros(2),
                         np.array([[0.8, -0.8], [-0.5, 0.5]]), np.zeros(2))
    out = forward_batch(model, ds, np.arange(8))
    phi = float(out.probs[:, 1].mean())
    rules = [mean_score_rule(phi + 0.1, phi + 0.3)]
    with pytest.raises(DivergenceError) as excinfo:
        adapt(model, rules, ds,
              AdaptationConfig(iterations=10, batch_size=8, learning_rate=1e300, seed=0))
    assert len(excinfo.value.trace) >= 1


def test_trace_csv_round_trip(tmp_path):
    ds, model = tiny_setup()
    adapted, trace = adapt(model, [data_rule(-10, 10)], ds,
                           AdaptationConfig(iterations=3, batch_size=4, seed=0))
    path = tmp_path / "trace.csv"
    write_trace(trace, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "iteration,loss,batch_violations,update_norm"
    assert len(lines) == 4


def test_iterations_for_epochs():
    assert iterations_for_epochs(60, 1000, 128) == 60 * 8
    assert iterations_for_epochs(1, 128, 128) == 1
