import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_dataset
from quantrules import bounds
from quantrules.bounds import (BoundJob, Interval, interval_rows, jaccard_rows,
                               learn_and_select, quantile_levels)
from quantrules.dataset import LABEL, NUMERIC, sample_minibatches, sorted_percentiles
from quantrules.errors import EmptyStatisticError
from quantrules.schema import AbstractRule, parse_schema, enumerate_abstract_rules
from scalar_oracle import compute_bounds, interval_from_values, jaccard, percentile

finite_floats = st.floats(-1e9, 1e9, allow_nan=False, allow_infinity=False)


# -- percentile -------------------------------------------------------------------

def test_percentile_98_of_1_to_100():
    # hand-derived interpolation: h = 0.98 * 99 = 97.02, between 98 and 99
    hand = 98.0 + (0.98 * 99 - 97) * (99.0 - 98.0)
    got = percentile(range(1, 101), 0.98)
    assert got == hand
    assert got == pytest.approx(98.02, abs=1e-12)


def test_percentile_median_of_three():
    assert percentile([3, 1, 2], 0.5) == 2.0


def test_percentile_constant_list():
    for q in (0.0, 0.3, 1.0):
        assert percentile([7, 7, 7], q) == 7.0


def test_percentile_extremes_are_min_max():
    vals = [5, -2, 9, 4]
    assert percentile(vals, 0.0) == -2.0
    assert percentile(vals, 1.0) == 9.0


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1.0, float("nan")], 0.5)
    with pytest.raises(ValueError):
        percentile([1.0], 1.5)


@settings(max_examples=100)
@given(st.lists(finite_floats, min_size=1, max_size=50),
       st.floats(0, 1), st.floats(0, 1))
def test_percentile_monotone_in_q(values, q1, q2):
    lo, hi = min(q1, q2), max(q1, q2)
    assert percentile(values, lo) <= percentile(values, hi)


@settings(max_examples=100)
@given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=40),
       st.floats(0, 1), st.floats(0.01, 10), st.floats(-100, 100))
def test_percentile_affine_equivariance(values, q, a, b):
    direct = percentile([a * v + b for v in values], q)
    mapped = a * percentile(values, q) + b
    assert direct == pytest.approx(mapped, rel=1e-9, abs=1e-9)


@settings(max_examples=100)
@given(st.lists(finite_floats, min_size=1, max_size=60), st.floats(0, 1))
@example(values=[0.0, -16777217.0], q=0.9999999999999999)
def test_percentile_agrees_with_numpy(values, q):
    """Exactly the documented formula, and numpy's linear percentile within
    a few ulps of max|v|: numpy rounds its interpolation differently, so a
    fixed absolute tolerance fails at large |v| (the example). np.quantile
    takes q as is; np.percentile(v, 100 * q) would divide by 100 again and
    move the rank h by up to n - 1 ulps."""
    v = sorted(values)
    h = q * (len(v) - 1)
    i = math.floor(h)
    formula = v[-1] if i + 1 >= len(v) else v[i] + (h - i) * (v[i + 1] - v[i])
    ours = percentile(values, q)
    assert ours == formula
    ref = float(np.quantile(np.asarray(values), q))
    assert abs(ours - ref) <= 4 * np.spacing(max(abs(x) for x in values))


# -- the array kernels against the single-rule functions ------------------------------

# ties, both zeros and tiny and huge magnitudes, among any finite float
row_values = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 3.0, 5e-324, 1e300, -1e300]) \
    | finite_floats
levels = st.sampled_from([0.0, 1.0, 0.5, 0.01, 0.99, 0.9999999999999999]) | st.floats(0, 1)


def value_matrix(max_rows):
    """Up to ``max_rows`` unsorted rows of one length, 1 value or more."""
    return st.integers(1, 9).flatmap(lambda n: st.lists(
        st.lists(row_values, min_size=n, max_size=n), min_size=1, max_size=max_rows))


@settings(max_examples=300)
@given(value_matrix(5), levels)
@example(values=[[0.0, -0.0, 0.0], [-0.0, 0.0, -0.0]], q=1.0)
@example(values=[[-0.0], [0.0]], q=0.5)
@example(values=[[0.0, -16777217.0]], q=0.9999999999999999)
def test_sorted_percentiles_match_percentile(values, q):
    got = sorted_percentiles(np.sort(np.array(values), axis=1), q)
    assert [float(x).hex() for x in got] == [percentile(row, q).hex() for row in values]


@settings(max_examples=300)
@given(value_matrix(5), st.sampled_from([0.0, 0.02, 0.1, 0.5, 1.0]) | st.floats(0, 1),
       st.sampled_from(["two", "lower", "upper"]))
@example(values=[[-0.0, 0.0, 2.0], [7.0, 7.0, 7.0]], delta=0.0, sided="two")
def test_interval_rows_match_interval_from_values(values, delta, sided):
    lo, hi = interval_rows(np.sort(np.array(values), axis=1), quantile_levels(delta, sided))
    want = [interval_from_values(row, delta, sided) for row in values]
    assert [float(x).hex() for x in lo] == [iv.lo.hex() for iv in want]
    assert [float(x).hex() for x in hi] == [iv.hi.hex() for iv in want]


@pytest.mark.parametrize("delta", [3.0, 1.0, 0.0, -0.1, math.nan])
def test_delta_outside_its_range_is_rejected(delta):
    """A job's delta lies in (0, 1), as the schema's quantile = 1 - delta
    does; a quantile level can only be taken for a delta in [0, 1]."""
    with pytest.raises(ValueError, match=r"delta must lie in \(0, 1\)"):
        BoundJob(delta=delta)
    if not 0.0 <= delta <= 1.0:
        with pytest.raises(ValueError, match=r"delta must lie in \[0, 1\]"):
            quantile_levels(delta, "two")
        with pytest.raises(ValueError, match=r"delta must lie in \[0, 1\]"):
            interval_from_values([1.0, math.nan], delta, "lower")


def test_quantile_levels_reject_unknown_sidedness():
    with pytest.raises(ValueError, match="unknown sidedness 'both'"):
        quantile_levels(0.02, "both")
    with pytest.raises(ValueError, match="unknown sidedness 'both'"):
        interval_from_values([1.0], 0.02, "both")


ends = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]) | finite_floats


@st.composite
def interval_pairs(draw):
    """A train and a valid interval of one sidedness, with infinite ends on
    the open side, and a finite statistic range."""
    sided = draw(st.sampled_from(["two", "lower", "upper"]))

    def interval():
        a, b = sorted([draw(ends), draw(ends)])
        return Interval(*{"two": (a, b), "lower": (a, INF), "upper": (-INF, b)}[sided])

    return interval(), interval(), Interval(*sorted([draw(ends), draw(ends)]))


INF = float("inf")


@settings(max_examples=300)
@given(st.lists(interval_pairs(), min_size=1, max_size=6))
@example(pairs=[(Interval(2.0, 2.0), Interval(2.0, 2.0), Interval(-1.0, 1.0)),
                (Interval(-0.0, 0.0), Interval(0.0, -0.0), Interval(0.0, 0.0)),
                (Interval(-INF, -0.0), Interval(-INF, -0.0), Interval(0.0, 1.0)),
                (Interval(-INF, -0.0), Interval(-INF, 0.0), Interval(-0.0, 1.0)),
                (Interval(0.0, INF), Interval(1.0, INF), Interval(-1.0, 3.0)),
                (Interval(0.0, 1.0), Interval(2.0, 3.0), Interval(0.0, 3.0)),
                (Interval(0.0, 5.0), Interval(-1.0, -0.0), Interval(-1.0, 5.0))])
def test_jaccard_rows_match_jaccard(pairs):
    """Point intervals give union <= 0; open ends resolve to the range widened
    by the finite ends; ties of -0.0 and 0.0 keep jaccard's signs of zero (the
    last example scores -0.0)."""
    columns = [np.array([getattr(iv, end) for iv in ivs])
               for ivs in zip(*pairs) for end in ("lo", "hi")]
    t_lo, t_hi, v_lo, v_hi, range_lo, range_hi = columns
    got = jaccard_rows(t_lo, t_hi, v_lo, v_hi, range_lo, range_hi)
    assert [float(x).hex() for x in got] == [jaccard(*pair).hex() for pair in pairs]


# -- compute_bounds -----------------------------------------------------------------

def uniform_dataset(n):
    return make_dataset({"v": (NUMERIC, np.arange(1.0, n + 1.0))})


def identity_rule(**kw):
    return AbstractRule(kind="conditional", statistic="v", **kw)


def full_batch(ds):
    return np.arange(ds.n_rows)[None, :]


def test_two_sided_bounds_on_uniform_1_to_1000():
    # oracle: percentiles at 0.01 and 0.99 of sorted 1..1000
    ds = uniform_dataset(1000)
    iv = compute_bounds(identity_rule(), ds, full_batch(ds), delta=0.02, sided="two")
    assert iv.lo == pytest.approx(10.99, abs=1e-9)
    assert iv.hi == pytest.approx(990.01, abs=1e-9)


def test_constant_statistic_degenerate_interval():
    ds = make_dataset({"v": (NUMERIC, np.full(10, 3.25))})
    iv = compute_bounds(identity_rule(), ds, full_batch(ds))
    assert (iv.lo, iv.hi) == (3.25, 3.25)


def test_delta_zero_limit_is_min_max():
    ds = uniform_dataset(50)
    iv = compute_bounds(identity_rule(), ds, full_batch(ds), delta=0.0, sided="two")
    assert (iv.lo, iv.hi) == (1.0, 50.0)


def test_one_sided_bounds():
    ds = uniform_dataset(100)
    lo_iv = compute_bounds(identity_rule(sided="lower"), ds, full_batch(ds), delta=0.02)
    hi_iv = compute_bounds(identity_rule(sided="upper"), ds, full_batch(ds), delta=0.02)
    assert lo_iv.lo == pytest.approx(2.98)
    assert lo_iv.hi == float("inf")
    assert hi_iv.lo == float("-inf")
    assert hi_iv.hi == pytest.approx(98.02)


def test_empty_statistics_error_names_rule():
    ds = make_dataset({"v": (NUMERIC, [0.0, 0.0])}, missing={"v": [True, True]})
    with pytest.raises(EmptyStatisticError, match="phi=v"):
        compute_bounds(identity_rule(), ds, full_batch(ds))


def test_guarded_bounds_use_only_guard_rows():
    ds = make_dataset({
        "v": (NUMERIC, np.array([1.0, 2.0, 3.0, 100.0, 200.0, 300.0])),
        "y": (LABEL, np.array(["a", "a", "a", "b", "b", "b"], dtype=object)),
    })
    iv = compute_bounds(identity_rule(guard="a"), ds, full_batch(ds),
                        delta=0.0, sided="two", label_column="y")
    assert (iv.lo, iv.hi) == (1.0, 3.0)


@pytest.mark.parametrize("rows", [[[0, 7]], [[-1, 0]], np.zeros((1, 0), dtype=int)],
                         ids=["past-end", "negative", "empty"])
def test_compute_bounds_validates_rows(rows):
    ds = uniform_dataset(4)
    with pytest.raises(ValueError, match="out of range|nonempty"):
        compute_bounds(identity_rule(), ds, rows)


@settings(max_examples=60)
@given(st.lists(st.floats(-1e6, 1e6), min_size=10, max_size=400),
       st.sampled_from([0.02, 0.1, 0.3]))
def test_two_sided_validity_by_construction(values, delta):
    # at least 1 - delta - 2/n of the values fall inside the learned interval
    iv = interval_from_values(np.asarray(values), delta, "two")
    inside = np.mean([(iv.lo <= v <= iv.hi) for v in values])
    assert inside >= 1.0 - delta - 2.0 / len(values) - 1e-12


# -- jaccard ---------------------------------------------------------------------

RANGE = Interval(-10.0, 10.0)


def test_jaccard_identical_intervals():
    assert jaccard(Interval(1.0, 4.0), Interval(1.0, 4.0), RANGE) == 1.0


def test_jaccard_overlap_formula():
    assert jaccard(Interval(0.0, 2.0), Interval(1.0, 3.0), RANGE) == pytest.approx(1 / 3, abs=1e-12)


def test_jaccard_disjoint_clamps_to_zero():
    # raw Appendix-style formula would give a negative value here
    assert jaccard(Interval(0.0, 1.0), Interval(2.0, 3.0), RANGE) == 0.0


def test_jaccard_identical_points():
    assert jaccard(Interval(2.0, 2.0), Interval(2.0, 2.0), RANGE) == 1.0


def test_jaccard_resolves_one_sided_with_data_range():
    one_sided = Interval(0.5, float("inf"))
    other = Interval(0.0, float("inf"))
    # both upper bounds resolve to the range maximum 10
    expected = (10.0 - 0.5) / (10.0 - 0.0)
    assert jaccard(one_sided, other, RANGE) == pytest.approx(expected, abs=1e-12)


def test_jaccard_requires_finite_range():
    with pytest.raises(ValueError):
        jaccard(Interval(0, 1), Interval(0, 1), Interval(0, float("inf")))


@settings(max_examples=100)
@given(st.tuples(finite_floats, finite_floats), st.tuples(finite_floats, finite_floats))
def test_jaccard_symmetric_and_bounded(p1, p2):
    a = Interval(min(p1), max(p1))
    b = Interval(min(p2), max(p2))
    lo = min(a.lo, b.lo) - 1.0
    hi = max(a.hi, b.hi) + 1.0
    rng = Interval(lo, hi)
    ab = jaccard(a, b, rng)
    assert 0.0 <= ab <= 1.0
    assert ab == jaccard(b, a, rng)


# -- learn_and_select ----------------------------------------------------------------

def gaussian_dataset(n, seed, shift=0.0):
    rng = np.random.default_rng(seed)
    return make_dataset({
        "x0": (NUMERIC, rng.normal(0, 1, n) + shift),
        "x1": (NUMERIC, rng.normal(5, 2, n) + shift * 2),
        "y": (LABEL, np.where(rng.random(n) < 0.5, "a", "b").astype(object)),
    }, origin=f"gauss-{seed}")


SCHEMA = parse_schema("""
template conditional_statistic
labels: a b
statistics: x0 x1
quantile: 0.98
batch: 128
""")


def test_iid_rules_pass_selection():
    rules = enumerate_abstract_rules(SCHEMA)
    job = BoundJob(n_train_batches=60, n_valid_batches=30, train_seed=1, valid_seed=2)
    selected = learn_and_select(rules, gaussian_dataset(4000, 10),
                                gaussian_dataset(4000, 11), job, label_column="y")
    assert len(selected) >= 0.9 * len(rules)


def test_shifted_validation_rejects_rules():
    rules = enumerate_abstract_rules(SCHEMA)
    job = BoundJob(n_train_batches=60, n_valid_batches=30, train_seed=1, valid_seed=2)
    selected = learn_and_select(rules, gaussian_dataset(4000, 10),
                                gaussian_dataset(4000, 11, shift=10.0), job,
                                label_column="y")
    assert selected == []


def test_zero_rules_in_zero_out():
    job = BoundJob()
    assert learn_and_select([], gaussian_dataset(100, 0), gaussian_dataset(100, 1),
                            job, label_column="y") == []


def test_selection_deterministic():
    rules = enumerate_abstract_rules(SCHEMA)
    train, valid = gaussian_dataset(2000, 3), gaussian_dataset(2000, 4)
    job = BoundJob(n_train_batches=30, n_valid_batches=15, train_seed=5, valid_seed=6)
    runs = [learn_and_select(rules, train, valid, job, label_column="y")
            for _ in range(3)]
    baseline = [(c.signature, c.lo, c.hi) for c in runs[0]]
    for run in runs[1:]:
        assert [(c.signature, c.lo, c.hi) for c in run] == baseline


def test_skipped_rules_logged_not_raised():
    # guard class never occurs, so the rule collects no statistic values
    rules = [AbstractRule(kind="conditional", statistic="x0", guard="no_such_class")]
    train, valid = gaussian_dataset(500, 3), gaussian_dataset(500, 4)
    log = []
    out = learn_and_select(rules, train, valid, BoundJob(n_train_batches=5, n_valid_batches=5),
                           label_column="y", log=log)
    assert out == []
    assert log and log[0]["event"] == "skipped"


def test_selection_preserves_enumeration_order():
    rules = enumerate_abstract_rules(SCHEMA)
    train, valid = gaussian_dataset(3000, 7), gaussian_dataset(3000, 8)
    job = BoundJob(n_train_batches=40, n_valid_batches=20, train_seed=0, valid_seed=1)
    selected = learn_and_select(rules, train, valid, job, label_column="y")
    sigs = [c.signature for c in selected]
    order = {s: i for i, s in enumerate(r.statistic + str(r.guard) for r in rules)}
    enumerated = [c.rule.statistic + str(c.rule.guard) for c in selected]
    assert [order[s] for s in enumerated] == sorted(order[s] for s in enumerated)


PAIRED_SCHEMA = parse_schema("""
template paired_bucketed
labels: a b no_such_class
statistics: x0 x1
pair_buckets: 3
batch: 128
""")


def test_paired_edges_fitted_once_per_key(monkeypatch):
    rules = enumerate_abstract_rules(PAIRED_SCHEMA)
    train, valid = gaussian_dataset(2000, 3), gaussian_dataset(2000, 4)
    job = BoundJob(n_train_batches=20, n_valid_batches=10, train_seed=5, valid_seed=6)
    # reference: each rule selected on its own fits its own edges
    single, single_log = [], []
    for rule in rules:
        single += learn_and_select([rule], train, valid, job, label_column="y",
                                   log=single_log)
    fit, keys = bounds.s1_bucket_edges, []

    def counted(rule, *args):
        keys.append((rule.guard, rule.s1, rule.s1_bucket_count))
        return fit(rule, *args)

    monkeypatch.setattr(bounds, "s1_bucket_edges", counted)
    log = []
    selected = learn_and_select(rules, train, valid, job, label_column="y", log=log)
    assert len(rules) == 3 * 2 * 3 and len(keys) == len(set(keys)) == 3 * 2
    assert selected == single and any(c.rule.kind == "paired" for c in selected)
    assert log == single_log
    assert sum(e["event"] == "skipped" for e in log) == 2 * 3  # no_such_class rules


def bucket_dependent_batches():
    rng = np.random.default_rng(0)
    n = 4000
    s1 = rng.uniform(0, 1, n)
    s2 = 10.0 * (s1 > 0.5) + rng.normal(0, 0.1, n)  # s2 depends on s1's half
    ds = make_dataset({
        "s1": (NUMERIC, s1), "s2": (NUMERIC, s2),
        "y": (LABEL, np.array(["c"] * n, dtype=object)),
    }, origin="paired")
    return ds, sample_minibatches(ds, 512, 20, seed=9)


def test_paired_rule_bounds_respect_bucket():
    rule = AbstractRule(kind="paired", guard="c", statistic="s2", s1="s1",
                        s1_bucket=0, s1_bucket_count=2)
    iv = compute_bounds(rule, *bucket_dependent_batches(), delta=0.02, sided="two",
                        label_column="y")
    assert iv.hi < 5.0  # bucket 0 holds the low-branch values only


def test_paired_minibatch_statistic_bounds_respect_bucket():
    # mining reads the bucket's rows, as violation counting and adaptation do
    rule = AbstractRule(kind="paired", guard="c", statistic="mean(s2)", s1="s1",
                        s1_bucket=0, s1_bucket_count=2, batch_size=512)
    iv = compute_bounds(rule, *bucket_dependent_batches(), delta=0.02, sided="two",
                        label_column="y")
    assert iv.hi < 1.0
