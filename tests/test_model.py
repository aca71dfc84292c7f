import numpy as np
import pytest

from quantrules.model import SoftmaxModel


def separable_data(n=500, seed=0):
    rng = np.random.default_rng(seed)
    y = rng.random(n) < 0.5
    X = rng.normal(0, 1, (n, 3)) + np.where(y[:, None], 2.0, -2.0)
    return X, y.astype(int)


def test_forward_rows_sum_to_one():
    X, y = separable_data()
    model = SoftmaxModel.standardized(["a", "b", "c"], ["n", "p"], X)
    probs, _ = model.forward(X)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)
    assert probs.min() >= 0.0


def test_fit_learns_separable_problem():
    X, y = separable_data()
    model = SoftmaxModel.standardized(["a", "b", "c"], ["n", "p"], X)
    model.fit(X, y, learning_rate=0.5, iterations=200)
    probs, _ = model.forward(X)
    assert (probs.argmax(axis=1) == y).mean() > 0.97


def test_fit_only_touches_frozen_half():
    X, y = separable_data()
    model = SoftmaxModel.standardized(["a", "b", "c"], ["n", "p"], X)
    scale0, shift0 = model.scale.copy(), model.shift.copy()
    model.fit(X, y, iterations=50)
    assert np.array_equal(model.scale, scale0)
    assert np.array_equal(model.shift, shift0)


def test_checkpoint_round_trip_bit_exact(tmp_path):
    X, y = separable_data()
    model = SoftmaxModel.standardized(["a", "b", "c"], ["n", "p"], X)
    model.fit(X, y, iterations=37)
    path = tmp_path / "model.json"
    model.save(path)
    restored = SoftmaxModel.load(path)
    for attr in ("scale", "shift", "weights", "bias"):
        assert np.array_equal(getattr(restored, attr), getattr(model, attr)), attr
    assert restored.frozen_checksum() == model.frozen_checksum()
    assert restored.class_names == model.class_names


def test_copy_is_independent():
    X, y = separable_data()
    model = SoftmaxModel.standardized(["a", "b", "c"], ["n", "p"], X)
    clone = model.copy()
    clone.scale += 1.0
    assert not np.array_equal(clone.scale, model.scale)
    assert clone.frozen_checksum() == model.frozen_checksum()


def test_backward_matches_finite_differences():
    X, y = separable_data(n=40, seed=3)
    model = SoftmaxModel.standardized(["a", "b", "c"], ["n", "p"], X)
    model.fit(X, y, iterations=30)
    rng = np.random.default_rng(1)
    dprobs = rng.normal(0, 1, (40, 2))

    def scalar(scale, shift):
        probe = model.copy()
        probe.scale, probe.shift = scale, shift
        probs, _ = probe.forward(X)
        return float((probs * dprobs).sum())

    probs, cache = model.forward(X)
    dscale, dshift = model.backward(cache, dprobs)
    h = 1e-6
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        fd = (scalar(model.scale + e, model.shift) - scalar(model.scale - e, model.shift)) / (2 * h)
        assert fd == pytest.approx(dscale[i], rel=1e-4, abs=1e-7)
        fd = (scalar(model.scale, model.shift + e) - scalar(model.scale, model.shift - e)) / (2 * h)
        assert fd == pytest.approx(dshift[i], rel=1e-4, abs=1e-7)


def test_predict_columns_shapes():
    X, y = separable_data(n=10)
    model = SoftmaxModel.standardized(["a", "b", "c"], ["n", "p"], X)
    from conftest import make_dataset
    from quantrules.dataset import NUMERIC
    ds = make_dataset({"a": (NUMERIC, X[:, 0]), "b": (NUMERIC, X[:, 1]),
                       "c": (NUMERIC, X[:, 2])})
    cols = model.predict_columns(ds)
    names = [c[0] for c in cols]
    assert names == ["score_n", "score_p", "pred"]
    assert set(cols[2][2]) <= {"n", "p"}


def test_duplicate_class_names_rejected():
    # each class names a score_<class> column, so a repeat would hide one
    with pytest.raises(ValueError, match="duplicate class names"):
        SoftmaxModel(["x"], ["a", "a"], np.ones(1), np.zeros(1), np.zeros((1, 2)),
                     np.zeros(2))
