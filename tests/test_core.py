import numpy as np
import pytest

from ofs.core import (
    DenseVector,
    SparseExample,
    sparse_dot,
    squared_hinge,
    squared_hinge_slope,
)
from ofs.learners import OgdModel


def ex(label, *pairs):
    return SparseExample.from_pairs(label, pairs)


class TestSparseExample:
    def test_from_pairs_basic(self):
        e = ex(1, (0, 1.0), (3, -2.5))
        assert e.label == 1
        assert e.indices.tolist() == [0, 3]
        assert e.values.tolist() == [1.0, -2.5]
        assert e.nnz == 2
        assert list(e.pairs()) == [(0, 1.0), (3, -2.5)]

    def test_zero_values_dropped(self):
        e = ex(-1, (0, 0.0), (2, 5.0), (4, 0.0))
        assert e.indices.tolist() == [2]
        assert e.nnz == 1

    def test_bad_label(self):
        with pytest.raises(ValueError):
            ex(2, (0, 1.0))
        with pytest.raises(ValueError):
            ex(0, (0, 1.0))

    def test_duplicate_index(self):
        with pytest.raises(ValueError):
            ex(1, (3, 1.0), (3, 2.0))

    def test_out_of_order_index(self):
        with pytest.raises(ValueError):
            ex(1, (5, 1.0), (2, 2.0))

    def test_negative_index(self):
        with pytest.raises(ValueError):
            ex(1, (-1, 1.0))

    def test_empty(self):
        e = ex(1)
        assert e.nnz == 0


class TestDenseVector:
    def test_initial_fill(self):
        v = DenseVector(3, fill=1.0)
        assert v.to_list() == [1.0, 1.0, 1.0]
        assert len(v) == 3

    def test_ensure_grows_with_fill(self):
        v = DenseVector(1, fill=1.0)
        v.array[0] = 0.5
        v.ensure(100)
        assert len(v) == 100
        assert v.array[0] == 0.5
        assert v.array[99] == 1.0

    def test_ensure_never_shrinks(self):
        v = DenseVector(5)
        v.ensure(2)
        assert len(v) == 5

    def test_growth_rounds_up_to_a_power_of_two(self):
        v = DenseVector()
        v.ensure(998_900)
        v.ensure(10**6)
        assert len(v) == 10**6
        assert len(v._buf) == 2**20

    def test_successive_growth_reallocates_log_times(self):
        v = DenseVector()
        buf, reallocations = v._buf, 0
        for n in range(1, 5001):
            v.ensure(n)
            if v._buf is not buf:
                buf, reallocations = v._buf, reallocations + 1
        assert reallocations <= (5000).bit_length()

    def test_array_is_live_view(self):
        v = DenseVector(3)
        v.array[1] = 9.0
        assert v.to_list() == [0.0, 9.0, 0.0]

    def test_from_array(self):
        v = DenseVector.from_array([1.0, 2.0])
        assert v.to_list() == [1.0, 2.0]


class TestSparseDot:
    def test_zero_weights(self):
        assert sparse_dot(DenseVector(3), ex(1, (1, 2.0))) == 0.0

    def test_hand_value(self):
        w = DenseVector.from_array([1.0, 2.0, 3.0])
        assert sparse_dot(w, ex(1, (0, 1.0), (2, -1.0))) == -2.0

    def test_out_of_range_contributes_zero(self):
        w = DenseVector.from_array([0.5])
        assert sparse_dot(w, ex(1, (5, 3.0))) == 0.0
        assert len(w) == 1  # not grown

    def test_partial_overlap(self):
        w = DenseVector.from_array([2.0, 0.0, 1.0])
        assert sparse_dot(w, ex(1, (0, 1.0), (2, 1.0), (7, 100.0))) == 3.0

    def test_empty_example(self):
        assert sparse_dot(DenseVector.from_array([1.0]), ex(1)) == 0.0

    def test_linearity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            w1 = DenseVector.from_array(rng.standard_normal(10))
            w2 = DenseVector.from_array(rng.standard_normal(10))
            a, b = rng.standard_normal(2)
            combo = DenseVector.from_array(a * w1.array + b * w2.array)
            x = ex(1, *((i, v) for i, v in enumerate(rng.standard_normal(10)) if v != 0.0))
            lhs = sparse_dot(combo, x)
            rhs = a * sparse_dot(w1, x) + b * sparse_dot(w2, x)
            assert lhs == pytest.approx(rhs, rel=1e-12)


class TestPredict:
    """``OnlineLearner.predict``: the sign of the margin, with sign(0) = +1."""

    @staticmethod
    def predict(weights, x):
        m = OgdModel()
        m.w = weights
        return m.predict(x)

    def test_positive(self):
        assert self.predict(DenseVector.from_array([1.0]), ex(1, (0, 1.0))) == 1

    def test_negative(self):
        assert self.predict(DenseVector.from_array([1.0]), ex(1, (0, -1.0))) == -1

    def test_sign_zero_is_plus_one(self):
        assert self.predict(DenseVector(1), ex(1, (0, 5.0))) == 1

    def test_always_in_label_set(self):
        rng = np.random.default_rng(4)
        w = DenseVector.from_array(rng.standard_normal(8))
        for _ in range(50):
            x = ex(1, *((i, float(v)) for i, v in enumerate(rng.standard_normal(8))))
            assert self.predict(w, x) in (-1, 1)


class TestLosses:
    def test_squared_hinge_zero_weights(self):
        assert squared_hinge(DenseVector(2), ex(1, (0, 3.0)), 1) == 1.0

    def test_squared_hinge_margin_beyond_one(self):
        w = DenseVector.from_array([2.0])
        assert squared_hinge(w, ex(1, (0, 1.0)), 1) == 0.0

    def test_squared_hinge_half_margin(self):
        w = DenseVector.from_array([0.5])
        assert squared_hinge(w, ex(1, (0, 1.0)), 1) == 0.25

    def test_nonnegative_and_zero_iff_margin_ge_one(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            w = DenseVector.from_array(rng.standard_normal(6))
            x = ex(1, *((i, float(v)) for i, v in enumerate(rng.standard_normal(6))))
            y = 1 if rng.random() < 0.5 else -1
            loss = squared_hinge(w, x, y)
            assert loss >= 0.0
            assert (loss == 0.0) == (y * sparse_dot(w, x) >= 1.0)

    def test_grad_matches_central_differences(self):
        # same protocol as the acceptance check, smaller and faster
        rng = np.random.default_rng(6)
        eps = 1e-6
        for _ in range(10):
            w = DenseVector.from_array(rng.uniform(-1.0, 1.0, size=5))
            x = ex(1, *((i, float(v)) for i, v in enumerate(rng.standard_normal(5))))
            y = 1 if rng.random() < 0.5 else -1
            if abs(1.0 - y * sparse_dot(w, x)) < 1e-3:
                continue  # kink of the hinge; gradient undefined nearby
            g = squared_hinge_slope(sparse_dot(w, x), y) * x.values
            for k, j in enumerate(x.indices.tolist()):
                wp = DenseVector.from_array(w.array)
                wm = DenseVector.from_array(w.array)
                wp.array[j] += eps
                wm.array[j] -= eps
                num = (squared_hinge(wp, x, y) - squared_hinge(wm, x, y)) / (2 * eps)
                assert g[k] == pytest.approx(num, rel=1e-5, abs=1e-9)
