"""Tensor carrier operations: squared distance."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from paintnet.errors import ShapeError
from paintnet.tensor import frobenius_sq_dist


def test_frobenius_examples():
    t = np.array([1.0, 2.0, 3.0])
    assert frobenius_sq_dist(t, t) == 0.0
    assert frobenius_sq_dist(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 2.0
    assert frobenius_sq_dist(np.array([3.0]), np.array([1.0])) == 4.0


def test_frobenius_shape_mismatch():
    with pytest.raises(ShapeError):
        frobenius_sq_dist(np.array([1.0]), np.array([1.0, 2.0]))


@given(hnp.arrays(np.float64, hnp.array_shapes(max_dims=3, max_side=5),
                  elements=st.floats(-100, 100)),
       st.integers(min_value=0, max_value=2**32))
def test_frobenius_symmetric_nonnegative(a, seed):
    b = np.random.default_rng(seed).uniform(-100, 100, size=a.shape)
    d_ab, d_ba = frobenius_sq_dist(a, b), frobenius_sq_dist(b, a)
    assert d_ab == d_ba
    assert d_ab >= 0.0
