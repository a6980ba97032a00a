"""Shape-signature keys."""

import numpy as np

from repro.runtime import shape_signature


def test_signature_deterministic_and_order_free():
    a = {"x": np.zeros((2, 3)), "y": np.zeros((4,))}
    b = {"y": np.zeros((4,)), "x": np.zeros((2, 3))}
    assert shape_signature(a) == shape_signature(b)


def test_signature_distinguishes_shapes():
    a = {"x": np.zeros((2, 3))}
    b = {"x": np.zeros((3, 2))}
    assert shape_signature(a) != shape_signature(b)
