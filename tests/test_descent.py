import numpy as np
import pytest

from embreg.descent import HALVINGS, descend
from embreg.errors import NumericalDivergence


class Quadratic:
    """``f(x) = sum(x**2)`` that logs every value and gradient request."""

    def __init__(self, gradient_sign=1.0, value_at=None):
        self.gradient_sign = gradient_sign
        self.value_at = value_at or (lambda x: float(np.sum(x * x)))
        self.evaluated = []
        self.differentiated = []

    def __call__(self, x):
        self.evaluated.append(float(x[0]))

        def gradient():
            self.differentiated.append(float(x[0]))
            return self.gradient_sign * 2.0 * x

        return self.value_at(x), gradient


def test_stops_at_tolerance_without_further_trials():
    f = Quadratic()
    # a unit step from 1 lands on the minimum, where the gradient is zero
    x = descend(f, np.array([1.0]), step_size=0.5, iterations=100, tol=1e-6)
    np.testing.assert_array_equal(x, [0.0])
    assert f.evaluated == [1.0, 0.0]
    assert f.differentiated == [1.0, 0.0]


def test_stops_silently_when_line_search_stalls():
    f = Quadratic(gradient_sign=-1.0)  # points uphill: every trial is worse
    x = descend(f, np.array([1.0]), step_size=1.0, iterations=100, tol=1e-6)
    np.testing.assert_array_equal(x, [1.0])
    assert len(f.evaluated) == 1 + HALVINGS
    assert f.differentiated == [1.0]


def test_non_finite_value_raises():
    with pytest.raises(NumericalDivergence):
        descend(Quadratic(value_at=lambda x: np.nan), np.array([1.0]), 1.0, 10, 1e-6)
    blows_up = Quadratic(value_at=lambda x: np.inf if x[0] < 0 else float(x[0] ** 2))
    with pytest.raises(NumericalDivergence):
        descend(blows_up, np.array([1.0]), step_size=3.0, iterations=10, tol=1e-6)


def test_gradient_only_at_accepted_points():
    f = Quadratic()
    descend(f, np.array([1.0]), step_size=3.0, iterations=2, tol=1e-6)
    # from 1: steps 3, 1.5 rejected, 0.75 accepted; from -0.5 likewise
    assert f.evaluated == [1.0, -5.0, -2.0, -0.5, 2.5, 1.0, 0.25]
    assert f.differentiated == [1.0, -0.5]
