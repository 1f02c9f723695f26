import logging

import numpy as np
import pytest

from embreg.descent import HALVINGS, PROGRESS, descend, smoothness
from embreg.errors import NumericalDivergence


class Quadratic:
    """``f(x) = sum(weights * x**2)`` that logs every value and gradient request."""

    def __init__(self, weights=1.0, gradient_sign=1.0, value_at=None):
        self.weights = np.asarray(weights, dtype=np.float64)
        self.gradient_sign = gradient_sign
        self.value_at = value_at or (lambda x: float(np.sum(self.weights * x * x)))
        self.evaluated = []
        self.differentiated = []
        self.trials = []  # (point, value) of every evaluation

    def __call__(self, x):
        self.evaluated.append(float(x[0]))
        value = self.value_at(x)
        self.trials.append((x.copy(), value))

        def gradient():
            self.differentiated.append(float(x[0]))
            return self.gradient_sign * 2.0 * self.weights * x

        return value, gradient


def _accepted(trials):
    """The ``(point, value)`` trials a descent accepted, the start first."""
    accepted, best = [], np.inf
    for point, value in trials:
        if value <= best:
            accepted.append((point, value))
            best = value
    return accepted


def test_stops_at_tolerance_without_further_trials():
    f = Quadratic()
    # the scaled gradient from 1 is 1, so the first trial lands on the minimum
    x = descend(f, np.array([1.0]), iterations=100)
    np.testing.assert_array_equal(x, [0.0])
    assert f.evaluated == [1.0, 0.0]
    assert f.differentiated == [1.0, 0.0]


def test_stops_silently_when_line_search_stalls():
    f = Quadratic(gradient_sign=-1.0)  # points uphill: every trial is worse
    x = descend(f, np.array([1.0]), iterations=100)
    np.testing.assert_array_equal(x, [1.0])
    assert len(f.evaluated) == 1 + HALVINGS
    assert f.differentiated == [1.0]


def test_non_finite_value_raises():
    with pytest.raises(NumericalDivergence):
        descend(Quadratic(value_at=lambda x: np.nan), np.array([1.0]), 10)
    # the first trial from 1 reaches 0, where the value is infinite
    blows_up = Quadratic(value_at=lambda x: np.inf if x[0] < 0.5 else float(x[0] ** 2))
    with pytest.raises(NumericalDivergence):
        descend(blows_up, np.array([1.0]), iterations=10)


def test_gradient_only_at_accepted_points():
    f = Quadratic(weights=[1.0, 100.0])
    descend(f, np.array([1.0, 1.0]), iterations=6)
    accepted = [float(point[0]) for point, _ in _accepted(f.trials)]
    assert len(accepted) < len(f.trials), "no trial was rejected"
    # the point accepted in the last of the six iterations is returned undifferentiated
    assert len(accepted) == 7
    assert f.differentiated == accepted[:-1]


def test_first_trial_moves_at_most_one_unit():
    for scale in (1e-6, 1.0, 1e6):
        f = Quadratic(weights=[scale, 3.0 * scale, 0.5 * scale])
        x0 = np.array([4.0, -2.0, 8.0])
        descend(f, x0, iterations=1)
        first_move = f.trials[1][0] - x0
        assert np.max(np.abs(first_move)) == pytest.approx(1.0)


def test_equal_value_is_accepted():
    f = Quadratic(value_at=lambda x: 1.0)
    x = descend(f, np.array([1.0]), iterations=1)
    np.testing.assert_array_equal(x, [0.0])
    assert f.evaluated == [1.0, 0.0]


def test_scaled_gradient_again_without_positive_curvature():
    trials = []

    def cosine(x):
        trials.append(float(x[0]))
        return float(np.cos(x[0])), lambda: -np.sin(x)

    descend(cosine, np.array([0.5]), iterations=2)
    # from 0.5 the unit move to 1.5 steepens the slope (s . y < 0), so the
    # next direction is the scaled gradient again: one more unit
    assert trials == [0.5, 1.5, 2.5]


def test_anisotropic_quadratic_reaches_tolerance_in_few_iterations():
    weights = np.array([1.0, 10.0])
    f = Quadratic(weights=weights)
    x = descend(f, np.array([1.0, 1.0]), iterations=100)
    assert np.max(np.abs(2.0 * weights * x)) < 1e-6
    assert len(f.evaluated) <= 30


def test_logs_evaluations_and_stop_reason(caplog):
    with caplog.at_level(logging.DEBUG, logger="embreg.descent"):
        descend(Quadratic(), np.array([1.0]), iterations=100)
        descend(Quadratic(gradient_sign=-1.0), np.array([1.0]), iterations=100)
        descend(Quadratic(weights=[1.0, 100.0]), np.array([1.0, 1.0]), iterations=2)
    messages = [r.getMessage() for r in caplog.records if r.name == "embreg.descent"]
    assert messages[0] == "descend: 2 evaluations, 0 rejected, objective 1 -> 0, stop tol"
    assert messages[1] == (
        f"descend: {1 + HALVINGS} evaluations, {HALVINGS} rejected, objective 1 -> 1, stop stall"
    )
    assert messages[2].endswith("stop cap")


def test_stops_on_progress_at_the_first_iteration_that_gains_too_little(caplog):
    weights = np.logspace(0, 2, 8)  # ill-conditioned enough that one correction pair converges slowly
    reference = Quadratic(weights=weights)
    with caplog.at_level(logging.DEBUG, logger="embreg.descent"):
        descend(reference, np.ones(8), iterations=200)
        f = Quadratic(weights=weights)
        x = descend(f, np.ones(8), iterations=200, progress=PROGRESS)
    messages = [r.getMessage() for r in caplog.records if r.name == "embreg.descent"]
    # without the progress test the descent runs on to the tolerance, as before
    assert messages[0].endswith("stop tol")
    values = [value for _, value in _accepted(reference.trials)]
    first = next(
        k for k in range(1, len(values)) if values[k - 1] - values[k] < PROGRESS * (values[0] - values[k])
    )
    assert 1 < first < len(values) - 1
    assert messages[1].endswith("stop progress")
    # the same path up to the stop, and the point accepted there is returned undifferentiated
    accepted = _accepted(f.trials)
    assert len(accepted) == first + 1
    assert len(f.trials) < len(reference.trials)
    for (point, value), (ref_point, ref_value) in zip(f.trials, reference.trials):
        np.testing.assert_array_equal(point, ref_point)
        assert value == ref_value
    np.testing.assert_array_equal(x, accepted[-1][0])
    assert f.differentiated == [float(point[0]) for point, _ in accepted[:-1]]


def test_no_decrease_does_not_stop_on_progress(caplog):
    def flat(x):  # every trial gains 0 of a total of 0, and the gradient never vanishes
        return 1.0, lambda: np.ones(1)

    with caplog.at_level(logging.DEBUG, logger="embreg.descent"):
        x = descend(flat, np.array([1.0]), iterations=3, progress=PROGRESS)
    np.testing.assert_array_equal(x, [-2.0])
    assert caplog.records[-1].getMessage() == "descend: 4 evaluations, 0 rejected, objective 1 -> 1, stop cap"


@pytest.mark.parametrize("scale", [2.0, 0.25])
def test_scaled_objective_gives_byte_equal_iterates(caplog, scale):
    # Why the instance objective carries no weight on its similarity term: only
    # the ratio of the two weights can change the descent.
    weights = np.logspace(0, 2, 8)
    reference, scaled = Quadratic(weights=weights), Quadratic(weights=scale * weights)
    with caplog.at_level(logging.DEBUG, logger="embreg.descent"):
        x = descend(reference, np.ones(8), iterations=200, progress=PROGRESS)
        x_scaled = descend(scaled, np.ones(8), iterations=200, progress=PROGRESS)
    messages = [r.getMessage() for r in caplog.records if r.name == "embreg.descent"]
    assert all(message.endswith("stop progress") for message in messages)
    assert len(scaled.trials) == len(reference.trials) > 10
    for (point, value), (ref_point, ref_value) in zip(scaled.trials, reference.trials):
        assert point.tobytes() == ref_point.tobytes()
        assert value == scale * ref_value
    assert x_scaled.tobytes() == x.tobytes()


def test_smoothness_gradient_matches_central_differences():
    # A non-cubic field, so each axis's differences have their own shape.
    field = np.random.default_rng(3).normal(size=(4, 5, 6, 3))
    grad = smoothness(field)[1]()
    h = 1e-5
    fd = np.empty_like(field)
    for idx in np.ndindex(field.shape):
        up, down = field.copy(), field.copy()
        up[idx] += h
        down[idx] -= h
        fd[idx] = (smoothness(up)[0] - smoothness(down)[0]) / (2 * h)
    np.testing.assert_allclose(grad, fd, rtol=1e-8, atol=1e-8 * np.abs(grad).max())
