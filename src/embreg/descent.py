"""Step-halving gradient descent and the forward-difference smoothness term
shared by the coarse and instance optimizers."""

from __future__ import annotations

import numpy as np

from .errors import NumericalDivergence

HALVINGS = 31  # trial steps per iteration, halving the step after each rejection


def descend(evaluate, x0, step_size: float, iterations: int, tol: float) -> np.ndarray:
    """Gradient descent from ``x0``; returns the last accepted point.

    ``evaluate(x)`` returns ``(value, gradient_fn)``; ``gradient_fn()`` reuses
    that evaluation's forward pass and is called once, for accepted points only.
    The descent stops when no gradient component reaches ``tol`` or when none
    of the trials ``x - step * grad`` (``step`` from ``step_size``, halved per
    rejection) has a value that does not increase; a non-finite value raises
    :class:`NumericalDivergence`.
    """
    x = x0
    value, gradient = evaluate(x)
    if not np.isfinite(value):
        raise NumericalDivergence("initial objective not finite")
    for _ in range(iterations):
        grad = gradient()
        if np.max(np.abs(grad)) < tol:
            break
        step = step_size
        for _ in range(HALVINGS):
            trial = x - step * grad
            gradient = None  # free the last forward pass before the next one is built
            trial_value, gradient = evaluate(trial)
            if not np.isfinite(trial_value):
                raise NumericalDivergence("objective diverged")
            if trial_value <= value:
                x, value = trial, trial_value
                break
            step *= 0.5
        else:
            break
    return x


def smoothness(field: np.ndarray):
    """Mean squared forward difference of a ``(D, H, W, 3)`` field, as ``(value, gradient_fn)``.

    The gradient recomputes the differences so that the closure holds only the field.
    """
    n = int(np.prod(field.shape[:3]))
    value = sum(float(np.sum(np.square(np.diff(field, axis=a)))) for a in range(3)) / n

    def gradient() -> np.ndarray:
        grad = np.zeros_like(field)
        for a in range(3):
            term = (2.0 / n) * np.diff(field, axis=a)
            lead = (slice(None),) * a
            grad[lead + (slice(1, None),)] += term
            grad[lead + (slice(0, -1),)] -= term
        return grad

    return value, gradient
