"""Self-scaling quasi-Newton descent and the forward-difference smoothness
term shared by the coarse and instance optimizers."""

from __future__ import annotations

import logging

import numpy as np

from .errors import NumericalDivergence

HALVINGS = 31  # trial steps per iteration, halving the step after each rejection
TOL = 1e-6  # the optimizers stop when no gradient component reaches this
PROGRESS = 7e-4  # the instance descent stops once a step gains less than this share of the decrease

log = logging.getLogger(__name__)


def descend(evaluate, x0, iterations: int, progress: float = 0.0) -> np.ndarray:
    """Quasi-Newton descent from ``x0``; returns the last accepted point.

    ``evaluate(x)`` returns ``(value, gradient_fn)``; ``gradient_fn()`` reuses
    that evaluation's forward pass and is called once, for accepted points
    only. Its array belongs to the descent, which reuses the buffer.

    The first direction is ``grad / max|grad|``, so the first trial moves no
    component by more than one unit. Later directions are the L-BFGS product
    ``H @ grad`` with one correction pair, the last accepted move and its
    gradient change, which scales the step to the curvature seen along that
    move; when the pair shows no positive curvature the scaled gradient is
    used again. Each iteration tries ``x - step * direction`` for ``step`` =
    1, 1/2, 1/4, ... and accepts the first trial whose value does not
    increase. Apart from the :data:`TOL` stop, none of this sees the scale
    of the objective: ``c * f`` descends like ``f`` for any ``c > 0``, with
    byte-equal iterates when ``c`` is a power of two. The descent stops when
    no gradient component reaches :data:`TOL`, when every trial is rejected,
    when an accepted trial lowers the value by less than ``progress`` times
    the decrease from the start (``0`` turns this off; no decrease at all
    does not stop), or after ``iterations`` iterations; a non-finite value
    raises :class:`NumericalDivergence`. The point accepted last at the
    ``progress`` stop or the cap is returned without its gradient. One DEBUG
    log line per call gives the evaluations, rejected trials, start and final
    value and the stop reason (``tol``, ``stall``, ``progress`` or ``cap``).
    """
    x = x0
    value, gradient = evaluate(x)
    if not np.isfinite(value):
        raise NumericalDivergence("initial objective not finite")
    start, evaluations, rejected, stop = value, 1, 0, "cap"
    grad = move = None
    for _ in range(iterations):
        new_grad = gradient()
        largest = float(np.max(np.abs(new_grad)))
        if largest < TOL:
            stop = "tol"
            break
        direction = _direction(new_grad, largest, move, grad)
        grad = new_grad
        step = 1.0
        for _ in range(HALVINGS):
            trial = x - step * direction
            gradient = None  # free the last forward pass before the next one is built
            trial_value, gradient = evaluate(trial)
            evaluations += 1
            if not np.isfinite(trial_value):
                raise NumericalDivergence("objective diverged")
            if trial_value <= value:
                move = np.subtract(trial, x, out=direction)
                gain = value - trial_value
                x, value = trial, trial_value
                break
            rejected += 1
            step *= 0.5
        else:
            stop = "stall"
            break
        if gain < progress * (start - value):
            stop = "progress"
            break
    log.debug(
        "descend: %d evaluations, %d rejected, objective %.6g -> %.6g, stop %s",
        evaluations, rejected, start, value, stop,
    )
    return x


def _direction(grad, largest: float, move, last_grad) -> np.ndarray:
    """One-pair L-BFGS product ``H @ grad``, built in the buffers of ``move`` and ``last_grad``.

    ``move`` is the last accepted step ``s`` and ``last_grad`` the gradient
    before it, overwritten with ``y = grad - last_grad``. Without a pair, or
    when ``s . y <= 0``, the direction is ``grad / largest``.
    """
    if move is None:
        return grad / largest
    y = np.subtract(grad, last_grad, out=last_grad)
    sy = float(np.vdot(move, y))
    if not sy > 0.0:
        return np.divide(grad, largest, out=move)
    yy = float(np.vdot(y, y))
    alpha = float(np.vdot(move, grad)) / sy
    beta = float(np.vdot(y, grad)) / yy - alpha  # y . r / (s . y) for r below
    # r = (s . y / y . y) (grad - alpha y); H grad = r + (alpha - beta) s
    y *= -alpha
    y += grad
    y *= sy / yy
    move *= alpha - beta
    move += y
    return move


def smoothness(field: np.ndarray):
    """Mean squared forward difference of a ``(D, H, W, 3)`` field, as ``(value, gradient_fn)``.

    The value takes each axis's differences once, as their dot product with
    themselves. The gradient recomputes the differences so that the closure
    holds only the field.
    """
    n = int(np.prod(field.shape[:3]))
    diffs = (np.diff(field, axis=a) for a in range(3))
    value = sum(float(np.vdot(d, d)) for d in diffs) / n

    def gradient() -> np.ndarray:
        grad = np.zeros_like(field)
        for a in range(3):
            term = (2.0 / n) * np.diff(field, axis=a)
            lead = (slice(None),) * a
            grad[lead + (slice(1, None),)] += term
            grad[lead + (slice(0, -1),)] -= term
        return grad

    return value, gradient
