"""Velocity-field integration, transform composition, and folding analysis."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .affine import AffineTransform, apply_affine, invert_affine
from .errors import ShapeMismatch
from .grid import Stencil, check_vector_field, identity_grid, trilinear_sample
from .grid import trilinear_corners, trilinear_sample_with_grad  # noqa: F401  (perfbench/tracer.py wraps these names here)

SVF_STEPS = 7  # scaling-and-squaring steps of every velocity field the pipeline integrates
MAX_SVF_STEPS = 1023  # the largest squaring count whose scale 2.0**steps is a finite float


@dataclass(frozen=True)
class CompositeTransform:
    """Affine, coarse, and dense stages of a fixed-to-moving map.

    ``coarse`` and ``dense`` are dense displacement fields on the fixed
    grid (``(D, H, W, 3)``) or ``None`` for an identity stage, stored as
    C-contiguous float64 (copied only when the input is not).
    """

    affine: AffineTransform
    coarse: np.ndarray | None = None
    dense: np.ndarray | None = None

    def __post_init__(self):
        for name in ("coarse", "dense"):
            f = getattr(self, name)
            if f is None:
                continue
            arr = np.ascontiguousarray(check_vector_field(f, f"{name} field"))
            if not np.all(np.isfinite(arr)):
                raise ShapeMismatch(f"non-finite {name} displacement")
            object.__setattr__(self, name, arr)
        if self.coarse is not None and self.dense is not None:
            if self.coarse.shape != self.dense.shape:
                raise ShapeMismatch(
                    f"stage grids differ: {self.coarse.shape} vs {self.dense.shape}"
                )


def _scale(steps: int) -> float:
    """``2**steps`` as a float, for ``steps`` from 1 to :data:`MAX_SVF_STEPS`."""
    if not 1 <= int(steps) <= MAX_SVF_STEPS:
        raise ShapeMismatch(f"steps must be from 1 to {MAX_SVF_STEPS}, got {steps}")
    return 2.0 ** int(steps)


def _squarings(velocity, steps: int):
    """Yield ``v / 2**steps`` and then each of its ``steps`` self-compositions.

    A zero ``v`` composes to zero: each squaring would sample a zero field at
    the grid nodes, so one zero array is yielded ``steps`` times unsampled.
    """
    v = check_vector_field(velocity)
    scale = _scale(steps)
    u = v / scale
    yield u
    if not u.any():
        yield from [np.zeros_like(u)] * int(steps)
        return
    grid = identity_grid(v.shape[:3])
    for _ in range(int(steps)):
        u = u + trilinear_sample(u, grid + u)
        yield u


def integrate_svf(velocity, steps: int = SVF_STEPS) -> np.ndarray:
    """Flow of a stationary velocity field via scaling and squaring.

    The initial displacement is ``v / 2**steps``; each of the ``steps``
    squarings self-composes the field with trilinear sampling (border
    clamped). Only the last field is kept.
    """
    return deque(_squarings(velocity, steps), maxlen=1)[0]


def integrate_svf_with_tape(velocity, steps: int = SVF_STEPS):
    """Like :func:`integrate_svf` but keeps every intermediate field.

    The tape (list of fields, scaled start first) feeds the adjoint pass
    in :func:`svf_backward`.
    """
    tape = list(_squarings(velocity, steps))
    return tape[-1], tape


def svf_backward(grad_displacement, tape) -> np.ndarray:
    """Adjoint of scaling and squaring: d(loss)/d(velocity).

    Each squaring ``u' = u + u(x + u(x))`` back-propagates through the
    direct term, the spatial Jacobian of the sampled field at ``x + u(x)``,
    and the sampled lattice values of ``u``. One stencil of the sample
    points serves the last two; it is rebuilt from the tape per step rather
    than kept on the tape, which would hold every stencil at once. The tape
    of :func:`integrate_svf_with_tape` gives the count: ``len(tape) - 1``
    squarings. The tape of a zero velocity samples at the grid nodes, where
    each step maps ``g`` to ``g + 0 + g``, so a copy of ``g`` is returned
    without running the steps.
    """
    scale = _scale(len(tape) - 1)
    g = np.asarray(grad_displacement, dtype=np.float64)
    if not tape[0].any():
        return g.copy()
    dims = g.shape[:3]
    flat_grid = identity_grid(dims).reshape(-1, 3)
    for u in reversed(tape[:-1]):
        g_flat = g.reshape(-1, 3)
        stencil = Stencil(flat_grid + u.reshape(-1, 3), dims)
        g = (g_flat + stencil.vjp(u, g_flat)).reshape(g.shape) + stencil.adjoint(g_flat)
        del stencil  # so that the next step's build does not hold two stencils
    return g / scale


def compose(transform: CompositeTransform, dims) -> np.ndarray:
    """Materialize the composite fixed-to-moving map on the fixed grid of shape ``dims``.

    Per fixed voxel ``x``: ``y1 = x + dense(x)``, ``y2 = y1 +
    trilinear(coarse, y1)``, output ``A^-1 y2``, shaped ``dims + (3,)``.
    ``coarse`` is the upsampled field, not the lattice. A coarse or dense
    field on another grid raises :class:`~embreg.errors.ShapeMismatch`.
    """
    # The coarse and dense stages share one grid (checked at construction).
    grid = next((f.shape[:3] for f in (transform.dense, transform.coarse) if f is not None), None)
    if grid is not None and grid != tuple(dims):
        raise ShapeMismatch(f"displacement field grid {grid} != {tuple(dims)}")
    pts = identity_grid(dims)
    y = pts if transform.dense is None else pts + trilinear_sample(transform.dense, pts)
    if transform.coarse is not None:
        y = y + trilinear_sample(transform.coarse, y)
    return apply_affine(invert_affine(transform.affine), y)


def jacobian_determinant(field, displacement: bool = False) -> np.ndarray:
    """Per-voxel determinant of the spatial Jacobian of a dense map.

    Central differences in the interior, one-sided at faces. When
    ``displacement`` is true the identity grid is added first.
    """
    f = check_vector_field(field)
    if not np.all(np.isfinite(f)):
        raise ShapeMismatch("non-finite field")
    if any(d < 3 for d in f.shape[:3]):
        raise ShapeMismatch(f"Jacobian needs >= 3 voxels per axis, got {f.shape[:3]}")
    phi = f + identity_grid(f.shape[:3]) if displacement else f
    jac = np.empty(f.shape[:3] + (3, 3))
    for c in range(3):
        grads = np.gradient(phi[..., c], axis=(0, 1, 2))
        for a in range(3):
            jac[..., c, a] = grads[a]
    return np.linalg.det(jac)


def folding_fraction(jac) -> float:
    """Fraction of voxels with non-positive Jacobian determinant."""
    arr = np.asarray(jac)
    return float(np.count_nonzero(arr <= 0.0) / arr.size)
