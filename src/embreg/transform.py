"""Velocity-field integration, transform composition, and folding analysis."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .affine import AffineTransform, apply_affine, invert_affine
from .errors import ShapeMismatch
from .grid import Stencil, check_vector_field, identity_grid, trilinear_sample
from .grid import trilinear_corners, trilinear_sample_with_grad  # noqa: F401  (perfbench/tracer.py wraps these names here)

# Scaling-and-squaring steps of every velocity field the pipeline integrates.
# The first step moves at most |v|max / 16 voxels, under half a voxel for
# velocities below 8 voxels (instance velocities peak at 1.0-2.6, synthetic
# warps at 2). Against a fine RK4 flow, 7 steps gain ~0.001 voxel of mean error.
SVF_STEPS = 4


@dataclass(frozen=True)
class CompositeTransform:
    """Affine and dense stages of a fixed-to-moving map, ``A^-1 (x + dense(x))``.

    ``dense`` is a displacement field on the fixed grid (``(D, H, W, 3)``) or
    ``None`` for the identity, stored as C-contiguous float64 (copied only when
    the input is not).
    """

    affine: AffineTransform
    dense: np.ndarray | None = None

    def __post_init__(self):
        if self.dense is not None:
            arr = np.ascontiguousarray(check_vector_field(self.dense, "dense field"))
            if not np.all(np.isfinite(arr)):
                raise ShapeMismatch("non-finite dense displacement")
            object.__setattr__(self, "dense", arr)

    @property
    def coarse(self) -> None:
        """Always ``None``; kept only because ``perfbench/bench.py`` still reads it."""
        return None


def _squarings(velocity):
    """Yield ``v / 2**SVF_STEPS`` and then each of its :data:`SVF_STEPS` self-compositions."""
    v = check_vector_field(velocity)
    u = v / 2.0**SVF_STEPS
    yield u
    grid = identity_grid(v.shape[:3])
    for _ in range(SVF_STEPS):
        u = u + trilinear_sample(u, grid + u)
        yield u


def integrate_svf(velocity) -> np.ndarray:
    """Flow of a stationary velocity field via scaling and squaring.

    The initial displacement is ``v / 2**SVF_STEPS``; each of the
    :data:`SVF_STEPS` squarings self-composes the field with trilinear
    sampling (border clamped). Only the last field is kept.
    """
    return deque(_squarings(velocity), maxlen=1)[0]


def integrate_svf_with_tape(velocity):
    """Like :func:`integrate_svf` but keeps every intermediate field.

    The tape (list of fields, scaled start first) feeds the adjoint pass
    in :func:`svf_backward`.
    """
    tape = list(_squarings(velocity))
    return tape[-1], tape


def svf_backward(grad_displacement, tape) -> np.ndarray:
    """Adjoint of scaling and squaring: d(loss)/d(velocity).

    Each squaring ``u' = u + u(x + u(x))`` back-propagates through the
    direct term, the spatial Jacobian of the sampled field at ``x + u(x)``,
    and the sampled lattice values of ``u``. One stencil of the sample
    points serves the last two; it is rebuilt from the tape per step rather
    than kept on the tape, which would hold every stencil at once. ``tape``
    is the one :func:`integrate_svf_with_tape` returns.
    """
    g = np.asarray(grad_displacement, dtype=np.float64)
    dims = g.shape[:3]
    flat_grid = identity_grid(dims).reshape(-1, 3)
    for u in reversed(tape[:-1]):
        g_flat = g.reshape(-1, 3)
        stencil = Stencil(flat_grid + u.reshape(-1, 3), dims)
        g = (g_flat + stencil.vjp(u, g_flat)).reshape(g.shape) + stencil.adjoint(g_flat)
        del stencil  # so that the next step's build does not hold two stencils
    return g / 2.0**SVF_STEPS


def compose(transform: CompositeTransform, dims) -> np.ndarray:
    """Materialize the composite fixed-to-moving map on the fixed grid of shape ``dims``.

    Per fixed voxel ``x`` the output is ``A^-1 (x + dense(x))``, shaped
    ``dims + (3,)``. A dense field on another grid raises
    :class:`~embreg.errors.ShapeMismatch`.
    """
    dense = transform.dense
    if dense is not None and dense.shape[:3] != tuple(dims):
        raise ShapeMismatch(f"displacement field grid {dense.shape[:3]} != {tuple(dims)}")
    pts = identity_grid(dims)
    y = pts if dense is None else pts + dense
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
    # Row c, column a of each 3x3 Jacobian is d phi_c / d x_a.
    return np.linalg.det(np.stack(np.gradient(phi, axis=(0, 1, 2)), axis=-1))


def folding_fraction(jac) -> float:
    """Fraction of voxels with non-positive Jacobian determinant."""
    arr = np.asarray(jac)
    return float(np.count_nonzero(arr <= 0.0) / arr.size)
