"""Coarse displacement stage: pull affinely pre-aligned matches together.

A strided lattice of 3-vector displacements is optimized so that
``y + u(y)`` with ``y = A^-1 x_f`` lands on ``x_m`` for every filtered
match, balanced against a forward-difference gradient-smoothness
penalty on the lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .affine import AffineTransform, apply_affine, invert_affine
from .config import PipelineConfig
from .descent import descend, smoothness
from .errors import EmptyMatchSet, ShapeMismatch
from .grid import Stencil, identity_grid, trilinear_sample
from .grid import trilinear_corners  # noqa: F401  (perfbench/tracer.py wraps this name here)
from .matching import MatchSet

STRIDE = 4  # voxels between lattice nodes, the paper's stride
ITERATIONS = 200  # a cap only: the descent stops on descent.TOL first, after a few dozen evaluations


@dataclass(frozen=True)
class CoarseField:
    """Displacement lattice with one 3-vector per coarse node.

    ``lattice`` has shape ``(ceil(D/s), ceil(H/s), ceil(W/s), 3)`` in
    voxel units; node ``n`` sits at voxel coordinate ``n * stride``.
    """

    stride: int
    lattice: np.ndarray

    def __post_init__(self):
        if int(self.stride) < 1:
            raise ShapeMismatch(f"stride must be >= 1, got {self.stride}")
        lat = np.asarray(self.lattice, dtype=np.float64)
        if lat.ndim != 4 or lat.shape[-1] != 3:
            raise ShapeMismatch(f"lattice must be (Ld,Lh,Lw,3), got {lat.shape}")
        if not np.all(np.isfinite(lat)):
            raise ShapeMismatch("non-finite lattice displacement")
        object.__setattr__(self, "stride", int(self.stride))
        object.__setattr__(self, "lattice", lat)


def lattice_dims(grid_dims, stride: int) -> tuple[int, int, int]:
    if int(stride) < 1:
        raise ShapeMismatch(f"stride must be >= 1, got {stride}")
    return tuple(int(math.ceil(d / stride)) for d in grid_dims)


def _match_targets(matches: MatchSet, affine: AffineTransform, field: CoarseField):
    """Stencil of the pre-aligned fixed points ``y`` on the lattice, ``y``, and the moving targets."""
    if len(matches) == 0:
        raise EmptyMatchSet("coarse stage received no matches")
    inv = invert_affine(affine)
    y = apply_affine(inv, matches.fixed.astype(np.float64))
    return Stencil(y / field.stride, field.lattice.shape[:3]), y, matches.moving.astype(np.float64)


def _coarse_loss(lattice, stencil: Stencil, y, xm, reg_weight: float):
    """Coarse objective at ``lattice`` and a closure for its gradient."""
    resid = xm - (y + stencil.sample(lattice))
    data = float(np.mean(np.sum(resid * resid, axis=1)))
    reg, reg_gradient = smoothness(lattice)
    value = data + float(reg_weight) * reg

    def gradient() -> np.ndarray:
        return stencil.adjoint((-2.0 / len(y)) * resid) + float(reg_weight) * reg_gradient()

    return value, gradient


def coarse_objective(
    field: CoarseField, matches: MatchSet, affine: AffineTransform, reg_weight: float
) -> float:
    """Mean squared residual of matched points plus the smoothness penalty."""
    targets = _match_targets(matches, affine, field)
    return _coarse_loss(field.lattice, *targets, reg_weight)[0]


def coarse_gradient(
    field: CoarseField, matches: MatchSet, affine: AffineTransform, reg_weight: float
) -> np.ndarray:
    """Exact gradient of :func:`coarse_objective` w.r.t. every lattice component."""
    targets = _match_targets(matches, affine, field)
    return _coarse_loss(field.lattice, *targets, reg_weight)[1]()


def optimize_coarse(
    matches: MatchSet, affine: AffineTransform, grid_dims, config: PipelineConfig
) -> CoarseField:
    """Quasi-Newton descent (:func:`~embreg.descent.descend`) from the zero lattice.

    The lattice has one node every :data:`STRIDE` voxels. Reads
    ``coarse_reg_weight`` from ``config``; the descent runs to
    :data:`~embreg.descent.TOL`, capped at :data:`ITERATIONS`. The matches
    are in image-grid voxels.
    """
    start = CoarseField(stride=STRIDE, lattice=np.zeros(lattice_dims(grid_dims, STRIDE) + (3,)))
    # The match points do not move during the descent, so one stencil serves every step.
    targets = _match_targets(matches, affine, start)
    lattice = descend(
        lambda lat: _coarse_loss(lat, *targets, config.coarse_reg_weight),
        start.lattice,
        ITERATIONS,
        progress=0.0,  # cheap, and cutting it short loses accuracy
    )
    return CoarseField(stride=start.stride, lattice=lattice)


def upsample_coarse(field: CoarseField, target_dims) -> np.ndarray:
    """Dense displacement on the target grid via trilinear lattice interpolation."""
    expected = lattice_dims(target_dims, field.stride)
    if field.lattice.shape[:3] != expected:
        raise ShapeMismatch(f"lattice {field.lattice.shape[:3]} != {expected} for grid {tuple(target_dims)}")
    pts = identity_grid(target_dims) / field.stride
    return trilinear_sample(field.lattice, pts)
