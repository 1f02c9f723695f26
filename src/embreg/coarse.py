"""Coarse displacement stage: pull the affinely aligned matches together.

A strided lattice of 3-vector displacements ``u`` in fixed-grid voxels is
optimized so that ``x_f + u(x_f)`` lands on ``A x_m`` for every filtered
match, balanced against a forward-difference smoothness penalty. That is
the frame :func:`~embreg.transform.compose` applies ``u`` in: ``A^-1 (x + u(x))``.
"""

from __future__ import annotations

import math

import numpy as np

from .affine import AffineTransform, apply_affine
from .config import PipelineConfig
from .descent import descend, smoothness
from .errors import EmptyMatchSet, ShapeMismatch
from .grid import Stencil, check_vector_field, identity_grid, trilinear_sample
from .grid import trilinear_corners  # noqa: F401  (perfbench/tracer.py wraps this name here)
from .matching import MatchSet

STRIDE = 4  # voxels between lattice nodes, the paper's stride
ITERATIONS = 200  # a cap only: the descent stops on descent.TOL first, after a few dozen evaluations


def lattice_dims(grid_dims) -> tuple[int, int, int]:
    return tuple(int(math.ceil(d / STRIDE)) for d in grid_dims)


def _match_targets(matches: MatchSet, affine: AffineTransform, lattice_shape):
    """Stencil of the fixed points on the lattice, and the displacements ``A x_m - x_f`` to fit."""
    if len(matches) == 0:
        raise EmptyMatchSet("coarse stage received no matches")
    xf = matches.fixed.astype(np.float64)
    return Stencil(xf / STRIDE, lattice_shape[:3]), apply_affine(affine, matches.moving) - xf


def _coarse_loss(lattice, stencil: Stencil, target, reg_weight: float):
    """Coarse objective at ``lattice`` and a closure for its gradient."""
    resid = target - stencil.sample(lattice)
    with np.errstate(over="ignore"):  # an infinite objective is the descent's to report
        data = float(np.mean(np.sum(resid * resid, axis=1)))
    reg, reg_gradient = smoothness(lattice)
    value = data + float(reg_weight) * reg

    def gradient() -> np.ndarray:
        return stencil.adjoint((-2.0 / len(target)) * resid) + float(reg_weight) * reg_gradient()

    return value, gradient


def coarse_objective(lattice, matches: MatchSet, affine: AffineTransform, reg_weight: float) -> float:
    """Mean squared residual ``|A x_m - (x_f + u(x_f))|^2`` of the matches plus the smoothness penalty.

    ``lattice`` holds ``u`` in fixed-grid voxels, one node every
    :data:`STRIDE` voxels, as :func:`optimize_coarse` returns it.
    """
    lat = check_vector_field(lattice, "lattice")
    return _coarse_loss(lat, *_match_targets(matches, affine, lat.shape), reg_weight)[0]


def coarse_gradient(lattice, matches: MatchSet, affine: AffineTransform, reg_weight: float) -> np.ndarray:
    """Exact gradient of :func:`coarse_objective` w.r.t. every lattice component."""
    lat = check_vector_field(lattice, "lattice")
    return _coarse_loss(lat, *_match_targets(matches, affine, lat.shape), reg_weight)[1]()


def optimize_coarse(
    matches: MatchSet, affine: AffineTransform, grid_dims, config: PipelineConfig
) -> np.ndarray:
    """Quasi-Newton descent (:func:`~embreg.descent.descend`) from the zero lattice.

    Returns the ``(ceil(D/4), ceil(H/4), ceil(W/4), 3)`` lattice, one node
    every :data:`STRIDE` voxels, in fixed-grid voxels, so that ``A^-1 (x_f +
    u(x_f))`` approximates ``x_m``. Reads ``coarse_reg_weight`` from
    ``config``; the descent runs to :data:`~embreg.descent.TOL`, capped at
    :data:`ITERATIONS`. A fixed match point outside ``grid_dims`` raises
    :class:`~embreg.errors.ShapeMismatch`.
    """
    start = np.zeros(lattice_dims(grid_dims) + (3,))
    # The match points do not move during the descent, so one stencil serves every step.
    targets = _match_targets(matches, affine, start.shape)
    if np.any((matches.fixed < 0) | (matches.fixed >= np.asarray(grid_dims))):
        raise ShapeMismatch(f"a fixed match point lies outside the grid {tuple(grid_dims)}")
    return descend(
        lambda lat: _coarse_loss(lat, *targets, config.coarse_reg_weight),
        start,
        ITERATIONS,
        progress=0.0,  # cheap, and cutting it short loses accuracy
    )


def upsample_coarse(lattice, target_dims) -> np.ndarray:
    """Dense displacement on the target grid via trilinear lattice interpolation.

    ``lattice`` must be finite and shaped ``lattice_dims(target_dims) +
    (3,)``, else :class:`~embreg.errors.ShapeMismatch`; a lattice read from
    disk enters the pipeline here.
    """
    lat = check_vector_field(lattice, "lattice")
    expected = lattice_dims(target_dims)
    if lat.shape[:3] != expected:
        raise ShapeMismatch(f"lattice {lat.shape[:3]} != {expected} for grid {tuple(target_dims)}")
    if not np.all(np.isfinite(lat)):
        raise ShapeMismatch("non-finite lattice displacement")
    return trilinear_sample(lat, identity_grid(target_dims) / STRIDE)
