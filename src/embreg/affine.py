"""Homogeneous affine transforms estimated from matched point pairs."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import CorruptContainer, DegenerateMatches, ShapeMismatch, SingularAffine
from .matching import MatchSet

# Normative conditioning threshold for the least-squares design matrix.
CONDITION_LIMIT = 1e12

_DET_EPS = 1e-12


def _singular(linear) -> bool:
    """Whether a 3x3 block's determinant is within ``_DET_EPS`` of 0; an infinite one is not."""
    with np.errstate(over="ignore"):
        return abs(np.linalg.det(linear)) <= _DET_EPS


@dataclass(frozen=True)
class AffineTransform:
    """4x4 homogeneous matrix with last row (0, 0, 0, 1)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.shape != (4, 4):
            raise ShapeMismatch(f"affine matrix must be 4x4, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ShapeMismatch("non-finite affine matrix")
        if not np.array_equal(m[3], [0.0, 0.0, 0.0, 1.0]):
            raise ShapeMismatch(f"last affine row must be (0,0,0,1), got {m[3]}")
        if _singular(m[:3, :3]):
            raise SingularAffine("affine linear block is singular")
        object.__setattr__(self, "matrix", m)

    @classmethod
    def identity(cls) -> "AffineTransform":
        return cls(np.eye(4))

    @classmethod
    def from_linear_translation(cls, linear, translation) -> "AffineTransform":
        m = np.eye(4)
        m[:3, :3] = np.asarray(linear, dtype=np.float64)
        m[:3, 3] = np.asarray(translation, dtype=np.float64)
        return cls(m)

    @property
    def linear(self) -> np.ndarray:
        return self.matrix[:3, :3]

    @property
    def translation(self) -> np.ndarray:
        return self.matrix[:3, 3]

    def to_json(self) -> str:
        return json.dumps([float(v) for v in self.matrix.ravel()])

    @classmethod
    def from_json(cls, text: str | bytes) -> "AffineTransform":
        """Parse :meth:`to_json` output; text that is not JSON numbers is a data error."""
        try:
            values = json.loads(text)  # undecodable bytes raise a ValueError too
        except ValueError as exc:
            raise CorruptContainer(f"affine is not JSON: {exc}") from exc
        if not isinstance(values, list) or len(values) != 16:
            raise ShapeMismatch("affine JSON must be a 16-number row-major array")
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
            raise CorruptContainer("affine JSON entries must be numbers")
        return cls(np.array(values, dtype=np.float64).reshape(4, 4))


def fit_affine(matches: MatchSet) -> AffineTransform:
    """Least-squares affine mapping moving points onto fixed points."""
    return fit_affine_points(matches.moving.astype(np.float64), matches.fixed.astype(np.float64))


def fit_affine_points(moving_points, fixed_points) -> AffineTransform:
    """Affine fit from continuous point pairs.

    Solves the 12 free entries from ``A x~_m = x~_f`` over all pairs via
    an orthogonal factorization of the N x 4 design matrix; exact (to
    solver tolerance) when the pairs are generated by an affine map.
    """
    xm = np.asarray(moving_points, dtype=np.float64)
    xf = np.asarray(fixed_points, dtype=np.float64)
    if xm.shape != xf.shape or xm.ndim != 2 or xm.shape[1] != 3:
        raise ShapeMismatch(f"point arrays must be (N,3): {xm.shape} vs {xf.shape}")
    n = xm.shape[0]
    if n < 4:
        raise DegenerateMatches(f"affine fit needs >= 4 pairs, got {n}")
    design = np.concatenate([xm, np.ones((n, 1))], axis=1)
    cond = np.linalg.cond(design)
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise DegenerateMatches(f"degenerate design matrix (condition {cond:.3g})")
    sol, _, _, _ = np.linalg.lstsq(design, xf, rcond=None)
    m = np.eye(4)
    m[:3, :4] = sol.T
    try:
        return AffineTransform(m)
    except SingularAffine as exc:
        raise DegenerateMatches(f"fitted linear block singular: {exc}") from exc


def apply_affine(transform: AffineTransform, points) -> np.ndarray:
    """Affine image of continuous points, shape-preserving over ``(..., 3)``."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.shape[-1] != 3:
        raise ShapeMismatch(f"points must have 3 components, got {pts.shape}")
    return pts @ transform.linear.T + transform.translation


def invert_affine(transform: AffineTransform) -> AffineTransform:
    """Exact homogeneous inverse."""
    inv_lin = np.linalg.inv(transform.linear)
    return AffineTransform.from_linear_translation(inv_lin, -inv_lin @ transform.translation)
