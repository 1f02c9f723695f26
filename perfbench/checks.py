"""Registration quality computed by the benchmark itself, not by embreg.

The composed fixed-to-moving map is rebuilt from the transform's parts
with ``scipy.ndimage`` interpolation, so a defect in embreg's own
sampling, composition or report cannot hide in the numbers it reports.
"""

from __future__ import annotations

import hashlib

import numpy as np
from scipy import ndimage


def interpolate(field: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Trilinear sample of a (D,H,W,C) field at (...,3) points, border clamped."""
    dims = np.array(field.shape[:3])
    coords = np.clip(points.reshape(-1, 3), 0.0, dims - 1.0).T
    channels = [
        ndimage.map_coordinates(field[..., c], coords, order=1, mode="nearest")
        for c in range(field.shape[3])
    ]
    return np.stack(channels, axis=-1).reshape(points.shape[:-1] + (field.shape[3],))


def fixed_to_moving(matrix, coarse, dense, dims) -> np.ndarray:
    """Dense map ``A^-1 (y + coarse(y))`` with ``y = x + dense(x)``."""
    axes = [np.arange(d, dtype=np.float64) for d in dims]
    y = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    if dense is not None:
        y = y + dense
    if coarse is not None:
        y = y + interpolate(coarse, y)
    inv = np.linalg.inv(matrix)
    return y @ inv[:3, :3].T + inv[:3, 3]


def mean_dice(warped_labels: np.ndarray, fixed_labels: np.ndarray) -> float:
    labels = np.union1d(np.unique(warped_labels), np.unique(fixed_labels))
    scores = []
    for lab in labels[labels != 0]:
        a = warped_labels == lab
        b = fixed_labels == lab
        scores.append(2.0 * np.count_nonzero(a & b) / (np.count_nonzero(a) + np.count_nonzero(b)))
    return float(np.mean(scores)) if scores else 0.0


def warp_labels(labels: np.ndarray, phi: np.ndarray) -> np.ndarray:
    dims = np.array(labels.shape)
    idx = np.rint(np.clip(phi, 0.0, dims - 1.0)).astype(np.int64)
    return labels[idx[..., 0], idx[..., 1], idx[..., 2]]


def landmark_error(phi: np.ndarray, points_moving: np.ndarray, points_fixed: np.ndarray) -> float:
    mapped = interpolate(phi, points_fixed)
    return float(np.mean(np.linalg.norm(mapped - points_moving, axis=1)))


def folding_fraction(phi: np.ndarray) -> float:
    jac = np.empty(phi.shape[:3] + (3, 3))
    for c in range(3):
        for a, g in enumerate(np.gradient(phi[..., c])):
            jac[..., c, a] = g
    return float(np.count_nonzero(np.linalg.det(jac) <= 0.0) / np.prod(phi.shape[:3]))


def digest(*arrays) -> str:
    """Hash of the transform's arrays, to test bit-identity between runs."""
    h = hashlib.sha256()
    for arr in arrays:
        h.update(b"-" if arr is None else np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    return h.hexdigest()


def assess(matrix, coarse, dense, moving_labels, fixed_labels, landmarks) -> dict:
    """Quality of one transform: finite, mean Dice, landmark error, folding."""
    parts = [matrix] + [p for p in (coarse, dense) if p is not None]
    if not all(np.all(np.isfinite(p)) for p in parts):
        return {"finite": False, "digest": digest(matrix, coarse, dense)}
    phi = fixed_to_moving(matrix, coarse, dense, fixed_labels.shape)
    points_moving, points_fixed = landmarks
    return {
        "finite": True,
        "dice": mean_dice(warp_labels(moving_labels, phi), fixed_labels),
        "landmark": landmark_error(phi, points_moving, points_fixed),
        "folding": folding_fraction(phi),
        "digest": digest(matrix, coarse, dense),
    }
