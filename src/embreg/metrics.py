"""Evaluation metrics: Dice overlap, NCC/LNCC similarity, landmark error."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .errors import DegenerateIntensity, PairingError, ShapeMismatch

_VAR_EPS = 1e-12
LNCC_WINDOW = 9  # voxels per side of the instance loss's LNCC window


@dataclass
class RegistrationReport:
    per_label_dice: dict[int, float] = field(default_factory=dict)
    mean_dice: float | None = None
    folding_fraction: float | None = None
    mean_landmark_error: float | None = None
    stage_timings: dict[str, float] = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(
            {
                "per_label_dice": {str(k): v for k, v in self.per_label_dice.items()},
                "mean_dice": self.mean_dice,
                "folding_fraction": self.folding_fraction,
                "mean_landmark_error": self.mean_landmark_error,
                "stage_timings": self.stage_timings,
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "RegistrationReport":
        data = json.loads(text)
        return cls(
            per_label_dice={int(k): float(v) for k, v in data.get("per_label_dice", {}).items()},
            mean_dice=data.get("mean_dice"),
            folding_fraction=data.get("folding_fraction"),
            mean_landmark_error=data.get("mean_landmark_error"),
            stage_timings=data.get("stage_timings", {}),
        )

    def format_table(self) -> str:
        lines = [f"{'metric':<24}{'value':>14}"]
        for label in sorted(self.per_label_dice):
            lines.append(f"{f'dice[{label}]':<24}{self.per_label_dice[label]:>14.6f}")
        if self.mean_dice is not None:
            lines.append(f"{'mean_dice':<24}{self.mean_dice:>14.6f}")
        if self.folding_fraction is not None:
            lines.append(f"{'folding_fraction':<24}{self.folding_fraction:>14.6f}")
        if self.mean_landmark_error is not None:
            lines.append(f"{'mean_landmark_error':<24}{self.mean_landmark_error:>14.6f}")
        for stage in sorted(self.stage_timings):
            lines.append(f"{f'time[{stage}] (s)':<24}{self.stage_timings[stage]:>14.3f}")
        return "\n".join(lines)


def dice(warped_labels, fixed_labels) -> tuple[dict[int, float], float]:
    """Per-label and mean Dice over all nonzero labels present in either volume.

    A label present in exactly one volume scores 0; labels absent from
    both are omitted.
    """
    w = np.asarray(warped_labels)
    f = np.asarray(fixed_labels)
    if w.shape != f.shape:
        raise ShapeMismatch(f"label volumes differ: {w.shape} vs {f.shape}")
    labels = np.union1d(np.unique(w), np.unique(f))
    labels = labels[labels != 0]
    per_label: dict[int, float] = {}
    for lab in labels:
        wm = w == lab
        fm = f == lab
        denom = int(wm.sum()) + int(fm.sum())
        inter = int(np.count_nonzero(wm & fm))
        per_label[int(lab)] = 2.0 * inter / denom if denom else 0.0
    mean = float(np.mean(list(per_label.values()))) if per_label else 0.0
    return per_label, mean


def ncc(a, b) -> float:
    """Pearson correlation of two equally shaped intensity volumes."""
    return ncc_gradient(a, b)[0]


def ncc_gradient(a, b) -> tuple[float, np.ndarray]:
    """NCC value and its gradient with respect to ``a``."""
    av = np.asarray(a, dtype=np.float64)
    bv = np.asarray(b, dtype=np.float64)
    if av.shape != bv.shape:
        raise ShapeMismatch(f"volumes differ: {av.shape} vs {bv.shape}")
    az = av - av.mean()
    bz = bv - bv.mean()
    saa = float(np.sum(az * az))
    sbb = float(np.sum(bz * bz))
    if saa <= _VAR_EPS or sbb <= _VAR_EPS:
        raise DegenerateIntensity("zero variance volume in NCC")
    denom = np.sqrt(saa * sbb)
    value = float(np.sum(az * bz) / denom)
    grad = bz / denom - value * az / saa
    return value, grad


def _box_sum(arr: np.ndarray, window: int) -> np.ndarray:
    """Sum over the window intersected with the volume (border truncation)."""
    out = arr
    for axis in range(arr.ndim):
        out = ndimage.uniform_filter1d(out, size=window, axis=axis, mode="constant", cval=0.0)
    return out * float(window**arr.ndim)


def _lncc_stats(a: np.ndarray, b: np.ndarray, window: int):
    ones = np.ones_like(a)
    n = _box_sum(ones, window)
    mean_a = _box_sum(a, window) / n
    mean_b = _box_sum(b, window) / n
    saa = _box_sum(a * a, window) - n * mean_a * mean_a
    sbb = _box_sum(b * b, window) - n * mean_b * mean_b
    sab = _box_sum(a * b, window) - n * mean_a * mean_b
    good = (saa > _VAR_EPS) & (sbb > _VAR_EPS)
    denom = np.sqrt(np.where(good, saa * sbb, 1.0))
    corr = np.where(good, sab / denom, 0.0)
    return corr, good, denom, saa, mean_a, mean_b


def lncc(a, b, window: int = LNCC_WINDOW) -> float:
    """Mean of windowed NCC; degenerate (zero-variance) windows contribute 0."""
    return lncc_gradient(a, b, window)[0]


def lncc_gradient(a, b, window: int = LNCC_WINDOW) -> tuple[float, np.ndarray]:
    """Mean windowed NCC and its gradient with respect to ``a``.

    Each voxel participates in every window containing it; the per-window
    terms are accumulated with truncated box sums.
    """
    av = np.asarray(a, dtype=np.float64)
    bv = np.asarray(b, dtype=np.float64)
    if av.shape != bv.shape:
        raise ShapeMismatch(f"volumes differ: {av.shape} vs {bv.shape}")
    if window < 3 or window % 2 == 0:
        raise ShapeMismatch(f"window must be odd and >= 3, got {window}")
    corr, good, denom, saa, mean_a, mean_b = _lncc_stats(av, bv, window)
    value = float(corr.mean())
    inv_d = np.where(good, 1.0 / denom, 0.0)
    c_over_saa = np.where(good, corr / np.where(good, saa, 1.0), 0.0)
    grad = (
        bv * _box_sum(inv_d, window)
        - _box_sum(mean_b * inv_d, window)
        - av * _box_sum(c_over_saa, window)
        + _box_sum(mean_a * c_over_saa, window)
    ) / av.size
    return value, grad


def landmark_error(points_moving, points_fixed, mapping, spacing=(1.0, 1.0, 1.0)) -> float:
    """Mean Euclidean distance between mapped fixed points and moving points.

    ``mapping`` is a callable taking ``(N, 3)`` fixed-grid coordinates and
    returning the corresponding moving-grid coordinates. Distances are
    scaled per axis by ``spacing`` so the result is in length units.
    """
    pm = np.asarray(points_moving, dtype=np.float64)
    pf = np.asarray(points_fixed, dtype=np.float64)
    if pm.shape != pf.shape or pm.ndim != 2 or pm.shape[1] != 3:
        raise PairingError(f"point lists must pair by index: {pm.shape} vs {pf.shape}")
    mapped = np.asarray(mapping(pf), dtype=np.float64)
    if mapped.shape != pm.shape:
        raise PairingError(f"mapping returned shape {mapped.shape}, expected {pm.shape}")
    delta = (mapped - pm) * np.asarray(spacing, dtype=np.float64)
    return float(np.mean(np.linalg.norm(delta, axis=1)))
