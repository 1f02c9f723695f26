"""Evaluation metrics: Dice overlap, NCC/LNCC similarity, landmark error."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields

import numpy as np
from scipy import ndimage

from .errors import DegenerateIntensity, PairingError, ShapeMismatch

_VAR_EPS = 1e-12
_TOO_LARGE = "intensities too large for a correlation: a variance sum overflows"
LNCC_WINDOW = 9  # voxels per side of the instance loss's LNCC window


@dataclass
class RegistrationReport:
    per_label_dice: dict[int, float] = field(default_factory=dict)
    mean_dice: float | None = None
    folding_fraction: float | None = None
    mean_landmark_error: float | None = None
    stage_timings: dict[str, float] = field(default_factory=dict)

    def to_json(self) -> str:
        data = asdict(self)
        data["per_label_dice"] = {str(k): v for k, v in self.per_label_dice.items()}
        return json.dumps(data, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "RegistrationReport":
        data = json.loads(text)
        report = cls(**{f.name: data[f.name] for f in fields(cls) if f.name in data})
        report.per_label_dice = {int(k): float(v) for k, v in report.per_label_dice.items()}
        return report

    def format_table(self) -> str:
        lines = [f"{'metric':<24}{'value':>14}"]
        for label in sorted(self.per_label_dice):
            lines.append(f"{f'dice[{label}]':<24}{self.per_label_dice[label]:>14.6f}")
        for name in ("mean_dice", "folding_fraction", "mean_landmark_error"):
            if getattr(self, name) is not None:
                lines.append(f"{name:<24}{getattr(self, name):>14.6f}")
        for stage in sorted(self.stage_timings):
            lines.append(f"{f'time[{stage}] (s)':<24}{self.stage_timings[stage]:>14.3f}")
        return "\n".join(lines)


def check_labels(labels) -> np.ndarray:
    """``labels`` as an array; a value that is not a finite integer raises ShapeMismatch."""
    arr = np.asarray(labels)
    if arr.dtype.kind not in "biu" and not np.all(np.isfinite(arr) & (arr == np.round(arr))):
        raise ShapeMismatch("labels must be finite integer values")
    return arr


def dice(warped_labels, fixed_labels) -> tuple[dict[int, float], float]:
    """Per-label and mean Dice over all nonzero labels present in either volume.

    A label present in exactly one volume scores 0; labels absent from
    both are omitted. Labels must be finite integer values (:func:`check_labels`).
    """
    w = check_labels(warped_labels)
    f = check_labels(fixed_labels)
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
    with np.errstate(over="ignore", invalid="ignore"):
        az = av - av.mean()
        bz = bv - bv.mean()
        saa = float(np.sum(az * az))
        sbb = float(np.sum(bz * bz))
        product = saa * sbb
    if not np.isfinite(product):
        raise DegenerateIntensity(_TOO_LARGE)
    if saa <= _VAR_EPS or sbb <= _VAR_EPS:
        raise DegenerateIntensity("zero variance volume in NCC")
    denom = np.sqrt(product)
    value = float(np.sum(az * bz) / denom)
    grad = bz / denom - value * az / saa
    return value, grad


def _box_sum(arr: np.ndarray) -> np.ndarray:
    """Sum over the :data:`LNCC_WINDOW` box intersected with the volume (border truncation)."""
    return ndimage.uniform_filter(arr, size=LNCC_WINDOW, mode="constant") * float(LNCC_WINDOW**arr.ndim)


@dataclass(frozen=True)
class LnccFixed:
    """A fixed volume and the :data:`LNCC_WINDOW` sums that depend on it alone.

    Made by :func:`lncc_fixed` and passed to :func:`lncc_gradient`, so a
    descent that compares many warped volumes against one fixed volume
    computes these sums once.
    """

    volume: np.ndarray
    count: np.ndarray  # voxels in each truncated window
    mean: np.ndarray
    centred: np.ndarray  # sum of squared deviations from the window mean


def lncc_fixed(b) -> LnccFixed:
    """The window sums of ``b`` that :func:`lncc_gradient` needs, for reuse across calls."""
    bv = np.asarray(b, dtype=np.float64)
    # The three sums outlive many evaluations; one block holds them, which
    # fragments the heap less than three separate arrays.
    sums = np.empty((3,) + bv.shape)
    n, mean_b, sbb = sums
    n[...] = _box_sum(np.ones_like(bv))
    with np.errstate(over="ignore", invalid="ignore"):
        np.divide(_box_sum(bv), n, out=mean_b)
        sbb[...] = _box_sum(bv * bv) - n * mean_b * mean_b
    if not np.isfinite(sbb).all():
        raise DegenerateIntensity(_TOO_LARGE)
    return LnccFixed(bv, n, mean_b, sbb)


def lncc(a, b) -> float:
    """Mean NCC over :data:`LNCC_WINDOW` boxes; degenerate (zero-variance) windows contribute 0."""
    return lncc_gradient(a, lncc_fixed(b))[0]


def lncc_gradient(a, fixed: LnccFixed) -> tuple[float, np.ndarray]:
    """Mean windowed NCC of ``a`` against ``fixed`` and its gradient with respect to ``a``.

    Each voxel participates in every window containing it; the per-window
    terms are accumulated with box sums over :data:`LNCC_WINDOW` voxels a
    side, truncated at the border. ``fixed`` comes from :func:`lncc_fixed`.
    """
    av = np.asarray(a, dtype=np.float64)
    bv, n, mean_b, sbb = fixed.volume, fixed.count, fixed.mean, fixed.centred
    if av.shape != bv.shape:
        raise ShapeMismatch(f"volumes differ: {av.shape} vs {bv.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        mean_a = _box_sum(av) / n
        saa = _box_sum(av * av) - n * mean_a * mean_a
        product = saa * sbb
    if not np.isfinite(product).all():
        raise DegenerateIntensity(_TOO_LARGE)
    sab = _box_sum(av * bv) - n * mean_a * mean_b
    good = (saa > _VAR_EPS) & (sbb > _VAR_EPS)
    denom = np.sqrt(np.where(good, product, 1.0))
    corr = np.where(good, sab / denom, 0.0)
    value = float(corr.mean())
    inv_d = np.where(good, 1.0 / denom, 0.0)
    c_over_saa = np.where(good, corr / np.where(good, saa, 1.0), 0.0)
    grad = (
        bv * _box_sum(inv_d)
        - _box_sum(mean_b * inv_d)
        - av * _box_sum(c_over_saa)
        + _box_sum(mean_a * c_over_saa)
    ) / av.size
    return value, grad


def landmark_error(points_moving, points_fixed, mapping, spacing=(1.0, 1.0, 1.0)) -> float:
    """Mean Euclidean distance between mapped fixed points and moving points.

    ``mapping`` is a callable taking ``(N, 3)`` fixed-grid coordinates and
    returning the corresponding moving-grid coordinates. Distances are
    scaled per axis by ``spacing``, the moving grid's, so the result is in
    length units.
    """
    pm = np.asarray(points_moving, dtype=np.float64)
    pf = np.asarray(points_fixed, dtype=np.float64)
    if pm.shape != pf.shape or pm.ndim != 2 or pm.shape[1] != 3:
        raise PairingError(f"point lists must pair by index: {pm.shape} vs {pf.shape}")
    if len(pm) == 0:
        raise PairingError("no landmark pairs")
    mapped = np.asarray(mapping(pf), dtype=np.float64)
    if mapped.shape != pm.shape:
        raise PairingError(f"mapping returned shape {mapped.shape}, expected {pm.shape}")
    delta = (mapped - pm) * np.asarray(spacing, dtype=np.float64)
    return float(np.mean(np.linalg.norm(delta, axis=1)))
