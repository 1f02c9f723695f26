"""Grouping of the per-image inputs a registration consumes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .container import _bad_spacing
from .errors import ShapeMismatch
from .matching import check_unit_or_zero
from .metrics import check_labels


@dataclass(frozen=True)
class Bundle:
    """Feature map plus intensity (and optional labels) on one grid.

    ``features`` and ``intensity`` are stored as C-contiguous float64: a
    contiguous float64 input is kept as is, any other is copied once here,
    so the kernels reshape them into views instead of copying per call.
    Each feature vector must be unit-norm or zero (see
    :func:`~embreg.matching.check_unit_or_zero`). ``labels``, when given,
    must hold finite integer values, and ``spacing`` must be three finite,
    positive numbers. The bundle is frozen: the instance stage relies on
    these checks and does not repeat them.
    """

    features: np.ndarray
    intensity: np.ndarray
    labels: np.ndarray | None = None
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self):
        f = np.ascontiguousarray(self.features, dtype=np.float64)
        i = np.ascontiguousarray(self.intensity, dtype=np.float64)
        if f.ndim != 4:
            raise ShapeMismatch(f"features must be (D,H,W,C), got {f.shape}")
        if f.size == 0:
            raise ShapeMismatch(f"feature map must not be empty: {f.shape}")
        if i.shape != f.shape[:3]:
            raise ShapeMismatch(f"intensity grid {i.shape} != feature grid {f.shape[:3]}")
        if self.labels is not None and check_labels(self.labels).shape != f.shape[:3]:
            raise ShapeMismatch("label grid differs from feature grid")
        if not (np.all(np.isfinite(f)) and np.all(np.isfinite(i))):
            raise ShapeMismatch("non-finite features or intensity")
        if _bad_spacing(self.spacing):
            raise ShapeMismatch(f"spacing must be three finite, positive numbers, got {self.spacing!r}")
        check_unit_or_zero(f)
        object.__setattr__(self, "features", f)
        object.__setattr__(self, "intensity", i)

    @property
    def dims(self) -> tuple[int, int, int]:
        return tuple(self.features.shape[:3])
