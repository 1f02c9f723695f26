"""Synthetic atlases and ground-truth warps for end-to-end testing.

All randomness comes from a counter-based 64-bit generator (splitmix64
finalizer applied to ``seed``-and-``stream`` derived counters), so every
output is a pure, bit-reproducible function of the seed on any platform.
Smoothing uses a separable triangular kernel (two box passes), which is
exactly computable with no truncation ambiguity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .affine import AffineTransform, apply_affine, invert_affine
from .bundle import Bundle
from .errors import ShapeMismatch
from .grid import identity_grid, normalize_features, trilinear_sample, warp_features, warp_labels, warp_scalar
from .transform import integrate_svf

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_STREAM_SALT = np.uint64(0xD1B54A32D192ED03)


def _splitmix(x: np.ndarray) -> np.ndarray:
    z = x.astype(np.uint64, copy=True)
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def noise(seed: int, stream: int, shape) -> np.ndarray:
    """Deterministic i.i.d. noise in ``[-1, 1)``.

    Value ``i`` of stream ``k`` is ``splitmix64(base_k + (i+1)*golden)``
    mapped to a float via its top 53 bits; ``base_k`` mixes the seed with
    the stream id.
    """
    seed_arr = np.array([seed & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    stream_arr = np.array([stream & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    base = _splitmix(seed_arr ^ (stream_arr * _STREAM_SALT))[0]
    count = int(np.prod(shape))
    idx = np.arange(1, count + 1, dtype=np.uint64)
    z = _splitmix(base + idx * _GOLDEN)
    u = (z >> np.uint64(11)).astype(np.float64) * (2.0**-53)
    return (2.0 * u - 1.0).reshape(shape)


def triangular_smooth(arr: np.ndarray, radius: int) -> np.ndarray:
    """Separable triangular smoothing of the given radius via two box passes.

    Two passes of an odd box of size ``s`` give a triangle of radius
    ``s - 1``; odd radii round up so the kernel stays symmetric.
    """
    if radius < 1:
        return np.asarray(arr, dtype=np.float64)
    size = 2 * ((int(radius) + 1) // 2) + 1
    out = np.asarray(arr, dtype=np.float64)
    for _ in range(2):
        for axis in range(out.ndim):
            out = ndimage.uniform_filter1d(out, size=size, axis=axis, mode="nearest")
    return out


@dataclass
class SynthSpec:
    dims: tuple[int, int, int] = (24, 24, 24)
    channels: int = 16
    feature_smoothness: float = 2.0
    warp_amplitude: float = 2.0
    warp_smoothness: float = 4.0
    label_count: int = 3
    seed: int = 0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.feature_smoothness, self.warp_smoothness, self.warp_amplitude))):
            raise ShapeMismatch("smoothness and warp amplitude must be finite")
        if self.feature_smoothness <= 0 or self.warp_smoothness <= 0:
            raise ShapeMismatch("smoothness parameters must be > 0")
        if self.warp_amplitude < 0:
            raise ShapeMismatch("warp amplitude must be >= 0")
        if self.channels < 4:
            raise ShapeMismatch("need at least 4 feature channels")
        if not 1 <= self.label_count <= 65535:
            raise ShapeMismatch(f"need 1 to 65535 labels (stored as u16), got {self.label_count}")
        # A smoothing pass costs time and memory in proportion to its radius.
        if math.ceil(max(self.feature_smoothness, self.warp_smoothness)) > max(self.dims):
            raise ShapeMismatch(f"smoothness radius must not exceed the longest axis of {self.dims}")


def make_atlas(spec: SynthSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Features, labels, and intensity volumes, all seeded from the spec.

    Features are smoothed per-channel noise, unit-normalized per voxel.
    Labels are nested concentric ellipsoids; intensity is smoothed noise
    plus a per-label offset.
    """
    dims = spec.dims
    radius = int(math.ceil(spec.feature_smoothness))
    channels = [
        triangular_smooth(noise(spec.seed, 100 + c, dims), radius)
        for c in range(spec.channels)
    ]
    features = normalize_features(np.stack(channels, axis=-1))

    center = np.array(dims, dtype=np.float64) / 2.0
    center += 0.05 * np.array(dims) * np.array(
        [noise(spec.seed, 1000 + a, (1,))[0] for a in range(3)]
    )
    radii = 0.42 * np.array(dims, dtype=np.float64) * (
        1.0
        + 0.15 * np.array([noise(spec.seed, 1100 + a, (1,))[0] for a in range(3)])
    )
    grid = identity_grid(dims)
    rho = np.sqrt(np.sum(((grid - center) / radii) ** 2, axis=-1))
    labels = np.where(
        rho >= 1.0,
        0,
        np.minimum(spec.label_count, np.floor((1.0 - rho) * spec.label_count).astype(np.int64) + 1),
    ).astype(np.int64)

    intensity = 0.3 * triangular_smooth(noise(spec.seed, 2000, dims), radius)
    intensity = intensity + labels.astype(np.float64)
    return features, labels, intensity


def random_smooth_warp(spec: SynthSpec) -> np.ndarray:
    """Smooth seeded velocity field scaled to the requested max amplitude."""
    if spec.warp_amplitude == 0.0:
        return np.zeros(spec.dims + (3,))
    radius = int(math.ceil(spec.warp_smoothness))
    comps = [
        triangular_smooth(noise(spec.seed, 3000 + a, spec.dims), radius) for a in range(3)
    ]
    v = np.stack(comps, axis=-1)
    peak = float(np.max(np.abs(v)))
    if peak > 0.0:
        v *= spec.warp_amplitude / peak
    return v


def make_pair(
    features: np.ndarray,
    labels: np.ndarray,
    intensity: np.ndarray,
    velocity: np.ndarray,
    affine: AffineTransform,
) -> tuple[Bundle, Bundle, np.ndarray]:
    """Fixed bundle (the atlas), a deformed moving bundle, and the ground truth.

    The ground-truth fixed-to-moving map is ``A^-1 (x + d(x))`` with ``d``
    the velocity integrated with :data:`~embreg.transform.SVF_STEPS`
    squarings. The moving bundle is the atlas resampled through (the
    approximate inverse of) that map so that pulling the moving bundle back
    through the ground truth reproduces the atlas. Both bundles have unit
    spacing.
    """
    dims = np.asarray(features).shape[:3]
    if np.asarray(velocity).shape[:3] != dims:
        raise ShapeMismatch("velocity grid differs from atlas grid")
    disp = integrate_svf(velocity)
    grid = identity_grid(dims)
    gt_map = apply_affine(invert_affine(affine), grid + disp)

    inv_disp = integrate_svf(-np.asarray(velocity, dtype=np.float64))
    fwd = apply_affine(affine, grid)
    moving_map = fwd + trilinear_sample(inv_disp, fwd)

    moving = Bundle(
        features=warp_features(features, moving_map),
        intensity=warp_scalar(intensity, moving_map),
        labels=warp_labels(labels, moving_map),
    )
    fixed = Bundle(
        features=features,
        intensity=intensity,
        labels=np.asarray(labels),
    )
    return moving, fixed, gt_map
