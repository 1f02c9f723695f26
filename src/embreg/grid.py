"""Voxel grids, trilinear sampling, and warping primitives.

Conventions used throughout the package:

* Volumes are numpy arrays indexed ``[z, y, x]`` with dims ``(D, H, W)``.
* Vector-valued fields carry their channels last: ``(D, H, W, C)``.
* Continuous coordinates are in voxel units with the origin at voxel
  ``(0, 0, 0)``; physical spacing is metadata only.
* Sampling outside the grid clamps to the boundary (border replication).
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy import sparse

from .errors import InvalidCoordinate, ShapeMismatch

# Interpolated feature vectors with a norm below this are masked to zero.
MASK_NORM_EPS = 1e-8


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.shape[-1] != 3:
        raise InvalidCoordinate(f"points must have 3 components, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise InvalidCoordinate("non-finite sampling coordinate")
    return pts


def _as_field(field) -> np.ndarray:
    """A scalar volume or channels-last field as a ``(D, H, W, C)`` float array."""
    arr = np.asarray(field, dtype=np.float64)
    if arr.ndim == 3:
        arr = arr[..., None]
    if arr.ndim != 4:
        raise ShapeMismatch(f"field must be (D,H,W) or (D,H,W,C), got {arr.shape}")
    return arr


# Bytes of float64 ``(rows, C)`` values per row block in ``Stencil.vjp``,
# :func:`trilinear_sample` and :func:`normalize_rows` (2048 rows at 16
# channels), so a block's temporaries stay in a per-core L2 cache instead of
# streaming whole-grid arrays, and their size does not grow with the grid.
_GATHER_BYTES = 256 << 10


def row_blocks(rows: int, channels: int) -> list[slice]:
    """Slices of at most ``_GATHER_BYTES`` of float64 ``(rows, channels)`` values."""
    step = max(1, _GATHER_BYTES // (8 * max(channels, 1)))
    return [slice(start, start + step) for start in range(0, rows, step)]


def normalize_rows(flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scale each row of a float64 ``(n, C)`` array to unit norm, in place.

    Rows whose norm is below ``MASK_NORM_EPS`` become masked zeros. Returns
    ``(safe, masked)``: each row's norm as an ``(n, 1)`` column, 1 where it
    is 0, and the ``(n,)`` masked rows. Works one :func:`row_blocks` block
    at a time, with the same per-row arithmetic as ``np.linalg.norm``.
    """
    safe = np.empty((flat.shape[0], 1))
    masked = np.empty(flat.shape[0], dtype=bool)
    for block in row_blocks(*flat.shape):
        rows = flat[block]
        norms = np.sqrt(np.add.reduce(rows * rows, axis=-1, keepdims=True))
        masked[block] = norms[:, 0] < MASK_NORM_EPS
        norms[norms == 0.0] = 1.0
        rows /= norms
        rows[masked[block]] = 0.0
        safe[block] = norms
    return safe, masked


# Stencil.vjp dots fields of at most this many channels as per-channel
# products; at 3 channels ``np.einsum`` took about twice as long per block.
_PRODUCT_CHANNELS = 3

_CORNERS = np.array(list(itertools.product((0, 1), repeat=3)), dtype=np.int32)  # (8, 3): (dz, dy, dx)


class Stencil:
    """The 8-corner trilinear stencil of a set of points on a ``(D, H, W)`` grid.

    Points outside the grid are clamped to the boundary; an axis of the grid
    with no voxel raises :class:`~embreg.errors.ShapeMismatch`. ``matrix`` is
    the ``(n, D*H*W)`` CSR interpolation matrix, 8 entries a row: sampling is
    ``matrix @ F`` and the adjoint scatter ``matrix.T @ G``. ``index`` and
    ``weights`` are ``(n, 8)`` views of its column indices and values, corners
    in ``(dz, dy, dx)`` order. ``axis_weights[a]`` holds the low- and
    high-corner weights along axis ``a``. Built once per coordinate set, the
    stencil serves sampling, the vector-Jacobian product with respect to the
    points, and the adjoint scatter onto the grid.
    """

    def __init__(self, points, dims):
        self.dims = tuple(int(d) for d in dims)
        if min(self.dims) < 1:
            raise ShapeMismatch(f"stencil grid needs >= 1 voxel per axis, got {self.dims}")
        grid = np.array(self.dims, dtype=np.int64)[:, None]
        pts = _as_points(points)
        self.shape = pts.shape[:-1]
        # (3, n) coordinates; a copy, worked on in place below.
        axes = pts.reshape(-1, 3).T.copy()
        # Derivative of the clamped coordinate: zero outside the open interior.
        self.interior = axes > 0.0
        self.interior &= axes < grid - 1.0
        clamped = np.clip(axes, 0.0, grid - 1.0, out=axes)
        base = clamped.astype(np.int32)  # floor: clamped >= 0
        np.minimum(base, np.maximum(grid - 2, 0), out=base)
        frac = np.subtract(clamped, base, out=clamped)
        # The high corner is one step up each axis, or the low corner on an axis of size 1.
        strides = np.array([self.dims[1] * self.dims[2], self.dims[2], 1], dtype=np.int32)
        corner_offsets = _CORNERS @ np.where(grid[:, 0] > 1, strides, 0)
        n = frac.shape[1]
        index = (strides @ base)[:, None] + corner_offsets
        self.axis_weights = np.empty((3, 2, n))  # (axis, low/high, n)
        np.subtract(1.0, frac, out=self.axis_weights[:, 0])
        self.axis_weights[:, 1] = frac
        del axes, clamped, base, frac  # freed before the weights are allocated
        # Corner (dz, dy, dx) weighs (wz[dz] * wy[dy]) * wx[dx].
        weights = np.einsum("zn,yn,xn->nzyx", *self.axis_weights).reshape(n, 8)
        indptr = np.arange(0, 8 * n + 1, 8, dtype=np.int32)
        self.matrix = sparse.csr_matrix(
            (weights.ravel(), index.ravel(), indptr), shape=(n, math.prod(self.dims))
        )
        self.index = self.matrix.indices.reshape(n, 8)
        self.weights = self.matrix.data.reshape(n, 8)

    def _flat(self, field) -> np.ndarray:
        arr = _as_field(field)
        if arr.shape[:3] != self.dims:
            raise ShapeMismatch(f"field grid {arr.shape[:3]} != stencil grid {self.dims}")
        return arr.reshape(-1, arr.shape[3])

    def sample(self, field) -> np.ndarray:
        """Values of a scalar volume or channels-last field at the points.

        Shaped like ``points[..., :-1]``, plus a channel axis for a vector field.
        """
        return (self.matrix @ self._flat(field)).reshape(self.shape + np.shape(field)[3:])

    def vjp(self, field, g, volume=None, g_volume=None) -> np.ndarray:
        """``d<g, sample(field)>/d(points)``, plus ``d<g_volume, sample(volume)>`` if given.

        Shaped like the points. Each corner's values are dotted with ``g`` over
        the channels before the weight derivatives apply, so the ``(n, C, 3)``
        Jacobian is never formed. A field of at most :data:`_PRODUCT_CHANNELS`
        channels (a displacement or an intensity) is dotted as a sum of
        per-channel products, a wider feature map with ``np.einsum``. A scalar
        ``volume`` on the same grid adds its corner products into the same
        dots, so it shares their derivative tail: the instance loss passes its
        sampled features, overwritten with their cotangent, and the moving
        intensity with its correlation's cotangent. The derivative is zero
        along any axis where a point is clamped (at or outside the boundary),
        matching the piecewise-linear interpolant. ``g`` and ``g_volume`` are
        shaped like the samples and read one :func:`row_blocks` block at a time.
        """
        flat = self._flat(field)
        channels = flat.shape[1]
        g_rows = np.asarray(g, dtype=np.float64).reshape(len(self.index), channels)
        if volume is not None:
            values = self._flat(volume)
            if values.shape[1] != 1:
                raise ShapeMismatch(f"volume must be scalar, got {values.shape[1]} channels")
            values = values[:, 0]
            g_values = np.asarray(g_volume, dtype=np.float64).reshape(len(self.index))
        dots = np.empty((8, len(self.index)))
        for block in row_blocks(len(self.index), channels):
            g_block = g_rows[block]
            for k in range(8):
                corner = flat.take(self.index[block, k], axis=0)
                if channels > _PRODUCT_CHANNELS:
                    dot = np.einsum("nc,nc->n", corner, g_block, out=dots[k, block])
                else:
                    dot = np.multiply(corner[:, 0], g_block[:, 0], out=dots[k, block])
                    for c in range(1, channels):
                        dot += corner[:, c] * g_block[:, c]
                if volume is not None:
                    dot += values.take(self.index[block, k]) * g_values[block]
        # d(weight)/d(coordinate) is -1 for the low and +1 for the high corner
        # along that axis, times the other two axes' weights.
        d = dots.reshape(2, 2, 2, -1)
        wz, wy, wx = self.axis_weights
        grad = np.stack(
            [
                np.einsum("yn,xn,yxn->n", wy, wx, d[1] - d[0]),
                np.einsum("zn,xn,zxn->n", wz, wx, d[:, 1] - d[:, 0]),
                np.einsum("zn,yn,zyn->n", wz, wy, d[:, :, 1] - d[:, :, 0]),
            ]
        )
        grad *= self.interior
        return grad.T.reshape(self.shape + (3,))

    def adjoint(self, g) -> np.ndarray:
        """Transpose of :meth:`sample`: scatter ``g`` (shaped like the samples) onto the grid."""
        g = np.asarray(g, dtype=np.float64)
        channels = g.shape[len(self.shape):]
        out = self.matrix.T @ g.reshape(len(self.index), math.prod(channels))
        return out.reshape(self.dims + channels)


def trilinear_sample(field, points):
    """Sample a scalar volume or channels-last vector field at continuous points.

    Coordinates outside the grid are clamped to the boundary. Returns an
    array shaped like ``points[..., :-1]`` (plus a channel axis for vector
    fields). Builds one :class:`Stencil` per :func:`row_blocks` block of
    points, so a one-off sample never holds a whole-grid stencil.
    """
    arr = _as_field(field)
    pts = _as_points(points)
    rows = pts.reshape(-1, 3)
    out = np.empty((len(rows), arr.shape[3]))
    for block in row_blocks(len(rows), arr.shape[3]):
        out[block] = Stencil(rows[block], arr.shape[:3]).sample(arr)
    return out.reshape(pts.shape[:-1] + np.shape(field)[3:])


def trilinear_sample_with_grad(field, points):
    """Like :func:`trilinear_sample` but also returns d(value)/d(coordinate).

    The gradient has shape ``points.shape`` for a scalar volume and
    ``points.shape[:-1] + (C, 3)`` for a vector field; it is zero along any
    axis where the point is clamped (at or outside the boundary).
    """
    arr = _as_field(field)
    stencil = Stencil(points, arr.shape[:3])
    ones = np.ones(stencil.shape)
    grads = np.stack([stencil.vjp(arr[..., c], ones) for c in range(arr.shape[3])], axis=-2)
    return stencil.sample(field), grads[..., 0, :] if np.ndim(field) == 3 else grads


def trilinear_corners(points, dims):
    """Corner indices and weights of the trilinear stencil for each point.

    Returns ``(corners, weights)`` with shapes ``(N, 8, 3)`` int and
    ``(N, 8)``, corners in :class:`Stencil` order.
    """
    stencil = Stencil(points, dims)
    corners = np.stack(np.unravel_index(stencil.index, stencil.dims), axis=-1)
    return corners, stencil.weights


def identity_grid(dims) -> np.ndarray:
    """Dense grid of voxel coordinates, shape ``(D, H, W, 3)``."""
    d, h, w = (int(v) for v in dims)
    zz, yy, xx = np.meshgrid(
        np.arange(d, dtype=np.float64),
        np.arange(h, dtype=np.float64),
        np.arange(w, dtype=np.float64),
        indexing="ij",
    )
    return np.stack([zz, yy, xx], axis=-1)


def check_vector_field(field, name: str = "vector field") -> np.ndarray:
    """``field`` as a float array, which must be shaped ``(D, H, W, 3)`` and not be empty."""
    arr = np.asarray(field, dtype=np.float64)
    if arr.ndim != 4 or arr.shape[-1] != 3 or arr.size == 0:
        raise ShapeMismatch(f"{name} must be a non-empty (D,H,W,3) array, got {arr.shape}")
    return arr


def warp_scalar(volume, inverse_map) -> np.ndarray:
    """Pull a scalar volume back through a dense fixed-to-moving map.

    ``out[x] = trilinear_sample(volume, inverse_map[x])`` on the grid of
    the map.
    """
    m = check_vector_field(inverse_map, "inverse map")
    vol = np.asarray(volume, dtype=np.float64)
    if vol.ndim != 3:
        raise ShapeMismatch(f"volume must be (D,H,W), got {vol.shape}")
    return trilinear_sample(vol, m)


def warp_labels(labels, inverse_map) -> np.ndarray:
    """Nearest-neighbor pullback for categorical label volumes."""
    m = _as_points(check_vector_field(inverse_map, "inverse map"))
    lab = np.asarray(labels)
    if lab.ndim != 3:
        raise ShapeMismatch(f"labels must be (D,H,W), got {lab.shape}")
    dims = np.array(lab.shape, dtype=np.int64)
    idx = np.rint(np.clip(m, 0.0, dims - 1.0)).astype(np.int64)
    return lab[idx[..., 0], idx[..., 1], idx[..., 2]]


def normalize_features(vectors) -> np.ndarray:
    """Scale each per-voxel vector to unit norm; near-zero vectors become masked zeros."""
    out = np.array(vectors, dtype=np.float64)
    if out.size:
        normalize_rows(out.reshape(-1, out.shape[-1]))
    return out


def warp_features(features, inverse_map) -> np.ndarray:
    """Channel-wise trilinear warp of a feature map, re-normalized per voxel."""
    m = check_vector_field(inverse_map, "inverse map")
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 4:
        raise ShapeMismatch(f"features must be (D,H,W,C), got {feats.shape}")
    warped = trilinear_sample(feats, m)
    return normalize_features(warped)
