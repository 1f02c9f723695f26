"""Exhaustive correspondence search and stable sampling.

The matcher pairs voxels of two unit-norm feature maps by dot-product
(cosine) similarity. Stable sampling iterates forward/backward
nearest-feature searches so that surviving pairs are cycle consistent,
then a similarity threshold removes low-confidence pairs.

Each feature vector must be unit-norm or zero (masked), for the threshold
here and for the instance loss's mask alike. :func:`check_unit_or_zero`
checks this where feature maps enter: in :class:`~embreg.bundle.Bundle`
and in ``embreg match``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .container import open_atomic
from .errors import DimensionMismatch, InvalidStep, ShapeMismatch

EPSILON = 0.7  # the pipeline keeps pairs whose cosine similarity is above this

# A unit feature vector's norm may be this far from 1; an f32 round trip
# moves it by at most float32's unit roundoff, 6e-8.
UNIT_NORM_TOL = 1e-6


def check_unit_or_zero(features, where: str = "") -> None:
    """Raise :class:`ShapeMismatch` unless every channels-last vector has norm 0 or 1.

    A norm within :data:`UNIT_NORM_TOL` of 1 counts as 1; a non-finite one
    fails. ``where`` prefixes the message.
    """
    f = np.asarray(features)
    norms = np.sqrt(np.einsum("...c,...c->...", f, f))
    bad = norms.size - np.count_nonzero((norms == 0.0) | (np.abs(norms - 1.0) <= UNIT_NORM_TOL))
    if bad:
        raise ShapeMismatch(
            f"{where}feature vectors must be zero or unit-norm (within {UNIT_NORM_TOL:g}): "
            f"{bad} of {norms.size} are not"
        )


@dataclass(frozen=True)
class MatchSet:
    """Corresponding voxel pairs ``(moving, fixed)`` with similarity scores.

    ``moving`` and ``fixed`` are integer arrays of shape ``(N, 3)`` in
    ``(z, y, x)`` order on the feature grid; ``scores`` has shape ``(N,)``.
    """

    moving: np.ndarray
    fixed: np.ndarray
    scores: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.moving)
        f = np.asarray(self.fixed)
        s = np.asarray(self.scores, dtype=np.float64)
        if m.shape != f.shape or m.ndim != 2 or m.shape[1] != 3 or s.shape != (m.shape[0],):
            raise ShapeMismatch(
                f"inconsistent match arrays: {m.shape}, {f.shape}, {s.shape}"
            )
        if not np.all(np.isfinite(s)):
            raise ShapeMismatch("non-finite similarity score")
        if not (np.all(m == np.round(m)) and np.all(f == np.round(f))):
            raise ShapeMismatch("match coordinates must be integer voxel indices")
        object.__setattr__(self, "moving", m.astype(np.int64))
        object.__setattr__(self, "fixed", f.astype(np.int64))
        object.__setattr__(self, "scores", s)

    def __len__(self) -> int:
        return self.moving.shape[0]


def select_points(dims, step: int) -> np.ndarray:
    """Evenly distributed lattice of voxel coordinates.

    Offset ``floor(step/2)`` on each axis, stride ``step``, returned in
    lexicographic ``(z, y, x)`` order.
    """
    if int(step) < 1:
        raise InvalidStep(f"step must be >= 1, got {step}")
    if any(int(d) < 1 for d in dims):
        raise ShapeMismatch(f"cannot place points on an empty grid {tuple(dims)}")
    step = int(step)
    off = step // 2
    axes = [np.arange(min(off, d - 1), d, step, dtype=np.int64) for d in dims]
    zz, yy, xx = np.meshgrid(*axes, indexing="ij")
    return np.stack([zz.ravel(), yy.ravel(), xx.ravel()], axis=-1)


# Score bytes per block of the key-major search: with float64 scores a block
# holds ``_BLOCK_BYTES // (8 * V)`` key rows (32 rows at 40^3, 151 at 24^3).
# Measure page faults before shrinking it: glibc sets its mmap and trim
# thresholds from the largest block freed so far, and this block is that
# block. At 2 MB, peak RSS fell ~10 % on a 24^3 CLI run, but a 32^3 SVF run
# took 540K minor faults instead of 38K and every workload ran 10-25 % slower.
_BLOCK_BYTES = 16 << 20


def find_points(keys, feat_key, feat_query) -> np.ndarray:
    """For each key voxel, the query voxel with the most similar feature.

    Exhaustive search over the full query lattice; ties resolve to the
    lowest lexicographic ``(z, y, x)`` coordinate. Equivalent, bit for
    bit, to a sequential brute-force scan keeping the first maximum.

    Keys are scored in blocks of rows against the flattened query map and
    each row is reduced with a first-maximum ``argmax``, so a call holds
    at most ``_BLOCK_BYTES`` (16 MB) of scores, or one key row when a row
    alone is larger, whatever the number of keys.
    """
    fk = np.asarray(feat_key, dtype=np.float64)
    fq = np.asarray(feat_query, dtype=np.float64)
    if fk.ndim != 4 or fq.ndim != 4:
        raise ShapeMismatch("feature maps must be (D,H,W,C)")
    if fk.shape[-1] != fq.shape[-1]:
        raise DimensionMismatch(
            f"channel counts differ: {fk.shape[-1]} vs {fq.shape[-1]}"
        )
    if 0 in fk.shape or 0 in fq.shape:
        raise ShapeMismatch(f"feature maps must not be empty: {fk.shape}, {fq.shape}")
    keys = np.asarray(keys, dtype=np.int64)
    key_vecs = fk[keys[:, 0], keys[:, 1], keys[:, 2]]  # (N, C)
    dims = fq.shape[:3]
    query_t = fq.reshape(-1, fq.shape[-1]).T  # (C, V)
    rows = max(1, _BLOCK_BYTES // (8 * query_t.shape[1]))
    flat_idx = np.empty(len(keys), dtype=np.int64)
    for start in range(0, len(keys), rows):
        # (rows, V) scores, freed before the next block; argmax keeps the first max
        flat_idx[start:start + rows] = np.argmax(key_vecs[start:start + rows] @ query_t, axis=1)
    return np.stack(np.unravel_index(flat_idx, dims), axis=-1).astype(np.int64)


def _memo_search(feat_key, feat_query):
    """:func:`find_points` from ``feat_key`` into ``feat_query``, searching each key voxel once.

    ``best[v]`` holds the flat query index matched to flat key voxel ``v``, or
    -1 while ``v`` has not been searched; each call searches only the unique
    keys not seen before and reads the rest from ``best``.
    """
    key_dims, query_dims = feat_key.shape[:3], feat_query.shape[:3]
    best = np.full(math.prod(key_dims), -1, dtype=np.int64)

    def search(keys):
        flat = np.ravel_multi_index(keys.T, key_dims)
        todo = np.unique(flat[best[flat] < 0])
        if todo.size:
            new_keys = np.stack(np.unravel_index(todo, key_dims), axis=-1)
            found = find_points(new_keys, feat_key, feat_query)
            best[todo] = np.ravel_multi_index(found.T, query_dims)
        return np.stack(np.unravel_index(best[flat], query_dims), axis=-1)

    return search


def sscc(feat_moving, feat_fixed, step: int, iterations: int) -> MatchSet:
    """Stable sampling via cycle consistency.

    Starts from an even lattice on the moving grid and alternates
    forward/backward nearest-feature searches for up to ``iterations``
    rounds. It stops once a round's backward search returns the points
    that round started from: every later round would repeat it, so the
    result is identical to running all ``iterations`` rounds. A key's
    match depends on the key alone, so each voxel is searched at most once
    per direction and later rounds read its match from a per-direction
    lookup. Duplicate ``(moving, fixed)`` pairs are collapsed to one,
    keeping first-occurrence order.
    """
    if int(iterations) < 1:
        raise InvalidStep(f"iterations must be >= 1, got {iterations}")
    fm = np.asarray(feat_moving, dtype=np.float64)
    ff = np.asarray(feat_fixed, dtype=np.float64)
    x_m = select_points(fm.shape[:3], step)
    forward = _memo_search(fm, ff)
    backward = _memo_search(ff, fm)
    for _ in range(int(iterations)):
        x_f = forward(x_m)
        back = backward(x_f)
        if np.array_equal(back, x_m):
            break
        x_m = back

    vm = fm[x_m[:, 0], x_m[:, 1], x_m[:, 2]]
    vf = ff[x_f[:, 0], x_f[:, 1], x_f[:, 2]]
    scores = np.einsum("nc,nc->n", vm, vf)

    pairs = np.concatenate([x_m, x_f], axis=1)
    _, first = np.unique(pairs, axis=0, return_index=True)
    keep = np.sort(first)
    return MatchSet(moving=x_m[keep], fixed=x_f[keep], scores=scores[keep])


def filter_matches(matches: MatchSet, epsilon: float) -> MatchSet:
    """Keep pairs with similarity strictly above ``epsilon``; order preserved."""
    keep = matches.scores > float(epsilon)
    return MatchSet(
        moving=matches.moving[keep],
        fixed=matches.fixed[keep],
        scores=matches.scores[keep],
    )


def save_matches(matches: MatchSet, path) -> None:
    """Write one pair per line: ``zm ym xm zf yf xf score``."""
    with open_atomic(path, "w", encoding="utf-8") as fh:
        for m, f, s in zip(matches.moving, matches.fixed, matches.scores):
            fh.write(f"{m[0]} {m[1]} {m[2]} {f[0]} {f[1]} {f[2]} {s:.9g}\n")


def load_matches(path) -> MatchSet:
    coords, scores = [], []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise ShapeMismatch(f"match file is not UTF-8 text: {exc}") from exc
    for line in lines:
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 7:
            raise ShapeMismatch(f"malformed match line: {line!r}")
        try:
            coords.append([int(p) for p in parts[0:6]])
            scores.append(float(parts[6]))
        except ValueError as exc:
            raise ShapeMismatch(f"malformed match line: {line!r}") from exc
    try:
        pairs = np.array(coords, dtype=np.int64).reshape(-1, 6)
    except OverflowError:
        raise ShapeMismatch(f"{path}: a match coordinate is outside the int64 range") from None
    return MatchSet(moving=pairs[:, :3], fixed=pairs[:, 3:], scores=np.array(scores, dtype=np.float64))
