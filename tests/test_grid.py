import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embreg import grid
from embreg.errors import InvalidCoordinate, ShapeMismatch
from embreg.grid import (
    MASK_NORM_EPS,
    Stencil,
    identity_grid,
    normalize_features,
    trilinear_corners,
    trilinear_sample,
    trilinear_sample_with_grad,
    warp_features,
    warp_labels,
    warp_scalar,
)


def brute_force_trilinear(vol, point):
    """Independent 8-corner oracle with explicit clamping."""
    dims = np.array(vol.shape)
    p = np.clip(np.asarray(point, dtype=float), 0, dims - 1)
    base = np.minimum(np.floor(p).astype(int), np.maximum(dims - 2, 0))
    frac = p - base
    total = 0.0
    for dz in (0, 1):
        for dy in (0, 1):
            for dx in (0, 1):
                idx = np.minimum(base + [dz, dy, dx], dims - 1)
                w = (frac[0] if dz else 1 - frac[0]) * (frac[1] if dy else 1 - frac[1]) * (
                    frac[2] if dx else 1 - frac[2]
                )
                total += w * vol[tuple(idx)]
    return total


def test_sample_at_grid_node_returns_stored_value():
    vol = np.arange(27, dtype=float).reshape(3, 3, 3)
    assert trilinear_sample(vol, (1, 1, 1)) == vol[1, 1, 1]


def test_sample_midpoint_is_average():
    vol = np.zeros((3, 3, 3))
    vol[1, 1, 1] = 0.0
    vol[1, 1, 2] = 2.0
    assert trilinear_sample(vol, (1, 1, 1.5)) == pytest.approx(1.0)


def test_out_of_bounds_clamps_to_face():
    rng = np.random.default_rng(0)
    vol = rng.normal(size=(4, 4, 4))
    got = trilinear_sample(vol, (-0.5, 0, 0))
    assert got == pytest.approx(vol[0, 0, 0])
    assert got == pytest.approx(brute_force_trilinear(vol, (-0.5, 0, 0)))


def test_matches_brute_force_on_random_points():
    rng = np.random.default_rng(1)
    vol = rng.normal(size=(5, 6, 7))
    pts = rng.uniform(-2, 9, size=(50, 3))
    got = trilinear_sample(vol, pts)
    want = [brute_force_trilinear(vol, p) for p in pts]
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_clamped_equals_nearest_inbounds_point():
    rng = np.random.default_rng(2)
    vol = rng.normal(size=(4, 5, 6))
    dims = np.array(vol.shape, dtype=float)
    pts = rng.uniform(-4, 10, size=(40, 3))
    clamped = np.clip(pts, 0, dims - 1)
    np.testing.assert_allclose(
        trilinear_sample(vol, pts), trilinear_sample(vol, clamped), atol=1e-12
    )


def test_linearity_between_nodes():
    # exact on nodes and linear along each axis between them
    rng = np.random.default_rng(3)
    vol = rng.normal(size=(4, 4, 4))
    for axis in range(3):
        for _ in range(10):
            t = rng.uniform()
            a = np.array([1.0, 1.0, 1.0])
            b = a.copy()
            b[axis] += 1.0
            p = (1 - t) * a + t * b
            want = (1 - t) * trilinear_sample(vol, a) + t * trilinear_sample(vol, b)
            assert trilinear_sample(vol, p) == pytest.approx(want, abs=1e-12)


def test_non_finite_coordinate_rejected():
    vol = np.zeros((3, 3, 3))
    with pytest.raises(InvalidCoordinate):
        trilinear_sample(vol, (np.nan, 0, 0))
    with pytest.raises(InvalidCoordinate):
        trilinear_sample(vol, (np.inf, 1, 1))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize(
    "warp, moving",
    [
        (warp_scalar, np.zeros((3, 3, 3))),
        (warp_labels, np.ones((3, 3, 3), dtype=np.int64)),
        (warp_features, np.ones((3, 3, 3, 2)) / np.sqrt(2.0)),
    ],
    ids=["scalar", "labels", "features"],
)
def test_warps_reject_a_non_finite_map(warp, moving, bad):
    inv_map = identity_grid((3, 3, 3))
    inv_map[1, 2, 0, 1] = bad
    with pytest.raises(InvalidCoordinate):
        warp(moving, inv_map)


def test_warp_scalar_identity_map():
    rng = np.random.default_rng(4)
    vol = rng.normal(size=(5, 5, 5))
    np.testing.assert_array_equal(warp_scalar(vol, identity_grid(vol.shape)), vol)


def test_warp_scalar_integer_translation_matches_shift_oracle():
    rng = np.random.default_rng(5)
    vol = rng.normal(size=(4, 4, 4))
    inv_map = identity_grid(vol.shape)
    inv_map[..., 2] += 1.0  # pull from x+1
    warped = warp_scalar(vol, inv_map)
    np.testing.assert_allclose(warped[:, :, :-1], vol[:, :, 1:], atol=1e-12)
    # border column replicated
    np.testing.assert_allclose(warped[:, :, -1], vol[:, :, -1], atol=1e-12)


def test_warp_scalar_constant_map_gives_constant_volume():
    rng = np.random.default_rng(6)
    vol = rng.normal(size=(4, 4, 4))
    inv_map = np.broadcast_to(np.array([2.0, 1.0, 2.0]), (4, 4, 4, 3)).copy()
    warped = warp_scalar(vol, inv_map)
    np.testing.assert_allclose(warped, vol[2, 1, 2], atol=1e-12)


def test_warp_scalar_rejects_bad_map_shape():
    with pytest.raises(ShapeMismatch):
        warp_scalar(np.zeros((3, 3, 3)), np.zeros((3, 3, 3, 2)))


def test_warp_features_identity_reproduces_input():
    rng = np.random.default_rng(7)
    feats = normalize_features(rng.normal(size=(4, 4, 4, 6)))
    out = warp_features(feats, identity_grid((4, 4, 4)))
    np.testing.assert_allclose(out, feats, atol=1e-12)


def test_warp_features_output_unit_norm_or_masked():
    rng = np.random.default_rng(8)
    feats = normalize_features(rng.normal(size=(5, 5, 5, 4)))
    inv_map = identity_grid((5, 5, 5)) + rng.normal(scale=0.7, size=(5, 5, 5, 3))
    out = warp_features(feats, inv_map)
    norms = np.linalg.norm(out, axis=-1)
    assert np.all((np.abs(norms - 1) < 1e-12) | (norms == 0))


def test_warp_features_midpoint_of_orthogonal_vectors():
    feats = np.zeros((1, 1, 2, 2))
    feats[0, 0, 0] = [1.0, 0.0]
    feats[0, 0, 1] = [0.0, 1.0]
    inv_map = np.array([[[[0.0, 0.0, 0.5]]]])
    out = warp_features(feats, inv_map)[0, 0, 0]
    assert np.linalg.norm(out) == pytest.approx(1.0)
    assert np.dot(out, [1, 0]) == pytest.approx(1 / np.sqrt(2))
    assert np.dot(out, [0, 1]) == pytest.approx(1 / np.sqrt(2))


def _coordinate(d: int, smooth: bool):
    """One coordinate on an axis of ``d`` voxels; past every face by default.

    With ``smooth`` it stays at least 0.1 from every grid line and face (or
    anywhere on an axis of size 1, which clamps to a constant), so the
    interpolant is linear around it, including clamped coordinates outside.
    """
    if not smooth:
        return st.floats(-2.0, d + 1.0)
    if d == 1:
        return st.floats(-2.0, 2.0)
    inside = st.builds(lambda i, f: i + f, st.integers(0, d - 2), st.floats(0.1, 0.9))
    return st.one_of(inside, st.floats(-2.0, -0.1), st.floats(d - 0.9, d + 1.0))


@st.composite
def stencil_cases(draw, smooth=False):
    """A grid (axes of size 1 and 2 included), points on it, and a seed for field values."""
    dims = draw(st.tuples(*[st.integers(1, 5)] * 3))
    channels = draw(st.sampled_from([None, 1, 3, 4]))
    n = draw(st.integers(1, 6))
    coords = [[draw(_coordinate(d, smooth)) for d in dims] for _ in range(n)]
    return dims, channels, np.array(coords), draw(st.integers(0, 2**32 - 1))


def _random_field(rng, dims, channels):
    return rng.normal(size=dims if channels is None else dims + (channels,))


@settings(max_examples=150, deadline=None)
@given(stencil_cases())
def test_stencil_adjoint_is_transpose_of_sample(case):
    dims, channels, pts, seed = case
    rng = np.random.default_rng(seed)
    stencil = Stencil(pts, dims)
    u = _random_field(rng, dims, channels)
    g = rng.normal(size=stencil.sample(u).shape)
    lhs = np.sum(stencil.sample(u) * g)
    rhs = np.sum(u * stencil.adjoint(g))
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(stencil_cases(smooth=True))
def test_stencil_vjp_matches_central_differences(case):
    dims, channels, pts, seed = case
    rng = np.random.default_rng(seed)
    field = _random_field(rng, dims, channels)
    stencil = Stencil(pts, dims)
    g = rng.normal(size=stencil.sample(field).shape)
    per_point = (lambda v: v) if channels is None else (lambda v: np.sum(v, axis=-1))
    h = 1e-6
    fd = np.empty_like(pts)
    for a in range(3):
        step = np.zeros(3)
        step[a] = h
        up = per_point(trilinear_sample(field, pts + step) * g)
        down = per_point(trilinear_sample(field, pts - step) * g)
        fd[:, a] = (up - down) / (2 * h)
    got = stencil.vjp(field, g)
    np.testing.assert_allclose(got, fd, atol=1e-7)
    # The public Jacobian wrapper contracts to the same product.
    _, jac = trilinear_sample_with_grad(field, pts)
    contracted = jac * g[:, None] if channels is None else np.einsum("nca,nc->na", jac, g)
    np.testing.assert_allclose(contracted, got, atol=1e-12)


@settings(max_examples=150, deadline=None)
@given(stencil_cases())
def test_stencil_sample_matches_brute_force(case):
    dims, _, pts, seed = case
    vol = np.random.default_rng(seed).normal(size=dims)
    got = Stencil(pts, dims).sample(vol)
    np.testing.assert_allclose(got, [brute_force_trilinear(vol, p) for p in pts], atol=1e-12)
    corners, weights = trilinear_corners(pts, dims)
    by_corners = np.sum(weights * vol[corners[..., 0], corners[..., 1], corners[..., 2]], axis=1)
    np.testing.assert_allclose(by_corners, got, atol=1e-12)


@settings(max_examples=150, deadline=None)
@given(stencil_cases(), st.sampled_from([1, 3, 16]))
def test_stencil_sample_is_the_in_order_corner_sum(case, channels):
    dims, _, pts, seed = case
    field = np.random.default_rng(seed).normal(size=dims + (channels,))
    corners, weights = trilinear_corners(pts, dims)
    want = np.zeros((len(pts), channels))
    for k in range(8):  # corners in (dz, dy, dx) order, summed from zero
        want += weights[:, k, None] * field[corners[:, k, 0], corners[:, k, 1], corners[:, k, 2]]
    assert Stencil(pts, dims).sample(field).tobytes() == want.tobytes()


@settings(max_examples=150, deadline=None)
@given(stencil_cases())
def test_stencil_weights_are_the_in_order_products_of_the_axis_weights(case):
    dims, _, pts, _ = case
    stencil = Stencil(pts, dims)
    size = np.array(dims)
    clamped = np.clip(pts, 0.0, size - 1.0)
    base = np.minimum(np.floor(clamped), np.maximum(size - 2, 0))
    frac = clamped - base
    wz, wy, wx = stencil.axis_weights
    assert stencil.axis_weights.tobytes() == np.stack([1.0 - frac.T, frac.T], axis=1).tobytes()
    for k, (dz, dy, dx) in enumerate(itertools.product((0, 1), repeat=3)):
        assert stencil.weights[:, k].tobytes() == ((wz[dz] * wy[dy]) * wx[dx]).tobytes()
        corner = np.minimum(base.astype(int) + [dz, dy, dx], size - 1)
        assert np.array_equal(stencil.index[:, k], np.ravel_multi_index(corner.T, dims))
    assert stencil.index.dtype == np.int32


def test_stencil_rejects_field_on_another_grid():
    stencil = Stencil(np.zeros((2, 3)), (3, 3, 3))
    with pytest.raises(ShapeMismatch):
        stencil.sample(np.zeros((3, 3, 4)))


@pytest.mark.parametrize("dims", [(0, 4, 4), (4, 0, 4), (4, 4, 0)])
def test_stencil_rejects_a_grid_with_an_empty_axis(dims):
    # its column indices would point outside the field
    with pytest.raises(ShapeMismatch, match="stencil grid needs >= 1 voxel per axis"):
        Stencil(np.zeros((2, 3)), dims)


@settings(max_examples=150, deadline=None)
@given(stencil_cases(), st.integers(1, 7))
def test_stencil_point_blocks_are_byte_identical(case, block):
    dims, channels, pts, seed = case
    rng = np.random.default_rng(seed)
    # Every voxel, jittered past the faces, after the drawn points, so blocks of
    # `block` points end mid-grid; at the default block size all fit in one.
    jittered = identity_grid(dims) + rng.uniform(-1.5, 1.5, dims + (3,))
    stencil = Stencil(np.concatenate([pts, jittered.reshape(-1, 3)]), dims)
    field = _random_field(rng, dims, channels)
    g = rng.normal(size=stencil.sample(field).shape)
    whole = stencil.sample(field), stencil.vjp(field, g)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grid, "_GATHER_BYTES", 8 * (channels or 1) * block)
        blocked = stencil.sample(field), stencil.vjp(field, g)
    for a, b in zip(whole, blocked):
        assert a.tobytes() == b.tobytes()



@settings(max_examples=150, deadline=None)
@given(stencil_cases(), st.integers(1, 7))
def test_trilinear_sample_point_blocks_are_byte_identical(case, block):
    dims, channels, pts, seed = case
    rng = np.random.default_rng(seed)
    field = _random_field(rng, dims, channels)
    jittered = identity_grid(dims) + rng.uniform(-1.5, 1.5, dims + (3,))
    kept = pts.copy(), jittered.copy()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grid, "_GATHER_BYTES", 8 * (channels or 1) * block)
        blocked = trilinear_sample(field, pts), trilinear_sample(field, jittered)
    whole = Stencil(pts, dims).sample(field), Stencil(jittered, dims).sample(field)
    for a, b in zip(whole, blocked):
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    # Stencil works on its own copy of the points.
    assert all(a.tobytes() == b.tobytes() for a, b in zip(kept, (pts, jittered)))


@settings(max_examples=100, deadline=None)
@given(stencil_cases(), st.sampled_from([1, 3, 16]), st.integers(1, 7))
def test_stencil_vjp_adds_a_scalar_volume_into_the_same_dots(case, channels, block):
    dims, _, pts, seed = case
    rng = np.random.default_rng(seed)
    # Every voxel jittered past the faces, so points are clamped and outside too.
    jittered = identity_grid(dims) + rng.uniform(-1.5, 1.5, dims + (3,))
    stencil = Stencil(np.concatenate([pts, jittered.reshape(-1, 3)]), dims)
    field = rng.normal(size=dims + (channels,))
    volume = rng.normal(size=dims)
    g = rng.normal(size=(len(stencil.index), channels))
    g_volume = rng.normal(size=len(stencil.index))
    got = stencil.vjp(field, g, volume, g_volume)
    want = stencil.vjp(field, g) + stencil.vjp(volume, g_volume)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grid, "_GATHER_BYTES", 8 * channels * block)
        assert stencil.vjp(field, g, volume, g_volume).tobytes() == got.tobytes()


def test_stencil_vjp_rejects_a_volume_with_channels():
    stencil = Stencil(np.zeros((2, 3)), (3, 3, 3))
    with pytest.raises(ShapeMismatch, match="volume must be scalar"):
        stencil.vjp(np.zeros((3, 3, 3)), np.zeros(2), np.zeros((3, 3, 3, 2)), np.zeros((2, 2)))


@settings(max_examples=100, deadline=None)
@given(stencil_cases(), st.sampled_from([1, 2, 3]))
def test_stencil_vjp_channel_products_match_einsum(case, channels):
    dims, _, pts, seed = case
    rng = np.random.default_rng(seed)
    field = rng.normal(size=dims + (channels,))
    stencil = Stencil(pts, dims)
    g = rng.normal(size=(len(pts), channels))
    got = stencil.vjp(field, g)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grid, "_PRODUCT_CHANNELS", 0)
        want = stencil.vjp(field, g)
    if channels == 1:
        assert got.tobytes() == want.tobytes()
    else:  # the channel sum may round in another order
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 40), st.integers(1, 6), st.integers(1, 7), st.integers(0, 2**32 - 1))
def test_normalize_rows_matches_linalg_norm_at_any_block_size(rows, channels, block, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(rows, channels))
    v[rng.random(rows) < 0.3] *= 1e-9  # some rows below the mask threshold
    v[rng.random(rows) < 0.1] = 0.0
    norms = np.linalg.norm(v, axis=-1, keepdims=True)
    safe = np.where(norms == 0.0, 1.0, norms)
    want = np.where(norms < MASK_NORM_EPS, 0.0, v / safe)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grid, "_GATHER_BYTES", 8 * channels * block)
        got = normalize_features(v.reshape(1, rows, 1, channels))
    assert got.tobytes() == want.tobytes()
    assert normalize_features(v.reshape(1, rows, 1, channels)).tobytes() == want.tobytes()
