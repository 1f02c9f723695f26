import numpy as np
import pytest

from embreg.affine import AffineTransform, apply_affine
from embreg.errors import ShapeMismatch
from embreg.grid import trilinear_sample
from embreg.synth import (
    SynthSpec,
    make_atlas,
    make_pair,
    noise,
    random_smooth_warp,
    triangular_smooth,
)


def test_noise_is_reproducible_and_stream_separated():
    a = noise(42, 0, (4, 4, 4))
    b = noise(42, 0, (4, 4, 4))
    np.testing.assert_array_equal(a, b)
    c = noise(42, 1, (4, 4, 4))
    assert not np.array_equal(a, c)
    d = noise(43, 0, (4, 4, 4))
    assert not np.array_equal(a, d)


def test_noise_range_and_rough_uniformity():
    vals = noise(0, 7, (40, 40, 40)).ravel()
    assert vals.min() >= -1.0 and vals.max() < 1.0
    assert abs(vals.mean()) < 0.01
    assert abs(vals.std() - 1.0 / np.sqrt(3.0)) < 0.01  # uniform on [-1,1)


def test_noise_prefix_stability():
    # the first k values do not depend on the requested shape
    long = noise(5, 3, (64,))
    short = noise(5, 3, (16,))
    np.testing.assert_array_equal(long[:16], short)


def test_triangular_smooth_preserves_constants_and_reduces_variance():
    const = np.full((6, 6, 6), 3.25)
    np.testing.assert_allclose(triangular_smooth(const, 2), 3.25, atol=1e-12)
    rng = np.random.default_rng(0)
    arr = rng.normal(size=(12, 12, 12))
    assert triangular_smooth(arr, 3).std() < arr.std()


def test_triangular_smooth_radius_zero_is_identity():
    arr = np.arange(8.0).reshape(2, 2, 2)
    np.testing.assert_array_equal(triangular_smooth(arr, 0), arr)


def test_make_atlas_shapes_and_invariants():
    spec = SynthSpec(dims=(10, 12, 14), channels=6, label_count=3, seed=1)
    features, labels, intensity = make_atlas(spec)
    assert features.shape == (10, 12, 14, 6)
    assert labels.shape == (10, 12, 14)
    assert intensity.shape == (10, 12, 14)
    norms = np.linalg.norm(features, axis=-1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)
    present = np.unique(labels)
    assert present[0] == 0
    assert set(present) <= set(range(spec.label_count + 1))
    assert labels.max() == spec.label_count  # innermost shell exists
    # labels are nested: higher labels sit strictly inside the support
    assert np.count_nonzero(labels >= 2) < np.count_nonzero(labels >= 1)


def test_make_atlas_deterministic_across_calls():
    spec = SynthSpec(dims=(8, 8, 8), channels=4, seed=9)
    f1, l1, i1 = make_atlas(spec)
    f2, l2, i2 = make_atlas(spec)
    np.testing.assert_array_equal(f1, f2)
    np.testing.assert_array_equal(l1, l2)
    np.testing.assert_array_equal(i1, i2)


def test_random_smooth_warp_amplitude_and_zero_case():
    spec = SynthSpec(dims=(10, 10, 10), warp_amplitude=1.5, warp_smoothness=3.0, seed=2)
    v = random_smooth_warp(spec)
    assert v.shape == (10, 10, 10, 3)
    assert np.max(np.abs(v)) == pytest.approx(1.5)
    zero = random_smooth_warp(SynthSpec(dims=(6, 6, 6), warp_amplitude=0.0))
    np.testing.assert_array_equal(zero, 0.0)


def test_make_pair_identity_warp_reproduces_atlas():
    spec = SynthSpec(dims=(10, 10, 10), channels=6, seed=3)
    features, labels, intensity = make_atlas(spec)
    moving, fixed, gt_map = make_pair(
        features, labels, intensity, np.zeros((10, 10, 10, 3)), AffineTransform.identity()
    )
    np.testing.assert_allclose(moving.features, features, atol=1e-12)
    np.testing.assert_allclose(moving.intensity, intensity, atol=1e-12)
    np.testing.assert_array_equal(moving.labels, labels)
    from embreg.grid import identity_grid

    np.testing.assert_allclose(gt_map, identity_grid((10, 10, 10)), atol=1e-12)


def test_make_pair_pure_affine_gt_map_is_exact():
    spec = SynthSpec(dims=(12, 12, 12), channels=6, seed=4)
    features, labels, intensity = make_atlas(spec)
    affine = AffineTransform.from_linear_translation(np.eye(3), [1.0, 0.0, -1.0])
    moving, _, gt_map = make_pair(
        features, labels, intensity, np.zeros((12, 12, 12, 3)), affine
    )
    from embreg.affine import invert_affine
    from embreg.grid import identity_grid

    want = apply_affine(invert_affine(affine), identity_grid((12, 12, 12)))
    np.testing.assert_allclose(gt_map, want, atol=1e-12)
    # pulling moving intensity through gt_map recovers the atlas interior
    pulled = trilinear_sample(moving.intensity, gt_map)
    err = np.abs(pulled - intensity)[2:-2, 2:-2, 2:-2]
    assert float(np.mean(err)) < 1e-10


def test_make_pair_consistency_under_deformation():
    spec = SynthSpec(
        dims=(16, 16, 16), channels=8, warp_amplitude=1.5, warp_smoothness=4.0, seed=5
    )
    features, labels, intensity = make_atlas(spec)
    v = random_smooth_warp(spec)
    moving, fixed, gt_map = make_pair(features, labels, intensity, v, AffineTransform.identity())
    pulled = trilinear_sample(moving.intensity, gt_map)
    interior = (slice(3, -3),) * 3
    err = np.abs(pulled - intensity)[interior]
    # double resampling blurs label edges, so check the mean not the max
    assert float(np.mean(err)) < 0.2


def test_make_pair_rejects_mismatched_velocity_grid():
    spec = SynthSpec(dims=(8, 8, 8), channels=4, seed=6)
    features, labels, intensity = make_atlas(spec)
    with pytest.raises(ShapeMismatch):
        make_pair(features, labels, intensity, np.zeros((6, 6, 6, 3)), AffineTransform.identity())


def test_spec_validation():
    with pytest.raises(ShapeMismatch):
        SynthSpec(feature_smoothness=0.0)
    with pytest.raises(ShapeMismatch):
        SynthSpec(warp_amplitude=-1.0)
    with pytest.raises(ShapeMismatch):
        SynthSpec(channels=2)
    with pytest.raises(ShapeMismatch):
        SynthSpec(label_count=0)


@pytest.mark.parametrize("field", ["feature_smoothness", "warp_smoothness", "warp_amplitude"])
@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_spec_rejects_non_finite_values(field, value):
    with pytest.raises(ShapeMismatch, match="finite"):
        SynthSpec(**{field: value})
