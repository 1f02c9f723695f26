import numpy as np
import pytest

from embreg.affine import AffineTransform, apply_affine, fit_affine_points, invert_affine
from embreg.errors import CorruptContainer, DegenerateMatches, ShapeMismatch, SingularAffine


def random_affine(rng, scale=0.2, shift=3.0):
    lin = np.eye(3) + rng.uniform(-scale, scale, size=(3, 3))
    trans = rng.uniform(-shift, shift, size=3)
    return AffineTransform.from_linear_translation(lin, trans)


def test_identity_transform_maps_points_to_themselves():
    rng = np.random.default_rng(0)
    pts = rng.uniform(-5, 5, size=(20, 3))
    np.testing.assert_array_equal(apply_affine(AffineTransform.identity(), pts), pts)


def test_translation_only():
    t = AffineTransform.from_linear_translation(np.eye(3), [1.0, -2.0, 0.5])
    np.testing.assert_allclose(apply_affine(t, [[0, 0, 0]]), [[1.0, -2.0, 0.5]])


def test_matrix_validation():
    bad = np.eye(4)
    bad[3, 0] = 1.0
    with pytest.raises(ShapeMismatch):
        AffineTransform(bad)
    singular = np.eye(4)
    singular[0, 0] = 0.0
    with pytest.raises(SingularAffine):
        AffineTransform(singular)


def test_inverse_round_trips_points():
    rng = np.random.default_rng(1)
    t = random_affine(rng)
    pts = rng.uniform(-4, 4, size=(30, 3))
    back = apply_affine(invert_affine(t), apply_affine(t, pts))
    np.testing.assert_allclose(back, pts, atol=1e-10)


def test_fit_recovers_exact_affine():
    rng = np.random.default_rng(2)
    t = random_affine(rng)
    pts = rng.uniform(0, 10, size=(12, 3))
    fitted = fit_affine_points(pts, apply_affine(t, pts))
    np.testing.assert_allclose(fitted.matrix, t.matrix, atol=1e-9)


def test_fit_is_least_squares_optimal_under_noise():
    # perturbing the fitted matrix can only increase the residual
    rng = np.random.default_rng(4)
    t = random_affine(rng)
    pts = rng.uniform(0, 10, size=(100, 3))
    noisy = apply_affine(t, pts) + rng.normal(scale=0.3, size=(100, 3))
    fitted = fit_affine_points(pts, noisy)

    def resid(transform):
        return float(np.sum((apply_affine(transform, pts) - noisy) ** 2))

    base = resid(fitted)
    for _ in range(20):
        m = fitted.matrix.copy()
        m[:3, :4] += rng.normal(scale=1e-3, size=(3, 4))
        assert resid(AffineTransform(m)) >= base - 1e-9


def test_fit_rejects_too_few_pairs():
    pts = np.arange(9, dtype=float).reshape(3, 3)
    with pytest.raises(DegenerateMatches):
        fit_affine_points(pts, pts)


def test_fit_rejects_coplanar_points():
    rng = np.random.default_rng(5)
    pts = rng.uniform(0, 10, size=(20, 3))
    pts[:, 0] = 2.0  # all in one z-plane
    with pytest.raises(DegenerateMatches):
        fit_affine_points(pts, pts)


def test_json_round_trip():
    rng = np.random.default_rng(6)
    t = random_affine(rng)
    back = AffineTransform.from_json(t.to_json())
    np.testing.assert_array_equal(back.matrix, t.matrix)


def test_from_json_rejects_wrong_length():
    with pytest.raises(ShapeMismatch):
        AffineTransform.from_json("[1, 2, 3]")


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_matrix_validation_rejects_non_finite(value):
    m = np.eye(4)
    m[0, 0] = value
    with pytest.raises(ShapeMismatch):
        AffineTransform(m)


@pytest.mark.parametrize(
    "text", ["garbage", b"\xff\xfe[1]", '["1"' + ", 0" * 15 + "]", "[true" + ", 0" * 15 + "]"]
)
def test_from_json_rejects_non_json_or_non_numeric(text):
    with pytest.raises(CorruptContainer):
        AffineTransform.from_json(text)
