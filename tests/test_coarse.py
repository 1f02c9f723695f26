import logging
import re

import numpy as np
import pytest

from embreg.affine import AffineTransform
from embreg.coarse import (
    ITERATIONS,
    coarse_gradient,
    coarse_objective,
    lattice_dims,
    optimize_coarse,
    upsample_coarse,
)
from embreg.config import PipelineConfig
from embreg.errors import EmptyMatchSet, ShapeMismatch
from embreg.matching import MatchSet


def translated_matches(rng, dims, t, n=30):
    moving = np.stack(
        [rng.integers(abs(int(ti)) + 1, d - abs(int(ti)) - 1, size=n) for ti, d in zip(t, dims)],
        axis=-1,
    )
    fixed = moving + np.asarray(t, dtype=np.int64)
    return MatchSet(moving=moving, fixed=fixed, scores=np.ones(n))


def test_lattice_dims_ceiling():
    assert lattice_dims((16, 16, 16)) == (4, 4, 4)
    assert lattice_dims((17, 18, 19)) == (5, 5, 5)
    assert lattice_dims((3, 3, 3)) == (1, 1, 1)


def test_objective_zero_for_perfect_alignment():
    rng = np.random.default_rng(0)
    ms = translated_matches(rng, (16, 16, 16), (0, 0, 0))
    assert coarse_objective(np.zeros((4, 4, 4, 3)), ms, AffineTransform.identity(), 1.0) == 0.0


def test_objective_constant_field_matches_hand_computation():
    ms = MatchSet(
        moving=np.array([[4, 4, 4]]),
        fixed=np.array([[4, 4, 4]]),
        scores=np.ones(1),
    )
    lattice = np.zeros((4, 4, 4, 3))
    lattice[..., 2] = 3.0  # constant x-displacement, no smoothness cost
    # residual = x_m - (y + u(y)) = (0, 0, -3), squared norm 9
    assert coarse_objective(lattice, ms, AffineTransform.identity(), 5.0) == pytest.approx(9.0)


def test_objective_regularizer_matches_direct_sum():
    rng = np.random.default_rng(1)
    lattice = rng.normal(size=(3, 4, 5, 3))
    ms = translated_matches(rng, (12, 16, 20), (0, 0, 0), n=5)
    j0 = coarse_objective(lattice, ms, AffineTransform.identity(), 0.0)
    j1 = coarse_objective(lattice, ms, AffineTransform.identity(), 1.0)
    reg = sum(
        float(np.sum(np.diff(lattice, axis=a) ** 2)) for a in range(3)
    ) / lattice[..., 0].size
    assert j1 - j0 == pytest.approx(reg, rel=1e-12)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    dims = (8, 8, 8)
    ms = translated_matches(rng, dims, (1, 0, -1), n=12)
    affine = AffineTransform.from_linear_translation(np.eye(3), [0.5, 0.0, 0.0])
    lattice = rng.normal(scale=0.5, size=(2, 2, 2, 3))
    grad = coarse_gradient(lattice, ms, affine, reg_weight=0.7)
    h = 1e-6
    for idx in np.ndindex(lattice.shape):
        lp = lattice.copy()
        lp[idx] += h
        lm = lattice.copy()
        lm[idx] -= h
        fd = (
            coarse_objective(lp, ms, affine, 0.7)
            - coarse_objective(lm, ms, affine, 0.7)
        ) / (2 * h)
        assert grad[idx] == pytest.approx(fd, abs=1e-6)


def test_optimize_descends_monotonically_and_recovers_translation():
    rng = np.random.default_rng(3)
    dims = (16, 16, 16)
    t = (0, 2, -1)
    ms = translated_matches(rng, dims, t)
    affine = AffineTransform.identity()
    lattice = optimize_coarse(ms, affine, grid_dims=dims,
                              config=PipelineConfig(coarse_reg_weight=0.01))
    final = coarse_objective(lattice, ms, affine, 0.01)
    start = coarse_objective(np.zeros_like(lattice), ms, affine, 0.01)
    assert final < start
    # with tiny regularization the interior converges near -t (u maps fixed back to moving)
    interior = lattice[1:-1, 1:-1, 1:-1].reshape(-1, 3)
    np.testing.assert_allclose(interior.mean(axis=0), -np.asarray(t, float), atol=0.2)
    assert np.max(np.abs(interior - interior.mean(axis=0))) < 0.5


def test_optimize_stops_at_the_gradient_tolerance(caplog):
    rng = np.random.default_rng(0)
    dims = (16, 16, 16)
    ms = translated_matches(rng, dims, (2, -1, 1))
    config = PipelineConfig()
    with caplog.at_level(logging.DEBUG, logger="embreg.descent"):
        optimize_coarse(ms, AffineTransform.identity(), dims, config)
    (message,) = [r.getMessage() for r in caplog.records if r.name == "embreg.descent"]
    assert message.endswith("stop tol")
    evaluations = int(re.match(r"descend: (\d+) evaluations", message).group(1))
    assert evaluations < ITERATIONS


def test_zero_reg_weight_allows_larger_displacements_than_strong_reg():
    rng = np.random.default_rng(4)
    dims = (16, 16, 16)
    ms = translated_matches(rng, dims, (0, 0, 2), n=20)
    # corrupt a few pairs to create outliers
    fixed = ms.fixed.copy()
    fixed[:3] = (fixed[:3] + 7) % 14
    ms = MatchSet(moving=ms.moving, fixed=fixed, scores=ms.scores)
    low = optimize_coarse(ms, AffineTransform.identity(), dims,
                          PipelineConfig(coarse_reg_weight=0.0))
    high = optimize_coarse(ms, AffineTransform.identity(), dims,
                           PipelineConfig(coarse_reg_weight=10.0))
    rough_low = sum(float(np.sum(np.diff(low, axis=a) ** 2)) for a in range(3))
    rough_high = sum(float(np.sum(np.diff(high, axis=a) ** 2)) for a in range(3))
    assert rough_high < rough_low


def test_optimize_rejects_empty_match_set():
    ms = MatchSet(
        moving=np.zeros((0, 3), dtype=int),
        fixed=np.zeros((0, 3), dtype=int),
        scores=np.zeros(0),
    )
    with pytest.raises(EmptyMatchSet):
        optimize_coarse(ms, AffineTransform.identity(), (8, 8, 8), PipelineConfig())


def test_upsample_constant_lattice_is_constant():
    lattice = np.zeros((3, 3, 3, 3))
    lattice[..., 1] = 1.25
    dense = upsample_coarse(lattice, (9, 9, 9))
    assert dense.shape == (9, 9, 9, 3)
    np.testing.assert_allclose(dense[..., 1], 1.25, atol=1e-12)
    np.testing.assert_allclose(dense[..., [0, 2]], 0.0, atol=1e-12)


def test_upsample_reproduces_lattice_values_at_nodes():
    rng = np.random.default_rng(5)
    lattice = rng.normal(size=(4, 4, 4, 3))
    dense = upsample_coarse(lattice, (13, 13, 13))
    np.testing.assert_allclose(dense[::4, ::4, ::4], lattice, atol=1e-12)


def test_field_validation():
    with pytest.raises(ShapeMismatch):
        upsample_coarse(np.zeros((2, 2, 2)), (8, 8, 8))
    bad = np.zeros((2, 2, 2, 3))
    bad[0, 0, 0, 0] = np.nan
    with pytest.raises(ShapeMismatch):
        upsample_coarse(bad, (8, 8, 8))
