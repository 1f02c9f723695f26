import logging
import re

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import spsolve

from embreg.affine import AffineTransform
from embreg.coarse import (
    ITERATIONS,
    STRIDE,
    coarse_gradient,
    coarse_objective,
    lattice_dims,
    optimize_coarse,
    upsample_coarse,
)
from embreg.config import PipelineConfig
from embreg.errors import EmptyMatchSet, ShapeMismatch
from embreg.grid import Stencil, identity_grid
from embreg.matching import MatchSet
from embreg.transform import CompositeTransform, compose

# A linear part that is not the identity, and a translation of about 3 voxels.
SHEARED = AffineTransform.from_linear_translation(
    [[1.05, 0.06, -0.03], [-0.04, 0.97, 0.05], [0.02, -0.05, 1.03]], [3.0, -2.5, 2.0]
)


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
    # residual = A x_m - (x_f + u(x_f)) = (0, 0, -3), squared norm 9
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


def exact_coarse_minimizer(matches, affine, dims, reg_weight):
    """The lattice minimizing :func:`coarse_objective`, by one sparse solve per channel.

    The objective ``|S U - T|^2 / n + reg_weight * sum_a |D_a U|^2 / N`` is
    quadratic in the lattice ``U``: ``S`` is the match stencil's matrix,
    ``T = A x_m - x_f``, ``D_a`` the forward differences along axis ``a``
    and ``N`` the node count.
    """
    shape = lattice_dims(dims)
    xf = matches.fixed.astype(np.float64)
    target = matches.moving @ affine.linear.T + affine.translation - xf
    s = Stencil(xf / STRIDE, shape).matrix
    eye = [sparse.identity(m) for m in shape]
    normal = s.T @ s / len(xf)
    for a, m in enumerate(shape):
        factors = list(eye)
        factors[a] = sparse.diags([-np.ones(m - 1), np.ones(m - 1)], [0, 1], shape=(m - 1, m))
        d = sparse.kron(sparse.kron(factors[0], factors[1]), factors[2])
        normal = normal + reg_weight * (d.T @ d) / np.prod(shape)
    rhs = s.T @ target / len(xf)
    solution = [spsolve(normal.tocsc(), rhs[:, c]) for c in range(3)]
    return np.stack(solution, axis=-1).reshape(shape + (3,))


@pytest.mark.parametrize("reg_weight", [1.0, 0.1])
def test_optimize_reaches_the_exact_minimizer(reg_weight):
    rng = np.random.default_rng(6)
    dims = (20, 24, 16)
    fixed = np.stack([rng.integers(0, d, size=300) for d in dims], axis=-1)
    moving = fixed + rng.integers(-2, 3, size=fixed.shape)
    ms = MatchSet(moving=moving, fixed=fixed, scores=np.ones(len(fixed)))
    exact = exact_coarse_minimizer(ms, SHEARED, dims, reg_weight)
    lattice = optimize_coarse(ms, SHEARED, dims, PipelineConfig(coarse_reg_weight=reg_weight))
    gap = coarse_objective(lattice, ms, SHEARED, reg_weight) - coarse_objective(exact, ms, SHEARED, reg_weight)
    # Measured: gaps of 3e-10 and 5e-10 on objectives of ~5, lattices 4e-5 and 7e-5 voxel apart.
    assert -1e-12 <= gap < 1e-8
    assert np.max(np.abs(lattice - exact)) < 1e-3


def test_the_fitted_lattice_is_the_one_compose_applies():
    # Matches made by the map compose applies, A^-1 (x_f + c(x_f)), from a smooth lattice c.
    dims = (16, 20, 16)
    nodes = identity_grid(lattice_dims(dims))
    truth = 1.5 * np.stack([np.sin(0.9 * nodes[..., (a + 1) % 3] + a) for a in range(3)], axis=-1)
    fixed = identity_grid(dims).reshape(-1, 3)
    shifted = fixed + upsample_coarse(truth, dims).reshape(-1, 3) - SHEARED.translation
    moving = np.linalg.solve(SHEARED.linear, shifted.T).T
    # Rounding the moving points to voxels moves them 0.49 voxel on average.
    ms = MatchSet(moving=np.rint(moving), fixed=fixed, scores=np.ones(len(fixed)))
    lattice = optimize_coarse(ms, SHEARED, dims, PipelineConfig(coarse_reg_weight=1e-3))
    mapped = compose(CompositeTransform(SHEARED, upsample_coarse(lattice, dims)), dims)
    error = np.linalg.norm(mapped.reshape(-1, 3) - moving, axis=1)
    # 0.21 voxel on average; 0.90 for a lattice fitted after the affine inverse.
    assert error.mean() < 0.3
