import logging

import numpy as np
import pytest

from embreg import grid, instance
from embreg.config import PipelineConfig
from embreg.descent import descend
from embreg.errors import EmptyOverlap, ShapeMismatch
from embreg.grid import normalize_features, warp_features
from embreg.instance import (
    instance_gradient,
    instance_objective,
    optimize_instance,
    reg_loss,
    sam_loss,
)
from embreg.synth import make_atlas, SynthSpec
from embreg.transform import integrate_svf


def random_features(rng, dims, channels):
    return normalize_features(rng.normal(size=dims + (channels,)))


def fd_gradient(field, args, config, indices, h=1e-5, forward=False):
    """Central differences, or forward differences with ``forward``."""
    feats_m, feats_f, img_m, img_f = args
    out = {}
    for idx in indices:
        fp = field.copy()
        fp[idx] += h
        fm = field.copy()
        if not forward:
            fm[idx] -= h
        out[idx] = (
            instance_objective(fp, feats_m, feats_f, img_m, img_f, config)
            - instance_objective(fm, feats_m, feats_f, img_m, img_f, config)
        ) / ((1 if forward else 2) * h)
    return out


def test_sam_loss_zero_on_identical_maps():
    rng = np.random.default_rng(0)
    feats = random_features(rng, (4, 4, 4), 6)
    assert sam_loss(feats, feats) == pytest.approx(0.0, abs=1e-12)


def test_sam_loss_orthogonal_features_is_one():
    feats_a = np.zeros((2, 2, 2, 2))
    feats_a[..., 0] = 1.0
    feats_b = np.zeros((2, 2, 2, 2))
    feats_b[..., 1] = 1.0
    assert sam_loss(feats_a, feats_b) == pytest.approx(1.0)


def test_sam_loss_ignores_masked_voxels():
    rng = np.random.default_rng(1)
    feats = random_features(rng, (3, 3, 3), 4)
    opposite = -feats.copy()
    opposite[0] = 0.0  # masked slab should not contribute
    partial = sam_loss(feats, opposite)
    assert partial == pytest.approx(2.0)  # surviving voxels have similarity -1


def test_sam_loss_raises_on_full_mask():
    with pytest.raises(EmptyOverlap):
        sam_loss(np.zeros((2, 2, 2, 3)), np.zeros((2, 2, 2, 3)))


def test_reg_loss_trivial_values():
    assert reg_loss(np.zeros((3, 3, 3, 3))) == 0.0
    const = np.full((3, 3, 3, 3), 2.5)
    assert reg_loss(const) == 0.0
    ramp = np.zeros((2, 1, 1, 3))
    ramp[1, 0, 0, 0] = 1.0  # single unit difference over 2 voxels
    assert reg_loss(ramp) == pytest.approx(0.5)


def test_reg_loss_matches_direct_sum():
    rng = np.random.default_rng(2)
    f = rng.normal(size=(4, 5, 6, 3))
    want = sum(float(np.sum(np.diff(f, axis=a) ** 2)) for a in range(3)) / (4 * 5 * 6)
    assert reg_loss(f) == pytest.approx(want, rel=1e-12)


def test_objective_zero_field_identical_volumes():
    rng = np.random.default_rng(3)
    feats = random_features(rng, (5, 5, 5), 8)
    config = PipelineConfig(lambda_reg=1.0)
    value = instance_objective(np.zeros((5, 5, 5, 3)), feats, feats, None, None, config)
    assert value == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("term", ["none", "ncc", "lncc"])
def test_gradient_matches_finite_differences_displacement(term):
    rng = np.random.default_rng(4)
    dims = (5, 5, 5)
    feats_m = random_features(rng, dims, 6)
    feats_f = random_features(rng, dims, 6)
    img_m = rng.normal(size=dims)
    img_f = rng.normal(size=dims)
    config = PipelineConfig(lambda_reg=0.75, intensity_term=term)
    field = rng.normal(scale=0.3, size=dims + (3,))
    grad = instance_gradient(field, feats_m, feats_f, img_m, img_f, config)
    idxs = [tuple(rng.integers(0, s) for s in field.shape) for _ in range(10)]
    fd = fd_gradient(field, (feats_m, feats_f, img_m, img_f), config, idxs)
    for idx, want in fd.items():
        assert grad[idx] == pytest.approx(want, abs=1e-6)


def test_gradient_matches_finite_differences_svf():
    rng = np.random.default_rng(5)
    dims = (5, 5, 5)
    feats_m = random_features(rng, dims, 4)
    feats_f = random_features(rng, dims, 4)
    config = PipelineConfig(lambda_reg=0.5, parameterization="svf")
    args = (feats_m, feats_f, None, None)
    field = rng.normal(scale=0.2, size=dims + (3,))
    grad = instance_gradient(field, *args, config)
    idxs = [tuple(rng.integers(0, s) for s in field.shape) for _ in range(8)]
    for idx, want in fd_gradient(field, args, config, idxs).items():
        assert grad[idx] == pytest.approx(want, abs=1e-6)
    # The zero field samples at grid nodes, where the interpolant has a kink:
    # the gradient is the slope of the cell above, as a forward difference
    # sees it, away from the low face where the point is clamped.
    zero = np.zeros_like(field)
    grad = instance_gradient(zero, *args, config)
    idxs = [idx for idx in idxs if idx[idx[3]] > 0]
    assert len(idxs) >= 4
    for idx, want in fd_gradient(zero, args, config, idxs, h=1e-7, forward=True).items():
        assert grad[idx] == pytest.approx(want, abs=2e-8)


@pytest.mark.parametrize("parameterization", ["displacement", "svf"])
def test_loss_and_gradient_do_not_depend_on_row_blocks(parameterization):
    rng = np.random.default_rng(9)
    dims = (5, 6, 4)
    feats_m = random_features(rng, dims, 6)
    feats_m[1, 2] = 0.0  # masked on both sides at some voxels
    feats_f = random_features(rng, dims, 6)
    feats_f[3] = 0.0
    img_m, img_f = rng.normal(size=dims), rng.normal(size=dims)
    config = PipelineConfig(
        lambda_reg=0.75, intensity_term="ncc", parameterization=parameterization
    )
    field = rng.normal(scale=0.5, size=dims + (3,))
    args = (field, feats_m, feats_f, img_m, img_f, config)
    whole = instance_objective(*args), instance_gradient(*args)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grid, "_GATHER_BYTES", 8 * 6 * 7)  # 7 points a block, 18 blocks
        blocked = instance_objective(*args), instance_gradient(*args)
    assert whole[0] == blocked[0]
    assert whole[1].tobytes() == blocked[1].tobytes()


def half_voxel_shift():
    """Features of a 12³ atlas and of the same atlas shifted by half a voxel in x, and that shift."""
    spec = SynthSpec(dims=(12, 12, 12), channels=8, seed=3)
    feats_f, _, _ = make_atlas(spec)
    # moving = fixed shifted by half a voxel in x (pull map x -> x + 0.5)
    shift = np.zeros((12, 12, 12, 3))
    shift[..., 2] = 0.5
    feats_m = warp_features(feats_f, grid.identity_grid((12, 12, 12)) - shift)
    return feats_m, feats_f, shift


def test_optimize_reduces_objective_and_recovers_small_shift():
    feats_m, feats_f, shift = half_voxel_shift()
    config = PipelineConfig(lambda_reg=0.01, instance_iterations=80)
    start = instance_objective(np.zeros_like(shift), feats_m, feats_f, None, None, config)
    out = optimize_instance(feats_m, feats_f, None, None, config)
    end = instance_objective(out, feats_m, feats_f, None, None, config)
    assert end < start
    interior = out[3:-3, 3:-3, 3:-3]
    assert abs(float(np.mean(interior[..., 2])) - 0.5) < 0.2
    assert abs(float(np.mean(interior[..., 0]))) < 0.1


def test_optimize_stops_on_progress_before_the_cap(caplog):
    feats_m, feats_f, shift = half_voxel_shift()
    config = PipelineConfig(lambda_reg=0.01)
    assert config.instance_iterations == 100
    with caplog.at_level(logging.DEBUG, logger="embreg.descent"):
        out = optimize_instance(feats_m, feats_f, None, None, config)
    (message,) = [r.getMessage() for r in caplog.records if r.name == "embreg.descent"]
    assert message.endswith("stop progress")
    assert int(message.split()[1]) < 1 + config.instance_iterations
    assert abs(float(np.mean(out[3:-3, 3:-3, 3:-3, 2])) - 0.5) < 0.2


def test_optimize_svf_returns_integrated_displacement():
    rng = np.random.default_rng(6)
    dims = (6, 6, 6)
    feats = random_features(rng, dims, 4)
    config = PipelineConfig(parameterization="svf", instance_iterations=2)
    out = optimize_instance(feats, feats, None, None, config)
    assert out.shape == dims + (3,)
    np.testing.assert_allclose(out, 0.0, atol=1e-10)


@pytest.mark.parametrize("parameterization", ["svf", "displacement"])
@pytest.mark.parametrize("rejected_last", [False, True])
def test_optimize_returns_the_displacement_of_the_descended_field(
    monkeypatch, parameterization, rejected_last
):
    spec = SynthSpec(dims=(8, 8, 8), channels=4, seed=2)
    feats_f, _, img_f = make_atlas(spec)
    shift = np.zeros((8, 8, 8, 3))
    shift[..., 2] = 0.5
    pull = grid.identity_grid((8, 8, 8)) - shift
    feats_m, img_m = warp_features(feats_f, pull), grid.warp_scalar(img_f, pull)
    config = PipelineConfig(
        intensity_term="lncc", parameterization=parameterization, instance_iterations=4
    )
    descended = []

    def recording_descend(evaluate, x0, iterations, progress):
        x = descend(evaluate, x0, iterations, progress)
        if rejected_last:  # as at a ``stall`` stop: the last evaluation is not ``x``
            evaluate(x + 1.0)
        descended.append(x)
        return x

    monkeypatch.setattr(instance, "descend", recording_descend)
    out = optimize_instance(feats_m, feats_f, img_m, img_f, config)
    (field,) = descended
    assert np.any(field)
    want = integrate_svf(field) if parameterization == "svf" else field
    assert out.tobytes() == want.tobytes()


def test_intensity_term_requires_images():
    rng = np.random.default_rng(7)
    feats = random_features(rng, (4, 4, 4), 4)
    config = PipelineConfig(intensity_term="ncc")
    with pytest.raises(ShapeMismatch):
        instance_objective(np.zeros((4, 4, 4, 3)), feats, feats, None, None, config)
