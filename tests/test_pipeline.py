import dataclasses

import numpy as np
import pytest

from embreg.affine import AffineTransform, fit_affine
from embreg.bundle import Bundle
from embreg.coarse import upsample_coarse
from embreg.config import PipelineConfig
from embreg.errors import RegistrationError, ShapeMismatch
from embreg.grid import identity_grid, warp_features
from embreg.instance import instance_objective, optimize_instance, reg_loss, sam_loss
from embreg.matching import select_points
from embreg.pipeline import evaluate, match_stage, run_pipeline
from embreg.synth import SynthSpec, make_atlas, make_pair, random_smooth_warp
from embreg.transform import CompositeTransform, compose, folding_fraction, jacobian_determinant


def synth_case(seed, dims=(16, 16, 16), amplitude=1.0, translation=(1.0, 0.0, -0.5)):
    spec = SynthSpec(
        dims=dims, channels=8, warp_amplitude=amplitude, warp_smoothness=4.0, seed=seed
    )
    features, labels, intensity = make_atlas(spec)
    velocity = random_smooth_warp(spec)
    affine = AffineTransform.from_linear_translation(np.eye(3), translation)
    moving, fixed, gt_map = make_pair(features, labels, intensity, velocity, affine)
    pts_f = select_points(dims, 4).astype(np.float64)
    idx = pts_f.astype(int)
    pts_m = gt_map[idx[:, 0], idx[:, 1], idx[:, 2]]
    return moving, fixed, gt_map, (pts_m, pts_f)


def fast_config(**overrides):
    defaults = dict(
        match_step=2,
        coarse_reg_weight=0.1,
        instance_iterations=30,
        lambda_reg=0.1,
    )
    return PipelineConfig(**{**defaults, **overrides})


def test_pipeline_identity_pair_yields_near_identity_transform():
    spec = SynthSpec(dims=(12, 12, 12), channels=8, seed=0)
    features, labels, intensity = make_atlas(spec)
    bundle = Bundle(features=features, intensity=intensity, labels=labels)
    transform, report, artifacts = run_pipeline(fast_config(), bundle, bundle)
    np.testing.assert_allclose(transform.affine.matrix, np.eye(4), atol=1e-8)
    final = artifacts["final_map"]
    np.testing.assert_allclose(final, identity_grid((12, 12, 12)), atol=0.05)
    assert report.mean_dice > 0.99
    assert report.folding_fraction == 0.0


def test_pipeline_improves_landmarks_and_dice():
    moving, fixed, _, landmarks = synth_case(seed=1)
    transform, report, _ = run_pipeline(fast_config(), moving, fixed, landmarks=landmarks)
    pts_m, pts_f = landmarks
    initial = float(np.mean(np.linalg.norm(pts_m - pts_f, axis=1)))
    assert report.mean_landmark_error < initial
    assert report.mean_dice is not None and report.mean_dice > 0.7
    assert report.folding_fraction == 0.0
    for stage in ("match", "affine", "coarse", "instance", "evaluate"):
        assert stage in report.stage_timings


def test_pipeline_affine_only_recovers_pure_translation():
    t = (1.0, -2.0, 1.0)
    moving, fixed, gt_map, landmarks = synth_case(seed=3, amplitude=0.0, translation=t)
    affine = fit_affine(match_stage(fast_config(), moving.features, fixed.features))
    # clamped matches at the faces bias the fit, so only the well-supported
    # axes are checked tightly
    np.testing.assert_allclose(affine.translation[[0, 2]], [t[0], t[2]], atol=0.3)
    final_map = compose(CompositeTransform(affine=affine), fixed.dims)
    report = evaluate(final_map, None, None, fixed.spacing, landmarks)
    initial = float(np.mean(np.linalg.norm(landmarks[0] - landmarks[1], axis=1)))
    assert report.mean_landmark_error < initial


def test_pipeline_svf_mode_runs_without_folding():
    moving, fixed, _, landmarks = synth_case(seed=4)
    cfg = fast_config(parameterization="svf", instance_iterations=15)
    _, report, _ = run_pipeline(cfg, moving, fixed, landmarks=landmarks)
    assert report.folding_fraction == 0.0
    initial = float(np.mean(np.linalg.norm(landmarks[0] - landmarks[1], axis=1)))
    assert report.mean_landmark_error < initial


def test_pipeline_svf_map_of_a_pair_with_mismatched_matches_does_not_fold():
    # The benchmark's svf-lncc-32 set-up, seed 3 pool pair 3, rebuilt here:
    # its mismatched matches make the coarse map fold (0.97 % of voxels). The
    # instance velocity starts from that field, and A^-1 exp(v) does not fold.
    rng = np.random.default_rng([3, 3])
    spec = SynthSpec(
        dims=(32, 32, 32), channels=16, warp_amplitude=2.0, warp_smoothness=4.0,
        seed=int(rng.integers(2**31)),
    )
    features, labels, intensity = make_atlas(spec)
    velocity = random_smooth_warp(spec)
    lin = np.eye(3) + rng.uniform(-0.08, 0.08, (3, 3))
    affine = AffineTransform.from_linear_translation(lin, rng.uniform(-3, 3, 3))
    moving, fixed, _ = make_pair(features, labels, intensity, velocity, affine)
    config = PipelineConfig(
        match_step=8, parameterization="svf", intensity_term="lncc", instance_iterations=10
    )
    _, report, artifacts = run_pipeline(config, moving, fixed)
    assert folding_fraction(jacobian_determinant(artifacts["pre_map"])) > 0.005
    assert report.folding_fraction == 0.0


def test_svf_instance_stage_unfolds_a_folding_coarse_field():
    # The coarse field is the start of the instance velocity, and the final
    # map A^-1 exp(v) is diffeomorphic whatever the start folds as a displacement.
    features, labels, intensity = make_atlas(SynthSpec(dims=(16, 16, 16), channels=8, seed=0))
    bundle = Bundle(features=features, intensity=intensity, labels=labels)
    coarse = np.zeros((16, 16, 16, 3))
    coarse[..., 0] = 3.0 * np.sin(2 * np.pi * identity_grid(bundle.dims)[..., 0] / 12)
    affine = AffineTransform.from_linear_translation(1.05 * np.eye(3), [0.5, -0.5, 0.25])
    start = compose(CompositeTransform(affine=affine, dense=coarse), bundle.dims)
    assert folding_fraction(jacobian_determinant(start)) > 0.1
    config = fast_config(parameterization="svf", intensity_term="ncc", instance_iterations=3)
    dense = optimize_instance(bundle, bundle, config, affine=affine, start=coarse)
    final = compose(CompositeTransform(affine=affine, dense=dense), bundle.dims)
    assert folding_fraction(jacobian_determinant(final)) == 0.0


def test_instance_loss_samples_the_moving_bundle_at_the_final_map():
    moving, fixed, _, _ = synth_case(seed=7, dims=(12, 12, 12))
    config = fast_config(instance_iterations=5)
    transform, _, artifacts = run_pipeline(config, moving, fixed)
    value = instance_objective(transform.dense, moving, fixed, config, transform.affine)
    warped = warp_features(moving.features, artifacts["final_map"])
    want = sam_loss(warped, fixed.features) + config.lambda_reg * reg_loss(transform.dense)
    assert value == pytest.approx(want, abs=1e-12)


def test_pipeline_stage_errors_are_prefixed():
    spec = SynthSpec(dims=(4, 4, 4), channels=8, seed=5)
    features, labels, intensity = make_atlas(spec)
    bundle = Bundle(features=features, intensity=intensity, labels=labels)
    cfg = fast_config(match_step=4)  # one lattice point, too few pairs for the affine fit
    with pytest.raises(RegistrationError, match=r"^\[affine\] affine fit needs >= 4 pairs"):
        run_pipeline(cfg, bundle, bundle)


def test_pipeline_registers_a_moving_bundle_on_another_grid():
    moving, fixed, _, landmarks = synth_case(seed=1, dims=(20, 20, 20))
    _, same, _ = run_pipeline(fast_config(), moving, fixed, landmarks=landmarks)
    pad = ((0, 3), (0, 0), (0, 2))  # at the far faces, so voxel coordinates stay
    big = Bundle(
        features=np.pad(moving.features, pad + ((0, 0),), mode="edge"),
        intensity=np.pad(moving.intensity, pad, mode="edge"),
        labels=np.pad(moving.labels, pad, mode="edge"),
    )
    transform, report, artifacts = run_pipeline(fast_config(), big, fixed, landmarks=landmarks)
    assert transform.dense.shape == artifacts["final_map"].shape == (20, 20, 20, 3)
    assert report.mean_dice == pytest.approx(same.mean_dice, abs=0.01)
    assert report.mean_landmark_error == pytest.approx(same.mean_landmark_error, rel=0.1)


def test_landmark_error_is_measured_in_the_moving_spacing():
    # final_map(x_f) - x_m is a distance in moving-grid voxels
    moving, fixed, _, landmarks = synth_case(seed=2)
    config = fast_config(instance_iterations=3)
    _, unit, _ = run_pipeline(config, moving, fixed, landmarks=landmarks)
    wide = Bundle(moving.features, moving.intensity, moving.labels, spacing=(2.0, 2.0, 2.0))
    _, report, _ = run_pipeline(config, wide, fixed, landmarks=landmarks)
    assert report.mean_landmark_error == 2.0 * unit.mean_landmark_error


@pytest.mark.parametrize(
    "part",
    [
        "features",
        "intensity",
        # spacing, which the landmark error is measured in
        (np.nan, 1.0, 1.0),
        (1.0, np.inf, 1.0),
        (1.0, 1.0, 0.0),
        (-1.0, 1.0, 1.0),
        (1.0, 1.0),
        (1.0, 1.0, 1.0, 1.0),
        ("1", 1.0, 1.0),
        1.0,
        # labels, which Dice counts
        "nan labels",
        "fractional labels",
    ],
)
def test_bundle_rejects_non_finite_inputs(part):
    features = np.full((4, 4, 4, 2), np.sqrt(0.5))  # unit vectors
    intensity = np.ones((4, 4, 4))
    labels = np.zeros((4, 4, 4))
    spacing = (1.0, 1.0, 1.0)
    Bundle(features=features, intensity=intensity, labels=labels)
    if part in ("features", "intensity"):
        {"features": features, "intensity": intensity}[part][1, 2, 3] = np.nan
        rule = "non-finite"
    elif part in ("nan labels", "fractional labels"):
        labels[1, 2, 3] = np.nan if part == "nan labels" else 1.5
        rule = "labels"
    else:
        spacing = part
        rule = "spacing"
    with pytest.raises(ShapeMismatch, match=rule):
        Bundle(features=features, intensity=intensity, labels=labels, spacing=spacing)


def test_bundle_rejects_zero_channel_features():
    with pytest.raises(ShapeMismatch, match="empty"):
        Bundle(features=np.zeros((4, 4, 4, 0)), intensity=np.ones((4, 4, 4)))


def test_bundle_rejects_features_without_a_channel_axis():
    with pytest.raises(ShapeMismatch, match=r"features must be \(D,H,W,C\)"):
        Bundle(features=np.ones((4, 4, 4)), intensity=np.ones((4, 4, 4)))


@pytest.mark.parametrize("scale", [0.3, 2.0])
def test_bundle_rejects_features_neither_unit_nor_zero(scale):
    features = np.zeros((4, 4, 4, 2))
    features[1:, ..., 0] = 1.0  # unit vectors, with a masked (zero) plane
    Bundle(features=features, intensity=np.ones((4, 4, 4)))
    with pytest.raises(ShapeMismatch, match=r"zero or unit-norm .*: 48 of 64 are not"):
        Bundle(features=features * scale, intensity=np.ones((4, 4, 4)))


def test_bundle_keeps_contiguous_inputs_and_copies_strided_ones():
    rng = np.random.default_rng(3)
    features = rng.normal(size=(4, 5, 6, 3))
    features /= np.linalg.norm(features, axis=-1, keepdims=True)
    intensity = rng.normal(size=(4, 5, 6))
    kept = Bundle(features=features, intensity=intensity)
    assert kept.features is features and kept.intensity is intensity

    channel_major = np.moveaxis(np.ascontiguousarray(np.moveaxis(features, -1, 0)), 0, -1)
    fortran = np.asfortranarray(intensity)
    copied = Bundle(features=channel_major, intensity=fortran)
    assert copied.features.flags.c_contiguous and copied.intensity.flags.c_contiguous
    assert not np.shares_memory(copied.features, channel_major)
    assert not np.shares_memory(copied.intensity, fortran)
    np.testing.assert_array_equal(copied.features, features)
    np.testing.assert_array_equal(copied.intensity, intensity)


def test_bundle_is_frozen():
    # The instance stage reads the checked arrays without checking them again.
    bundle = Bundle(features=np.ones((4, 4, 4, 1)), intensity=np.ones((4, 4, 4)))
    with pytest.raises(dataclasses.FrozenInstanceError):
        bundle.features = 2 * bundle.features


def test_pipeline_final_map_matches_compose_of_returned_transform():
    moving, fixed, _, _ = synth_case(seed=7, dims=(12, 12, 12))
    transform, _, artifacts = run_pipeline(fast_config(instance_iterations=5), moving, fixed)
    np.testing.assert_allclose(
        artifacts["final_map"], compose(transform, fixed.dims), atol=1e-12
    )


def test_pipeline_artifacts_hold_only_what_the_transform_does_not():
    moving, fixed, _, _ = synth_case(seed=7, dims=(12, 12, 12))
    transform, _, artifacts = run_pipeline(fast_config(instance_iterations=5), moving, fixed)
    # The transform holds the affine and the one dense field the instance
    # stage refined from the coarse field; the coarse map is an artifact.
    assert transform.coarse is None
    assert set(artifacts) == {"matches", "coarse_field", "pre_map", "final_map"}
    coarse_dense = upsample_coarse(artifacts["coarse_field"], fixed.dims)
    pre_map = compose(CompositeTransform(affine=transform.affine, dense=coarse_dense), fixed.dims)
    assert artifacts["pre_map"].tobytes() == pre_map.tobytes()
