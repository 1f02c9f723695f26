import numpy as np
import pytest

from embreg.affine import AffineTransform, fit_affine
from embreg.bundle import Bundle
from embreg.config import PipelineConfig
from embreg.errors import RegistrationError, ShapeMismatch
from embreg.grid import identity_grid
from embreg.matching import select_points
from embreg.pipeline import evaluate, match_stage, run_pipeline
from embreg.synth import SynthSpec, make_atlas, make_pair, random_smooth_warp
from embreg.transform import CompositeTransform, compose


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
    features = np.ones((4, 4, 4, 2))
    intensity = np.ones((4, 4, 4))
    labels = np.zeros((4, 4, 4))
    spacing = (1.0, 1.0, 1.0)
    if part in ("features", "intensity"):
        {"features": features, "intensity": intensity}[part][1, 2, 3] = np.nan
    elif part in ("nan labels", "fractional labels"):
        labels[1, 2, 3] = np.nan if part == "nan labels" else 1.5
    else:
        spacing = part
    Bundle(features=np.ones((4, 4, 4, 2)), intensity=np.ones((4, 4, 4)), labels=np.zeros((4, 4, 4)))
    with pytest.raises(ShapeMismatch):
        Bundle(features=features, intensity=intensity, labels=labels, spacing=spacing)


def test_bundle_rejects_zero_channel_features():
    with pytest.raises(ShapeMismatch, match="empty"):
        Bundle(features=np.zeros((4, 4, 4, 0)), intensity=np.ones((4, 4, 4)))


def test_bundle_keeps_contiguous_inputs_and_copies_strided_ones():
    rng = np.random.default_rng(3)
    features = rng.normal(size=(4, 5, 6, 3))
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


def test_pipeline_final_map_matches_compose_of_returned_transform():
    moving, fixed, _, _ = synth_case(seed=7, dims=(12, 12, 12))
    transform, _, artifacts = run_pipeline(fast_config(instance_iterations=5), moving, fixed)
    np.testing.assert_allclose(
        artifacts["final_map"], compose(transform, fixed.dims), atol=1e-12
    )


def test_pipeline_artifacts_hold_only_what_the_transform_does_not():
    moving, fixed, _, _ = synth_case(seed=7, dims=(12, 12, 12))
    transform, _, artifacts = run_pipeline(fast_config(instance_iterations=5), moving, fixed)
    # the affine and the upsampled coarse field are read from the transform
    assert set(artifacts) == {"matches", "coarse_field", "pre_map", "final_map"}
    pre_map = compose(CompositeTransform(affine=transform.affine, coarse=transform.coarse), fixed.dims)
    assert artifacts["pre_map"].tobytes() == pre_map.tobytes()
