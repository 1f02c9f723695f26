"""End-to-end registration: matching, affine, coarse, instance, evaluation."""

from __future__ import annotations

import time

import numpy as np

from .affine import AffineTransform, fit_affine
from .bundle import Bundle
from .coarse import OptimizerConfig, optimize_coarse, upsample_coarse
from .config import PipelineConfig
from .errors import RegistrationError, ShapeMismatch
from .grid import warp_features, warp_labels, warp_scalar
from .instance import InstanceConfig, optimize_instance
from .matching import MatchSet, filter_matches, sscc
from .metrics import RegistrationReport, dice, landmark_error
from .transform import CompositeTransform, compose, folding_fraction, jacobian_determinant


def _stage(name: str, fn):
    try:
        return fn()
    except RegistrationError as exc:
        raise type(exc)(f"[{name}] {exc}") from exc


def match_stage(config: PipelineConfig, feats_moving, feats_fixed) -> MatchSet:
    """Cycle-consistent matches between two feature maps, filtered by ``epsilon``."""
    matches = sscc(
        feats_moving, feats_fixed, step=config.match_step, iterations=config.sscc_iterations
    )
    return filter_matches(matches, config.epsilon)


def coarse_stage(config: PipelineConfig, matches: MatchSet, affine: AffineTransform, dims):
    """Coarse lattice fitted to feature-grid matches converted to image-grid voxels."""
    if config.feature_scale != 1.0:
        matches = MatchSet(
            moving=np.rint(matches.moving * config.feature_scale).astype(np.int64),
            fixed=np.rint(matches.fixed * config.feature_scale).astype(np.int64),
            scores=matches.scores,
        )
    opt = OptimizerConfig(
        iterations=config.coarse_iterations,
        reg_weight=config.coarse_reg_weight,
        convergence_tol=config.coarse_tol,
    )
    return optimize_coarse(matches, affine, config.coarse_stride, dims, opt)


def instance_stage(config: PipelineConfig, moving: Bundle, fixed: Bundle, affine, coarse_dense):
    """Fit the instance field after the affine and coarse stages; returns ``(dense, pre_map)``."""
    dims = fixed.dims
    pre_map = compose(CompositeTransform(affine=affine, coarse=coarse_dense), dims)
    icfg = InstanceConfig(
        lambda_sim=config.lambda_sim,
        lambda_reg=config.lambda_reg,
        intensity_term=config.intensity_term,
        lncc_window=config.lncc_window,
        parameterization=config.parameterization,
        svf_steps=config.svf_steps,
        iterations=config.instance_iterations,
        convergence_tol=config.instance_tol,
    )
    dense = optimize_instance(
        warp_features(moving.features, pre_map),
        fixed.features,
        warp_scalar(moving.intensity, pre_map),
        fixed.intensity,
        np.zeros(dims + (3,)),
        icfg,
    )
    return dense, pre_map


def run_pipeline(
    config: PipelineConfig,
    moving: Bundle,
    fixed: Bundle,
    landmarks: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[CompositeTransform, RegistrationReport, dict]:
    """Run the enabled stages and evaluate the composed transform.

    ``landmarks`` is an optional ``(points_moving, points_fixed)`` pair of
    index-matched ground-truth correspondences (image-grid voxel units)
    used for the landmark-error entry of the report.

    Returns the composite transform, a report, and a dict of intermediate
    artifacts (matches, fields, warped volumes).
    """
    if moving.dims != fixed.dims:
        raise ShapeMismatch(f"bundle grids differ: {moving.dims} vs {fixed.dims}")
    dims = fixed.dims
    timings: dict[str, float] = {}
    artifacts: dict = {}

    t0 = time.perf_counter()
    matches = _stage("match", lambda: match_stage(config, moving.features, fixed.features))
    timings["match"] = time.perf_counter() - t0
    artifacts["matches"] = matches

    affine = AffineTransform.identity()
    if config.enable_affine:
        t0 = time.perf_counter()
        affine = _stage("affine", lambda: fit_affine(matches, scale=config.feature_scale))
        timings["affine"] = time.perf_counter() - t0
    artifacts["affine"] = affine

    coarse_dense = None
    if config.enable_coarse:
        t0 = time.perf_counter()
        coarse_field = _stage("coarse", lambda: coarse_stage(config, matches, affine, dims))
        coarse_dense = upsample_coarse(coarse_field, dims)
        timings["coarse"] = time.perf_counter() - t0
        artifacts["coarse_field"] = coarse_field
        artifacts["coarse_dense"] = coarse_dense

    dense = None
    if config.enable_instance:
        t0 = time.perf_counter()
        dense, pre_map = _stage(
            "instance", lambda: instance_stage(config, moving, fixed, affine, coarse_dense)
        )
        timings["instance"] = time.perf_counter() - t0
        artifacts["pre_map"] = pre_map

    transform = CompositeTransform(affine=affine, coarse=coarse_dense, dense=dense)
    t0 = time.perf_counter()
    final_map = compose(transform, dims)
    artifacts["final_map"] = final_map

    report = RegistrationReport(stage_timings=timings)
    report.folding_fraction = folding_fraction(jacobian_determinant(final_map))
    if moving.labels is not None and fixed.labels is not None:
        warped_labels = warp_labels(moving.labels, final_map)
        artifacts["warped_labels"] = warped_labels
        report.per_label_dice, report.mean_dice = dice(warped_labels, fixed.labels)
    if landmarks is not None:
        points_moving, points_fixed = landmarks
        from .grid import trilinear_sample

        report.mean_landmark_error = landmark_error(
            points_moving,
            points_fixed,
            lambda pts: trilinear_sample(final_map, pts),
            spacing=fixed.spacing,
        )
    timings["evaluate"] = time.perf_counter() - t0
    return transform, report, artifacts
