"""End-to-end registration: matching, affine, coarse, instance, evaluation."""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

from .affine import fit_affine
from .bundle import Bundle
from .coarse import optimize_coarse, upsample_coarse
from .config import PipelineConfig
from .errors import RegistrationError
from .grid import trilinear_sample, warp_labels
from .instance import optimize_instance
from .matching import MatchSet, filter_matches, sscc
from .metrics import RegistrationReport, check_labels, dice, landmark_error
from .transform import CompositeTransform, compose, folding_fraction, jacobian_determinant


@contextmanager
def _stage(name: str, timings: dict[str, float]):
    """Time the ``with`` block into ``timings[name]``; a registration error gets a ``[name]`` prefix."""
    t0 = time.perf_counter()
    try:
        yield
    except RegistrationError as exc:
        raise type(exc)(f"[{name}] {exc}") from exc
    timings[name] = time.perf_counter() - t0


def match_stage(config: PipelineConfig, feats_moving, feats_fixed) -> MatchSet:
    """Cycle-consistent matches of two feature maps, scored above :data:`~embreg.matching.EPSILON`."""
    matches = sscc(
        feats_moving, feats_fixed, step=config.match_step, iterations=config.sscc_iterations
    )
    return filter_matches(matches)


def evaluate(final_map, moving_labels, fixed_labels, spacing, landmarks=None) -> RegistrationReport:
    """Folding fraction of ``final_map``, Dice of the warped labels and landmark error.

    Dice needs both label maps, which must hold finite integer values
    everywhere, not only at the moving voxels the map samples. The landmark
    error needs ``landmarks``, an index-matched ``(points_moving,
    points_fixed)`` pair in voxel units. It compares moving-grid points, so
    ``spacing`` is the moving grid's.
    """
    report = RegistrationReport()
    report.folding_fraction = folding_fraction(jacobian_determinant(final_map))
    if moving_labels is not None and fixed_labels is not None:
        report.per_label_dice, report.mean_dice = dice(
            warp_labels(check_labels(moving_labels), final_map), fixed_labels
        )
    if landmarks is not None:
        points_moving, points_fixed = landmarks
        report.mean_landmark_error = landmark_error(
            points_moving,
            points_fixed,
            lambda pts: trilinear_sample(final_map, pts),
            spacing=spacing,
        )
    return report


def run_pipeline(
    config: PipelineConfig,
    moving: Bundle,
    fixed: Bundle,
    landmarks: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[CompositeTransform, RegistrationReport, dict]:
    """Run match, affine, coarse and instance, each on the last one's result, and evaluate.

    The two bundles may differ in grid size; the transform's fields and maps
    lie on the fixed grid. ``landmarks`` is an optional ``(points_moving,
    points_fixed)`` pair of index-matched ground-truth correspondences
    (image-grid voxel units) used for the landmark-error entry of the report.

    Returns the composite transform (the affine and one dense field, the
    coarse field as the instance stage refined it), a report, and a dict of
    intermediate artifacts: the matches, the coarse lattice, the affine and
    coarse map the instance stage starts from, and the final map. To run part
    of the pipeline, call the stage functions themselves.
    """
    dims = fixed.dims
    timings: dict[str, float] = {}
    with _stage("match", timings):
        matches = match_stage(config, moving.features, fixed.features)
    with _stage("affine", timings):
        affine = fit_affine(matches)
    with _stage("coarse", timings):
        lattice = optimize_coarse(matches, affine, dims, config)
        coarse_dense = upsample_coarse(lattice, dims)
        pre_map = compose(CompositeTransform(affine=affine, dense=coarse_dense), dims)
    with _stage("instance", timings):
        dense = optimize_instance(moving, fixed, config, affine=affine, start=coarse_dense)
    transform = CompositeTransform(affine=affine, dense=dense)
    with _stage("evaluate", timings):
        final_map = compose(transform, dims)
        report = evaluate(final_map, moving.labels, fixed.labels, moving.spacing, landmarks)
    report.stage_timings = timings
    artifacts = {"matches": matches, "coarse_field": lattice, "pre_map": pre_map, "final_map": final_map}
    return transform, report, artifacts
