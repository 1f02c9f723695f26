"""Per-pair instance optimization of a dense displacement or velocity field behind the affine.

Minimizes one minus mean feature similarity, plus an optional intensity
dissimilarity (NCC or LNCC), plus ``lambda_reg`` times a gradient-smoothness
penalty on the optimized field. Gradients are analytic through the whole
chain: trilinear sampling, the affine, per-voxel feature re-normalization,
the correlation terms, and (in velocity mode) scaling-and-squaring. Each
per-voxel term is one pass over whole rows: the feature similarity is taken
from the raw samples and their norms, with no normalized copy, and the
intensity's cotangent shares the features' vector-Jacobian product.
"""

from __future__ import annotations

import numpy as np

from .affine import AffineTransform, apply_affine, invert_affine
from .bundle import Bundle
from .config import PipelineConfig
from .descent import PROGRESS, descend, smoothness
from .errors import EmptyOverlap, ShapeMismatch
from .grid import MASK_NORM_EPS, Stencil, check_vector_field, identity_grid
from .grid import trilinear_sample_with_grad  # noqa: F401  (perfbench/tracer.py wraps this name here)
from .metrics import lncc_fixed, lncc_gradient, ncc_gradient
from .transform import integrate_svf, integrate_svf_with_tape, svf_backward


def sam_loss(warped_features, fixed_features) -> float:
    """Mean of ``1 - similarity`` over voxels unmasked on both sides.

    The warped vectors are compared after re-normalization, as in the instance loss.
    """
    f = np.asarray(fixed_features, dtype=np.float64)
    return _feature_terms(np.asarray(warped_features, dtype=np.float64), f, _unmasked(f))[0]


def _unmasked(features) -> np.ndarray:
    """Voxels whose feature vector is unit rather than masked to zero."""
    return np.linalg.norm(features, axis=-1) > 0.5


def _feature_terms(raw, fixed, fixed_unmasked):
    """Feature loss of sampled features ``raw`` against ``fixed``, and its per-voxel terms.

    Each voxel compares ``s = raw . f / |raw|``, the similarity after
    re-normalization, so no normalized copy of ``raw`` is made. Voxels where
    ``|raw|`` is below :data:`~embreg.grid.MASK_NORM_EPS`, or outside
    ``fixed_unmasked`` (the fixed side's :func:`_unmasked` mask), are masked.
    Returns the loss, then flat over the voxels: ``s``, ``|raw|`` (1 where it
    is 0), the voxels unmasked on both sides, and their count.
    """
    if raw.shape != fixed.shape:
        raise ShapeMismatch(f"feature maps differ: {raw.shape} vs {fixed.shape}")
    rows = raw.reshape(-1, raw.shape[-1])
    norms = np.sqrt(np.einsum("nc,nc->n", rows, rows))
    unmasked = norms >= MASK_NORM_EPS
    unmasked &= fixed_unmasked.reshape(-1)
    n = int(np.count_nonzero(unmasked))
    if n == 0:
        raise EmptyOverlap("all voxels masked in feature loss")
    norms[norms == 0.0] = 1.0
    sims = np.einsum("nc,nc->n", rows, fixed.reshape(rows.shape))
    sims /= norms
    return float(np.sum((1.0 - sims)[unmasked]) / n), sims, norms, unmasked, n


def reg_loss(field) -> float:
    """Mean squared Frobenius norm of the forward-difference gradient."""
    return smoothness(check_vector_field(field, "field"))[0]


def instance_objective(field, moving: Bundle, fixed: Bundle, config: PipelineConfig, affine=None) -> float:
    """Similarity losses through ``affine`` plus ``lambda_reg`` times smoothness on the field.

    Checks nothing: the :class:`~embreg.bundle.Bundle` type carries the input contract.
    """
    return _loss(field, moving, *_constants(affine, fixed, config), config)[0]


def instance_gradient(
    field, moving: Bundle, fixed: Bundle, config: PipelineConfig, affine=None
) -> np.ndarray:
    """Analytic gradient of :func:`instance_objective` w.r.t. the field."""
    return _loss(field, moving, *_constants(affine, fixed, config), config)[1]()


def _constants(affine, fixed: Bundle, config):
    """A descent's constants: ``A^-1``, the fixed features, their mask and the fixed image.

    ``affine=None`` is the identity; the mask is :func:`_unmasked`'s. Under LNCC the image
    comes with its window sums (:func:`~embreg.metrics.lncc_fixed`), computed here once.
    """
    img_f = lncc_fixed(fixed.intensity) if config.intensity_term == "lncc" else fixed.intensity
    inverse = AffineTransform.identity() if affine is None else invert_affine(affine)
    return inverse, fixed.features, _unmasked(fixed.features), img_f


def _loss(field, moving: Bundle, inverse, feats_f, fixed_unmasked, img_f, config):
    """Instance objective at ``field``, a one-shot closure for its gradient, and the displacement.

    The displacement ``u`` is ``field`` itself, or in velocity mode its
    integral. One stencil samples the moving bundle at ``inverse`` of ``x +
    u(x)``, the points of the final map; its cotangents reach ``u`` through
    ``inverse.linear``. The closure reuses this forward pass (SVF tape,
    sampled features, the per-voxel terms of :func:`_feature_terms` and the
    stencil, whose derivatives only the closure computes); the intensity
    correlation's gradient comes with its value. The closure overwrites the
    sampled features with their cotangent and turns the similarities and
    norms into its per-voxel factors, in place, then makes one
    :meth:`~embreg.grid.Stencil.vjp` call that adds the moving intensity's
    products into the features' corner dots. ``inverse`` to ``img_f`` come
    from :func:`_constants`.
    """
    field = np.asarray(field, dtype=np.float64)
    if config.parameterization == "svf":
        displacement, tape = integrate_svf_with_tape(field)
    else:
        displacement, tape = field, None
    points = apply_affine(inverse, identity_grid(field.shape[:3]) + displacement)
    stencil = Stencil(points, moving.dims)
    raw = stencil.sample(moving.features)
    sim_value, sims, norms, unmasked, n = _feature_terms(raw, feats_f, fixed_unmasked)

    intensity = ()  # the moving intensity and its cotangent, for the features' vjp
    if config.intensity_term != "none":
        warped_img = stencil.sample(moving.intensity)
        if config.intensity_term == "ncc":
            corr, g_img = ncc_gradient(warped_img, img_f)
        else:
            corr, g_img = lncc_gradient(warped_img, img_f)
        sim_value += 1.0 - corr
        intensity = (moving.intensity, np.negative(g_img, out=g_img))

    reg_value, reg_gradient = smoothness(field)
    value = sim_value + config.lambda_reg * reg_value

    def gradient() -> np.ndarray:
        nonlocal raw, sims, norms, stencil
        # The feature cotangent (raw s / |raw| - f) / (n |raw|), the derivative
        # of -s / n through the re-normalization, written over the sampled
        # features as three row products; masked voxels get factor 0.
        rows = raw.reshape(-1, raw.shape[-1])
        sims /= norms  # s / |raw|
        norms *= n
        np.divide(unmasked, norms, out=norms)  # 1 / (n |raw|)
        rows *= sims[:, None]
        rows -= feats_f.reshape(rows.shape)
        rows *= norms[:, None]
        g_points = stencil.vjp(moving.features, rows, *intensity)
        # Free the cotangent and the stencil before the SVF adjoint builds its own.
        raw = rows = sims = norms = stencil = None
        g_disp = g_points @ inverse.linear
        g_field = svf_backward(g_disp, tape) if tape is not None else g_disp
        return g_field + config.lambda_reg * reg_gradient()

    return value, gradient, displacement


def optimize_instance(
    moving: Bundle, fixed: Bundle, config: PipelineConfig, affine=None, start=None
) -> np.ndarray:
    """Quasi-Newton descent (:func:`~embreg.descent.descend`); returns the final displacement.

    The field ``u`` lies on the fixed grid behind ``affine`` (the identity by
    default): the moving bundle is sampled at ``A^-1 (x + u(x))`` only. The
    descent starts from ``start`` (the zero field by default), and the
    smoothness term covers the whole field. In velocity mode the
    returned field is the displacement integrated with
    :data:`~embreg.transform.SVF_STEPS` squarings: the one the descent's
    last evaluation integrated when that was the returned velocity (every
    stop but ``stall``), else integrated once more. LNCC uses a window of
    :data:`~embreg.metrics.LNCC_WINDOW` voxels, and the fixed image's window
    sums are computed once a descent. Reads ``lambda_reg``,
    ``intensity_term``, ``parameterization`` and ``instance_iterations``
    from ``config``. The similarity terms carry no weight of their own: the
    descent does not see the objective's scale, so ``lambda_reg`` alone sets
    the trade-off. ``instance_iterations`` is a cap, and the descent stops
    earlier once an iteration gains less than
    :data:`~embreg.descent.PROGRESS` of the decrease so far. The bundles'
    own checks are the input contract; nothing is checked again here.
    """
    constants = _constants(affine, fixed, config)
    last = {}  # the field and displacement of the latest evaluation

    def evaluate(field):
        # Drop the previous trial's displacement before this one is integrated.
        last.clear()
        value, gradient, last["displacement"] = _loss(field, moving, *constants, config)
        last["field"] = field
        return value, gradient

    if start is None:
        start = np.zeros(fixed.dims + (3,))
    field = descend(evaluate, start, config.instance_iterations, progress=PROGRESS)
    if last["field"] is field:
        return last["displacement"]
    return integrate_svf(field) if config.parameterization == "svf" else field
