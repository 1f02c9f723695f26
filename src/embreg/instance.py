"""Per-pair instance optimization of a dense displacement or velocity field.

Minimizes one minus mean feature similarity, plus an optional intensity
dissimilarity (NCC or LNCC), plus ``lambda_reg`` times a gradient-smoothness
penalty on the optimized field. Gradients are analytic through the whole
chain: trilinear sampling, per-voxel feature re-normalization, the
correlation terms, and (in velocity mode) scaling-and-squaring.
"""

from __future__ import annotations

import numpy as np

from .config import PipelineConfig
from .descent import PROGRESS, descend, smoothness
from .errors import EmptyOverlap, ShapeMismatch
from .grid import Stencil, check_vector_field, identity_grid, normalize_rows
from .grid import trilinear_sample_with_grad  # noqa: F401  (perfbench/tracer.py wraps this name here)
from .metrics import lncc_fixed, lncc_gradient, ncc_gradient
from .transform import integrate_svf, integrate_svf_with_tape, svf_backward


def sam_loss(warped_features, fixed_features) -> float:
    """Mean of ``1 - similarity`` over voxels unmasked on both sides."""
    w = np.asarray(warped_features, dtype=np.float64)
    f = np.asarray(fixed_features, dtype=np.float64)
    return _sam_terms(w, _unmasked(w), f, _unmasked(f))[0]


def _unmasked(features) -> np.ndarray:
    """Voxels whose feature vector is unit rather than masked to zero."""
    return np.linalg.norm(features, axis=-1) > 0.5


def _sam_terms(warped, warped_unmasked, fixed, fixed_unmasked):
    """Feature loss and a closure giving row blocks of its gradient.

    ``warped_unmasked`` and ``fixed_unmasked`` are both sides' :func:`_unmasked` masks.
    """
    if warped.shape != fixed.shape:
        raise ShapeMismatch(f"feature maps differ: {warped.shape} vs {fixed.shape}")
    unmasked = warped_unmasked & fixed_unmasked
    n = int(np.count_nonzero(unmasked))
    if n == 0:
        raise EmptyOverlap("all voxels masked in feature loss")
    sims = np.einsum("...c,...c->...", warped, fixed)
    value = float(np.sum((1.0 - sims)[unmasked]) / n)

    fixed_rows = fixed.reshape(-1, fixed.shape[-1])
    unmasked_rows = unmasked.reshape(-1)

    def gradient(block) -> np.ndarray:
        """Rows ``block`` of the gradient w.r.t. the ``(n, C)`` warped rows."""
        g = -fixed_rows[block]
        g /= n
        g[~unmasked_rows[block]] = 0.0
        return g

    return value, gradient


def reg_loss(field) -> float:
    """Mean squared Frobenius norm of the forward-difference gradient."""
    return smoothness(check_vector_field(field, "field"))[0]


def instance_objective(field, feats_m, feats_f, img_m, img_f, config: PipelineConfig) -> float:
    """Similarity losses on the warp plus ``lambda_reg`` times smoothness on the field."""
    field = np.asarray(field, dtype=np.float64)
    return _loss(field, feats_m, img_m, *_fixed_side(feats_f, img_f, config), config)[0]


def instance_gradient(field, feats_m, feats_f, img_m, img_f, config: PipelineConfig) -> np.ndarray:
    """Analytic gradient of :func:`instance_objective` w.r.t. the field."""
    field = np.asarray(field, dtype=np.float64)
    return _loss(field, feats_m, img_m, *_fixed_side(feats_f, img_f, config), config)[1]()


def _fixed_side(feats_f, img_f, config):
    """The fixed features as float64, their :func:`_unmasked` mask and the fixed image.

    These are constant over a descent. Under LNCC the image comes with its
    window sums (:func:`~embreg.metrics.lncc_fixed`), computed here once.
    """
    f = np.asarray(feats_f, dtype=np.float64)
    if config.intensity_term == "lncc" and img_f is not None:
        img_f = lncc_fixed(img_f)
    return f, _unmasked(f), img_f


def _loss(field, feats_m, img_m, feats_f, fixed_unmasked, img_f, config):
    """Instance objective at ``field``, a one-shot closure for its gradient, and the displacement.

    The closure reuses this forward pass (SVF tape, sampled features and the
    stencil of the warped grid, whose derivatives only the closure computes);
    the intensity correlation's gradient comes with its value. ``feats_f``,
    ``fixed_unmasked`` and ``img_f`` come from :func:`_fixed_side`. The
    displacement is ``field`` itself, or in velocity mode its integral.
    """
    if config.parameterization == "svf":
        displacement, tape = integrate_svf_with_tape(field)
    else:
        displacement, tape = field, None
    stencil = Stencil(identity_grid(field.shape[:3]) + displacement, np.shape(feats_m)[:3])
    # Sampled, then normalized in place one row block at a time.
    warped = stencil.sample(feats_m)
    warped_rows = warped.reshape(-1, warped.shape[-1])
    safe, masked = normalize_rows(warped_rows)
    # The warped vectors are unit or zero, so ``~masked`` is their _unmasked mask.
    sim_value, sam_gradient = _sam_terms(
        warped, ~masked.reshape(warped.shape[:-1]), feats_f, fixed_unmasked
    )

    if config.intensity_term != "none":
        if img_m is None or img_f is None:
            raise ShapeMismatch("intensity term requested but intensities missing")
        warped_img = stencil.sample(img_m)
        if config.intensity_term == "ncc":
            corr, g_img = ncc_gradient(warped_img, img_f)
        else:
            corr, g_img = lncc_gradient(warped_img, img_f)
        sim_value += 1.0 - corr

    reg_value, reg_gradient = smoothness(field)
    value = sim_value + config.lambda_reg * reg_value

    def feature_gradient() -> np.ndarray:
        def g_raw(block):
            # back through per-voxel re-normalization: (I - s s^T) / |raw|
            g = sam_gradient(block)
            w = warped_rows[block]
            g -= np.einsum("nc,nc->n", g, w)[:, None] * w
            g /= safe[block]
            g[masked[block]] = 0.0
            return g

        return stencil.vjp(feats_m, g_raw)

    def intensity_gradient() -> np.ndarray:
        return stencil.vjp(img_m, -g_img)

    def gradient() -> np.ndarray:
        nonlocal feature_gradient, intensity_gradient
        g_disp = feature_gradient()
        # Free the sampled features before the intensity term's product, and
        # the stencil before the SVF adjoint builds its own.
        feature_gradient = None
        if config.intensity_term != "none":
            g_disp += intensity_gradient()
        intensity_gradient = None
        g_field = svf_backward(g_disp, tape) if tape is not None else g_disp
        return g_field + config.lambda_reg * reg_gradient()

    return value, gradient, displacement


def optimize_instance(feats_m, feats_f, img_m, img_f, config: PipelineConfig) -> np.ndarray:
    """Quasi-Newton descent (:func:`~embreg.descent.descend`); returns the final displacement.

    The descent starts from the zero field on the fixed grid, whose velocity
    integrates to zero without sampling. In velocity mode the returned field
    is the displacement integrated with :data:`~embreg.transform.SVF_STEPS`
    squarings: the one the descent's last evaluation integrated when that was
    the returned velocity (every stop but ``stall``), else integrated once
    more. LNCC uses a window of :data:`~embreg.metrics.LNCC_WINDOW` voxels,
    and the fixed image's window sums are computed once a descent. Reads
    ``lambda_reg``, ``intensity_term``, ``parameterization`` and
    ``instance_iterations`` from ``config``. The similarity terms carry no
    weight of their own: the descent does not see the objective's scale, so
    ``lambda_reg`` alone sets the trade-off. ``instance_iterations`` is a
    cap, and the descent stops earlier once an iteration gains less than
    :data:`~embreg.descent.PROGRESS` of the decrease so far.
    """
    fixed = _fixed_side(feats_f, img_f, config)
    last = {}  # the field and displacement of the latest evaluation

    def evaluate(field):
        # Drop the previous trial's displacement before this one is integrated.
        last.clear()
        value, gradient, last["displacement"] = _loss(field, feats_m, img_m, *fixed, config)
        last["field"] = field
        return value, gradient

    field = descend(
        evaluate,
        np.zeros(np.shape(feats_f)[:3] + (3,)),
        config.instance_iterations,
        progress=PROGRESS,
    )
    if last["field"] is field:
        return last["displacement"]
    return integrate_svf(field) if config.parameterization == "svf" else field
