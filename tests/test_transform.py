import numpy as np
import pytest

from embreg.affine import AffineTransform, apply_affine, invert_affine
from embreg.errors import ShapeMismatch
from embreg.grid import Stencil, identity_grid, trilinear_sample
from embreg.synth import SynthSpec, random_smooth_warp
from embreg.transform import (
    SVF_STEPS,
    CompositeTransform,
    compose,
    folding_fraction,
    integrate_svf,
    integrate_svf_with_tape,
    jacobian_determinant,
    svf_backward,
)


def smooth_field(rng, dims, scale):
    from scipy import ndimage

    raw = rng.normal(size=dims + (3,))
    out = np.empty_like(raw)
    for c in range(3):
        out[..., c] = ndimage.gaussian_filter(raw[..., c], sigma=2.0)
    amp = np.max(np.abs(out))
    return out / amp * scale if amp > 0 else out


def test_integrate_zero_velocity_is_zero():
    out = integrate_svf(np.zeros((4, 4, 4, 3)))
    np.testing.assert_array_equal(out, 0.0)


def test_zero_velocity_tape_is_zero_and_its_adjoint_returns_the_cotangent():
    dims = (4, 5, 3)
    _, tape = integrate_svf_with_tape(np.zeros(dims + (3,)))
    assert len(tape) == SVF_STEPS + 1
    assert all(u.shape == dims + (3,) and not u.any() for u in tape)
    g = np.random.default_rng(4).normal(size=dims + (3,))
    assert svf_backward(g, tape).tobytes() == g.tobytes()
    # Each adjoint step maps g to g + 0 + g at the grid nodes.
    flat = g.reshape(-1, 3)
    stencil = Stencil(identity_grid(dims).reshape(-1, 3), dims)
    step = flat + stencil.vjp(tape[0], flat) + stencil.adjoint(flat).reshape(-1, 3)
    assert step.tobytes() == (2 * flat).tobytes()


def test_integrate_constant_velocity_in_interior():
    # a constant field composes to itself away from the clamped border,
    # so the integrated displacement equals the velocity there
    v = np.zeros((9, 9, 9, 3))
    v[..., 2] = 0.5
    u = integrate_svf(v)
    np.testing.assert_allclose(u[3:6, 3:6, 3:6, 2], 0.5, atol=1e-12)


def test_integration_inverse_velocity_composes_to_near_identity():
    rng = np.random.default_rng(1)
    dims = (12, 12, 12)
    v = smooth_field(rng, dims, scale=1.0)
    fwd = integrate_svf(v)
    bwd = integrate_svf(-v)
    grid = identity_grid(dims)
    # phi^-1(phi(x)) - x should be small in the interior
    comp = fwd + trilinear_sample(bwd, grid + fwd)
    interior = comp[3:-3, 3:-3, 3:-3]
    assert np.max(np.abs(interior)) < 0.05


def test_integration_follows_the_velocity_flow():
    # The flow of dx/dt = v(x) over unit time, by 64 RK4 steps of the same
    # trilinear velocity; compared on the interior, away from the clamped border.
    # Scaling and squaring stays this close with 4 or more squarings, not 3.
    v = random_smooth_warp(SynthSpec(dims=(20, 20, 20), warp_amplitude=2.0, warp_smoothness=4.0, seed=5))
    grid = identity_grid(v.shape[:3])
    x, h = grid, 1.0 / 64
    for _ in range(64):
        k1 = trilinear_sample(v, x)
        k2 = trilinear_sample(v, x + h / 2 * k1)
        k3 = trilinear_sample(v, x + h / 2 * k2)
        k4 = trilinear_sample(v, x + h * k3)
        x = x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    err = np.linalg.norm(integrate_svf(v) - (x - grid), axis=-1)[3:-3, 3:-3, 3:-3]
    assert err.mean() <= 0.0025
    assert err.max() <= 0.025


def test_tape_final_entry_matches_plain_integration():
    rng = np.random.default_rng(2)
    v = smooth_field(rng, (6, 6, 6), scale=1.0)
    u, tape = integrate_svf_with_tape(v)
    np.testing.assert_array_equal(u, tape[-1])
    np.testing.assert_allclose(u, integrate_svf(v), atol=1e-15)


def test_svf_backward_matches_finite_differences():
    rng = np.random.default_rng(3)
    dims = (5, 5, 5)
    v = smooth_field(rng, dims, scale=0.8)
    weights = rng.normal(size=dims + (3,))

    def loss(vel):
        return float(np.sum(weights * integrate_svf(vel)))

    _, tape = integrate_svf_with_tape(v)
    grad = svf_backward(weights, tape)
    h = 1e-6
    idxs = [tuple(rng.integers(0, s) for s in v.shape) for _ in range(12)]
    for idx in idxs:
        vp = v.copy()
        vp[idx] += h
        vm = v.copy()
        vm[idx] -= h
        fd = (loss(vp) - loss(vm)) / (2 * h)
        assert grad[idx] == pytest.approx(fd, abs=5e-6)


def test_compose_affine_only_is_inverse_affine_of_grid():
    rng = np.random.default_rng(4)
    t = AffineTransform.from_linear_translation(
        np.eye(3) + rng.uniform(-0.1, 0.1, (3, 3)), rng.uniform(-2, 2, 3)
    )
    dims = (4, 5, 6)
    out = compose(CompositeTransform(affine=t), dims=dims)
    want = apply_affine(invert_affine(t), identity_grid(dims))
    np.testing.assert_allclose(out, want, atol=1e-12)


def test_compose_identity_stages_is_identity_grid():
    dims = (4, 4, 4)
    t = CompositeTransform(
        affine=AffineTransform.identity(),
        coarse=np.zeros(dims + (3,)),
        dense=np.zeros(dims + (3,)),
    )
    np.testing.assert_allclose(compose(t, dims), identity_grid(dims), atol=1e-15)


def test_compose_constant_stages_add_before_inverse_affine():
    dims = (6, 6, 6)
    coarse = np.zeros(dims + (3,))
    coarse[..., 0] = 1.0
    dense = np.zeros(dims + (3,))
    dense[..., 2] = 0.5
    affine = AffineTransform.from_linear_translation(np.eye(3) * 2.0, [0.0, 0.0, 0.0])
    t = CompositeTransform(affine=affine, coarse=coarse, dense=dense)
    out = compose(t, dims)
    # constant fields: y2 = x + (0.5 in x) + (1 in z) sampled clamped; interior exact
    want = (identity_grid(dims) + [1.0, 0.0, 0.5]) / 2.0
    np.testing.assert_allclose(out[1:-1, 1:-1, 1:-1], want[1:-1, 1:-1, 1:-1], atol=1e-12)


def test_compose_is_the_inverse_affine_of_coarse_sampled_after_dense():
    rng = np.random.default_rng(9)
    dims = (5, 6, 7)
    coarse = rng.normal(scale=1.5, size=dims + (3,))
    dense = rng.normal(scale=1.5, size=dims + (3,))
    affine = AffineTransform.from_linear_translation(
        np.eye(3) + rng.uniform(-0.2, 0.2, (3, 3)), rng.uniform(-2, 2, 3)
    )
    out = compose(CompositeTransform(affine=affine, coarse=coarse, dense=dense), dims)
    y = identity_grid(dims) + dense
    want = apply_affine(invert_affine(affine), y + trilinear_sample(coarse, y))
    assert out.tobytes() == want.tobytes()


def test_composite_rejects_mismatched_stage_grids():
    with pytest.raises(ShapeMismatch):
        CompositeTransform(
            affine=AffineTransform.identity(),
            coarse=np.zeros((4, 4, 4, 3)),
            dense=np.zeros((5, 5, 5, 3)),
        )


def test_composite_keeps_contiguous_fields_and_copies_strided_ones():
    rng = np.random.default_rng(5)
    field = rng.normal(size=(4, 5, 6, 3))
    kept = CompositeTransform(affine=AffineTransform.identity(), coarse=field, dense=field)
    assert kept.coarse is field and kept.dense is field

    fortran = np.asfortranarray(field)
    channel_major = np.moveaxis(np.ascontiguousarray(np.moveaxis(field, -1, 0)), 0, -1)
    copied = CompositeTransform(affine=AffineTransform.identity(), coarse=fortran, dense=channel_major)
    for stored, given_view in ((copied.coarse, fortran), (copied.dense, channel_major)):
        assert stored.flags.c_contiguous
        assert not np.shares_memory(stored, given_view)
        np.testing.assert_array_equal(stored, field)


def test_compose_rejects_dense_field_on_another_grid():
    t = CompositeTransform(affine=AffineTransform.identity(), dense=np.zeros((4, 4, 4, 3)))
    with pytest.raises(ShapeMismatch):
        compose(t, (5, 4, 4))


def test_compose_rejects_coarse_field_on_another_grid():
    t = CompositeTransform(affine=AffineTransform.identity(), coarse=np.zeros((4, 4, 4, 3)))
    with pytest.raises(ShapeMismatch, match="field grid"):
        compose(t, (5, 4, 4))


def test_jacobian_of_identity_map_is_one():
    det = jacobian_determinant(identity_grid((5, 5, 5)))
    np.testing.assert_allclose(det, 1.0, atol=1e-12)
    assert folding_fraction(det) == 0.0


def test_jacobian_of_linear_map_is_its_determinant():
    lin = np.array([[2.0, 0.0, 0.0], [0.0, 1.0, 0.5], [0.0, 0.0, 1.5]])
    grid = identity_grid((5, 5, 5))
    phi = grid @ lin.T
    det = jacobian_determinant(phi)
    np.testing.assert_allclose(det, np.linalg.det(lin), atol=1e-10)


def test_jacobian_is_the_determinant_of_the_channel_gradients():
    rng = np.random.default_rng(10)
    phi = rng.normal(size=(4, 5, 6, 3))
    jac = np.empty((4, 5, 6, 3, 3))
    for c in range(3):
        for a, grad in enumerate(np.gradient(phi[..., c], axis=(0, 1, 2))):
            jac[..., c, a] = grad
    assert jacobian_determinant(phi).tobytes() == np.linalg.det(jac).tobytes()


def test_jacobian_displacement_flag_adds_identity():
    rng = np.random.default_rng(6)
    disp = smooth_field(rng, (6, 6, 6), 0.5)
    d1 = jacobian_determinant(disp, displacement=True)
    d2 = jacobian_determinant(disp + identity_grid((6, 6, 6)))
    np.testing.assert_allclose(d1, d2, atol=1e-12)


def test_folding_detects_reflection():
    grid = identity_grid((5, 5, 5)).copy()
    phi = grid.copy()
    phi[..., 0] = 4.0 - grid[..., 0]  # flip z: det = -1 everywhere
    det = jacobian_determinant(phi)
    assert folding_fraction(det) == 1.0


def test_folding_fraction_counts_zero_as_folded():
    assert folding_fraction(np.array([1.0, 0.0, -2.0, 3.0])) == pytest.approx(0.5)


def test_jacobian_rejects_tiny_volumes():
    with pytest.raises(ShapeMismatch):
        jacobian_determinant(np.zeros((2, 5, 5, 3)))
