import numpy as np
import pytest

from embreg.errors import DegenerateIntensity, PairingError, ShapeMismatch
from embreg.metrics import (
    RegistrationReport,
    dice,
    landmark_error,
    lncc,
    lncc_fixed,
    lncc_gradient,
    ncc,
    ncc_gradient,
)


def brute_force_lncc(a, b, window, var_eps=1e-12):
    """Direct per-voxel windowed Pearson correlation with border truncation."""
    r = window // 2
    dims = a.shape
    out = np.zeros(dims)
    for idx in np.ndindex(dims):
        sl = tuple(
            slice(max(0, i - r), min(d, i + r + 1)) for i, d in zip(idx, dims)
        )
        aw = a[sl].ravel()
        bw = b[sl].ravel()
        az = aw - aw.mean()
        bz = bw - bw.mean()
        saa = float(np.sum(az * az))
        sbb = float(np.sum(bz * bz))
        if saa > var_eps and sbb > var_eps:
            out[idx] = float(np.sum(az * bz) / np.sqrt(saa * sbb))
    return float(out.mean())


def test_dice_identical_volumes_scores_one():
    labels = np.zeros((4, 4, 4), dtype=int)
    labels[1:3, 1:3, 1:3] = 1
    labels[2, 2, 2] = 2
    per, mean = dice(labels, labels)
    assert per == {1: 1.0, 2: 1.0}
    assert mean == 1.0


def test_dice_disjoint_volumes_scores_zero():
    a = np.zeros((4, 4, 4), dtype=int)
    b = np.zeros((4, 4, 4), dtype=int)
    a[0, 0, 0] = 1
    b[3, 3, 3] = 1
    per, mean = dice(a, b)
    assert per == {1: 0.0}
    assert mean == 0.0


def test_dice_half_overlap_hand_example():
    a = np.zeros((2, 2, 2), dtype=int)
    b = np.zeros((2, 2, 2), dtype=int)
    a[0, 0, :] = 1  # two voxels
    b[0, 0, 0] = 1  # one voxel, one shared
    per, _ = dice(a, b)
    assert per[1] == pytest.approx(2.0 * 1 / (2 + 1))


def test_dice_one_sided_label_scores_zero_and_background_omitted():
    a = np.zeros((3, 3, 3), dtype=int)
    a[0, 0, 0] = 5
    b = np.zeros((3, 3, 3), dtype=int)
    per, mean = dice(a, b)
    assert per == {5: 0.0}
    assert 0 not in per
    assert mean == 0.0


def test_dice_rejects_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        dice(np.zeros((2, 2, 2)), np.zeros((3, 3, 3)))


def test_ncc_trivial_values():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(5, 5, 5))
    assert ncc(a, a) == pytest.approx(1.0)
    assert ncc(a, -a) == pytest.approx(-1.0)
    assert ncc(a, 3.0 * a + 2.0) == pytest.approx(1.0)


def test_ncc_matches_numpy_corrcoef():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(4, 4, 4))
    b = rng.normal(size=(4, 4, 4))
    want = np.corrcoef(a.ravel(), b.ravel())[0, 1]
    assert ncc(a, b) == pytest.approx(want, abs=1e-12)


def test_ncc_rejects_constant_volume():
    with pytest.raises(DegenerateIntensity):
        ncc(np.full((3, 3, 3), 2.0), np.random.default_rng(2).normal(size=(3, 3, 3)))


def test_ncc_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 4, 4))
    b = rng.normal(size=(4, 4, 4))
    value, grad = ncc_gradient(a, b)
    assert value == pytest.approx(ncc(a, b))
    h = 1e-6
    for idx in [tuple(rng.integers(0, 4, size=3)) for _ in range(10)]:
        ap = a.copy()
        ap[idx] += h
        am = a.copy()
        am[idx] -= h
        fd = (ncc(ap, b) - ncc(am, b)) / (2 * h)
        assert grad[idx] == pytest.approx(fd, abs=1e-8)


def test_lncc_identical_nonconstant_volume_is_one():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(6, 6, 6))
    assert lncc(a, a, window=3) == pytest.approx(1.0)


def test_lncc_matches_brute_force_windows():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(5, 6, 4))
    b = rng.normal(size=(5, 6, 4))
    for window in (3, 5):
        assert lncc(a, b, window) == pytest.approx(
            brute_force_lncc(a, b, window), abs=1e-10
        )


def test_lncc_degenerate_windows_contribute_zero():
    a = np.zeros((5, 5, 5))
    b = np.zeros((5, 5, 5))
    b[2, 2, 2] = 1.0
    # a is constant: every window degenerate on the a side
    assert lncc(a, b, window=3) == 0.0


def test_lncc_rejects_even_or_small_window():
    a = np.zeros((4, 4, 4))
    with pytest.raises(ShapeMismatch):
        lncc(a, a, window=4)
    with pytest.raises(ShapeMismatch):
        lncc(a, a, window=1)


def test_lncc_gradient_matches_finite_differences():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(4, 4, 4))
    b = rng.normal(size=(4, 4, 4))
    value, grad = lncc_gradient(a, b, window=3)
    assert value == pytest.approx(lncc(a, b, window=3))
    h = 1e-6
    for idx in [tuple(rng.integers(0, 4, size=3)) for _ in range(10)]:
        ap = a.copy()
        ap[idx] += h
        am = a.copy()
        am[idx] -= h
        fd = (lncc(ap, b, 3) - lncc(am, b, 3)) / (2 * h)
        assert grad[idx] == pytest.approx(fd, abs=1e-7)


@pytest.mark.parametrize("window", [3, 5])
def test_lncc_fixed_sums_give_the_bytes_of_one_shot_gradient(window):
    rng = np.random.default_rng(8)
    b = rng.normal(size=(6, 5, 7))
    b[:3] = 2.0  # constant windows on the fixed side
    fixed = lncc_fixed(b, window)
    for _ in range(3):
        a = rng.normal(size=b.shape)
        value, grad = lncc_gradient(a, fixed, window)
        want_value, want_grad = lncc_gradient(a, b, window)
        assert value == want_value
        assert grad.tobytes() == want_grad.tobytes()
    with pytest.raises(ShapeMismatch):
        lncc_gradient(b, lncc_fixed(b, 7), window)
    with pytest.raises(ShapeMismatch):
        lncc_gradient(b[:4], fixed, window)


def test_landmark_error_identity_mapping():
    rng = np.random.default_rng(7)
    pts = rng.uniform(0, 10, size=(8, 3))
    assert landmark_error(pts, pts, lambda p: p) == pytest.approx(0.0)


def test_landmark_error_constant_offset_and_spacing():
    pts_f = np.zeros((4, 3))
    pts_m = np.zeros((4, 3))
    mapping = lambda p: p + np.array([0.0, 3.0, 4.0])  # noqa: E731
    assert landmark_error(pts_m, pts_f, mapping) == pytest.approx(5.0)
    assert landmark_error(pts_m, pts_f, mapping, spacing=(1.0, 2.0, 1.0)) == pytest.approx(
        np.sqrt(36.0 + 16.0)
    )


def test_landmark_error_rejects_unpaired_lists():
    with pytest.raises(PairingError):
        landmark_error(np.zeros((3, 3)), np.zeros((4, 3)), lambda p: p)
    with pytest.raises(PairingError):
        landmark_error(np.zeros((0, 3)), np.zeros((0, 3)), lambda p: p)


def test_report_json_round_trip_and_table():
    report = RegistrationReport(
        per_label_dice={1: 0.9, 2: 0.8},
        mean_dice=0.85,
        folding_fraction=0.0,
        mean_landmark_error=0.42,
        stage_timings={"affine": 0.1},
    )
    back = RegistrationReport.from_json(report.to_json())
    assert back == report
    table = report.format_table()
    assert "mean_dice" in table and "0.850000" in table
    assert "dice[1]" in table and "time[affine]" in table
