import numpy as np
import pytest

from embreg.errors import DegenerateIntensity, PairingError, ShapeMismatch
from embreg.metrics import (
    LNCC_WINDOW,
    RegistrationReport,
    dice,
    landmark_error,
    lncc,
    lncc_fixed,
    lncc_gradient,
    ncc,
    ncc_gradient,
)


# Larger than LNCC_WINDOW on every axis, so full and truncated windows both occur.
LNCC_SHAPE = (11, 12, 10)


def brute_force_lncc(a, b, var_eps=1e-12):
    """Direct per-voxel windowed Pearson correlation with border truncation."""
    r = LNCC_WINDOW // 2
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


@pytest.mark.parametrize("value", [np.nan, np.inf, 1.5])
def test_dice_rejects_labels_that_are_not_finite_integers(value):
    good = np.zeros((3, 3, 3))
    good[1, 1, 1] = 2.0
    bad = good.copy()
    bad[0, 0, 0] = value
    assert dice(good, good) == ({2: 1.0}, 1.0)  # integer values in a float array are labels
    for args in ((good, bad), (bad, good)):
        with pytest.raises(ShapeMismatch, match="finite integer"):
            dice(*args)


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
    a = rng.normal(size=LNCC_SHAPE)
    assert lncc(a, a) == pytest.approx(1.0)


def test_lncc_matches_brute_force_windows():
    rng = np.random.default_rng(5)
    a = rng.normal(size=LNCC_SHAPE)
    b = rng.normal(size=LNCC_SHAPE)
    assert lncc(a, b) == pytest.approx(brute_force_lncc(a, b), abs=1e-10)


@pytest.mark.parametrize("side", ["moving", "fixed"])
@pytest.mark.parametrize("metric", ["ncc", "lncc"])
def test_correlation_of_intensities_too_large_raises(metric, side):
    # Both correlations are scale-free; once a variance sum overflows they
    # cannot be computed, and must not read 0 with a zero gradient.
    rng = np.random.default_rng(9)
    a = rng.normal(size=(8, 8, 8))
    b = a + rng.normal(size=a.shape)
    value = {"ncc": ncc, "lncc": lncc}[metric]
    scaled = (lambda s: (a * s, b)) if side == "moving" else (lambda s: (a, b * s))
    assert value(*scaled(1e150)) == pytest.approx(value(a, b), rel=1e-12)
    with pytest.raises(DegenerateIntensity, match="intensities too large"):
        value(*scaled(1e160))


def test_lncc_degenerate_windows_contribute_zero():
    a = np.zeros((5, 5, 5))
    b = np.zeros((5, 5, 5))
    b[2, 2, 2] = 1.0
    # a is constant: every window degenerate on the a side
    assert lncc(a, b) == 0.0


def test_lncc_gradient_matches_finite_differences():
    rng = np.random.default_rng(6)
    a = rng.normal(size=LNCC_SHAPE)
    b = rng.normal(size=LNCC_SHAPE)
    value, grad = lncc_gradient(a, lncc_fixed(b))
    assert value == pytest.approx(lncc(a, b))
    h = 1e-6
    # a corner, the centre (every window through it is full) and random voxels
    picks = [(0, 0, 0), (5, 6, 5)] + [tuple(rng.integers(0, LNCC_SHAPE)) for _ in range(8)]
    for idx in picks:
        ap = a.copy()
        ap[idx] += h
        am = a.copy()
        am[idx] -= h
        fd = (lncc(ap, b) - lncc(am, b)) / (2 * h)
        # entries are ~7e-4 (a mean over 1320 voxels); the quotients agree within ~2e-12
        assert grad[idx] == pytest.approx(fd, abs=1e-9)


# A constant slab of 3 rows leaves every fixed window with some variance; at 5
# rows the border windows of the first row lie wholly inside it and degenerate.
@pytest.mark.parametrize("constant_rows", [3, 5])
def test_lncc_fixed_sums_give_the_bytes_of_one_shot_gradient(constant_rows):
    rng = np.random.default_rng(8)
    b = rng.normal(size=LNCC_SHAPE)
    b[:constant_rows] = 2.0
    fixed = lncc_fixed(b)
    assert (fixed.centred <= 1e-12).any() == (constant_rows >= LNCC_WINDOW // 2 + 1)
    for _ in range(3):
        a = rng.normal(size=b.shape)
        value, grad = lncc_gradient(a, fixed)
        want_value, want_grad = lncc_gradient(a, lncc_fixed(b))
        assert value == want_value == lncc(a, b)
        assert grad.tobytes() == want_grad.tobytes()
    with pytest.raises(ShapeMismatch):
        lncc_gradient(b[:4], fixed)


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


def test_report_json_and_table_are_pinned():
    report = RegistrationReport(
        per_label_dice={2: 0.8, 10: 0.5, 1: 0.9},
        mean_dice=0.85,
        mean_landmark_error=1.25,
        stage_timings={"match": 0.25, "affine": 0.125},
    )
    assert report.to_json() == (
        '{\n  "per_label_dice": {\n    "2": 0.8,\n    "10": 0.5,\n    "1": 0.9\n  },\n'
        '  "mean_dice": 0.85,\n  "folding_fraction": null,\n  "mean_landmark_error": 1.25,\n'
        '  "stage_timings": {\n    "match": 0.25,\n    "affine": 0.125\n  }\n}'
    )
    assert report.format_table() == (
        "metric                           value\n"
        "dice[1]                       0.900000\n"
        "dice[2]                       0.800000\n"
        "dice[10]                      0.500000\n"
        "mean_dice                     0.850000\n"
        "mean_landmark_error           1.250000\n"
        "time[affine] (s)                 0.125\n"
        "time[match] (s)                  0.250"
    )
