import tracemalloc

import numpy as np
import pytest

from embreg import matching
from embreg.errors import DimensionMismatch, InvalidStep, ShapeMismatch
from embreg.grid import normalize_features
from embreg.matching import (
    UNIT_NORM_TOL,
    MatchSet,
    check_unit_or_zero,
    filter_matches,
    find_points,
    load_matches,
    save_matches,
    select_points,
    sscc,
)


def distinct_features(dims, channels, seed):
    rng = np.random.default_rng(seed)
    return normalize_features(rng.normal(size=dims + (channels,)))


def test_select_points_step_two_on_cube():
    pts = select_points((4, 4, 4), 2)
    assert len(pts) == 8
    assert set(map(tuple, pts)) == {(z, y, x) for z in (1, 3) for y in (1, 3) for x in (1, 3)}


def test_select_points_single_voxel():
    pts = select_points((1, 1, 1), 1)
    assert pts.tolist() == [[0, 0, 0]]


def test_select_points_count_matches_enumeration_oracle():
    dims, step = (5, 4, 4), 2
    oracle = [
        (z, y, x)
        for z in range(dims[0])
        for y in range(dims[1])
        for x in range(dims[2])
        if all((c - step // 2) % step == 0 and c >= step // 2 for c in (z, y, x))
    ]
    pts = select_points(dims, step)
    assert len(pts) == len(oracle) == 8


def test_select_points_rejects_bad_step():
    with pytest.raises(InvalidStep):
        select_points((4, 4, 4), 0)


def test_find_points_identity_on_self():
    feats = distinct_features((3, 3, 3), 8, seed=0)
    keys = select_points((3, 3, 3), 1)
    found = find_points(keys, feats, feats)
    np.testing.assert_array_equal(found, keys)


def first_max_scan(keys, fk, fq):
    """Sequential scan over query voxels in (z, y, x) order keeping the first maximum."""
    found = []
    for key in keys:
        best, best_score = None, -np.inf
        for z in range(fq.shape[0]):
            for y in range(fq.shape[1]):
                for x in range(fq.shape[2]):
                    s = float(np.dot(fk[tuple(key)], fq[z, y, x]))
                    if s > best_score:
                        best, best_score = (z, y, x), s
        found.append(best)
    return np.array(found)


def test_find_points_matches_brute_force_loop():
    fk = distinct_features((2, 2, 2), 4, seed=1)
    fq = distinct_features((2, 2, 2), 4, seed=2)
    keys = select_points((2, 2, 2), 1)
    np.testing.assert_array_equal(find_points(keys, fk, fq), first_max_scan(keys, fk, fq))


def test_find_points_tie_breaks_to_lowest_lexicographic():
    fk = distinct_features((2, 2, 2), 4, seed=3)
    fq = np.broadcast_to(fk[0, 0, 0], (2, 2, 2, 4)).copy()
    found = find_points(select_points((2, 2, 2), 1), fk, fq)
    assert np.all(found == 0)


def test_find_points_blocks_match_first_max_scan_on_ties(monkeypatch):
    dims = (4, 5, 6)
    fk = distinct_features(dims, 4, seed=20)
    fq = distinct_features(dims, 4, seed=21)
    # exact duplicates in the query map, at the first and last flat voxel and inside
    fq[-1, -1, -1] = fq[0, 0, 0]
    fq[3, 0, 2] = fq[1, 4, 5]
    fq[2, 2, 2] = fq[1, 4, 5]
    # key vectors equal to the duplicated ones, so the tied voxels hold the maximum
    fk[0, 1, 1] = fq[0, 0, 0]
    fk[3, 4, 0] = fq[0, 0, 0]
    fk[1, 1, 1] = fq[1, 4, 5]
    fk[2, 3, 4] = fq[1, 4, 5]
    keys = select_points(dims, 1)
    rows = 7
    monkeypatch.setattr(matching, "_BLOCK_BYTES", rows * 8 * fq[..., 0].size)
    assert len(keys) > 2 * rows
    found = find_points(keys, fk, fq)
    np.testing.assert_array_equal(found, first_max_scan(keys, fk, fq))
    assert tuple(found[keys.tolist().index([3, 4, 0])]) == (0, 0, 0)
    assert tuple(found[keys.tolist().index([2, 3, 4])]) == (1, 4, 5)


def test_find_points_peak_memory_flat_in_key_count():
    dims = (24, 24, 24)
    feats = distinct_features(dims, 16, seed=22)
    rng = np.random.default_rng(23)
    peaks = []
    for n in (200, 2000):
        keys = rng.integers(0, 24, size=(n, 3))
        tracemalloc.start()
        find_points(keys, feats, feats)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    # a dense (voxels x keys) score matrix would take 22 MB and 221 MB
    assert peaks[1] < peaks[0] + 2**20
    assert peaks[1] < matching._BLOCK_BYTES + 2**20


def test_find_points_rejects_channel_mismatch():
    with pytest.raises(DimensionMismatch):
        find_points(
            np.array([[0, 0, 0]]),
            distinct_features((2, 2, 2), 4, seed=4),
            distinct_features((2, 2, 2), 5, seed=5),
        )


def test_sscc_fixed_point_on_identical_maps():
    feats = distinct_features((6, 6, 6), 12, seed=6)
    ms = sscc(feats, feats, step=2, iterations=5)
    np.testing.assert_array_equal(ms.moving, ms.fixed)
    np.testing.assert_allclose(ms.scores, 1.0, atol=1e-12)


def test_sscc_recovers_integer_translation():
    feats = distinct_features((8, 8, 8), 16, seed=7)
    t = np.array([0, 1, 2])
    shifted = np.roll(feats, shift=tuple(t), axis=(0, 1, 2))
    ms = sscc(feats, shifted, step=2, iterations=5)
    interior = np.all((ms.moving >= 2) & (ms.moving + t <= 6), axis=1)
    assert interior.sum() > 0
    offsets = ms.fixed[interior] - ms.moving[interior]
    assert np.all(offsets == t)


def test_sscc_ambiguous_key_converges_to_cycle_fixed_point():
    # an ambiguous feature: one moving voxel duplicated at two distant fixed spots
    feats_m, feats_f = planted_ambiguity()
    ms = sscc(feats_m, feats_f, step=2, iterations=5)
    for xm in ms.moving:
        xf = find_points(xm[None], feats_m, feats_f)
        back = find_points(xf, feats_f, feats_m)
        assert tuple(back[0]) == tuple(xm)


def test_sscc_collapses_duplicate_pairs():
    feats_m = distinct_features((4, 4, 4), 8, seed=10)
    feats_f = np.broadcast_to(feats_m[1, 1, 1], (4, 4, 4, 8)).copy()
    ms = sscc(feats_m, feats_f, step=2, iterations=3)
    pairs = {tuple(np.concatenate([m, f])) for m, f in zip(ms.moving, ms.fixed)}
    assert len(pairs) == len(ms)


def sscc_all_rounds(fm, ff, step, iterations):
    """``sscc`` without the early stop: every one of ``iterations`` rounds is searched."""
    x_m = select_points(fm.shape[:3], step)
    for _ in range(iterations):
        x_f = find_points(x_m, fm, ff)
        x_m = find_points(x_f, ff, fm)
    scores = np.einsum("nc,nc->n", fm[tuple(x_m.T)], ff[tuple(x_f.T)])
    _, first = np.unique(np.concatenate([x_m, x_f], axis=1), axis=0, return_index=True)
    keep = np.sort(first)
    return x_m[keep], x_f[keep], scores[keep]


def planted_ambiguity():
    feats_m = distinct_features((5, 5, 5), 8, seed=8)
    feats_f = distinct_features((5, 5, 5), 8, seed=9)
    feats_f[0, 0, 0] = feats_m[2, 2, 2]
    feats_f[4, 4, 4] = feats_m[2, 2, 2]
    return feats_m, feats_f


@pytest.mark.parametrize("iterations", [1, 2, 3, 5])
@pytest.mark.parametrize("case", ["random-1", "random-2", "random-3", "planted"])
def test_sscc_early_stop_equals_all_rounds(case, iterations):
    if case == "planted":
        fm, ff = planted_ambiguity()
    else:
        seed = int(case.split("-")[1])
        fm = distinct_features((6, 7, 5), 3, seed=30 + seed)
        ff = distinct_features((6, 7, 5), 3, seed=40 + seed)
    ms = sscc(fm, ff, step=2, iterations=iterations)
    moving, fixed, scores = sscc_all_rounds(fm, ff, 2, iterations)
    np.testing.assert_array_equal(ms.moving, moving)
    np.testing.assert_array_equal(ms.fixed, fixed)
    np.testing.assert_array_equal(ms.scores, scores)


def test_sscc_stops_after_two_searches_on_identical_maps(monkeypatch):
    feats = distinct_features((6, 6, 6), 12, seed=6)
    calls = []

    def counting(*args):
        calls.append(1)
        return find_points(*args)

    monkeypatch.setattr(matching, "find_points", counting)
    ms = sscc(feats, feats, step=4, iterations=5)
    assert len(calls) == 2
    np.testing.assert_array_equal(ms.moving, ms.fixed)


def test_sscc_with_a_huge_round_count_returns_at_its_fixed_point(monkeypatch):
    # Without the stop, rounds past the fixed point would read memo lookups
    # for 10**18 rounds; the wrapped lookups fail the test after 50 calls.
    fm, ff = planted_ambiguity()
    expected = sscc(fm, ff, step=2, iterations=5)
    memo_search = matching._memo_search
    lookups = []

    def bounded(feat_key, feat_query):
        search = memo_search(feat_key, feat_query)

        def counted(keys):
            lookups.append(1)
            assert len(lookups) <= 50, "sscc did not stop at its fixed point"
            return search(keys)

        return counted

    monkeypatch.setattr(matching, "_memo_search", bounded)
    ms = sscc(fm, ff, step=2, iterations=10**18)
    np.testing.assert_array_equal(ms.moving, expected.moving)
    np.testing.assert_array_equal(ms.fixed, expected.fixed)
    np.testing.assert_array_equal(ms.scores, expected.scores)


def test_filter_matches_threshold_behavior():
    ms = MatchSet(
        moving=np.zeros((3, 3), dtype=int),
        fixed=np.zeros((3, 3), dtype=int),
        scores=np.array([0.6, 0.7, 0.8]),
    )
    assert len(filter_matches(ms, -1.0)) == 3
    assert len(filter_matches(ms, 1.0)) == 0
    kept = filter_matches(ms, 0.7)
    assert kept.scores.tolist() == [0.8]


def test_filter_matches_monotone_in_threshold():
    rng = np.random.default_rng(11)
    n = 40
    ms = MatchSet(
        moving=rng.integers(0, 4, size=(n, 3)),
        fixed=rng.integers(0, 4, size=(n, 3)),
        scores=rng.uniform(-1, 1, size=n),
    )
    for e1, e2 in [(-0.5, 0.0), (0.0, 0.4), (0.4, 0.9)]:
        low = {tuple(r) for r in np.concatenate([filter_matches(ms, e1).moving, filter_matches(ms, e1).fixed], axis=1)}
        high = {tuple(r) for r in np.concatenate([filter_matches(ms, e2).moving, filter_matches(ms, e2).fixed], axis=1)}
        assert high <= low


def test_identity_maps_return_full_lattice_after_filter():
    feats = distinct_features((8, 8, 8), 16, seed=12)
    ms = filter_matches(sscc(feats, feats, step=2, iterations=5), 0.7)
    expected = select_points((8, 8, 8), 2)
    np.testing.assert_array_equal(np.sort(ms.moving, axis=0), np.sort(expected, axis=0))
    np.testing.assert_array_equal(ms.moving, ms.fixed)


def test_match_serialization_round_trip(tmp_path):
    rng = np.random.default_rng(13)
    ms = MatchSet(
        moving=rng.integers(0, 9, size=(10, 3)),
        fixed=rng.integers(0, 9, size=(10, 3)),
        scores=rng.uniform(-1, 1, size=10),
    )
    path = tmp_path / "matches.txt"
    save_matches(ms, path)
    back = load_matches(path)
    np.testing.assert_array_equal(back.moving, ms.moving)
    np.testing.assert_array_equal(back.fixed, ms.fixed)
    np.testing.assert_allclose(back.scores, ms.scores, rtol=1e-6)


@pytest.mark.parametrize(
    "content", [b"1 2 x 4 5 6 0.9\n", b"1 2 3 4 5 6 high\n", b"\xff1 2 3 4 5 6 0.9\n"]
)
def test_load_matches_rejects_malformed_text(tmp_path, content):
    path = tmp_path / "matches.txt"
    path.write_bytes(content)
    with pytest.raises(ShapeMismatch):
        load_matches(path)


@pytest.mark.parametrize("case", ["random-1", "random-2", "random-3", "planted", "no-new-keys"])
def test_sscc_searches_each_voxel_once_per_direction(monkeypatch, case):
    if case == "planted":
        fm, ff = planted_ambiguity()
    elif case == "no-new-keys":
        # The fourth search of the loop gets only keys searched before, so it is skipped.
        fm = distinct_features((5, 5, 5), 2, seed=1010)
        ff = distinct_features((5, 5, 5), 2, seed=5010)
    else:
        seed = int(case.split("-")[1])
        fm = distinct_features((6, 7, 5), 3, seed=30 + seed)
        ff = distinct_features((6, 7, 5), 3, seed=40 + seed)
    searched = {"forward": [], "backward": []}

    def recording(keys, feat_key, feat_query):
        assert len(keys) > 0  # a round with no new keys makes no call
        direction = "forward" if feat_key is fm else "backward"
        searched[direction].extend(map(tuple, keys))
        return find_points(keys, feat_key, feat_query)

    monkeypatch.setattr(matching, "find_points", recording)
    ms = sscc(fm, ff, step=2, iterations=5)
    for keys in searched.values():
        assert len(keys) == len(set(keys))
    moving, fixed, scores = sscc_all_rounds(fm, ff, 2, 5)
    np.testing.assert_array_equal(ms.moving, moving)
    np.testing.assert_array_equal(ms.fixed, fixed)
    np.testing.assert_array_equal(ms.scores, scores)


def test_unit_or_zero_allows_f32_rounding_and_rejects_the_rest():
    unit = normalize_features(np.random.default_rng(0).normal(size=(6, 6, 6, 16)))
    unit[0] = 0.0
    check_unit_or_zero(unit.astype(np.float32).astype(np.float64))
    near = np.zeros((2, 1, 1, 3))
    near[:, ..., 0] = 1.0 + 0.5 * UNIT_NORM_TOL
    check_unit_or_zero(near)
    for bad in (1.0 + 2 * UNIT_NORM_TOL, 0.5, np.nan):
        near[0, ..., 0] = bad
        with pytest.raises(ShapeMismatch, match="^where: feature vectors must be zero or unit-norm.*1 of 2"):
            check_unit_or_zero(near, "where: ")
