"""Acceptance gate: one criterion per test, one printed PASS/FAIL line each.

The lines are printed with capture disabled so they survive pytest's output
capture and show up in piped logs.
"""

import time

import numpy as np

from embreg.affine import AffineTransform, apply_affine, fit_affine_points, invert_affine
from embreg.bundle import Bundle
from embreg.coarse import (
    coarse_gradient,
    coarse_objective,
    optimize_coarse,
    upsample_coarse,
)
from embreg.config import PipelineConfig
from embreg.container import read_vol1, write_vol1
from embreg.errors import CorruptContainer, NotVol1
from embreg.grid import identity_grid, normalize_features
from embreg.instance import instance_gradient, instance_objective
from embreg.matching import MatchSet, filter_matches, find_points, sscc
from embreg.metrics import LNCC_WINDOW, dice, landmark_error, lncc, ncc
from embreg.pipeline import run_pipeline
from embreg.synth import SynthSpec, make_atlas, make_pair, random_smooth_warp
from embreg.transform import (
    CompositeTransform,
    compose,
    folding_fraction,
    integrate_svf,
    jacobian_determinant,
)


def _criterion(number, name, body, capfd):
    ok = False
    try:
        body()
        ok = True
    finally:
        status = "PASS" if ok else "FAIL"
        with capfd.disabled():
            print(f"[criterion {number}] {name}: {status}", flush=True)


def _rel_err(analytic, fd):
    return abs(analytic - fd) / max(1.0, abs(fd))


def test_criterion_1_gradient_correctness(capfd):
    def body():
        start = time.perf_counter()
        worst_coarse = 0.0
        worst_instance = 0.0
        h = 1e-5
        for seed in range(20):
            rng = np.random.default_rng(seed)
            dims = (8, 8, 8)

            # coarse gradient vs central differences, every lattice entry
            n = 10
            moving = rng.integers(1, 7, size=(n, 3))
            fixed = np.clip(moving + rng.integers(-2, 3, size=(n, 3)), 0, 7)
            ms = MatchSet(moving=moving, fixed=fixed, scores=np.ones(n))
            affine = AffineTransform.from_linear_translation(
                np.eye(3) + rng.uniform(-0.05, 0.05, (3, 3)), rng.uniform(-1, 1, 3)
            )
            lam = float(rng.uniform(0.1, 2.0))
            lattice = rng.normal(scale=0.5, size=(2, 2, 2, 3))
            grad = coarse_gradient(lattice, ms, affine, lam)
            for idx in np.ndindex(lattice.shape):
                lp = lattice.copy()
                lp[idx] += h
                lm = lattice.copy()
                lm[idx] -= h
                fd = (
                    coarse_objective(lp, ms, affine, lam)
                    - coarse_objective(lm, ms, affine, lam)
                ) / (2 * h)
                worst_coarse = max(worst_coarse, _rel_err(grad[idx], fd))

            # instance gradient, rotating through loss variants
            idims = (6, 6, 6)
            feats_m = normalize_features(rng.normal(size=idims + (4,)))
            feats_f = normalize_features(rng.normal(size=idims + (4,)))
            bundle_m = Bundle(feats_m, rng.normal(size=idims))
            bundle_f = Bundle(feats_f, rng.normal(size=idims))
            term = ("none", "ncc", "lncc")[seed % 3]
            param = ("displacement", "svf")[seed % 2]
            cfg = PipelineConfig(
                lambda_reg=float(rng.uniform(0.1, 1.0)),
                intensity_term=term,
                parameterization=param,
            )
            field = rng.normal(scale=0.3, size=idims + (3,))
            igrad = instance_gradient(field, bundle_m, bundle_f, cfg)
            for _ in range(6):
                idx = tuple(rng.integers(0, s) for s in field.shape)
                fp = field.copy()
                fp[idx] += h
                fm = field.copy()
                fm[idx] -= h
                fd = (
                    instance_objective(fp, bundle_m, bundle_f, cfg)
                    - instance_objective(fm, bundle_m, bundle_f, cfg)
                ) / (2 * h)
                worst_instance = max(worst_instance, _rel_err(igrad[idx], fd))

        elapsed = time.perf_counter() - start
        assert worst_coarse < 1e-5, f"coarse gradient rel err {worst_coarse:.3g}"
        assert worst_instance < 1e-4, f"instance gradient rel err {worst_instance:.3g}"
        assert elapsed < 30.0, f"took {elapsed:.1f}s"

    _criterion(1, "gradient correctness", body, capfd)


def test_criterion_2_affine_recovery(capfd):
    def body():
        start = time.perf_counter()
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            lin = np.eye(3) + rng.uniform(-0.2, 0.2, (3, 3))
            truth = AffineTransform.from_linear_translation(lin, rng.uniform(-3, 3, 3))

            pts = rng.uniform(0, 24, size=(50, 3))
            fitted = fit_affine_points(pts, apply_affine(truth, pts))
            clean_err = float(np.max(np.abs(fitted.matrix - truth.matrix)))
            assert clean_err < 1e-8, f"seed {seed}: noise-free error {clean_err:.3g}"

            # centered cloud so the translation entry is not leverage-inflated
            pts = rng.uniform(-16, 16, size=(200, 3))
            noisy = apply_affine(truth, pts) + rng.normal(scale=0.1, size=(200, 3))
            fitted = fit_affine_points(pts, noisy)
            noisy_err = float(np.max(np.abs(fitted.matrix - truth.matrix)))
            assert noisy_err < 0.05, f"seed {seed}: noisy error {noisy_err:.3g}"
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.1f}s"

    _criterion(2, "affine recovery", body, capfd)


def test_criterion_3_sscc_fixed_point(capfd):
    def body():
        start = time.perf_counter()
        spec = SynthSpec(dims=(24, 24, 24), channels=16, feature_smoothness=2.0, seed=7)
        features, _, _ = make_atlas(spec)
        matches = filter_matches(sscc(features, features, step=4, iterations=5))
        assert len(matches) > 0
        identity = np.all(matches.moving == matches.fixed, axis=1)
        frac = float(np.mean(identity))
        assert frac >= 0.99, f"identity fraction {frac:.4f}"
        fwd = find_points(matches.moving, features, features)
        back = find_points(fwd, features, features)
        assert np.array_equal(fwd, matches.fixed), "forward match disagrees"
        assert np.array_equal(back, matches.moving), "cycle predicate violated"
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"

    _criterion(3, "SSCC self-registration fixed point", body, capfd)


def test_criterion_4_regularizer_reduces_folding(capfd):
    def body():
        start = time.perf_counter()
        dims = (24, 24, 24)
        strict = 0
        for seed in range(5):
            rng = np.random.default_rng(4000 + seed)
            n = 120
            moving = rng.integers(2, 22, size=(n, 3))
            shift = rng.integers(-2, 3, size=3)
            fixed = np.clip(moving + shift, 0, 23)
            n_out = n // 20  # 5% gross outliers
            fixed[:n_out] = rng.integers(0, 24, size=(n_out, 3))
            ms = MatchSet(moving=moving, fixed=fixed, scores=np.ones(n))

            foldings = {}
            for lam in (0.0, 1.0):
                field = optimize_coarse(
                    ms,
                    AffineTransform.identity(),
                    dims,
                    PipelineConfig(coarse_reg_weight=lam),
                )
                disp = upsample_coarse(field, dims)
                foldings[lam] = folding_fraction(jacobian_determinant(disp, displacement=True))
            assert foldings[1.0] <= foldings[0.0], (
                f"seed {seed}: {foldings[1.0]:.4f} > {foldings[0.0]:.4f}"
            )
            if foldings[1.0] < foldings[0.0]:
                strict += 1
        assert strict >= 4, f"strict inequality on only {strict}/5 seeds"
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"

    _criterion(4, "coarse regularizer reduces folding", body, capfd)


def test_criterion_5_diffeomorphism_property(capfd):
    def body():
        dims = (24, 24, 24)
        raw_folds = 0
        for seed in range(10):
            spec = SynthSpec(
                dims=dims, warp_amplitude=1.0, warp_smoothness=4.0, seed=5000 + seed
            )
            v = random_smooth_warp(spec)
            u = integrate_svf(v)
            f = folding_fraction(jacobian_determinant(u, displacement=True))
            assert f == 0.0, f"seed {seed}: SVF folding {f}"

            spec_big = SynthSpec(
                dims=dims, warp_amplitude=3.0, warp_smoothness=4.0, seed=5000 + seed
            )
            raw = random_smooth_warp(spec_big)
            if folding_fraction(jacobian_determinant(raw, displacement=True)) > 0.0:
                raw_folds += 1
        assert raw_folds >= 1, "no raw displacement folded"

    _criterion(5, "scaling-and-squaring stays diffeomorphic", body, capfd)


def test_criterion_6_end_to_end_registration(capfd):
    def body():
        start = time.perf_counter()
        cases = [
            (0, (24, 24, 24)),
            (1, (26, 24, 28)),
            (2, (28, 26, 30)),
            (3, (30, 30, 30)),
            (4, (32, 28, 26)),
        ]
        for seed, dims in cases:
            rng = np.random.default_rng(6000 + seed)
            spec = SynthSpec(
                dims=dims, channels=16, warp_amplitude=2.0, warp_smoothness=4.0, seed=seed
            )
            features, labels, intensity = make_atlas(spec)
            velocity = random_smooth_warp(spec)
            lin = np.eye(3) + rng.uniform(-0.08, 0.08, (3, 3))
            affine = AffineTransform.from_linear_translation(lin, rng.uniform(-3, 3, 3))
            moving, fixed, gt_map = make_pair(features, labels, intensity, velocity, affine)

            step = 4
            zz, yy, xx = np.meshgrid(
                *[np.arange(2, d - 2, step) for d in dims], indexing="ij"
            )
            pts_f = np.stack([zz.ravel(), yy.ravel(), xx.ravel()], axis=-1).astype(float)
            idx = pts_f.astype(int)
            pts_m = gt_map[idx[:, 0], idx[:, 1], idx[:, 2]]
            initial_err = float(np.mean(np.linalg.norm(pts_m - pts_f, axis=1)))

            transform, report, artifacts = run_pipeline(
                PipelineConfig(), moving, fixed, landmarks=(pts_m, pts_f)
            )
            final_err = report.mean_landmark_error
            assert final_err <= 0.5 * initial_err, (
                f"seed {seed}: landmark {initial_err:.3f} -> {final_err:.3f}"
            )

            _, initial_dice = dice(moving.labels, fixed.labels)
            assert report.mean_dice > initial_dice, (
                f"seed {seed}: dice {initial_dice:.3f} -> {report.mean_dice:.3f}"
            )

            # stage monotonicity on the cumulative maps
            from embreg.grid import trilinear_sample

            def stage_err(coarse, dense):
                t = CompositeTransform(transform.affine, coarse, dense)
                m = compose(t, dims)
                return landmark_error(pts_m, pts_f, lambda p: trilinear_sample(m, p))

            err_a = stage_err(None, None)
            err_c = stage_err(transform.coarse, None)
            err_i = stage_err(transform.coarse, transform.dense)
            assert err_c <= err_a + 1e-9, f"seed {seed}: coarse {err_c:.3f} > affine {err_a:.3f}"
            assert err_i <= err_c + 1e-9, f"seed {seed}: dense {err_i:.3f} > coarse {err_c:.3f}"
        elapsed = time.perf_counter() - start
        assert elapsed < 300.0, f"took {elapsed:.1f}s"

    _criterion(6, "end-to-end synthetic registration", body, capfd)


def test_criterion_7_metric_identities(capfd):
    def body():
        rng = np.random.default_rng(7)

        # Dice
        labels = rng.integers(0, 3, size=(5, 5, 5))
        per, mean = dice(labels, labels)
        assert all(v == 1.0 for v in per.values()) and mean == 1.0
        a = np.zeros((4, 4, 4), dtype=int)
        b = np.zeros((4, 4, 4), dtype=int)
        a[0, 0, 0] = 1
        b[3, 3, 3] = 1
        assert dice(a, b)[1] == 0.0
        a = np.zeros((4, 4, 4), dtype=int)
        b = np.zeros((4, 4, 4), dtype=int)
        a[0:2, 0:2, 0:2] = 1  # 8 voxels
        b[0:2, 0:2, 1:3] = 1  # 8 voxels, 4 shared
        assert dice(a, b)[0][1] == 0.5

        # NCC
        v = rng.normal(size=(4, 4, 4))
        assert abs(ncc(v, v) - 1.0) < 1e-12
        assert abs(ncc(v, -v + 3.0) + 1.0) < 1e-12
        x = rng.normal(size=(2, 2, 2))
        y = rng.normal(size=(2, 2, 2))
        xz = x - x.mean()
        yz = y - y.mean()
        oracle = np.sum(xz * yz) / np.sqrt(np.sum(xz * xz) * np.sum(yz * yz))
        assert abs(ncc(x, y) - oracle) < 1e-12

        # LNCC
        assert abs(lncc(v, v) - 1.0) < 1e-10
        assert lncc(np.full((4, 4, 4), 2.0), np.full((4, 4, 4), 5.0)) == 0.0
        # larger than the window on every axis: full and truncated windows
        p = rng.normal(size=(11, 12, 10))
        q = rng.normal(size=(11, 12, 10))
        brute = []
        r = LNCC_WINDOW // 2
        for i in np.ndindex(p.shape):
            sl = tuple(slice(max(0, c - r), min(d, c + r + 1)) for c, d in zip(i, p.shape))
            aw = p[sl].ravel() - p[sl].mean()
            bw = q[sl].ravel() - q[sl].mean()
            saa, sbb = np.sum(aw * aw), np.sum(bw * bw)
            brute.append(
                np.sum(aw * bw) / np.sqrt(saa * sbb) if saa > 1e-12 and sbb > 1e-12 else 0.0
            )
        assert abs(lncc(p, q) - float(np.mean(brute))) < 1e-10

        # Jacobian determinant
        det = jacobian_determinant(identity_grid((5, 5, 5)))
        assert np.allclose(det, 1.0, atol=1e-12)
        alpha = 1.3
        grid = identity_grid((6, 6, 6))
        det = jacobian_determinant((alpha - 1.0) * grid, displacement=True)
        assert np.max(np.abs(det[1:-1, 1:-1, 1:-1] - alpha**3)) < 1e-10
        # u_z = -2z inside a slab flips orientation there
        grid7 = identity_grid((7, 7, 7))
        slab = np.zeros((7, 7, 7, 3))
        inside = (grid7[..., 0] >= 2) & (grid7[..., 0] <= 4)
        slab[..., 0] = np.where(inside, -2.0 * grid7[..., 0], 0.0)
        det = jacobian_determinant(slab, displacement=True)
        assert np.all(det[3, 1:-1, 1:-1] < 0.0)

        # folding fraction
        assert folding_fraction(np.ones((3, 3, 3))) == 0.0
        assert folding_fraction(-np.ones((3, 3, 3))) == 1.0
        jac = np.ones((3, 3, 3))
        jac.ravel()[:3] = [-1.0, 0.0, -0.5]
        assert folding_fraction(jac) == 3.0 / 27.0

        # landmark error
        pts = rng.uniform(0, 10, size=(6, 3))
        assert landmark_error(pts, pts, lambda p: p) == 0.0
        t = np.array([1.0, -2.0, 0.5])
        assert abs(landmark_error(pts + t, pts, lambda p: p + t)) < 1e-12

    _criterion(7, "metric identities", body, capfd)


def test_criterion_8_container_round_trip(capfd):
    def body(tmp=None):
        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory() as tdir:
            base = Path(tdir)
            rng = np.random.default_rng(8)
            dtypes = ["f32", "f64", "u16", "u8"]
            for i in range(100):
                dims = tuple(int(d) for d in rng.integers(1, 7, size=3))
                channels = int(rng.integers(1, 5))
                dtype = dtypes[i % 4]
                if dtype in ("f32", "f64"):
                    values = rng.normal(size=dims + (channels,)).astype(
                        np.float32 if dtype == "f32" else np.float64
                    )
                else:
                    high = 65535 if dtype == "u16" else 255
                    values = rng.integers(0, high, size=dims + (channels,))
                spacing = tuple(float(s) for s in rng.uniform(0.5, 3.0, size=3))
                attrs = {f"k{j}": str(rng.integers(0, 100)) for j in range(int(rng.integers(0, 4)))}
                p1 = base / f"v{i}_a.vol1"
                p2 = base / f"v{i}_b.vol1"
                write_vol1(p1, values, spacing=spacing, dtype=dtype, attrs=attrs)
                decoded = read_vol1(p1)
                write_vol1(p2, decoded.values, spacing=decoded.spacing, dtype=decoded.dtype, attrs=decoded.attrs)
                assert p1.read_bytes() == p2.read_bytes(), f"container {i} not byte-identical"

            good = base / "good.vol1"
            write_vol1(good, np.zeros((3, 3, 3)))
            blob = bytearray(good.read_bytes())

            bad_magic = base / "bad_magic.vol1"
            bad_magic.write_bytes(b"XXXX" + bytes(blob[4:]))
            try:
                read_vol1(bad_magic)
                raise AssertionError("bad magic accepted")
            except NotVol1:
                pass

            short = base / "short.vol1"
            short.write_bytes(bytes(blob[:-1]))
            try:
                read_vol1(short)
                raise AssertionError("truncated payload accepted")
            except CorruptContainer:
                pass

            bad_dtype = base / "bad_dtype.vol1"
            corrupted = bytearray(blob)
            corrupted[4:8] = b"zzz\x00"
            bad_dtype.write_bytes(bytes(corrupted))
            try:
                read_vol1(bad_dtype)
                raise AssertionError("unknown dtype accepted")
            except CorruptContainer:
                pass

    _criterion(8, "VOL1 round-trip and corruption handling", body, capfd)
