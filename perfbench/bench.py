"""Workloads, the closed timing loop, correctness checks and the result line.

Every workload registers one synthetic pair at a time, back to back, in
this process. A pair is synthesized from the run's seed the way the
acceptance test's end-to-end criterion does it, and the benchmark checks
each registration itself (see :mod:`checks`).
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import scipy

import checks
from tracer import LAYERS, Tracer

import embreg
from embreg import AffineTransform, Bundle, PipelineConfig, SynthSpec, cli, pipeline
from embreg import make_atlas, make_pair, random_smooth_warp, read_vol1, write_vol1

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_build" / "perfbench"
WARMUP_DIMS = (16, 16, 16)
WARMUP_INDEX = 1_000_000


@dataclass(frozen=True)
class Workload:
    name: str
    dims: tuple[int, int, int]
    settings: tuple[tuple[str, object], ...]  # PipelineConfig fields
    via_cli: bool
    pool: int  # distinct pairs prepared before timing; the loop cycles over them


WORKLOADS = {
    w.name: w
    for w in (
        # Matching dominates time and memory: 1000 lattice keys against a
        # 64000-voxel map, with little instance work.
        Workload(
            "match-40",
            (40, 40, 40),
            (("match_step", 4), ("sscc_iterations", 5), ("parameterization", "displacement"),
             ("instance_iterations", 5)),
            via_cli=False,
            pool=3,
        ),
        # Instance work dominates: grid gather and adjoint scatter, the SVF
        # forward and backward passes and the LNCC gradient; 64 keys only.
        Workload(
            "svf-lncc-32",
            (32, 32, 32),
            (("match_step", 8), ("parameterization", "svf"), ("intensity_term", "lncc"),
             ("instance_iterations", 10)),
            via_cli=False,
            pool=4,
        ),
        # Small volumes through `embreg register` and `embreg eval`: fixed
        # per-call cost, VOL1 reads and writes, forward-only sampling.
        Workload(
            "cli-disp-24",
            (24, 24, 24),
            (("parameterization", "displacement"), ("intensity_term", "ncc"),
             ("instance_iterations", 30)),
            via_cli=True,
            pool=12,
        ),
    )
}


@dataclass
class Pair:
    moving: Bundle
    fixed: Bundle
    landmarks: tuple[np.ndarray, np.ndarray]  # (moving, fixed) points from gt_map
    initial_landmark: float
    initial_dice: float
    directory: Path  # VOL1 bundles for the CLI workload
    synth_s: float
    setup_s: float


@dataclass
class Attempt:
    seconds: float
    problems: list[str]
    quality: dict  # checks.assess of the returned transform
    reported: tuple  # embreg's own (mean Dice, landmark error, folding fraction[, kept matches])
    stages: dict  # report.stage_timings


def _lattice(dims, stop_margin: int) -> np.ndarray:
    axes = [np.arange(2, d - stop_margin, 4) for d in dims]
    grid = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grid], axis=-1).astype(np.float64)


def prepare(wl: Workload, seed: int, index: int, directory: Path) -> Pair:
    """Synthesize pair ``index`` of ``seed``; write VOL1 bundles for the CLI."""
    t0 = time.perf_counter()
    rng = np.random.default_rng([seed % 2**32, index])
    spec = SynthSpec(
        dims=wl.dims, channels=16, warp_amplitude=2.0, warp_smoothness=4.0,
        seed=int(rng.integers(2**31)),
    )
    features, labels, intensity = make_atlas(spec)
    velocity = random_smooth_warp(spec)
    lin = np.eye(3) + rng.uniform(-0.08, 0.08, (3, 3))
    affine = AffineTransform.from_linear_translation(lin, rng.uniform(-3, 3, 3))
    moving, fixed, gt_map = make_pair(features, labels, intensity, velocity, affine)
    synth_s = time.perf_counter() - t0

    # `embreg eval --gt-map` samples landmarks on the stride-4 lattice up to
    # the far faces; the library workloads use the acceptance test's lattice.
    points_fixed = _lattice(wl.dims, 0 if wl.via_cli else 2)
    idx = points_fixed.astype(np.int64)
    points_moving = gt_map[idx[:, 0], idx[:, 1], idx[:, 2]]
    initial_landmark = float(np.mean(np.linalg.norm(points_moving - points_fixed, axis=1)))
    initial_dice = checks.mean_dice(moving.labels, fixed.labels)

    if wl.via_cli:
        for side, bundle in (("moving", moving), ("fixed", fixed)):
            d = directory / side
            d.mkdir(parents=True)
            write_vol1(d / "features.vol1", bundle.features)
            write_vol1(d / "intensity.vol1", bundle.intensity)
            write_vol1(d / "labels.vol1", bundle.labels.astype(np.uint16), dtype="u16")
        write_vol1(directory / "gt_map.vol1", gt_map)
    return Pair(
        moving, fixed, (points_moving, points_fixed), initial_landmark, initial_dice,
        directory, synth_s, time.perf_counter() - t0,
    )


def _call_cli(argv: list[str]) -> int:
    """Exit code of ``embreg`` run in-process, as a shell would see it."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return 1


def _attempt_cli(wl: Workload, pair: Pair) -> Attempt:
    out = pair.directory / "out"
    shutil.rmtree(out, ignore_errors=True)
    sets = [arg for k, v in wl.settings for arg in ("--set", f"{k}={v}")]
    register = ["register", "--moving-dir", str(pair.directory / "moving"),
                "--fixed-dir", str(pair.directory / "fixed"), "--out", str(out), *sets]
    evaluate = ["eval", "--transform", str(out),
                "--moving-labels", str(pair.directory / "moving" / "labels.vol1"),
                "--fixed-labels", str(pair.directory / "fixed" / "labels.vol1"),
                "--gt-map", str(pair.directory / "gt_map.vol1"), "--out", str(out / "eval.json")]
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [_call_cli(register)]
        if codes[0] == 0:
            codes.append(_call_cli(evaluate))
    seconds = time.perf_counter() - t0
    if codes != [0, 0]:
        return Attempt(seconds, [f"exit codes {codes}"], {}, (), {})

    manifest = json.loads((out / "transform.json").read_text())
    matrix = np.array(json.loads((out / manifest["affine"]).read_text())).reshape(4, 4)
    fields = {
        key: read_vol1(out / manifest[key]).values if key in manifest else None
        for key in ("coarse", "dense")
    }
    report = json.loads((out / "eval.json").read_text())
    stages = json.loads((out / "report.json").read_text())["stage_timings"]
    quality = checks.assess(matrix, fields["coarse"], fields["dense"], pair.moving.labels,
                            pair.fixed.labels, pair.landmarks)
    reported = (report["mean_dice"], report["mean_landmark_error"], report["folding_fraction"])
    return Attempt(seconds, [], quality, reported, stages)


def _attempt_library(wl: Workload, pair: Pair) -> Attempt:
    config = PipelineConfig(**dict(wl.settings))
    t0 = time.perf_counter()
    try:
        transform, report, artifacts = pipeline.run_pipeline(
            config, pair.moving, pair.fixed, landmarks=pair.landmarks
        )
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        return Attempt(time.perf_counter() - t0, [f"raised {exc!r}"], {}, (), {})
    seconds = time.perf_counter() - t0
    quality = checks.assess(transform.affine.matrix, transform.coarse, transform.dense,
                            pair.moving.labels, pair.fixed.labels, pair.landmarks)
    reported = (report.mean_dice, report.mean_landmark_error, report.folding_fraction,
                len(artifacts["matches"]))
    return Attempt(seconds, [], quality, reported, dict(report.stage_timings))


def attempt(wl: Workload, pair: Pair) -> Attempt:
    """Register one pair, timed from loaded inputs to an evaluated transform, then check it."""
    result = _attempt_cli(wl, pair) if wl.via_cli else _attempt_library(wl, pair)
    q = result.quality
    if result.problems:
        return result
    if not q["finite"]:
        result.problems.append("non-finite transform")
        return result
    q["landmark_ratio"] = q["landmark"] / pair.initial_landmark
    if not q["landmark_ratio"] <= 0.5:
        result.problems.append(f"landmark error {q['landmark']:.4f} > half of {pair.initial_landmark:.4f}")
    if not q["dice"] > pair.initial_dice:
        result.problems.append(f"Dice {q['dice']:.4f} not above unregistered {pair.initial_dice:.4f}")
    dice, landmark = result.reported[:2]
    # One voxel rounded the other way at a label edge moves Dice by ~1e-4.
    if dice is None or abs(dice - q["dice"]) > 1e-3:
        result.problems.append(f"reported Dice {dice} != {q['dice']}")
    if landmark is None or abs(landmark - q["landmark"]) > 1e-6:
        result.problems.append(f"reported landmark error {landmark} != {q['landmark']}")
    return result


def _per_layer(tracer: Tracer, pair: int, traced: Attempt, untraced_s: float) -> dict:
    v = tracer.pair_values(pair)
    stages = {f"stage.{k}_s": traced.stages.get(k, 0.0)
              for k in ("match", "affine", "coarse", "instance", "evaluate")}
    # CLI time outside run_pipeline: argument parsing, VOL1 I/O, `eval`.
    stages["stage.cli_s"] = v["cli.register_s"] - v["pipeline.run_s"] + v["cli.eval_s"]
    lattice, kept = v["matching.lattice_points"], v["matching.kept_pairs"]
    objective, gradient = v["coarse.objective_calls"], v["coarse.gradient_calls"]
    return {
        **v,
        **stages,
        "matching.keep_ratio": kept / lattice if lattice else 0.0,
        "coarse.trials_per_step": (objective - 1) / gradient if gradient else 0.0,
        "trace.register_s": traced.seconds,
        "trace.overhead_s": traced.seconds - untraced_s,
        "trace.unattributed_s": traced.seconds - sum(stages.values()),
        "quality.landmark_err_vox": traced.quality.get("landmark", 0.0),
        "quality.folding_frac": traced.quality.get("folding", 0.0),
    }


def _blas() -> list[dict]:
    """OpenBLAS builds loaded in this process and their thread counts."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return []
    paths = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line and ".so" in line})
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for suffix in ("64_", ""):
            threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            if threads is not None and config is not None:
                threads.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                entry.update(threads=threads(), config=config().decode())
                break
        found.append(entry)
    return found


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + name):
            return line.split()[0]
    return "unknown"


def environment(wl: Workload, seed: int, seconds: float, trace: bool, attempts: int) -> dict:
    return {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "pairs_per_run": attempts,
        "distinct_pairs": wl.pool,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": _blas(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "embreg": embreg.__version__,
        "commit": _commit(),
        "machine": platform.machine(),
    }


def declared_metrics() -> dict[str, dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {key: {m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")}


def run(wl: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One benchmark run: returns the result line and a detail record."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT_DIR))
    try:
        return _run(wl, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(wl: Workload, seed: int, seconds: float, trace: bool, workdir: Path) -> tuple[dict, dict]:
    # Warm-up: one small registration through the same path loads lazy
    # modules and starts BLAS threads before anything is timed.
    t0 = time.perf_counter()
    attempt(wl, prepare(replace(wl, dims=WARMUP_DIMS), seed, WARMUP_INDEX, workdir / "warmup"))
    warmup_s = time.perf_counter() - t0
    pool = [prepare(wl, seed, i, workdir / f"pair{i}") for i in range(wl.pool)]

    tracer = Tracer()
    records = []  # (untraced, traced or None, problems)
    untraced_s = []  # per traced pair: mean of the untraced runs either side of it
    start = time.perf_counter()
    while True:
        k = len(records)
        pair = pool[k % len(pool)]
        untraced = attempt(wl, pair)
        problems = list(untraced.problems)
        traced = None
        if trace:
            tracer.pair = k
            with tracer:
                traced = attempt(wl, pair)
            # A second untraced run after the traced one, so that a drift in
            # machine speed does not pass for tracing overhead.
            after = attempt(wl, pair)
            untraced_s.append((untraced.seconds + after.seconds) / 2)
            problems += [f"traced: {p}" for p in traced.problems]
            if not tracer.restored():
                problems.append("tracer left a wrapper installed")
            if (traced.quality, traced.reported) != (untraced.quality, untraced.reported):
                problems.append("traced result differs from untraced result")
            kept = tracer.pair_values(k)["matching.kept_pairs"]
            if not wl.via_cli and traced.reported[3:] != (kept,):
                problems.append(f"traced kept_pairs {kept} != {traced.reported[3:]}")
        records.append((untraced, traced, problems))
        for p in problems:
            print(f"pair {k}: {p}", file=sys.stderr)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(records) > seconds:
            break

    attempted = len(records)
    failed = sum(1 for *_, problems in records if problems)
    passed = [u for u, _, problems in records if not problems]
    declared = declared_metrics()
    if trace:
        rows = [_per_layer(tracer, k, t, base) for k, ((_, t, _), base) in enumerate(zip(records, untraced_s))]
        run_level = {
            "synth.pair_s": statistics.median(p.synth_s for p in pool),
            "setup.warmup_s": warmup_s,
            "quality.failed_frac": failed / attempted,
        }
        values = {
            name: run_level[name] if name in run_level
            else statistics.median(row.get(name, 0.0) for row in rows)
            for name in declared["per_layer"]
        }
        units = declared["per_layer"]
    else:
        finite = [u.quality for u, _, _ in records if u.quality.get("finite")]
        values = {
            "register_s": statistics.median(u.seconds for u in (passed or [r[0] for r in records])),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "mean_dice": statistics.fmean(q["dice"] for q in finite) if finite else 0.0,
            "unfolded_frac": 1.0 - statistics.fmean(q["folding"] for q in finite) if finite else 0.0,
            "pass_frac": len(passed) / attempted,
            "setup_s": statistics.median(p.setup_s for p in pool),
        }
        units = declared["end_to_end"]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    detail = {
        "environment": environment(wl, seed, seconds, trace, attempted),
        "failed_frac": failed / attempted,
        "warmup_s": warmup_s,
        "setup_s": [p.setup_s for p in pool],
        "initial": [{"dice": p.initial_dice, "landmark": p.initial_landmark} for p in pool],
        "register_s": [u.seconds for u, _, _ in records],
        "quality": [u.quality for u, _, _ in records],
        "problems": [problems for *_, problems in records],
    }
    if trace:
        detail["per_pair"] = {k: dict(v) for k, v in tracer.values.items()}
        detail["spans"] = [vars(s) for s in tracer.spans]
        detail["layers"] = [f"{m}.{a}" for m, a, *_ in LAYERS]
    return result, detail
