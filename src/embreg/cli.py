"""Command-line interface: synth, match, affine, coarse, instance, register, eval, jacobian.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numerical divergence.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .affine import AffineTransform, fit_affine
from .bundle import Bundle
from .coarse import STRIDE, optimize_coarse, upsample_coarse
from .config import PipelineConfig, apply_overrides, load_config
from .container import open_atomic, read_vol1, write_vol1
from .errors import CorruptContainer, NumericalDivergence, RegistrationError, ShapeMismatch
from .instance import optimize_instance
from .matching import load_matches, save_matches, select_points
from .metrics import dice  # noqa: F401  (perfbench/tracer.py wraps this name here)
from .pipeline import evaluate, match_stage, run_pipeline
from .synth import SynthSpec, make_atlas, make_pair, random_smooth_warp
from .transform import CompositeTransform, compose, folding_fraction, jacobian_determinant


def _parse_dims(text: str) -> tuple[int, int, int]:
    """argparse ``type`` for ``D,H,W``: a malformed value is a usage error (exit 2)."""
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        parts = ()
    if len(parts) != 3 or min(parts) < 1:
        raise argparse.ArgumentTypeError(f"dims must be three positive integers D,H,W, got {text!r}")
    return parts


def _config_from_args(args) -> PipelineConfig:
    config = load_config(args.config) if args.config else PipelineConfig()
    return apply_overrides(config, args.set)


def _write_text(path, text: str) -> None:
    with open_atomic(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _read_scalar(path):
    """Values ``(D, H, W)`` and spacing of a one-channel VOL1 volume, such as intensity or labels."""
    vol = read_vol1(path)
    if vol.values.shape[3] != 1:
        raise CorruptContainer(f"{path}: a scalar volume needs 1 channel, got {vol.values.shape[3]}")
    return vol.values[..., 0], vol.spacing


def _load_bundle(directory: Path) -> Bundle:
    """The bundle in ``directory``; its intensity and labels must have the features' spacing."""
    features_path = directory / "features.vol1"
    features = read_vol1(features_path)
    scalars = {}
    for name in ("intensity", "labels"):
        path = directory / f"{name}.vol1"
        if name == "labels" and not path.exists():
            continue
        scalars[name], spacing = _read_scalar(path)
        if spacing != features.spacing:
            raise ShapeMismatch(f"{path}: spacing {spacing}, but {features_path} has {features.spacing}")
    return Bundle(features=features.values, spacing=features.spacing, **scalars)


def _write_bundle(directory: Path, bundle: Bundle) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    write_vol1(directory / "features.vol1", bundle.features, spacing=bundle.spacing)
    write_vol1(directory / "intensity.vol1", bundle.intensity, spacing=bundle.spacing)
    if bundle.labels is not None:
        write_vol1(directory / "labels.vol1", bundle.labels, dtype="u16", spacing=bundle.spacing)


def cmd_synth(args) -> int:
    spec = SynthSpec(**{f.name: getattr(args, f.name) for f in fields(SynthSpec)})
    features, labels, intensity = make_atlas(spec)
    velocity = random_smooth_warp(spec)
    rng_affine = AffineTransform.from_linear_translation(
        np.eye(3), args.translation * np.array([1.0, -0.5, 0.25])
    )
    moving, fixed, gt_map = make_pair(features, labels, intensity, velocity, rng_affine)

    out = Path(args.out)
    _write_bundle(out / "moving", moving)
    _write_bundle(out / "fixed", fixed)
    write_vol1(out / "gt_map.vol1", gt_map)
    _write_text(
        out / "manifest.json",
        json.dumps(
            {
                "seed": spec.seed,
                "dims": list(spec.dims),
                "channels": spec.channels,
                "affine": [float(v) for v in rng_affine.matrix.ravel()],
                "gt_map": "gt_map.vol1",
            },
            indent=2,
        ),
    )
    print(f"wrote synthetic pair to {out}")
    return 0


def cmd_match(args) -> int:
    config = _config_from_args(args)
    feats_m = read_vol1(args.moving_features).values
    feats_f = read_vol1(args.fixed_features).values
    matches = match_stage(config, feats_m, feats_f)
    save_matches(matches, args.out)
    print(f"{len(matches)} matches -> {args.out}")
    return 0


def cmd_affine(args) -> int:
    transform = fit_affine(load_matches(args.matches))
    _write_text(args.out, transform.to_json())
    print(f"affine -> {args.out}")
    return 0


def cmd_coarse(args) -> int:
    config = _config_from_args(args)
    matches = load_matches(args.matches)
    affine = AffineTransform.from_json(Path(args.affine).read_bytes())
    dims = read_vol1(args.fixed_features).values.shape[:3]
    lattice = optimize_coarse(matches, affine, dims, config)
    write_vol1(args.out, lattice, attrs={"stride": str(STRIDE)})
    print(f"coarse lattice {lattice.shape[:3]} -> {args.out}")
    return 0


def cmd_instance(args) -> int:
    config = _config_from_args(args)
    moving = _load_bundle(Path(args.moving_dir))
    fixed = _load_bundle(Path(args.fixed_dir))
    affine = AffineTransform.from_json(Path(args.affine).read_bytes()) if args.affine else None
    coarse_dense = None
    if args.coarse:
        vol = read_vol1(args.coarse)
        if vol.attrs.get("stride") != str(STRIDE):
            raise CorruptContainer(f"{args.coarse}: lattice needs the attribute stride={STRIDE}")
        coarse_dense = upsample_coarse(vol.values, fixed.dims)
    dense = optimize_instance(moving, fixed, config, affine=affine, start=coarse_dense)
    write_vol1(args.out, dense)
    print(f"instance field -> {args.out}")
    return 0


def cmd_register(args) -> int:
    config = _config_from_args(args)
    moving = _load_bundle(Path(args.moving_dir))
    fixed = _load_bundle(Path(args.fixed_dir))
    transform, report, _ = run_pipeline(config, moving, fixed)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_text(out / "affine.json", transform.affine.to_json())
    write_vol1(out / "dense.vol1", transform.dense)
    manifest = {"affine": "affine.json", "dense": "dense.vol1"}
    _write_text(out / "transform.json", json.dumps(manifest, indent=2))
    _write_text(out / "report.json", report.to_json())
    print(report.format_table())
    return 0


def _load_transform(directory: Path) -> CompositeTransform:
    """The transform ``embreg register`` wrote to ``directory``.

    Bad JSON and an entry besides ``affine`` and ``dense`` are data errors.
    """
    try:
        manifest = json.loads((directory / "transform.json").read_text())
        unknown = sorted(set(manifest) - {"affine", "dense"})
        if unknown:
            raise CorruptContainer(f"unknown manifest entries {unknown}")
        affine = AffineTransform.from_json((directory / manifest["affine"]).read_text())
        dense = read_vol1(directory / manifest["dense"]).values if "dense" in manifest else None
    except (ValueError, KeyError, TypeError, CorruptContainer) as exc:
        raise CorruptContainer(f"{directory}: malformed transform: {exc!r}") from exc
    return CompositeTransform(affine=affine, dense=dense)


def cmd_eval(args) -> int:
    transform = _load_transform(Path(args.transform))
    moving_labels, spacing = _read_scalar(args.moving_labels)
    fixed_labels, _ = _read_scalar(args.fixed_labels)
    landmarks = None
    if args.gt_map:
        gt = read_vol1(args.gt_map).values
        if gt.shape != fixed_labels.shape + (3,):
            raise ShapeMismatch(
                f"{args.gt_map}: ground-truth map {gt.shape} must be (D,H,W,3) on the "
                f"fixed labels' grid {fixed_labels.shape}"
            )
        if not np.all(np.isfinite(gt)):
            raise ShapeMismatch(f"{args.gt_map}: non-finite ground-truth map")
        pts_f = select_points(fixed_labels.shape, 4).astype(np.float64)
        pts_m = gt[pts_f[:, 0].astype(int), pts_f[:, 1].astype(int), pts_f[:, 2].astype(int)]
        landmarks = (pts_m, pts_f)
    final_map = compose(transform, fixed_labels.shape)
    report = evaluate(final_map, moving_labels, fixed_labels, spacing, landmarks)
    if args.out:
        _write_text(args.out, report.to_json())
    print(report.format_table())
    return 0


def cmd_jacobian(args) -> int:
    vol = read_vol1(args.field)
    jac = jacobian_determinant(vol.values, displacement=args.displacement)
    if args.out:
        write_vol1(args.out, jac)
    print(f"folding_fraction {folding_fraction(jac):.6g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="embreg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic registration pair")
    p.add_argument("--out", required=True)
    for f in fields(SynthSpec):
        kind = _parse_dims if f.name == "dims" else type(f.default)
        p.add_argument("--" + f.name.replace("_", "-"), metavar=f.name.upper(), type=kind, default=f.default)
    p.add_argument("--translation", type=float, default=1.5)
    p.set_defaults(func=cmd_synth)

    def common(p):
        p.add_argument("--config")
        p.add_argument("--set", action="append", metavar="KEY=VALUE")

    p = sub.add_parser("match", help="cycle-consistent feature matching")
    p.add_argument("--moving-features", required=True)
    p.add_argument("--fixed-features", required=True)
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("affine", help="least-squares affine from matches")
    p.add_argument("--matches", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_affine)

    p = sub.add_parser("coarse", help="regularized coarse displacement from matches")
    p.add_argument("--matches", required=True)
    p.add_argument("--affine", required=True)
    p.add_argument("--fixed-features", required=True)
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=cmd_coarse)

    p = sub.add_parser("instance", help="dense instance optimization")
    p.add_argument("--moving-dir", required=True)
    p.add_argument("--fixed-dir", required=True)
    p.add_argument("--affine")
    p.add_argument("--coarse")
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=cmd_instance)

    p = sub.add_parser("register", help="full pipeline")
    p.add_argument("--moving-dir", required=True)
    p.add_argument("--fixed-dir", required=True)
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=cmd_register)

    p = sub.add_parser("eval", help="evaluate a saved transform")
    p.add_argument("--transform", required=True)
    p.add_argument("--moving-labels", required=True)
    p.add_argument("--fixed-labels", required=True)
    p.add_argument("--gt-map")
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("jacobian", help="Jacobian determinant and folding fraction")
    p.add_argument("--field", required=True)
    p.add_argument("--displacement", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_jacobian)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericalDivergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (RegistrationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
