import json
import shutil
import struct

import numpy as np
import pytest

from embreg.affine import AffineTransform
from embreg.bundle import Bundle
from embreg.cli import main
from embreg.container import read_vol1, write_vol1
from embreg.matching import load_matches


@pytest.fixture(scope="module")
def synth_pair(tmp_path_factory):
    out = tmp_path_factory.mktemp("pair")
    rc = main(
        [
            "synth",
            "--out",
            str(out),
            "--dims",
            "14,14,14",
            "--channels",
            "8",
            "--seed",
            "11",
            "--warp-amplitude",
            "1.0",
            "--translation",
            "1.0",
        ]
    )
    assert rc == 0
    return out


def test_synth_writes_expected_layout(synth_pair):
    for rel in (
        "moving/features.vol1",
        "moving/intensity.vol1",
        "moving/labels.vol1",
        "fixed/features.vol1",
        "fixed/intensity.vol1",
        "fixed/labels.vol1",
        "gt_map.vol1",
        "manifest.json",
    ):
        assert (synth_pair / rel).exists(), rel
    manifest = json.loads((synth_pair / "manifest.json").read_text())
    assert manifest["dims"] == [14, 14, 14]
    assert manifest["seed"] == 11
    feats = read_vol1(synth_pair / "fixed/features.vol1")
    assert feats.values.shape == (14, 14, 14, 8)
    gt = read_vol1(synth_pair / "gt_map.vol1")
    assert gt.values.shape == (14, 14, 14, 3)


def test_match_affine_coarse_instance_chain(synth_pair, tmp_path):
    matches_path = tmp_path / "matches.txt"
    rc = main(
        [
            "match",
            "--moving-features",
            str(synth_pair / "moving/features.vol1"),
            "--fixed-features",
            str(synth_pair / "fixed/features.vol1"),
            "--out",
            str(matches_path),
            "--set",
            "match_step=2",
        ]
    )
    assert rc == 0
    matches = load_matches(matches_path)
    assert len(matches) > 10

    affine_path = tmp_path / "affine.json"
    rc = main(["affine", "--matches", str(matches_path), "--out", str(affine_path)])
    assert rc == 0
    from embreg.affine import AffineTransform

    affine = AffineTransform.from_json(affine_path.read_text())
    assert affine.matrix.shape == (4, 4)

    coarse_path = tmp_path / "coarse.vol1"
    rc = main(
        [
            "coarse",
            "--matches",
            str(matches_path),
            "--affine",
            str(affine_path),
            "--fixed-features",
            str(synth_pair / "fixed/features.vol1"),
            "--out",
            str(coarse_path),
        ]
    )
    assert rc == 0
    coarse = read_vol1(coarse_path)
    assert coarse.values.shape == (4, 4, 4, 3)  # ceil(14/4) nodes per axis
    assert coarse.attrs["stride"] == "4"

    dense_path = tmp_path / "dense.vol1"
    rc = main(
        [
            "instance",
            "--moving-dir",
            str(synth_pair / "moving"),
            "--fixed-dir",
            str(synth_pair / "fixed"),
            "--affine",
            str(affine_path),
            "--coarse",
            str(coarse_path),
            "--out",
            str(dense_path),
            "--set",
            "instance_iterations=10",
        ]
    )
    assert rc == 0
    assert read_vol1(dense_path).values.shape == (14, 14, 14, 3)


def test_register_and_eval(synth_pair, tmp_path, capsys):
    out = tmp_path / "reg"
    rc = main(
        [
            "register",
            "--moving-dir",
            str(synth_pair / "moving"),
            "--fixed-dir",
            str(synth_pair / "fixed"),
            "--out",
            str(out),
            "--set",
            "match_step=2",
            "--set",
            "instance_iterations=15",
        ]
    )
    assert rc == 0
    for rel in ("affine.json", "dense.vol1", "transform.json", "report.json"):
        assert (out / rel).exists(), rel
    # The instance stage refines the coarse field: one dense field behind the affine.
    assert not (out / "coarse_dense.vol1").exists()
    assert json.loads((out / "transform.json").read_text()) == {"affine": "affine.json", "dense": "dense.vol1"}
    report = json.loads((out / "report.json").read_text())
    assert report["mean_dice"] > 0.5
    assert "mean_dice" in capsys.readouterr().out

    report_path = tmp_path / "eval.json"
    rc = main(
        [
            "eval",
            "--transform",
            str(out),
            "--moving-labels",
            str(synth_pair / "moving/labels.vol1"),
            "--fixed-labels",
            str(synth_pair / "fixed/labels.vol1"),
            "--gt-map",
            str(synth_pair / "gt_map.vol1"),
            "--out",
            str(report_path),
        ]
    )
    assert rc == 0
    evaluated = json.loads(report_path.read_text())
    assert evaluated["mean_dice"] == pytest.approx(report["mean_dice"])
    assert evaluated["mean_landmark_error"] is not None


def test_eval_rejects_the_coarse_entry_of_the_earlier_layout(synth_pair, tmp_path, capsys):
    # Directories written before the instance stage refined the coarse field
    # hold a coarse stage under the dense one. Ignoring it would evaluate
    # another map, so it is a data error and nothing is written.
    old = tmp_path / "old"
    old.mkdir()
    (old / "affine.json").write_text(AffineTransform.identity().to_json())
    write_vol1(old / "coarse_dense.vol1", np.zeros((14, 14, 14, 3)))
    write_vol1(old / "dense.vol1", np.zeros((14, 14, 14, 3)))
    manifest = {"affine": "affine.json", "coarse": "coarse_dense.vol1", "dense": "dense.vol1"}
    (old / "transform.json").write_text(json.dumps(manifest))
    out = tmp_path / "eval.json"
    rc = main(
        [
            "eval",
            "--transform",
            str(old),
            "--moving-labels",
            str(synth_pair / "moving/labels.vol1"),
            "--fixed-labels",
            str(synth_pair / "fixed/labels.vol1"),
            "--out",
            str(out),
        ]
    )
    assert rc == 3
    assert "unknown manifest entries ['coarse']" in capsys.readouterr().err
    assert not out.exists()


def test_jacobian_command(tmp_path, capsys):
    from embreg.grid import identity_grid

    path = tmp_path / "field.vol1"
    write_vol1(path, identity_grid((5, 5, 5)))
    out = tmp_path / "jac.vol1"
    rc = main(["jacobian", "--field", str(path), "--out", str(out)])
    assert rc == 0
    assert "folding_fraction 0" in capsys.readouterr().out
    jac = read_vol1(out)
    np.testing.assert_allclose(jac.values[..., 0], 1.0, atol=1e-12)


@pytest.mark.parametrize("damage", ["one_nan", "inf_channel"])
def test_jacobian_of_non_finite_field_exits_3(tmp_path, capsys, damage):
    from embreg.grid import identity_grid

    field = identity_grid((5, 5, 5))
    if damage == "one_nan":
        field[2, 2, 2, 1] = np.nan
    else:
        field[..., 0] = np.inf
    path = tmp_path / "field.vol1"
    write_vol1(path, field)
    rc = main(["jacobian", "--field", str(path), "--out", str(tmp_path / "jac.vol1")])
    assert rc == 3
    assert "non-finite field" in capsys.readouterr().err
    assert not (tmp_path / "jac.vol1").exists()


def test_instance_with_lattice_of_another_grid_exits_3(synth_pair, tmp_path, capsys):
    # ceil(20 / 4) = 5 nodes an axis: a lattice fitted on a 20^3 pair, not on this 14^3 one
    lattice = tmp_path / "coarse.vol1"
    write_vol1(lattice, np.zeros((5, 5, 5, 3)), attrs={"stride": "4"})
    out = tmp_path / "dense.vol1"
    rc = main(
        [
            "instance",
            "--moving-dir",
            str(synth_pair / "moving"),
            "--fixed-dir",
            str(synth_pair / "fixed"),
            "--coarse",
            str(lattice),
            "--out",
            str(out),
        ]
    )
    assert rc == 3
    assert "lattice (5, 5, 5) != (4, 4, 4)" in capsys.readouterr().err
    assert not out.exists()


def test_instance_with_non_finite_lattice_exits_3(synth_pair, tmp_path, capsys):
    values = np.zeros((4, 4, 4, 3))
    values[1, 2, 3, 0] = np.nan
    lattice = tmp_path / "coarse.vol1"
    write_vol1(lattice, values, attrs={"stride": "4"})
    out = tmp_path / "dense.vol1"
    rc = main(
        [
            "instance",
            "--moving-dir",
            str(synth_pair / "moving"),
            "--fixed-dir",
            str(synth_pair / "fixed"),
            "--coarse",
            str(lattice),
            "--out",
            str(out),
        ]
    )
    assert rc == 3
    assert "non-finite lattice" in capsys.readouterr().err
    assert not out.exists()


def test_missing_file_exits_3(tmp_path, capsys):
    rc = main(
        [
            "match",
            "--moving-features",
            str(tmp_path / "nope.vol1"),
            "--fixed-features",
            str(tmp_path / "nope.vol1"),
            "--out",
            str(tmp_path / "m.txt"),
        ]
    )
    assert rc == 3
    assert "error:" in capsys.readouterr().err


def test_corrupt_container_exits_3(tmp_path):
    bad = tmp_path / "bad.vol1"
    bad.write_bytes(b"JUNKJUNK")
    rc = main(
        [
            "jacobian",
            "--field",
            str(bad),
        ]
    )
    assert rc == 3


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize(
    "setting",
    [
        "bogus_key=1",
        "match_step=abc",
        "coarse_reg_weight=nan",
        "lambda_reg=inf",
        "lambda_reg=-1",
        "instance_iterations=0",
    ],
)
def test_bad_config_key_exits_3(synth_pair, tmp_path, setting):
    rc = main(
        [
            "match",
            "--moving-features",
            str(synth_pair / "moving/features.vol1"),
            "--fixed-features",
            str(synth_pair / "fixed/features.vol1"),
            "--out",
            str(tmp_path / "m.txt"),
            "--set",
            setting,
        ]
    )
    assert rc == 3


@pytest.mark.parametrize(
    "setting",
    [
        "feature_scale=2",
        "feature_scale=nan",
        "feature_scale=-1",
        "feature_scale=0",
        "coarse_tol=1e-3",
        "instance_tol=1e-3",
        "instance_tol=nan",
        "instance_step_size=1",
        "lambda_sim=1",
        "lambda_sim=inf",
        "coarse_iterations=200",
        "coarse_stride=4",
        "svf_steps=7",
        "lncc_window=9",
        "epsilon=0.5",
        "enable_affine=false",
        "enable_coarse=false",
        "enable_instance=false",
    ],
)
def test_removed_config_key_exits_3(synth_pair, tmp_path, setting, capsys):
    rc = main(
        [
            "match",
            "--moving-features",
            str(synth_pair / "moving/features.vol1"),
            "--fixed-features",
            str(synth_pair / "fixed/features.vol1"),
            "--out",
            str(tmp_path / "m.txt"),
            "--set",
            setting,
        ]
    )
    assert rc == 3
    assert f"unknown configuration key {setting.split('=')[0]!r}" in capsys.readouterr().err
    assert not (tmp_path / "m.txt").exists()


def test_eval_landmark_error_uses_label_spacing(tmp_path):
    from embreg.affine import AffineTransform
    from embreg.grid import identity_grid

    dims = (8, 8, 8)
    labels = np.zeros(dims, dtype=np.uint16)
    labels[2:6, 2:6, 2:6] = 1
    # the error is a distance between moving-grid points, so the moving spacing counts
    write_vol1(tmp_path / "moving.vol1", labels, dtype="u16", spacing=(2.0, 1.0, 1.0))
    write_vol1(tmp_path / "fixed.vol1", labels, dtype="u16", spacing=(3.0, 1.0, 1.0))
    write_vol1(tmp_path / "gt_map.vol1", identity_grid(dims))
    # the fixed-to-moving map is x - (1, 0, 0): one voxel along z everywhere
    shift = AffineTransform.from_linear_translation(np.eye(3), [1.0, 0.0, 0.0])
    (tmp_path / "affine.json").write_text(shift.to_json())
    (tmp_path / "transform.json").write_text(json.dumps({"affine": "affine.json"}))
    out = tmp_path / "eval.json"
    rc = main(
        [
            "eval",
            "--transform",
            str(tmp_path),
            "--moving-labels",
            str(tmp_path / "moving.vol1"),
            "--fixed-labels",
            str(tmp_path / "fixed.vol1"),
            "--gt-map",
            str(tmp_path / "gt_map.vol1"),
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    assert json.loads(out.read_text())["mean_landmark_error"] == pytest.approx(2.0)


def test_register_fields_are_byte_identical_to_run_pipeline(tmp_path):
    from embreg.affine import AffineTransform
    from embreg.cli import _write_bundle
    from embreg.config import PipelineConfig
    from embreg.pipeline import run_pipeline
    from embreg.synth import SynthSpec, make_atlas, make_pair, random_smooth_warp

    spec = SynthSpec(dims=(14, 14, 14), channels=8, warp_amplitude=1.0, seed=11)
    features, labels, intensity = make_atlas(spec)
    affine = AffineTransform.from_linear_translation(np.eye(3), [1.0, -0.5, 0.25])
    moving, fixed, _ = make_pair(features, labels, intensity, random_smooth_warp(spec), affine)
    _write_bundle(tmp_path / "moving", moving)
    _write_bundle(tmp_path / "fixed", fixed)
    settings = ["match_step=2", "instance_iterations=5"]
    rc = main(
        [
            "register",
            "--moving-dir",
            str(tmp_path / "moving"),
            "--fixed-dir",
            str(tmp_path / "fixed"),
            "--out",
            str(tmp_path / "reg"),
            *[arg for setting in settings for arg in ("--set", setting)],
        ]
    )
    assert rc == 0
    config = PipelineConfig(match_step=2, instance_iterations=5)
    transform, _, _ = run_pipeline(config, moving, fixed)
    assert transform.coarse is None
    assert not (tmp_path / "reg" / "coarse_dense.vol1").exists()
    written = read_vol1(tmp_path / "reg" / "dense.vol1").values
    assert written.shape == transform.dense.shape
    assert written.tobytes() == transform.dense.tobytes()


def test_coarse_command_matches_pipeline_coarse_stage(synth_pair, tmp_path):
    from embreg.cli import _load_bundle
    from embreg.config import PipelineConfig
    from embreg.matching import save_matches
    from embreg.pipeline import run_pipeline

    config = PipelineConfig(match_step=2)
    moving = _load_bundle(synth_pair / "moving")
    fixed = _load_bundle(synth_pair / "fixed")
    transform, _, artifacts = run_pipeline(config, moving, fixed)

    save_matches(artifacts["matches"], tmp_path / "matches.txt")
    (tmp_path / "affine.json").write_text(transform.affine.to_json())
    rc = main(
        [
            "coarse",
            "--matches",
            str(tmp_path / "matches.txt"),
            "--affine",
            str(tmp_path / "affine.json"),
            "--fixed-features",
            str(synth_pair / "fixed/features.vol1"),
            "--out",
            str(tmp_path / "coarse.vol1"),
        ]
    )
    assert rc == 0
    np.testing.assert_array_equal(
        read_vol1(tmp_path / "coarse.vol1").values, artifacts["coarse_field"]
    )


@pytest.mark.parametrize(
    "option",
    ["--feature-smoothness=inf", "--feature-smoothness=nan", "--warp-smoothness=inf", "--warp-amplitude=nan"],
)
def test_synth_non_finite_spec_exits_3(tmp_path, option, capsys):
    rc = main(["synth", "--out", str(tmp_path / "pair"), option])
    assert rc == 3
    assert "must be finite" in capsys.readouterr().err
    assert not (tmp_path / "pair").exists()


@pytest.mark.parametrize(
    "option, message",
    [
        ("--feature-smoothness=100", "smoothness radius"),
        ("--warp-smoothness=24.5", "smoothness radius"),
        ("--labels=70000", "65535 labels"),
    ],
)
def test_synth_spec_that_cannot_make_a_pair_exits_3_and_writes_nothing(tmp_path, option, message, capsys):
    rc = main(["synth", "--out", str(tmp_path / "pair"), option])
    assert rc == 3
    assert message in capsys.readouterr().err
    assert not (tmp_path / "pair").exists()


@pytest.mark.parametrize("dims", ["a,b,c", "1,2", "0,4,4", "-3,4,4"])
def test_synth_bad_dims_exits_2(tmp_path, dims):
    with pytest.raises(SystemExit) as excinfo:
        main(["synth", "--out", str(tmp_path / "pair"), f"--dims={dims}"])
    assert excinfo.value.code == 2
    assert not (tmp_path / "pair").exists()


@pytest.mark.parametrize(
    "attrs", [None, {"stride": "two"}, {"stride": "0"}, {"stride": "-2"}, {"stride": "2"}]
)
def test_instance_coarse_without_integer_stride_exits_3(synth_pair, tmp_path, attrs, capsys):
    # ceil(14 / 2) = 7 nodes an axis: the lattice a stride of 2 would give on this 14^3 pair
    nodes = 7 if attrs == {"stride": "2"} else 4
    lattice = tmp_path / "coarse.vol1"
    write_vol1(lattice, np.zeros((nodes, nodes, nodes, 3)), attrs=attrs)
    rc = main(
        [
            "instance",
            "--moving-dir",
            str(synth_pair / "moving"),
            "--fixed-dir",
            str(synth_pair / "fixed"),
            "--coarse",
            str(lattice),
            "--out",
            str(tmp_path / "dense.vol1"),
        ]
    )
    assert rc == 3
    assert "stride" in capsys.readouterr().err
    assert not (tmp_path / "dense.vol1").exists()


@pytest.mark.parametrize(
    "manifest, affine",
    [
        ('{"affine": "affine.json"}', "garbage"),
        ("garbage", "[]"),
        ("{}", "[]"),
        ('["affine.json"]', "[]"),
        pytest.param('{"affine": "affine.json", "coarse": "coarse_dense.vol1"}',
                     AffineTransform.identity().to_json(), id="coarse-entry"),
        pytest.param('{"affine": "affine.json", "inverse": "inverse.vol1"}',
                     AffineTransform.identity().to_json(), id="unknown-entry"),
    ],
)
def test_eval_malformed_transform_exits_3(tmp_path, manifest, affine, capsys):
    labels = np.ones((6, 6, 6), dtype=np.uint16)
    write_vol1(tmp_path / "labels.vol1", labels, dtype="u16")
    (tmp_path / "transform.json").write_text(manifest)
    (tmp_path / "affine.json").write_text(affine)
    rc = main(
        [
            "eval",
            "--transform",
            str(tmp_path),
            "--moving-labels",
            str(tmp_path / "labels.vol1"),
            "--fixed-labels",
            str(tmp_path / "labels.vol1"),
        ]
    )
    assert rc == 3
    assert "malformed transform" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content",
    [
        b"1 2 x 4 5 6 0.9\n",
        b"\xff1 2 3 4 5 6 0.9\n",
        b"99999999999999999999 1 1 1 1 1 0.9\n",
        b"1 2 3 4 5 6\n",
    ],
)
def test_affine_malformed_matches_exits_3(tmp_path, content, capsys):
    matches = tmp_path / "matches.txt"
    matches.write_bytes(content)
    rc = main(["affine", "--matches", str(matches), "--out", str(tmp_path / "affine.json")])
    assert rc == 3
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "affine.json").exists()


@pytest.mark.parametrize(
    "lines, message",
    [
        (["1 1 1 1 1 1 0.9"] * 4 + ["1 1 1 1 1 1 nan"], "non-finite similarity score"),
        # moving points span all three axes, the fixed ones lie in the plane z = 5
        (
            [f"{z} {y} {x} 5 {y} {x} 0.9" for z, y, x in np.ndindex(2, 2, 2)],
            "fitted linear block singular",
        ),
    ],
)
def test_affine_from_unusable_matches_exits_3(tmp_path, lines, message, capsys):
    matches = tmp_path / "matches.txt"
    matches.write_text("\n".join(lines) + "\n")
    rc = main(["affine", "--matches", str(matches), "--out", str(tmp_path / "affine.json")])
    assert rc == 3
    assert message in capsys.readouterr().err
    assert not (tmp_path / "affine.json").exists()


@pytest.mark.parametrize("option", [["--set", "match_step=2"], ["--config", "run.cfg"]])
def test_affine_takes_no_settings(tmp_path, option):
    matches = tmp_path / "matches.txt"
    matches.write_text("1 1 1 1 1 1 0.9\n")
    with pytest.raises(SystemExit) as excinfo:
        main(["affine", "--matches", str(matches), "--out", str(tmp_path / "affine.json"), *option])
    assert excinfo.value.code == 2
    assert not (tmp_path / "affine.json").exists()


@pytest.mark.parametrize("subcommand", ["coarse", "instance"])
@pytest.mark.parametrize("content", [b"garbage", b"\xff\xfe", b'["a"' + b", 0" * 15 + b"]"])
def test_stage_malformed_affine_exits_3(synth_pair, tmp_path, subcommand, content, capsys):
    affine = tmp_path / "affine.json"
    affine.write_bytes(content)
    matches = tmp_path / "matches.txt"
    matches.write_text("1 1 1 1 1 1 0.9\n")
    inputs = {
        "coarse": ["--matches", str(matches), "--fixed-features", str(synth_pair / "fixed/features.vol1")],
        "instance": ["--moving-dir", str(synth_pair / "moving"), "--fixed-dir", str(synth_pair / "fixed")],
    }[subcommand]
    out = tmp_path / "out.vol1"
    rc = main([subcommand, *inputs, "--affine", str(affine), "--out", str(out)])
    assert rc == 3
    assert "affine" in capsys.readouterr().err
    assert not out.exists()


def test_register_config_file_not_utf8_exits_3(synth_pair, tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_bytes(b"\xff\xfe" + "match_step = 2\n".encode("utf-16-le"))
    rc = main(
        [
            "register",
            "--moving-dir",
            str(synth_pair / "moving"),
            "--fixed-dir",
            str(synth_pair / "fixed"),
            "--out",
            str(tmp_path / "reg"),
            "--config",
            str(config),
        ]
    )
    assert rc == 3
    assert f"{config}: not UTF-8 text" in capsys.readouterr().err
    assert not (tmp_path / "reg").exists()


@pytest.mark.parametrize(
    "setting, message",
    [
        ("match_step=0", "match_step must be >= 1"),
        ("sscc_iterations=0", "sscc_iterations must be >= 1"),
        ("instance_iterations=0", "instance_iterations must be >= 1"),
    ],
)
def test_register_stage_bounds_exit_3_before_any_stage_runs(synth_pair, tmp_path, setting, message, capsys):
    rc = main(
        [
            "register",
            "--moving-dir",
            str(synth_pair / "moving"),
            "--fixed-dir",
            str(synth_pair / "fixed"),
            "--out",
            str(tmp_path / "reg"),
            "--set",
            "parameterization=svf",
            "--set",
            setting,
        ]
    )
    assert rc == 3
    assert message in capsys.readouterr().err
    assert not (tmp_path / "reg").exists()


@pytest.mark.parametrize("side", ["moving", "fixed"])
@pytest.mark.parametrize("value", [np.nan, 1.5])
def test_eval_labels_that_are_not_finite_integers_exit_3(synth_pair, tmp_path, side, value, capsys):
    from embreg.affine import AffineTransform

    # The map is x + (1, 0, 0), so it samples no moving voxel at z = 0.
    shift = AffineTransform.from_linear_translation(np.eye(3), [-1.0, 0.0, 0.0])
    (tmp_path / "affine.json").write_text(shift.to_json())
    (tmp_path / "transform.json").write_text(json.dumps({"affine": "affine.json"}))
    paths = {s: str(synth_pair / s / "labels.vol1") for s in ("moving", "fixed")}
    labels = read_vol1(paths[side]).values[..., 0].astype(np.float64)
    labels[0, 4, 5] = value
    paths[side] = str(tmp_path / "labels.vol1")
    write_vol1(paths[side], labels)
    out = tmp_path / "eval.json"
    rc = main(
        [
            "eval",
            "--transform",
            str(tmp_path),
            "--moving-labels",
            paths["moving"],
            "--fixed-labels",
            paths["fixed"],
            "--out",
            str(out),
        ]
    )
    assert rc == 3
    assert "labels must be finite integer values" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", [np.nan, 1.5])
def test_register_labels_that_are_not_finite_integers_exit_3_before_any_stage_runs(
    synth_pair, tmp_path, value, monkeypatch, capsys
):
    moving = tmp_path / "moving"
    shutil.copytree(synth_pair / "moving", moving)
    labels = read_vol1(moving / "labels.vol1").values[..., 0].astype(np.float64)
    labels[3, 4, 5] = value
    write_vol1(moving / "labels.vol1", labels)
    monkeypatch.setattr("embreg.cli.run_pipeline", lambda *args: pytest.fail("a stage ran"))
    rc = main(
        [
            "register",
            "--moving-dir",
            str(moving),
            "--fixed-dir",
            str(synth_pair / "fixed"),
            "--out",
            str(tmp_path / "reg"),
        ]
    )
    assert rc == 3
    assert "labels must be finite integer values" in capsys.readouterr().err
    assert not (tmp_path / "reg").exists()


@pytest.mark.parametrize(
    "empty_sides, shape",
    [(("moving",), (0, 4, 4, 8)), (("fixed",), (4, 0, 4, 8)), (("moving", "fixed"), (4, 4, 4, 0))],
)
def test_match_empty_feature_map_exits_3(synth_pair, tmp_path, empty_sides, shape, capsys):
    empty = tmp_path / "empty.vol1"
    write_vol1(empty, np.zeros(shape))
    features = {side: str(synth_pair / side / "features.vol1") for side in ("moving", "fixed")}
    features.update({side: str(empty) for side in empty_sides})
    out = tmp_path / "m.txt"
    rc = main(
        [
            "match",
            "--moving-features",
            features["moving"],
            "--fixed-features",
            features["fixed"],
            "--out",
            str(out),
        ]
    )
    assert rc == 3
    assert "empty" in capsys.readouterr().err
    assert not out.exists()


def test_coarse_on_a_grid_with_an_empty_axis_exits_3(tmp_path, capsys):
    empty = tmp_path / "empty.vol1"
    write_vol1(empty, np.zeros((0, 4, 4, 8)))
    matches = tmp_path / "matches.txt"
    matches.write_text("1 1 1 1 1 1 0.9\n")
    (tmp_path / "affine.json").write_text(AffineTransform.identity().to_json())
    out = tmp_path / "coarse.vol1"
    rc = main(
        [
            "coarse",
            "--matches",
            str(matches),
            "--affine",
            str(tmp_path / "affine.json"),
            "--fixed-features",
            str(empty),
            "--out",
            str(out),
        ]
    )
    assert rc == 3
    assert "stencil grid needs >= 1 voxel per axis" in capsys.readouterr().err
    assert not out.exists()


def test_coarse_with_a_fixed_match_point_off_the_grid_exits_3(synth_pair, tmp_path, capsys):
    matches = tmp_path / "matches.txt"
    matches.write_text("1 1 1 9223372036854775807 1 1 0.9\n")
    (tmp_path / "affine.json").write_text(AffineTransform.identity().to_json())
    out = tmp_path / "coarse.vol1"
    rc = main(["coarse", "--matches", str(matches), "--affine", str(tmp_path / "affine.json"),
               "--fixed-features", str(synth_pair / "fixed/features.vol1"), "--out", str(out)])
    assert rc == 3
    assert "a fixed match point lies outside the grid (14, 14, 14)" in capsys.readouterr().err
    assert not out.exists()


def test_register_a_moving_bundle_on_another_grid(tmp_path):
    from embreg.cli import _write_bundle
    from embreg.config import PipelineConfig
    from embreg.pipeline import run_pipeline
    from embreg.synth import SynthSpec, make_atlas, make_pair, random_smooth_warp

    spec = SynthSpec(dims=(14, 14, 14), channels=8, warp_amplitude=1.0, seed=11)
    moving, fixed, _ = make_pair(*make_atlas(spec), random_smooth_warp(spec), AffineTransform.identity())
    pad = ((0, 3), (0, 0), (0, 2))  # at the far faces, so voxel coordinates stay
    moving = Bundle(
        features=np.pad(moving.features, pad + ((0, 0),), mode="edge"),
        intensity=np.pad(moving.intensity, pad, mode="edge"),
        labels=np.pad(moving.labels, pad, mode="edge"),
    )
    _write_bundle(tmp_path / "moving", moving)
    _write_bundle(tmp_path / "fixed", fixed)
    rc = main(
        [
            "register",
            "--moving-dir",
            str(tmp_path / "moving"),
            "--fixed-dir",
            str(tmp_path / "fixed"),
            "--out",
            str(tmp_path / "reg"),
            "--set",
            "instance_iterations=5",
        ]
    )
    assert rc == 0
    transform, _, _ = run_pipeline(PipelineConfig(instance_iterations=5), moving, fixed)
    written = read_vol1(tmp_path / "reg" / "dense.vol1").values
    assert written.shape == (14, 14, 14, 3)
    assert written.tobytes() == transform.dense.tobytes()


@pytest.mark.parametrize("command", ["register", "instance"])
def test_zero_channel_features_exit_3_when_loaded(synth_pair, tmp_path, command, capsys):
    for side in ("moving", "fixed"):
        shutil.copytree(synth_pair / side, tmp_path / side)
        write_vol1(tmp_path / side / "features.vol1", np.zeros((14, 14, 14, 0)))
    out = tmp_path / "out"
    dirs = ["--moving-dir", str(tmp_path / "moving"), "--fixed-dir", str(tmp_path / "fixed")]
    rc = main([command, *dirs, "--out", str(out)])
    assert rc == 3
    # rejected as the bundle is loaded, before any stage runs
    assert capsys.readouterr().err.startswith("error: feature map must not be empty")
    assert not out.exists()


@pytest.mark.parametrize(
    "command, name, message",
    [
        ("instance", "features.vol1", "feature maps differ: (14, 14, 14, 8) vs (14, 14, 14, 16)"),
        ("register", "intensity.vol1", "intensity grid (13, 14, 14) != feature grid (14, 14, 14)"),
        ("register", "labels.vol1", "label grid differs from feature grid"),
    ],
)
def test_fixed_volume_that_does_not_fit_the_pair_exits_3(
    synth_pair, tmp_path, command, name, message, capsys
):
    fixed = tmp_path / "fixed"
    shutil.copytree(synth_pair / "fixed", fixed)
    vol = read_vol1(fixed / name)
    # 16 unit feature channels against the moving map's 8; a scalar volume one plane short
    if name == "features.vol1":
        values = np.concatenate([vol.values] * 2, axis=-1) / np.sqrt(2.0)
    else:
        values = vol.values[1:]
    write_vol1(fixed / name, values, dtype=vol.dtype)
    out = tmp_path / "out"
    dirs = ["--moving-dir", str(synth_pair / "moving"), "--fixed-dir", str(fixed)]
    rc = main([command, *dirs, "--out", str(out)])
    assert rc == 3
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name", ["intensity.vol1", "labels.vol1"])
@pytest.mark.parametrize("command", ["register", "instance"])
def test_bundle_files_with_different_spacings_exit_3(synth_pair, tmp_path, command, name, capsys):
    fixed = tmp_path / "fixed"
    shutil.copytree(synth_pair / "fixed", fixed)
    vol = read_vol1(fixed / name)
    write_vol1(fixed / name, vol.values, dtype=vol.dtype, spacing=(2.0, 2.0, 2.0))
    out = tmp_path / "out"
    dirs = ["--moving-dir", str(synth_pair / "moving"), "--fixed-dir", str(fixed)]
    rc = main([command, *dirs, "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    # both files named, before any stage runs
    assert f"{fixed / name}: spacing (2.0, 2.0, 2.0), but {fixed / 'features.vol1'} has (1.0, 1.0, 1.0)" in err
    assert not out.exists()


@pytest.mark.parametrize("scale", [0.3, 2.0])
@pytest.mark.parametrize("command", ["match", "register", "instance"])
def test_features_neither_unit_nor_zero_exit_3(synth_pair, tmp_path, command, scale, capsys):
    fixed = tmp_path / "fixed"
    shutil.copytree(synth_pair / "fixed", fixed)
    vol = read_vol1(fixed / "features.vol1")
    write_vol1(fixed / "features.vol1", vol.values * scale, dtype=vol.dtype)
    if command == "match":
        inputs = ["--moving-features", str(synth_pair / "moving/features.vol1"),
                  "--fixed-features", str(fixed / "features.vol1")]
    else:
        inputs = ["--moving-dir", str(synth_pair / "moving"), "--fixed-dir", str(fixed)]
    out = tmp_path / "out"
    rc = main([command, *inputs, "--out", str(out)])
    assert rc == 3
    assert "feature vectors must be zero or unit-norm (within 1e-06)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("term", ["ncc", "lncc"])
def test_register_with_intensities_too_large_for_a_correlation_exits_3(synth_pair, tmp_path, term, capsys):
    moving = tmp_path / "moving"
    shutil.copytree(synth_pair / "moving", moving)
    vol = read_vol1(moving / "intensity.vol1")
    write_vol1(moving / "intensity.vol1", vol.values * 1e200)
    out = tmp_path / "reg"
    dirs = ["--moving-dir", str(moving), "--fixed-dir", str(synth_pair / "fixed")]
    rc = main(["register", *dirs, "--out", str(out), "--set", f"intensity_term={term}"])
    assert rc == 3
    assert "intensities too large for a correlation" in capsys.readouterr().err
    assert not out.exists()


def test_coarse_whose_objective_overflows_exits_4(synth_pair, tmp_path, capsys):
    (tmp_path / "matches.txt").write_text("1 1 1 1 1 1 0.9\n")
    affine = AffineTransform.from_linear_translation(np.eye(3), np.array([1e200, 0.0, 0.0]))
    (tmp_path / "affine.json").write_text(affine.to_json())
    out = tmp_path / "coarse.vol1"
    argv = [
        "coarse",
        "--matches",
        str(tmp_path / "matches.txt"),
        "--affine",
        str(tmp_path / "affine.json"),
        "--fixed-features",
        str(synth_pair / "fixed/features.vol1"),
        "--out",
        str(out),
    ]
    # The squared residual overflows to inf; the descent reports that, not numpy.
    rc = main(argv)
    assert rc == 4
    assert "initial objective not finite" in capsys.readouterr().err
    assert not out.exists()


def overflowing_affine(tmp_path):
    """``1e300 I``: its determinant overflows to inf, which is not singular; its inverse's underflows to 0."""
    affine = AffineTransform.from_linear_translation(1e300 * np.eye(3), np.zeros(3))
    (tmp_path / "affine.json").write_text(affine.to_json())
    return str(tmp_path / "affine.json")


def test_affine_whose_determinant_overflows_exits_3(synth_pair, tmp_path, capsys):
    out = tmp_path / "out.vol1"
    dirs = ["--moving-dir", str(synth_pair / "moving"), "--fixed-dir", str(synth_pair / "fixed")]
    rc = main(["instance", *dirs, "--affine", overflowing_affine(tmp_path), "--out", str(out)])
    assert rc == 3
    assert "affine linear block is singular" in capsys.readouterr().err
    assert not out.exists()


def test_coarse_with_an_affine_whose_determinant_overflows_exits_4(synth_pair, tmp_path, capsys):
    # The coarse fit maps the moving points forward, A x_m, and never inverts A.
    (tmp_path / "matches.txt").write_text("1 1 1 1 1 1 0.9\n")
    out = tmp_path / "out.vol1"
    argv = ["coarse", "--matches", str(tmp_path / "matches.txt"),
            "--fixed-features", str(synth_pair / "fixed/features.vol1")]
    rc = main([*argv, "--affine", overflowing_affine(tmp_path), "--out", str(out)])
    assert rc == 4
    assert "initial objective not finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("gt_shape", [(6, 6, 6, 3), (14, 14, 14, 1)])
def test_eval_gt_map_on_another_grid_exits_3(synth_pair, tmp_path, gt_shape, capsys):
    from embreg.affine import AffineTransform

    (tmp_path / "affine.json").write_text(AffineTransform.identity().to_json())
    (tmp_path / "transform.json").write_text(json.dumps({"affine": "affine.json"}))
    write_vol1(tmp_path / "gt_map.vol1", np.zeros(gt_shape))
    out = tmp_path / "eval.json"
    rc = main(
        [
            "eval",
            "--transform",
            str(tmp_path),
            "--moving-labels",
            str(synth_pair / "moving/labels.vol1"),
            "--fixed-labels",
            str(synth_pair / "fixed/labels.vol1"),
            "--gt-map",
            str(tmp_path / "gt_map.vol1"),
            "--out",
            str(out),
        ]
    )
    assert rc == 3
    assert "ground-truth map" in capsys.readouterr().err
    assert not out.exists()


def test_eval_non_finite_gt_map_exits_3(synth_pair, tmp_path, capsys):
    _identity_transform(tmp_path)
    gt = read_vol1(synth_pair / "gt_map.vol1").values.copy()
    gt[2, 2, 2, 0] = np.nan  # (2, 2, 2) is a landmark: select_points starts at step // 2
    write_vol1(tmp_path / "gt_map.vol1", gt)
    out = tmp_path / "eval.json"
    rc = main(
        [
            "eval",
            "--transform",
            str(tmp_path),
            "--moving-labels",
            str(synth_pair / "moving/labels.vol1"),
            "--fixed-labels",
            str(synth_pair / "fixed/labels.vol1"),
            "--gt-map",
            str(tmp_path / "gt_map.vol1"),
            "--out",
            str(out),
        ]
    )
    assert rc == 3
    assert "non-finite ground-truth map" in capsys.readouterr().err
    assert not out.exists()


def test_eval_non_finite_dense_field_exits_3(synth_pair, tmp_path, capsys):
    _identity_transform(tmp_path)
    dense = np.zeros((14, 14, 14, 3))
    dense[3, 4, 5, 1] = np.nan
    write_vol1(tmp_path / "dense.vol1", dense)
    (tmp_path / "transform.json").write_text(
        json.dumps({"affine": "affine.json", "dense": "dense.vol1"})
    )
    out = tmp_path / "eval.json"
    rc = main(
        [
            "eval",
            "--transform",
            str(tmp_path),
            "--moving-labels",
            str(synth_pair / "moving/labels.vol1"),
            "--fixed-labels",
            str(synth_pair / "fixed/labels.vol1"),
            "--out",
            str(out),
        ]
    )
    assert rc == 3
    assert "non-finite dense displacement" in capsys.readouterr().err
    assert not out.exists()


def _identity_transform(directory):
    from embreg.affine import AffineTransform

    (directory / "affine.json").write_text(AffineTransform.identity().to_json())
    (directory / "transform.json").write_text(json.dumps({"affine": "affine.json"}))


def test_eval_label_spacing_not_finite_and_positive_exits_3(synth_pair, tmp_path, capsys):
    _identity_transform(tmp_path)
    fixed = tmp_path / "fixed_labels.vol1"
    blob = bytearray((synth_pair / "fixed/labels.vol1").read_bytes())
    blob[24:48] = struct.pack("<ddd", float("nan"), 1.0, -2.0)  # the header's spacing
    fixed.write_bytes(bytes(blob))
    out = tmp_path / "eval.json"
    rc = main(
        [
            "eval",
            "--transform",
            str(tmp_path),
            "--moving-labels",
            str(synth_pair / "moving/labels.vol1"),
            "--fixed-labels",
            str(fixed),
            "--gt-map",
            str(synth_pair / "gt_map.vol1"),
            "--out",
            str(out),
        ]
    )
    assert rc == 3
    assert "spacing must be finite and positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["register", "eval"])
def test_multichannel_intensity_or_labels_exit_3(synth_pair, tmp_path, command, capsys):
    fixed = tmp_path / "fixed"
    shutil.copytree(synth_pair / "fixed", fixed)
    name = {"register": "intensity.vol1", "eval": "labels.vol1"}[command]
    vol = read_vol1(fixed / name)
    write_vol1(fixed / name, np.concatenate([vol.values, vol.values], axis=-1), dtype=vol.dtype)
    out = tmp_path / "out"
    inputs = {
        "register": ["--moving-dir", str(synth_pair / "moving"), "--fixed-dir", str(fixed)],
        "eval": [
            "--transform",
            str(tmp_path),
            "--moving-labels",
            str(synth_pair / "moving/labels.vol1"),
            "--fixed-labels",
            str(fixed / name),
        ],
    }[command]
    _identity_transform(tmp_path)
    rc = main([command, *inputs, "--out", str(out)])
    assert rc == 3
    assert "a scalar volume needs 1 channel, got 2" in capsys.readouterr().err
    assert not out.exists()
