import dataclasses
import importlib
import re
from pathlib import Path

import pytest

from embreg.config import PipelineConfig, apply_overrides, load_config, set_option
from embreg.errors import ShapeMismatch


def test_defaults():
    cfg = PipelineConfig()
    assert cfg.match_step == 4
    assert cfg.sscc_iterations == 5
    assert cfg.parameterization == "displacement"
    assert cfg.instance_iterations == 100


def test_load_config_parses_types_and_comments(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# full line comment\n"
        "match_step = 2\n"
        "lambda_reg = 0.5   # trailing comment\n"
        "intensity_term = lncc\n"
        "parameterization = svf\n"
        "\n"
        "instance_iterations=6\n"
    )
    cfg = load_config(path)
    assert cfg.match_step == 2
    assert cfg.lambda_reg == 0.5
    assert cfg.intensity_term == "lncc"
    assert cfg.parameterization == "svf"
    assert cfg.instance_iterations == 6
    # untouched keys keep their defaults
    assert cfg.coarse_reg_weight == 1.0


def test_load_config_skips_a_utf8_bom(tmp_path):
    path = tmp_path / "bom.cfg"
    path.write_bytes(b"\xef\xbb\xbfmatch_step = 2\ninstance_iterations = 6\n")
    cfg = load_config(path)
    assert (cfg.match_step, cfg.instance_iterations) == (2, 6)


def test_load_config_rejects_garbage(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("this is not a key value line\n")
    with pytest.raises(ShapeMismatch):
        load_config(path)
    path.write_text("match_step = abc\n")
    with pytest.raises(ShapeMismatch):
        load_config(path)


def test_set_option_unknown_key():
    with pytest.raises(ShapeMismatch):
        set_option(PipelineConfig(), "no_such_key", "1")


def test_apply_overrides_wins_over_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("lambda_reg = 0.5\n")
    cfg = apply_overrides(load_config(path), ["lambda_reg=0.9", "coarse_reg_weight=2.5"])
    assert cfg.lambda_reg == 0.9
    assert cfg.coarse_reg_weight == 2.5


def test_apply_overrides_rejects_malformed_item():
    with pytest.raises(ShapeMismatch):
        apply_overrides(PipelineConfig(), ["lambda_reg0.9"])


@pytest.mark.parametrize(
    "case",
    [
        # the values `--set` rejects in tests/test_cli.py::test_bad_config_key_exits_3
        {"match_step": "abc"},
        {"coarse_reg_weight": float("nan")},
        {"lambda_reg": float("inf")},
        # stage settings no stage can run with
        {"lambda_reg": -1.0},
        {"intensity_term": "mi"},
        {"parameterization": "bspline"},
        # counts below 1, checked before any stage runs
        {"match_step": 0},
        {"sscc_iterations": 0},
        {"instance_iterations": 0},
        # a bool is not taken for an int
        {"match_step": True},
    ],
    ids=lambda case: ",".join(f"{k}={v}" for k, v in case.items()),
)
def test_code_built_config_is_checked(case):
    with pytest.raises(ShapeMismatch):
        PipelineConfig(**case)


def test_load_config_rejects_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"\xff\xfe" + "match_step = 2\n".encode("utf-16-le"))
    with pytest.raises(ShapeMismatch, match=re.escape(f"{path}: not UTF-8 text")):
        load_config(path)


def test_set_option_checks_the_whole_config_and_keeps_it_on_failure():
    cfg = PipelineConfig(lambda_reg=0.5)
    with pytest.raises(ShapeMismatch):
        set_option(cfg, "lambda_reg", "-1")
    assert cfg.lambda_reg == 0.5


def test_config_is_frozen_so_assignment_cannot_skip_the_checks():
    cfg = PipelineConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.lambda_reg = -1.0
    assert cfg.lambda_reg == 1.0
    assert set_option(cfg, "lambda_reg", "0.9").lambda_reg == 0.9
    assert cfg.lambda_reg == 1.0


@pytest.mark.parametrize(
    "key",
    [
        "feature_scale",
        "coarse_tol",
        "instance_tol",
        "lambda_sim",
        "coarse_iterations",
        # fixed as coarse.STRIDE, transform.SVF_STEPS and metrics.LNCC_WINDOW
        "coarse_stride",
        "svf_steps",
        "lncc_window",
        # fixed as matching.EPSILON; the pipeline always runs all four stages
        "epsilon",
        "enable_affine",
        "enable_coarse",
        "enable_instance",
    ],
)
def test_removed_keys_are_not_fields(key):
    with pytest.raises(TypeError):
        PipelineConfig(**{key: 2.0})


def test_readme_states_the_constants_that_replace_keys():
    # Every "`embreg.<module>.<NAME>` (<number>" in the README, wrapped lines included.
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    mentions = re.findall(r"`embreg\.(\w+)\.([A-Z][A-Z0-9_]*)`\s+\(([0-9][0-9.e+-]*)", text)
    names = {name for _, name, _ in mentions}
    assert names >= {"EPSILON", "STRIDE", "SVF_STEPS", "LNCC_WINDOW", "TOL", "ITERATIONS", "PROGRESS"}
    for module, name, number in mentions:
        assert getattr(importlib.import_module(f"embreg.{module}"), name) == float(number), name


def test_config_fields_are_pinned():
    assert [field.name for field in dataclasses.fields(PipelineConfig)] == [
        "match_step",
        "sscc_iterations",
        "coarse_reg_weight",
        "lambda_reg",
        "intensity_term",
        "parameterization",
        "instance_iterations",
    ]


def test_every_config_field_is_read_by_a_stage():
    # A field that no module reads is a setting that changes nothing.
    package = Path(__file__).resolve().parent.parent / "src" / "embreg"
    source = "\n".join(
        path.read_text(encoding="utf-8") for path in package.glob("*.py") if path.name != "config.py"
    )
    unread = [
        field.name
        for field in dataclasses.fields(PipelineConfig)
        if not re.search(rf"\bconfig\.{field.name}\b", source)
    ]
    assert unread == []
