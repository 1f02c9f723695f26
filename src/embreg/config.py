"""Flat key=value configuration for the registration pipeline."""

from __future__ import annotations

import math
import typing
from dataclasses import dataclass

from .errors import ShapeMismatch


@dataclass
class PipelineConfig:
    # matching
    match_step: int = 4
    sscc_iterations: int = 5
    epsilon: float = 0.7
    feature_scale: float = 1.0  # image voxels per feature-grid voxel
    # coarse stage
    coarse_stride: int = 4
    coarse_reg_weight: float = 1.0
    coarse_iterations: int = 200
    coarse_tol: float = 1e-6
    # instance stage
    lambda_sim: float = 1.0
    lambda_reg: float = 1.0
    intensity_term: str = "none"
    lncc_window: int = 9
    parameterization: str = "displacement"
    svf_steps: int = 7
    instance_iterations: int = 100
    instance_tol: float = 1e-6
    # stage gating
    enable_affine: bool = True
    enable_coarse: bool = True
    enable_instance: bool = True


def _parse_value(text: str, target_type):
    text = text.strip()
    if target_type is bool:
        low = text.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ShapeMismatch(f"cannot parse boolean from {text!r}")
    try:
        value = target_type(text)
    except ValueError:
        raise ShapeMismatch(f"cannot parse {target_type.__name__} from {text!r}") from None
    if target_type is float and not math.isfinite(value):
        raise ShapeMismatch(f"value must be finite, got {text!r}")
    return value


def set_option(config: PipelineConfig, key: str, value: str) -> None:
    types = typing.get_type_hints(PipelineConfig)
    if key not in types:
        raise ShapeMismatch(f"unknown configuration key {key!r}")
    parsed = _parse_value(value, types[key])
    if key == "feature_scale" and parsed <= 0:
        raise ShapeMismatch(f"feature_scale must be > 0, got {value.strip()!r}")
    setattr(config, key, parsed)


def load_config(path) -> PipelineConfig:
    """Read a flat UTF-8 ``key = value`` file; ``#`` starts a comment."""
    config = PipelineConfig()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ShapeMismatch(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, _, value = line.partition("=")
            set_option(config, key.strip(), value)
    return config


def apply_overrides(config: PipelineConfig, overrides) -> PipelineConfig:
    """Apply ``key=value`` strings (CLI ``--set``) onto a config in place."""
    for item in overrides or []:
        if "=" not in item:
            raise ShapeMismatch(f"override must be key=value, got {item!r}")
        key, _, value = item.partition("=")
        set_option(config, key.strip(), value)
    return config
