"""Flat key=value configuration for the registration pipeline."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from numbers import Integral, Real

from .errors import ShapeMismatch


@dataclass(frozen=True)
class PipelineConfig:
    """Every setting of every stage; the stages read their fields from it directly.

    Construction checks every field, so a config built in code, read by
    :func:`load_config` or derived by :func:`set_option` passes the same
    checks; a failed check raises :class:`~embreg.errors.ShapeMismatch`. The
    config is frozen, so no assignment can skip them.
    """

    # matching
    match_step: int = 4
    sscc_iterations: int = 5
    # coarse stage
    coarse_reg_weight: float = 1.0
    # instance stage
    lambda_reg: float = 1.0
    intensity_term: str = "none"
    parameterization: str = "displacement"
    instance_iterations: int = 100

    def __post_init__(self):
        for field in fields(self):
            value, kind = getattr(self, field.name), type(field.default)
            if kind is float:
                ok = isinstance(value, Real) and not isinstance(value, bool) and math.isfinite(value)
            elif kind is int:
                ok = isinstance(value, Integral) and not isinstance(value, bool)
            else:
                ok = isinstance(value, kind)
            if not ok:
                qualifier = " finite" if kind is float else ""
                raise ShapeMismatch(f"{field.name} must be a{qualifier} {kind.__name__}, got {value!r}")
        for name in ("coarse_reg_weight", "lambda_reg"):
            if getattr(self, name) < 0:
                raise ShapeMismatch(f"{name} must be >= 0, got {getattr(self, name)!r}")
        for name in ("match_step", "sscc_iterations", "instance_iterations"):
            if getattr(self, name) < 1:
                raise ShapeMismatch(f"{name} must be >= 1, got {getattr(self, name)!r}")
        if self.intensity_term not in ("none", "ncc", "lncc"):
            raise ShapeMismatch(f"unknown intensity term {self.intensity_term!r}")
        if self.parameterization not in ("displacement", "svf"):
            raise ShapeMismatch(f"unknown parameterization {self.parameterization!r}")


def _parse_value(text: str, target_type):
    text = text.strip()
    try:
        return target_type(text)
    except ValueError:
        raise ShapeMismatch(f"cannot parse {target_type.__name__} from {text!r}") from None


def set_option(config: PipelineConfig, key: str, value: str) -> PipelineConfig:
    """A copy of ``config`` with ``key`` parsed from ``value``; ``config`` is unchanged."""
    types = {field.name: type(field.default) for field in fields(PipelineConfig)}
    if key not in types:
        raise ShapeMismatch(f"unknown configuration key {key!r}")
    return replace(config, **{key: _parse_value(value, types[key])})


def load_config(path) -> PipelineConfig:
    """Read a flat UTF-8 ``key = value`` file (a leading BOM is skipped); ``#`` starts a comment."""
    config = PipelineConfig()
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ShapeMismatch(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
                key, _, value = line.partition("=")
                config = set_option(config, key.strip(), value)
    except UnicodeDecodeError as exc:
        raise ShapeMismatch(f"{path}: not UTF-8 text ({exc.reason})") from None
    return config


def apply_overrides(config: PipelineConfig, overrides) -> PipelineConfig:
    """A copy of ``config`` with ``key=value`` strings (CLI ``--set``) applied in order."""
    for item in overrides or []:
        if "=" not in item:
            raise ShapeMismatch(f"override must be key=value, got {item!r}")
        key, _, value = item.partition("=")
        config = set_option(config, key.strip(), value)
    return config
