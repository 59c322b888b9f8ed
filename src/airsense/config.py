"""Declarative configuration: one JSON document holding the grid, anchor,
scan, augmentation, tracker, and evaluation settings. Each field is read by
its declared type, and unknown keys are rejected so typos fail loudly."""

from __future__ import annotations

import json
import math
import sys
import typing
from dataclasses import dataclass, field, fields, is_dataclass

from .anchors import MatchThresholds
from .augment import AugPlan
from .backbone import BackboneSpec
from .lidar_sim import ScanPattern
from .metrics import TP_IOU_THRESHOLD
from .pillars import PillarGridSpec
from .tracker import TrackerConfig

__all__ = ["Config", "EvalConfig", "ConfigError", "load_config", "default_config"]


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class EvalConfig:
    iou_threshold: float = TP_IOU_THRESHOLD
    use_bev: bool = False

    def __post_init__(self):
        if not 0 < self.iou_threshold <= 1:
            raise ValueError(f"iou_threshold must be in (0, 1], got {self.iou_threshold!r}")


@dataclass
class Config:
    grid: PillarGridSpec = field(default_factory=PillarGridSpec)
    scan: ScanPattern = field(default_factory=ScanPattern)
    match: MatchThresholds = field(default_factory=MatchThresholds)
    augment: AugPlan = field(default_factory=AugPlan)
    tracker: TrackerConfig = field(default_factory=TrackerConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    backbone: BackboneSpec = field(default_factory=BackboneSpec)
    window_ms: float = 100.0
    sensor_elevation: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.window_ms) and self.window_ms > 0):
            raise ValueError(f"window_ms must be finite and > 0, got {self.window_ms!r}")


def _check_number(value, where: str):
    """A number finite as a float: not a boolean, NaN, infinite or an int
    beyond float range."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        shown = ("an integer beyond float range" if isinstance(value, int)
                 and not isinstance(value, bool) else repr(value))
        raise ConfigError(f"{where}: expected a finite number, got {shown}")


def _build(tp, value, where: str):
    """The JSON value read as the declared type tp: a dataclass from an
    object, field by field; a tuple from a list; a bool from true or false;
    anything else is a number, and a float field holds it as a float."""
    if is_dataclass(tp):
        at = where or "top level"
        if not isinstance(value, dict):
            raise ConfigError(f"{at}: expected an object")
        unknown = set(value) - {f.name for f in fields(tp)}
        if unknown:
            raise ConfigError(f"{at}: unknown keys {sorted(unknown)}")
        hints = typing.get_type_hints(tp)
        kwargs = {name: _build(hints[name], v, f"{where}.{name}" if where else name)
                  for name, v in value.items()}
        try:
            return tp(**kwargs)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{at}: {exc}") from exc
    if typing.get_origin(tp) is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{where}: expected a list, got {value!r}")
        return tuple(_build(typing.get_args(tp)[0], v, where) for v in value)
    if tp is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{where}: expected true or false, got {value!r}")
        return value
    _check_number(value, where)
    return float(value) if tp is float else value


def load_config(path) -> Config:
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    return _build(Config, raw, "")


def default_config() -> Config:
    return Config()
