"""Declarative configuration: one JSON document holding the grid, anchor,
scan, augmentation, tracker, and evaluation settings. Unknown keys are
rejected so typos fail loudly."""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field, fields

from .anchors import MatchThresholds
from .augment import AugPlan
from .backbone import BackboneSpec
from .lidar_sim import ScanPattern, VoxelRegion
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


_TUPLE_FIELDS = {"x_range", "y_range", "z_range", "block_convs", "block_channels",
                 "block_strides", "up_strides"}


def _check_number(value, where: str):
    """A number finite as a float: not a boolean, NaN, infinite or an int
    beyond float range."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        shown = ("an integer beyond float range" if isinstance(value, int)
                 and not isinstance(value, bool) else repr(value))
        raise ConfigError(f"{where}: expected a finite number, got {shown}")


def _build(cls, data: dict, path: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected an object")
    allowed = {f.name: f for f in fields(cls)}
    unknown = set(data) - set(allowed)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    kwargs = {}
    for name, value in data.items():
        where = f"{path}.{name}"
        if name == "region":
            kwargs[name] = _build(VoxelRegion, value, where)
            continue
        if isinstance(value, dict):
            raise ConfigError(f"{where}: nested object not expected here")
        if name in _TUPLE_FIELDS and isinstance(value, list):
            value = tuple(value)
        if allowed[name].type == "bool":
            if not isinstance(value, bool):
                raise ConfigError(f"{where}: expected true or false, got {value!r}")
        else:
            for v in value if isinstance(value, tuple) else (value,):
                if isinstance(v, (int, float)):
                    _check_number(v, where)
        kwargs[name] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


_SECTIONS = {
    "grid": PillarGridSpec,
    "scan": ScanPattern,
    "match": MatchThresholds,
    "augment": AugPlan,
    "tracker": TrackerConfig,
    "eval": EvalConfig,
    "backbone": BackboneSpec,
}


def load_config(path) -> Config:
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    known_scalar = {"window_ms", "sensor_elevation"}
    unknown = set(raw) - set(_SECTIONS) - known_scalar
    if unknown:
        raise ConfigError(f"{path}: unknown sections {sorted(unknown)}")
    cfg = Config()
    for section, cls in _SECTIONS.items():
        if section in raw:
            setattr(cfg, section, _build(cls, raw[section], section))
    for name in known_scalar:
        if name in raw:
            _check_number(raw[name], name)
            setattr(cfg, name, float(raw[name]))
    if not cfg.window_ms > 0:
        raise ConfigError(f"window_ms: expected a positive number, got {cfg.window_ms}")
    return cfg


def default_config() -> Config:
    return Config()
