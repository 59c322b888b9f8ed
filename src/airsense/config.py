"""Declarative configuration: one JSON document holding the grid, anchor,
scan, augmentation, tracker, and evaluation settings. Each field is read by
its declared type, and unknown keys are rejected so typos fail loudly."""

from __future__ import annotations

import contextlib
import json
import typing
from dataclasses import dataclass, field, fields, is_dataclass, replace

from .anchors import MatchThresholds
from .augment import AugPlan
from .backbone import BackboneSpec
from .fields import FieldError, check_fields
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
        check_fields(self)
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
        check_fields(self)
        if self.window_ms <= 0:
            raise ValueError(f"window_ms must be finite and > 0, got {self.window_ms!r}")
        # a frame's window is rounded, half to even, to the microsecond
        if self.window_ms * 1000 <= 0.5:
            raise ValueError(f"window_ms must hold at least 1 us, got {self.window_ms!r}")


def _build(tp, value, where: str, default):
    """The JSON value as the declared type tp: an object as default with its
    fields written over, a list as a tuple, an integer in a float field as a
    float. Each dataclass checks its fields; its error names the dotted path."""
    if is_dataclass(tp):
        at = where or "top level"
        if not isinstance(value, dict):
            raise ConfigError(f"{at}: expected an object")
        unknown = set(value) - {f.name for f in fields(tp)}
        if unknown:
            raise ConfigError(f"{at}: unknown keys {sorted(unknown)}")
        hints = typing.get_type_hints(tp)
        kwargs = {name: _build(hints[name], v, f"{where}.{name}" if where else name,
                               getattr(default, name)) for name, v in value.items()}
        try:
            return replace(default, **kwargs)
        except FieldError as exc:
            raise ConfigError(f"{where}.{exc}" if where else str(exc)) from exc
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"{at}: {exc}") from exc
    items = typing.get_args(tp)
    if typing.get_origin(tp) is tuple and isinstance(value, list) and len(value) == len(items):
        return tuple(_build(t, v, where, None) for t, v in zip(items, value))
    if tp is float and type(value) is int:
        # an int beyond float range stays one, and the field check refuses it
        with contextlib.suppress(OverflowError):
            return float(value)
    return value


def load_config(path) -> Config:
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    return _build(Config, raw, "", Config())


def default_config() -> Config:
    return Config()
