"""Every field of every dataclass under Config refuses a value of the wrong
kind: from Python with a ValueError naming the field, from JSON with a
ConfigError naming its dotted path, and the CLI exits 1. The cases come from
the fields' declared types, so a field added later is covered too."""

import dataclasses
import json
import math
import re
import typing

import numpy as np
import pytest

from airsense.cli import main
from airsense.config import Config, ConfigError, load_config
from airsense.fields import FieldError, check_fields

NUMBER = {"True": True, "'x'": "x"}
FLOAT = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "10**400": 10 ** 400}
INT = {"2.5": 2.5, "10**400": 10 ** 400}


def wrong_values(tp, value) -> dict:
    """Values of the wrong kind for a field of declared type tp that holds
    value, by label."""
    if tp is bool:
        return {"1": 1}
    if tp in (int, float):
        return {**NUMBER, **(FLOAT if tp is float else INT)}
    if typing.get_origin(tp) is tuple:
        items = {f"[0]={label}": [bad, *value[1:]]
                 for label, bad in wrong_values(typing.get_args(tp)[0], value[0]).items()}
        return {"one more": [*value, value[0]], "one fewer": list(value[:-1]), **items}
    assert dataclasses.is_dataclass(tp), tp
    return {"'x'": "x"}


def field_paths(obj, path=()):
    """(owner instance, path, declared type) of each field of obj and of
    every dataclass under it."""
    hints = typing.get_type_hints(type(obj))
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        yield obj, path + (f.name,), hints[f.name]
        if dataclasses.is_dataclass(value):
            yield from field_paths(value, path + (f.name,))


CASES = [pytest.param(owner, path, bad, id=f"{'.'.join(path)}={label}")
         for owner, path, tp in field_paths(Config())
         for label, bad in wrong_values(tp, getattr(owner, path[-1])).items()]


def test_every_dataclass_under_config_is_covered():
    owners = {type(owner).__name__ for owner, _, _ in field_paths(Config())}
    assert owners == {"Config", "PillarGridSpec", "ScanPattern", "MatchThresholds", "AugPlan",
                      "VoxelRegion", "TrackerConfig", "EvalConfig", "BackboneSpec"}
    assert len(CASES) > 200


@pytest.mark.parametrize("owner, path, bad", CASES)
def test_python_callers_get_a_value_error_naming_the_field(owner, path, bad):
    with pytest.raises(ValueError, match=f"^{path[-1]}: expected "):
        dataclasses.replace(owner, **{path[-1]: bad})


@pytest.mark.parametrize("owner, path, bad", CASES)
def test_json_gets_a_config_error_naming_the_dotted_path(tmp_path, capsys, owner, path, bad):
    doc = bad
    for key in reversed(path):
        doc = {key: doc}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))   # json writes NaN and Infinity
    dotted = ".".join(path)
    with pytest.raises(ConfigError, match=f"^{re.escape(dotted)}: expected "):
        load_config(cfg)
    capsys.readouterr()
    assert main(["--config", str(cfg), "detect-eval", "--detections", str(tmp_path / "d"),
                 "--truth", str(tmp_path / "t")]) == 1
    assert capsys.readouterr().err.startswith(f"error: ConfigError: {dotted}: expected ")


def test_numpy_scalars_and_lists_stay_accepted():
    grid = dataclasses.replace(Config().grid, x_range=[np.float32(0), np.int64(16)],
                               cell_size=np.float64(1), max_pillars=np.int64(3))
    assert grid.nx == 16 and grid.max_pillars == 3
    with pytest.raises(FieldError, match=r"^max_pillars: expected an integer, got "):
        dataclasses.replace(grid, max_pillars=np.float64(3))
    for bad in (np.float32(np.inf), np.float32(np.nan), np.True_):
        with pytest.raises(FieldError, match=r"^cell_size: expected a finite number, got "):
            dataclasses.replace(grid, cell_size=bad)


def test_a_float_field_holds_a_float_after_a_json_load(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"window_ms": 50, "grid": {"x_range": [0, 16]},
                               "augment": {"region": {"voxel_size": 2}}}))
    loaded = load_config(cfg)
    assert type(loaded.window_ms) is float and loaded.window_ms == 50.0
    assert all(type(v) is float for v in loaded.grid.x_range)
    assert type(loaded.augment.region.voxel_size) is float
    # the region's other fields keep the default region's values
    assert loaded.augment.region.x_range == Config().augment.region.x_range


def test_an_undeclared_kind_of_type_is_refused_loudly():
    @dataclasses.dataclass
    class Odd:
        name: str = "x"

    with pytest.raises(TypeError, match="no check for the declared type"):
        check_fields(Odd())
