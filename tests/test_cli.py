import dataclasses
import json
import math
import re
import shlex
import struct
import typing
from pathlib import Path

import numpy as np
import pytest

from airsense.cli import build_parser, main
from airsense.config import Config, ConfigError, default_config, load_config
from airsense.pointio import read_jsonl, read_points, window_frames, write_jsonl


def run(args):
    return main([str(a) for a in args])


class TestConfig:
    def test_defaults_carry_the_published_constants(self):
        cfg = default_config()
        assert cfg.scan.points_per_second == 240_000
        assert cfg.scan.h_fov_deg == 70.4 and cfg.scan.v_fov_deg == 77.2
        assert cfg.grid.max_points_per_pillar == 100
        assert cfg.grid.max_pillars == 12_000
        assert cfg.match.pos_iou == 0.4 and cfg.match.neg_iou == 0.35
        assert cfg.eval.iou_threshold == 0.30
        assert cfg.tracker.separation_m == 15.0
        assert cfg.augment.background_pool == 400
        assert cfg.augment.instances == 2495
        assert cfg.backbone.block_convs == (4, 6, 6)
        assert cfg.window_ms == 100.0

    def test_load_and_override(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "scan": {"points_per_second": 1000, "seed": 9},
            "tracker": {"separation_m": 12.0},
            "window_ms": 50,
        }))
        cfg = load_config(path)
        assert cfg.scan.points_per_second == 1000
        assert cfg.tracker.separation_m == 12.0
        assert cfg.window_ms == 50.0
        assert cfg.grid.cell_size == 0.16  # untouched section keeps defaults

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"grids": {}}))
        with pytest.raises(ConfigError):
            load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scan": {"points_per_sec": 10}}))
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_sensor_elevation_rejected(self, tmp_path, value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"sensor_elevation": value}))   # json writes Infinity, NaN
        with pytest.raises(ConfigError, match="sensor_elevation"):
            load_config(path)

    @pytest.mark.parametrize("doc", [
        {"window_ms": True},
        {"window_ms": 10 ** 400},
        {"sensor_elevation": False},
        {"sensor_elevation": -10 ** 400},
        {"grid": {"cell_size": 10 ** 400}},
        {"grid": {"cell_size": True}},
        {"eval": {"iou_threshold": True}},
        {"grid": {"x_range": [0.0, False]}},
        {"augment": {"region": {"voxel_size": True}}},
        {"scan": {"seed": -10 ** 400}},
    ])
    def test_bool_and_huge_int_rejected_naming_the_field(self, tmp_path, capsys, doc):
        # the dotted path of the one leaf, e.g. "grid.cell_size"
        name, value = next(iter(doc.items()))
        while isinstance(value, dict):
            key, value = next(iter(value.items()))
            name += f".{key}"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=rf"^{re.escape(name)}: expected a finite number"):
            load_config(path)
        capsys.readouterr()
        assert run(["--config", path, "detect-eval", "--detections", tmp_path / "d.jsonl",
                    "--truth", tmp_path / "t.jsonl"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError") and name in err

    def test_window_under_one_microsecond_rejected(self, tmp_path):
        # 0.5 us rounds half to even to an empty 0 us window
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"window_ms": 0.0005}))
        with pytest.raises(ConfigError, match="window_ms must hold at least 1 us, got 0.0005"):
            load_config(path)

    def test_boolean_fields_still_take_booleans(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"eval": {"use_bev": True}, "backbone": {"relu": True}}))
        cfg = load_config(path)
        assert cfg.eval.use_bev is True and cfg.backbone.relu is True

    @pytest.mark.parametrize("doc, name", [({"eval": {"use_bev": "no"}}, "eval.use_bev"),
                                           ({"backbone": {"relu": 1}}, "backbone.relu")])
    def test_boolean_fields_take_only_booleans(self, tmp_path, doc, name):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=rf"^{re.escape(name)}: expected true or false"):
            load_config(path)

    @pytest.mark.parametrize("value", [7, 0, -0.1, 1.0001])
    def test_iou_threshold_outside_zero_one_rejected(self, tmp_path, value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"eval": {"iou_threshold": value}}))
        with pytest.raises(ConfigError, match=r"^eval: iou_threshold must be in \(0, 1\]"):
            load_config(path)

    def test_invalid_value_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"match": {"pos_iou": 0.2, "neg_iou": 0.35}}))
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize("field, value, message", [
        ("min_points", 0, "augment: min_points must be an integer >= 1"),
        ("max_attempts", 0, "augment: max_attempts must be an integer >= 1"),
        ("max_attempts", -1, "augment: max_attempts must be an integer >= 1"),
        ("min_points", 2.5, "augment.min_points: expected an integer, got 2.5"),
        ("instances", 2.5, "augment.instances: expected an integer, got 2.5"),
        ("background_pool", 1.5, "augment.background_pool: expected an integer, got 1.5")])
    def test_augment_counts_below_one_rejected(self, tmp_path, field, value, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"augment": {field: value}}))
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
            load_config(path)

    @pytest.mark.parametrize("doc, message", [
        ({"scan": {"seed": 1.5}}, "scan.seed: expected an integer, got 1.5"),
        ({"scan": {"seed": -1}}, "scan: seed must be an integer >= 0, got -1"),
        ({"scan": {"points_per_second": 1.5}},
         "scan.points_per_second: expected an integer, got 1.5"),
        ({"augment": {"seed": 2.5}}, "augment.seed: expected an integer, got 2.5"),
        ({"augment": {"seed": -1}}, "augment: seed must be an integer >= 0, got -1"),
    ])
    def test_seeds_rate_and_plan_window_rejected_at_load(self, tmp_path, capsys, doc, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            load_config(path)
        commands = {"scan": [["simulate", "--mesh", "builtin:sphere", "--at", 9, 0, 0,
                              "--out", tmp_path / "s.xyz"],
                             ["directivity", "--mesh", "builtin:sphere",
                              "--out", tmp_path / "d.csv"]],
                    "augment": [["augment", "--out", tmp_path / "aug"]]}
        for command in commands[next(iter(doc))]:
            capsys.readouterr()
            assert run(["--config", path] + command) == 1
            assert capsys.readouterr().err == f"error: ConfigError: {message}\n"
        assert not any((tmp_path / name).exists() for name in ("s.xyz", "d.csv", "aug"))

    @pytest.mark.parametrize("doc, message", [
        ({"grid": {"cell_size": 1e-320}},
         "grid: x_range holds a non-finite count of cells of 1e-320, got (0.0, 70.4)"),
        ({"augment": {"region": {"x_range": [-1e308, 1e308]}}},
         "augment.region: x_range holds a non-finite count of voxels of 1.0, "
         "got (-1e+308, 1e+308)"),
    ])
    def test_grids_too_fine_to_count_rejected_at_load(self, tmp_path, capsys, doc, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            load_config(path)
        capsys.readouterr()
        assert run(["--config", path, "augment", "--out", tmp_path / "aug"]) == 1
        assert capsys.readouterr().err == f"error: ConfigError: {message}\n"
        assert not (tmp_path / "aug").exists()

    def test_default_config_round_trips_through_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dataclasses.asdict(default_config())))
        assert load_config(path) == default_config()

    def test_every_leaf_type_is_one_the_loader_reads(self):
        def leaves(cls, prefix):
            for name, tp in typing.get_type_hints(cls).items():
                if dataclasses.is_dataclass(tp):
                    yield from leaves(tp, f"{prefix}{name}.")
                else:
                    yield f"{prefix}{name}", tp

        found = dict(leaves(Config, ""))
        assert {"augment.region.voxel_size", "backbone.relu", "window_ms"} <= set(found)
        for name, tp in found.items():
            if typing.get_origin(tp) is tuple:
                assert set(typing.get_args(tp)) - {Ellipsis} in ({int}, {float}), name
            else:
                assert tp in (bool, int, float), name


class TestSimulateCommand:
    def test_writes_frames_and_is_deterministic(self, tmp_path, capsys):
        out_a = tmp_path / "a.xyz"
        out_b = tmp_path / "b.xyz"
        args = ["simulate", "--mesh", "builtin:drone", "--at", 11, 0, 0,
                "--frames", 2, "--seed", 5]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scan": {"points_per_second": 24_000}}))
        assert run(["--config", cfg] + args + ["--out", out_a]) == 0
        assert run(["--config", cfg] + args + ["--out", out_b]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        assert len(list(read_points(out_a))) > 0

    def test_config_seed_is_the_default(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scan": {"points_per_second": 24_000, "seed": 7}}))
        outs = {}
        for name, seed in (("config", []), ("flag", ["--seed", 7]), ("zero", ["--seed", 0])):
            outs[name] = tmp_path / f"{name}.xyz"
            assert run(["--config", cfg, "simulate", "--mesh", "builtin:drone",
                        "--at", 11, 0, 0] + seed + ["--out", outs[name]]) == 0
        assert outs["config"].read_bytes() == outs["flag"].read_bytes()
        assert outs["config"].read_bytes() != outs["zero"].read_bytes()

    def test_las_output(self, tmp_path):
        out = tmp_path / "scan.las"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scan": {"points_per_second": 24_000}}))
        assert run(["--config", cfg, "simulate", "--mesh", "builtin:sphere",
                    "--at", 9, 0, 0, "--out", out]) == 0
        assert out.read_bytes()[:4] == b"LASF"
        assert len(list(read_points(out))) > 0

    def test_missing_mesh_fails_cleanly(self, tmp_path, capsys):
        assert run(["simulate", "--mesh", tmp_path / "no.off", "--at", 9, 0, 0,
                    "--out", tmp_path / "x.xyz"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_directory_as_out_exits_with_an_error_line(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scan": {"points_per_second": 24_000}}))
        assert run(["--config", cfg, "simulate", "--mesh", "builtin:sphere",
                    "--at", 9, 0, 0, "--frames", 3, "--out", tmp_path]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: IsADirectoryError: ")
        assert "frame 0:" not in captured.out   # fails before it traces

    def test_config_window_is_the_default(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"window_ms": 50}))
        outs = {}
        runs = {"config": ["--config", cfg, "simulate"], "flag": ["simulate", "--window", 50]}
        for name, args in runs.items():
            outs[name] = tmp_path / f"{name}.xyz"
            capsys.readouterr()
            assert run(args + ["--mesh", "builtin:sphere", "--at", 9, 0, 0,
                               "--out", outs[name]]) == 0
            # 240k rays/s over 50 ms
            assert " hits from 12000 rays " in capsys.readouterr().out
        assert outs["config"].read_bytes() == outs["flag"].read_bytes()

    @pytest.mark.parametrize("flag, value, message", [
        ("--seed", -1, "ValueError: seed must be an integer >= 0, got -1"),
        ("--window", -5, "ValueError: window_ms must be finite and > 0, got -5.0"),
        ("--window", "nan", "FieldError: window_ms: expected a finite number, got nan"),
    ])
    def test_flags_pass_the_config_checks(self, tmp_path, capsys, flag, value, message):
        for command in (["simulate", "--at", 9, 0, 0], ["directivity"]):
            out = tmp_path / "out"
            assert run(command + ["--mesh", "builtin:sphere", flag, value, "--out", out]) == 1
            assert capsys.readouterr().err == f"error: {message}\n"
            assert not out.exists()

    def test_window_under_one_microsecond_exits_before_the_first_frame(self, tmp_path, capsys):
        out = tmp_path / "w.las"
        assert run(["simulate", "--mesh", "builtin:sphere", "--at", 3, 0, 0,
                    "--window", 0.0004, "--frames", 2, "--out", out]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: ValueError: window_ms must hold at least 1 us, got 0.0004\n"
        assert "frame 0:" not in captured.out
        assert not out.exists()

    @pytest.mark.parametrize("frames", [-1, 0])
    def test_frame_count_below_one_rejected(self, tmp_path, capsys, frames):
        out = tmp_path / "s.xyz"
        assert run(["simulate", "--mesh", "builtin:sphere", "--at", 9, 0, 0,
                    "--frames", frames, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: ValueError: frames must be >= 1, got {frames}")
        assert not out.exists()


class TestDirectivityCommand:
    def test_csv_written_with_threshold(self, tmp_path):
        out = tmp_path / "grid.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scan": {"points_per_second": 24_000}}))
        assert run(["--config", cfg, "directivity", "--mesh", "builtin:drone",
                    "--threshold", 4, "--window", 100,
                    "--x", 9, 12, "--y", -1, 1, "--z", -1, 1, "--out", out]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x,y,z,count"
        assert all(int(l.split(",")[3]) >= 4 for l in lines[1:])


    def test_config_seed_is_the_default(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scan": {"points_per_second": 24_000, "seed": 7}}))
        outs = {}
        for name, seed in (("config", []), ("flag", ["--seed", 7]), ("zero", ["--seed", 0])):
            outs[name] = tmp_path / f"{name}.csv"
            assert run(["--config", cfg, "directivity", "--mesh", "builtin:drone",
                        "--threshold", 1, "--x", 9, 12, "--y", -1, 1, "--z", -1, 1]
                       + seed + ["--out", outs[name]]) == 0
        assert outs["config"].read_bytes() == outs["flag"].read_bytes()
        assert outs["config"].read_bytes() != outs["zero"].read_bytes()

    def test_config_window_is_the_default(self, tmp_path):
        outs = {}
        for name, window, flag in (("config", 50, []), ("flag", 100, ["--window", 50]),
                                   ("long", 50, ["--window", 100])):
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps({"scan": {"points_per_second": 24_000},
                                       "window_ms": window}))
            outs[name] = tmp_path / f"{name}.csv"
            assert run(["--config", cfg, "directivity", "--mesh", "builtin:drone",
                        "--threshold", 1, "--x", 9, 12, "--y", -1, 1, "--z", -1, 1]
                       + flag + ["--out", outs[name]]) == 0
        assert outs["config"].read_bytes() == outs["flag"].read_bytes()
        assert outs["config"].read_bytes() != outs["long"].read_bytes()


class TestBenchConvCommand:
    def test_report_includes_mac_ratio(self, tmp_path, capsys):
        out = tmp_path / "bench.txt"
        assert run(["bench-conv", "--size", 64, "--sites", 200, "--channels", 8,
                    "--out", out]) == 0
        text = out.read_text()
        assert "mac.ratio = " in text
        ratio = float([l for l in text.splitlines() if l.startswith("mac.ratio")][0]
                      .split(" = ")[1])
        assert ratio == pytest.approx(200 / (64 * 64), abs=1e-6)

    def test_fixture_scale_ratio(self, capsys):
        # published-geometry fixture at tiny channel width for speed
        assert run(["bench-conv", "--size", 504, "--sites", 5124,
                    "--channels", 2]) == 0
        text = capsys.readouterr().out
        ratio = float([l for l in text.splitlines() if l.startswith("mac.ratio")][0]
                      .split(" = ")[1])
        assert abs(ratio - 0.0202) < 1e-4

    @pytest.mark.parametrize("flag, value, message", [
        ("--size", 0, "--size must be >= 1, got 0"),
        ("--channels", 0, "--channels must be >= 1, got 0"),
        ("--sites", -1, "--sites must be in 0..16, got -1"),
        ("--sites", 17, "--sites must be in 0..16, got 17"),
        ("--kernel", 0, "--kernel must be odd and >= 1, got 0"),
        ("--kernel", 2, "--kernel must be odd and >= 1, got 2"),
    ])
    def test_flags_checked_at_the_boundary(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "bench.txt"
        args = {"--size": 4, "--sites": 3, "--channels": 2, "--kernel": 3, flag: value}
        assert run(["bench-conv", *(a for kv in args.items() for a in kv), "--out", out]) == 1
        assert capsys.readouterr().err == f"error: ValueError: {message}\n"
        assert not out.exists()


class TestDetectEvalCommand:
    def test_metrics_report(self, tmp_path, capsys):
        det_rows = [
            {"frame": 0, "box": {"x": 0, "y": 0, "z": 0, "l": 1, "w": 1, "h": 1, "yaw": 0}},
            {"frame": 1, "box": {"x": 50, "y": 0, "z": 0, "l": 1, "w": 1, "h": 1, "yaw": 0}},
        ]
        gt_rows = [
            {"frame": 0, "box": {"x": 0, "y": 0, "z": 0, "l": 1, "w": 1, "h": 1, "yaw": 0}},
            {"frame": 1, "box": {"x": 0, "y": 0, "z": 0, "l": 1, "w": 1, "h": 1, "yaw": 0}},
        ]
        d, g, out = tmp_path / "d.jsonl", tmp_path / "g.jsonl", tmp_path / "m.json"
        write_jsonl(d, det_rows)
        write_jsonl(g, gt_rows)
        assert run(["detect-eval", "--detections", d, "--truth", g, "--out", out]) == 0
        report = json.loads(out.read_text())
        assert (report["tp"], report["fp"], report["fn"]) == (1, 1, 1)
        assert report["precision"] == pytest.approx(0.5)
        assert report["recall"] == pytest.approx(0.5)

    def test_iou_flag_is_checked_like_the_config(self, tmp_path, capsys):
        row = {"frame": 0, "box": {"x": 0, "y": 0, "z": 0, "l": 1, "w": 1, "h": 1}}
        d = tmp_path / "d.jsonl"
        write_jsonl(d, [row])
        assert run(["detect-eval", "--detections", d, "--truth", d, "--iou", 0.5]) == 0
        assert "tp = 1" in capsys.readouterr().out
        assert run(["detect-eval", "--detections", d, "--truth", d, "--iou", 7]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError: iou_threshold must be in (0, 1]")

    def test_directory_as_detections_exits_with_an_error_line(self, tmp_path, capsys):
        g = tmp_path / "g.jsonl"
        write_jsonl(g, [])
        assert run(["detect-eval", "--detections", tmp_path, "--truth", g]) == 1
        assert capsys.readouterr().err.startswith("error: IsADirectoryError: ")

    @pytest.mark.parametrize("field, bad", [("x", "1"), ("l", True), ("yaw", None)])
    def test_mistyped_box_field_exits_with_an_error_line(self, tmp_path, capsys, field, bad):
        row = {"frame": 0, "box": {"x": 0, "y": 0, "z": 0, "l": 1, "w": 1, "h": 1, "yaw": 0}}
        row["box"][field] = bad
        d, g = tmp_path / "d.jsonl", tmp_path / "g.jsonl"
        write_jsonl(d, [row])
        write_jsonl(g, [])
        assert run(["detect-eval", "--detections", d, "--truth", g]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError: ") and f"box {field} must be a real" in err

    @pytest.mark.parametrize("row, message", [
        ({"frame": 0, "box": {"x": 0, "y": 0, "z": 0, "l": 1, "w": 1}},
         "row 2: box is missing h"),
        ([0, {"x": 0}], "row 2: expected an object"),
        ({"box": {"x": 0}}, "row 2: expected an object with an integer frame"),
        ({"frame": "0", "box": {}}, "row 2: expected an object with an integer frame"),
        ({"frame": 0, "box": [0, 0, 0, 1, 1, 1]}, "row 2: expected an object with an integer"),
    ])
    def test_malformed_row_exits_with_an_error_line(self, tmp_path, capsys, row, message):
        good = {"frame": 0, "box": {"x": 0, "y": 0, "z": 0, "l": 1, "w": 1, "h": 1}}
        d, g = tmp_path / "d.jsonl", tmp_path / "g.jsonl"
        write_jsonl(d, [good, row])
        write_jsonl(g, [good])
        for args in (["--detections", d, "--truth", g], ["--detections", g, "--truth", d]):
            assert run(["detect-eval"] + args) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ValueError: ") and f"d.jsonl: {message}" in err


    def test_invalid_json_names_the_file_and_line(self, tmp_path, capsys):
        good = {"frame": 0, "box": {"x": 0, "y": 0, "z": 0, "l": 1, "w": 1, "h": 1}}
        d, g = tmp_path / "bad.jsonl", tmp_path / "g.jsonl"
        d.write_text(json.dumps(good) + '\n{"frame": 1, "box":\n')
        write_jsonl(g, [good])
        assert run(["detect-eval", "--detections", d, "--truth", g]) == 1
        assert capsys.readouterr().err.startswith(f"error: ValueError: {d}:2: invalid JSON: ")


class TestTrackCommand:
    @staticmethod
    def flyby(tmp_path):
        """Two constant-velocity targets 20 - 0.4k m apart in 100 ms frame k."""
        from airsense.pointio import ScanFrame, write_columnar
        frames, det_rows = [], []
        for k in range(40):
            t0 = k * 100_000
            a = (10.0, 10.0 - 0.2 * k, 0.0)
            b = (10.0, -10.0 + 0.2 * k, 0.0)
            points = [(c[0] + dx, c[1], c[2]) for c in (a, b) for dx in (-0.2, 0.0, 0.2)]
            frames.append(ScanFrame(points, [0.5] * 6, [t0 + 50_000] * 6, t0, 100_000))
            for c in (a, b):
                det_rows.append({"frame": k, "box": {"x": c[0], "y": c[1], "z": c[2],
                                                     "l": 1.6, "w": 1.6, "h": 1.0,
                                                     "yaw": 0}})
        pts = tmp_path / "pts.xyz"
        dets = tmp_path / "dets.jsonl"
        write_columnar(pts, frames)
        write_jsonl(dets, det_rows)
        return pts, dets

    def test_flyby_alert_log(self, tmp_path):
        # the two targets cross the 15 m separation
        pts, dets = self.flyby(tmp_path)
        out_t, out_a = tmp_path / "tracks.jsonl", tmp_path / "alerts.jsonl"
        assert run(["track", "--frames", pts, "--detections", dets,
                    "--separation", 15, "--out-tracks", out_t,
                    "--out-alerts", out_a]) == 0
        alerts = read_jsonl(out_a)
        assert alerts
        # distance 20 - 0.4k < 15 first at k = 13
        assert min(a["frame"] for a in alerts) == 13
        assert all(a["distance"] < 15.0 for a in alerts)
        tracks = read_jsonl(out_t)
        assert {t["frame"] for t in tracks} == set(range(40))

    def test_window_and_separation_default_to_the_config(self, tmp_path):
        pts, dets = self.flyby(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tracker": {"separation_m": 18.0}, "window_ms": 200}))
        out_t, out_a = tmp_path / "tracks.jsonl", tmp_path / "alerts.jsonl"
        assert run(["--config", cfg, "track", "--frames", pts, "--detections", dets,
                    "--out-tracks", out_t, "--out-alerts", out_a]) == 0
        # 200 ms windows halve the 40 recorded frames; 20 - 0.4k < 18 first at k = 6
        assert {t["frame"] for t in read_jsonl(out_t)} == set(range(20))
        alerts = read_jsonl(out_a)
        assert min(a["frame"] for a in alerts) == 6
        assert all(a["distance"] < 18.0 for a in alerts)

    @pytest.mark.parametrize("window", [math.inf, math.nan, 0.0, -1.0])
    def test_bad_window_fails_with_a_typed_error(self, tmp_path, capsys, window):
        with pytest.raises(ValueError, match="window_ms"):
            list(window_frames([], window))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"window_ms": window}))
        with pytest.raises(ConfigError, match="window_ms"):
            load_config(cfg)
        pts, dets = self.flyby(tmp_path)
        outs = ["--out-tracks", tmp_path / "t.jsonl", "--out-alerts", tmp_path / "a.jsonl"]
        for args in (["track", "--window", window], ["--config", cfg, "track"]):
            capsys.readouterr()
            assert run(args + ["--frames", pts, "--detections", dets] + outs) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "window_ms" in err

    @pytest.mark.parametrize("row, message", [
        ({"frame": 3, "box": {"x": 0, "y": 0, "z": 0, "l": 1, "h": 1}},
         "row 1: box is missing w"),
        ("frame 3", "row 1: expected an object"),
    ])
    def test_malformed_detection_row_fails_with_an_error_line(self, tmp_path, capsys, row,
                                                              message):
        pts, _ = self.flyby(tmp_path)
        dets = tmp_path / "bad.jsonl"
        write_jsonl(dets, [row])
        assert run(["track", "--frames", pts, "--detections", dets,
                    "--out-tracks", tmp_path / "t.jsonl",
                    "--out-alerts", tmp_path / "a.jsonl"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError: ") and f"bad.jsonl: {message}" in err

    def test_invalid_json_line_counts_blank_lines(self, tmp_path, capsys):
        pts, _ = self.flyby(tmp_path)
        dets = tmp_path / "bad.jsonl"
        dets.write_text('\n{"frame": 1, "box":\n')
        assert run(["track", "--frames", pts, "--detections", dets,
                    "--out-tracks", tmp_path / "t.jsonl",
                    "--out-alerts", tmp_path / "a.jsonl"]) == 1
        assert capsys.readouterr().err.startswith(f"error: ValueError: {dets}:2: invalid JSON: ")

    @pytest.mark.parametrize("gps", [math.nan, math.inf])
    def test_bad_gps_time_fails_with_a_typed_error(self, tmp_path, capsys, gps):
        from airsense.pointio import ScanFrame, write_las
        pts, dets = tmp_path / "pts.las", tmp_path / "dets.jsonl"
        write_las(pts, [ScanFrame(np.zeros((4, 3)), np.zeros(4), np.arange(4), 0, 4)])
        data = bytearray(pts.read_bytes())
        struct.pack_into("<d", data, 227 + 2 * 34 + 20, gps)
        pts.write_bytes(bytes(data))
        write_jsonl(dets, [])
        assert run(["track", "--frames", pts, "--detections", dets,
                    "--out-tracks", tmp_path / "t.jsonl",
                    "--out-alerts", tmp_path / "a.jsonl"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: PointFormatError") and "record 2: GPS time" in err


def run_augment(tmp_path, seeds=("--seed", 3), config_seed=0, name="data", **top_level):
    """Three paired frames from a small augment config, with any top-level
    fields given; returns the output directory."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "scan": {"points_per_second": 48_000, "seed": config_seed},
        "augment": {"background_pool": 2, "instances": 3, "seed": config_seed,
                    "region": {"x_range": [9, 13], "y_range": [-2, 2],
                               "z_range": [-1, 1]}},
        **top_level,
    }))
    out = tmp_path / name
    assert run(["--config", cfg, "augment", "--mesh", "builtin:drone", *seeds,
                "--out", out]) == 0
    return out


class TestAugmentCommand:
    def test_paired_outputs_and_manifest(self, tmp_path):
        out = run_augment(tmp_path)
        manifest = read_jsonl(out / "manifest.jsonl")
        assert len(manifest) == 3
        sim_labels = read_jsonl(out / "sim_labels.jsonl")
        euc_labels = read_jsonl(out / "euc_labels.jsonl")
        assert len(sim_labels) == len(euc_labels) == 3
        for s, e, m in zip(sim_labels, euc_labels, manifest):
            assert s["box"]["x"] == pytest.approx(m["insertion"][0])
            assert e["box"]["x"] == pytest.approx(m["insertion"][0])
        for i in range(3):
            assert (out / f"sim_{i:05d}.xyz").exists()
            assert (out / f"euc_{i:05d}.xyz").exists()

    def test_labels_feed_detect_eval(self, tmp_path, capsys):
        labels = run_augment(tmp_path) / "sim_labels.jsonl"
        capsys.readouterr()
        assert run(["detect-eval", "--detections", labels, "--truth", labels]) == 0
        out = capsys.readouterr().out
        assert "frames = 3" in out and "f1 = 1.0000" in out

    def test_config_seed_is_the_default(self, tmp_path):
        from_config = run_augment(tmp_path, (), config_seed=7, name="config")
        from_flag = run_augment(tmp_path, ("--seed", 7), config_seed=7, name="flag")
        files = sorted(p.name for p in from_config.iterdir())
        assert files == sorted(p.name for p in from_flag.iterdir())
        for f in files:
            assert (from_config / f).read_bytes() == (from_flag / f).read_bytes()
        zero = run_augment(tmp_path, ("--seed", 0), config_seed=7, name="zero")
        assert (zero / "manifest.jsonl").read_bytes() != (from_config / "manifest.jsonl").read_bytes()

    def test_config_window_sets_the_frames(self, tmp_path):
        out = run_augment(tmp_path, window_ms=50)
        frames = [f for side in ("sim", "euc") for i in range(3)
                  for f in read_points(out / f"{side}_{i:05d}.xyz")]
        # 48k rays/s over 50 ms, and 300-600 clutter returns spread over the window
        assert all(f.t_us.max() < 50_000 for f in frames)
        assert max(f.t_us.max() for f in frames) > 45_000
        assert all(m["sim_points"] <= 2_400 for m in read_jsonl(out / "manifest.jsonl"))
        cfg = tmp_path / "plan_window.json"
        cfg.write_text(json.dumps({"augment": {"window_ms": 50}}))
        with pytest.raises(ConfigError, match=r"^augment: unknown keys \['window_ms'\]$"):
            load_config(cfg)

    def test_seed_flag_sets_the_scan_and_the_plan_seed(self, tmp_path):
        from_flag = run_augment(tmp_path, ("--seed", 0), config_seed=7, name="flag")
        from_config = run_augment(tmp_path, (), config_seed=0, name="config")
        files = sorted(p.name for p in from_config.iterdir())
        assert files == sorted(p.name for p in from_flag.iterdir())
        for f in files:
            assert (from_config / f).read_bytes() == (from_flag / f).read_bytes()


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(), re.M | re.S)


class TestReadmeExamples:
    def test_every_airsense_command_parses(self):
        commands = []
        for block in readme_blocks("sh"):
            for line in block.replace("\\\n", " ").splitlines():
                line = re.sub(r"\$\{?[wc]\}?", "1", line.split("#")[0])
                for part in line.split(";"):
                    words = shlex.split(part)
                    if words[:1] == ["do"]:
                        words = words[1:]
                    if words[:1] == ["airsense"]:
                        commands.append(words[1:])
        assert len(commands) >= 10
        for argv in commands:
            args = build_parser().parse_args(argv)
            assert callable(args.func)

    def test_every_json_block_loads(self, tmp_path):
        blocks = readme_blocks("json")
        assert len(blocks) >= 2
        for block in blocks:
            path = tmp_path / "cfg.json"
            path.write_text(block)
            load_config(path)
