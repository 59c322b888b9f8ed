"""Tests of the benchmark itself, at the TINY scale.

    python3 -m pytest bench -q
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

assert run.program_importable()
import workloads as wl  # noqa: E402  (needs the program on sys.path)
from spans import Tracer  # noqa: E402

SPEC = run.load_spec()


@pytest.fixture(scope="module")
def tiny_runs():
    return {(name, trace): run.measure(name, 3, 0.3, trace, wl.TINY)
            for name in wl.WORKLOADS for trace in (False, True)}


def test_spec_names_workloads_and_bounds():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in SPEC["end_to_end"])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    with open(os.path.join(os.path.dirname(__file__), "layers.json")) as fh:
        layers = json.load(fh)
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    for row in layers["layer_to_end_to_end"]:
        assert set(row["metrics"]) <= per_layer, row
        assert set(row["moves"]) <= e2e | per_layer, row


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_tiny_run_emits_every_metric_with_its_unit(tiny_runs, name):
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result, info = tiny_runs[(name, trace)]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, info["errors"]
        assert result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    e2e = tiny_runs[(name, False)][0]["metrics"]
    assert all(v["value"] > 0 for v in e2e.values()), e2e


def test_every_layer_metric_is_measured_on_some_workload(tiny_runs):
    unmeasured = set.intersection(*(set(info["unmeasured"])
                                    for (_, trace), (_, info) in tiny_runs.items() if trace))
    assert not unmeasured


def test_d1_probe_reports_the_default_grid_defect(tiny_runs):
    for name in ("sky", "clutter"):
        probe = tiny_runs[(name, False)][1]["d1_probe"]
        assert probe["d1_default_grid"] == "failed"
        assert "disagree on size" in probe["error"]


def test_nudged_backbone_output_fails_its_operation(monkeypatch):
    real = wl.run_backbone

    def nudged(pi, spec, weights, engine):
        out, rep = real(pi, spec, weights, engine)
        if engine == "sparse":
            scale = max(1.0, float(np.abs(out.values).max()))
            out.values[0, 0, 0] += 10 * wl.ENGINE_RTOL * scale
        return out, rep

    monkeypatch.setattr(wl, "run_backbone", nudged)
    result, info = run.measure("clutter", 3, 0.1, False, wl.TINY)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert any("dense/sparse" in e for e in info["errors"])


def test_checks_reject_perturbed_outputs():
    s = wl.TINY
    frame = wl.make_frame(np.random.default_rng(0),
                          [wl.clutter_points(np.random.default_rng(1), s.grid, 900)], 0)
    pa = wl.assign_pillars(frame, s.grid)
    pi = wl.pillar_encode(pa.pillars, wl.random_pillar_weights(np.random.default_rng(2), 8),
                          s.grid)
    assert wl.check_pillars(frame, s.grid, pa, pi) == []
    pa.truncated_points += 1
    assert wl.check_pillars(frame, s.grid, pa, pi)

    weights = wl.make_backbone_weights(s.backbone, 8, np.random.default_rng(3))
    _, rep = wl.run_backbone(pi, s.backbone, weights, "sparse")
    assert wl.check_mac_law(rep, s.backbone, s.grid.ny, s.grid.nx, 8) == []
    rep.layers[1].macs += 1
    assert wl.check_mac_law(rep, s.backbone, s.grid.ny, s.grid.nx, 8)

    tracker = wl.Tracker(wl.TrackerConfig())
    boxes = [wl.Box3D(10, 0, 0, *wl.DRONE_SIZE), wl.Box3D(10, 5, 0, *wl.DRONE_SIZE)]
    tracks = tracker.step(frame, boxes)
    alerts = tracker.alerts()
    assert len(alerts) == 1 and wl.check_alerts(tracks, alerts, 15.0) == []
    assert wl.check_alerts(tracks, [], 15.0)


def test_normalized_time_cancels_the_kernel_drift():
    """With the kernel at half speed an interpreted call reads half its wall
    time; a backbone call reads its wall time. One slow kernel pass among
    five does not move the figure."""
    ref = wl.Reference()
    ref.samples = [(i, 2 * wl.NOMINAL_NS) for i in range(5)]
    ref.samples[3] = (3, 9 * wl.NOMINAL_NS)
    calls = wl.Calls(Tracer(False), ref)
    calls.timed = [("tracker.Tracker.step", 2, 10_000_000),
                   ("backbone.run_backbone", 2, 4_000_000)]
    assert calls.norm_ms() == pytest.approx(5.0 + 4.0)


def test_self_time_subtracts_children():
    tr = Tracer(True)
    tr.spans = [["op", 0, 100, -1, 0, ""], ["a", 10, 30, 0, 0, ""],
                ["b", 40, 90, 0, 0, ""], ["c", 50, 60, 2, 0, ""]]
    got = {k[0]: v[0] for k, v in tr.self_ms().items()}
    assert got == pytest.approx({"op": 30e-6, "a": 20e-6, "b": 40e-6, "c": 10e-6})


def test_fails_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark: exit non-zero, print no result."""
    bench = os.path.dirname(os.path.abspath(__file__))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(bench, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sky", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60,
                          env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
