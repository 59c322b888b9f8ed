"""Command line surface tying the modules into pipelines.

Subcommands: simulate, directivity, augment, bench-conv, detect-eval, track.
Every command is deterministic for a fixed (config, seed) pair.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace

import numpy as np

from .augment import AugPlan, build_datasets, synth_insert
from .boxes import Box3D
from .config import Config, ConfigError, default_config, load_config
from .lidar_sim import (Pose2D, ScanPattern, VoxelRegion, directivity_analysis,
                        simulate_frame)
from .mesh import MeshError, box_mesh, icosphere, load_mesh, quadcopter_mesh
from .metrics import aggregate, classify
from .pointio import (PointFormatError, ScanFrame, read_jsonl, read_points, window_frames,
                      write_columnar, write_jsonl, write_las)
from .raytrace import Bvh
from .spconv import KernelTensor, Sites, conv
from .tracker import replay

BUILTIN_MESHES = {
    "builtin:drone": quadcopter_mesh,
    "builtin:sphere": lambda: icosphere(0.5, 2),
    "builtin:box": lambda: box_mesh((1.0, 1.0, 0.5)),
}


def _resolve_mesh(spec: str):
    if spec in BUILTIN_MESHES:
        return BUILTIN_MESHES[spec]()
    return load_mesh(spec)


def _load_cfg(args) -> Config:
    """The config file, or the defaults, with each flag that is given
    written over its fields; the fields' own checks run on the flags too."""
    cfg = load_config(args.config) if args.config else default_config()
    seed, window = getattr(args, "seed", None), getattr(args, "window", None)
    separation, iou = getattr(args, "separation", None), getattr(args, "iou", None)
    if seed is not None:
        cfg = replace(cfg, scan=replace(cfg.scan, seed=seed),
                      augment=replace(cfg.augment, seed=seed))
    if window is not None:
        cfg = replace(cfg, window_ms=window)
    if separation is not None:
        cfg = replace(cfg, tracker=replace(cfg.tracker, separation_m=separation))
    if iou is not None:
        cfg = replace(cfg, eval=replace(cfg.eval, iou_threshold=iou))
    return cfg


# ---------------------------------------------------------------------------
# subcommands

def cmd_simulate(args) -> int:
    if args.frames < 1:
        raise ValueError(f"frames must be >= 1, got {args.frames}")
    cfg = _load_cfg(args)
    bvh = Bvh(_resolve_mesh(args.mesh))
    pose = Pose2D(args.yaw, (args.at[0], args.at[1], args.at[2]))
    open(args.out, "ab").close()   # an unwritable path fails before the first frame
    frames = []
    for k in range(args.frames):
        start = k * cfg.window_ms
        sim = simulate_frame(cfg.scan, bvh, pose, cfg.window_ms, start_ms=start)
        status = "accepted" if sim.accepted else "thin"
        print(f"frame {k}: {sim.hit_count} hits from {sim.rays_cast} rays ({status})")
        frames.append(sim.frame)
    if args.out.endswith(".las"):
        write_las(args.out, frames)
    else:
        write_columnar(args.out, frames)
    print(f"wrote {sum(len(f) for f in frames)} points to {args.out}")
    return 0


def cmd_directivity(args) -> int:
    cfg = _load_cfg(args)
    mesh = _resolve_mesh(args.mesh)
    region = VoxelRegion(tuple(args.x), tuple(args.y), tuple(args.z), args.voxel)
    grid = directivity_analysis(cfg.scan, mesh, cfg.window_ms, args.threshold, region)
    grid.to_csv(args.out)
    n_inc = int(grid.included().sum())
    print(f"{n_inc}/{len(grid.centers)} voxels at threshold {args.threshold} "
          f"-> {args.out}")
    return 0


def cmd_augment(args) -> int:
    cfg = _load_cfg(args)
    mesh = _resolve_mesh(args.mesh)
    plan = cfg.augment
    rng = np.random.default_rng(plan.seed)
    real = _synthesize_real_frames(plan, cfg.scan, cfg.window_ms, mesh, rng)
    pair = build_datasets(plan, real, mesh, cfg.scan, cfg.window_ms)
    os.makedirs(args.out, exist_ok=True)
    for name, frames in (("sim", pair.data_sim), ("euc", pair.data_euc)):
        rows = []
        for i, lf in enumerate(frames):
            rows += [{"frame": i, "box": b.to_dict(), "label": "drone", "points": len(lf.frame)}
                     for b in lf.boxes]
            write_columnar(f"{args.out}/{name}_{i:05d}.xyz", [lf.frame])
        write_jsonl(f"{args.out}/{name}_labels.jsonl", rows)
    write_jsonl(f"{args.out}/manifest.jsonl", pair.manifest)
    print(f"wrote {len(pair.data_sim)} paired frames to {args.out}")
    return 0


def _synthesize_real_frames(plan: AugPlan, pattern: ScanPattern, window_ms: float, mesh, rng):
    """Stand-in for recorded flights: each background is clutter plus one
    simulated target with its label box."""
    bvh = Bvh(mesh)
    window_us = round(window_ms * 1000)
    frames = []
    k = 0
    while len(frames) < plan.background_pool:
        n_bg = int(rng.integers(300, 600))
        pts = np.column_stack([rng.uniform(5, 60, n_bg), rng.uniform(-25, 25, n_bg),
                               rng.uniform(-8, 8, n_bg)])
        t_us = np.sort(rng.integers(0, window_us, n_bg)).astype(np.int64)
        bg = ScanFrame(pts, rng.uniform(0, 1, n_bg), t_us, 0, window_us)
        loc = np.array([rng.uniform(9, 18), rng.uniform(-4, 4), rng.uniform(-2, 2)])
        yaw = float(rng.uniform(-np.pi, np.pi))
        sim = simulate_frame(pattern, bvh, Pose2D(yaw, tuple(loc - mesh.center())),
                             window_ms)
        k += 1
        if k > plan.background_pool * 20:
            raise RuntimeError("could not synthesize enough admitted frames")
        if not sim.accepted:
            continue
        lf, _ = synth_insert(bg, sim.frame, loc, yaw)
        frames.append(lf)
    return frames


def cmd_bench_conv(args) -> int:
    for flag, value in (("--size", args.size), ("--channels", args.channels)):
        if value < 1:
            raise ValueError(f"{flag} must be >= 1, got {value}")
    if not 0 <= args.sites <= args.size ** 2:
        raise ValueError(f"--sites must be in 0..{args.size ** 2}, got {args.sites}")
    if args.kernel < 1 or args.kernel % 2 == 0:
        raise ValueError(f"--kernel must be odd and >= 1, got {args.kernel}")
    rng = np.random.default_rng(args.seed)
    p = q = args.size
    c = args.channels
    flat = rng.choice(p * q, size=args.sites, replace=False)
    sparse = Sites(p, q, np.sort(flat), rng.normal(size=(args.sites, c)))
    kernel = KernelTensor(rng.normal(size=(c, args.kernel, args.kernel, c))
                          .astype(np.float32) / (args.kernel * np.sqrt(c)))

    lines = [f"fixture.size = {p}x{q}", f"fixture.sites = {args.sites}",
             f"fixture.channels = {c}", f"fixture.kernel = {kernel.k}"]
    results = {}
    for name, x, out in (("dense", Sites.from_dense(sparse.to_dense()), "reach"),
                         ("sparse", sparse, "reach"),
                         ("submanifold", sparse, "same")):
        t0 = time.perf_counter_ns()
        _, macs = conv(x, kernel, out=out)
        dt = time.perf_counter_ns() - t0
        results[name] = (macs, dt)
        lines.append(f"{name}.macs = {macs}")
        lines.append(f"{name}.nanoseconds = {dt}")
    ratio = results["sparse"][0] / results["dense"][0]
    lines.append(f"mac.ratio = {ratio:.6f}")
    lines.append(f"speedup.dense_over_sparse = "
                 f"{results['dense'][1] / results['sparse'][1]:.3f}")
    report = "\n".join(lines) + "\n"
    print(report, end="")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report)
    return 0


def _boxes_by_frame(path):
    """Boxes of a JSONL file of {"frame": int, "box": {...}} rows, by frame."""
    by_frame: dict[int, list[Box3D]] = {}
    for i, row in enumerate(read_jsonl(path), 1):
        frame = row.get("frame") if isinstance(row, dict) else None
        if (isinstance(frame, bool) or not isinstance(frame, int)
                or not isinstance(row.get("box"), dict)):
            raise ValueError(f"{path}: row {i}: expected an object with an integer "
                             f"frame and a box object, got {row!r}")
        try:
            box = Box3D.from_dict(row["box"])
        except ValueError as exc:
            raise ValueError(f"{path}: row {i}: {exc}") from exc
        by_frame.setdefault(frame, []).append(box)
    return by_frame


def cmd_detect_eval(args) -> int:
    cfg = _load_cfg(args)
    dets = _boxes_by_frame(args.detections)
    gts = _boxes_by_frame(args.truth)
    frames = sorted(set(dets) | set(gts))
    counts = [classify(dets.get(k, []), gts.get(k, []), cfg.eval.iou_threshold,
                       use_bev=cfg.eval.use_bev) for k in frames]
    outcome = aggregate(counts)
    fmt = lambda v: "undefined" if v is None else f"{v:.4f}"
    print(f"frames = {len(frames)}")
    print(f"tp = {outcome.tp}\nfp = {outcome.fp}\nfn = {outcome.fn}")
    print(f"precision = {fmt(outcome.precision)}")
    print(f"recall = {fmt(outcome.recall)}")
    print(f"f1 = {fmt(outcome.f1)}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(outcome.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


def cmd_track(args) -> int:
    cfg = _load_cfg(args)
    frames = list(window_frames(read_points(args.frames), cfg.window_ms))
    dets = _boxes_by_frame(args.detections)
    det_lists = [dets.get(k, []) for k in range(len(frames))]
    track_log, alert_log, summary = replay(frames, det_lists, cfg.tracker)
    write_jsonl(args.out_tracks, track_log)
    write_jsonl(args.out_alerts, alert_log)
    print(f"frames = {len(frames)}")
    for key, val in summary.items():
        print(f"{key} = {val}")
    print(f"alerts = {len(alert_log)}")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="airsense",
        description="Airborne LiDAR sense-and-detect toolkit")
    parser.add_argument("--config", help="JSON configuration file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="scan a posed mesh into point frames")
    p.add_argument("--mesh", required=True,
                   help="OFF/STL path or builtin:drone|sphere|box")
    p.add_argument("--at", type=float, nargs=3, required=True,
                   metavar=("X", "Y", "Z"), help="target center, meters")
    p.add_argument("--yaw", type=float, default=0.0, help="target yaw, radians")
    p.add_argument("--window", type=float, default=None,
                   help="frame window, ms (default: the config's window_ms)")
    p.add_argument("--frames", type=int, default=1)
    p.add_argument("--seed", type=int, default=None, help="default: the config's scan.seed")
    p.add_argument("--out", required=True, help=".las or columnar text output")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("directivity", help="per-voxel return-count heat map CSV")
    p.add_argument("--mesh", required=True)
    p.add_argument("--window", type=float, default=None,
                   help="window, ms (default: the config's window_ms)")
    p.add_argument("--threshold", type=int, default=4)
    p.add_argument("--voxel", type=float, default=1.0)
    p.add_argument("--x", type=float, nargs=2, default=(5.0, 20.0))
    p.add_argument("--y", type=float, nargs=2, default=(-5.0, 5.0))
    p.add_argument("--z", type=float, nargs=2, default=(-3.0, 3.0))
    p.add_argument("--seed", type=int, default=None, help="default: the config's scan.seed")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_directivity)

    p = sub.add_parser("augment", help="paired simulated/rigid datasets + manifest")
    p.add_argument("--mesh", default="builtin:drone")
    p.add_argument("--seed", type=int, default=None,
                   help="default: the config's scan.seed and augment.seed")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("bench-conv",
                       help="dense vs sparse vs submanifold instrumentation")
    p.add_argument("--size", type=int, default=504)
    p.add_argument("--sites", type=int, default=5124)
    p.add_argument("--channels", type=int, default=64)
    p.add_argument("--kernel", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the report here as well")
    p.set_defaults(func=cmd_bench_conv)

    p = sub.add_parser("detect-eval", help="detections + ground truth -> metrics")
    p.add_argument("--detections", required=True, help="JSONL of frame/box rows")
    p.add_argument("--truth", required=True, help="JSONL of frame/box rows")
    p.add_argument("--iou", type=float, default=None,
                   help="IoU threshold (default: the config's eval.iou_threshold)")
    p.add_argument("--out", help="JSON report path")
    p.set_defaults(func=cmd_detect_eval)

    p = sub.add_parser("track", help="replay frames + detections into a track log")
    p.add_argument("--frames", required=True, help="point file (.las or columnar)")
    p.add_argument("--detections", required=True, help="JSONL of frame/box rows")
    p.add_argument("--window", type=float, default=None,
                   help="frame window, ms (default: the config's window_ms)")
    p.add_argument("--separation", type=float, default=None,
                   help="alert distance, m (default: the config's tracker.separation_m)")
    p.add_argument("--out-tracks", required=True)
    p.add_argument("--out-alerts", required=True)
    p.set_defaults(func=cmd_track)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, PointFormatError, MeshError, ValueError, OSError,
            RuntimeError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
