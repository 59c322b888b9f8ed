"""Benchmark entry point.

    python3 bench/run.py --workload sky --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout: the program is imported from its
`src/` directory and from nowhere else. The last line of standard output is
the result, {"correct", "attempted", "failed", "metrics"}, carrying the
end-to-end metrics of BENCHMARK.json with --trace 0 and its per-layer
metrics with --trace 1. The line before it is for information: provenance,
the D1 probe, wall times with their tail percentile, the reference kernel's
time and where the spans were written.

`op_norm_ms` and `setup_s` are the program's call times with each call but
the backbone's taken at the nominal speed of a reference kernel timed between
the calls (see `workloads.Reference`), so that the host's drift cancels; the
per-layer times are wall times.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

from spans import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_REPEATS = 3

# per-layer metric -> span whose self time it reports (median per call)
SPAN_METRICS = {
    "pillars.assign_ms": ("pillars.assign_pillars", ""),
    "pillars.encode_ms": ("pillars.pillar_encode", ""),
    "backbone.dense.ms": ("backbone.run_backbone", "dense"),
    "backbone.sparse.ms": ("backbone.run_backbone", "sparse"),
    "backbone.subm.ms": ("backbone.run_backbone", "subm"),
    "lidar_sim.simulate_ms": ("lidar_sim.simulate_frame", ""),
    "lidar_sim.directivity_ms": ("lidar_sim.directivity_analysis", ""),
    "augment.build_ms": ("augment.build_datasets", ""),
    "anchors.assign_ms": ("anchors.assign_targets", ""),
    "anchors.decode_ms": ("anchors.decode_box", ""),
    "anchors.nms_ms": ("anchors.nms", ""),
    "metrics.classify_ms": ("metrics.classify", ""),
    "tracker.step_ms": ("tracker.Tracker.step", ""),
    "pointio.read_ms": ("pointio.read_las", ""),
    "pointio.window_ms": ("pointio.window_frames", ""),
    "pointio.las_write_ms": ("pointio.write_las", ""),
    "pointio.columnar_write_ms": ("pointio.write_columnar", ""),
    "mesh.bvh_build_ms": ("raytrace.Bvh", ""),
}


def program_importable() -> bool:
    """True when `airsense` imports from this checkout's src/."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    try:
        import airsense
    except ImportError:
        return False
    return os.path.dirname(os.path.abspath(airsense.__file__)) == os.path.join(SRC, "airsense")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _git_rev() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _openblas() -> tuple[str, int | None]:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
    return f"{blas.get('name')} {blas.get('version')}", threads


def provenance(name: str, seed: int, scale) -> dict:
    import numpy as np
    blas, threads = _openblas()
    nproc = len(os.sched_getaffinity(0))
    return {
        "git_rev": _git_rev(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "nproc": nproc,
        "processes": 1,
        "workload": name,
        "seed": seed,
        "spec_sha256": hashlib.sha256(f"{name}:{scale!r}".encode()).hexdigest(),
    }


def tail_percentile(values: list[float]) -> dict:
    """The highest percentile with at least ten samples beyond it."""
    import numpy as np
    n = len(values)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10:
            return {"percentile": p, "ms": float(np.percentile(values, p)), "samples": n}
    return {"percentile": None, "samples": n}


def layer_values(tracer: Tracer, units: dict[str, str]) -> dict[str, float]:
    """Per-layer figures: span self times and noted times as medians per call,
    noted counts as means per call, ratios as ratios of totals."""
    out = {}
    self_ms = tracer.self_ms()
    for metric, key in SPAN_METRICS.items():
        if key in self_ms:
            out[metric] = statistics.median(self_ms[key])
    for name, values in tracer.notes.items():
        out[name] = (statistics.median(values) if units.get(name) == "ms"
                     else statistics.fmean(values))
    for name, (num, den) in tracer.ratios.items():
        out[name] = num / den if den else 0.0
    return out


def measure(name: str, seed: int, seconds: float, trace: bool, scale=None) -> tuple[dict, dict]:
    """One run of one workload: set up SETUP_REPEATS times, probe, then run
    operations for at most `seconds` (at least one). Returns (result, info)."""
    if not program_importable():
        raise ImportError(f"airsense is not importable from {SRC}")
    import workloads as wl  # importable only once the program is on sys.path

    scale = scale or wl.FULL
    spec = load_spec()
    tracer = Tracer(trace)
    workdir = os.path.join(WORK, f"{name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        w = wl.WORKLOADS[name](scale, seed, tracer, workdir)
        ref = wl.Reference()
        setup_wall, setup_calls = [], []
        for i in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            calls = wl.Calls(tracer, ref, i)
            with tracer.span("bench.setup", i):
                w.setup(calls)
            setup_wall.append(time.perf_counter() - t0)
            ref.sample(force=True)
            setup_calls.append(calls)
        probe = w.probe()

        op_calls, op_wall, errors, failed = [], [], [], 0
        start = time.perf_counter()
        k = 0
        # start an operation only if a typical one still ends within `seconds`
        while k == 0 or (time.perf_counter() - start + statistics.median(op_wall)
                         <= seconds):
            t0 = time.perf_counter()
            calls = wl.Calls(tracer, ref, k)
            try:
                with tracer.span("bench.op", k):
                    errs = w.op(k, calls)
            except Exception as exc:  # a call that raises fails its operation only
                errs = [f"op {k}: {type(exc).__name__}: {exc}"]
            op_calls.append(calls)
            w.note_op(calls)
            failed += bool(errs)
            errors += errs
            op_wall.append(time.perf_counter() - t0)
            ref.sample()
            k += 1
        for _ in range(2):   # the last calls' normalization looks two samples ahead
            ref.sample(force=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = layer_values(tracer, units)
        values["trace.op_norm_ms"] = statistics.median(c.norm_ms() for c in op_calls)
        values["trace.spans_per_op"] = len(tracer.spans) / len(op_calls)
        if probe is not None:
            values["probe.d1_failed"] = float(probe["d1_default_grid"] == "failed")
        wanted = spec["per_layer"]
    else:
        values = {
            "op_norm_ms": statistics.median(c.norm_ms() for c in op_calls),
            "setup_s": statistics.median(c.norm_ms() for c in setup_calls) * 1e-3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        wanted = spec["end_to_end"]
    # a layer the workload never calls reads 0
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in wanted}
    op_ms = [c.ms() for c in op_calls]
    result = {"correct": failed == 0, "attempted": len(op_calls), "failed": failed,
              "metrics": metrics}
    info = {"provenance": provenance(name, seed, scale), "d1_probe": probe,
            "wall": {"op_ms": statistics.median(op_ms), "op_ms_tail": tail_percentile(op_ms),
                     "setup_calls_s": [c.ms() * 1e-3 for c in setup_calls],
                     "setup_s": setup_wall},
            "reference_ms": statistics.median(ns for _, ns in ref.samples) * 1e-6,
            "errors": errors[:20],
            "unmeasured": [m["name"] for m in wanted if m["name"] not in values]}
    if trace:
        os.makedirs(WORK, exist_ok=True)
        info["spans"] = os.path.join(WORK, f"spans-{name}-{seed}.json")
        tracer.write(info["spans"])
    return result, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not program_importable():
        print(f"error: airsense is not importable from {SRC}", file=sys.stderr)
        return 2
    import workloads as wl
    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    result, info = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
