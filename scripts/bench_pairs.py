"""Run the benchmark in alternating before/after pairs over two revisions.

    python scripts/bench_pairs.py --parent REV --change REV --name NAME \
        --what "what changed" offline@7:10 sky@7:3 [--seconds 25] [--control K]

Each revision is exported with `git archive` into a fresh directory and
`bench/run.py` runs unchanged from each copy, one process per run. A
`W@S:N` argument asks for N pairs of workload W at seed S; the pairs
alternate which side runs first. The script writes BENCH_<NAME>.json at the
root of the repository after every pair: the machine, each revision's count
of lines in the Python files under src/ and scripts/, and per workload every
run's end-to-end metrics with the median and quartiles of each side, the
median change, the number of pairs the change won and whether the gain rule
holds: the change reads lower in at least 9 of every 10 pairs, and its median
is lower than the parent's by more than the parent's interquartile range.
With --control K, each workload also runs K pairs of the parent against a
second export of the parent, interleaved with its pairs, and records their
summary under "control": the drift that identical code shows in the same
session, to read a claimed gain against.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import pathlib
import subprocess
import sys
import tarfile
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
TAIL_LINES = 20


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def export(rev: str, dest: str):
    """The committed tree of rev, extracted into dest."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        tar.extractall(dest, filter="data")


def source_lines(tree: str) -> int:
    """Lines of the Python files under the tree's src/ and scripts/."""
    return sum(len(path.read_bytes().splitlines()) for d in ("src", "scripts")
               for path in pathlib.Path(tree, d).rglob("*.py"))


def bench(tree: str, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One run of the tree's bench/run.py: its result and its info line. A
    run that exits non-zero, or whose stdout does not end in the info line
    and the result line, ends the script with the tail of its stderr or stdout."""
    def fail(what: str, text: str):
        tail = "\n".join(text.strip().splitlines()[-TAIL_LINES:])
        side = os.path.basename(tree)
        raise SystemExit(f"error: {side} run of {workload}@{seed} {what}:\n{tail}")

    try:
        out = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                              "--seed", str(seed), "--seconds", str(seconds)],
                             cwd=tree, check=True, capture_output=True, text=True).stdout
    except subprocess.CalledProcessError as exc:
        fail(f"exited with code {exc.returncode}; last lines of its stderr", exc.stderr)
    try:
        info, result = out.strip().splitlines()[-2:]
        return json.loads(result), json.loads(info)["info"]
    except (ValueError, KeyError, TypeError):
        fail("did not end in its info and result lines; last lines of its stdout", out)


def summarize(runs: dict[str, list[dict]]) -> dict:
    """Per-workload record in the schema of the committed BENCH_*.json files."""
    out = {
        "pairs": min(len(runs[s]) for s in SIDES),
        "runs_correct": all(r["correct"] for s in SIDES for r in runs[s]),
        "failed_operations": {s: sum(r["failed"] for r in runs[s]) for s in SIDES},
        "attempted_operations": {s: [r["attempted"] for r in runs[s]] for s in SIDES},
    }
    for metric in runs["parent"][0]["metrics"]:
        values = {s: np.array([r["metrics"][metric]["value"] for r in runs[s]]) for s in SIDES}
        quartiles = {s: np.percentile(values[s], [25, 50, 75]) for s in SIDES}
        n = out["pairs"]
        entry = {}
        for s in SIDES:
            q1, med, q3 = quartiles[s]
            entry[s] = {"median": round(float(med), 4), "q1": round(float(q1), 4),
                        "q3": round(float(q3), 4),
                        "runs": [round(float(v), 4) for v in values[s]]}
        entry["change_wins"] = int((values["change"][:n] < values["parent"][:n]).sum())
        parent_median = entry["parent"]["median"]
        entry["median_change_pct"] = (
            round(100.0 * (entry["change"]["median"] / parent_median - 1.0), 2)
            if parent_median else None)
        parent_iqr = quartiles["parent"][2] - quartiles["parent"][0]
        entry["parent_iqr"] = round(float(parent_iqr), 4)
        entry["gain_holds"] = bool(
            n > 0 and entry["change_wins"] >= 0.9 * n
            and quartiles["parent"][1] - quartiles["change"][1] > parent_iqr)
        out[metric] = entry
    return out


def parse_plan(items: list[str]) -> list[tuple[str, int, int]]:
    plan = []
    for item in items:
        try:
            head, pairs = item.split(":")
            workload, seed = head.split("@")
            plan.append((workload, int(seed), int(pairs)))
        except ValueError:
            raise SystemExit(f"error: expected W@SEED:PAIRS, got {item!r}")
        if plan[-1][2] < 1:
            raise SystemExit(f"error: expected at least one pair, got {item!r}")
    return plan


def run_pair(label: str, trees: dict, runs: dict, i: int, n: int, workload: str, seed: int,
             seconds: float) -> dict:
    """Pair i of n: one run from each side's tree, the parent first in even
    pairs, appended to runs and printed. Returns the info line of the last."""
    for s in SIDES if i % 2 == 0 else SIDES[::-1]:
        result, info = bench(trees[s], workload, seed, seconds)
        runs[s].append(result)
    print(f"{workload}@{seed} {label} {i + 1}/{n}: "
          + ", ".join(f"{s} {runs[s][-1]['metrics']['op_norm_ms']['value']:.2f}"
                      for s in SIDES), flush=True)
    return info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="revision measured before")
    parser.add_argument("--change", default="HEAD", help="revision measured after")
    parser.add_argument("--name", required=True, help="writes BENCH_<name>.json")
    parser.add_argument("--what", required=True, help="what the change does, for the record")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--control", type=int, default=0, metavar="K",
                        help="K A/A pairs per workload: the parent against a second "
                             "export of the parent")
    parser.add_argument("plan", nargs="+", help="W@SEED:PAIRS, e.g. offline@7:10")
    args = parser.parse_args(argv)
    plan = parse_plan(args.plan)
    if args.control < 0:
        parser.error(f"--control must be >= 0, got {args.control}")
    revs = {s: git("rev-parse", "--verify", f"{r}^{{commit}}").decode().strip()
            for s, r in zip(SIDES, (args.parent, args.change))}
    path = os.path.join(ROOT, f"BENCH_{args.name}.json")
    record = {
        "what": args.what,
        "command": f"python3 bench/run.py --workload W --seed S --seconds {args.seconds:g}, "
                   "one process per run, in git archive copies of each revision; pairs "
                   "alternate which side runs first",
        "parent_rev": revs["parent"],
        "change_rev": revs["change"],
        "machine": None,
        "statistics": "median and quartiles (numpy.percentile, linear) over the runs of one "
                      "side; change_wins counts pairs where the change reads lower, ties "
                      "count for neither; gain_holds is true when change_wins is at least "
                      "0.9 of the pairs and the parent median exceeds the change median by "
                      "more than parent_iqr; control, when present, is the same summary "
                      "over A/A pairs of the parent against a second export of the parent, "
                      "interleaved with the workload's pairs",
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {s: os.path.join(tmp, s) for s in SIDES}
        for s in SIDES:
            export(revs[s], trees[s])
        record["source_lines"] = {s: source_lines(trees[s]) for s in SIDES}
        # the A/A control's second side: the parent again, exported apart
        control_trees = {"parent": trees["parent"], "change": os.path.join(tmp, "control")}
        if args.control:
            export(revs["parent"], control_trees["change"])
        for workload, seed, pairs in plan:
            key = f"{workload}@{seed}"
            runs = {s: [] for s in SIDES}
            control = {s: [] for s in SIDES}
            for i in range(max(pairs, args.control)):
                if i < pairs:
                    info = run_pair("pair", trees, runs, i, pairs, workload, seed, args.seconds)
                if i < args.control:
                    info = run_pair("control pair", control_trees, control, i, args.control,
                                    workload, seed, args.seconds)
                if record["machine"] is None:
                    prov = info["provenance"]
                    record["machine"] = {k: prov[k] for k in
                                         ("python", "numpy", "blas", "blas_threads", "nproc")}
                record["workloads"][key] = summarize(runs)
                if control["parent"]:
                    record["workloads"][key]["control"] = summarize(control)
                with open(path, "w") as fh:
                    json.dump(record, fh, indent=1)
                    fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
