import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_failed_run_exits_naming_the_side_and_the_tail_of_its_stderr(tmp_path, bench_pairs):
    tree = tmp_path / "change"
    (tree / "bench").mkdir(parents=True)
    (tree / "bench" / "run.py").write_text(
        "import sys\n"
        "for i in range(30):\n"
        "    print(f'stderr line {i:02d}', file=sys.stderr)\n"
        "print('ValueError: boom', file=sys.stderr)\n"
        "sys.exit(1)\n")
    with pytest.raises(SystemExit) as exc:
        bench_pairs.bench(str(tree), "clutter", 65537, 1.0)
    message = str(exc.value.code)
    assert message.startswith("error: change run of clutter@65537 exited with code 1")
    assert message.endswith("ValueError: boom")
    assert "stderr line 11" in message and "stderr line 10" not in message


def test_finished_run_returns_its_result_and_info(tmp_path, bench_pairs):
    tree = tmp_path / "parent"
    (tree / "bench").mkdir(parents=True)
    (tree / "bench" / "run.py").write_text(
        "print('{\"info\": {\"seed\": 7}}')\n"
        "print('{\"correct\": true}')\n")
    assert bench_pairs.bench(str(tree), "sky", 7, 1.0) == ({"correct": True}, {"seed": 7})


def test_source_lines_count_the_python_files_under_src_and_scripts(tmp_path, bench_pairs):
    for rel, text in (("src/pkg/a.py", "a = 1\nb = 2\n"), ("src/pkg/sub/b.py", "\n\nc = 3"),
                      ("scripts/run.py", "print()\n"), ("src/pkg/notes.txt", "x\ny\n"),
                      ("bench/run.py", "x = 1\n"), ("tests/test_a.py", "x = 1\n")):
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_text(text)
    assert bench_pairs.source_lines(str(tmp_path)) == 2 + 3 + 1


def pair_runs(parent, change):
    """summarize's input: one run per value, op_norm_ms only."""
    return {side: [{"correct": True, "failed": 0, "attempted": 10,
                    "metrics": {"op_norm_ms": {"value": v}}} for v in values]
            for side, values in (("parent", parent), ("change", change))}


@pytest.mark.parametrize("parent, change, holds", [
    # 9/10 wins, medians 10.0 -> 8.0 apart by more than the parent IQR 0.375
    ([9.5, 10.0, 10.5, 9.75, 10.25, 10.0, 9.75, 10.25, 10.0, 10.0],
     [8.0, 8.0, 8.0, 8.0, 8.0, 8.0, 8.0, 8.0, 8.0, 11.0], True),
    # 8/10 wins: too few
    ([9.5, 10.0, 10.5, 9.75, 10.25, 10.0, 9.75, 10.25, 10.0, 10.0],
     [8.0, 8.0, 8.0, 8.0, 8.0, 8.0, 8.0, 8.0, 11.0, 11.0], False),
    # 10/10 wins, but the medians 10.0 -> 9.8 differ by less than the IQR
    ([9.5, 10.0, 10.5, 9.75, 10.25, 10.0, 9.75, 10.25, 10.0, 10.0],
     [9.4, 9.8, 10.4, 9.7, 10.2, 9.8, 9.7, 10.2, 9.8, 9.8], False),
    # 3/3 wins over three pairs, well apart
    ([10.0, 10.1, 9.9], [8.0, 8.1, 7.9], True),
    # a rise is never a gain
    ([8.0, 8.1, 7.9], [10.0, 10.1, 9.9], False),
])
def test_gain_rule_needs_nine_in_ten_wins_and_medians_apart_by_the_parent_iqr(
        bench_pairs, parent, change, holds):
    entry = bench_pairs.summarize(pair_runs(parent, change))["op_norm_ms"]
    assert entry["gain_holds"] is holds
    assert entry["change_wins"] == sum(c < p for p, c in zip(parent, change))


def commit_fake_bench(repo, value, log):
    """Commit a bench/run.py that logs the tree it runs in and reads `value`."""
    (repo / "bench").mkdir(exist_ok=True)
    (repo / "bench" / "run.py").write_text(
        "import json, os\n"
        f"with open({str(log)!r}, 'a') as fh:\n"
        "    fh.write(os.path.basename(os.getcwd()) + '\\n')\n"
        "prov = dict(python='3', numpy='2', blas='b', blas_threads=1, nproc=2)\n"
        "print(json.dumps({'info': {'provenance': prov}}))\n"
        "print(json.dumps({'correct': True, 'failed': 0, 'attempted': 5,\n"
        f"                  'metrics': {{'op_norm_ms': {{'value': {value}}}}}}}))\n")
    git = ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t"]
    subprocess.run(git + ["add", "-A"], check=True, capture_output=True)
    subprocess.run(git + ["commit", "-qm", f"bench reads {value}"], check=True,
                   capture_output=True)
    return subprocess.run(git + ["rev-parse", "HEAD"], check=True, capture_output=True,
                          text=True).stdout.strip()


# the trees run in order: the control pairs interleave with the pairs, and
# each kind alternates which side runs first
@pytest.mark.parametrize("control, order", [
    (0, "parent change change parent"),
    (3, "parent change parent control change parent control parent parent control")])
def test_control_pairs_run_the_parent_against_a_second_export_of_it(
        tmp_path, monkeypatch, bench_pairs, control, order):
    repo, log = tmp_path / "repo", tmp_path / "trees.log"
    repo.mkdir()
    subprocess.run(["git", "init", "-q", str(repo)], check=True)
    parent = commit_fake_bench(repo, 10.0, log)
    change = commit_fake_bench(repo, 8.0, log)
    monkeypatch.setattr(bench_pairs, "ROOT", str(repo))
    argv = ["--parent", parent, "--change", change, "--name", "t", "--what", "w",
            "--control", str(control), "sky@7:2"]
    assert bench_pairs.main(argv) == 0
    entry = json.loads((repo / "BENCH_t.json").read_text())["workloads"]["sky@7"]
    assert entry["op_norm_ms"]["parent"]["runs"] == [10.0, 10.0]
    assert entry["op_norm_ms"]["change"]["runs"] == [8.0, 8.0]
    assert log.read_text().split() == order.split()
    if not control:
        assert "control" not in entry
        return
    aa_entry = entry["control"]
    assert aa_entry["pairs"] == control and aa_entry["runs_correct"]
    assert aa_entry["op_norm_ms"]["parent"]["runs"] == [10.0] * control
    assert aa_entry["op_norm_ms"]["change"]["runs"] == [10.0] * control
    assert aa_entry["op_norm_ms"]["change_wins"] == 0
    assert aa_entry["op_norm_ms"]["gain_holds"] is False


@pytest.mark.parametrize("argv", [["--control", "-1", "sky@7:2"], ["sky@7:0"]])
def test_negative_control_and_zero_pairs_are_refused(bench_pairs, argv):
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", "HEAD", "--name", "t", "--what", "w", *argv])
    assert exc.value.code
