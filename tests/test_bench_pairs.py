import importlib.util
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
