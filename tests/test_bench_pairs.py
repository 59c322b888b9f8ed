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
