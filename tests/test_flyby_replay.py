import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_sixty_frame_flyby_prints_its_summary_and_first_alert():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "flyby_replay.py"),
                           "--frames", "60"], capture_output=True, text=True, env=env,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "replayed 60 frames, 30% detection dropout"
    assert [line.split(" = ")[0].strip() for line in lines[1:5]] == [
        "multi_by_detection", "tracker_assisted", "single", "none"]
    assert sum(int(line.split(" = ")[1]) for line in lines[1:5]) == 60
    assert lines[5].startswith("first separation alert: frame 51 ")
