import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_paired_cpu_runs_two_pairs_of_one_command():
    tool = ROOT / "tools" / "paired_cpu.py"
    argv = [sys.executable, str(tool), str(ROOT), str(ROOT), "--pairs", "2", "--", "analyze", "HwCZ|z\\", "--depth", "fast"]
    result = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert [line.split(" (")[0] for line in lines[:2]] == ["pair 1", "pair 2"]
    assert "(new first)" in lines[0] and "(old first)" in lines[1]
    assert re.search(r"cpu ratio new/old: median [0-9.]+, quartiles [0-9.]+-[0-9.]+; new lower in [012] of 2", result.stdout)
    assert re.search(r"peak_rss median: old [0-9.]+ MB, new [0-9.]+ MB", result.stdout)
    assert lines[-1] == "same stdout and exit status in 2 of 2 pairs"
