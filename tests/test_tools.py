import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

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


def _paired_scan(old, new, source, *cache_args):
    tool = ROOT / "tools" / "paired_cpu.py"
    argv = [sys.executable, str(tool), str(old), str(new), "--pairs", "2", "--", "scan", str(source), *cache_args]
    return subprocess.run(argv, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("joined", [False, True], ids=["--cache PATH", "--cache=PATH"])
def test_paired_cpu_gives_each_side_and_pair_a_fresh_cache_of_its_own(joined, tmp_path):
    source, shared = tmp_path / "in.g6", tmp_path / "shared.jsonl"
    source.write_text("HwCZ|z\\\nHhCK[rM\nHwCZ|z\\\n")  # two copies of one class beside another
    result = _paired_scan(ROOT, ROOT, source, *([f"--cache={shared}"] if joined else ["--cache", str(shared)]))
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[-2:] == ["same stdout and exit status in 2 of 2 pairs", "same cache file in 2 of 2 pairs"]
    assert not shared.exists()


def test_paired_cpu_fails_when_the_cache_files_differ(tmp_path):
    # a tree whose cache lines carry another version prints the same records
    other = tmp_path / "other"
    shutil.copytree(ROOT / "src", other / "src", ignore=shutil.ignore_patterns("__pycache__"))
    harness = other / "src" / "ddcrit" / "harness.py"
    text = harness.read_text()
    assert text.count("    VERSION = 1\n") == 1
    harness.write_text(text.replace("    VERSION = 1\n", "    VERSION = 2\n"))
    source = tmp_path / "in.g6"
    source.write_text("HwCZ|z\\\n")
    result = _paired_scan(ROOT, other, source, "--cache", str(tmp_path / "c.jsonl"))
    assert result.returncode == 1, result.stderr
    lines = result.stdout.splitlines()
    assert lines[-2:] == ["same stdout and exit status in 2 of 2 pairs", "same cache file in 0 of 2 pairs"]
