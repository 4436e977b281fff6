"""Smoke tests of the benchmark itself, on tiny inputs.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def smoke(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "bench/run.py"] and SPEC["paths"] == ["bench"]
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for key in ("end_to_end", "per_layer") for m in SPEC[key])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_end_to_end_metrics_print_with_units(workload):
    proc = smoke(workload, 0)
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for name, unit in run.END_TO_END.items():
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
        assert re.search(rf"^{re.escape(name)}: (median )?\S+ {re.escape(unit)}\b", proc.stdout, re.M)
    for side in run.SIDES:
        for name, unit in run.SAMPLED.items():
            assert re.search(rf"^{side.name} {re.escape(name)}: median \S+ {re.escape(unit)}\b", proc.stdout, re.M)
    assert "environment: nproc=" in proc.stdout


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_per_layer_metrics_print_with_units_and_repeat(workload):
    first, second = smoke(workload, 1), smoke(workload, 1)
    assert first.returncode == 0, first.stderr
    a, b = last_json(first.stdout), last_json(second.stdout)
    assert a["correct"] and set(a["metrics"]) == set(run.PER_LAYER)
    for name, unit in run.PER_LAYER.items():
        assert a["metrics"][name]["unit"] == unit
        assert re.search(rf"^{re.escape(name)}: \S+ {re.escape(unit)}$", first.stdout, re.M)
        if unit == "count":
            assert a["metrics"][name]["value"] == b["metrics"][name]["value"], name
    assert a["metrics"]["trace.coverage"]["value"] >= run.MIN_COVERAGE


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_corrupted_output_counts_as_failed_op(workload, monkeypatch, capsys):
    def corrupt(path):
        data = bytearray(path.read_bytes())
        at = data.index(b"1")  # a digit every output holds: an index, a count or a degree
        data[at:at + 1] = b"2"
        return bytes(data)

    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(run, "read_output", corrupt)
    status = run.main(["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "0", "--smoke"])
    result = last_json(capsys.readouterr().out)
    assert status == 1
    assert not result["correct"] and result["failed"] == result["attempted"] >= 1


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = smoke("scan-random", 0, cwd=tmp_path)
    assert proc.returncode != 0
    lines = proc.stdout.strip().splitlines()
    assert not lines or '"correct"' not in lines[-1]


def test_refuses_an_edited_reference(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    with open(tmp_path / "bench" / "frozen" / "ddcrit" / "graphs.py", "a", encoding="utf-8") as fh:
        fh.write("\n")
    proc = smoke("scan-cached", 0, cwd=tmp_path)
    assert proc.returncode == 2 and "reference package" in proc.stderr


def test_child_peak_rss_leaves_out_the_benchmarks_memory(tmp_path):
    ballast = bytearray(100 * 1024 * 1024)
    for i in range(0, len(ballast), 4096):
        ballast[i] = 1
    proc = subprocess.run(
        [sys.executable, "-S", str(run.LAUNCH), "60", str(run.run_cpu()), str(tmp_path / "out"), str(tmp_path / "err"), sys.executable, "-c", "pass"],
        capture_output=True,
        text=True,
        timeout=70,
    )
    status, _, _, maxrss_kib = proc.stdout.split()
    assert int(status) == 0 and int(maxrss_kib) < 50 * 1024
    del ballast


def test_lex_rank_follows_combinations_order():
    for n, k in ((5, 3), (9, 3), (9, 1)):
        ranks = [tracer.lex_rank(n, list(c)) for c in combinations(range(n), k)]
        assert ranks == list(range(comb(n, k)))


def test_oracle_reproduces_the_exceptional_graph_and_flags_a_wrong_record():
    record = {
        "input_index": 0,
        "graph6": "HwCZ|z\\",
        "report": {"gamma2": 4, "critical": True, "factor_critical": {"1": True, "3": False}},
    }
    assert oracle.cross_check(record) == []
    record["report"]["factor_critical"]["3"] = True
    assert len(oracle.cross_check(record)) == 1
