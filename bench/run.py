#!/usr/bin/env python3
"""Benchmark of the ddcrit command line on three campaign workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Every workload is a closed loop with one client: one ``ddcrit`` command at a
time, each a child process with one worker, started from the checkout's
``src`` (no install step; the set-up byte-compiles the package).

* ``theorem1-n9``: ``ddcrit verify theorem1 --max-order 9``, the paper's main
  campaign. Exhaustive, so it ignores the seed. Most of its time is the
  pruned enumeration; the rest is full analysis of 1544 graphs.
* ``scan-random``: ``ddcrit scan FILE`` over 300 random labelled graphs on 8
  to 10 vertices per command. No enumeration; domination and criticality do
  most of the work.
* ``scan-cached``: ``ddcrit scan FILE --cache CACHE`` over 40 random classes
  written 20 times each as shuffled random relabellings (800 lines), with
  CACHE empty at the start of every command. Canonical labeling and
  connectivity dominate; one store per class beside a lookup on every line.

``scan-random`` is not listed in ``BENCHMARK.json``: a regression check
makes 22 runs per listed workload, and a third workload of 60-second runs
would not fit its time limit, while theorem1-n9 needs the whole 60 seconds for
three of its 20-second commands. It stays runnable, as the workload to
attribute domination and criticality work with ``--trace 1``.

Scan inputs come in numbered blocks (see ``corpus.py``); the seed picks the
blocks and their order, and ``reference.json`` holds, for every block, the
sha256 of the stdout printed by the commit that defined the benchmark.

``--trace 0`` runs one untimed smoke-size pair of commands to warm the page
cache, then, for about ``--seconds``, runs each command twice at once on one
CPU: from ``src``, and from ``bench/frozen``, a copy of the package as it was
when the benchmark was defined, each after a fresh set-up (see ``measure``).
It checks every output and reports the end-to-end metrics: ``cpu_ratio``, the
median of the program's CPU time over the reference's, and the program's
median ``peak_rss_mb`` and ``setup_s``, with CPU time and peak memory of each
child taken from ``os.wait4``. The raw wall time, CPU time and graphs per
second of both sides are printed as medians. ``--trace 1`` runs the seed's first command once as a child and
once in-process with every layer's public functions wrapped (``tracer.py``),
and reports per-layer metrics; its call counts repeat exactly for a given
seed. ``--smoke`` shrinks every input for the benchmark's own tests.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Details of every run, the
environment included, go to ``bench/.work/``. Exit status: 0 when every
output check passed, 1 when one failed, 2 when nothing could be measured
(for instance, when there is no ddcrit source beside the benchmark).
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import hashlib
import itertools
import json
import math
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional

import corpus

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "ddcrit"
# A frozen copy of the ddcrit package as it was when the benchmark was defined.
# Untraced runs time the program against it (see ``measure``).
FROZEN = Path(__file__).resolve().parent / "frozen"
# source_digest of the frozen package; a run refuses to measure against any other.
FROZEN_SHA256 = "8cff48dada916007c16847c338ed79a0e4dcd1af3e56b4350cebfdb9b091cf43"
WORK = ROOT / "bench" / ".work"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
LAUNCH = Path(__file__).resolve().parent / "launch.py"
INPUT = WORK / "input.g6"


@dataclass(frozen=True)
class Side:
    """One of the two packages a run times, with the files its commands write."""

    name: str
    source: Path  # the directory that holds the ddcrit package
    cache: Path
    stdout: Path
    stderr: Path


PROGRAM = Side("program", SRC, WORK / "cache.jsonl", WORK / "stdout.txt", WORK / "stderr.txt")
REFERENCE_SIDE = Side(
    "reference", FROZEN, WORK / "reference-cache.jsonl", WORK / "reference-stdout.txt", WORK / "reference-stderr.txt"
)
SIDES = (PROGRAM, REFERENCE_SIDE)

# A run must end within 180 s; no command starts that could not finish by this.
RUN_LIMIT_S = 170.0
# The first job of a run is set up this many times, so that setup_s is a
# median over several set-ups even when the run has only one pair of commands.
SETUP_REPEATS = 15
CROSS_CHECK_SAMPLE = 2  # scan records per command recomputed by brute force
MAX_PROBLEMS_SHOWN = 5

WORKLOADS = ("theorem1-n9", "scan-random", "scan-cached")

END_TO_END = {
    "cpu_ratio": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# Per-command samples of each side of an untraced run, printed and kept in the details.
SAMPLED = {"wall_s": "s", "cpu_s": "s", "graphs_per_s": "1/s", "peak_rss_mb": "MB"}

# Span names (see tracer.py) that report calls and self time under their own name.
TRACED_FUNCTIONS = (
    "enumeration.connected_graphs",
    "graphs.canonical_key",
    "graphs.vertex_connectivity",
    "domination.gamma_xk",
    "domination.all_minimum_dds",
    "criticality.criticality_report",
    "criticality.check_observation1",
    "matching.factor_critical",
    "constructions.is_in_family_H",
    "harness.analyze",
    "harness.compute_verdicts",
)

PER_LAYER = {
    **{f"{name}.{part}": unit for name in TRACED_FUNCTIONS for part, unit in (("calls", "count"), ("self_s", "s"))},
    "enumeration.connected_graphs.graphs": "count",
    "graphs.structure.self_s": "s",
    "graphs.codec.self_s": "s",
    "criticality.augmentations": "count",
    "criticality.memo_hit_ratio": "ratio",
    "matching.deletion_sets": "count",
    "harness.analyze.p50_ms": "ms",
    "harness.analyze.p99_ms": "ms",
    "harness.cache.lookups": "count",
    "harness.cache.hit_ratio": "ratio",
    "harness.cache.stores": "count",
    "harness.cache.store_s": "s",
    "cli.record_to_json.self_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}
MIN_COVERAGE = 0.9

# The paper's result: no violation at order 9 and exactly one exceptional class.
THEOREM1_EXPECTED = {
    9: {"examined": 1544, "passed": 18, "failed": 0, "not_applicable": 1526, "family_classes": ["HwCZ|z\\"]},
    7: {"examined": 23, "passed": 0, "failed": 0, "not_applicable": 23, "family_classes": []},
}


class SetupError(RuntimeError):
    pass


@dataclass
class Job:
    """One command of a workload, with what its output must look like."""

    workload: str
    label: str
    argv: list[str]
    block: Optional[int] = None
    smoke: bool = False
    digest: Optional[str] = None  # reference stdout sha256 (scans)
    expected: Optional[dict] = None  # verify summary fields (theorem1)
    lines: list[str] = field(default_factory=list)
    classes: list[int] = field(default_factory=list)

    @property
    def graphs(self) -> int:
        return self.expected["examined"] if self.expected else len(self.lines)

    def command(self, side: Side = PROGRAM) -> list[str]:
        """The ddcrit arguments on one side; each side has a cache file of its own."""
        if self.workload == "scan-cached":
            return self.argv + ["--cache", str(side.cache.relative_to(ROOT))]
        return self.argv


@dataclass
class ChildResult:
    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: bytes


# -- workloads -------------------------------------------------------------------


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def scan_job(workload: str, block: int, smoke: bool, digest: Optional[str]) -> Job:
    argv = ["scan", str(INPUT.relative_to(ROOT))]
    return Job(workload, f"block {block}", argv, block=block, smoke=smoke, digest=digest)


def jobs(workload: str, seed: int, smoke: bool) -> Iterator[Job]:
    """The commands of one run, in order; the stream does not end."""
    if workload == "theorem1-n9":
        order = 7 if smoke else 9
        argv = ["verify", "theorem1", "--max-order", str(order)]
        while True:
            yield Job(workload, f"max-order {order}", argv, smoke=smoke, expected=THEOREM1_EXPECTED[order])
    digests = load_reference()[workload]["smoke" if smoke else "full"]
    for block in itertools.cycle(corpus.block_order(seed)):
        yield scan_job(workload, block, smoke, digests[str(block)])


def set_up(job: Job, side: Side = PROGRAM) -> None:
    """Byte-compile the side's package, write the job's input, empty the side's cache file."""
    package = side.source / "ddcrit"
    if not compileall.compile_dir(str(package), force=True, quiet=1):
        raise SetupError(f"byte-compiling {package} failed")
    WORK.mkdir(parents=True, exist_ok=True)
    if job.workload == "scan-random":
        lines = corpus.SMOKE_RANDOM_LINES if job.smoke else corpus.RANDOM_LINES
        job.lines = corpus.random_block(job.block, lines)
    elif job.workload == "scan-cached":
        if job.smoke:
            shape = (corpus.SMOKE_CACHED_CLASSES, corpus.SMOKE_CACHED_COPIES)
        else:
            shape = (corpus.CACHED_CLASSES, corpus.CACHED_COPIES)
        job.lines, job.classes = corpus.cached_block(job.block, *shape)
        side.cache.write_bytes(b"")
    if job.lines:
        INPUT.write_text("".join(line + "\n" for line in job.lines), encoding="ascii")


# -- running a command -----------------------------------------------------------


def run_cpu() -> int:
    """The one CPU every command runs on."""
    return max(os.sched_getaffinity(0))


def start_child(job: Job, side: Side, timeout: float) -> subprocess.Popen:
    """Start ``python -m ddcrit`` on one side through ``launch.py``, which pins
    it to ``run_cpu()`` and reaps it with ``os.wait4``.

    ``wait4`` reports this child's own CPU time and peak RSS; the
    ``RUSAGE_CHILDREN`` maximum would mix in every earlier child. The small
    launcher keeps the benchmark's own memory out of the child's peak RSS.
    """
    env = dict(os.environ, PYTHONPATH=str(side.source), PYTHONHASHSEED="0")
    command = [sys.executable, "-m", "ddcrit", *job.command(side)]
    launcher = [sys.executable, "-S", str(LAUNCH), str(max(timeout, 1.0)), str(run_cpu()), str(side.stdout), str(side.stderr)]
    return subprocess.Popen(launcher + command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)


def finish_child(proc: subprocess.Popen, side: Side) -> ChildResult:
    report, _ = proc.communicate()
    try:
        status, wall, cpu, maxrss_kib = report.split()
        return ChildResult(int(status), float(wall), float(cpu), int(maxrss_kib) / 1024.0, read_output(side.stdout))
    except ValueError:
        raise SetupError(f"launcher exited with {proc.returncode} and reported {report!r}") from None


def run_children(job: Job, sides: tuple[Side, ...], timeout: float) -> list[ChildResult]:
    """Run the job's command on each side at once, all on one CPU, and wait for every one."""
    procs = []
    try:
        for side in sides:
            procs.append(start_child(job, side, timeout))
        return [finish_child(proc, side) for proc, side in zip(procs, sides)]
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.terminate()  # the launcher kills the command and reaps it
            proc.wait()


def run_child(job: Job, timeout: float, side: Side = PROGRAM) -> ChildResult:
    return run_children(job, (side,), timeout)[0]


def read_output(path: Path) -> bytes:
    return path.read_bytes()


# -- output checks ---------------------------------------------------------------


def check_output(job: Job, returncode: int, stdout: bytes, side: Side = PROGRAM) -> tuple[list[str], list[dict]]:
    """Problems with one command's output, and its parsed scan records."""
    problems = [] if returncode == 0 else [f"exit status {returncode}, stderr in {side.stderr.relative_to(ROOT)}"]
    if job.workload == "theorem1-n9":
        return problems + check_verify(job, stdout), []
    scan_problems, records = check_scan(job, stdout, side)
    return problems + scan_problems, records


def check_verify(job: Job, stdout: bytes) -> list[str]:
    problems: list[str] = []
    lines = stdout.decode("utf-8", "replace").splitlines()
    if len(lines) != 1:
        return problems + [f"{len(lines)} stdout lines, expected one summary"]
    try:
        summary = json.loads(lines[0])
    except ValueError:
        summary = None
    if not isinstance(summary, dict):
        return problems + ["summary is not a JSON object"]
    got = {key: summary.get(key) for key in ("examined", "passed", "failed", "not_applicable")}
    extras = summary.get("extras")
    got["family_classes"] = extras.get("family_classes") if isinstance(extras, dict) else None
    for key, want in job.expected.items():
        if got[key] != want:
            problems.append(f"{key} is {got[key]!r}, expected {want!r}")
    if summary.get("check") != "theorem1" or summary.get("violations") != []:
        problems.append("summary names another check or lists violations")
    return problems


def check_scan(job: Job, stdout: bytes, side: Side) -> tuple[list[str], list[dict]]:
    problems = []
    digest = hashlib.sha256(stdout).hexdigest()
    if digest != job.digest:
        problems.append(f"stdout sha256 {digest[:16]} differs from the reference {str(job.digest)[:16]}")
    out_lines = stdout.decode("utf-8", "replace").splitlines()
    if len(out_lines) != len(job.lines):
        problems.append(f"{len(out_lines)} records for {len(job.lines)} input lines")
    records = []
    for index, (line, text) in enumerate(zip(out_lines, job.lines)):
        try:
            record = json.loads(line)
            wrong = record_problems(record, index, text)
        except (ValueError, KeyError, TypeError, AttributeError):
            record, wrong = None, [f"record {index} is not a full scan record"]
        problems += wrong
        if not wrong:
            records.append(record)
    if job.workload == "scan-cached" and len(records) == len(job.lines):
        problems += check_cache(job, records, side.cache)
    return problems, records


def record_problems(record: dict, index: int, text: str) -> list[str]:
    problems = []
    if record["input_index"] != index or record["graph6"] != text:
        problems.append(f"record {index} is out of order or names another input")
    if "error" in record or record["report"]["depth"] != "full":
        problems.append(f"record {index} is an error or not a full report")
    failing = [name for name, verdict in record["verdicts"].items() if verdict["status"] == "fail"]
    if failing:
        problems.append(f"record {index} fails {failing}")
    return problems


def check_cache(job: Job, records: list[dict], cache: Path) -> list[str]:
    """One cache line per class seen, and one report shared by every copy of a class."""
    problems = []
    try:
        keys = [json.loads(line)["key"] for line in cache.read_text(encoding="ascii").splitlines() if line.strip()]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"cache file unreadable: {exc}"]
    ids = {(record.get("report") or {}).get("canonical_id") for record in records}
    if len(keys) != len(set(keys)) or set(keys) != ids:
        problems.append(f"{len(keys)} cache lines ({len(set(keys))} keys) for {len(ids)} classes")
    first: dict[int, dict] = {}
    for record, cls in zip(records, job.classes):
        if record.get("report") != first.setdefault(cls, record.get("report")):
            problems.append(f"copies of class {cls} got different reports")
            break
    return problems


def cross_check(job: Job, records: list[dict], seed: int) -> list[str]:
    """Recompute a seeded sample of scan records by brute force."""
    import oracle

    if not records:
        return []
    rng = random.Random(f"{seed}/{job.block}")
    sample = rng.sample(records, min(CROSS_CHECK_SAMPLE, len(records)))
    problems = []
    for record in sample:
        try:
            problems += oracle.cross_check(record)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            problems.append(f"input {record['input_index']}: record unfit for the brute force: {exc!r}")
    return problems


def report_problems(job: Job, problems: list[str]) -> None:
    for problem in problems[:MAX_PROBLEMS_SHOWN]:
        print(f"FAILED {job.workload} {job.label}: {problem}", file=sys.stderr)
    if len(problems) > MAX_PROBLEMS_SHOWN:
        print(f"FAILED {job.workload} {job.label}: {len(problems) - MAX_PROBLEMS_SHOWN} more", file=sys.stderr)


# -- statistics and environment ---------------------------------------------------


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def describe(name: str, values: list[float], unit: str) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    n = len(values)
    text = f"{name}: median {statistics.median(values):.6g} {unit}"
    tail = next((p for p in (99.9, 99, 95, 90, 75) if n * (1 - p / 100) >= 10), None)
    if tail is None:
        return f"{text}, n={n} (fewer than 40 samples: no tail percentile)"
    return f"{text}, p{tail:g} {percentile(values, tail):.6g} {unit}, n={n}"


def cpu_model() -> Optional[str]:
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def git_commit() -> Optional[str]:
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(package: Path = PACKAGE) -> str:
    """sha256 over a package's sources, naming the code when there is no commit."""
    h = hashlib.sha256()
    for path in sorted(package.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(seed: int, smoke: bool) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
        "smoke": smoke,
    }


# -- the two kinds of run ---------------------------------------------------------


def warm_up(workload: str, seed: int) -> None:
    """One untimed, unchecked smoke-size pair of commands, so that the timed
    ones find the interpreter and both packages in the page cache."""
    job = next(jobs(workload, seed, smoke=True))
    for side in SIDES:
        set_up(job, side)
    run_children(job, SIDES, RUN_LIMIT_S / 8)


def measure(workload: str, seed: int, seconds: float, smoke: bool) -> dict:
    """Untraced run: time the program against the frozen reference for about ``seconds``.

    Each job's command runs on both sides at once, both pinned to one CPU, so
    that they take turns on it in slices of a few milliseconds and meet the
    same machine: on a shared host whose speed drifts by a fifth or more within
    a minute, the raw times of two runs of the same code differ by more than
    any regression bound could allow, while the ratio of the two sides' CPU
    times stays within a fraction of a percent. ``cpu_ratio`` is the median
    over the run's pairs of the program's CPU time over the reference's, so it
    is 1 at the commit that defined the benchmark and falls when the program
    gets faster. The raw times of both sides are printed and kept in the
    details; they are times under that sharing.

    A pair starts while, at the pace of the one before, it would end within
    ``seconds``. Runs then end up to one pair short of ``seconds``; a run of
    theorem1-n9 is one pair of 35 to 50 s, which keeps every run well inside
    its time limit.
    """
    samples: dict[str, dict[str, list[float]]] = {side.name: {name: [] for name in SAMPLED} for side in SIDES}
    ratios: list[float] = []
    setups: list[float] = []
    ops = failed = 0
    labels = []
    run_start = time.perf_counter()
    warm_up(workload, seed)
    for job in jobs(workload, seed, smoke):
        for _ in range(SETUP_REPEATS if not labels else 1):
            t0 = time.perf_counter()
            set_up(job)
            setups.append(time.perf_counter() - t0)
        set_up(job, REFERENCE_SIDE)
        labels.append(job.label)
        children = run_children(job, SIDES, RUN_LIMIT_S - (time.perf_counter() - run_start))
        for side, child in zip(SIDES, children):
            ops += 1
            problems, records = check_output(job, child.returncode, child.stdout, side)
            if side is PROGRAM:
                problems += cross_check(job, records, seed)
            if problems:
                failed += 1
                report_problems(job, [f"{side.name}: {problem}" for problem in problems])
            for name, value in (
                ("wall_s", child.wall_s),
                ("cpu_s", child.cpu_s),
                ("graphs_per_s", job.graphs / child.wall_s),
                ("peak_rss_mb", child.peak_rss_mb),
            ):
                samples[side.name][name].append(value)
        program, reference = children
        ratios.append(program.cpu_s / reference.cpu_s)
        pair_s = max(child.wall_s for child in children)
        elapsed = time.perf_counter() - run_start
        if elapsed + pair_s > seconds or elapsed + 1.25 * pair_s > RUN_LIMIT_S:
            break
    print(f"command: ddcrit {' '.join(job.command())}; {job.graphs} graphs each; {', '.join(labels)}")
    print(f"each pair ran at once on CPU {run_cpu()}; the times below are under that sharing")
    for side in SIDES:
        for name, unit in SAMPLED.items():
            print(f"{side.name} " + describe(name, samples[side.name][name], unit))
    metrics = {
        "cpu_ratio": statistics.median(ratios),
        "peak_rss_mb": statistics.median(samples[PROGRAM.name]["peak_rss_mb"]),
        "setup_s": statistics.median(setups),
    }
    print(f"cpu_ratio: {metrics['cpu_ratio']:.6g} ratio (median over {len(ratios)} pairs)")
    print(describe("peak_rss_mb", samples[PROGRAM.name]["peak_rss_mb"], "MB") + " (program)")
    print(describe("setup_s", setups, "s"))
    print(f"failed_ops: {failed} of ops: {ops}")
    details = dict(samples, cpu_ratio=ratios, setup_s=setups)
    return {"ops": ops, "failed": failed, "metrics": metrics, "samples": details, "commands": labels}


def trace(workload: str, seed: int, smoke: bool) -> dict:
    """Traced run: the seed's first command as a child, then in-process under the tracer."""
    import tracer as tracing

    job = next(jobs(workload, seed, smoke))
    set_up(job)
    child = run_child(job, RUN_LIMIT_S / 2)
    problems, records = check_output(job, child.returncode, child.stdout)
    problems += cross_check(job, records, seed)
    failed = int(bool(problems))
    report_problems(job, problems)

    set_up(job)
    import ddcrit.cli

    t = tracing.Tracer()
    t.install()
    try:
        main = t.wrap("cli.main", ddcrit.cli.main)
        with open(PROGRAM.stdout, "w", encoding="utf-8", newline="\n") as out, open(PROGRAM.stderr, "w", encoding="utf-8") as err:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter()
                returncode = main(job.command())
                traced_wall = time.perf_counter() - start
    finally:
        t.uninstall()
    summary = t.summary(root=0)
    problems, _ = check_output(job, returncode, read_output(PROGRAM.stdout))
    if summary["coverage"] < MIN_COVERAGE:
        problems.append(f"trace.coverage {summary['coverage']:.3f} is below {MIN_COVERAGE}")
    report_problems(job, problems)
    failed += bool(problems)

    calls, self_s, inclusive, counts = summary["calls"], summary["self_s"], summary["inclusive"], t.counts
    metrics: dict[str, float] = {}
    for name in TRACED_FUNCTIONS:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.self_s"] = self_s[name]
    memo = t.memo.cache_info()
    analyze = inclusive.get("harness.analyze", [0.0])
    lookups = calls["harness.cache.lookup"]
    metrics.update(
        {
            "enumeration.connected_graphs.graphs": counts["enumeration.connected_graphs.graphs"],
            "graphs.structure.self_s": sum(self_s[f"graphs.structure.{name}"] for name in tracing.STRUCTURE),
            "graphs.codec.self_s": self_s["graphs.codec.from_graph6"],
            "criticality.augmentations": counts["criticality.augmentations"],
            "criticality.memo_hit_ratio": memo.hits / (memo.hits + memo.misses) if memo.hits + memo.misses else 0.0,
            "matching.deletion_sets": counts["matching.deletion_sets"],
            "harness.analyze.p50_ms": percentile(analyze, 50) * 1000.0,
            "harness.analyze.p99_ms": percentile(analyze, 99) * 1000.0,
            "harness.cache.lookups": lookups,
            "harness.cache.hit_ratio": counts["harness.cache.hits"] / lookups if lookups else 0.0,
            "harness.cache.stores": calls["harness.cache.store"],
            "harness.cache.store_s": sum(inclusive.get("harness.cache.store", [])),
            "cli.record_to_json.self_s": self_s["cli.record_to_json"],
            "trace.overhead_s": traced_wall - child.wall_s,
            "trace.coverage": summary["coverage"],
        }
    )
    origin = t.spans[0][1]
    with open(WORK / f"spans-{workload}.jsonl", "w", encoding="utf-8") as fh:
        for name, start, end, parent in t.spans:
            fh.write(json.dumps([name, start - origin, end - origin, parent]) + "\n")
    print(f"command: ddcrit {' '.join(job.command())}; {job.graphs} graphs; {job.label}")
    print(f"untraced wall {child.wall_s:.6g} s, traced wall {traced_wall:.6g} s, {len(t.spans)} spans")
    for name, unit in PER_LAYER.items():
        print(f"{name}: {metrics[name]:.6g} {unit}")
    print(f"failed_ops: {failed} of ops: 2")
    return {"ops": 2, "failed": failed, "metrics": metrics, "commands": [job.label]}


# -- entry point --------------------------------------------------------------------


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (PACKAGE / "cli.py").is_file():
        print(f"error: no ddcrit source at {PACKAGE}", file=sys.stderr)
        return 2
    if source_digest(FROZEN / "ddcrit") != FROZEN_SHA256:
        print(f"error: the reference package in {FROZEN} is not the one the benchmark was defined with", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    env = environment(args.seed, args.smoke)
    print("environment: " + " ".join(f"{key}={value}" for key, value in env.items()))
    try:
        if args.trace:
            outcome = trace(args.workload, args.seed, args.smoke)
        else:
            outcome = measure(args.workload, args.seed, args.seconds, args.smoke)
    except (SetupError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": outcome["failed"] == 0,
        "attempted": outcome["ops"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": outcome["metrics"][name], "unit": unit} for name, unit in units.items()},
    }
    details = dict(result, environment=env, workload=args.workload, commands=outcome["commands"])
    if "samples" in outcome:
        details["samples"] = outcome["samples"]
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    with open(WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
