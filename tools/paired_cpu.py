#!/usr/bin/env python3
"""Time one ddcrit command from two source trees, in pairs run at once.

    python3 tools/paired_cpu.py OLD NEW [--pairs N] [--cpu C] -- ARGS...

OLD and NEW are source trees, each holding ``src/ddcrit``; both are
byte-compiled first. Each pair runs ``python -m ddcrit ARGS`` from both trees
at once, both pinned to one CPU (the highest this process may use, or
``--cpu``), so that they take turns on it and meet the same machine, as
``bench/run.py`` pairs the program with its frozen copy. The start order
alternates from pair to pair, NEW first in the first.

Every command is started through this script's launcher mode, a ``python -S``
process holding almost nothing, which forks the command and reaps it with
``os.wait4``: the CPU time and peak RSS are the command's own, not mixed
with this script's memory or with earlier children.

Prints one line per pair, then the median and quartiles of NEW's CPU time
over OLD's, in how many pairs NEW took less, both sides' median CPU time and
peak RSS, and in how many pairs both printed the same stdout with the same
exit status. Exit status: 0 when they did in every pair, 1 otherwise.
"""

# The launcher imports only these; the rest are imported in ``main``.
import os
import sys
import time


def launch(cpu: str, out_path: str, err_path: str, *argv: str) -> int:
    """Run argv on CPU number ``cpu`` with stdout and stderr sent to the two
    files; print its exit status, wall seconds, CPU seconds and peak RSS in KiB."""
    os.sched_setaffinity(0, {int(cpu)})  # inherited by the command
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            for fd, path in ((1, out_path), (2, err_path)):
                os.dup2(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644), fd)
            os.execvp(argv[0], argv)
        finally:
            os._exit(127)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    print(os.waitstatus_to_exitcode(status), wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss)
    return 0


def main(argv=None) -> int:
    import argparse
    import compileall
    import statistics
    import subprocess
    import tempfile
    from pathlib import Path

    def at_least_2(text: str) -> int:
        value = int(text)
        if value < 2:
            raise argparse.ArgumentTypeError(f"must be at least 2, got {value}")
        return value

    parser = argparse.ArgumentParser(description="Paired CPU time of one ddcrit command from two source trees.")
    parser.add_argument("old", type=Path, help="source tree holding src/ddcrit, the reference")
    parser.add_argument("new", type=Path, help="source tree holding src/ddcrit, the one timed against it")
    parser.add_argument("--pairs", type=at_least_2, default=11, help="pairs to run (default 11)")
    parser.add_argument("--cpu", type=int, default=max(os.sched_getaffinity(0)), help="CPU to pin both sides to")
    argv = sys.argv[1:] if argv is None else list(argv)
    split = argv.index("--") if "--" in argv else len(argv)
    args, command = parser.parse_args(argv[:split]), argv[split + 1 :]
    if not command:
        parser.error("no ddcrit arguments after --")
    sides = {"old": args.old.resolve(), "new": args.new.resolve()}
    for name, tree in sides.items():
        if not compileall.compile_dir(str(tree / "src" / "ddcrit"), quiet=1):
            parser.error(f"{name}: cannot byte-compile {tree / 'src' / 'ddcrit'}")

    results: dict[str, list[tuple[int, float, float, float, bytes]]] = {name: [] for name in sides}
    with tempfile.TemporaryDirectory(prefix="paired_cpu.") as work:
        for i in range(args.pairs):
            order = ("new", "old") if i % 2 == 0 else ("old", "new")
            procs = []
            for name in order:
                out, err = (os.path.join(work, f"{name}.{stream}") for stream in ("out", "err"))
                env = dict(os.environ, PYTHONPATH=str(sides[name] / "src"), PYTHONHASHSEED="0")
                launcher = [sys.executable, "-S", os.path.abspath(__file__), "--launch", str(args.cpu), out, err]
                procs.append(
                    subprocess.Popen(
                        launcher + [sys.executable, "-m", "ddcrit", *command], env=env, stdout=subprocess.PIPE, text=True
                    )
                )
            for name, proc in zip(order, procs):
                status, wall, cpu, rss_kib = proc.communicate()[0].split()
                stdout = Path(work, f"{name}.out").read_bytes()
                results[name].append((int(status), float(wall), float(cpu), int(rss_kib) / 1024, stdout))
            old, new = results["old"][-1], results["new"][-1]
            print(
                f"pair {i + 1} ({order[0]} first): old {old[2]:.4f} s {old[3]:.2f} MB, "
                f"new {new[2]:.4f} s {new[3]:.2f} MB, ratio {new[2] / old[2]:.4f}"
            )

    ratios = [new[2] / old[2] for old, new in zip(results["old"], results["new"])]
    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    lower = sum(ratio < 1 for ratio in ratios)
    same = sum(old[0] == new[0] and old[4] == new[4] for old, new in zip(results["old"], results["new"]))
    print(f"command: ddcrit {' '.join(command)}; {args.pairs} pairs at once on CPU {args.cpu}, start order alternating")
    print(f"cpu ratio new/old: median {median:.4f}, quartiles {q1:.4f}-{q3:.4f}; new lower in {lower} of {args.pairs}")
    for metric, index, unit in (("cpu", 2, "s"), ("peak_rss", 3, "MB")):
        old, new = (statistics.median(run[index] for run in results[name]) for name in ("old", "new"))
        print(f"{metric} median: old {old:.4g} {unit}, new {new:.4g} {unit}")
    print(f"same stdout and exit status in {same} of {args.pairs} pairs")
    return 0 if same == args.pairs else 1


if __name__ == "__main__":
    if sys.argv[1:2] == ["--launch"]:
        sys.exit(launch(*sys.argv[2:]))
    sys.exit(main())
