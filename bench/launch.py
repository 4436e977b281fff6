"""Run one command from a small process and report the command's own resource use.

    python3 -S bench/launch.py TIMEOUT CPU STDOUT STDERR ARGV...

Linux counts the memory image a child is forked with towards the child's
``ru_maxrss``, so a command forked straight from the benchmark, which holds
parsed outputs, would report at least the benchmark's own size, and a drop in
the command's memory below that would not show. This launcher holds almost
nothing. It runs ARGV pinned to CPU number CPU, with stdout and stderr sent
to the two files, kills it after TIMEOUT seconds, reaps it with ``os.wait4``
and prints one line: exit status, wall seconds from fork to reaping, user
plus system CPU seconds, and peak RSS in KiB. On SIGTERM it kills the command and still reaps it.
"""

import os
import signal
import sys
import time


def main() -> int:
    timeout, cpu, out_path, err_path, *argv = sys.argv[1:]
    os.sched_setaffinity(0, {int(cpu)})  # inherited by the command
    child: list[int] = []
    stop: list[int] = []

    def kill(signum, frame):
        stop.append(signum)
        if child:
            os.kill(child[0], signal.SIGKILL)

    signal.signal(signal.SIGALRM, kill)
    signal.signal(signal.SIGTERM, kill)
    signal.setitimer(signal.ITIMER_REAL, float(timeout))
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            for fd, path in ((1, out_path), (2, err_path)):
                os.dup2(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644), fd)
            os.execvp(argv[0], argv)
        finally:
            os._exit(127)
    child.append(pid)
    if stop:  # a signal came before the child's pid was known
        os.kill(pid, signal.SIGKILL)
    _, status, usage = os.wait4(pid, 0)  # retried after a handler runs
    wall = time.perf_counter() - start
    signal.setitimer(signal.ITIMER_REAL, 0)
    print(os.waitstatus_to_exitcode(status), wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss)
    return 0


if __name__ == "__main__":
    sys.exit(main())
