#!/usr/bin/env python3
"""Write reference.json: the stdout sha256 of every scan block, full and smoke size.

The benchmark requires later commits to reproduce these digests, so they are
taken once, at the commit that defined the benchmark:

    python3 bench/make_reference.py

A block whose output fails any other check (exit status, one record per
line, no error or fail verdict, the cache invariants) aborts the script.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import corpus
import run


def main() -> int:
    os.chdir(run.ROOT)
    reference = {"commit": run.git_commit(), "source_sha256": run.source_digest()}
    for workload in ("scan-random", "scan-cached"):
        reference[workload] = {}
        for mode, smoke in (("full", False), ("smoke", True)):
            digests = reference[workload][mode] = {}
            for block in range(corpus.POOL_BLOCKS):
                job = run.scan_job(workload, block, smoke, digest=None)
                run.set_up(job)
                child = run.run_child(job, timeout=600.0)
                job.digest = hashlib.sha256(child.stdout).hexdigest()
                problems, _ = run.check_output(job, child.returncode, child.stdout)
                if problems:
                    print(f"{workload} {mode} block {block}: {problems[:3]}", file=sys.stderr)
                    return 1
                digests[str(block)] = job.digest
                print(f"{workload} {mode} block {block}: {child.wall_s:.2f} s {job.digest[:16]}", flush=True)
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
