#!/usr/bin/env python3
"""Record the sha256 digest of every job report for the default seed.

    python3 perfbench/record_digests.py

Runs each job of each workload's pool once, checks it like the benchmark
does, and writes perfbench/digests.json.  Re-record only when a change is
meant to alter the reports.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys

import run


def main() -> int:
    sys.path[:0] = [str(run.SRC), str(run.HERE)]
    from gen import WORKLOADS
    table = {}
    failed = 0
    for workload in WORKLOADS:
        workdir = run.WORK / f"digests-{workload}"
        try:
            cli, _, jobs, paths = run.load_inputs(workload, run.DEFAULT_SEED, workdir)
            table[workload] = {}
            for job in jobs:
                _, code, data = run.run_job(cli, job, paths[job.key], str(workdir / "report.json"))
                reason = run.check(job, code, data)
                if reason is not None:
                    print(f"FAILED {workload} {job.key}: {reason}", file=sys.stderr)
                    failed += 1
                table[workload][job.key] = hashlib.sha256(data).hexdigest()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    if failed:
        return 1
    run.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
