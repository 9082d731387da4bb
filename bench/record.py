"""Record the reference outputs that run.py checks every pass against.

    python3 bench/record.py [workload ...]

Runs every pool input of each workload once traced (to count series terms)
and once untraced, requires the two to agree bitwise, and writes
bench/reference/<workload>.json.gz. Run it only at the commit whose outputs
are the reference; the files in this directory were recorded at the seed
commit.
"""

from __future__ import annotations

import gzip
import json
import subprocess
import sys

import run


def record(workload):
    import workloads

    run.WORK.mkdir(exist_ok=True)
    ops = {}
    for inputs in workloads.pool(workload, run.WORK):
        try:
            passes = [run.run_pass(workload, inputs, traced) for traced in (True, False)]
        finally:
            if hasattr(inputs, "close"):
                inputs.close()
        for rec, _, error in passes:
            if error:
                sys.exit(error)
        if not run.same_values(passes[0][0], passes[1][0]):
            sys.exit(f"{workload}: traced and untraced passes differ")
        for op in passes[0][0].ops:
            ops[op.key] = {"f": op.f, "m": op.m, "c": op.c, "s": op.s}
    return ops


def main(argv):
    run._import_library()
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True,
                            text=True).stdout.strip()
    for workload in argv or run.WORKLOADS:
        ops = record(workload)
        path = run.BENCH / "reference" / f"{workload}.json.gz"
        path.parent.mkdir(exist_ok=True)
        text = json.dumps({"commit": commit, "workload": workload, "ops": ops}, separators=(",", ":"))
        path.write_bytes(gzip.compress(text.encode() + b"\n", compresslevel=9, mtime=0))
        print(f"{workload}: {len(ops)} operations -> {path.relative_to(run.ROOT)}")


if __name__ == "__main__":
    main(sys.argv[1:])
