"""Run the parisi_zero CLI with the benchmark's tracer installed.

    python3 perfbench/clitrace.py OUT.json <cli arguments>

Writes the trace to OUT.json when the CLI returns. Pool workers forked
by `sweep --jobs N` start with an empty trace and each write
OUT.json.<pid> when they exit. PERFBENCH_OP names the benchmark
operation the spans belong to.
"""
import json
import multiprocessing.util
import os
import sys
import time

t0 = time.perf_counter()
from parisi_zero import cli  # noqa: E402
import_s = time.perf_counter() - t0

import tracer  # noqa: E402


def _dump(tr, path, **extra):
    with open(path, "w") as fh:
        json.dump({**tr.dump(), **extra}, fh)


def _in_pool_worker(tr):
    # runs in each forked worker after multiprocessing has cleared the
    # inherited finalizers, so the one registered here survives
    tr.reset()
    multiprocessing.util.Finalize(
        tr, _dump, args=(tr, f"{sys.argv[1]}.{os.getpid()}"), exitpriority=0)


def main():
    tr = tracer.Tracer()
    tr.install(tracer.package_modules())
    multiprocessing.util.register_after_fork(tr, _in_pool_worker)
    tr.begin_op(int(os.environ.get("PERFBENCH_OP", "0")), "cli:" + sys.argv[2])
    try:
        return cli.main(sys.argv[2:])
    finally:
        tr.end_op()
        _dump(tr, sys.argv[1], import_s=import_s)


if __name__ == "__main__":
    sys.exit(main())
