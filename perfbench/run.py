"""parisi-zero benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: lambda-sweep, oracle-crosscheck, cli-cold, and the diagnostic
family-scan (see BENCHMARK.json and perfbench/NOTES.md). Run from the repository root;
the package is imported from src/, nothing is installed.

With --trace 0 the run measures set-up three times (the timed run's
own and two set-up-only processes, each a fresh interpreter) and then
whole passes of operations, at least the workload's minimum, until S
seconds have passed; it reports the end-to-end metrics. With --trace 1
the tracer's wrappers are installed for exactly one pass and the run
reports the per-layer metrics. Either way the reference computation of
probe.py runs next to the passes.

Every run checks the package's outputs; a failed check exits 3 with
the reason on stderr and prints no result. Every metric is printed by
name with its unit; the last line of stdout is the result, and the full
record (provenance and sample counts included) is written to
.perfbench_out/<workload>-seed<N>-trace<T>.json.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPS = 3
# family-scan is a diagnostic workload, not in BENCHMARK.json: see NOTES.md
WORKLOADS = ("lambda-sweep", "oracle-crosscheck", "cli-cold", "family-scan")
WORKER_TIMEOUT = 170.0


def worker_env():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # one BLAS thread: all load comes from this process (and the CLI's pool)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(args, setup_only):
    """Start a worker; return (seconds from start to `ready`, result or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", str(OUT)]
    if args.smoke:
        cmd.append("--smoke")
    if setup_only:
        cmd.append("--setup-only")
    deadline = time.monotonic() + WORKER_TIMEOUT
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(),
                            stdout=subprocess.PIPE, text=True)
    try:
        setup_s, result = None, None
        for line in proc.stdout:
            if line == "ready\n" and setup_s is None:
                setup_s = time.perf_counter() - t0
            elif line.startswith("result "):
                result = json.loads(line[7:])
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or setup_s is None:
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return setup_s, result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny passes, for the benchmark's own smoke test")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "parisi_zero" / "__init__.py").is_file():
        print(f"run.py: no parisi_zero package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    setups = []
    if not args.trace:
        setups = [run_worker(args, setup_only=True)[0]
                  for _ in range(SETUP_REPS - 1)]
    setup_s, result = run_worker(args, setup_only=False)
    setups.append(setup_s)

    if args.trace:
        import layers
        metrics = {k: {"value": v, "unit": layers.UNITS[k]}
                   for k, v in result["per_layer"].items()}
        print(f"per-layer table, {args.workload}, seed {args.seed}:\n"
              + layers.table(result["per_layer"]))
    else:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"},
                   **{k: {"value": v["value"], "unit": v["unit"]}
                      for k, v in result["e2e"].items()}}
        result["setup_s"] = {"samples": setups, "n": len(setups)}
    shown = result["named"] if args.trace else {**metrics, **result["named"]}
    for name, m in shown.items():
        n = f"  (n={m['n']})" if "n" in m else ""
        print(f"{args.workload}: {name} = {m['value']:.6g} {m['unit']}{n}")
    record = {"correct": True, "attempted": result["attempted"],
              "failed": result["failed"], "metrics": metrics}
    full = {**record, "detail": result}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(full, indent=1))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
