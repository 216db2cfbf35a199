"""The traced run: per-layer tables, tracing overhead, count repeatability.

    python3 perfbench/report.py [--seed N] [--seconds S] [WORKLOAD ...]

For each workload (all four by default) this runs run.py once untraced
and twice traced, with the same seed, one after another. It prints the
per-layer table of the first traced run, the tracing overhead, and
every count that differs between the two traced runs (there should be
none). The overhead compares the summed CPU time of the operations both
runs made, each in units of the reference call made next to it: a traced run
makes exactly one pass, and with the same seed its operations are the
first ones of the untraced run.

The whole report, provenance included, is written to
.perfbench_out/report-seed<N>.json.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import layers
from run import OUT, ROOT, WORKLOADS


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(Path(__file__).with_name("run.py")),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return json.loads(
        (OUT / f"{workload}-seed{seed}-trace{trace}.json").read_text())


def overhead(plain, traced):
    """Traced against untraced cost of the operations both runs made, each
    in units of the reference call made next to it (see probe.py)."""
    a, b = plain["detail"]["op_cost"], traced["detail"]["op_cost"]
    n = min(len(a), len(b))
    return sum(b[:n]) / sum(a[:n]) - 1.0, n


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    args = ap.parse_args()
    report, mismatched = {}, 0
    for w in args.workloads:
        plain = run(w, args.seed, args.seconds, 0)
        first, second = (run(w, args.seed, args.seconds, 1) for _ in range(2))
        m1, m2 = (r["detail"]["per_layer"] for r in (first, second))
        diff = {k: (m1[k], m2[k]) for k, unit in layers.PER_LAYER
                if unit == "count" and m1[k] != m2[k]}
        mismatched += len(diff)
        frac, n = overhead(plain, first)
        print(f"== {w}, seed {args.seed}\n{layers.table(m1)}")
        print(f"  tracing overhead: {100 * frac:+.2f}% over the {n} operations "
              f"both runs made")
        counts = sum(unit == "count" for _, unit in layers.PER_LAYER)
        print(f"  counts equal in both traced runs: {counts - len(diff)}/{counts}"
              + "".join(f"\n    differs: {k} {a} vs {b}"
                        for k, (a, b) in diff.items()))
        report[w] = {"per_layer": m1, "per_layer_repeat": m2,
                     "count_mismatches": diff, "overhead": frac,
                     "overhead_ops": n, "untraced": plain["detail"],
                     "traced": first["detail"]}
    (OUT / f"report-seed{args.seed}.json").write_text(json.dumps(report, indent=1))
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
