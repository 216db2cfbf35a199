"""One benchmark process: import, set up, run timed passes, check, report.

Started by run.py in a fresh interpreter. It prints `ready` once set-up
is done (run.py times set-up from process start to that line) and, at
the end, one line `result <json>`. With --setup-only it stops after
`ready`. A failed output check prints the reason to stderr and exits 3
without a result.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import layers
import probe
import tracer as tracing

ROOT = Path(__file__).resolve().parents[1]


def tail_percentile(n):
    """The highest listed percentile with at least ten samples beyond it."""
    for q in (99.9, 99, 98, 95, 90):
        if n * (1 - q / 100) >= 10:
            return q
    return None


def iqm(xs):
    """Interquartile mean: the mean of the middle half of the samples."""
    xs = sorted(xs)
    k = len(xs) // 4
    mid = xs[k:len(xs) - k]
    return sum(mid) / len(mid)


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed):
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu_model(), "git_commit": git_commit(), "seed": seed,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def named_metrics(name, tally):
    """The workload's own end-to-end metrics (unbounded), with sample counts."""
    t = tally
    op_s = [s for _, s, _, _ in t.ops]
    busy = sum(op_s)
    frac = {"value": sum(t.unresolved.values()) / t.attempted, "unit": "ratio",
            "n": t.attempted}
    out = {}
    if name == "family-scan":
        out["families_per_s"] = {"value": len(op_s) / busy, "unit": "families/s",
                                 "n": len(op_s)}
        out["unresolved_frac"] = frac
    elif name == "lambda-sweep":
        ms = [1e3 * s for s in op_s]
        out["points_per_s"] = {"value": len(ms) / busy, "unit": "classifications/s",
                               "n": len(ms)}
        out["classify_ms.p50"] = {"value": statistics.median(ms), "unit": "ms",
                                  "n": len(ms)}
        q = tail_percentile(len(ms))
        if q is not None:
            import numpy
            out[f"classify_ms.p{q:g}"] = {"value": float(numpy.percentile(ms, q)),
                                          "unit": "ms", "n": len(ms)}
        out["unresolved_frac"] = frac
        out["band_disagree_frac"] = {"value": t.disagree / max(t.certified, 1),
                                     "unit": "ratio", "n": t.certified}
    elif name == "oracle-crosscheck":
        out["oracle_points_per_min"] = {"value": 60 * len(op_s) / busy,
                                        "unit": "points/min", "n": len(op_s)}
    elif name == "cli-cold":
        for kind in ("classify", "sweep"):
            xs = t.extra.get(f"cli_{kind}_s", [])
            out[f"cli_{kind}_s.p50"] = {"value": statistics.median(xs),
                                        "unit": "s", "n": len(xs)}
        out["unresolved_frac"] = frac
    return out


def main():
    t_start = time.perf_counter()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out-dir", type=Path, required=True)
    args = ap.parse_args()

    t0 = time.perf_counter()
    import parisi_zero  # noqa: F401  (the import is the measured set-up)
    import_s = time.perf_counter() - t0
    import workloads

    tr = None
    if args.trace:
        tr = tracing.Tracer()
        tr.install(tracing.package_modules())
    wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke, tr,
                                            args.out_dir)
    wl.setup()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    # the reference runs next to the timed passes, traced ones too, so
    # report.py can set the two runs' costs side by side
    sampler = probe.Sampler()
    passes = 0
    try:
        with sampler:
            t_run = time.perf_counter()
            deadline = t_run + args.seconds
            while True:
                wl.run_pass(passes)
                passes += 1
                if tr or (passes >= wl.MIN_PASSES
                          and time.perf_counter() >= deadline):
                    break
            run_s = time.perf_counter() - t_run
        if tr:
            tr.uninstall()
        wl.finish()
    except workloads.CheckFailed as exc:
        print(f"output check failed: {exc}", file=sys.stderr)
        return 3

    t = wl.tally
    wall_ms = [1e3 * s for _, s, _, _ in t.ops]
    cpu_ms = [1e3 * c for _, _, c, _ in t.ops]
    # each operation in units of the reference call made next to it
    cost = [c / sampler.cpu_at(t0, t0 + s) for _, s, c, t0 in t.ops]
    named = {"op_wall_ms.iqm": {"value": iqm(wall_ms), "unit": "ms",
                                "n": len(wall_ms)},
             "op_cpu_ms.iqm": {"value": iqm(cpu_ms), "unit": "ms",
                               "n": len(cpu_ms)},
             **named_metrics(args.workload, t)}
    ref_ms = 1e3 * sampler.mean_cpu()
    named["reference_cpu_ms.mean"] = {"value": ref_ms, "unit": "ms",
                                      "n": len(sampler.samples)}
    e2e = {}
    if not tr:
        e2e["op_cost.iqm"] = {"value": iqm(cost), "unit": "ref",
                              "n": len(cost)}
    result = {
        "workload": args.workload, "trace": args.trace,
        "attempted": t.attempted, "failed": t.failed,
        "passes": passes, "run_s": run_s,
        "worker_s": time.perf_counter() - t_start,
        "e2e": e2e,
        "named": named,
        "op_s": [s for _, s, _, _ in t.ops],
        "op_cpu_s": [c for _, _, c, _ in t.ops],
        "op_cost": cost,
        "reference_cpu_s": [c for _, _, c in sampler.samples],
        "unresolved": t.unresolved,
        "provenance": provenance(args.seed),
    }
    if tr:
        dumps = [tr.dump()] + layers.load_dumps(t.extra.get("clitrace", []))
        trace = layers.merge(dumps)
        imports = [import_s] + [d["import_s"] for d in dumps if "import_s" in d]
        result["per_layer"] = layers.per_layer(trace, t, imports)
        stem = f"{args.workload}-seed{args.seed}-trace"
        (args.out_dir / f"{stem}-spans.json").write_text(json.dumps(trace))
    print("result " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
