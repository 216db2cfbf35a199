"""Per-layer metrics from a trace, and the per-layer table.

`PER_LAYER` lists every per-layer metric with its unit; a traced run
reports all of them on every workload, so a layer a workload bypasses
reads 0 there. That zero is a finding too: it shows which layers each
workload leaves alone.
"""
from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

PHASES = ("RS", "OneRSB", "TwoRSB", "TwoFRSB", "OneFRSB", "FRSB")
REGIMES = ("FourPhase", "TwoPhase", "P2Family", "AllOneRSB")
REASONS = ("no_plateau_point", "density_not_nondecreasing",
           "full_density_not_increasing", "failed_certification",
           "no_construction", "exception", "other")

PER_LAYER = (
    [("mixture.xi_deriv.calls", "count"), ("mixture.xi_deriv.busy_s", "s"),
     ("criteria.landmarks.calls", "count"), ("criteria.landmarks.busy_s", "s"),
     ("criteria.landmarks.ms.p50", "ms"),
     ("criteria.solve_z.calls", "count"), ("criteria.solve_z.busy_s", "s"),
     ("criteria.eval_h.calls", "count"), ("criteria.psi.calls", "count"),
     ("phases.boundaries.cold_solves", "count")]
    + [(f"phases.boundaries.{r}.s", "s") for r in REGIMES]
    + [("phases.boundaries.landmarks_per_solve", "count"),
       ("phases.boundaries.self_s", "s"),
       ("phases.classify.calls", "count"),
       ("phases.classify.self_ms.p50", "ms")]
    + [(f"phases.classify.{ph}.ms.p50", "ms") for ph in PHASES[1:]]
    + [(f"phases.unresolved.{r}", "count") for r in REASONS]
    + [("phases.band_disagree", "count"),
       ("measure.build.calls", "count"), ("measure.build.busy_s", "s"),
       ("energy.verify_parisi.calls", "count"),
       ("energy.verify_parisi.ms.p50", "ms"),
       ("energy.verify_parisi.busy_s", "s"),
       ("energy.cs_energy.ms.p50", "ms"), ("energy.cs_energy.busy_s", "s"),
       ("energy.verify_pass_ratio", "ratio")]
    + [(f"oracle.oracle_profile.{ph}.s", "s") for ph in PHASES]
    + [("oracle.minimize.calls", "count"), ("oracle.minimize.nfev", "count"),
       ("oracle.nfev_per_s", "1/s"),
       ("cli.import_s", "s"), ("cli.sweep.rows_per_s", "1/s")]
)
UNITS = dict(PER_LAYER)


def merge(dumps):
    """One trace out of several processes' dumps (parent indices shifted)."""
    spans, calls, busy = [], defaultdict(int), defaultdict(float)
    for d in dumps:
        base = len(spans)
        for name, t0, t1, parent, op, attrs in d["spans"]:
            spans.append([name, t0, t1, None if parent is None else parent + base,
                          op, attrs])
        for k, v in d["calls"].items():
            calls[k] += v
        for k, v in d["busy"].items():
            busy[k] += v
    return {"spans": spans, "calls": dict(calls), "busy": dict(busy)}


def load_dumps(paths):
    """Read and delete the files a traced CLI run leaves: its own plus one
    per forked pool worker."""
    dumps = []
    for p in map(Path, paths):
        for f in [p, *sorted(p.parent.glob(p.name + ".*"))]:
            dumps.append(json.loads(f.read_text()))
            f.unlink()
    return dumps


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def per_layer(trace, tally, import_times):
    spans = trace["spans"]
    calls, busy = trace["calls"], trace["busy"]
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _, _ in spans:
        if parent is not None:
            child[parent] += t1 - t0
    by = defaultdict(list)  # name -> [(index, duration)]
    for i, sp in enumerate(spans):
        by[sp[0]].append((i, sp[2] - sp[1]))

    def attrs(i):
        return spans[i][5] or {}

    def durations(name, pred=lambda a: True):
        return [d for i, d in by[name] if pred(attrs(i))]

    cold = [(i, d) for i, d in by["phases.boundaries"] if attrs(i).get("cold")]
    four = {i for i, _ in cold if attrs(i)["regime"] == "FourPhase"}
    lm_in_four = 0
    for i, _ in by["criteria.landmarks"]:
        j = spans[i][3]
        while j is not None and j not in four:
            j = spans[j][3]
        lm_in_four += j is not None

    classify = by["phases.classify"]
    nfev = sum(attrs(i).get("nfev", 0) for i, _ in by["oracle.minimize"])
    minimize_s = sum(d for _, d in by["oracle.minimize"])
    verify = by["energy.verify_parisi"]
    passed = sum(bool(attrs(i).get("passed")) for i, _ in verify)
    # oracle time per phase: the profile spans inside each operation, whose
    # label is the phase the point was placed in
    profile_by_phase = defaultdict(list)
    op_label = {sp[4]: (sp[5] or {}).get("label") for sp in spans
                if sp[0] == "op"}
    for i, d in by["oracle.oracle_profile"]:
        profile_by_phase[op_label.get(spans[i][4])].append(d)
    sweep_s = sum(tally.extra.get("cli_sweep_s", []))

    m = {
        "mixture.xi_deriv.calls": calls.get("mixture.xi_deriv", 0),
        "mixture.xi_deriv.busy_s": busy.get("mixture.xi_deriv", 0.0),
        "criteria.landmarks.calls": len(by["criteria.landmarks"]),
        "criteria.landmarks.busy_s": sum(durations("criteria.landmarks")),
        "criteria.landmarks.ms.p50": 1e3 * _median(durations("criteria.landmarks")),
        "criteria.solve_z.calls": calls.get("criteria.solve_z", 0),
        "criteria.solve_z.busy_s": busy.get("criteria.solve_z", 0.0),
        "criteria.eval_h.calls": calls.get("criteria.eval_h", 0),
        "criteria.psi.calls": calls.get("criteria.psi", 0),
        "phases.boundaries.cold_solves": len(cold),
        "phases.boundaries.landmarks_per_solve": lm_in_four / len(four) if four else 0,
        "phases.boundaries.self_s": sum(d - child[i] for i, d in cold),
        "phases.classify.calls": len(classify),
        "phases.classify.self_ms.p50": 1e3 * _median([d - child[i] for i, d in classify]),
        "phases.band_disagree": tally.disagree,
        "measure.build.calls": len(by["measure.build"]),
        "measure.build.busy_s": sum(durations("measure.build")),
        "energy.verify_parisi.calls": len(verify),
        "energy.verify_parisi.ms.p50": 1e3 * _median(durations("energy.verify_parisi")),
        "energy.verify_parisi.busy_s": sum(durations("energy.verify_parisi")),
        "energy.cs_energy.ms.p50": 1e3 * _median(durations("energy.cs_energy")),
        "energy.cs_energy.busy_s": sum(durations("energy.cs_energy")),
        "energy.verify_pass_ratio": passed / len(verify) if verify else 0.0,
        "oracle.minimize.calls": len(by["oracle.minimize"]),
        "oracle.minimize.nfev": nfev,
        "oracle.nfev_per_s": nfev / minimize_s if minimize_s else 0.0,
        "cli.import_s": _median(import_times),
        "cli.sweep.rows_per_s": (sum(tally.extra.get("sweep_rows", [])) / sweep_s
                                 if sweep_s else 0.0),
    }
    for r in REGIMES:
        m[f"phases.boundaries.{r}.s"] = _median(
            [d for i, d in cold if attrs(i)["regime"] == r])
    for ph in PHASES[1:]:
        m[f"phases.classify.{ph}.ms.p50"] = 1e3 * _median(
            durations("phases.classify", lambda a, ph=ph: a.get("phase") == ph))
    for ph in PHASES:
        m[f"oracle.oracle_profile.{ph}.s"] = _median(profile_by_phase[ph])
    for r in REASONS:
        m[f"phases.unresolved.{r}"] = tally.unresolved.get(r, 0)
    return {name: m[name] for name, _ in PER_LAYER}


def table(metrics):
    """The per-layer table as text, one line per metric, grouped by layer."""
    lines, layer = [], None
    for name, unit in PER_LAYER:
        if name.split(".")[0] != layer:
            layer = name.split(".")[0]
            lines.append(f"  [{layer}]")
        v = metrics[name]
        lines.append(f"    {name:<44} {v:>14.6g} {unit}")
    return "\n".join(lines)
