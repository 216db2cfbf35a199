"""Record and compare the outputs a bit-changing refactor must keep.

    python tools/same_outputs.py dump OUT.json [--src DIR]
    python tools/same_outputs.py diff A.json B.json
    python tools/same_outputs.py ladder

``dump`` imports parisi_zero from DIR (default: this checkout's src/) and
writes four records:

- the 101-point sweeps (``--lambda-grid 0:1:0.01``) of (4,38), (3,20) and
  (2,4), and a 9-point sweep of (4,38) within 2e-6 of lambda_2to1 rounded
  to 9 decimals, whose rows carry the near_boundary and on_boundary
  flags: every CSV row and every .dat row;
- the boundary constants of all 385 mixed families with p <= 8, s <= 60;
- a seeded classify probe over the same families: 8 random lambdas a
  family, plus lambda_b +- d for d in 1e-8, 1e-7, 1e-5, 1e-3 about every
  interior boundary, with lambda_b the boundary rounded to 9 decimals so
  that a constant moving in its last bits leaves the points in place
  (7266 points in (0, 1));
- seeded oracle profiles (4 restarts) at two fixed points in each of the
  six phases: 4 seeds a point at kmax k + 1 for a k-step phase and 2 for
  a full one, as criterion 7 runs them, and one seed a point at kmax 4
  (60 profiles): the level energies, measures, saturation and the
  step_energy of each level's measure.

``diff`` lists verdict or detail changes first (sweep phases and .dat
phase indices, probe phase, detail and flags, constants that appear or
vanish, a sweep or constants family in one dump alone, oracle saturation
levels), then bit changes: every changed row, and the largest |delta| in
each column. A probe detail that changed in its numbers alone (the two
texts agree with every number masked, as ``ladder`` reads a detail
without its numbers) is tagged ``(numbers only)`` and still counts as a
detail change. It exits 1 when any verdict or detail changed, else 0.

Run it on a copy of the parent commit (``git archive``) and on the
change. A dump takes about 20 s on one core, the oracle record about 3 s
of it; this is not part of the test suite.

``ladder`` imports this checkout's src/ and classifies the same 385
families at lambda_b +- 10**-k for k = 3 ... 8 about every interior
boundary lambda_b (points outside (0, 1) skipped) and at 16 seeded
random lambdas a family: 12442 points, about 15 s on one core. It holds
each certified phase against ``interval_phase``, prints the wrong and
Unresolved counts by regime, boundary, rung and detail, and how many
Unresolved points lie at least 1e-7 from a boundary (a rung's distance
is its 10**-k, a random lambda's the one its classify record gives to
the nearest boundary), and exits 1 when any point is wrong.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import re
import sys
import tempfile
import time
from collections import Counter

SWEEPS = ((4, 38), (3, 20), (2, 4))
DISTANCES = (1e-8, 1e-7, 1e-5, 1e-3)
RANDOM_PER_FAMILY = 8
SEED = 17
# two points inside each phase; a k-step phase's chain runs to k + 1
ORACLE_POINTS = (("RS", 0, 2, 5, 1.0), ("RS", 0, 2, 9, 1.0),
                 ("OneRSB", 1, 4, 18, 0.5), ("OneRSB", 1, 3, 20, 0.3),
                 ("TwoRSB", 2, 4, 38, 0.8), ("TwoRSB", 2, 3, 20, 0.75),
                 ("TwoFRSB", None, 4, 38, 0.984),
                 ("TwoFRSB", None, 3, 20, 0.965),
                 ("OneFRSB", None, 4, 38, 0.9886),
                 ("OneFRSB", None, 3, 20, 0.983),
                 ("FRSB", None, 2, 8, 0.98), ("FRSB", None, 2, 4, 0.95))
ORACLE_SEEDS = (1, 2, 3, 4)
LADDER_RUNGS = range(3, 9)  # d = 10**-k
LADDER_RANDOM = 16
SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src")


def _families():
    return [(p, s) for p in range(2, 9) for s in range(p + 1, 61)]


def _sweeps(pz, main):
    lb = round(pz.boundaries(4, 38).general["lambda_2to1"], 9)
    runs = [(f"{p},{s}", p, s, ["--lambda-grid", "0:1:0.01"])
            for p, s in SWEEPS]
    runs.append(("4,38 near lambda_2to1", 4, 38,
                 ["--lambda-grid", f"{lb - 2e-6!r}:{lb + 2e-6!r}",
                  "--count", "9"]))
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for i, (name, p, s, grid) in enumerate(runs):
            csv = os.path.join(tmp, f"{i}.csv")
            with contextlib.redirect_stdout(io.StringIO()):
                rc = main(["sweep", "--p", str(p), "--s", str(s), *grid,
                           "--out", csv])
            with open(csv) as fh, open(csv[:-4] + ".dat") as fd:
                out[name] = {"rc": rc, "csv": fh.read().splitlines(),
                             "dat": fd.read().splitlines()}
    return out


def _probe(pz):
    import numpy as np

    rng = np.random.default_rng(SEED)
    rows = []
    for p, s in _families():
        lams = [float(v) for v in rng.uniform(0.0, 1.0, RANDOM_PER_FAMILY)]
        for lb in pz.boundary_lambdas(pz.boundaries(p, s)):
            lb = round(lb, 9)
            lams += [lb + sg * d for d in DISTANCES for sg in (-1, 1)
                     if 0.0 < lb + sg * d < 1.0]
        for lam in lams:
            cl = pz.classify(p, s, lam)
            rep = cl.report
            rows.append({
                "key": [p, s, lam], "phase": cl.phase, "detail": cl.detail,
                "on_boundary": cl.on_boundary,
                "low_s_unproven": cl.low_s_unproven,
                "bits": {**{k: v for k, v in cl.params.items()
                            if isinstance(v, float)},
                         "energy": cl.energy,
                         **(rep.to_dict() if rep else {})}})
    return rows


def _oracle(pz):
    runs = [(ph, p, s, lam, 2 if k is None else k + 1, seed)
            for ph, k, p, s, lam in ORACLE_POINTS for seed in ORACLE_SEEDS]
    runs += [(ph, p, s, lam, 4, 0) for ph, _, p, s, lam in ORACLE_POINTS]
    rows = []
    for ph, p, s, lam, kmax, seed in runs:
        m = pz.make_mixture(p, s, lam)
        prof = pz.oracle_profile(m, kmax=kmax, restarts=4, seed=seed)
        rows.append({
            "key": [ph, p, s, lam, kmax, seed],
            "saturation": prof.saturation, "energies": list(prof.energies),
            "measures": [[[list(j) for j in sm.jumps], sm.atom]
                         for sm in prof.measures],
            "step_energies": [pz.step_energy(m, sm)
                              for sm in prof.measures]})
    return rows


def _import(src):
    sys.path.insert(0, os.path.abspath(src))
    import parisi_zero

    return parisi_zero


def _ladder_points(pz):
    # (p, s, regime, boundary key or "random", signed rung or None, lambda)
    import numpy as np

    rng = np.random.default_rng(SEED)
    out = []
    for p, s in _families():
        b = pz.boundaries(p, s)
        tag = b.regime.tag
        cuts = pz.boundary_lambdas(b)
        out += [(p, s, tag, "random", None, float(v))
                for v in rng.uniform(0.0, 1.0, LADDER_RANDOM)]
        for key, lb in {**(b.p2 or {}), **(b.general or {})}.items():
            if lb not in cuts:  # None, or not inside (0, 1)
                continue
            out += [(p, s, tag, key.removeprefix("lambda_"), sg * k,
                     lb + sg * 10.0 ** -k)
                    for k in LADDER_RUNGS for sg in (-1, 1)
                    if 0.0 < lb + sg * 10.0 ** -k < 1.0]
    return out


def _reason(detail):
    # an Unresolved detail without its numbers
    return re.split(r" [\[(=]|:", detail or "")[0]


# a number standing alone in a detail; the digits of names like h22 stay
_NUMBER = re.compile(r"(?<![\w.])[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
                     r"|inf|nan)(?!\w)")


def _numbers_only(a, b):
    # whether two details read the same with their numbers masked
    return None not in (a, b) and _NUMBER.sub("#", a) == _NUMBER.sub("#", b)


def ladder():
    pz = _import(SRC)
    t0 = time.process_time()
    points = _ladder_points(pz)
    wrong, unresolved, far = [], 0, Counter()
    tally = {name: Counter() for name in ("regime", "boundary", "rung",
                                          "detail")}
    regimes = Counter(pz.regime(p, s).tag for p, s in _families())
    for p, s, tag, key, rung, lam in points:
        cl = pz.classify(p, s, lam)
        want = pz.interval_phase(p, s, lam)
        if cl.phase == "Unresolved":
            kind = "Unresolved"
            unresolved += 1
            # a rung's distance is its nominal 10**-k
            dist = (10.0 ** -abs(rung) if rung is not None
                    else math.inf if cl.boundary is None
                    else abs(cl.boundary_distance))
            if dist >= 1e-7:
                far["random" if rung is None else "rung"] += 1
            tally["detail"][_reason(cl.detail)] += 1
        elif cl.phase != want or cl.on_boundary:
            kind = "wrong"
            wrong.append((p, s, key, rung, want, cl.phase))
        else:
            continue
        side = "" if rung is None else " below" if rung < 0 else " above"
        for name, label in (("regime", tag), ("boundary", key + side),
                            ("rung", "random" if rung is None
                             else f"{rung:+d}")):
            tally[name][label, kind] += 1
    print(f"ladder: {len(points)} points over {len(_families())} families ("
          + ", ".join(f"{n} {tag}" for tag, n in sorted(regimes.items()))
          + f") in {time.process_time() - t0:.1f} s CPU")
    print(f"wrong: {len(wrong)}; Unresolved: {unresolved}, {far.total()} "
          f"of them at d >= 1e-7 from a boundary ({far['rung']} on "
          f"rungs, {far['random']} at random lambdas)")
    for name in ("regime", "boundary", "rung"):
        labels = sorted(regimes if name == "regime"
                        else {label for label, _ in tally[name]})
        print(f"by {name} (wrong / Unresolved):")
        for label in labels:
            print(f"  {label}: {tally[name][label, 'wrong']} / "
                  f"{tally[name][label, 'Unresolved']}")
    print("Unresolved by detail:")
    for reason, n in tally["detail"].most_common():
        print(f"  {n:5d}  {reason}")
    for p, s, key, rung, want, got in wrong:
        print(f"  wrong: ({p},{s}) {key} {rung}: {got}, interval {want}")
    return 1 if wrong else 0


def dump(path, src):
    pz = _import(src)
    from parisi_zero.cli import main

    constants = {}
    for p, s in _families():
        b = pz.boundaries(p, s)
        constants[f"{p},{s}"] = {"regime": b.regime.tag,
                                 **(b.p2 or {}), **(b.general or {})}
    doc = {"src": os.path.abspath(src), "sweeps": _sweeps(pz, main),
           "constants": constants, "probe": _probe(pz),
           "oracle": _oracle(pz)}
    with open(path, "w") as fh:
        json.dump(doc, fh)
    print(f"wrote {len(doc['probe'])} probe points, {len(constants)} "
          f"families, {len(doc['sweeps'])} sweeps and {len(doc['oracle'])} "
          f"oracle profiles to {path}")


class _Delta:
    # the changed values of one column, keeping the largest |delta|
    def __init__(self):
        self.cols = {}

    def add(self, col, a, b):
        if a == b:
            return
        try:
            d = abs(float(b) - float(a))
        except (TypeError, ValueError):
            d = float("inf")
        n, worst = self.cols.get(col, (0, 0.0))
        self.cols[col] = (n + 1, max(worst, d))

    def lines(self):
        return [f"    {c}: {n} changed, largest |delta| {w:.3g}"
                for c, (n, w) in sorted(self.cols.items())]


def _shared(record, a, b, verdicts):
    # the families of a sweeps or constants record in both dumps, in A's
    # order; a family in one dump alone is a verdict change
    for where, x, y in (("first", a, b), ("second", b, a)):
        verdicts += [f"{record} ({fam}): only in the {where} dump"
                     for fam in x[record] if fam not in y[record]]
    return [fam for fam in a[record] if fam in b[record]]


def diff(path_a, path_b):
    with open(path_a) as fa, open(path_b) as fb:
        a, b = json.load(fa), json.load(fb)
    verdicts, bits = [], []

    for fam in _shared("sweeps", a, b, verdicts):
        sa, sb = a["sweeps"][fam], b["sweeps"][fam]
        if sa["rc"] != sb["rc"] or len(sa["csv"]) != len(sb["csv"]):
            verdicts.append(f"sweep ({fam}): exit code or row count changed")
            continue
        header = sa["csv"][1].split(",")
        delta, rows = _Delta(), []
        for ra, rb, da, db in zip(sa["csv"][2:], sb["csv"][2:],
                                  sa["dat"][1:], sb["dat"][1:]):
            ca = dict(zip(header, ra.split(",")))
            cb = dict(zip(header, rb.split(",")))
            if (ca["phase"] != cb["phase"] or da.split()[1] != db.split()[1]
                    or ca["boundary_flags"] != cb["boundary_flags"]):
                verdicts.append(
                    f"sweep ({fam}) lambda {ca['lambda']}: {ca['phase']} "
                    f"[{ca['boundary_flags']}] (.dat {da.split()[1]}) -> "
                    f"{cb['phase']} [{cb['boundary_flags']}] "
                    f"(.dat {db.split()[1]})")
            elif ra != rb or da != db:
                changed = [c for c in header if ca[c] != cb[c]]
                rows.append(f"    lambda {ca['lambda']}: " + "; ".join(
                    f"{c} {ca[c]} -> {cb[c]}" for c in changed))
                for c in changed:
                    delta.add(c, ca[c], cb[c])
        if rows:
            bits += [f"  sweep ({fam}): {len(rows)} rows", *rows,
                     *delta.lines()]

    delta, rows = _Delta(), []
    for fam in _shared("constants", a, b, verdicts):
        ca, cb = a["constants"][fam], b["constants"][fam]
        if ca.keys() != cb.keys() or ca["regime"] != cb["regime"] or any(
                (ca[k] is None) != (cb[k] is None) for k in ca):
            verdicts.append(f"constants ({fam}): {ca} -> {cb}")
            continue
        for k in ca:
            if k != "regime" and ca[k] != cb[k]:
                rows.append(f"    ({fam}) {k}: {ca[k]!r} -> {cb[k]!r} "
                            f"(|delta| {abs(cb[k] - ca[k]):.3g})")
                delta.add(k, ca[k], cb[k])
    if rows:
        bits += [f"  constants: {len(rows)} values", *rows, *delta.lines()]

    delta, rows = _Delta(), []
    if [r["key"] for r in a["probe"]] != [r["key"] for r in b["probe"]]:
        verdicts.append("probe: the points differ (a boundary moved across "
                        "its 9-decimal rounding?)")
    verdict = ("phase", "detail", "on_boundary", "low_s_unproven")
    for ra, rb in zip(a["probe"], b["probe"]):
        if [ra[k] for k in verdict] != [rb[k] for k in verdict]:
            numbers = all(ra[k] == rb[k] for k in verdict if k != "detail"
                          ) and _numbers_only(ra["detail"], rb["detail"])
            verdicts.append(f"probe {ra['key']}: {ra['phase']} ({ra['detail']})"
                            f" -> {rb['phase']} ({rb['detail']})"
                            + (" (numbers only)" if numbers else ""))
        elif ra["bits"] != rb["bits"]:
            rows.append(f"    {ra['key']}")
            for k in ra["bits"].keys() | rb["bits"].keys():
                delta.add(k, ra["bits"].get(k), rb["bits"].get(k))
    if rows:
        bits += [f"  probe: {len(rows)} points", *rows, *delta.lines()]

    delta, rows = _Delta(), []
    if [r["key"] for r in a["oracle"]] != [r["key"] for r in b["oracle"]]:
        verdicts.append("oracle: the profiles differ")
    for ra, rb in zip(a["oracle"], b["oracle"]):
        if (ra["saturation"] != rb["saturation"]
                or len(ra["energies"]) != len(rb["energies"])):
            verdicts.append(f"oracle {ra['key']}: saturates at "
                            f"{ra['saturation']} -> {rb['saturation']}")
            continue
        changed = False
        for k, (ma, mb) in enumerate(zip(ra["measures"], rb["measures"])):
            cols = [(f"E({k})", ra["energies"][k], rb["energies"][k]),
                    (f"step_energy({k})", ra["step_energies"][k],
                     rb["step_energies"][k]), ("atom", ma[1], mb[1])]
            for (qa, aa), (qb, ab) in zip(ma[0], mb[0]):
                cols += [("jump q", qa, qb), ("jump size", aa, ab)]
            for col, va, vb in cols:
                changed |= va != vb
                delta.add(col, va, vb)
        if changed:
            rows.append(f"    {ra['key']}")
    if rows:
        bits += [f"  oracle: {len(rows)} profiles", *rows, *delta.lines()]

    print(f"verdict or detail changes: {len(verdicts)}")
    print("\n".join(f"  {v}" for v in verdicts))
    print(f"bit changes:{'' if bits else ' none'}")
    print("\n".join(bits))
    return 1 if verdicts else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    d = sub.add_parser("dump")
    d.add_argument("out")
    d.add_argument("--src", default=SRC)
    c = sub.add_parser("diff")
    c.add_argument("a")
    c.add_argument("b")
    sub.add_parser("ladder")
    args = ap.parse_args(argv)
    if args.cmd == "dump":
        dump(args.out, args.src)
        return 0
    if args.cmd == "ladder":
        return ladder()
    return diff(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
