"""The workloads: seeded inputs, timed operations, hard output checks.

Each workload generates all of its inputs from the seed in `setup()`,
then runs passes of operations through `run_pass()`. The worker repeats
whole passes, at least `MIN_PASSES`, until the run's seconds are used
up, so every run holds the same mix of operations. A traced run makes
exactly one pass, so its counts repeat. `finish()`
makes the checks that are too slow to make inline, after the timed
window. Any failed check raises CheckFailed and voids the run.

The package is always reached through module attributes
(`phases.classify`, not a name bound at import), so the tracer's
wrappers see every call.
"""
from __future__ import annotations

import bisect
import json
import math
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from scipy.optimize import brentq

from parisi_zero import criteria, oracle, phases
from parisi_zero.mixture import make_mixture

BAND_PHASES = {
    "AllOneRSB": ("OneRSB",),
    "TwoPhase": ("OneRSB", "TwoRSB", "OneRSB"),
    "FourPhase": ("OneRSB", "TwoRSB", "TwoFRSB", "OneFRSB", "OneRSB"),
    "P2Family": ("OneRSB", "OneFRSB", "FRSB"),
}
# the frozen constants of tests/test_phases.py, checked to 1e-9 in every run
FROZEN = {
    (4, 38): {"lambda_1to2": 0.6093645164854334,
              "lambda_2to2F": 0.9816846324246461,
              "lambda_2to1F": 0.9871482060395593,
              "lambda_2to1": 0.9899796410415966},
    (2, 4): {"lambda_1to1F": 0.5607071822166656, "lambda_1Fto1": 12 / 13},
    (2, 8): {"lambda_1to1F": 0.26917181268945384,
             "lambda_1Fto1": 0.9572649572649573},
}
FAR = 1e-4  # phase and band must agree farther than this from a boundary
LADDER = (1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3)
UNRESOLVED_REASONS = (
    ("no plateau point found", "no_plateau_point"),
    ("density must be nondecreasing", "density_not_nondecreasing"),
    ("full density is not increasing", "full_density_not_increasing"),
    ("candidate failed certification", "failed_certification"),
    ("no construction applies", "no_construction"),
)
STEP_K = {"RS": 0, "OneRSB": 1, "TwoRSB": 2}


def cpu_seconds():
    """CPU time of the calling thread plus every child process reaped.

    CLI processes and their pool workers count, once reaped (the reference
    process of probe.py is reaped only after the timed window); time spent
    waiting for a core that another process holds does not."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.thread_time() + kids.ru_utime + kids.ru_stime


class CheckFailed(Exception):
    """An output check failed: the run is void and reports no number."""


def require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def reason_of(detail):
    for text, slug in UNRESOLVED_REASONS:
        if detail and text in detail:
            return slug
    return "other"


def band_phase(b, lam):
    """The phase the solved boundaries put lam in (ties go to the low side)."""
    return BAND_PHASES[b.regime.tag][
        bisect.bisect_left(phases.boundary_lambdas(b), lam)]


def distance_to_boundary(b, lam):
    return min((abs(lam - x) for x in phases.boundary_lambdas(b)),
               default=math.inf)


def check_frozen():
    for (p, s), want in FROZEN.items():
        b = phases.boundaries(p, s)
        got = b.general if p > 2 else b.p2
        for key, val in want.items():
            require(abs(got[key] - val) <= 1e-9,
                    f"frozen constant {key} of ({p},{s}) reads {got[key]!r}")


def families_by_regime():
    """Every family with p <= 8 and s <= 60, by regime, in (p, s) order."""
    out = {tag: [] for tag in BAND_PHASES}
    for p in range(2, 9):
        for s in range(p + 1, 61):
            if (p, s) == (2, 3):
                continue  # its phase map is unproven: no band to check against
            out[phases.regime(p, s).tag].append((p, s))
    return out


class Tally:
    """Per-operation outcomes of one run."""

    def __init__(self):
        self.ops = []          # (label, wall s, CPU s, start on perf_counter)
        self.attempted = 0     # classifications, oracle points or CLI rows
        self.failed = 0        # calls that raised instead of returning
        self.unresolved = {}   # reason -> count
        self.certified = 0
        self.disagree = 0      # certified, phase differs from the band
        self.extra = {}        # workload-specific samples

    def sample(self, key, value):
        self.extra.setdefault(key, []).append(value)

    def classification(self, cl, expected=None, dist=math.inf, where=""):
        """Record one classify result and make its inline checks."""
        self.attempted += 1
        if cl.phase == "Unresolved":
            r = reason_of(cl.detail)
            self.unresolved[r] = self.unresolved.get(r, 0) + 1
            return
        self.certified += 1
        require(cl.report is not None and cl.report.passed,
                f"{where}: {cl.phase} returned without a passing report")
        if expected is not None and cl.phase != expected:
            self.disagree += 1
            require(dist <= FAR, f"{where}: phase {cl.phase} but band "
                    f"{expected}, {dist:.2e} from the nearest boundary")

    def error(self):
        """Record a call into the package that raised."""
        self.attempted += 1
        self.failed += 1
        self.unresolved["exception"] = self.unresolved.get("exception", 0) + 1


class Workload:
    name = ""
    MIN_PASSES = 1

    def __init__(self, seed, smoke=False, tracer=None, out_dir=None):
        self.rng = np.random.default_rng(seed)
        self.smoke = smoke
        self.tracer = tracer
        self.out_dir = out_dir
        self.tally = Tally()
        self._op_id = 0

    def timed(self, label, fn):
        """Run one operation, timing it and opening its trace span."""
        self._op_id += 1
        if self.tracer:
            self.tracer.begin_op(self._op_id, label)
        t0, c0 = time.perf_counter(), cpu_seconds()
        try:
            return fn()
        finally:
            self.tally.ops.append((label, time.perf_counter() - t0,
                                   cpu_seconds() - c0, t0))
            if self.tracer:
                self.tracer.end_op()

    def call(self, fn, *args, **kwargs):
        """Call into the package; a call that raises is a failed operation
        and returns None, and the run goes on."""
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.tally.error()
            return None

    def setup(self):
        raise NotImplementedError

    def run_pass(self, index):
        """One pass of operations; every pass has the same mix of them."""
        raise NotImplementedError

    def finish(self):
        check_frozen()


class FamilyScan(Workload):
    """Cold boundary solves of distinct families, then band-midpoint classify.

    A diagnostic workload, left out of BENCHMARK.json (see NOTES.md)."""

    name = "family-scan"
    PER_PASS = {"FourPhase": 5, "TwoPhase": 3, "P2Family": 3, "AllOneRSB": 3}

    def setup(self):
        # systematic stratified draw: each regime's pool, in (p, s) order, is
        # cut into as many slices as the regime has families a pass, and a
        # pass takes the next family of each slice's shuffled order. Solve
        # cost grows with p and s, so every pass gets the same spread of it.
        per = {t: 1 for t in self.PER_PASS} if self.smoke else self.PER_PASS
        pools = families_by_regime()
        self.slices = [[[tuple(map(int, sl[i])) for i in self.rng.permutation(len(sl))]
                        for sl in np.array_split(np.array(pools[tag]), n)]
                       for tag, n in per.items()]

    def run_pass(self, index):
        fams = []
        for slices in self.slices:
            require(all(index < len(sl) for sl in slices), "family pool exhausted")
            fams += [sl[index] for sl in slices]
        for j in self.rng.permutation(len(fams)):
            self.timed("family", lambda f=fams[j]: self._family(*f))

    def _family(self, p, s):
        b = self.call(phases.boundaries, p, s)
        if b is None:
            return
        edges = (0.0, *phases.boundary_lambdas(b), 1.0)
        for lo, hi, want in zip(edges, edges[1:], BAND_PHASES[b.regime.tag]):
            lam = 0.5 * (lo + hi)
            cl = self.call(phases.classify, p, s, lam)
            if cl is not None:
                self.tally.classification(cl, want, distance_to_boundary(b, lam),
                                          f"({p},{s},{lam!r})")


class LambdaSweep(Workload):
    """Warm classify over random lambdas plus a near-boundary ladder."""

    name = "lambda-sweep"
    FAMILIES = ((4, 38), (3, 20), (4, 28), (2, 8))

    def setup(self):
        self.bounds = {f: phases.boundaries(*f) for f in self.FAMILIES}

    def _points(self):
        n_uni, n_top = (4, 2) if self.smoke else (64, 40)
        pts = []
        for f, b in self.bounds.items():
            lams = [(x, None) for x in self._stratified(0, 1, n_uni)]
            lams += [(x, None) for x in self._stratified(0.95, 1, n_top)]
            ladder = LADDER[::5] if self.smoke else LADDER
            for x in phases.boundary_lambdas(b):
                lams += [(x + sign * d, d) for d in ladder for sign in (-1, 1)]
            pts += [(f, lam, d) for lam, d in lams]
        return [pts[i] for i in self.rng.permutation(len(pts))]

    def _stratified(self, lo, hi, n):
        """n lambdas uniform on [lo, hi], one in each of n equal slices, so
        every pass puts the same number of points in each phase band."""
        u = (np.arange(n) + self.rng.uniform(size=n)) / n
        return [float(lo + x * (hi - lo)) for x in u]

    def run_pass(self, index):
        for (p, s), lam, nominal in self._points():
            cl = self.timed("classify",
                            lambda: self.call(phases.classify, p, s, lam))
            if cl is None:
                continue
            b = self.bounds[(p, s)]
            # ladder points are judged by their nominal distance, so a
            # point placed exactly 1e-4 away is never checked on rounding
            dist = nominal if nominal is not None else distance_to_boundary(b, lam)
            self.tally.classification(cl, band_phase(b, lam), dist,
                                      f"({p},{s},{lam!r})")


class OracleCrosscheck(Workload):
    """One point per phase, placed as acceptance criterion 7 places them."""

    name = "oracle-crosscheck"
    RESTARTS = 4
    # level 3 of a full-phase chain costs 2 to 10 times level 2, and how
    # much depends on the seed: with kmax 3 the median point moved 16%
    # between seeds. Level 3 stays in the workload through TwoRSB.
    FULL_KMAX = 2

    def setup(self):
        self.g38 = phases.boundaries(4, 38).general
        self.g20 = phases.boundaries(3, 20).general
        self.p28 = phases.boundaries(2, 8).p2

    def _points(self):
        """Two points a phase: one drawn as criterion 7 draws it and its
        mirror image in the same interval. Oracle cost moves with the
        point's place in its band, and a mirrored pair evens that out."""
        rng = self.rng

        def pair(a, b):
            u = float(rng.uniform(a, b))
            return u, a + b - u

        def band(lo, hi, a, b):
            return [lo + u * (hi - lo) for u in pair(a, b)]
        g38, g20, p28 = self.g38, self.g20, self.p28
        s_rs = int(rng.integers(4, 10))
        places = [
            ("RS", 2, [(s, 1.0) for s in (s_rs, 13 - s_rs)]),
            ("OneRSB", 4, [(18, u) for u in pair(0.1, 0.9)]),
            ("TwoRSB", 4, [(38, x) for x in band(
                g38["lambda_1to2"], g38["lambda_2to2F"], .2, .8)]),
            ("TwoFRSB", 3, [(20, x) for x in band(
                g20["lambda_2to2F"], g20["lambda_2to1F"], .3, .7)]),
            ("OneFRSB", 3, [(20, x) for x in band(
                g20["lambda_2to1F"], g20["lambda_2to1"], .3, .7)]),
            ("FRSB", 2, [(8, x) for x in band(
                p28["lambda_1Fto1"], 1.0, .2, .6)]),
        ]
        pts = [(phase, p, s, lam) for phase, p, sl in places for s, lam in sl]
        seeds = [int(x) for x in rng.integers(10**6, size=len(pts))]
        if self.smoke:
            pts, seeds = pts[::2][:2], seeds[::2][:2]
        return [(*pt, sd) for pt, sd in zip(pts, seeds)]

    def run_pass(self, index):
        for phase, p, s, lam, seed in self._points():
            kmax = STEP_K[phase] + 1 if phase in STEP_K else self.FULL_KMAX

            def op():
                cl = self.call(phases.classify, p, s, lam)
                if cl is None:
                    return None, None
                return cl, self.call(oracle.oracle_profile,
                                     make_mixture(p, s, lam), kmax=kmax,
                                     restarts=self.RESTARTS, seed=seed)
            cl, prof = self.timed(phase, op)
            if prof is not None:
                self._check(phase, (p, s, lam, seed), cl, prof)

    def _check(self, phase, where, cl, prof):
        require(cl.phase == phase, f"{where}: classify says {cl.phase}")
        self.tally.classification(cl, phase, math.inf, str(where))
        es = prof.energies
        require(all(b <= a + 1e-12 for a, b in zip(es, es[1:])),
                f"{where}: oracle chain increases: {es}")
        if phase in STEP_K:
            k = STEP_K[phase]
            require(prof.saturation == k,
                    f"{where}: chain saturates at {prof.saturation}, not {k}: {es}")
            require(abs(es[k] - cl.energy) <= 1e-5,
                    f"{where}: E({k}) = {es[k]!r} vs classify {cl.energy!r}")
        else:
            require(es[1] < es[0] - 1e-6 and es[2] < es[1] - 1e-6,
                    f"{where}: full phase stops improving by level 2: {es}")
            require(cl.energy <= es[-1] + 1e-5,
                    f"{where}: classify energy {cl.energy!r} above E(kmax) {es[-1]!r}")


class CliCold(Workload):
    """Fresh-interpreter CLI sessions: classify a point, then sweep a band."""

    name = "cli-cold"
    MIN_PASSES = 3  # a session is ~6 s; fewer than three leave no middle
    JOBS = 2
    STEP = 0.0005

    SWEEP_FAMILY = (4, 38)

    def setup(self):
        pool = families_by_regime()["FourPhase"]
        self.pool = [pool[i] for i in self.rng.permutation(len(pool))]
        self.sessions = []
        self.src = str(Path(phases.__file__).resolve().parents[1])

    def _cli(self, args, label):
        env = dict(os.environ, PYTHONPATH=self.src)
        if self.tracer:
            trace_out = (self.out_dir
                         / f"clitrace-{os.getpid()}-{self._op_id}-{label}.json")
            env["PERFBENCH_OP"] = str(self._op_id)
            cmd = [sys.executable, str(Path(__file__).with_name("clitrace.py")),
                   str(trace_out), *args]
        else:
            trace_out = None
            cmd = [sys.executable, "-m", "parisi_zero.cli", *args]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=120)
        self.tally.sample(f"cli_{label}_s", time.perf_counter() - t0)
        if trace_out is not None:
            self.tally.sample("clitrace", str(trace_out))
        return proc

    def run_pass(self, index):
        p, s = self.pool[index]
        lam = float(self.rng.uniform(0.0, 1.0))
        # the band ends up to 0.005 above lambda_2to1, the psi root that
        # boundaries() solves first; found here without a full solve
        sp, ss = self.SWEEP_FAMILY
        l1, l2 = criteria.lambda_stars(sp, ss).roots
        lam_2to1 = brentq(lambda t: criteria.psi(sp, ss, t), l1,
                          min(l2, 1 - 1e-12), xtol=1e-13)
        hi = min(1.0, round(lam_2to1 + float(self.rng.uniform(0, 0.005)), 4))
        span = 0.002 if self.smoke else 0.03
        grid = f"{hi - span!r}:{hi!r}:{self.STEP!r}"
        out = self.out_dir / f"sweep-{self.name}-{index}.csv"
        res = {}

        def session():
            res["classify"] = self._cli(
                ["classify", "--p", str(p), "--s", str(s), "--lambda", repr(lam)],
                "classify")
            res["sweep"] = self._cli(
                ["sweep", "--p", str(sp), "--s", str(ss), "--lambda-grid", grid,
                 "--out", str(out), "--jobs", str(self.JOBS)], "sweep")
        self.timed("session", session)
        self.sessions.append((p, s, lam, out, res))

    def finish(self):
        super().finish()
        for p, s, lam, out, res in self.sessions:
            self._check_classify(p, s, lam, res["classify"])
            rows = self._check_sweep(*self.SWEEP_FAMILY, out, res["sweep"])
            self.tally.sample("sweep_rows", len(rows))

    def _check_classify(self, p, s, lam, proc):
        where = f"cli classify ({p},{s},{lam!r})"
        try:
            rec = json.loads(proc.stdout)
        except json.JSONDecodeError:
            raise CheckFailed(f"{where}: output is not JSON: {proc.stderr[-400:]}")
        unresolved = rec["phase"] == "Unresolved"
        require(proc.returncode == (2 if unresolved else 0),
                f"{where}: exit code {proc.returncode} for phase {rec['phase']}")
        ref = phases.classify(p, s, lam)
        require(rec["phase"] == ref.phase and rec["energy"] == ref.energy,
                f"{where}: CLI says {rec['phase']} {rec['energy']!r}, "
                f"in-process {ref.phase} {ref.energy!r}")
        b = phases.boundaries(p, s)
        if unresolved:
            self.tally.classification(ref)
        else:
            require(rec["report"]["pass"], f"{where}: report does not pass")
            self.tally.classification(ref, band_phase(b, lam),
                                      distance_to_boundary(b, lam), where)

    def _check_sweep(self, p, s, out, proc):
        where = f"cli sweep ({p},{s})"
        require(proc.returncode == 0,
                f"{where}: exit code {proc.returncode}: {proc.stderr[-400:]}")
        lines = out.read_text().splitlines()
        require(lines and lines[0] == "# parisi-zero v1",
                f"{where}: missing schema line")
        header = lines[1].split(",")
        rows = [dict(zip(header, ln.split(","))) for ln in lines[2:]]
        dat = out.with_suffix(".dat").read_text().splitlines()
        require(len(dat) == len(rows) + 1, f"{where}: .dat has {len(dat)} lines")
        require(f"wrote {len(rows)} rows" in proc.stdout,
                f"{where}: unexpected stdout {proc.stdout!r}")
        b = phases.boundaries(p, s)
        for row in rows:
            lam = float(row["lambda"])
            ref = phases.classify(p, s, lam)
            energy = float(row["energy"]) if row["energy"] else None
            require(row["phase"] == ref.phase and energy == ref.energy,
                    f"{where} at {lam!r}: row says {row['phase']} {energy!r}, "
                    f"in-process {ref.phase} {ref.energy!r}")
            self.tally.classification(ref, band_phase(b, lam),
                                      distance_to_boundary(b, lam),
                                      f"{where} at {lam!r}")
        return rows


WORKLOADS = {w.name: w for w in (FamilyScan, LambdaSweep, OracleCrosscheck,
                                  CliCold)}
