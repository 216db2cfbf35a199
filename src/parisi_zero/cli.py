"""Command-line interface: classify, boundaries, sweep, verify, oracle.

Machine-readable by default: JSON to stdout (or CSV with --format csv),
sweeps to versioned CSV files plus a gnuplot-ready .dat companion. Exit
codes: 0 success, 2 an Unresolved classification, a failing verifier
report or a verified measure outside the optimisation cone, 1 usage or
input errors. The verifier tolerance defaults to 1e-7
and can be overridden per call with --tol or globally with the
PARISI_TOL environment variable; either must be a finite number > 0.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys

import numpy as np

from .energy import verify_parisi
from .measure import _structure_check, from_json_dict, to_json_dict
from .mixture import make_mixture
from .oracle import oracle_profile
from .phases import boundaries, boundary_lambdas, classify

SCHEMA_TAG = "# parisi-zero v1"
PHASE_INDEX = {"RS": 0, "OneRSB": 1, "TwoRSB": 2, "TwoFRSB": 3,
               "OneFRSB": 4, "FRSB": 5, "Unresolved": -1}
SWEEP_COLUMNS = ("p", "s", "lambda", "phase", "energy", "boundary_flags",
                 "z", "q", "z1", "z2", "q1", "q2", "q_P",
                 "normalization_error", "min_g", "support_residual")
_NEAR_FLAG = 1e-6  # rows this close to a boundary are flagged, never dropped
_MAX_GRID = 1_000_000  # sweep points; at a few ms a point, hours of work


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; 2 is reserved for Unresolved here
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _dump(obj) -> None:
    # encoded whole before the one write, so a refused record leaves stdout
    # empty; JSON has no NaN or Infinity, so a non-finite number is refused
    sys.stdout.write(json.dumps(obj, indent=2, allow_nan=False) + "\n")


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def _emit_csv(rows, header, out):
    out.write(SCHEMA_TAG + "\n")
    out.write(",".join(header) + "\n")
    for row in rows:
        out.write(",".join(_fmt(row.get(c)) for c in header) + "\n")


def _row(p, s, lam, cl, blams) -> dict:
    flags = []
    if any(abs(lam - lb) <= _NEAR_FLAG for lb in blams):
        flags.append("near_boundary")
    if cl.on_boundary:
        flags.append("on_boundary")
    if cl.low_s_unproven:
        flags.append("low_s_unproven")
    params = cl.params or {}
    rep = cl.report
    return {
        "p": p, "s": s, "lambda": lam, "phase": cl.phase,
        "energy": cl.energy, "boundary_flags": ";".join(flags),
        "z": params.get("z"), "q": params.get("q"),
        "z1": params.get("z1"), "z2": params.get("z2"),
        "q1": params.get("q1"), "q2": params.get("q2"),
        "q_P": params.get("q_P"),
        "normalization_error": rep.normalization_error if rep else None,
        "min_g": rep.min_g if rep else None,
        "support_residual": rep.support_residual if rep else None,
    }


def _cmd_classify(args, tol) -> int:
    cl = classify(args.p, args.s, args.lam, tol=tol)
    blams = ()
    mm = make_mixture(args.p, args.s, args.lam)
    if not mm.is_pure:
        blams = boundary_lambdas(boundaries(args.p, args.s))
    if args.format == "csv":
        _emit_csv([_row(args.p, args.s, args.lam, cl, blams)],
                  SWEEP_COLUMNS, sys.stdout)
    else:
        out = {
            "p": args.p, "s": args.s, "lambda": args.lam,
            "phase": cl.phase, "params": cl.params,
            "on_boundary": cl.on_boundary,
            "low_s_unproven": cl.low_s_unproven,
            "detail": cl.detail,
            "energy": cl.energy,
            "report": cl.report.to_dict() if cl.report else None,
            "measure": to_json_dict(cl.measure) if cl.measure else None,
            "tolerance": tol,
        }
        _dump(out)
    return 2 if cl.phase == "Unresolved" else 0


def _cmd_boundaries(args, tol) -> int:
    b = boundaries(args.p, args.s)
    if args.format == "csv":
        rows = [{"name": "regime", "value": b.regime.tag, "residual": None}]
        for group in (b.p2, b.general):
            for k, v in (group or {}).items():
                res = b.diagnostics.get("residual_" + k.removeprefix("lambda_"))
                rows.append({"name": k, "value": v, "residual": res})
        _emit_csv(rows, ("name", "value", "residual"), sys.stdout)
    else:
        out = {
            "p": args.p, "s": args.s,
            "regime": {"tag": b.regime.tag,
                       "diagnostics": b.regime.diagnostics},
            "p2": b.p2, "general": b.general,
            "diagnostics": b.diagnostics,
        }
        _dump(out)
    return 0


_BAD_GRID = "empty or malformed lambda grid"


def _parse_grid(spec: str, count):
    # (lo, hi, number of points), or why the spec is refused; allocates nothing
    parts = spec.split(":")
    try:
        if len(parts) == 3:
            lo, hi, step = (float(t) for t in parts)
            if step <= 0 or hi < lo:
                return _BAD_GRID
            steps = (hi - lo) / step
            n = int(round(steps))
            if abs(steps - n) > 1e-9 * max(1, n):
                return (f"lambda grid step {parts[2]} does not divide "
                        f"{parts[1]} - {parts[0]}")
            n += 1
        elif len(parts) == 2 and count:
            lo, hi = (float(t) for t in parts)
            n = int(count)
            if n < 1 or hi < lo:
                return _BAD_GRID
        else:
            return _BAD_GRID
    except (ValueError, OverflowError):
        return _BAD_GRID
    return lo, hi, n


def _sweep_point(job):
    p, s, lam, tol, blams = job
    cl = classify(p, s, lam, tol=tol)
    return _row(p, s, lam, cl, blams)


def _cmd_sweep(args, tol) -> int:
    if args.jobs < 1:
        print(f"sweep: --jobs must be at least 1, got {args.jobs}",
              file=sys.stderr)
        return 1
    spec = _parse_grid(args.lambda_grid, args.count)
    if isinstance(spec, str):
        print(f"sweep: {spec}", file=sys.stderr)
        return 1
    if spec[2] > _MAX_GRID:
        print(f"sweep: lambda grid of {spec[2]} points exceeds the "
              f"{_MAX_GRID}-point limit", file=sys.stderr)
        return 1
    grid = np.linspace(*spec)
    blams = boundary_lambdas(boundaries(args.p, args.s))
    jobs = [(args.p, args.s, float(l), tol, blams) for l in grid]
    # fork starts every worker at the first submit: no more than points
    workers = min(args.jobs, len(jobs))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_point, jobs,
                                 chunksize=max(1, len(jobs) // (4 * workers))))
    else:
        rows = [_sweep_point(j) for j in jobs]
    try:
        with open(args.out, "w") as fh:
            _emit_csv(rows, SWEEP_COLUMNS, fh)
        dat_path = os.path.splitext(args.out)[0] + ".dat"
        with open(dat_path, "w") as fh:
            fh.write("# lambda phase_index energy\n")
            for row in rows:
                e = row["energy"]
                fh.write(f"{_fmt(row['lambda'])} {PHASE_INDEX[row['phase']]} "
                         f"{_fmt(e) if e is not None else 'nan'}\n")
    except OSError as exc:
        print(f"sweep: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {len(rows)} rows to {args.out} and {dat_path}")
    return 0


def _cmd_verify(args, tol) -> int:
    try:
        with open(args.measure) as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"verify: cannot read measure file: {exc}", file=sys.stderr)
        return 1
    if isinstance(payload, dict) and "measure" in payload:
        payload = payload["measure"]  # accept a full classify record
    nu = from_json_dict(payload)  # a ValueError exits 1 through main
    m = make_mixture(args.p, args.s, args.lam)
    # the report proves optimality only inside the cone; a float error in
    # the check (xi''(0) = 0 under a full segment from 0) is left to the
    # report, which refuses such a measure
    try:
        with np.errstate(divide="ignore", invalid="ignore"):
            _structure_check(nu, m)
        cone = None
    except ValueError as exc:
        cone = exc
    # a tail that under- or overflows would make the report NaN or
    # infinite; numpy's float errors raise instead and refuse the measure
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            out = verify_parisi(m, nu, tol=tol).to_dict()
    except FloatingPointError as exc:
        raise ValueError(f"the certificate of this measure is not finite "
                         f"({exc})") from exc
    except ValueError:
        if cone is None:
            raise
        out = None  # its integrals fail to converge: the cone names why
    if cone is not None:
        if out is not None:
            out["pass"] = False
            _dump(out)
        print(f"verify: unproven, the measure is outside the optimisation "
              f"cone: {cone}", file=sys.stderr)
        return 2
    _dump(out)
    return 0 if out["pass"] else 2


def _cmd_oracle(args, tol) -> int:
    m = make_mixture(args.p, args.s, args.lam)
    prof = oracle_profile(m, args.kmax, restarts=args.restarts, seed=args.seed)
    best = prof.measures[-1]
    out = {
        "p": args.p, "s": args.s, "lambda": args.lam,
        "kmax": args.kmax, "restarts": args.restarts, "seed": args.seed,
        "energies": [{"k": k, "energy": e}
                     for k, e in enumerate(prof.energies)],
        "saturation": prof.saturation,
        "tag": prof.tag,
        "measure_kmax": {"jumps": [list(j) for j in best.jumps],
                         "atom": best.atom},
    }
    _dump(out)
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="parisi-zero",
                     description="Ground-state phase structure of "
                                 "two-exponent spherical mixtures.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, with_lambda=True):
        sp.add_argument("--p", type=int, required=True)
        sp.add_argument("--s", type=int, required=True)
        if with_lambda:
            sp.add_argument("--lambda", dest="lam", type=float, required=True)
        sp.add_argument("--tol", type=float, default=None,
                        help="verifier tolerance (default 1e-7 or PARISI_TOL)")

    sp = sub.add_parser("classify", help="resolve the phase at one point")
    common(sp)
    sp.add_argument("--format", choices=("json", "csv"), default="json")

    sp = sub.add_parser("boundaries", help="solve the family's boundary constants")
    common(sp, with_lambda=False)
    sp.add_argument("--format", choices=("json", "csv"), default="json")

    sp = sub.add_parser("sweep", help="classify a lambda grid into CSV + .dat")
    common(sp, with_lambda=False)
    sp.add_argument("--lambda-grid", required=True,
                    help="lo:hi:step, or lo:hi with --count")
    sp.add_argument("--count", type=int, default=None)
    sp.add_argument("--out", required=True)
    sp.add_argument("--jobs", type=int, default=1)

    sp = sub.add_parser("verify", help="run the optimality report on a measure file")
    common(sp)
    sp.add_argument("--measure", required=True,
                    help="path to a measure JSON (or a classify record)")

    sp = sub.add_parser("oracle", help="variational search profile over k levels")
    common(sp)
    sp.add_argument("--kmax", type=int, default=3)
    sp.add_argument("--restarts", type=int, default=16)
    sp.add_argument("--seed", type=int, default=0)
    return parser


_COMMANDS = {
    "classify": _cmd_classify,
    "boundaries": _cmd_boundaries,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
    "oracle": _cmd_oracle,
}


def _tolerance(args) -> float:
    """The verifier tolerance from --tol or PARISI_TOL, a finite number > 0."""
    where, raw = "--tol", args.tol
    if raw is None:
        where, raw = "PARISI_TOL", os.environ.get("PARISI_TOL", "1e-7")
    try:
        tol = float(raw)
    except ValueError:
        tol = math.nan
    if not 0.0 < tol < math.inf:
        raise ValueError(f"{where} must be a finite number > 0, got {raw!r}")
    return tol


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args, _tolerance(args))
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        # ArithmeticError: e.g. a measure file whose tail underflows to zero
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 1


def run() -> int:
    """The process entry: `parisi-zero` and `python -m parisi_zero.cli`.

    Runs main(), then freezes the heap however the command ended, so the
    cycle collections that interpreter shutdown forces skip every object
    alive by then (about 20 ms a process) while atexit handlers, stream
    flushes and module teardown still run. main() leaves the collector
    as it found it for callers in the same process.
    """
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
