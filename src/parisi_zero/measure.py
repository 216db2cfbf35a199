"""Piecewise candidate measures and their closed-form constructions.

A measure nu on [0, 1] is stored as an ordered partition of [0, 1) into
segments carrying either a constant density value or the distinguished
increasing density 0.5 * xi'''(x) * xi''(x)**-1.5 ("full" kind, stored
symbolically so no discretization ever enters, its tail is the exact
xi''(x)**-0.5), plus an atom at 1. Membership in the optimization cone
means: density nonnegative and nondecreasing across the whole of [0, 1),
atom strictly positive.

The step measures come from build_rs, build_1rsb and build_2rsb. Every
measure with a continuous part has one shape, a plateau, the full
density, a plateau, then the atom; build_mixed(m, q1, q2) builds it, and
the OneFRSB, TwoFRSB and FRSB phases differ only in which plateaus are
empty. Constructors re-verify their defining equations and refuse to
build when a residual exceeds 1e-9; near a phase boundary they fail
loudly rather than return a measure that cannot be certified.

The cone check is exact: the full density increases where
2 xi'' xi'''' >= 3 xi'''^2, and for a two-term mixture that expression is
x^(2p-6) Q(x^(s-p)) with Q a concave quadratic, so its least value on a
segment sits at one of the segment's two ends.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import criteria
from .mixture import Mixture, xi_deriv

__all__ = [
    "Segment",
    "ParisiMeasure",
    "wtilde",
    "tail_mass",
    "density",
    "build_rs",
    "build_1rsb",
    "build_2rsb",
    "build_mixed",
    "to_json_dict",
    "from_json_dict",
]

_RESIDUAL_TOL = 1e-9
# the cone's slacks; the all-family ladder read the same table with each x10, /10
_PLATEAU_SLACK = 1e-12  # between O(1) closed forms, good to a few hundred eps
_FULL_SLACK = 1e-9  # relative: read via xi''^-1.5; the curvature cancels as it flattens
_END_INSET = 1e-12  # a full segment ending at 1 is read this far inside; smooth there


@dataclass(frozen=True)
class Segment:
    lo: float
    hi: float
    kind: str  # "const" | "full"
    value: float | None = None  # density for "const", None for "full"


@dataclass(frozen=True)
class ParisiMeasure:
    """Density segments partitioning [0, 1) plus an atom at 1."""

    segments: tuple[Segment, ...]
    atom: float


def wtilde(m: Mixture, x):
    """The full-kind density 0.5 * xi'''(x) * xi''(x)**-1.5."""
    return _wtilde(xi_deriv(m, x, 2), xi_deriv(m, x, 3))


def _wtilde(d2, d3):
    if np.ndim(d3) == 0 and float(d3) == 0.0:
        return 0.0  # x = 0 with p > 3: the zero numerator wins
    # np.power, not a float's **: a float gets the array path's bits
    w = 0.5 * d3 * np.power(d2, -1.5)
    return float(w) if np.ndim(w) == 0 else w


def _check_partition(segs, atom) -> None:
    # the schema of every measure, built or read: forward, contiguous
    # segments covering [0, 1), finite constant values >= 0, and a
    # positive, finite atom
    if not 0.0 < atom < math.inf:
        raise ValueError(f"atom must be positive and finite, got {atom}")
    prev_hi = 0.0
    for seg in segs:
        if seg.kind not in ("const", "full"):
            raise ValueError(f"unknown segment kind {seg.kind!r}")
        if seg.lo != prev_hi or not seg.lo < seg.hi:
            raise ValueError(f"segments must partition [0, 1) in order, got {seg}")
        if seg.kind == "const" and not (seg.value is not None
                                        and 0.0 <= seg.value < math.inf):
            raise ValueError(f"constant segment needs a finite value >= 0, got {seg}")
        prev_hi = seg.hi
    if prev_hi != 1.0:
        raise ValueError("segments must partition [0, 1)")


def _structure_check(nu: ParisiMeasure, m: Mixture):
    # cone membership: a partition with a nondecreasing density
    _check_partition(nu.segments, nu.atom)
    prev_val = 0.0
    for seg in nu.segments:
        if seg.kind == "const":
            if seg.value < prev_val - _PLATEAU_SLACK:
                raise ValueError("density must be nondecreasing")
            prev_val = seg.value
            continue
        ends = (seg.lo, min(seg.hi, 1 - _END_INSET))
        ds = [[xi_deriv(m, x, k) for k in (2, 3, 4)] for x in ends]
        w_lo, w_hi = (_wtilde(d2, d3) for d2, d3, _ in ds)
        if w_lo < prev_val - _FULL_SLACK * max(1.0, prev_val):
            raise ValueError("density must be nondecreasing into a full segment")
        # increasing inside iff 2 xi'' xi'''' >= 3 xi'''^2, tested at the
        # two ends only (exact, see the module docstring)
        curv = [2 * d2 * d4 - 3 * (d3 * d3) for d2, d3, d4 in ds]
        if min(curv) < -_FULL_SLACK * max(1.0, *map(abs, curv)):
            raise ValueError("full density is not increasing on this span")
        prev_val = w_hi
    return nu


def tail_mass(nu: ParisiMeasure, m: Mixture, x):
    """nu((x, 1]) in closed form; equals the atom at x = 1.

    Inside a calibrated full segment this is xi''(x)**-0.5 exactly, since
    the full contribution telescopes against the constant tail beyond it.
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x}")
    total = nu.atom
    for seg in reversed(nu.segments):
        if x >= seg.hi:
            break
        lo = max(x, seg.lo)
        if seg.kind == "const":
            total += seg.value * (seg.hi - lo)
        else:
            total += xi_deriv(m, lo, 2) ** -0.5 - xi_deriv(m, seg.hi, 2) ** -0.5
    return total


def density(nu: ParisiMeasure, m: Mixture, x):
    """The density at x in [0, 1) (the atom is not part of the density)."""
    if not 0.0 <= x < 1.0:
        raise ValueError(f"x must lie in [0, 1), got {x}")
    for seg in nu.segments:
        if x < seg.hi:
            return seg.value if seg.kind == "const" else wtilde(m, x)
    raise ValueError(f"no segment covers {x}")  # unreachable on valid measures


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def build_rs(m: Mixture) -> ParisiMeasure:
    """Zero density, atom xi'(1)**-0.5 (the symmetric candidate)."""
    return _structure_check(
        ParisiMeasure((Segment(0.0, 1.0, "const", 0.0),), xi_deriv(m, 1.0, 1) ** -0.5), m)


def build_1rsb(m: Mixture, z: float) -> ParisiMeasure:
    """One-step measure: constant z*Delta on [0,1), atom Delta.

    Delta = ((1+z) xi'(1))**-0.5; normalization holds by the closed-form
    identity 1/((1+z) Delta^2) = xi'(1).
    """
    if not z > 0:
        raise ValueError(f"one-step construction needs z > 0, got {z}")
    a = xi_deriv(m, 1.0, 1)
    if not abs(criteria.c_log(z) - 1.0 / a) <= _RESIDUAL_TOL:
        raise ValueError("z does not solve the tilt equation for this mixture")
    delta = 1.0 / math.sqrt((1 + z) * a)
    return _structure_check(
        ParisiMeasure((Segment(0.0, 1.0, "const", z * delta),), delta), m)


def build_2rsb(m: Mixture, q: float, z1: float, z2: float) -> ParisiMeasure:
    """Two-step measure from the stationarity solution (q, z1, z2).

    The atom is recovered from the normalization condition,
    Delta^2 = [q/((1+z2)(1+z1+z2)) + (1-q)/(1+z2)] / xi'(1); the two
    plateau densities are then k1 = z1*Delta/q and k2 = z2*Delta/(1-q).
    """
    k = criteria._kernel(m, q)
    f1, f2 = criteria._f12(q, z2, k)
    if not (abs(f1) <= _RESIDUAL_TOL and abs(f2) <= _RESIDUAL_TOL):
        raise ValueError(f"(q, z2) does not solve the two-level system: "
                         f"residuals {f1:.2e}, {f2:.2e}")
    a = xi_deriv(m, 1.0, 1)
    if not (a * q / k[1] < 1 + z2 < k[2] / xi_deriv(m, q, 2)):
        raise ValueError("tilt z2 falls outside the admissible window at q")
    if not z1 > 0:
        raise ValueError(f"two-step construction needs z1 > 0, got {z1}")
    delta = math.sqrt((q / ((1 + z2) * (1 + z1 + z2)) + (1 - q) / (1 + z2)) / a)
    k1 = z1 * delta / q
    k2 = z2 * delta / (1 - q)
    if not k1 < k2:
        raise ValueError("two-step densities must increase, got k1 >= k2")
    return _structure_check(
        ParisiMeasure((Segment(0.0, q, "const", k1), Segment(q, 1.0, "const", k2)),
                      delta), m)


def build_mixed(m: Mixture, q1: float, q2: float) -> ParisiMeasure:
    """Plateau on [0, q1), full density on [q1, q2), plateau on [q2, 1), atom.

    0 <= q1 < q2 <= 1. q1 = 0 drops the lower plateau, which only p = 2
    allows (xi''(0) = 0 otherwise); q2 = 1 drops the upper one, and the
    atom is then xi''(1)**-0.5. A lower plateau needs h12(q1) = 0 and an
    open window at q1, an upper one h22(q2) = 0, its value N / (D1
    sqrt(xi''(q2))) and the atom sqrt(xi''(q2)) / D1 read from criteria's
    exact D1 and N = (D1 - xi'') / (1 - q2), which do not cancel as q2 -> 1;
    these closed forms calibrate the tail to xi''(x)**-0.5 across [q1, q2],
    an identity in q2 that the verifier's tables judge.
    """
    if not 0.0 <= q1 < q2 <= 1.0:
        raise ValueError(f"need 0 <= q1 < q2 <= 1, got {q1}, {q2}")
    segs = []
    if q1 > 0.0:
        h12 = criteria._window(m, q1, first=False, one=True)
        if not abs(h12) <= _RESIDUAL_TOL:
            raise ValueError(f"q1 does not solve its defining equation: {h12:.2e}")
        x1, x2 = xi_deriv(m, q1, 1), xi_deriv(m, q1, 2)
        if not criteria._d1(m, q1) / x2 > xi_deriv(m, 1.0, 1) * q1 / x1:
            raise ValueError("window closed at q1; no mixed measure here")
        segs.append(Segment(0.0, q1, "const",
                            (q1 * x2 - x1) / (q1 * x1 * math.sqrt(x2))))
    elif m.p != 2 or m.is_pure:
        raise ValueError("a full density from 0 requires a p = 2 mixture")
    segs.append(Segment(q1, q2, "full"))
    if q2 < 1.0:
        h22 = criteria._h22(m, q2)
        if not abs(h22) <= _RESIDUAL_TOL:
            raise ValueError(f"q2 does not solve its defining equation: {h22:.2e}")
        r2, d1 = math.sqrt(xi_deriv(m, q2, 2)), criteria._d1(m, q2)
        atom = r2 / d1
        segs.append(Segment(q2, 1.0, "const", criteria._nfun(m, q2) / (r2 * d1)))
    else:
        atom = xi_deriv(m, 1.0, 2) ** -0.5
    return _structure_check(ParisiMeasure(tuple(segs), atom), m)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def to_json_dict(nu: ParisiMeasure) -> dict:
    segs = []
    for seg in nu.segments:
        d = {"lo": seg.lo, "hi": seg.hi, "kind": seg.kind}
        if seg.kind == "const":
            d["value"] = seg.value
        segs.append(d)
    return {"segments": segs, "atom": nu.atom}


def from_json_dict(d: dict) -> ParisiMeasure:
    try:
        segs = tuple(Segment(float(s["lo"]), float(s["hi"]), str(s["kind"]),
                             float(s["value"]) if s["kind"] == "const" else None)
                     for s in d["segments"])
        atom = float(d["atom"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed measure dict: {exc}") from exc
    # the schema is checked here, not on the dataclasses, which stay raw
    # so deliberately broken measures can be fed to the verifier in tests
    _check_partition(segs, atom)
    return ParisiMeasure(segs, atom)

