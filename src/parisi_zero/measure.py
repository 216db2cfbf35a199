"""Piecewise candidate measures and the per-phase constructions.

A measure nu on [0, 1] is stored as an ordered partition of [0, 1) into
segments carrying either a constant density value or the distinguished
increasing density 0.5 * xi'''(x) * xi''(x)**-1.5 ("full" kind, stored
symbolically so no discretization ever enters, its tail is the exact
xi''(x)**-0.5), plus an atom at 1. Membership in the optimization cone
means: density nonnegative and nondecreasing across the whole of [0, 1),
atom strictly positive.

Constructors re-verify their defining equations and refuse to build when
a residual exceeds 1e-9; near a phase boundary they fail loudly rather
than return a measure that cannot be certified.
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
    "build_2frsb",
    "build_1frsb",
    "build_frsb",
    "to_json_dict",
    "from_json_dict",
]

_RESIDUAL_TOL = 1e-9


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
    d3 = xi_deriv(m, x, 3)
    if np.ndim(d3) == 0 and float(d3) == 0.0:
        return 0.0  # x = 0 with p > 3: the zero numerator wins
    return 0.5 * d3 * xi_deriv(m, x, 2) ** -1.5


def _structure_check(nu: ParisiMeasure, m: Mixture):
    # cone membership: contiguous partition, nondecreasing density, atom > 0
    if nu.atom <= 0:
        raise ValueError("atom must be positive")
    if not nu.segments or nu.segments[0].lo != 0.0 or nu.segments[-1].hi != 1.0:
        raise ValueError("segments must partition [0, 1)")
    prev_hi = 0.0
    prev_val = 0.0
    for seg in nu.segments:
        if seg.lo != prev_hi or not seg.lo < seg.hi <= 1.0:
            raise ValueError(f"segments must be contiguous, got {seg}")
        prev_hi = seg.hi
        if seg.kind == "const":
            if seg.value is None or seg.value < 0:
                raise ValueError(f"constant segment needs a value >= 0, got {seg}")
            if seg.value < prev_val - 1e-12:
                raise ValueError("density must be nondecreasing")
            prev_val = seg.value
        elif seg.kind == "full":
            grid = np.linspace(seg.lo, min(seg.hi, 1 - 1e-12), 64)
            vals = wtilde(m, grid)
            if vals[0] < prev_val - 1e-9 * max(1.0, prev_val):
                raise ValueError("density must be nondecreasing into a full segment")
            # increasing inside iff 2 xi'' xi'''' >= 3 xi'''^2
            curv = (2 * xi_deriv(m, grid, 2) * xi_deriv(m, grid, 4)
                    - 3 * xi_deriv(m, grid, 3) ** 2)
            scale = max(1.0, float(np.abs(curv).max()))
            if float(curv.min()) < -1e-9 * scale:
                raise ValueError("full density is not increasing on this span")
            prev_val = float(vals[-1])
        else:
            raise ValueError(f"unknown segment kind {seg.kind!r}")
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
            return seg.value if seg.kind == "const" else float(wtilde(m, x))
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
    if z <= 0:
        raise ValueError(f"one-step construction needs z > 0, got {z}")
    a = xi_deriv(m, 1.0, 1)
    if abs(criteria.c_log(z) - 1.0 / a) > _RESIDUAL_TOL:
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
    f1, f2 = criteria.f12(m, q, z2)
    if abs(f1) > _RESIDUAL_TOL or abs(f2) > _RESIDUAL_TOL:
        raise ValueError(f"(q, z2) does not solve the two-level system: "
                         f"residuals {f1:.2e}, {f2:.2e}")
    wa = xi_deriv(m, 1.0, 1) * q / xi_deriv(m, q, 1)
    wb = criteria._d1(m, q) / xi_deriv(m, q, 2)
    if not (wa < 1 + z2 < wb):
        raise ValueError("tilt z2 falls outside the admissible window at q")
    if z1 <= 0:
        raise ValueError(f"two-step construction needs z1 > 0, got {z1}")
    a = xi_deriv(m, 1.0, 1)
    delta = math.sqrt((q / ((1 + z2) * (1 + z1 + z2)) + (1 - q) / (1 + z2)) / a)
    k1 = z1 * delta / q
    k2 = z2 * delta / (1 - q)
    if not k1 < k2:
        raise ValueError("two-step densities must increase, got k1 >= k2")
    return _structure_check(
        ParisiMeasure((Segment(0.0, q, "const", k1), Segment(q, 1.0, "const", k2)),
                      delta), m)


def build_2frsb(m: Mixture, q1: float, q2: float) -> ParisiMeasure:
    """Constant, full, constant: the two-transition mixed measure.

    q1 and q2 must be the solved window roots (h12(q1) = 0, h22(q2) = 0);
    the closed forms for the plateaus and atom then calibrate the tail to
    xi''(x)**-0.5 across [q1, q2] automatically, which is re-checked here.
    """
    if not 0 < q1 < q2 < 1:
        raise ValueError(f"need 0 < q1 < q2 < 1, got {q1}, {q2}")
    h12, _ = criteria.eval_h2(m, q1)
    _, h22 = criteria.eval_h2(m, q2)
    if abs(h12) > _RESIDUAL_TOL or abs(h22) > _RESIDUAL_TOL:
        raise ValueError(f"(q1, q2) does not solve the defining equations: "
                         f"residuals {h12:.2e}, {h22:.2e}")
    a = xi_deriv(m, 1.0, 1)
    x1q2 = xi_deriv(m, q2, 1)
    x2q2 = xi_deriv(m, q2, 2)
    delta = math.sqrt(x2q2) * (1 - q2) / (a - x1q2)
    k2 = (a - x1q2 - x2q2 * (1 - q2)) / (math.sqrt(x2q2) * (a - x1q2) * (1 - q2))
    x1q1 = xi_deriv(m, q1, 1)
    x2q1 = xi_deriv(m, q1, 2)
    k1 = (q1 * x2q1 - x1q1) / (q1 * x1q1 * math.sqrt(x2q1))
    calib = abs(k2 * (1 - q2) + delta - x2q2 ** -0.5)
    if calib > _RESIDUAL_TOL:
        raise ValueError(f"tail calibration failed at q2: residual {calib:.2e}")
    nu = ParisiMeasure((Segment(0.0, q1, "const", k1),
                        Segment(q1, q2, "full"),
                        Segment(q2, 1.0, "const", k2)), delta)
    return _structure_check(nu, m)


def build_1frsb(m: Mixture, q1: float | None = None, variant: str = "above",
                q_P: float | None = None) -> ParisiMeasure:
    """One-transition mixed measure, in either orientation.

    "above": constant plateau below q1, full density on [q1, 1), atom
    xi''(1)**-0.5. "below" (the p = 2 shape): full density on [0, q_P),
    constant plateau a_P on [q_P, 1), atom Delta_P, with a_P and Delta_P
    sharing the closed forms of the two-transition construction taken at
    q_P.
    """
    if variant == "above":
        if q1 is None:
            raise ValueError("variant 'above' needs q1")
        h12, _ = criteria.eval_h2(m, q1)
        if abs(h12) > _RESIDUAL_TOL:
            raise ValueError(f"q1 does not solve its defining equation: {h12:.2e}")
        wa = xi_deriv(m, 1.0, 1) * q1 / xi_deriv(m, q1, 1)
        wb = criteria._d1(m, q1) / xi_deriv(m, q1, 2)
        if not wb > wa:
            raise ValueError("window closed at q1; no mixed measure here")
        x1q1 = xi_deriv(m, q1, 1)
        x2q1 = xi_deriv(m, q1, 2)
        k1 = (q1 * x2q1 - x1q1) / (q1 * x1q1 * math.sqrt(x2q1))
        nu = ParisiMeasure((Segment(0.0, q1, "const", k1),
                            Segment(q1, 1.0, "full")),
                           xi_deriv(m, 1.0, 2) ** -0.5)
        return _structure_check(nu, m)
    if variant == "below":
        if q_P is None:
            raise ValueError("variant 'below' needs q_P")
        _, h22 = criteria.eval_h2(m, q_P)
        if abs(h22) > _RESIDUAL_TOL:
            raise ValueError(f"q_P does not solve its defining equation: {h22:.2e}")
        a = xi_deriv(m, 1.0, 1)
        x1 = xi_deriv(m, q_P, 1)
        x2 = xi_deriv(m, q_P, 2)
        delta_p = math.sqrt(x2) * (1 - q_P) / (a - x1)
        a_p = (a - x1 - x2 * (1 - q_P)) / (math.sqrt(x2) * (a - x1) * (1 - q_P))
        nu = ParisiMeasure((Segment(0.0, q_P, "full"),
                            Segment(q_P, 1.0, "const", a_p)), delta_p)
        return _structure_check(nu, m)
    raise ValueError(f"variant must be 'above' or 'below', got {variant!r}")


def build_frsb(m: Mixture) -> ParisiMeasure:
    """Full density on all of [0, 1), atom xi''(1)**-0.5.

    Only meaningful when the full density is nondecreasing from 0, which
    requires p = 2 and the mixture to sit at or beyond the full-type onset
    (2 xi'' xi'''' >= 3 xi'''^2 on [0, 1)); checked, and refused otherwise.
    """
    if m.p != 2 or m.is_pure:
        raise ValueError("the everywhere-full measure requires a p = 2 mixture")
    nu = ParisiMeasure((Segment(0.0, 1.0, "full"),), xi_deriv(m, 1.0, 2) ** -0.5)
    return _structure_check(nu, m)


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
    # schema checks live here, not on the dataclasses, which stay raw so
    # deliberately broken measures can be fed to the verifier in tests
    for seg in segs:
        if seg.kind not in ("const", "full"):
            raise ValueError(f"unknown segment kind {seg.kind!r}")
    if not segs or segs[0].lo != 0.0 or segs[-1].hi != 1.0:
        raise ValueError("segments must partition [0, 1)")
    for a, b in zip(segs, segs[1:]):
        if a.hi != b.lo:
            raise ValueError(f"segments not contiguous at {a.hi}")
    if not atom > 0.0:
        raise ValueError(f"atom must be positive, got {atom}")
    return ParisiMeasure(segs, atom)

