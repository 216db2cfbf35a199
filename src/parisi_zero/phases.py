"""Regime detection, phase-boundary constants, pointwise classification.

A (p, s) family falls into one of five regimes decided by a sign chain
on two lambda-quadratics and the slope function Psi. Within a regime the
phase boundaries in lambda are solved here once, each in closed form or
as one Brent root of a number the criteria compute, and those where a
window pair meets are certified by that pair's residual below 1e-7.
classify() then resolves a single (p, s, lambda): every pure model but
RS at exponent 2, and every mixture with p >= 3, walks one test chain,
one-step -> two-step -> two-transition -> one-transition (p = 2 mixtures
take their tilt and plateau tests), builds the winning candidate
measure, and returns a phase only once the optimality verifier passes;
anything else comes back as Unresolved with the reason attached.

Boundary ownership: inputs within 1e-9 of a solved boundary are shifted
to the low-lambda side (boundaries are measure zero; the shift is
flagged, never silent).
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from . import criteria
from ._solve import brentq
from .energy import VerificationReport, verify_parisi
from .measure import (ParisiMeasure, build_1rsb, build_2rsb, build_mixed,
                      build_rs)
from .mixture import Mixture, make_mixture, xi_deriv

__all__ = ["Regime", "PhaseBoundaries", "Classification", "regime",
           "boundaries", "classify", "boundary_lambdas", "interval_phase"]

_ZETA_FLOOR = 1e-11  # zeta vanishes identically at both endpoints; the
# interior maximum is tested against this, never against strict negativity
_OWN_EPS = 1e-9
_SYSTEM_TOL = 1e-7
# the paper's scenarios: a regime's phases and boundary keys, in lambda order
_SCENARIOS = {
    "AllOneRSB": ("OneRSB",),
    "P2Family": ("OneRSB", "lambda_1to1F", "OneFRSB", "lambda_1Fto1", "FRSB"),
    "TwoPhase": ("OneRSB", "lambda_1to2", "TwoRSB", "lambda_2to1", "OneRSB"),
    "FourPhase": ("OneRSB", "lambda_1to2", "TwoRSB", "lambda_2to2F", "TwoFRSB",
                  "lambda_2to1F", "OneFRSB", "lambda_2to1", "OneRSB"),
}


@dataclass(frozen=True)
class Regime:
    tag: str  # P2Family | Pure | AllOneRSB | TwoPhase | FourPhase
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class PhaseBoundaries:
    regime: Regime
    p2: dict | None = None       # lambda_1to1F, lambda_1Fto1
    general: dict | None = None  # lambda_1to2, lambda_2to2F, lambda_2to1F, lambda_2to1
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Classification:
    phase: str  # RS | OneRSB | TwoRSB | OneFRSB | TwoFRSB | FRSB | Unresolved
    params: dict
    measure: ParisiMeasure | None
    energy: float | None
    report: VerificationReport | None
    on_boundary: bool = False
    low_s_unproven: bool = False
    detail: str | None = None


def regime(p: int, s: int) -> Regime:
    """Which of the five structural regimes the (p, s) family belongs to."""
    make_mixture(p, s, 1.0 if p == s else 0.5)  # admissibility
    if p == s:
        return Regime("Pure")
    if p == 2:
        return Regime("P2Family")
    qr = criteria.lambda_stars(p, s)
    diag = {"discriminant": qr.b * qr.b - 4 * qr.a * qr.c,
            "discriminant_compact": qr.shortcut}
    if qr.roots is None:
        return Regime("AllOneRSB", diag)
    l1, l2 = qr.roots
    psi1 = criteria.psi(p, s, l1)
    diag.update(lambda_star=(l1, l2), psi_at_lambda_star1=psi1)
    if psi1 < 0:
        return Regime("AllOneRSB", diag)
    sr = criteria.s_roots(p, s)
    if sr.roots is None:
        return Regime("TwoPhase", diag)
    psi2f = criteria.psi(p, s, sr.roots[0])
    diag.update(lambda_2to1F_candidate=sr.roots[0], psi_at_lambda_2to1F=psi2f)
    return Regime("TwoPhase" if psi2f <= 0 else "FourPhase", diag)


# ---------------------------------------------------------------------------
# boundary solving
# ---------------------------------------------------------------------------


def _two_step_window(lm: criteria.Landmarks) -> bool:
    return (None not in (lm.q11, lm.q21, lm.q12, lm.q22)
            and lm.q21 > lm.q11 and lm.q22 < lm.q12)


def _gap(lo, hi):
    # signed gap between two window roots; None where either is absent or
    # hi is pinned at 1, a sentinel rather than a root
    return None if lo is None or hi is None or hi >= 1.0 else hi - lo


def _root(key, f, lo, hi, **kw):
    # brentq on the defining function of lambda_<key>: a bracket without a
    # sign change is a failed solve, which classify reports as Unresolved
    try:
        return brentq(f, lo, hi, **kw)
    except ValueError as exc:
        raise RuntimeError(f"lambda_{key} not bracketed: {exc}") from exc


def _certify_pair(key, pair_fn, p, s, lam, x, n, diag):
    # lambda_<key> holds only where both functions of its window pair
    # vanish at one place x (None: no place was read at lam)
    res = (math.inf if x is None
           else float(np.abs(pair_fn(make_mixture(p, s, lam), x)).sum()))
    if not res <= _SYSTEM_TOL:
        raise RuntimeError(f"lambda_{key} residual {res:.2e} too large")
    diag.update({f"x_star_{key}": x, f"residual_{key}": res,
                 f"evaluations_{key}": n})
    return lam


def _p2_boundaries(s: int, reg: Regime) -> PhaseBoundaries:
    lam_f = s * s * (s - 1) / ((s - 2) * (s * s + s + 6))
    # lambda_1to1F, where 2 lam z = s (1 - lam) at lam's tilt z: with lam =
    # s / (s + 2z), xi'(1) = 2s(1 + z) / (s + 2z), so z solves c(z) =
    # 1 / xi'(1). c's excess over 1 / xi'(1) is z (1/3 - 1/s) + O(z^2)
    # near 0, so s = 3 has no root; the bracket is lam in [1e-3, 0.999]
    zs = []  # every z the solve read

    def excess(z):
        zs.append(z)
        return criteria.c_log(z) - (s + 2 * z) / (2 * s * (1 + z))

    lo, hi = (s * (1 - t) / (2 * t) for t in (1 - 1e-3, 1e-3))
    lam_1to1f = res_entry = None
    if (f_lo := excess(lo)) > 0.0:
        z = _root("1to1F", excess, lo, hi, xtol=1e-13, fa=f_lo)
        lam_1to1f = s / (s + 2 * z)
        res_entry = abs(2 * lam_1to1f * criteria.solve_z(
            make_mixture(2, s, lam_1to1f)) - s * (1 - lam_1to1f))
    diag = {"residual_1to1F": res_entry, "evaluations_1to1F": len(zs),
            "onset_quadratic_at_1Fto1": criteria.s_of(2, s, lam_f)}
    return PhaseBoundaries(reg, p2={"lambda_1to1F": lam_1to1f,
                                    "lambda_1Fto1": lam_f},
                           diagnostics=diag)


@lru_cache(maxsize=None)
def boundaries(p: int, s: int) -> PhaseBoundaries:
    """All phase-boundary lambdas of the family, solved and certified.

    Cached per (p, s). lambda_2to1F (the onset quadratic's first root)
    and lambda_1Fto1 are closed forms; each other constant is one Brent
    root: lambda_2to1 of Psi above l1, the lambda-quadratic's first root;
    lambda_1to2 of zeta's largest interior maximum, the one-step test's
    number, below l1; lambda_2to2F of the gap q22 - q12 in [l1,
    lambda_2to1F]; lambda_1to1F of p = 2's tilt equation in z (see
    _p2_boundaries). The window pairs certify two of them: h11
    and h21 at zeta's peak, h12 and h22 midway between q12 and q22 must
    vanish within 1e-7. A failed solve raises RuntimeError. The
    diagnostics hold each one's place, residual and evaluation count.
    """
    reg = regime(p, s)
    if reg.tag == "Pure" or reg.tag == "AllOneRSB":
        return PhaseBoundaries(reg)
    if reg.tag == "P2Family":
        return _ordered(_p2_boundaries(s, reg))

    l1, l2 = criteria.lambda_stars(p, s).roots
    psi_at = lambda t: criteria.psi(p, s, t)
    lam_2to1 = _root("2to1", psi_at, l1, min(l2, 1 - 1e-12), xtol=1e-13)
    diag = {"psi_at_2to1": criteria.psi(p, s, lam_2to1),
            "lambda_1to2_psi_zero": _root("1to2_psi_zero", psi_at, 1e-6, l1,
                                          xtol=1e-13)}

    peaks = {}  # lambda -> zeta's peak there, (value, place) or None

    def peak(t):
        m = make_mixture(p, s, t)
        peaks[t] = pk = _zeta_peak(m, criteria.solve_z(m))
        return -1.0 if pk is None else pk[0]

    lam = _root("1to2", peak, 1e-3, l1, xtol=1e-13)
    x = None if peaks[lam] is None else peaks[lam][1]
    general = {"lambda_1to2": _certify_pair("1to2", criteria.eval_h1, p, s,
                                            lam, x, len(peaks), diag),
               "lambda_2to1": lam_2to1}
    if reg.tag == "FourPhase":
        lam_2to1f = criteria.s_roots(p, s).roots[0]
        window = {}  # lambda -> landmarks there

        def gap(t):
            window[t] = lm = criteria.landmarks(make_mixture(p, s, t))
            g = _gap(lm.q12, lm.q22)
            return 1.0 if g is None else g  # q22 at 1 (or absent): past it

        lam = _root("2to2F", gap, l1, lam_2to1f, xtol=1e-13)
        lm = window[lam]
        x = None if None in (lm.q12, lm.q22) else 0.5 * (lm.q12 + lm.q22)
        diag["onset_quadratic_at_2to1F"] = criteria.s_of(p, s, lam_2to1f)
        general.update(lambda_2to2F=_certify_pair(
            "2to2F", criteria.eval_h2, p, s, lam, x, len(window), diag),
            lambda_2to1F=lam_2to1f)
    return _ordered(PhaseBoundaries(reg, general=general, diagnostics=diag))


def _chain(b: PhaseBoundaries) -> list[float]:
    # the solved constants in their scenario's order, None skipped
    vals = b.p2 or b.general or {}
    return [v for k in _SCENARIOS.get(b.regime.tag, ())[1::2]
            if (v := vals[k]) is not None]


def _ordered(b: PhaseBoundaries) -> PhaseBoundaries:
    # the solved constants rise in their scenario's order inside (0, 1]
    chain = [0.0, *_chain(b)]
    if not all(lo < hi <= 1.0 for lo, hi in zip(chain, chain[1:])):
        raise RuntimeError(f"{b.regime.tag} boundary ordering violated")
    return b


def boundary_lambdas(b: PhaseBoundaries) -> tuple[float, ...]:
    """The family's interior boundary lambdas, ascending (scenario order)."""
    return tuple(v for v in _chain(b) if 0.0 < v < 1.0)


def interval_phase(p: int, s: int, lam: float) -> str:
    """The phase the paper's scenario for (p, s) puts at lam: on a boundary
    the lower side's, and for a pure model RS at exponent 2, else OneRSB."""
    m = make_mixture(p, s, lam)
    if m.is_pure:
        return "RS" if m.exponent == 2 else "OneRSB"
    b = boundaries(p, s)
    return _SCENARIOS[b.regime.tag][2 * bisect_left(boundary_lambdas(b), lam)]


# ---------------------------------------------------------------------------
# pointwise classification
# ---------------------------------------------------------------------------


def _zeta_peak(m: Mixture, z: float):
    """zeta's largest interior maximum as (value, place), None if none.

    Only K's + to - roots, zeta's interior maxima, are refined: zeta' =
    xi''(x) (1 - x) K(x) / (xi'(1) + z xi'(x)), K = xi'(1) + z xi' - D1."""
    a = xi_deriv(m, 1.0, 1)
    roots = criteria._sign_roots(
        lambda x: a + z * xi_deriv(m, x, 1) - criteria._d1(m, x),
        0.0, 1.0, n=1025, falling=True)
    return max(((float(criteria._zeta_at(m, r, z, a)), r) for r in roots),
               default=None)


def _zeta_max(m: Mixture, z: float) -> float:
    """zeta's maximum on [0, 1], 0 at least (zeta(0) = zeta(1) = 0)."""
    peak = _zeta_peak(m, z)
    return 0.0 if peak is None else max(0.0, peak[0])


def _solve_two_step(m: Mixture, lm: criteria.Landmarks):
    seen = {}  # q -> (z2, kernel) at every q phi was evaluated at

    def phi(q):  # f1 at the tilt z2 that zeroes f2 at q
        k = criteria._kernel(m, q)
        z2 = criteria._c_inv(k[3] / k[2])
        seen[q] = z2, k
        return criteria._f1(q, z2, k)

    lo = max(lm.q11, lm.q22) + 1e-13
    hi = min(lm.q21, lm.q12) - 1e-13
    if not lo < hi:
        raise ValueError("two-step bracket is empty")
    f_lo, f_hi = phi(lo), phi(hi)
    if f_lo * f_hi > 0:
        raise ValueError(f"two-step stationarity function has no sign change "
                         f"on [{lo!r}, {hi!r}]")
    q = brentq(phi, lo, hi, xtol=1e-14, rtol=8.9e-16, fa=f_lo, fb=f_hi)
    z2, k = seen[q]
    z1 = q * k[2] / k[1] - 1.0 - z2
    return q, z1, z2


def _certify(m, nu, phase, params, tol):
    rep = verify_parisi(m, nu, tol)
    if not rep.passed:
        return Classification(
            "Unresolved", {}, None, None, rep,
            detail=(f"{phase} candidate failed certification: "
                    f"normalization {rep.normalization_error:.2e}, "
                    f"min g {rep.min_g:.2e}, "
                    f"support {rep.support_residual:.2e}"))
    return Classification(phase, params, nu, rep.energy, rep)


def _plateau_point(m: Mixture):
    # first root of h22 in (0, 1), certified against h22's rounding
    # floor; else None
    h22 = lambda x: criteria._h22(m, x)
    roots = criteria._sign_roots(h22, 1e-9, 1 - 1e-9)
    # a plateau point pressed against 1 leaves every value past it below
    # the scan's firmness floor, so walk the edge ladder toward 1
    q = roots[0] if roots else criteria._edge_root(h22, 1e-9)
    if q is None or not criteria._h22_root_certified(m, q):
        return None
    return q


def _classify_p2(m: Mixture, b: PhaseBoundaries, tol: float) -> Classification:
    z = criteria.solve_z(m)
    if 2 * m.lam * z < m.s * (1 - m.lam):
        return _certify(m, build_1rsb(m, z), "OneRSB", {"z": z}, tol)
    if m.lam < b.p2["lambda_1Fto1"]:
        q_p = _plateau_point(m)
        if q_p is None:
            raise ValueError("no plateau point found for the mixed measure")
        nu = build_mixed(m, 0.0, q_p)
        return _certify(m, nu, "OneFRSB",
                        {"q1": q_p, "q_P": q_p, "variant": "density-below"}, tol)
    return _certify(m, build_mixed(m, 0.0, 1.0), "FRSB", {}, tol)


def _k1(m: Mixture, z: float):
    # K(1) = (1 + z) xi'(1) - xi''(1), and xi''(1)
    d2 = xi_deriv(m, 1.0, 2)
    return (1 + z) * xi_deriv(m, 1.0, 1) - d2, d2


def _one_step(m: Mixture, z: float, zmax: float) -> bool:
    # zeta ~ -xi''(1) K(1) (1 - x)^2 / (2 xi'(1) (1 + z)) near x = 1: K(1) < 0
    # breaks the one-step measure however small zmax reads (cubic in d)
    return zmax <= _ZETA_FLOOR and (k := _k1(m, z))[0] >= -1e-12 * k[1]


def _classify_general(m: Mixture, tol: float) -> Classification:
    z = criteria.solve_z(m)
    zmax = _zeta_max(m, z)
    if _one_step(m, z, zmax):
        return _certify(m, build_1rsb(m, z), "OneRSB", {"z": z}, tol)
    lm = criteria.landmarks(m)
    if lm.q22_edge is not None:
        raise ValueError(f"uncertified h22 edge root q22 = {lm.q22_edge!r}: "
                         f"h22 is at its rounding floor around it")
    if _two_step_window(lm):
        q, z1, z2 = _solve_two_step(m, lm)
        return _certify(m, build_2rsb(m, q, z1, z2), "TwoRSB",
                        {"q": q, "z1": z1, "z2": z2}, tol)
    # landmarks reads q12 and q22 only where t < 0; q22 inside (q12, 1)
    # ends the full density, else it runs to 1 (None: h22 not scanned)
    if lm.q12 is not None and lm.q22 is not None:
        if lm.q12 < lm.q22 < 1.0:
            return _certify(m, build_mixed(m, lm.q12, lm.q22), "TwoFRSB",
                            {"q1": lm.q12, "q2": lm.q22}, tol)
        return _certify(m, build_mixed(m, lm.q12, 1.0), "OneFRSB",
                        {"q1": lm.q12, "variant": "density-above"}, tol)
    raise ValueError(
        f"no construction applies (one-step certificate {zmax:.2e}, "
        f"K(1) {_k1(m, z)[0]:.2e}, landmarks {lm})")


def classify(p: int, s: int, lam: float, tol: float = 1e-7) -> Classification:
    """Resolve the phase at a single (p, s, lambda), verifier-gated.

    A pure model at exponent 2 is RS; every other pure model takes the
    one test chain of the mixtures with p >= 3. The returned phase is
    always backed by a constructed measure that passed the optimality
    report at the given tolerance. When no construction certifies
    (expected only within ~1e-8 of a boundary) or any layer fails, the
    phase is "Unresolved" and `detail` carries the failure's message;
    only an invalid p, s or lambda raises (ValueError).
    """
    m = make_mixture(p, s, lam)
    if m.is_pure and m.exponent == 2:
        return _certify(m, build_rs(m), "RS", {}, tol)
    b, near, low_s = None, False, not m.is_pure and (p, s) == (2, 3)
    try:
        if not m.is_pure:
            b = boundaries(p, s)
            for lb in boundary_lambdas(b):
                if abs(lam - lb) <= _OWN_EPS:
                    m, near = make_mixture(p, s, lb - 1e-10), True
                    break
        cl = (_classify_p2(m, b, tol) if p == 2 and b is not None
              else _classify_general(m, tol))
    except (ValueError, RuntimeError) as exc:
        return Classification("Unresolved", {}, None, None, None,
                              on_boundary=near, low_s_unproven=low_s,
                              detail=str(exc))
    if near or low_s:
        cl = replace(cl, on_boundary=near, low_s_unproven=low_s)
    return cl
