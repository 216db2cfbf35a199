"""Regime detection, phase-boundary constants, pointwise classification.

A (p, s) family falls into one of five regimes decided by a sign chain
on two lambda-quadratics and the slope function Psi. Within a regime the
phase boundaries in lambda are solved here once (Brent's method on the
gap between two window roots, then a two-dimensional Newton polish on
the defining pair of window functions, with the residual certified
below 1e-7). classify()
then resolves a single (p, s, lambda): it walks the test chain
one-step -> two-step -> two-transition -> one-transition, constructs the
winning candidate measure, and only returns a phase once the optimality
verifier passes; anything else comes back as Unresolved with the reason
attached.

Boundary ownership: inputs within 1e-9 of a solved boundary are shifted
to the low-lambda side (boundaries are measure zero; the shift is
flagged, never silent).
"""
from __future__ import annotations

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
           "boundaries", "classify", "boundary_lambdas"]

_ZETA_FLOOR = 1e-11  # zeta vanishes identically at both endpoints; the
# interior maximum is tested against this, never against strict negativity
_OWN_EPS = 1e-9
_BISECT_TOL = 1e-6
_SEED_TOL = 1e-4
_SYSTEM_TOL = 1e-7


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


def _full_window(lm: criteria.Landmarks) -> bool:
    return (lm.q12 is not None and lm.q22 is not None
            and lm.q12 < lm.q22 < 1.0)


def _gap(lo, hi):
    # signed gap between two window roots; None where either is absent or
    # hi is pinned at 1, a sentinel rather than a root
    return None if lo is None or hi is None or hi >= 1.0 else hi - lo


def _find_flip(window_at, pred, roots, lo, hi, m_lo, m_hi):
    """A lambda next to where pred turns from False (at lo) to True (at hi).

    Brent's method runs on the signed margin _gap(*roots(lm)) once both
    ends have one of the right sign (m_lo, m_hi; None where unknown), and
    stops within _SEED_TOL of the flip: that only has to reach the Newton
    polish's basin. Until then, or where the margin is undefined inside
    the bracket, each step halves the bracket on pred. Returns the point
    and the number of halvings.
    """
    def f(t):
        v = _gap(*roots(window_at(t)))
        if v is None:
            raise ValueError("margin undefined inside its bracket")
        return 0.0 if abs(v) < _SEED_TOL else v  # a zero stops brentq

    steps = 0
    while hi - lo > _BISECT_TOL:
        if m_lo is not None and m_hi is not None and m_lo < 0 < m_hi:
            try:
                return brentq(f, lo, hi, xtol=_SEED_TOL), steps
            except ValueError:
                pass
        mid = 0.5 * (lo + hi)
        lm = window_at(mid)
        if pred(lm):
            hi, m_hi = mid, _gap(*roots(lm))
        else:
            lo, m_lo = mid, _gap(*roots(lm))
        steps += 1
    return hi, steps


def _newton_pair(p, s, pair_fn, lam0, x0):
    """Polish a simultaneous zero of a window pair in (x, lambda)."""
    def fval(x, t):
        return np.asarray(pair_fn(make_mixture(p, s, t), x), dtype=float)

    x, t = float(x0), float(lam0)
    for _ in range(25):
        f0 = fval(x, t)
        if float(np.abs(f0).sum()) < 5e-14:
            break
        hx, ht = 1e-7, 1e-8
        jx = (fval(x + hx, t) - fval(x - hx, t)) / (2 * hx)
        jt = (fval(x, t + ht) - fval(x, t - ht)) / (2 * ht)
        try:
            d = np.linalg.solve(np.column_stack([jx, jt]), -f0)
        except np.linalg.LinAlgError:
            break
        if not (0.0 < x + d[0] < 1.0 and 0.0 < t + d[1] < 1.0):
            break
        x, t = x + d[0], t + d[1]
    return float(x), float(t), float(np.abs(fval(x, t)).sum())


def _p2_boundaries(s: int, reg: Regime) -> PhaseBoundaries:
    lam_f = s * s * (s - 1) / ((s - 2) * (s * s + s + 6))

    def entry(lam):
        mm = make_mixture(2, s, lam)
        return 2 * lam * criteria.solve_z(mm) - s * (1 - lam)

    xs = np.linspace(1e-3, 1 - 1e-3, 257)
    vs = [entry(x) for x in xs]
    lam_1to1f = None
    res_entry = None
    for i in range(len(xs) - 1):
        if vs[i] < 0.0 < vs[i + 1]:
            lam_1to1f = brentq(entry, xs[i], xs[i + 1], xtol=1e-13)
            res_entry = abs(entry(lam_1to1f))
            break
    diag = {"residual_1to1F": res_entry,
            "onset_quadratic_at_1Fto1": criteria.s_of(2, s, lam_f)}
    if lam_1to1f is not None and lam_f < 1.0 and not lam_1to1f < lam_f:
        raise RuntimeError("p=2 boundary ordering violated")
    return PhaseBoundaries(reg, p2={"lambda_1to1F": lam_1to1f,
                                    "lambda_1Fto1": lam_f},
                           diagnostics=diag)


@lru_cache(maxsize=None)
def boundaries(p: int, s: int) -> PhaseBoundaries:
    """All phase-boundary lambdas of the family, solved and certified.

    Cached per (p, s): sweeps and repeated classifications reuse the
    solve. Each system boundary is where two window roots meet (q11 and
    q21 at lambda_1to2, q12 and q22 at lambda_2to2F); Brent's method on
    their gap only seeds the Newton polish (see _find_flip), and the
    polished pair residuals, checked below 1e-7, alone certify them.
    The diagnostics count the landmark scans and halvings of each.
    """
    reg = regime(p, s)
    if reg.tag == "Pure" or reg.tag == "AllOneRSB":
        return PhaseBoundaries(reg)
    if reg.tag == "P2Family":
        return _p2_boundaries(s, reg)

    l1, l2 = criteria.lambda_stars(p, s).roots
    lam_2to1 = brentq(lambda t: criteria.psi(p, s, t), l1, min(l2, 1 - 1e-12),
                      xtol=1e-13)
    diag = {"psi_at_2to1": criteria.psi(p, s, lam_2to1),
            "lambda_1to2_psi_zero": brentq(lambda t: criteria.psi(p, s, t),
                                           1e-6, l1, xtol=1e-13)}

    memo: dict[float, criteria.Landmarks] = {}  # one landmark scan per lambda

    def window_at(t):
        if t not in memo:
            memo[t] = criteria.landmarks(make_mixture(p, s, t))
        return memo[t]

    anchor = l1 if _two_step_window(window_at(l1)) else next(
        (t for t in np.linspace(0.02, lam_2to1 - 1e-3, 49)
         if _two_step_window(window_at(t))), None)
    if anchor is None:
        raise RuntimeError(f"no two-step window found for ({p}, {s})")

    def solve(key, pred, roots, pair_fn, lo, hi, n0):
        # the flip of pred in [lo, hi], one end of which is the anchor,
        # polished on pair_fn from the midpoint of the two window roots
        m = _gap(*roots(memo[anchor]))
        t, steps = _find_flip(window_at, pred, roots, lo, hi,
                              m if lo == anchor else None,
                              m if hi == anchor else None)
        x, lam, res = _newton_pair(p, s, pair_fn, t,
                                   0.5 * sum(roots(window_at(t))))
        if res > _SYSTEM_TOL:
            raise RuntimeError(f"lambda_{key} residual {res:.2e} too large")
        diag.update({f"x_star_{key}": x, f"residual_{key}": res,
                     f"landmarks_{key}": len(memo) - n0,
                     f"halvings_{key}": steps})
        return lam

    lam_1to2 = solve("1to2", _two_step_window, lambda lm: (lm.q11, lm.q21),
                     criteria.eval_h1, 1e-3, anchor, 0)
    general = {"lambda_1to2": lam_1to2, "lambda_2to1": lam_2to1}
    if reg.tag == "FourPhase":
        lam_2to1f = criteria.s_roots(p, s).roots[0]
        lam_2to2f = solve("2to2F", _full_window, lambda lm: (lm.q12, lm.q22),
                          criteria.eval_h2, anchor, lam_2to1f - 1e-6,
                          len(memo))
        diag["onset_quadratic_at_2to1F"] = criteria.s_of(p, s, lam_2to1f)
        general.update(lambda_2to2F=lam_2to2f, lambda_2to1F=lam_2to1f)
        if not 0 < lam_1to2 < lam_2to2f < lam_2to1f < lam_2to1 < 1:
            raise RuntimeError("four-phase boundary ordering violated")
    elif not lam_1to2 < lam_2to1:
        raise RuntimeError("two-phase boundary ordering violated")
    return PhaseBoundaries(reg, general=general, diagnostics=diag)


def boundary_lambdas(b: PhaseBoundaries) -> tuple[float, ...]:
    """The family's interior boundary lambdas, ascending."""
    vals: list[float] = []
    if b.p2:
        vals += [v for v in b.p2.values() if v is not None and 0.0 < v < 1.0]
    if b.general:
        vals += list(b.general.values())
    return tuple(sorted(vals))


# ---------------------------------------------------------------------------
# pointwise classification
# ---------------------------------------------------------------------------


def _zeta_max(m: Mixture, z: float) -> float:
    """zeta's maximum on [0, 1], 0 at least (zeta(0) = zeta(1) = 0).

    Only K's + to - roots, zeta's interior maxima, are refined: zeta' =
    xi''(x) (1 - x) K(x) / (xi'(1) + z xi'(x)), K = xi'(1) + z xi' - D1."""
    a = xi_deriv(m, 1.0, 1)
    roots = criteria._sign_roots(
        lambda x: a + z * xi_deriv(m, x, 1) - criteria._d1(m, x),
        0.0, 1.0, n=1025, falling=True)
    return max([0.0] + [float(criteria._zeta_at(m, r, z, a)) for r in roots])


def _solve_two_step(m: Mixture, lm: criteria.Landmarks):
    def z2_of(q):  # the tilt z2 that zeroes f2 at q, and the kernel there
        k = criteria._kernel(m, q)
        return criteria._c_inv(k[3] / k[2]), k

    def phi(q):
        return criteria._f1(q, *z2_of(q))

    lo = max(lm.q11, lm.q22) + 1e-13
    hi = min(lm.q21, lm.q12) - 1e-13
    if not lo < hi:
        raise ValueError("two-step bracket is empty")
    if phi(lo) * phi(hi) > 0:
        raise ValueError(f"two-step stationarity function has no sign change "
                         f"on [{lo!r}, {hi!r}]")
    q = brentq(phi, lo, hi, xtol=1e-14, rtol=8.9e-16)
    z2, k = z2_of(q)
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


def _classify_pure(m: Mixture, tol: float) -> Classification:
    if m.exponent == 2:
        return _certify(m, build_rs(m), "RS", {}, tol)
    z = criteria.solve_z(m)
    cl = _certify(m, build_1rsb(m, z), "OneRSB", {"z": z}, tol)
    zmax = _zeta_max(m, z)
    if cl.phase == "OneRSB" and zmax > _ZETA_FLOOR:
        return replace(cl, detail=f"one-step certificate reads {zmax:.2e}")
    return cl


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


def _classify_general(m: Mixture, tol: float) -> Classification:
    z = criteria.solve_z(m)
    zmax = _zeta_max(m, z)
    if zmax <= _ZETA_FLOOR:
        return _certify(m, build_1rsb(m, z), "OneRSB", {"z": z}, tol)
    lm = criteria.landmarks(m)
    if lm.q22_edge is not None:
        raise ValueError(f"uncertified h22 edge root q22 = {lm.q22_edge!r}: "
                         f"h22 is at its rounding floor around it")
    if _two_step_window(lm):
        q, z1, z2 = _solve_two_step(m, lm)
        return _certify(m, build_2rsb(m, q, z1, z2), "TwoRSB",
                        {"q": q, "z1": z1, "z2": z2}, tol)
    # with t < 0 at q12, h22's last root q22 decides: inside (q12, 1) the
    # full density ends there, else it runs to 1 (None: h22 not scanned)
    if (lm.q12 is not None and lm.q22 is not None
            and criteria.eval_aux(m, lm.q12)[0] < 0):
        if not _full_window(lm):
            return _certify(m, build_mixed(m, lm.q12, 1.0), "OneFRSB",
                            {"q1": lm.q12, "variant": "density-above"}, tol)
        if criteria.eval_aux(m, lm.q22)[0] < 0:
            return _certify(m, build_mixed(m, lm.q12, lm.q22), "TwoFRSB",
                            {"q1": lm.q12, "q2": lm.q22}, tol)
    raise ValueError(
        f"no construction applies (one-step certificate {zmax:.2e}, "
        f"landmarks {lm})")


def classify(p: int, s: int, lam: float, tol: float = 1e-7) -> Classification:
    """Resolve the phase at a single (p, s, lambda), verifier-gated.

    The returned phase is always backed by a constructed measure that
    passed the optimality report at the given tolerance; when no
    construction certifies (expected only within ~1e-8 of a boundary)
    the phase is "Unresolved" and `detail` carries the diagnostic.
    """
    m = make_mixture(p, s, lam)
    if m.is_pure:
        return _classify_pure(m, tol)
    low_s = p == 2 and s == 3
    try:
        b = boundaries(p, s)
    except RuntimeError as exc:
        return Classification("Unresolved", {}, None, None, None,
                              low_s_unproven=low_s, detail=str(exc))
    lam_eff, near = lam, False
    for lb in boundary_lambdas(b):
        if abs(lam - lb) <= _OWN_EPS:
            lam_eff, near = lb - 1e-10, True
            break
    m_eff = make_mixture(p, s, lam_eff) if near else m
    try:
        cl = (_classify_p2(m_eff, b, tol) if p == 2
              else _classify_general(m_eff, tol))
    except ValueError as exc:
        return Classification("Unresolved", {}, None, None, None,
                              on_boundary=near, low_s_unproven=low_s,
                              detail=str(exc))
    if near or low_s:
        cl = replace(cl, on_boundary=near, low_s_unproven=low_s)
    return cl
