"""Regime detection, phase-boundary constants, pointwise classification.

A (p, s) family falls into one of five regimes decided by a sign chain
on two lambda-quadratics and the slope function Psi. Within a regime the
phase boundaries in lambda are solved here once (bisection on landmark
predicates, then a two-dimensional Newton polish on the defining pair of
window functions, with the residual certified below 1e-7). classify()
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
from scipy.optimize import brentq, minimize_scalar

from . import criteria
from .energy import VerificationReport, cs_energy, verify_parisi
from .measure import (ParisiMeasure, build_1frsb, build_1rsb, build_2frsb,
                      build_2rsb, build_frsb, build_rs)
from .mixture import Mixture, make_mixture, xi_deriv

__all__ = ["Regime", "PhaseBoundaries", "Classification", "regime",
           "boundaries", "classify", "boundary_lambdas"]

_ZETA_FLOOR = 1e-11  # zeta vanishes identically at both endpoints; the
# interior maximum is tested against this, never against strict negativity
_OWN_EPS = 1e-9
_BISECT_TOL = 1e-10
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


def _bisect_flip(pred, lo, hi):
    # pred is False at lo and True at hi; shrink to _BISECT_TOL and return
    # the certified-True side together with the bracket
    while hi - lo > _BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


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
    return x, t, float(np.abs(fval(x, t)).sum())


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
    solve. Bisections run to 1e-10 in lambda; the two system boundaries
    are then Newton-polished and their pair residuals checked below 1e-7.
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

    def window_at(t):
        return criteria.landmarks(make_mixture(p, s, t))

    def two_step_pred(t):
        return _two_step_window(window_at(t))

    anchor = l1 if two_step_pred(l1) else next(
        (t for t in np.linspace(0.02, lam_2to1 - 1e-3, 49) if two_step_pred(t)),
        None)
    if anchor is None:
        raise RuntimeError(f"no two-step window found for ({p}, {s})")
    _, hi = _bisect_flip(two_step_pred, 1e-3, anchor)
    lm = window_at(hi)
    x12, lam_1to2, res12 = _newton_pair(p, s, criteria.eval_h1, hi,
                                        0.5 * (lm.q11 + lm.q21))
    if res12 > _SYSTEM_TOL:
        raise RuntimeError(f"entry-boundary residual {res12:.2e} too large")
    diag.update(x_star_1to2=x12, residual_1to2=res12)

    general = {"lambda_1to2": lam_1to2, "lambda_2to1": lam_2to1}
    if reg.tag == "FourPhase":
        lam_2to1f = criteria.s_roots(p, s).roots[0]

        def full_pred(t):
            return _full_window(window_at(t))

        _, hi2 = _bisect_flip(full_pred, anchor, lam_2to1f - 1e-6)
        lm2 = window_at(hi2)
        x22f, lam_2to2f, res22f = _newton_pair(p, s, criteria.eval_h2, hi2,
                                               0.5 * (lm2.q12 + lm2.q22))
        if res22f > _SYSTEM_TOL:
            raise RuntimeError(f"full-onset residual {res22f:.2e} too large")
        diag.update(x_star_2to2F=x22f, residual_2to2F=res22f,
                    onset_quadratic_at_2to1F=criteria.s_of(p, s, lam_2to1f))
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
    # coarse grid, then bounded refinement around the top three local maxima
    xs = np.linspace(0.0, 1.0, 1025)
    vals = criteria._zeta_at(m, xs, z)
    peaks = [i for i in range(1, len(xs) - 1)
             if vals[i] >= vals[i - 1] and vals[i] >= vals[i + 1]]
    peaks.sort(key=lambda i: vals[i], reverse=True)
    best = float(vals.max())
    windows = [(xs[i - 1], xs[i + 1]) for i in peaks[:3]]
    # both endpoints are exact zeros, so a bump hiding inside the first or
    # last grid cell never shows up as an interior coarse peak; near the
    # upper phase boundary the whole positive part lives there
    windows += [(xs[0], xs[1]), (xs[-2], xs[-1])]
    for lo, hi in windows:
        r = minimize_scalar(lambda x: -criteria._zeta_at(m, x, z),
                            bounds=(lo, hi), method="bounded",
                            options={"xatol": 1e-11})
        best = max(best, -float(r.fun))
    return best


def _solve_two_step(m: Mixture, lm: criteria.Landmarks):
    def z2_of(q):
        return criteria._c_inv(criteria._bfun(m, q) / criteria._d1(m, q))

    def phi(q):
        return criteria.f12(m, q, z2_of(q))[0]

    lo = max(lm.q11, lm.q22) + 1e-13
    hi = min(lm.q21, lm.q12) - 1e-13
    if not lo < hi:
        raise ValueError("two-step bracket is empty")
    q = brentq(phi, lo, hi, xtol=1e-14, rtol=8.9e-16)
    z2 = z2_of(q)
    z1 = q * criteria._d1(m, q) / xi_deriv(m, q, 1) - 1.0 - z2
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
    return Classification(phase, params, nu, cs_energy(m, nu), rep)


def _classify_pure(m: Mixture, tol: float) -> Classification:
    if m.exponent == 2:
        return _certify(m, build_rs(m), "RS", {}, tol)
    z = criteria.solve_z(m)
    cl = _certify(m, build_1rsb(m, z), "OneRSB", {"z": z}, tol)
    zmax = _zeta_max(m, z)
    if cl.phase == "OneRSB" and zmax > _ZETA_FLOOR:
        return replace(cl, detail=f"one-step certificate reads {zmax:.2e}")
    return cl


def _classify_p2(m: Mixture, b: PhaseBoundaries, tol: float) -> Classification:
    z = criteria.solve_z(m)
    if 2 * m.lam * z < m.s * (1 - m.lam):
        return _certify(m, build_1rsb(m, z), "OneRSB", {"z": z}, tol)
    if m.lam < b.p2["lambda_1Fto1"]:
        roots = criteria._sign_roots(
            lambda x: criteria.eval_h2(m, x)[1], 1e-9, 1 - 1e-9)
        if not roots:
            raise ValueError("no plateau point found for the mixed measure")
        q_p = roots[0]
        nu = build_1frsb(m, variant="below", q_P=q_p)
        return _certify(m, nu, "OneFRSB",
                        {"q1": q_p, "q_P": q_p, "variant": "density-below"}, tol)
    return _certify(m, build_frsb(m), "FRSB", {}, tol)


def _classify_general(m: Mixture, tol: float) -> Classification:
    z = criteria.solve_z(m)
    zmax = _zeta_max(m, z)
    if zmax <= _ZETA_FLOOR:
        return _certify(m, build_1rsb(m, z), "OneRSB", {"z": z}, tol)
    lm = criteria.landmarks(m)
    if _two_step_window(lm):
        q, z1, z2 = _solve_two_step(m, lm)
        return _certify(m, build_2rsb(m, q, z1, z2), "TwoRSB",
                        {"q": q, "z1": z1, "z2": z2}, tol)
    if (_full_window(lm)
            and criteria.eval_aux(m, lm.q12)[0] < 0
            and criteria.eval_aux(m, lm.q22)[0] < 0):
        return _certify(m, build_2frsb(m, lm.q12, lm.q22), "TwoFRSB",
                        {"q1": lm.q12, "q2": lm.q22}, tol)
    if (lm.q12 is not None and criteria.eval_aux(m, lm.q12)[0] < 0
            and not criteria._sign_roots(
                lambda x: criteria.eval_h2(m, x)[1],
                lm.q12 + 1e-6, 1 - 1e-6, n=513)):
        return _certify(m, build_1frsb(m, q1=lm.q12), "OneFRSB",
                        {"q1": lm.q12, "variant": "density-above"}, tol)
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
    m_eff = make_mixture(p, s, lam_eff)
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
