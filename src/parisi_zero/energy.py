"""Functional evaluation and certification of candidate measures.

Three things live here. ``cs_energy`` evaluates the variational
functional

    Q(nu) = 1/2 * ( int_0^1 xi'(x) nu(dx) + int_0^1 dx / nu((x,1]) )

in closed form on constant segments and by a numpy Gauss-Legendre rule
(``_gauss``) on full ones, so nothing here loads scipy.
``g_of`` evaluates the optimality gap

    g(u) = int_u^1 ( xi'(t) - int_0^t dr / nu((r,1])^2 ) dt,

again segment-exact. ``verify_parisi`` packages the three first-order
optimality checks into a report: normalization of the inner integral at
1, nonnegativity of g everywhere, and vanishing of g on the support of
the density part.

Accuracy note: the inner integrals over a piece with a linear tail are
log expressions whose naive forms divide an O(eps) rounding error by the
piece's density jump; every such piece goes through log1p of the exact
product instead, so pieces with arbitrarily small jumps stay accurate
(this matters: the search oracle actively probes that corner).
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._solve import fminbound
from .measure import ParisiMeasure, tail_mass, wtilde
from .mixture import Mixture, _grid, xi_deriv

__all__ = ["VerificationReport", "cs_energy", "g_of", "verify_parisi"]

_CALIB_EPS = 1e-11  # a full segment with |offset| below this is treated as exact
_QUAD_EPS = 1e-12  # the 32- and 64-node rules must agree this closely on a piece
_QUAD_DEPTH = 10  # halvings of a full segment before its integral is given up
_GAUSS = tuple(np.polynomial.legendre.leggauss(n) for n in (32, 64))


@dataclass(frozen=True)
class VerificationReport:
    """Residuals of the three optimality conditions plus the verdict."""

    normalization_error: float
    min_g: float
    support_residual: float
    passed: bool
    tolerance: float

    def to_dict(self) -> dict:
        return {
            "normalization_error": self.normalization_error,
            "min_g": self.min_g,
            "support_residual": self.support_residual,
            "pass": self.passed,
            "tolerance": self.tolerance,
        }


def _phi(y):
    """(-log(1-y) - y) / y^2, elementwise, stable through y = 0."""
    if isinstance(y, float) and -math.inf < y < 1.0:
        # plain-float path, same operations and bits as a 0-d array;
        # NaN and y >= 1 go on to the array path
        if abs(y) < 1e-4:
            return float(0.5 + y / 3 + y * y / 4 + np.power(y, 3) / 5)
        return float((-np.log1p(-y) - y) / (y * y))
    y = np.asarray(y, dtype=float)
    series = 0.5 + y / 3 + y * y / 4 + y ** 3 / 5
    with np.errstate(divide="ignore", invalid="ignore"):
        direct = (-np.log1p(-y) - y) / (y * y)
    out = np.where(np.abs(y) < 1e-4, series, direct)
    return float(out) if out.ndim == 0 else out


def _gauss(f, a, b, depth=0):
    """int_a^b f(r) dr for f smooth on [a, b]; f gets the nodes on its
    last axis, and leading axes of its value are kept as a batch.

    The 64-node Gauss-Legendre sum is taken where the 32-node sum agrees
    with it to _QUAD_EPS, else each half is integrated alike, at most
    _QUAD_DEPTH halvings deep (Trefethen, SIAM Review 50, 2008).
    """
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    q32, q64 = (half * (f(mid + half * x) @ wt) for x, wt in _GAUSS)
    if not np.isfinite(q64).all():
        raise ValueError("full-segment integrand is not finite")
    if np.max(np.abs(q64 - q32)) <= _QUAD_EPS:
        return q64
    if depth == _QUAD_DEPTH:
        raise ValueError(f"full-segment quadrature did not converge on [{a}, {b}]")
    return _gauss(f, a, mid, depth + 1) + _gauss(f, mid, b, depth + 1)


@lru_cache(maxsize=4)
def _tails(m: Mixture, nu: ParisiMeasure) -> tuple[float, ...]:
    """nu((lo_i, 1]) at the left edge of each segment i, then the atom.

    Cached on the (mixture, measure) pair, so a certification, which runs
    the verifier and then the energy on one measure, builds it once.
    """
    return (*(tail_mass(nu, m, seg.lo) for seg in nu.segments), nu.atom)


class _Tables:
    """Per-segment cumulative closed forms shared by g and the verifier.

    T[i]  tail at the left edge of segment i (T[n] is the atom),
    I[i]  int_0^{lo_i} dr / T(r)^2,
    J[i]  int_0^{lo_i} I,
    C[i]  tail offset of a full segment (0 when calibrated).
    """

    def __init__(self, m: Mixture, nu: ParisiMeasure):
        self.m = m
        self.nu = nu
        segs = nu.segments
        n = len(segs)
        self.his = [seg.hi for seg in segs]
        self.T = T = _tails(m, nu)
        self.C = C = [0.0] * n
        self.I = I = [0.0] * (n + 1)
        self.J = J = [0.0] * (n + 1)
        for i, seg in enumerate(segs):
            if seg.kind == "const":
                I[i + 1] = I[i] + (seg.hi - seg.lo) / (T[i] * T[i + 1])
            else:
                C[i] = T[i + 1] - xi_deriv(m, seg.hi, 2) ** -0.5
                if abs(C[i]) < _CALIB_EPS:
                    I[i + 1] = I[i] + xi_deriv(m, seg.hi, 1) - xi_deriv(m, seg.lo, 1)
                else:
                    I[i + 1] = I[i] + _gauss(lambda r: self._off(i, r),
                                             seg.lo, seg.hi)
            J[i + 1] = self._J_in(i, seg.hi)

    def _off(self, i, r):
        # 1 / T(r)^2 on an off-calibration full segment i
        return (xi_deriv(self.m, r, 2) ** -0.5 + self.C[i]) ** -2.0

    def _J_in(self, i, x):
        """J at x (a float or an array) inside segment i."""
        seg = self.nu.segments[i]
        w = x - seg.lo
        base = self.J[i] + self.I[i] * w
        if seg.kind == "const":
            T = self.T[i]
            if seg.value == 0.0:
                return base + w * w / (2 * T * T)
            return base + (w * w / (T * T)) * _phi(seg.value * w / T)
        if abs(self.C[i]) < _CALIB_EPS:
            m = self.m
            return (base + xi_deriv(m, x) - xi_deriv(m, seg.lo)
                    - xi_deriv(m, seg.lo, 1) * w)
        # int_lo^x (x - r) dr / T(r)^2 (the double integral by Fubini),
        # with r = lo + w t so that an array of x shares one t-rule
        return base + w * w * _gauss(
            lambda t: (1 - t) * self._off(i, seg.lo + np.multiply.outer(w, t)),
            0.0, 1.0)

    def seg_index(self, x):
        # np.searchsorted(his, x, side="left") clipped to the last segment,
        # which is where x past the end or NaN lands
        his = self.his
        return bisect.bisect_left(his, x) if x <= his[-1] else len(his) - 1

    def J_at(self, x: float) -> float:
        return self._J_in(self.seg_index(x), x)

    def J_grid(self, us: np.ndarray) -> np.ndarray:
        """Vectorized J over a sorted or unsorted array of points."""
        idx = np.searchsorted(self.his, us, side="left").clip(0, len(self.his) - 1)
        out = np.empty_like(us)
        for i in range(len(self.his)):
            mask = idx == i
            if mask.any():
                out[mask] = self._J_in(i, us[mask])
        return out

    @property
    def norm(self) -> float:
        return self.I[-1]


def g_of(m: Mixture, nu: ParisiMeasure, u):
    """The optimality gap g(u) on u in [0, 1]; g(1) = 0 identically."""
    us = np.asarray(u, dtype=float)
    if not np.all((us >= 0.0) & (us <= 1.0)):  # NaN fails too
        raise ValueError(f"u must lie in [0, 1], got {u}")
    tab = _Tables(m, nu)
    x1, j1 = xi_deriv(m, 1.0), tab.J[-1]
    if us.ndim == 0:
        return (x1 - xi_deriv(m, float(u))) - (j1 - tab.J_at(float(u)))
    return (x1 - xi_deriv(m, us)) - (j1 - tab.J_grid(us))


def cs_energy(m: Mixture, nu: ParisiMeasure) -> float:
    """The functional value; closed form except on full segments.

    On a full segment the density integral is integrated by parts so only
    int sqrt(xi'') needs quadrature, and the same number is reused for the
    tail integral when the segment is calibrated.
    """
    T = _tails(m, nu)
    total = xi_deriv(m, 1.0, 1) * nu.atom
    for i, seg in enumerate(nu.segments):
        w = seg.hi - seg.lo
        if seg.kind == "const":
            total += seg.value * (xi_deriv(m, seg.hi) - xi_deriv(m, seg.lo))
            if seg.value == 0.0:
                total += w / T[i]
            else:
                total += math.log1p(seg.value * w / T[i + 1]) / seg.value
        else:
            sq = _gauss(lambda r: np.sqrt(xi_deriv(m, r, 2)), seg.lo, seg.hi)
            total += (xi_deriv(m, seg.lo, 1) * xi_deriv(m, seg.lo, 2) ** -0.5
                      - xi_deriv(m, seg.hi, 1) * xi_deriv(m, seg.hi, 2) ** -0.5
                      + sq)
            c = T[i + 1] - xi_deriv(m, seg.hi, 2) ** -0.5
            if abs(c) < _CALIB_EPS:
                total += sq
            else:
                total += _gauss(lambda r: 1.0 / (xi_deriv(m, r, 2) ** -0.5 + c),
                                seg.lo, seg.hi)
    return float(0.5 * total)


def _support_points(m: Mixture, nu: ParisiMeasure) -> list[float]:
    # density-part support: constant-segment left edges where the value jumps,
    # plus a dense sample of every full segment
    pts: list[float] = []
    prev = 0.0
    for seg in nu.segments:
        if seg.kind == "const":
            if seg.value > prev + 1e-14:
                pts.append(seg.lo)
            prev = seg.value
        else:
            pts.extend(np.linspace(seg.lo, seg.hi - 1e-10, 64))
            prev = float(wtilde(m, min(seg.hi, 1.0) - 1e-12))
    return pts


def verify_parisi(m: Mixture, nu: ParisiMeasure, tol: float = 1e-7,
                  ngrid: int = 2048) -> VerificationReport:
    """Certify nu against the three optimality conditions at tolerance tol.

    min g is taken over an ngrid grid plus a bounded local refinement
    around the grid argmin; the support residual is sup |g| over the
    density support sample. The default grid is shared, with xi's powers
    on it tabled per family (see ``mixture``); any other ngrid is fresh.
    """
    tab = _Tables(m, nu)
    nerr = abs(tab.norm - xi_deriv(m, 1.0, 1))
    x1, j1 = xi_deriv(m, 1.0), tab.J[-1]
    us = _grid(0.0, 1.0, ngrid)
    gv = (x1 - xi_deriv(m, us)) - (j1 - tab.J_grid(us))
    i0 = int(np.argmin(gv))
    lo, hi = us[max(0, i0 - 1)], us[min(ngrid - 1, i0 + 1)]
    _, g_ref = fminbound(
        lambda x: (x1 - xi_deriv(m, x)) - (j1 - tab.J_at(x)), lo, hi,
        xatol=1e-12)
    min_g = min(float(gv.min()), g_ref)
    sup_pts = _support_points(m, nu)
    if sup_pts:
        gs = (x1 - xi_deriv(m, np.asarray(sup_pts))) \
            - (j1 - tab.J_grid(np.asarray(sup_pts)))
        sres = float(np.abs(gs).max())
    else:
        sres = 0.0
    return VerificationReport(
        normalization_error=float(nerr),
        min_g=min_g,
        support_residual=sres,
        passed=bool(nerr <= tol and min_g >= -tol and sres <= tol),
        tolerance=tol,
    )
