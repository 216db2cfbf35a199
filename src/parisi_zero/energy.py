"""Functional evaluation and certification of candidate measures.

``_Tables`` is the one walk over a measure's segments; it builds the
tails, the inner integrals and the variational functional

    Q(nu) = 1/2 * ( int_0^1 xi'(x) nu(dx) + int_0^1 dx / nu((x,1]) ),

in closed form on constant segments and by a numpy Gauss-Legendre rule
(``_gauss``) on full ones, so nothing here loads scipy or caches.
``cs_energy`` returns Q(nu). ``g_of`` evaluates the optimality gap

    g(u) = int_u^1 ( xi'(t) - int_0^t dr / nu((r,1])^2 ) dt,

again segment-exact: ``_Tables.g``, its one evaluator, takes ascending
1-D points and evaluates each segment's closed form on its contiguous
slice of them; ``g_of`` sorts other input once and puts it back.
``verify_parisi`` packages the three first-order optimality checks into
a report: normalization of the inner integral at 1, nonnegativity of g
everywhere (on a grid, refined by a vectorised zoom about its argmin),
and vanishing of g on the support of the density part.

Accuracy note: the inner integrals over a piece with a linear tail are
log expressions whose naive forms divide an O(eps) rounding error by the
piece's density jump; every such piece goes through log1p of the exact
product instead, so pieces with arbitrarily small jumps, which the
search oracle probes, stay accurate.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .measure import ParisiMeasure, tail_mass, wtilde
from .mixture import Mixture, _grid, xi_deriv

__all__ = ["VerificationReport", "cs_energy", "g_of", "verify_parisi"]

_CALIB_EPS = 1e-11  # a full segment with |offset| below this is treated as exact
_QUAD_EPS = 1e-12  # the 32- and 64-node rules must agree this closely on a piece
_QUAD_DEPTH = 10  # halvings of a full segment before its integral is given up
_ZOOM_ROUNDS = 2  # verify_parisi's refinements of min g about the grid argmin
_ZOOM_POINTS = 65  # each on this many points, 32 steps across two old steps
_ZOOM_AR = np.arange(float(_ZOOM_POINTS))
_GAUSS = tuple(np.polynomial.legendre.leggauss(n) for n in (32, 64))


@dataclass(frozen=True)
class VerificationReport:
    """Residuals of the three optimality conditions plus the verdict.

    ``energy`` is Q(nu) of the verified measure, whether or not it
    passed. It is not part of the v1 record that ``to_dict`` writes.
    """

    normalization_error: float
    min_g: float
    support_residual: float
    passed: bool
    tolerance: float
    energy: float

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
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.asarray((-np.log1p(-y) - y) / (y * y))
    small = np.abs(y) < 1e-4  # False for NaN, which keeps the log form
    if small.any():
        s = y[small]
        out[small] = 0.5 + s / 3 + s * s / 4 + s ** 3 / 5
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


class _Tables:
    """Per-segment cumulative closed forms shared by g and the verifier.

    T[i]  tail at the left edge of segment i (T[n] is the atom),
    I[i]  int_0^{lo_i} dr / T(r)^2 (I[n] is the normalization),
    J[i]  int_0^{lo_i} I,
    C[i]  tail offset of a full segment (0 when calibrated),
    at_lo[i]  (xi, xi') at the left edge of a full segment, for J,
    energy  Q(nu); on a full segment its density integral is taken by
    parts, so only int sqrt(xi'') needs quadrature, and that is reused
    for the tail integral when the segment is calibrated.
    """

    def __init__(self, m: Mixture, nu: ParisiMeasure):
        self.m = m
        self.nu = nu
        segs = nu.segments
        n = len(segs)
        self.inner = [seg.hi for seg in segs[:-1]]
        self.x1 = xi_deriv(m, 1.0)
        self.T = T = (*(tail_mass(nu, m, seg.lo) for seg in segs), nu.atom)
        self.C = C = [0.0] * n
        self.at_lo = [None] * n
        self.I = I = [0.0] * (n + 1)
        self.J = J = [0.0] * (n + 1)
        total = xi_deriv(m, 1.0, 1) * nu.atom
        for i, seg in enumerate(segs):
            lo, hi = seg.lo, seg.hi
            xi_hi = xi_deriv(m, hi)
            if seg.kind == "const":
                w = hi - lo
                I[i + 1] = I[i] + w / (T[i] * T[i + 1])
                total += seg.value * (xi_hi - xi_deriv(m, lo))
                total += (w / T[i] if seg.value == 0.0 else
                          math.log1p(seg.value * w / T[i + 1]) / seg.value)
            else:
                d1lo, d1hi = xi_deriv(m, lo, 1), xi_deriv(m, hi, 1)
                self.at_lo[i] = xi_deriv(m, lo), d1lo
                C[i] = T[i + 1] - xi_deriv(m, hi, 2) ** -0.5
                sq = _gauss(lambda r: np.sqrt(xi_deriv(m, r, 2)), lo, hi)
                total += (d1lo * xi_deriv(m, lo, 2) ** -0.5
                          - d1hi * xi_deriv(m, hi, 2) ** -0.5 + sq)
                if abs(C[i]) < _CALIB_EPS:
                    I[i + 1] = I[i] + d1hi - d1lo
                    total += sq
                else:
                    I[i + 1] = I[i] + _gauss(
                        lambda r: self._tail(i, r) ** -2.0, lo, hi)
                    total += _gauss(lambda r: 1.0 / self._tail(i, r), lo, hi)
            J[i + 1] = self._J_in(i, hi, xi_hi)
        self.energy = float(0.5 * total)

    def _tail(self, i, r):  # T(r) on full segment i, offset C[i] included
        return xi_deriv(self.m, r, 2) ** -0.5 + self.C[i]

    def _J_in(self, i, x, xi_x):
        """J at x (a float or an array) inside segment i; xi_x is xi(x)."""
        seg = self.nu.segments[i]
        w = x - seg.lo
        base = self.J[i] + self.I[i] * w
        if seg.kind == "const":
            T = self.T[i]
            return base + (w * w / (T * T)) * _phi(seg.value * w / T)
        if abs(self.C[i]) < _CALIB_EPS:
            xi_lo, d1_lo = self.at_lo[i]
            return base + xi_x - xi_lo - d1_lo * w
        # int_lo^x (x - r) dr / T(r)^2 (the double integral by Fubini),
        # with r = lo + w t so that an array of x shares one t-rule
        return base + w * w * _gauss(
            lambda t: (1 - t) * self._tail(
                i, seg.lo + np.multiply.outer(w, t)) ** -2.0, 0.0, 1.0)

    def g(self, xs):
        """g at xs, a 1-D float array that must be ascending; an array back.

        g(u) = (xi(1) - xi(u)) - (J(1) - J(u)). J is taken on one slice of
        xs a segment: segment i gets (hi_{i-1}, hi_i], the last also any
        point past its end. Points all in one segment go to it whole;
        others are cut by one searchsorted of the inner segment ends.
        """
        xi = xi_deriv(self.m, xs)
        if xs.size and (i := bisect_left(self.inner, xs[0])) == bisect_left(
                self.inner, xs[-1]):
            return (self.x1 - xi) - (self.J[-1] - self._J_in(i, xs, xi))
        cuts = [0, *np.searchsorted(xs, self.inner, side="right").tolist(),
                xs.size]
        js = np.empty_like(xs)
        for i, (a, b) in enumerate(zip(cuts, cuts[1:])):
            if a < b:  # _gauss takes no empty batch
                js[a:b] = self._J_in(i, xs[a:b], xi[a:b])
        return (self.x1 - xi) - (self.J[-1] - js)


def g_of(m: Mixture, nu: ParisiMeasure, u):
    """The optimality gap g(u) on u in [0, 1]; g(1) = 0 identically.

    u is a float (a float back) or an array of any shape and order,
    sorted once for ``_Tables.g`` and returned in its own order and shape.
    """
    us = np.asarray(u, dtype=float)
    if not np.all((us >= 0.0) & (us <= 1.0)):  # NaN fails too
        raise ValueError(f"u must lie in [0, 1], got {u}")
    flat = us.ravel()
    order = np.argsort(flat)
    out = np.empty_like(flat)
    out[order] = _Tables(m, nu).g(flat[order])
    return float(out[0]) if us.ndim == 0 else out.reshape(us.shape)


def cs_energy(m: Mixture, nu: ParisiMeasure) -> float:
    """The functional value Q(nu); closed form except on full segments."""
    return _Tables(m, nu).energy


def _support_points(m: Mixture, nu: ParisiMeasure) -> np.ndarray:
    # density-part support: constant-segment left edges where the value jumps,
    # plus a dense sample of every full segment, as one array
    parts, prev = [], 0.0
    for seg in nu.segments:
        if seg.kind == "const":
            if seg.value > prev + 1e-14:
                parts.append([seg.lo])
            prev = seg.value
        else:
            parts.append(np.linspace(seg.lo, seg.hi - 1e-10, 64))
            prev = wtilde(m, min(seg.hi, 1.0) - 1e-12)
    return np.concatenate(parts) if parts else np.empty(0)


def _zoom(a, b):
    # np.linspace(a, b, _ZOOM_POINTS)'s operations, when b - a > 1e-300
    us = _ZOOM_AR * ((b - a) / (_ZOOM_POINTS - 1)) + a
    us[-1] = b
    return us


def verify_parisi(m: Mixture, nu: ParisiMeasure,
                  tol: float = 1e-7) -> VerificationReport:
    """Certify nu against the three optimality conditions at tolerance tol.

    min g is the least of g on the shared 2048-point grid (xi's powers on
    it are tabled per family, see ``mixture``) and on a zoom about the
    grid argmin: _ZOOM_ROUNDS times, g on _ZOOM_POINTS evenly spaced
    points between the two neighbours of the last argmin. The support
    residual is sup |g| over the density support sample, read from the
    grid pass when every sample point is a grid point. Point sets go to
    ``_Tables.g`` ascending.

    The conditions prove optimality only for nu in the cone of
    ``measure._structure_check`` (density >= 0 and nondecreasing, atom
    > 0). Membership is not tested here: the builders and ``verify``
    test it.
    """
    tab = _Tables(m, nu)
    nerr = abs(tab.I[-1] - xi_deriv(m, 1.0, 1))
    us = grid = _grid(0.0, 1.0, 2048)
    gv = g_grid = tab.g(grid)
    i = int(np.argmin(gv))
    min_g = float(gv[i])
    for _ in range(_ZOOM_ROUNDS):
        us = _zoom(us[max(0, i - 1)], us[min(us.size - 1, i + 1)])
        gv = tab.g(us)
        i = int(np.argmin(gv))
        min_g = min(min_g, float(gv[i]))
    pts = _support_points(m, nu)
    at = np.rint(pts * (grid.size - 1)).astype(int)
    on = bool((grid[at] == pts).all())  # a one-step measure's 0.0
    g_sup = g_grid[at] if on else tab.g(np.sort(pts))
    sres = float(np.abs(g_sup).max(initial=0.0))
    return VerificationReport(
        normalization_error=float(nerr),
        min_g=min_g,
        support_residual=sres,
        passed=bool(nerr <= tol and min_g >= -tol and sres <= tol),
        tolerance=tol,
        energy=tab.energy,
    )
