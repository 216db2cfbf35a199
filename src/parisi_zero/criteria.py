"""Scalar criterion functions and landmark roots.

Everything the phase logic consults lives here: the tilt equation c(z),
the one-level test function zeta, the asymptotic slope Psi, the two
quadratics in lambda whose roots organize the phase diagram, the four
window functions h11/h21/h12/h22 with their common core f1/f2, the
auxiliary polynomials, and the landmark roots cut out of them.

Numerical backbone: each h-function is a rational-log expression whose
raw form loses every digit as x -> 1 because numerator and denominator
share powers of (1 - x). All expressions are instead assembled from
exact divided differences of xi at 1 (partial geometric sums, every
length of which comes from one Horner pass, in place on arrays), O(1)
and exact arbitrarily close to x = 1; h22's (1 - x)^4 is divided out the
same way (_f22). One kernel at x (xi, xi', D1, B and x xi' - xi) feeds
f12 and all four window functions, so the identities tying the h's to
f1/f2 hold by construction, not by transcription (B, which only f2
reads, is built only for an f2). Every landmark root is bracketed on a
grid of _H_GRID (1024) points and polished by Brent's method: t's and
p = 2's h22 on one fixed grid of (0, 1), where these lambda-free sums
are built once per family, the other window roots on a grid of the
window, and an h22 root collapsing onto 1 on a log grid of 1 - x.

All functions accept scalars or ndarrays in x and are pure.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np

from ._solve import brentq
from .mixture import (_H_GRID, Mixture, _exponents, _grid, _powers, _table,
                      xi_deriv)

__all__ = [
    "Landmarks",
    "QuadraticRoots",
    "c_log",
    "solve_z",
    "zeta",
    "psi",
    "lambda_stars",
    "s_roots",
    "eval_h1",
    "eval_h2",
    "eval_aux",
    "f12",
    "landmarks",
]


@dataclass(frozen=True)
class Landmarks:
    """Root landmarks of the window functions, None when absent.

    qbar1/qbar2 bound the interval where the first window function
    decreases; q12 and q22 are the zeros of the second pair h12, h22. The
    two-step test brackets its root on [q22, q12] where q22 < q12; the full
    phases and the lambda_2to2F gap read the same two. With qbar2 = 1,
    q22 = 1.0 stands for "no root below 1", read as the value x = 1; p = 2
    sets only q12 = 0.0 (its full density starts at 0) and q22.
    """

    qbar1: float | None = None
    qbar2: float | None = None
    q12: float | None = None
    q22: float | None = None


@dataclass(frozen=True)
class QuadraticRoots:
    """A quadratic a*lam**2 + b*lam + c with its real roots, if any.

    ``roots`` is an ordered pair present only when the discriminant is
    strictly positive (tangencies count as no roots). ``shortcut`` is the
    discriminant's compact factor: b*b - 4*a*c is a positive integer times
    it, so its sign, taken in integers before the float cast, decides.
    """

    a: float
    b: float
    c: float
    roots: tuple[float, float] | None = None
    shortcut: float | None = None


# ---------------------------------------------------------------------------
# exact divided-difference kernels
#
# gsum(n, x) = sum_{j<n} x^j            (1 - x^n) / (1 - x)
# wsum(n, x) = sum_{i<n} (i+1) x^i      d/dx of gsum(n+1)
# hsum(n, x) = sum_{m<=n-2} (n-1-m) x^m second-order difference weights
# ---------------------------------------------------------------------------


def _horner(x, ns, weighted=False):
    # gsum(n, x) for each n of the ascending ns (weighted: hsum(n + 1, x)) from
    # one pass, n <= 0 giving 0*x; in place on arrays, unrolled on plain floats
    acc, done, out = 0.0 * x, 0, []
    scalar = isinstance(acc, float)
    for n in ns:
        d = n - done
        if d > 0 and scalar and weighted:
            k = done + 1.0
            for _ in range(d & 3):
                acc, k = acc * x + k, k + 1.0
            for _ in range(d >> 2):
                acc = (((acc * x + k) * x + (k + 1.0)) * x + (k + 2.0)) * x + (k + 3.0)
                k += 4.0
        elif d > 0 and scalar:
            if d & 1:
                acc = acc * x + 1.0
            if d & 2:
                acc = (acc * x + 1.0) * x + 1.0
            for _ in range(d >> 2):
                acc = (((acc * x + 1.0) * x + 1.0) * x + 1.0) * x + 1.0
        else:
            for k in range(done + 1, n + 1):
                acc *= x
                acc += k if weighted else 1.0
        done = n if d > 0 else done
        out.append(acc if scalar else acc.copy())
    return out


def _wsum(n, x):
    acc = 0.0 * x  # in place on arrays, unrolled on plain floats
    if isinstance(acc, float) and n > 0:
        i = float(n)
        for _ in range(n & 3):
            acc, i = acc * x + i, i - 1.0
        for _ in range(n >> 2):
            acc = (((acc * x + i) * x + (i - 1.0)) * x + (i - 2.0)) * x + (i - 3.0)
            i -= 4.0
        return acc
    for i in range(n, 0, -1):
        acc *= x
        acc += i
    return acc


def _d1(m, x):
    # (xi'(1) - xi'(x)) / (1 - x), exact; equals xi''(1) at x=1
    lam, mu = m.lam, 1.0 - m.lam
    gp, gs = (_horner(x, (m.p - 1, m.s - 1)) if isinstance(x, float) else
              _table(m, x, "d1", _horner, x, (m.p - 1, m.s - 1)))
    return m.p * lam * gp + m.s * mu * gs


def _nfun(m, x):
    # N = (D1 - xi'') / (1 - x), exact; equals xi'''(1)/2 at x=1
    lam, mu = m.lam, 1.0 - m.lam
    return m.p * lam * _wsum(m.p - 2, x) + m.s * mu * _wsum(m.s - 2, x)


def _bfun(m, x):
    # (xi'(x) - A(x)) / (x - 1); equals xi''(1)/2 at x=1
    lam, mu = m.lam, 1.0 - m.lam
    if isinstance(x, float):
        return lam * _wsum(m.p - 1, x) + mu * _wsum(m.s - 1, x)
    return (lam * _table(m, x, "wp", _wsum, m.p - 1, x)
            + mu * _table(m, x, "ws", _wsum, m.s - 1, x))


def _tau(m, x):
    # t(x) / (1 - x)^2 with t as in eval_aux, exact: D1^2 + xi'(1) (D1r - D12
    # - xi''), D1r = (xi''(1) - D1) / (1 - x), D12 = (xi''(1) - xi'') / (1 - x)
    lam, mu = m.lam, 1.0 - m.lam
    ns, nh = (m.p - 2, m.p - 1, m.s - 2, m.s - 1), (m.p - 2, m.s - 2)
    g2p, g1p, g2s, g1s = (_horner(x, ns) if isinstance(x, float) else
                          _table(m, x, "tau", _horner, x, ns))
    hp, hs = (_horner(x, nh, True) if isinstance(x, float) else
              _table(m, x, "tau_h", _horner, x, nh, True))
    d1r = m.p * lam * hp + m.s * mu * hs
    d12 = m.p * (m.p - 1) * lam * g2p + m.s * (m.s - 1) * mu * g2s
    d1 = m.p * lam * g1p + m.s * mu * g1s
    return d1 * d1 + xi_deriv(m, 1.0, 1) * (d1r - d12 - xi_deriv(m, x, 2))


# ---------------------------------------------------------------------------
# tilt equation
# ---------------------------------------------------------------------------


# c(z) = sum_n (-1)^n z^n / ((n+1)(n+2)), highest power first for Horner
_C_SERIES = [(-1) ** n / ((n + 1) * (n + 2)) for n in range(16, -1, -1)]


def _poly(cs, x):
    # Horner on the highest-power-first cs
    acc = 0.0 * x
    for c in cs:
        acc = acc * x + c
    return acc


def c_log(z):
    """c(z) = (1+z) log(1+z) / z^2 - 1/z, the strictly decreasing tilt map.

    Defined on z > -1 with c(-1+) = 1, c(0) = 1/2, c(inf) = 0, and convex.
    The direct form loses about eps/|z| to cancellation, so below |z| = 0.1
    a degree-16 series takes over (truncation under 1e-19), good to half an
    ulp. Past the seam the direct form's terms still cancel 20-fold: off by
    up to 58 ulp near z = 0.11 (against 60-digit mpmath), under 20 below
    -0.1 and under 7 above z = 1; _c2 divides this error by z^2.
    _c_slope repeats these operations for _c_inv's Newton steps.
    """
    if isinstance(z, float) and -1.0 < z < math.inf:
        # plain-float path, same operations and bits as a 0-d array;
        # NaN, inf and z <= -1 go on to the array path
        if abs(z) < 0.1:
            return _poly(_C_SERIES, float(z))
        return float((1 + z) * np.log1p(z) / (z * z) - 1 / z)
    z = np.asarray(z, dtype=float)
    if not np.all(z > -1):
        raise ValueError("c_log requires z > -1")
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.asarray((1 + z) * np.log1p(z) / (z * z) - 1 / z)
    small = np.abs(z) < 0.1
    if small.any():
        out[small] = _poly(_C_SERIES, z[small])
    return float(out) if out.ndim == 0 else out


def _c_slope(z):
    # (c(z), c'(z)) for a float z >= 0, c with c_log's bits and both from
    # one pass: the series and its term-by-term derivative (Horner's
    # derivative loop) below 0.1, else one log1p; c' < 0 up to 2^512
    if z < 0.1:
        c = dc = 0.0
        for coef in _C_SERIES:
            dc = dc * z + c
            c = c * z + coef
        return c, dc
    lg = float(np.log1p(z))
    return (1 + z) * lg / (z * z) - 1 / z, (2 * z - (2 + z) * lg) / (z * z) / z


_C_INV_STEPS = 24  # a backstop on _c_inv's Newton steps
_c_doubling = lru_cache(maxsize=None)(c_log)  # c(2^k), kept as _c_inv meets it


def _c_inv(y):
    # unique z > 0 with c(z) = y, for y in (0, 1/2): Newton's method from the
    # left end of the first doubling bracket [2^(k-1), 2^k] with c(2^k) <= y
    # (from 0 for k = 0). c is convex and decreasing, so every iterate stays
    # left of the root and climbs to it; stop once one fails to climb or
    # c(z) <= y, after about 6 c's (at most 16 on 250k random y)
    if not 0.0 < y < 0.5:
        raise ValueError(f"c_inv needs y in (0, 1/2), got {y}")
    hi = 1.0
    while (c_hi := _c_doubling(hi)) > y:
        hi *= 2
    if not c_hi > 0.0:  # z * z overflows in c from 2^512 on
        raise ValueError(f"c_inv needs y >= c(2^511) ~ 5.3e-152, got {y}")
    z = hi / 2 if hi > 1.0 else 0.0
    for _ in range(_C_INV_STEPS):
        c, dc = _c_slope(z)
        if c <= y or (t := z - (c - y) / dc) <= z:
            break
        z = t
    return z


def solve_z(m: Mixture) -> float:
    """The tilt z >= 0 solving c(z) = 1/xi'(1) to a few ulps by Newton's
    method (see _c_inv); exactly 0 when xi'(1) <= 2."""
    a = xi_deriv(m, 1.0, 1)
    if a <= 2.0:
        return 0.0
    return _c_inv(1.0 / a)


# ---------------------------------------------------------------------------
# pointwise criteria
# ---------------------------------------------------------------------------


def _zeta_at(m: Mixture, x, z: float, a: float):
    # a = xi'(1), passed in so a scan over x computes it once
    x1 = xi_deriv(m, x, 1)
    return (xi_deriv(m, x) + x1 * (1 - x) + x1 / z
            - (1 + z) * a / z ** 2 * np.log1p(z * x1 / a))


def zeta(m: Mixture, x):
    """One-level optimality gap; the model is one-step iff max zeta <= 0.

    Vanishes identically at both endpoints (at 0 because xi(0)=xi'(0)=0,
    at 1 by the defining equation of z), so callers test the interior
    maximum against a small positive floor, never strict negativity.
    """
    z = solve_z(m)
    if z == 0.0:
        raise ValueError("zeta degenerates at z = 0 (replica-symmetric model)")
    return _zeta_at(m, x, z, xi_deriv(m, 1.0, 1))


def psi(p: int, s: int, lam: float) -> float:
    """Common x -> 1 limit of the first window functions h11 and h12.

    Its sign at specific roots in lambda decides which regime a (p, s)
    family belongs to.
    """
    a = lam * p + (1 - lam) * s
    b = lam * p * (p - 1) + (1 - lam) * s * (s - 1)
    return float(-(a - 1) / b - np.log(b / a) + 1 - 2 / a + b / a ** 2)


def _q_coeffs(p, s):
    a = (s - p) ** 2 * (s * s - 3 * s + 2 + p * p + 3 * p * s - 3 * p)
    b = -s * (s - p) * (2 * s * s - 6 * s + 4 - p * p + 3 * p * s - 3 * p)
    c = s * s * (s - 1) * (s - 2)
    return float(a), float(b), float(c)


def _quad_roots(a, b, c, exact):
    # stable quadratic roots, ordered; None unless the exact integer
    # discriminant is positive, whose value stands in for b*b - 4*a*c
    # where that cancels to <= 0 in floats
    if a == 0.0 or exact <= 0:
        return None
    disc = b * b - 4 * a * c
    disc = disc if disc > 0.0 else float(exact)
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    r1, r2 = q / a, c / q
    return (r1, r2) if r1 < r2 else (r2, r1)


def lambda_stars(p: int, s: int) -> QuadraticRoots:
    """The lambda-quadratic whose roots bracket the Psi sign change.

    b^2 - 4ac = p^2 s^2 (p - s)^2 times the compact discriminant
    s^2 - 6(p-1)s + (p-1)(p+7), whose sign, taken in integers, decides.
    """
    a, b, c = _q_coeffs(p, s)
    shortcut = s * s - 6 * (p - 1) * s + (p - 1) * (p + 7)
    exact = (p * s * (p - s)) ** 2 * shortcut
    return QuadraticRoots(a, b, c, roots=_quad_roots(a, b, c, exact),
                          shortcut=float(shortcut))


def _s_coeffs(p, s):
    c2 = p ** 3 * (p - 1) ** 2 * (p - 2)
    c0 = s ** 3 * (s - 1) ** 2 * (s - 2)
    cx = -2 * p * (p - 1) * s * (s - 1) * (
        (p - 2) * (p - 3) + (s - 2) * (s - 3) - 3 * (p - 2) * (s - 2))
    # c0 (1-lam)^2 + c2 lam^2 + cx lam (1-lam), expanded in lam
    return float(c0 + c2 - cx), float(-2 * c0 + cx), float(c0)


def s_of(p: int, s: int, lam: float) -> float:
    """3 xi'''(1)^2 - 2 xi''(1) xi''''(1) as a quadratic in lambda."""
    a, b, c = _s_coeffs(p, s)
    return (a * lam + b) * lam + c


def s_roots(p: int, s: int) -> QuadraticRoots:
    """Roots of the full-type onset quadratic (smaller root first); b^2 - 4ac
    is 4 (p s (p - 1) (p - s) (s - 1))^2 times the compact discriminant."""
    a, b, c = _s_coeffs(p, s)
    shortcut = (s * s - 6 * (p - 1) * s + (p - 1) * (p + 7)
                + 2 * (p - 2) * (s - 2))
    exact = 4 * (p * s * (p - 1) * (p - s) * (s - 1)) ** 2 * shortcut
    return QuadraticRoots(a, b, c, roots=_quad_roots(a, b, c, exact),
                          shortcut=float(shortcut))


def _check_q(q):
    # f12's domain check on q, made before anything divides by q or xi'(q)
    if not (0.0 < q < 1.0 if isinstance(q, float) else
            np.all(np.asarray(q) > 0.0) and np.all(np.asarray(q) < 1.0)):
        raise ValueError(f"q must lie in (0, 1), got {q}")


def _kernel(m: Mixture, q, f2=True):
    # (xi, xi', D1, B, q xi' - xi) at q, all that f12 reads of q (B, which
    # only f2 reads, is None without f2); the last is assembled term-by-term
    # so it vanishes cleanly at 0
    _check_q(q)
    lam, mu = m.lam, 1.0 - m.lam
    if isinstance(q, float):  # mixture's scalar rule: xi_deriv's bits
        qp, qs, qp1, qs1 = _powers(q, _exponents((m.p, m.s, m.p - 1, m.s - 1)))
        xq, x1 = lam * qp + mu * qs, m.p * lam * qp1 + m.s * mu * qs1
    else:  # on arrays xi_deriv's pow is np.power from exponent 3 on
        qp, qs = np.power(q, m.p), np.power(q, m.s)
        xq = lam * qp + mu * qs if m.p >= 3 else xi_deriv(m, q)
        x1 = xi_deriv(m, q, 1)
    qxp = lam * (m.p - 1) * qp + mu * (m.s - 1) * qs
    return xq, x1, _d1(m, q), _bfun(m, q) if f2 else None, qxp


def _f2(q, z2, d1, b):
    # (1 - q)^2 (D1 c(z2) - B), after f12's check on z2
    if not (z2 > -1.0 if isinstance(z2, float) else np.all(np.asarray(z2) > -1.0)):
        raise ValueError(f"z2 must exceed -1, got {z2}")
    return (1 - q) * (1 - q) * (d1 * c_log(z2) - b)


def _f1(q, z2, k):
    xq, x1, d1, b, qxp = k
    return (-qxp * (1 + z2) / d1
            - q * q * np.log(q * d1 / ((1 + z2) * x1))
            + q * q - 2 * xq * q / x1
            + xq * q * q * d1 / ((1 + z2) * (x1 * x1)))


def _f12(q, z2, k):
    f2 = _f2(q, z2, k[2], k[3])
    return _f1(q, z2, k), f2


def f12(m: Mixture, q, z2):
    """The two-level stationarity pair (f1, f2) at overlap q and tilt z2.

    f2's z2-dependence enters only through c_log, so its z2 -> 0 limit is
    finite and the strict monotonicity of c transfers to f2.
    """
    return _f12(q, z2, _kernel(m, q))


def _tilt(m: Mixture, x, k, first):
    # z2 of the first window pair (h11, h21) or of the second (h12, h22)
    w = xi_deriv(m, 1.0, 1) * x / k[1] if first else k[2] / xi_deriv(m, x, 2)
    return w - 1.0


def _pair(m: Mixture, x, k, first):
    # the first window pair (h11, h21) or the second (h12, h22) from k
    f1, f2 = _f12(x, _tilt(m, x, k, first), k)
    return f1 / (x * x), f2


def _window(m: Mixture, x, first, one, k=None, z2=None):
    # one window function alone: h11 (first, one), h21 (first), h12 (one) or
    # h22; a grid pass hands in its kernel k at x and the pair's tilt z2
    k = _kernel(m, x, not one) if k is None else k
    z2 = _tilt(m, x, k, first) if z2 is None else z2
    return _f1(x, z2, k) / (x * x) if one else _f2(x, z2, k[2], k[3])


def eval_h1(m: Mixture, x):
    """First window pair (h11, h21): f1/f2 at the tilt xi'(1)x/xi'(x) - 1."""
    return _pair(m, x, _kernel(m, x), True)


def eval_h2(m: Mixture, x):
    """Second window pair (h12, h22): f1/f2 at the tilt D1(x)/xi''(x) - 1."""
    return _pair(m, x, _kernel(m, x), False)


def _h22(m: Mixture, x):
    # eval_h2(m, x)[1] without xi, xi' and h12's logs
    _check_q(x)
    d1 = _d1(m, x)
    return _f2(x, d1 / xi_deriv(m, x, 2) - 1.0, d1, _bfun(m, x))


@lru_cache(maxsize=8)
def _g1_parts(p, s):
    # 12 G1's lam^2, lam mu and mu^2 parts (see _f22), ascending, one length
    tri = lambda n: n * (n + 1) // 2

    def cross(k, n):
        # 12 E_k xi_n'' - 2 D1_k N_n of the terms x^k, x^n: E_k's x^j coefficient
        # is (j+1)(k-j-2)/2, gsum(k-1) wsum(n-2)'s x^m sums i + 1 over i < n - 2
        # with m - k + 1 < i <= m
        out = [-2 * k * n * (tri(min(n - 2, m + 1)) - tri(max(0, m - k + 2)))
               for m in range(k + n - 4)] + [0] * (2 * s - k - n)
        for j in range(k - 2):
            out[n - 2 + j] += 6 * n * (n - 1) * (j + 1) * (k - j - 2)
        return out

    # G1 = G / (1 - x): partial sums, the last (G at 1) being 0
    return tuple(list(accumulate(cs))[:-1] for cs in (
        cross(p, p), [a + b for a, b in zip(cross(p, s), cross(s, p))],
        cross(s, s)))


@lru_cache(maxsize=64)
def _g1_coeffs(p, s, lam):
    # G1's coefficients at this lambda, highest power first
    l2, lm, m2 = lam * lam, lam * (1.0 - lam), (1.0 - lam) ** 2
    return [(l2 * a + lm * b + m2 * c) / 12
            for a, b, c in reversed(list(zip(*_g1_parts(p, s))))]


def _c2(z):
    # (c(z) - 1/2 + z/6) / z^2, z >= 0: c's series less two terms below 0.1
    if isinstance(z, float):
        return (_poly(_C_SERIES[:-2], z) if z < 0.1
                else (c_log(z) - 0.5 + z / 6) / (z * z))
    out, big = np.empty_like(z), z >= 0.1
    out[~big], zb = _poly(_C_SERIES[:-2], z[~big]), z[big]
    out[big] = (c_log(zb) - 0.5 + zb / 6) / (zb * zb)
    return out


def _f22(m: Mixture, x):
    """F = h22 / (1 - x)^4 = (D1 c(z2) - B) / (1 - x)^2 on (0, 1], exact.

    With u = 1 - x, w = N / xi'' (N = _nfun, z2 = u w), e = (D1/2 - B) / u and
    G = e xi'' - D1 N / 6, F = G1 / xi'' + D1 w^2 c2(u w) with G1 = G / u,
    whose coefficients are exact partial sums (_g1_parts): no term cancels
    as x -> 1. F(1) = -S / (144 xi''(1)), S = s_of.
    """
    x2 = xi_deriv(m, x, 2)
    w = _nfun(m, x) / x2
    return (_poly(_g1_coeffs(m.p, m.s, m.lam), x) / x2
            + _d1(m, x) * (w * w) * _c2((1 - x) * w))


_QBAR_INSET = 1e-12  # landmarks scans the h's this far inside (qbar1, qbar2)
# grid values within this times max(1, the scan's largest |value|) of 0 have
# no sign; the all-family ladder read the same table at x10 and /10
_FIRM_FLOOR = 1e-14
_EDGE_U = np.geomspace(1e-2, 1e-15, 53)  # 1 - x on _f22's edge scan


def eval_aux(m: Mixture, x):
    """The auxiliary polynomials (t, m_cubic, t12), evaluated exactly.

    t < 0 marks the window where the first pair can cross; m_cubic's sign
    tracks the slope of h22; t12's sign at q1 certifies the density jump
    of the mixed constructions.
    """
    a = xi_deriv(m, 1.0, 1)
    x1 = xi_deriv(m, x, 1)
    x2 = xi_deriv(m, x, 2)
    x3 = xi_deriv(m, x, 3)
    t = a * x2 * x * (1 - x) - x1 * (a - x1)
    d1gap = a - x1
    m_cub = x3 * d1gap * (1 - x) - 2 * x2 * (d1gap - x2 * (1 - x))
    t12 = x * x1 * x3 - 2 * x2 * (x * x2 - x1)
    return t, m_cub, t12


# ---------------------------------------------------------------------------
# landmark roots
# ---------------------------------------------------------------------------


def _sign_roots(f, lo, hi, n=None, falling=False):
    """Roots of f on linspace(lo, hi, n or _H_GRID) (see _grid_roots)."""
    xs = _grid(lo, hi, _H_GRID if n is None else n)
    return _grid_roots(f, xs, np.asarray(f(xs), dtype=float), falling)


def _grid_roots(f, xs, vs, falling=False):
    """Roots of f from its values vs on the ascending grid xs, ascending.

    Each bracket is a pair of neighbouring firm grid values of opposite
    sign, refined by brentq on f; a caller that already holds f on a grid
    passes it here directly. With falling, only the brackets where f falls
    from + to - are refined, for a caller that reads no other root.

    Tangency rule: a sign change counts only between grid values that both
    clear a noise floor tied to the function's scale; sub-floor values are
    bridged so a root landing on a grid point is still caught, while
    rounding noise (several criteria cancel identically at 0) cannot
    fabricate one. Tangential touches therefore resolve to "absent".
    """
    eps = _FIRM_FLOOR * max(1.0, float(np.abs(vs).max()))
    firm = np.nonzero(np.abs(vs) > eps)[0]
    a, b = firm[:-1], firm[1:]
    flip = vs[a] * vs[b] < 0.0
    if falling:
        flip &= vs[a] > 0.0
    return [brentq(f, xs[a[i]], xs[b[i]], xtol=1e-14, rtol=8.9e-16,
                   fa=vs[a[i]], fb=vs[b[i]]) for i in np.nonzero(flip)[0]]


def landmarks(m: Mixture) -> Landmarks:
    """Locate the landmark roots; absent landmarks come back as None.

    p = 2 (xi''(0) > 0) has no t window: q12 = 0.0, and below lambda_1Fto1
    (onset quadratic > 0) q22 is h22's first root on the fixed
    _H_GRID-point grid of (0, 1), else the edge scan's, else None; past it
    q22 = 1.0. Otherwise qbar1/qbar2 are t's sign changes on that grid; with
    one change t stays negative up to 1, so qbar2 := 1 (t(1) can read as
    +noise where the lambda-quadratic has a root). q12 and q22 are isolated
    inside (qbar1, qbar2) on one grid of as many points, built only when a
    root is read from it, following the sign of h11 at qbar2 and of h21 at
    qbar1 and, for h22 with qbar2 = 1, the onset quadratic's: the first root
    of h12, the last of h22. Where no grid holds h22's root, the edge scan
    takes the root nearest 1 of h22 / (1 - x)^4 (_f22, exact as the root
    collapses onto 1) on a log grid of 1 - x from 1e-2 down, x = 1 included.
    """
    h22 = lambda x: _h22(m, x)

    def edge(lo, default):  # _f22's root nearest 1 on the edge scan above lo
        xs = np.append(1.0 - _EDGE_U[_EDGE_U < 1.0 - lo], 1.0)
        r = _grid_roots(lambda x: _f22(m, x), xs, _f22(m, xs))
        return r[-1] if r else default

    if xi_deriv(m, 0.0, 2) > 0.0:  # p = 2: no t window, q12 = 0
        q22 = 1.0
        if s_of(m.p, m.s, m.lam) > 0.0:
            roots = _sign_roots(h22, 1e-9, 1 - 1e-9)
            q22 = roots[0] if roots else edge(1e-9, None)
        return Landmarks(q12=0.0, q22=q22)
    tb = _sign_roots(lambda x: _tau(m, x), 1e-9, 1 - 1e-9)
    if not tb:
        return Landmarks()
    qbar1 = tb[0]
    qbar2 = tb[1] if len(tb) >= 2 else 1.0
    hi_in = qbar2 - _QBAR_INSET if qbar2 < 1 else 1 - 1e-9
    lo = qbar1 + _QBAR_INSET
    scan_h11 = _window(m, hi_in if qbar2 == 1.0 else qbar2, True, True) > 0
    scan_h21 = _window(m, qbar1, True, False) > 0
    scan_h22 = scan_h21 and (qbar2 < 1 or s_of(m.p, m.s, m.lam) > 0)
    if scan_h11 or scan_h22:  # the one grid of every window scan
        xs = np.linspace(lo, hi_in, _H_GRID)
        k = _kernel(m, xs, scan_h22)
        z2 = _tilt(m, xs, k, False)

    def root(one):
        # the first root of h12 (one), the last of h22
        f = (lambda x: _window(m, x, False, True)) if one else h22
        r = _grid_roots(f, xs, _window(m, xs, False, one, k, z2))
        return (r[0] if one else r[-1]) if r else None

    q12 = root(True) if scan_h11 else None
    # h22's root lies inside the window, never at 0: `or` reads "not found"
    q22 = ((root(False) or (edge(lo, 1.0) if qbar2 == 1.0 else None))
           if scan_h22 else 1.0 if scan_h21 else None)
    return Landmarks(qbar1=qbar1, qbar2=qbar2, q12=q12, q22=q22)
