"""Scalar criterion functions and landmark roots.

Everything the phase logic consults lives here: the tilt equation c(z),
the one-level test function zeta, the asymptotic slope Psi, the two
quadratics in lambda whose roots organize the phase diagram, the four
window functions h11/h21/h12/h22 with their common core f1/f2, the
auxiliary polynomials, and the landmark roots cut out of them.

Numerical backbone: each h-function is a rational-log expression whose
raw form loses every digit as x -> 1 because numerator and denominator
share powers of (1 - x). Instead of switching to local expansions near
the endpoint, all expressions are assembled from exact divided
differences of xi at 1 (partial geometric sums, every length of which
comes from one Horner pass, in place on arrays), which remain O(1) and
exact arbitrarily close to x = 1. One kernel at x (xi, xi', D1, B and
x xi' - xi) feeds f12 and all four window functions, so the identities
tying the h's to f1/f2 hold by construction, not by transcription. On
the fixed scan grids these lambda-free sums are built once per family.

All functions accept scalars or ndarrays in x and are pure.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._solve import brentq
from .mixture import Mixture, _grid, _table, xi_deriv

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
    decreases; the four q's are the zeros of h11, h12, h21, h22 used by
    the two-level and full-type constructions, all found on one grid.
    With qbar2 = 1, q21 = q22 = 1.0 stand for "no root below 1". q22_edge
    holds an h22 root that the edge ladder found pressed against 1 but
    that h22's rounding floor leaves uncertified; q22 is None then.
    """

    qbar1: float | None = None
    qbar2: float | None = None
    q11: float | None = None
    q12: float | None = None
    q21: float | None = None
    q22: float | None = None
    q22_edge: float | None = None


@dataclass(frozen=True)
class QuadraticRoots:
    """A quadratic a*lam**2 + b*lam + c with its real roots, if any.

    ``roots`` is an ordered pair present only when the discriminant is
    strictly positive (tangencies count as no roots). ``shortcut`` is a
    compact printed form of the discriminant kept for diagnostics; the
    sign decision uses b*b - 4*a*c in floats, which large s can cancel.
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
        if d > 0 and scalar and not weighted:
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
    g2p, g1p, g2s, g1s = _table(m, x, "tau", _horner, x, ns)
    hp, hs = _table(m, x, "tau_h", _horner, x, nh, True)
    d1r = m.p * lam * hp + m.s * mu * hs
    d12 = m.p * (m.p - 1) * lam * g2p + m.s * (m.s - 1) * mu * g2s
    d1 = m.p * lam * g1p + m.s * mu * g1s
    return d1 * d1 + xi_deriv(m, 1.0, 1) * (d1r - d12 - xi_deriv(m, x, 2))


# ---------------------------------------------------------------------------
# tilt equation
# ---------------------------------------------------------------------------


# c(z) = sum_n (-1)^n z^n / ((n+1)(n+2)), highest power first for Horner
_C_SERIES = [(-1) ** n / ((n + 1) * (n + 2)) for n in range(16, -1, -1)]


def _c_series(z):
    acc = 0.0 * z
    for coef in _C_SERIES:
        acc = acc * z + coef
    return acc


def c_log(z):
    """c(z) = (1+z) log(1+z) / z^2 - 1/z, the strictly decreasing tilt map.

    Defined on z > -1 with c(-1+) = 1, c(0) = 1/2, c(inf) = 0. The direct
    form loses about eps/|z| to cancellation, so below |z| = 0.1 a degree-16
    series takes over (truncation under 1e-19); both branches then hold c
    to a few ulps, which the sign of h22 near x = 1 depends on.
    """
    if isinstance(z, float) and -1.0 < z < math.inf:
        # plain-float path, same operations and bits as a 0-d array;
        # NaN, inf and z <= -1 go on to the array path
        if abs(z) < 0.1:
            return _c_series(float(z))
        return float((1 + z) * np.log1p(z) / (z * z) - 1 / z)
    z = np.asarray(z, dtype=float)
    if not np.all(z > -1):
        raise ValueError("c_log requires z > -1")
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.asarray((1 + z) * np.log1p(z) / (z * z) - 1 / z)
    small = np.abs(z) < 0.1
    out[small] = _c_series(z[small])
    return float(out) if out.ndim == 0 else out


def _c_prime(z: float) -> float:
    # c'(z) for a float z >= 0; -0.0 where z^3 overflows, past z ~ 5.6e102
    if z < 1e-4:
        return float(-1 / 6 + z / 6 - 3 * z * z / 20 + 2 * np.power(z, 3) / 15)
    with np.errstate(over="ignore"):
        return float((2 * z - (2 + z) * np.log1p(z)) / np.power(z, 3))


_c_doubling = lru_cache(maxsize=None)(c_log)  # c(2^k), kept as _c_inv meets it


def _c_inv(y):
    # unique z > 0 with c(z) = y, for y in (0, 1/2): Brent on [0, 2^k] from
    # c(0) = 1/2 (exact) and the first kept c(2^k) <= y, then one Newton step
    # from c at Brent's root, which tightens the residual to the floor
    if not 0.0 < y < 0.5:
        raise ValueError(f"c_inv needs y in (0, 1/2), got {y}")
    hi = 1.0
    while (c_hi := _c_doubling(hi)) > y:
        hi *= 2
    if not c_hi > 0.0:  # z * z overflows in c from 2^512 on
        raise ValueError(f"c_inv needs y >= c(2^511) ~ 5.3e-152, got {y}")
    cs = {0.0: 0.5, hi: c_hi}  # c at every point Brent reads

    def f(t):
        cs[t] = c = c_log(t)
        return c - y

    z = brentq(f, 0.0, hi, xtol=1e-15, rtol=8.9e-16, fa=0.5 - y, fb=c_hi - y)
    dc = _c_prime(z)  # < 0, but 0 once z^3 overflows (z past ~5.6e102)
    return z - (cs[z] - y) / dc if -math.inf < dc < 0.0 else z


def solve_z(m: Mixture) -> float:
    """The tilt z >= 0 solving c(z) = 1/xi'(1); exactly 0 when xi'(1) <= 2."""
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


def _quad_roots(a, b, c):
    # stable quadratic roots, ordered; None unless two distinct real roots
    disc = b * b - 4 * a * c
    if a == 0.0 or disc <= 0.0:
        return None
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    r1, r2 = q / a, c / q
    return (r1, r2) if r1 < r2 else (r2, r1)


def lambda_stars(p: int, s: int) -> QuadraticRoots:
    """The lambda-quadratic whose roots bracket the Psi sign change.

    The compact discriminant s^2 - 6(p-1)s + (p-1)(p+7) is attached as a
    diagnostic; the root decision uses b^2 - 4ac, taken in floats.
    """
    a, b, c = _q_coeffs(p, s)
    shortcut = float(s * s - 6 * (p - 1) * s + (p - 1) * (p + 7))
    return QuadraticRoots(a, b, c, roots=_quad_roots(a, b, c), shortcut=shortcut)


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
    """Roots of the full-type onset quadratic (smaller root first)."""
    a, b, c = _s_coeffs(p, s)
    shortcut = float(s * s - 6 * (p - 1) * s + (p - 1) * (p + 7)
                     + 2 * (p - 2) * (s - 2))
    return QuadraticRoots(a, b, c, roots=_quad_roots(a, b, c), shortcut=shortcut)


def _check_q(q):
    # f12's domain check on q, made before anything divides by q or xi'(q)
    if not (0.0 < q < 1.0 if isinstance(q, float) else
            np.all(np.asarray(q) > 0.0) and np.all(np.asarray(q) < 1.0)):
        raise ValueError(f"q must lie in (0, 1), got {q}")


# a float's powers p, s, p-1, s-1 in one np.power call, all >= 3 (mixture's rule)
_kernel_exps = lru_cache(maxsize=None)(
    lambda p, s: np.array([p, s, p - 1, s - 1], float))


def _kernel(m: Mixture, q):
    # (xi, xi', D1, B, q xi' - xi) at q, all that f12 reads of q; the last is
    # assembled term-by-term so it vanishes cleanly at 0
    _check_q(q)
    if isinstance(q, float) and not m.is_pure and m.p >= 4:  # xi_deriv's bits
        qp, qs, qp1, qs1 = np.power(q, _kernel_exps(m.p, m.s)).tolist()
        ((c0, _), (d0, _)), ((c1, _), (d1, _)) = m.terms[:2]
        xq, x1 = c0 * qp + d0 * qs, c1 * qp1 + d1 * qs1
    else:
        qp, qs = np.power(q, m.p), np.power(q, m.s)
        xq, x1 = xi_deriv(m, q), xi_deriv(m, q, 1)
    qxp = m.lam * (m.p - 1) * qp + (1.0 - m.lam) * (m.s - 1) * qs
    return xq, x1, _d1(m, q), _bfun(m, q), qxp


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
    k = _kernel(m, x) if k is None else k
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


def _h22_floor(m: Mixture, x):
    """A bound on the rounding error of eval_h2's h22 at x.

    h22 = (1-x)^2 (D1 c(z2) - B) with c held to a few ulps; against a
    60-digit transcription the error stayed below 7 eps (1-x)^2 (|D1|+|B|)
    on p = 2 families near the plateau edge, so this allows 32.
    """
    scale = np.abs(_d1(m, x)) + np.abs(_bfun(m, x))
    return 32 * np.finfo(float).eps * ((1 - x) * (1 - x)) * scale


_PLATEAU_TOL = 1e-6  # half-width of the bracket certifying an h22 root
_QBAR_INSET = 1e-12  # landmarks scans the h's this far inside (qbar1, qbar2)


def _h22_root_certified(m: Mixture, q: float) -> bool:
    """Whether h22 reads firm opposite signs either side of its root q.

    Near 1, h22 sits only a few orders above its rounding floor, so a
    root found there (by the edge ladder above all) counts only where
    h22 clears _h22_floor at both ends of a bracket within _PLATEAU_TOL
    of q and inside (0, 1), with opposite signs.
    """
    ends = [max(q - _PLATEAU_TOL, 0.5 * q),
            min(q + _PLATEAU_TOL, 0.5 * (1.0 + q))]  # plain floats
    (va, fa), (vb, fb) = [(_h22(m, x), _h22_floor(m, x)) for x in ends]
    return bool(va * vb < 0 and abs(va) > fa and abs(vb) > fb)


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


def _sign_roots(f, lo, hi, n=4096, falling=False):
    """Roots of f on linspace(lo, hi, n), ascending (see _grid_roots)."""
    xs = _grid(lo, hi, n)
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
    eps = 1e-14 * max(1.0, float(np.abs(vs).max()))
    firm = np.nonzero(np.abs(vs) > eps)[0]
    a, b = firm[:-1], firm[1:]
    flip = vs[a] * vs[b] < 0.0
    if falling:
        flip &= vs[a] > 0.0
    return [brentq(f, xs[a[i]], xs[b[i]], xtol=1e-14, rtol=8.9e-16,
                   fa=vs[a[i]], fb=vs[b[i]]) for i in np.nonzero(flip)[0]]


def _edge_root(f, lo):
    """A root collapsed against x = 1, below the sign scan's firmness floor.

    Within ~4e-4 of the collapse every value past the root is smaller than
    the scan floor; walk a geometric ladder toward 1 and hand the first
    sign disagreement to brentq. The values there can sit at their own
    rounding floor (for h22 see _h22_floor), where the sign is noise, so
    the root is a candidate that the caller still has to certify with
    _h22_root_certified.
    """
    a, fa = lo, float(f(lo))
    for k in range(2, 9):
        x = 1.0 - 10.0 ** -k
        if x <= a:
            continue
        fx = float(f(x))
        if fa != 0.0 and fx != 0.0 and (fa > 0.0) != (fx > 0.0):
            return brentq(f, a, x, xtol=1e-14, rtol=8.9e-16, fa=fa, fb=fx)
        a, fa = x, fx
    return None


def landmarks(m: Mixture) -> Landmarks:
    """Locate the landmark roots; absent landmarks come back as None.

    qbar1/qbar2 are the sign changes of t in (0, 1); exactly one genuine
    change means t stays negative up to 1, so qbar2 := 1 (t(1) itself can
    read as +noise at the knife edge where the lambda-quadratic has a
    root). The h-roots are then isolated inside (qbar1, qbar2) on one
    4096-point grid, following the case split on qbar2 and, for h22 with
    qbar2 = 1, on the sign of the full-type onset quadratic; there, where
    the grid holds no h22 root, the edge ladder looks closer to 1, and a
    root from it that fails its certificate is reported as q22_edge, with
    q22 None. The grid is built only when a root is read from it, and its
    one kernel pass feeds only the scanned window functions; the first
    root of h11 and h12 is read, the last of h21 and h22.
    """
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
    h22 = lambda x: _h22(m, x)
    if scan_h11 or scan_h22:  # the one grid of every window scan
        xs = np.linspace(lo, hi_in, 4096)
        k, z2 = _kernel(m, xs), {}

    def root(first, one):
        # the first root of h11 or h12 (one), the last of h21 or h22
        if first not in z2:
            z2[first] = _tilt(m, xs, k, first)
        f = h22 if not (first or one) else lambda x: _window(m, x, first, one)
        r = _grid_roots(f, xs, _window(m, xs, first, one, k, z2[first]))
        return (r[0] if one else r[-1]) if r else None

    q11 = q12 = q21 = q22 = q22_edge = None
    if scan_h11:
        q11, q12 = root(True, True), root(False, True)
    if scan_h21:
        q21 = root(True, False) if qbar2 < 1 else 1.0
        if scan_h22:
            q22 = root(False, False)
            if q22 is None and qbar2 == 1.0:
                q22 = _edge_root(h22, lo)
                if q22 is None:
                    q22 = 1.0
                elif not _h22_root_certified(m, q22):
                    q22, q22_edge = None, q22
        else:
            q22 = 1.0
    return Landmarks(qbar1=qbar1, qbar2=qbar2, q11=q11, q12=q12, q21=q21,
                     q22=q22, q22_edge=q22_edge)
