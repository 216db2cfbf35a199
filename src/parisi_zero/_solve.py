"""Brent's scalar root finder and bounded minimizer on plain floats.

The step-phase classification and the boundary solves need only two
scalar routines, both from R. P. Brent, *Algorithms for Minimization
without Derivatives* (1973), ch. 4 and 5: a bracketing root finder for
every root and stationarity condition, and a bounded minimizer that
serves only the refinement step of `energy.verify_parisi`. They are
transcribed here from scipy's ``brentq`` (its C loop) and
``minimize_scalar(method="bounded")``, with the same operations in the
same order, so they return the same iterates bit for bit while keeping
scipy itself off the import path of every caller that needs nothing
else from it.

Where scipy's C loop divides by zero it gets inf or NaN, which fails the
interpolation step's acceptance test and falls back to bisection; the
transcription takes that bisection explicitly, so no ZeroDivisionError
can escape. Errors keep scipy's types: ValueError for a bracket whose
ends have the same sign or for a NaN function value, RuntimeError when
the root finder runs out of iterations.
"""
from __future__ import annotations

import math

_RTOL = 4 * 2.220446049250313e-16  # scipy's floor on brentq's rtol
_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))


def _value(f, x):
    fx = float(f(x))
    if fx != fx:
        raise ValueError(f"The function value at x={x} is NaN; "
                         "solver cannot continue.")
    return fx


def brentq(f, a, b, xtol=2e-12, rtol=_RTOL, maxiter=100):
    """A root of f in [a, b], where f(a) and f(b) differ in sign.

    Converged when the bracket's half width falls below
    (xtol + rtol * |x|) / 2; f is called with Python floats.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < _RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {_RTOL:g})")
    xpre, xcur = float(a), float(b)
    fpre = _value(f, xpre)
    fcur = _value(f, xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        bisect = True
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            stry = None
            if xpre == xblk:
                # interpolate
                if fcur != fpre:
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
            elif xpre != xcur and xblk != xcur:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                if den != 0:
                    stry = -fcur * (fblk * dblk - fpre * dpre) / den
            # a zero divisor above gives inf or NaN in the C loop, which
            # fails this test, so stry None bisects as well
            lim = 3 * abs(sbis) - delta
            if abs(spre) < lim:
                lim = abs(spre)
            if stry is not None and 2 * abs(stry) < lim:
                # good short step
                spre, scur = scur, stry
                bisect = False
        if bisect:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _value(f, xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations, "
                       f"value is {xcur:f}")


def _sign1(v):
    # sign(v), with 0 counted as +1 and NaN kept
    if v > 0 or v == 0:
        return 1.0
    return -1.0 if v < 0 else math.nan


def fminbound(f, a, b, xatol=1e-5, maxfun=500):
    """(x, f(x)) at a local minimum of f on [a, b], to xatol in x.

    Golden-section search with parabolic steps; stops after maxfun
    calls of f without raising, returning the best point so far.
    """
    a, b = float(a), float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("Optimization bounds must be finite scalars.")
    if a > b:
        raise ValueError("The lower bound exceeds the upper bound.")
    fulc = a + _GOLDEN * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    x = xf
    fx = float(f(x))
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        # check for a parabolic fit
        if abs(e) > tol1:
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            # acceptable parabola; it implies q != 0
            if (abs(p) < abs(0.5 * q * r) and p > q * (a - xf)
                    and p < q * (b - xf)):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * _sign1(xm - xf)
            else:
                golden = True
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = _GOLDEN * e

        step = abs(rat)
        if step < tol1:
            step = tol1
        x = xf + _sign1(rat) * step
        fu = float(f(x))
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxfun:
            break
    return xf, fx
