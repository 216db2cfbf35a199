"""Brent's scalar root finder on plain floats.

The step-phase classification and the boundary solves need one scalar
routine, the bracketing root finder of R. P. Brent, *Algorithms for
Minimization without Derivatives* (1973), ch. 4, for every root and
stationarity condition. It is transcribed here from scipy's ``brentq``
(its C loop), with the same operations in the same order, so it returns
the same iterates bit for bit while keeping scipy itself off the import
path of every caller that needs nothing else from it. A caller may pass
f(a) and f(b) as fa and fb; the iterates are scipy's whenever they equal
f(a) and f(b).

Where scipy's C loop divides by zero it gets inf or NaN, which fails the
interpolation step's acceptance test and falls back to bisection; the
transcription takes that bisection explicitly, so no ZeroDivisionError
can escape. Errors keep scipy's types: ValueError for a bracket whose
ends have the same sign or for a NaN function value, RuntimeError when
the root finder runs out of iterations.
"""
from __future__ import annotations

_RTOL = 4 * 2.220446049250313e-16  # scipy's floor on brentq's rtol


def _value(fx, x):
    fx = float(fx)
    if fx != fx:
        raise ValueError(f"The function value at x={x} is NaN; "
                         "solver cannot continue.")
    return fx


def brentq(f, a, b, xtol=2e-12, rtol=_RTOL, maxiter=100, fa=None, fb=None):
    """A root of f in [a, b], where f(a) and f(b) differ in sign.

    Converged when the bracket's half width falls below
    (xtol + rtol * |x|) / 2; f is called with Python floats. fa and fb,
    where given, stand for f(a) and f(b) and are checked alike.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < _RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {_RTOL:g})")
    xpre, xcur = float(a), float(b)
    fpre = _value(f(xpre) if fa is None else fa, xpre)
    fcur = _value(f(xcur) if fb is None else fb, xcur)
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
        fcur = _value(f(xcur), xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations, "
                       f"value is {xcur:f}")
