"""The plain-float Brent root finder against scipy's, iterate for iterate.

The package's own root solves are recorded at their call sites (so the
functions, brackets and tolerances are exactly the ones classification
and the boundary solves use) and replayed through both implementations;
the synthetic cases cover the corners of the loop.
"""
import math

import numpy as np
import pytest
import scipy.optimize

from parisi_zero import _solve, boundaries, criteria, make_mixture, phases


def _logged(f, xs):
    def g(x):
        xs.append(float(x))
        return f(x)
    return g


def _same_root(f, a, b, **kw):
    ours, theirs = [], []
    r = _solve.brentq(_logged(f, ours), a, b, **kw)
    s = scipy.optimize.brentq(_logged(f, theirs), a, b, **kw)
    assert type(r) is float
    assert r == s and ours == theirs, (a, b, kw)
    return r


def _record(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def rec(f, a, b, **kw):
        calls.append((f, a, b, kw))
        return real(f, a, b, **kw)
    monkeypatch.setattr(module, name, rec)
    return calls


def test_package_root_solves_match_scipy(monkeypatch):
    # the psi roots and both boundary polishes' seeds (phases), the tilt
    # inversion and every landmark root (criteria), the two-step phi
    crit = _record(monkeypatch, criteria, "brentq")
    phs = _record(monkeypatch, phases, "brentq")
    boundaries.__wrapped__(4, 38)
    boundaries.__wrapped__(2, 8)
    for p, s, lam in ((4, 38, 0.95), (4, 38, 0.985), (4, 38, 0.988),
                      (3, 20, 0.9), (2, 8, 0.5), (2, 4, 0.93)):
        m = make_mixture(p, s, lam)
        if p == 2:
            phases._classify_p2(m, boundaries(p, s), 1e-7)
        else:
            phases._classify_general(m, 1e-7)
    assert len(phs) >= 4 and len(crit) >= 50
    # the two-step phi and the p = 2 entry are among the recorded solves
    assert any(kw.get("xtol") == 1e-14 and f.__name__ == "phi"
               for f, _, _, kw in phs)
    assert any(f.__name__ == "entry" for f, _, _, _ in phs)
    monkeypatch.undo()
    for f, a, b, kw in crit + phs:
        # end values a caller passes are f at the ends, bit for bit; scipy
        # takes none, so they are stripped before the replay
        ends = {k: kw.pop(k) for k in ("fa", "fb") if k in kw}
        for k, x in (("fa", a), ("fb", b)):
            if k in ends:
                assert ends[k] == f(x), (f, x)
        r = _same_root(f, a, b, **kw)
        assert _solve.brentq(f, a, b, **kw, **ends) == r


_SYNTHETIC = [
    # several roots in the bracket: the same one is found
    (lambda x: math.sin(10 * x), 0.1, 3.0, {}),
    (lambda x: math.cos(7 * x) + 0.1, 0.0, 1.35, {"xtol": 1e-14}),
    # an exact zero at either end comes back at once
    (lambda x: x - 0.25, 0.25, 1.0, {}),
    (lambda x: x - 1.0, 0.25, 1.0, {}),
    # values so small that the extrapolation's denominator underflows to
    # zero, where scipy's C loop divides by it and bisects
    (lambda x: 1e-300 * (x - 0.3) ** 3, 0.0, 1.0, {}),
    (lambda x: 1e-200 * (math.exp(x) - 2.0), 0.0, 1.0, {}),
    # tiny brackets, down to one ulp
    (lambda x: x - 0.5 - 2.0 ** -54, 0.5, math.nextafter(0.5, 1.0), {}),
    (lambda x: x * x - 2.0, 1.4142135623730, 1.4142135623731,
     {"xtol": 1e-16}),
    # np.float64 ends, as _grid_roots passes them
    (lambda x: math.tanh(x - 0.7), np.float64(0.0), np.float64(2.0),
     {"xtol": 1e-14, "rtol": 8.9e-16}),
    # the end with the smaller value first
    (lambda x: 0.7 - x ** 3, 1.0, 0.0, {}),
]


@pytest.mark.parametrize("f, a, b, kw", _SYNTHETIC)
def test_brentq_synthetic_cases_match_scipy(f, a, b, kw):
    _same_root(f, a, b, **kw)


@pytest.mark.parametrize("f, a, b, kw", _SYNTHETIC)
def test_passed_end_values_give_the_same_bits(f, a, b, kw):
    # the iterates are those of evaluating the ends, minus those two calls
    fa, fb = f(a), f(b)
    plain, passed = [], []
    r = _solve.brentq(_logged(f, plain), a, b, **kw)
    assert _solve.brentq(_logged(f, passed), a, b, fa=fa, fb=fb, **kw) == r
    assert plain[:2] == [float(a), float(b)] and passed == plain[2:]
    # one end alone may be passed
    assert _solve.brentq(f, a, b, fb=fb, **kw) == r


def test_passed_end_values_are_checked_like_evaluated_ones():
    f = lambda x: x - 0.5
    for ends in ({"fa": math.nan}, {"fb": math.nan},
                 {"fa": np.float64("nan"), "fb": 0.5}):
        with pytest.raises(ValueError, match="NaN"):
            _solve.brentq(f, 0.0, 1.0, **ends)
    for fa, fb in ((1.0, 2.0), (-1.0, -0.5), (np.float64(3.0), 0.25)):
        with pytest.raises(ValueError, match="different signs"):
            _solve.brentq(f, 0.0, 1.0, fa=fa, fb=fb)
    # an exact zero passed at either end comes back at once, as evaluated
    assert _solve.brentq(f, 0.0, 1.0, fa=0.0, fb=0.5) == 0.0
    assert _solve.brentq(f, 0.0, 1.0, fa=-0.5, fb=0.0) == 1.0


def test_errors_keep_scipy_types():
    with pytest.raises(ValueError):
        _solve.brentq(lambda x: x + 1.0, 0.0, 1.0)  # same sign at both ends
    with pytest.raises(ValueError, match="NaN"):
        _solve.brentq(lambda x: math.nan, 0.0, 1.0)
    # NaN met inside the bracket, not at an end
    with pytest.raises(ValueError, match="NaN"):
        _solve.brentq(lambda x: x - 0.5 if x in (0.0, 1.0) else math.nan,
                      0.0, 1.0)
    with pytest.raises(RuntimeError):
        _solve.brentq(lambda x: x ** 3 - 0.3, 0.0, 1.0, maxiter=2)
    with pytest.raises(RuntimeError):
        scipy.optimize.brentq(lambda x: x ** 3 - 0.3, 0.0, 1.0, maxiter=2)
    with pytest.raises(ValueError):
        _solve.brentq(lambda x: x, -1.0, 1.0, xtol=0.0)
    with pytest.raises(ValueError):
        _solve.brentq(lambda x: x, -1.0, 1.0, rtol=1e-16)
