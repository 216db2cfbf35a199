"""Plain-float fast paths against the array paths they stand in for.

Scalar calls (a Python float or an np.float64) skip numpy's 0-d array
machinery, but must give the same bits as the same value in an array:
compared with ==, never with a tolerance. numpy's SIMD power and the C
library's pow (Python's **) differ in the last bit for a few percent of
inputs, so a fast path that used ** would fail here.
"""
import math

import mpmath
import numpy as np
import pytest

from parisi_zero import criteria, energy, make_mixture, phases, xi_deriv
from parisi_zero.measure import ParisiMeasure, Segment, wtilde

FAMILIES = [(2, 3, 0.4), (2, 4, 0.7), (2, 30, 0.2), (3, 20, 0.8),
            (4, 38, 0.61), (4, 28, 0.9), (8, 60, 0.3), (5, 5, 1.0)]


def _xs():
    rng = np.random.default_rng(11)
    return [0.0, 1.0, 1.0 + 1e-12,
            *map(float, rng.uniform(0.0, 1.0, 200)),
            *map(float, rng.uniform(0.999, 1.0001, 60))]


def _same_as_array(f, x):
    # value, type and np.float64 input against the one-element array path
    want = f(np.array([x]))[0]
    got = f(x)
    assert type(got) is float, (x, type(got))
    assert got == want, (x, got, want)
    got64 = f(np.float64(x))
    assert type(got64) is float and got64 == want, x


@pytest.mark.parametrize("p, s, lam", FAMILIES)
def test_xi_deriv_scalar_path_matches_array_path(p, s, lam):
    m = make_mixture(p, s, lam)
    for order in range(5):
        for x in _xs():
            _same_as_array(lambda v: xi_deriv(m, v, order), x)


@pytest.mark.parametrize("p, s, lam", FAMILIES)
def test_wtilde_scalar_path_matches_array_path(p, s, lam):
    # a float's xi''^-1.5 is np.power's, as an array's is; a float's ** (the
    # C library's pow) gave other bits on about 5% of inputs. x = 0 is left
    # out: there xi'' = 0 for p > 2, and an array reads 0 * inf
    m = make_mixture(p, s, lam)
    for x in _xs()[1:]:
        _same_as_array(lambda v: wtilde(m, v), x)


def test_xi_deriv_scalar_path_rejects_negative_x():
    m = make_mixture(4, 38, 0.61)
    for x in (-1e-300, -0.5, np.float64(-0.01)):
        with pytest.raises(ValueError):
            xi_deriv(m, x)


def test_c_log_scalar_path_matches_array_path():
    rng = np.random.default_rng(12)
    seam = [sg * (0.1 + d) for sg in (1, -1) for d in (-1e-12, 0.0, 1e-12)]
    zs = [*seam, 1e-9, -0.999, *map(float, rng.uniform(-0.999, 10.0, 300)),
          *map(float, rng.uniform(-0.15, 0.15, 100))]
    for z in zs:
        _same_as_array(criteria.c_log, z)
    with pytest.raises(ValueError):
        criteria.c_log(-1.0)


def test_c_log_of_a_0d_array_matches_the_float_path():
    # a 0-d array takes the element-wise path: on both sides of the 0.1
    # seam it must return the float path's bits, as a float
    for z in (0.05, -0.0999, 0.1 - 1e-12, 0.1, -0.1, 0.1 + 1e-12, 2.5):
        got = criteria.c_log(np.array(z))
        assert type(got) is float and got == criteria.c_log(z), z


def test_phi_scalar_path_matches_array_path():
    rng = np.random.default_rng(14)
    seam = [sg * (1e-4 + d) for sg in (1, -1) for d in (-1e-12, 0.0, 1e-12)]
    ys = [*seam, 0.0, 0.999999, *map(float, rng.uniform(-5.0, 0.9999, 300)),
          *map(float, rng.uniform(-2e-4, 2e-4, 100))]
    for y in ys:
        _same_as_array(energy._phi, y)


def _unit_xs():
    # inside (0, 1), where the window functions live, down to 1e-9 below 1
    rng = np.random.default_rng(15)
    xs = [1e-9, 0.5, 1.0 - 1e-9, *map(float, rng.uniform(0.0, 1.0, 200)),
          *map(float, 1.0 - rng.uniform(0.0, 1e-9, 40)),
          *map(float, rng.uniform(0.999, 1.0, 40))]
    return [x for x in xs if 0.0 < x < 1.0]


def _parts(v):
    return v if isinstance(v, tuple) else (v,)


@pytest.mark.parametrize("p, s, lam", FAMILIES)
def test_divided_differences_scalar_path_matches_array_path(p, s, lam):
    m = make_mixture(p, s, lam)
    for fn in (criteria._d1, criteria._bfun):
        for x in _unit_xs():
            want = fn(m, np.array([x]))[0]
            assert fn(m, x) == want and fn(m, np.float64(x)) == want, (fn, x)


@pytest.mark.parametrize("p, s, lam", FAMILIES)
def test_window_functions_scalar_path_matches_array_path(p, s, lam):
    # the plain-float paths square by multiplying and raise q to p and s
    # with np.power, as the array paths do, so every value is the same
    m = make_mixture(p, s, lam)
    fns = {"tau": criteria._tau, "h1": criteria.eval_h1,
           "h2": criteria.eval_h2, "h22": criteria._h22}
    for x in _unit_xs():
        for name, fn in fns.items():
            want = [v[0] for v in _parts(fn(m, np.array([x])))]
            for inp in (x, np.float64(x)):
                assert list(_parts(fn(m, inp))) == want, (name, x)


def _xi_reference(m, x, order):
    # one np.power call per term, as the scalar path made before it took
    # one call over the exponents of 3 and more (np.power's bits at 0, 1
    # and 2 are 1.0, x and x*x on a scalar)
    out = 0.0
    for c, k in m.terms[order]:
        out = out + c * np.power(x, k)
    return float(out)


def test_one_call_xi_deriv_matches_the_term_by_term_reference():
    rng = np.random.default_rng(16)
    xs = [0.0, 1e-300, *map(float, rng.uniform(0.0, 1.0, 3)),
          1.0 - 1e-12, 1.0, 1.0 + 1e-12]
    for p in range(2, 61):
        for s in range(p, 61):
            m = make_mixture(p, s, 0.37)
            for order in range(5):
                for x in xs:
                    assert xi_deriv(m, x, order) == _xi_reference(m, x, order), \
                        (p, s, order, x)


@pytest.mark.parametrize("p, s, lam", FAMILIES)
def test_xi_deriv_at_one_is_the_same_on_every_call(p, s, lam):
    m = make_mixture(p, s, lam)
    for order in range(5):
        want = _xi_reference(m, 1.0, order)
        assert want == xi_deriv(m, np.array([1.0]), order)[0]
        for x in (1.0, 1.0, np.float64(1.0)):
            got = xi_deriv(m, x, order)
            assert type(got) is float and got == want, (order, got, want)


def test_mixture_with_values_cached_at_one_equals_a_fresh_one():
    segs = (Segment(0.0, 0.3, "const", 0.0), Segment(0.3, 1.0, "const", 0.4))
    nu = ParisiMeasure(segs, 0.5)
    used = make_mixture(4, 38, 0.61)
    for order in range(5):  # served from the values cached on the mixture
        assert xi_deriv(used, 1.0, order) is used._at1[order]
    fresh = make_mixture(4, 38, 0.61)
    assert used == fresh and hash(used) == hash(fresh)
    assert repr(used) == repr(fresh)
    assert energy.cs_energy(used, nu) == energy.cs_energy(fresh, nu)


def test_wsum_scalar_path_matches_array_path():
    for n in range(0, 62):
        for x in _xs():
            want = criteria._wsum(n, np.array([x]))[0]
            assert criteria._wsum(n, x) == want, (n, x)
            assert criteria._wsum(n, np.float64(x)) == want, (n, x)


@pytest.mark.parametrize("p, s, lam", FAMILIES[:-1])
def test_single_window_functions_equal_their_pair_components(p, s, lam):
    # landmarks scans and refines each window function alone, from a shared
    # kernel and tilt on its grid and on plain floats in brentq: the same
    # bits as that function's component of eval_h1 or eval_h2
    m = make_mixture(p, s, lam)
    xs = np.array(_unit_xs())
    k = criteria._kernel(m, xs)
    for first, pair in ((True, criteria.eval_h1), (False, criteria.eval_h2)):
        z2 = criteria._tilt(m, xs, k, first)
        for one, i in ((True, 0), (False, 1)):
            want = pair(m, xs)[i]
            for got in (criteria._window(m, xs, first, one),
                        criteria._window(m, xs, first, one, k, z2)):
                assert np.array_equal(got, want), (first, one)
            for x, w in zip(xs.tolist(), want.tolist()):
                for inp in (x, np.float64(x)):
                    got = criteria._window(m, inp, first, one)
                    assert got == w, (first, one, x)


@pytest.mark.parametrize("p, s, lam", FAMILIES)
def test_f22_scalar_path_matches_array_path(p, s, lam):
    # h22 / (1 - x)^4 and its c2 on plain floats, against one-element
    # arrays, on (0, 1), its edge scan and x = 1, both of c2's branches
    m = make_mixture(p, s, lam)
    xs = _unit_xs() + (1.0 - criteria._EDGE_U).tolist() + [1.0]
    for x in xs:
        want = criteria._f22(m, np.array([x]))[0]
        got = criteria._f22(m, x)
        assert type(got) is float and got == want, (x, got, want)
        assert criteria._f22(m, np.float64(x)) == want, x
    for z in (0.0, 1e-9, 0.05, 0.0999, 0.1, 0.37, 3.0, 1e6):
        want = criteria._c2(np.array([z]))[0]
        assert type(criteria._c2(z)) is float and criteria._c2(z) == want, z
        assert criteria._c2(np.float64(z)) == want, z


def _scan_of(m, x, fx, z):
    # which scan's function gave fx at x: the tau, K, h11, h12, h21 or h22
    # scan of landmarks and _zeta_max
    a = xi_deriv(m, 1.0, 1)
    named = {"tau": lambda: criteria._tau(m, x),
             "h22": lambda: criteria._h22(m, x),
             "K": lambda: a + z * xi_deriv(m, x, 1) - criteria._d1(m, x)}
    for first, one, name in ((True, True, "h11"), (False, True, "h12"),
                             (True, False, "h21")):
        named[name] = lambda f=first, o=one: criteria._window(m, x, f, o)
    hits = [name for name, f in named.items() if f() == fx]
    assert len(hits) == 1, (x, fx, hits)
    return hits[0]


def test_scan_bracket_ends_are_the_functions_values(monkeypatch):
    # _grid_roots hands brentq the grid values at each bracket's ends in
    # place of evaluating them; the iterates stay scipy's only because
    # each equals f at that end as a plain float, bit for bit
    calls = []
    real = criteria.brentq

    def rec(f, a, b, **kw):
        calls.append((f, a, b, kw))
        return real(f, a, b, **kw)

    monkeypatch.setattr(criteria, "brentq", rec)
    seen = set()
    for p, s, lam0 in FAMILIES[:-1]:
        for lam in (lam0, 0.3, 0.6, 0.9, 0.95, 0.97, 0.98, 0.985, 0.99):
            m = make_mixture(p, s, lam)
            z = criteria.solve_z(m)
            calls.clear()
            criteria.landmarks(m)
            if z > 0.0:
                phases._zeta_max(m, z)
            for f, a, b, kw in calls:
                for x, fx in ((a, kw["fa"]), (b, kw["fb"])):
                    assert fx == f(float(x)), (p, s, lam, x)
                    seen.add(_scan_of(m, float(x), fx, z))
    # landmarks reads the second pair alone: no h11 or h21 bracket
    assert seen == {"tau", "K", "h12", "h22"}


def _c_inv_ys():
    rng = np.random.default_rng(19)
    return [*map(float, rng.uniform(0.0, 0.5, 8000)),
            *map(float, 10.0 ** -rng.uniform(1.0, 120.0, 1000)),
            *map(float, 0.5 - 10.0 ** -rng.uniform(1.0, 16.0, 1000)),
            *map(float, np.geomspace(0.5, 5e-324, 1000)),
            float(np.nextafter(0.5, 0.0)), 0.25, 1.0 / 3.0, 5e-324, 1e-300]


_C_FLOOR = criteria.c_log(2.0 ** 511)  # the smallest y _c_inv takes


@pytest.fixture(scope="module")
def c_inv_runs():
    # y -> (z, every z the Newton loop evaluated c at) over _c_inv_ys, or
    # y -> None where the y is refused
    runs = {}
    real = criteria._c_slope
    seen = []

    def rec(z):
        seen.append(z)
        return real(z)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(criteria, "_c_slope", rec)
        for y in _c_inv_ys():
            seen.clear()
            try:
                runs[y] = criteria._c_inv(y), list(seen)
            except ValueError:
                runs[y] = None
    return runs


def test_c_inv_backward_error_is_no_larger_than_brents(c_inv_runs):
    # |c(z) - y| with c at 60 digits, in ulps of y; the Brent solve plus one
    # Newton step that _c_inv replaced reached 55.84 ulp(y) on this set (at
    # y ~ 0.48, z ~ 0.12, where c_log's direct form cancels), median 0.70
    errs = []
    with mpmath.workdps(60):
        for y, run in c_inv_runs.items():
            assert (run is None) == (not _C_FLOOR <= y < 0.5), y
            if run is None:
                continue
            z = mpmath.mpf(run[0])
            c = (1 + z) * mpmath.log1p(z) / (z * z) - 1 / z if z else 0.5
            errs.append(float(abs(c - y)) / math.ulp(y))
    assert len(errs) > 10000
    assert max(errs) <= 55.84 and np.median(errs) < 1.0
    for y in (0.0, 0.5, -1.0, math.nan):
        with pytest.raises(ValueError):
            criteria._c_inv(y)


def test_c_inv_evaluates_c_at_most_15_times(c_inv_runs):
    # 5.9 c's a call on average on this set: about one a Newton step from
    # the doubling bracket's left end, and the last one to stop
    counts = [len(run[1]) for run in c_inv_runs.values() if run]
    assert np.mean(counts) < 6.5 and max(counts) <= 15


def test_c_inv_iterates_climb_to_the_root(c_inv_runs):
    # from the doubling bracket's left end (0 when c(1) <= y) each Newton
    # iterate rises and all but the last lie left of the root: c(z) > y
    for y, run in c_inv_runs.items():
        if run is None:
            continue
        z, zs = run
        hi = 1.0
        while criteria.c_log(hi) > y:
            hi *= 2
        assert zs[0] == (hi / 2 if hi > 1.0 else 0.0) and z == zs[-1], y
        assert all(a < b for a, b in zip(zs, zs[1:])) and z < hi, y
        assert all(criteria.c_log(t) > y for t in zs[:-1]), y


def test_c_slope_is_c_log_and_its_derivative():
    # c with c_log's bits, and c' within 2 ulps of its 80-digit value: the
    # series below 0.1, and above it the direct form, within 2 ulps of its
    # terms 2z and (2 + z) log1p(z), whose difference cancels (their sum is
    # 2600 times it at z = 0.1, 1.8 times at z = 1e3)
    eps = np.finfo(float).eps
    for z in map(float, np.geomspace(1e-8, 1e3, 801)):
        c, dc = criteria._c_slope(z)
        assert c == criteria.c_log(z), z
        with mpmath.workdps(80):
            t = mpmath.mpf(z)
            lg = mpmath.log1p(t)
            want = (2 * t - (2 + t) * lg) / t ** 3
            scale = (1 if z < 0.1 else
                     (2 * t + (2 + t) * lg) / abs(want * t ** 3))
            assert abs(dc - want) <= 2 * eps * scale * abs(want), z


@pytest.mark.filterwarnings("error")
def test_c_inv_of_a_tiny_y_is_a_root_or_refused():
    # a numpy scalar takes the same path as a float; past z ~ 5.6e102 (y ~
    # 1e-100) z^3 would overflow, but the slope divides by z * z, then z,
    # so it stays finite and negative up to 2^511 and Newton's root holds
    for z in (5e102, 6e102, 2.0 ** 511):
        assert -math.inf < criteria._c_slope(z)[1] < 0.0, z
    for y in (1e-101, 1e-120, 1e-150, _C_FLOOR, np.float64(1e-120)):
        z = criteria._c_inv(y)
        assert math.isfinite(z)
        assert abs(criteria.c_log(float(z)) - y) <= 4 * math.ulp(y), y
    for y in (5e-152, 1e-200, 5e-324, np.float64(1e-200)):
        with pytest.raises(ValueError, match="c_inv needs"):
            criteria._c_inv(y)


@pytest.mark.parametrize("p, s, lam", FAMILIES)
def test_kernel_scalar_path_matches_array_path(p, s, lam):
    # a float's powers p, s, p - 1 and s - 1 follow mixture's scalar rule
    # (exponents of 3 and more from one np.power call, 0, 1 and 2 as 1.0,
    # q and q*q), pure models and p = 2 and 3 included: its xi, xi' and
    # q xi' - xi have the array path's bits
    m = make_mixture(p, s, lam)
    xs = np.array(_unit_xs())
    want = list(zip(*(v.tolist() for v in criteria._kernel(m, xs))))
    for x, w in zip(xs.tolist(), want):
        for inp in (x, np.float64(x)):
            assert criteria._kernel(m, inp) == w, x
