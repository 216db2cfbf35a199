"""Plain-float fast paths against the array paths they stand in for.

Scalar calls (a Python float or an np.float64) skip numpy's 0-d array
machinery, but must give the same bits as the same value in an array:
compared with ==, never with a tolerance. numpy's SIMD power and the C
library's pow (Python's **) differ in the last bit for a few percent of
inputs, so a fast path that used ** would fail here.
"""
import numpy as np
import pytest

from parisi_zero import criteria, energy, make_mixture, xi_deriv
from parisi_zero.measure import ParisiMeasure, Segment

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


def test_c_prime_scalar_path_matches_array_path():
    rng = np.random.default_rng(13)
    seam = [sg * (1e-4 + d) for sg in (1, -1) for d in (-1e-12, 0.0, 1e-12)]
    zs = [*seam, 0.0, *map(float, rng.uniform(-0.999, 10.0, 300)),
          *map(float, rng.uniform(-2e-4, 2e-4, 100))]
    for z in zs:
        _same_as_array(criteria._c_prime, z)


def test_phi_scalar_path_matches_array_path():
    rng = np.random.default_rng(14)
    seam = [sg * (1e-4 + d) for sg in (1, -1) for d in (-1e-12, 0.0, 1e-12)]
    ys = [*seam, 0.0, 0.999999, *map(float, rng.uniform(-5.0, 0.9999, 300)),
          *map(float, rng.uniform(-2e-4, 2e-4, 100))]
    for y in ys:
        _same_as_array(energy._phi, y)


def test_seg_index_matches_searchsorted():
    segs = (Segment(0.0, 0.3, "const", 0.1), Segment(0.3, 0.7, "const", 0.2),
            Segment(0.7, 1.0, "const", 0.4))
    tab = energy._Tables(make_mixture(4, 38, 0.61), ParisiMeasure(segs, 0.5))
    his = np.array([seg.hi for seg in segs])
    for x in (0.0, 0.3, np.nextafter(0.3, 1.0), 0.5, 0.7, 1.0, 1.5, -0.1,
              float("nan")):
        want = int(np.searchsorted(his, x, side="left").clip(0, len(his) - 1))
        assert tab.seg_index(x) == want, x


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
    # f12 and _tau square with ** (f12 also raises q to p and s with it): on a
    # plain float that is the C library's pow, on an array numpy's square and
    # power, and they differ in the last bit on ~0.1% of inputs. Moving either
    # path onto the other's operation moves the Newton-polished boundary
    # constants in their last digits, so these are held to that one rounding:
    # f2 (h21, h22) differs only through (1 - q)**2, f1 (h11, h12) through
    # the powers, tau through D1**2
    eps = np.finfo(float).eps
    m = make_mixture(p, s, lam)
    fns = {"tau": criteria._tau, "h1": criteria.eval_h1,
           "h2": criteria.eval_h2, "h22": criteria._h22}
    for x in _unit_xs():
        d1 = criteria._d1(m, x)
        for name, fn in fns.items():
            want = [v[0] for v in _parts(fn(m, np.array([x])))]
            bounds = ([8 * d1 * d1] if name == "tau" else
                      [8 * abs(want[0])] if name == "h22" else
                      [16 * (1 + abs(want[0])), 8 * abs(want[1])])
            for inp in (x, np.float64(x)):
                for g, w, b in zip(_parts(fn(m, inp)), want, bounds):
                    assert abs(g - w) <= eps * b, (name, x, g, w)


def _xi_reference(m, x, order):
    # one np.power call per term, as the scalar path made before it took
    # one call over all exponents
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
    energy._tails.cache_clear()
    energy._tails(used, nu)
    energy._tails(fresh, nu)
    assert energy._tails.cache_info().hits == 1


def test_wsum_scalar_path_matches_array_path():
    for n in range(0, 62):
        for x in _xs():
            want = criteria._wsum(n, np.array([x]))[0]
            assert criteria._wsum(n, x) == want, (n, x)
            assert criteria._wsum(n, np.float64(x)) == want, (n, x)
