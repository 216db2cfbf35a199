"""Mixture validation, canonicalization, and exact derivatives."""
import numpy as np
import pytest

from parisi_zero import Mixture, make_mixture, xi_deriv


def test_rejects_bad_exponents():
    with pytest.raises(ValueError):
        make_mixture(1, 3, 0.5)
    with pytest.raises(ValueError):
        make_mixture(4, 3, 0.5)
    with pytest.raises(ValueError):
        make_mixture(3, 3.5, 0.5)
    with pytest.raises(ValueError):
        make_mixture(True, 3, 0.5)


def test_rejects_bad_weight():
    for lam in (-0.1, 1.0000001, float("nan")):
        with pytest.raises(ValueError):
            make_mixture(3, 9, lam)


def test_pure_canonicalization():
    assert make_mixture(3, 9, 1.0) == Mixture(3, 3, 1.0, is_pure=True, exponent=3)
    assert make_mixture(3, 9, 0.0) == Mixture(9, 9, 1.0, is_pure=True, exponent=9)
    assert make_mixture(5, 5, 0.37).is_pure
    m = make_mixture(3, 9, 0.5)
    assert not m.is_pure and m.exponent is None


def test_values_match_handwritten_polynomial():
    m = make_mixture(4, 38, 0.37)
    x = 0.53
    lam, mu = 0.37, 0.63
    assert xi_deriv(m, x) == pytest.approx(lam * x**4 + mu * x**38, rel=1e-15)
    assert xi_deriv(m, x, 1) == pytest.approx(4 * lam * x**3 + 38 * mu * x**37, rel=1e-15)
    assert xi_deriv(m, x, 2) == pytest.approx(12 * lam * x**2 + 38 * 37 * mu * x**36, rel=1e-15)
    assert xi_deriv(m, x, 3) == pytest.approx(24 * lam * x + 38 * 37 * 36 * mu * x**35, rel=1e-15)
    assert xi_deriv(m, x, 4) == pytest.approx(24 * lam + 38 * 37 * 36 * 35 * mu * x**34, rel=1e-15)


def test_endpoint_moments_exact():
    for p, s, lam in [(2, 4, 0.3), (3, 20, 0.8), (4, 38, 0.61)]:
        m = make_mixture(p, s, lam)
        mu = 1.0 - lam
        assert xi_deriv(m, 1.0, 1) == pytest.approx(lam * p + mu * s, rel=1e-15)
        assert xi_deriv(m, 1.0, 2) == pytest.approx(
            lam * p * (p - 1) + mu * s * (s - 1), rel=1e-15)


def test_finite_difference_consistency():
    # |central difference - derivative| <= C h^2 with C a curvature bound
    # (the order+2 falling factorial, since xi_deriv itself stops at 4)
    import math

    h = 1e-5
    m = make_mixture(3, 11, 0.44)
    xs = np.linspace(0.05, 0.95, 19)
    for order in range(4):
        curv = sum(w * math.prod(range(n - order - 1, n + 1))
                   for n, w in ((m.p, m.lam), (m.s, 1 - m.lam)) if n >= order + 2)
        fd = (xi_deriv(m, xs + h, order) - xi_deriv(m, xs - h, order)) / (2 * h)
        assert np.max(np.abs(fd - xi_deriv(m, xs, order + 1))) < (1 + curv) * h**2


def test_nonnegative_and_monotone_on_grid():
    rng = np.random.default_rng(7)
    xs = np.linspace(0.0, 1.0, 101)
    for _ in range(8):
        p = int(rng.integers(2, 7))
        s = int(rng.integers(p, 41))
        m = make_mixture(p, s, float(rng.uniform(0, 1)))
        for order in range(5):
            v = xi_deriv(m, xs, order)
            assert np.all(v >= 0)
            assert np.all(np.diff(v) >= -1e-14)


def test_array_in_array_out():
    m = make_mixture(2, 8, 0.61)
    xs = np.linspace(0.0, 1.0, 7)
    v = xi_deriv(m, xs, 2)
    assert isinstance(v, np.ndarray) and v.shape == xs.shape
    assert v[3] == xi_deriv(m, float(xs[3]), 2)
    assert isinstance(xi_deriv(m, 0.5), float)


def test_domain_errors():
    m = make_mixture(2, 4, 0.5)
    with pytest.raises(ValueError):
        xi_deriv(m, 0.5, 5)
    with pytest.raises(ValueError):
        xi_deriv(m, -0.01)
    # the array path refuses a negative entry anywhere in the array
    with pytest.raises(ValueError, match="^x must be >= 0$"):
        xi_deriv(m, np.array([0.5, -1e-300, 0.9]), 2)


def _zeros_start(m, x, order):
    # the array path as it was: a zeros start plus one add a term
    out = np.zeros_like(x)
    for c, k in m.terms[order]:
        out = out + c * x ** k
    return float(out) if out.ndim == 0 else out


def test_array_path_edge_cases_and_the_zeros_start():
    pure2 = make_mixture(2, 2, 1.0)
    for m in (pure2, make_mixture(2, 8, 0.61), make_mixture(4, 38, 0.3),
              make_mixture(3, 3, 1.0)):
        for order in range(5):
            for shape in ((0,), (0, 3)):
                v = xi_deriv(m, np.empty(shape), order)
                assert v.shape == shape and v.dtype == float
            v = xi_deriv(m, np.array(0.25), order)
            assert type(v) is float
            assert v == _zeros_start(m, np.array(0.25), order)
    # orders with no terms give float zeros of the input's shape
    for order in (3, 4):
        assert not pure2.terms[order]
        xs = np.linspace(0.0, 1.0, 6).reshape(2, 3)
        v = xi_deriv(pure2, xs, order)
        assert v.shape == (2, 3) and v.dtype == float and not v.any()
        assert xi_deriv(pure2, np.array(0.5), order) == 0.0
    rng = np.random.default_rng(8)
    xs = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.1, 300)])
    for p, s, lam in ((2, 2, 1.0), (2, 3, 0.4), (2, 8, 0.61), (3, 20, 0.8),
                      (4, 38, 0.3), (8, 60, 0.5), (9, 9, 1.0)):
        m = make_mixture(p, s, lam)
        for order in range(5):
            want = _zeros_start(m, xs, order)
            got = xi_deriv(m, xs, order)
            assert got.dtype == want.dtype and np.array_equal(got, want)
            got2 = xi_deriv(m, xs.reshape(2, -1), order)
            assert np.array_equal(got2, want.reshape(2, -1))
