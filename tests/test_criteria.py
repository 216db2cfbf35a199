"""Criterion functions against raw transcriptions and the quadratic shortcuts.

The h-family here is recomputed from scratch (logs and rational functions
written out term by term, no shared kernels) so that agreement with
eval_h1/eval_h2 is a genuine two-route check rather than a tautology.
"""
import math
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.optimize import brentq

from parisi_zero import criteria
from parisi_zero import (
    c_log,
    eval_aux,
    eval_h1,
    eval_h2,
    f12,
    lambda_stars,
    landmarks,
    make_mixture,
    psi,
    s_roots,
    solve_z,
    xi_deriv,
    zeta,
)
from parisi_zero.phases import boundaries

# frozen by an independent bisection on c(z) = 1/xi'(1)
PURE3_Z = 1.8169605355365104


# ---------------------------------------------------------------- raw forms
def h11_direct(m, x):
    a = xi_deriv(m, 1.0, 1)
    x1 = xi_deriv(m, x, 1)
    x0 = xi_deriv(m, x)
    return ((x * a - x1) / (a - x1)
            + (a * x - x1) ** 2 * x0 / (a * x1 * (a - x1) * x * (1 - x))
            - math.log((a - x1) / (a * (1 - x))))


def h21_direct(m, x):
    a = xi_deriv(m, 1.0, 1)
    x1 = xi_deriv(m, x, 1)
    x0 = xi_deriv(m, x)
    return ((1 - x) * (a - x1) * (a * x1 * x / (a * x - x1) ** 2 * math.log(a * x / x1)
                                  - x1 / (a * x - x1))
            + x1 * (1 - x) - 1 + x0)


def h12_direct(m, x):
    x1 = xi_deriv(m, x, 1)
    x2 = xi_deriv(m, x, 2)
    x0 = xi_deriv(m, x)
    return ((x * x2 - x1) / (x * x2)
            - math.log(x * x2 / x1)
            + (x1 - x * x2) ** 2 * x0 / (x1 ** 2 * x2 * x ** 2))


def h22_direct(m, x):
    a = xi_deriv(m, 1.0, 1)
    x1 = xi_deriv(m, x, 1)
    x2 = xi_deriv(m, x, 2)
    x0 = xi_deriv(m, x)
    den = a - x1 - x2 * (1 - x)
    return (-1 + x0 + x1 * (1 - x)
            - x2 * (a - x1) * (1 - x) ** 2 / den
            + x2 * (a - x1) ** 2 * (1 - x) ** 2 / den ** 2
            * math.log((a - x1) / (x2 * (1 - x))))


GRID_MIXTURES = [(4, 38, 0.2), (4, 28, 0.55), (3, 30, 0.8), (2, 4, 0.9)]


def max_identity_errors(m, xs):
    """Worst relative gaps between the kernel h's and the raw forms."""
    errs = np.zeros(4)
    for x in xs:
        pairs = list(zip(eval_h1(m, x), (h11_direct(m, x), h21_direct(m, x))))
        pairs += list(zip(eval_h2(m, x), (h12_direct(m, x), h22_direct(m, x))))
        for i, (ours, raw) in enumerate(pairs):
            errs[i] = max(errs[i], abs(ours - raw) / (1 + abs(ours)))
    return errs


def test_h_family_matches_raw_transcriptions():
    xs = np.linspace(0.02, 0.995, 57)
    for p, s, lam in GRID_MIXTURES:
        errs = max_identity_errors(make_mixture(p, s, lam), xs)
        assert errs.max() < 1e-10, (p, s, lam, errs)


def test_h_family_stable_at_the_right_edge():
    # raw forms lose every digit as x -> 1; the kernels must not
    m = make_mixture(4, 38, 0.25)
    want = psi(4, 38, 0.25)
    assert eval_h2(m, 1 - 1e-9)[0] == pytest.approx(want, abs=1e-6)
    assert eval_h1(m, 1 - 1e-7)[0] == pytest.approx(want, abs=1e-4)
    assert abs(eval_h2(m, 1 - 1e-9)[1]) < 1e-7  # h22(1) = 0
    assert eval_h1(m, 1e-8)[1] == pytest.approx(-1.0, abs=1e-6)  # h21(0) = -1


def test_h22_stays_within_its_rounding_floor_near_one():
    # h22 at 1 - u just below lambda_1Fto1 of (2, 4) and (2, 8), where it
    # cancels down to ~1e-25; references from a 60-digit mpmath
    # transcription of (1-x)^2 (D1 c(z2) - B). Against them the error stayed
    # below 7 eps (1-x)^2 (|D1| + |B|); the bound allows 32
    refs = {
        (4, 0.923066923077): [1.811419408305458e-17, 3.035651812990708e-20,
                              -3.559634999616682e-23, -1.4516369693185464e-24,
                              -2.2024715485285304e-26],
        (8, 0.957254957265): [1.4855727260984856e-15, 2.999099162793899e-18,
                              5.1230446186617834e-21, -4.8979205624672263e-23,
                              -9.238571131972727e-25],
    }
    us = [1e-3, 3e-4, 1e-4, 3e-5, 1e-5]
    for (s, lam), want in refs.items():
        m = make_mixture(2, s, lam)
        for u, w in zip(us, want):
            x = 1 - u
            floor = 32 * np.finfo(float).eps * u * u * (
                abs(criteria._d1(m, x)) + abs(criteria._bfun(m, x)))
            assert abs(eval_h2(m, x)[1] - w) <= floor


def _f22_reference(p, s, lam, x):
    # (D1 c(z2) - B) / (1 - x)^2, z2 = D1 / xi'' - 1, at 60 digits, D1 and B
    # summed from their definitions
    with mpmath.workdps(60):
        lam, x = mpmath.mpf(lam), mpmath.mpf(x)
        mu = 1 - lam

        def ws(n):
            return mpmath.fsum((i + 1) * x ** i for i in range(n))

        d1 = (p * lam * mpmath.fsum(x ** j for j in range(p - 1))
              + s * mu * mpmath.fsum(x ** j for j in range(s - 1)))
        b = lam * ws(p - 1) + mu * ws(s - 1)
        z = d1 / (lam * p * (p - 1) * x ** (p - 2)
                  + mu * s * (s - 1) * x ** (s - 2)) - 1
        c = (1 + z) * mpmath.log1p(z) / (z * z) - 1 / z
        return (d1 * c - b) / (1 - x) ** 2


def _f22_terms(m, x):
    # F's two terms, G1 / xi'' and D1 w^2 c2(u w), and z = u w
    x2 = xi_deriv(m, x, 2)
    w = criteria._nfun(m, x) / x2
    z = (1 - x) * w
    return (criteria._poly(criteria._g1_coeffs(m.p, m.s, m.lam), x) / x2,
            criteria._d1(m, x) * w * w * criteria._c2(z), z)


# about 1e-6 below each family's collapse onto x = 1 (lambda_2to1F, or
# lambda_1Fto1 for p = 2), where F has a root near 1 - 1e-5
_F22_FAMILIES = [(4, 38, 0.98714720604), (3, 20, 0.978462169326),
                 (5, 57, 0.990197853237), (2, 8, 0.957263957265),
                 (2, 30, 0.995878120879), (2, 200, 0.999900014824)]


@pytest.mark.parametrize("p, s, lam", _F22_FAMILIES)
def test_f22_matches_a_60_digit_h22_over_u4(p, s, lam):
    # error bounded by the size of F's two terms: 8 eps of it where c2 is
    # its series (z < 0.1; at most 5.9 eps seen), plus, on c2's direct
    # branch, c_log's error (under 58 ulp of c < 1/2 from z = 0.1 on, so
    # 16 eps) divided by z^2 (up to 6700 eps of the terms seen, at (4, 38))
    eps = np.finfo(float).eps
    for lm in (lam, 0.5):
        m = make_mixture(p, s, lm)
        for k in range(1, 13):
            x = 1 - 10.0 ** -k
            t1, t2, z = _f22_terms(m, x)
            bound = 8 * eps * (abs(t1) + abs(t2))
            if z >= 0.1:
                bound += 16 * eps * criteria._d1(m, x) / (1 - x) ** 2
            err = abs(criteria._f22(m, x) - _f22_reference(p, s, lm, x))
            assert err <= bound, (lm, k, float(err), bound)


def test_f22_at_one_is_minus_s_over_144_xi2():
    # F(1) = -S / (144 xi''(1)), S = 3 xi'''(1)^2 - 2 xi''(1) xi''''(1), here
    # in Fractions; F's two terms at x = 1 bound the error
    eps = np.finfo(float).eps
    for p, s, lam in _F22_FAMILIES + [(4, 38, 0.5), (2, 4, 0.3), (8, 60, 0.7),
                                      (6, 6, 1.0)]:
        m = make_mixture(p, s, lam)
        fl, mu = Fraction(m.lam), 1 - Fraction(m.lam)
        d2, d3, d4 = (fl * math.perm(p, k) + mu * math.perm(s, k)
                      for k in (2, 3, 4))
        want = -(3 * d3 * d3 - 2 * d2 * d4) / (144 * d2)
        t1, t2, _ = _f22_terms(m, 1.0)
        err = abs(Fraction(criteria._f22(m, 1.0)) - want)
        assert err <= 8 * eps * (abs(t1) + abs(t2)), (p, s, lam)


def _poly_div_one_minus_x(cs):
    # cs / (1 - x) for integer cs (ascending) that vanish at 1, by synthetic
    # division; the remainder must be 0
    q, r = [], 0
    for c in cs:
        r += c
        q.append(r)
    assert not q or q.pop() == 0
    return q


def test_g1_tables_match_a_direct_polynomial_product():
    # 12 G1 from its definition, 12 G = 12 e xi'' - 2 D1 N with 12 e =
    # (6 D1 - 12 B) / (1 - x), each product an exact int64 convolution, for
    # every family with p <= 8 and s <= 60
    def parts(k):  # xi'', D1, B and N of the pure term x^k, ascending
        x2 = np.zeros(k - 1, np.int64)
        x2[k - 2] = k * (k - 1)
        return (x2, k * np.ones(k - 1, np.int64),
                np.arange(1, k, dtype=np.int64), k * np.arange(1, k - 1, dtype=np.int64))

    def add(a, b):
        out = np.zeros(max(len(a), len(b)), np.int64)
        out[:len(a)] += a
        out[:len(b)] += b
        return out

    def conv(a, b):
        return np.convolve(a, b) if len(a) and len(b) else np.zeros(0, np.int64)

    def cross(k, n):  # the x^k, x^n cross term of 12 G
        (_, dk, bk, _), (x2n, _, _, nn) = parts(k), parts(n)
        e12 = np.array(_poly_div_one_minus_x((6 * dk - 12 * bk).tolist()),
                       np.int64)
        return add(conv(e12, x2n), -2 * conv(dk, nn))

    def trim(cs):
        cs = [int(c) for c in cs]
        while cs and cs[-1] == 0:
            cs.pop()
        return cs

    for p in range(2, 9):
        for s in range(p + 1, 61):
            want = [cross(p, p), add(cross(p, s), cross(s, p)), cross(s, s)]
            got = criteria._g1_parts(p, s)
            for w, g in zip(want, got):
                assert trim(_poly_div_one_minus_x(trim(w))) == trim(g), (p, s)


def test_g1_tables_build_in_linear_work():
    # each coefficient of gsum * wsum is a difference of two triangular
    # numbers, so no convolution: (3, 20000) builds in well under a second
    t0 = time.process_time()
    parts = criteria._g1_parts.__wrapped__(3, 20000)
    assert time.process_time() - t0 < 0.5
    assert [len(c) for c in parts] == [2 * 20000 - 5] * 3


def test_h22_nonnegative_at_zero_past_entry():
    # p=2 with 2*lam*z >= s*(1-lam): the entry criterion says h22(0+) >= 0
    m = make_mixture(2, 4, 0.93)
    assert 2 * 0.93 * solve_z(m) > 4 * 0.07
    assert eval_h2(m, 1e-8)[1] > -1e-10


# ---------------------------------------------------------------- z equation
def test_c_log_values_and_seam():
    assert c_log(1.0) == pytest.approx(2 * math.log(2) - 1, abs=1e-15)
    z = 1e-4 - 1e-12  # just inside the series branch
    direct = (1 + z) * math.log1p(z) / z**2 - 1 / z
    assert c_log(z) == pytest.approx(direct, abs=1e-11)
    assert c_log(1e-9) == pytest.approx(0.5, abs=1e-9)


def test_c_log_holds_a_few_ulps_on_both_sides_of_the_series_seam():
    # reference values from a 50-digit mpmath evaluation of the direct form
    refs = {1.0001e-4: 0.4999833325001167, 1e-3: 0.4998334166167,
            0.05: 0.4918689511614413, 0.0999: 0.48413491693587546,
            0.1: 0.4841197784757346, 0.25: 0.46287102628419513,
            -0.05: 0.5085481327307974, -0.0999: 0.5175350938265946,
            -0.3: 0.559194880476526}
    for z, want in refs.items():
        assert c_log(z) == pytest.approx(want, abs=1e-15), z
        assert c_log(np.array([z]))[0] == c_log(z)


# c_log's error in ulp of c on each branch against 60-digit mpmath, at
# most the largest measured on these 801 log-spaced z a band: the series
# holds c to the rounding of its Horner sum, while the direct form's terms
# (1 + z) log1p(z) / z^2 and 1/z cancel about 20-fold at |z| = 0.1, less
# further out (a 4001-point scan of [0.1, 10] found 58.5 ulp at 0.1086)
_C_LOG_ULPS = {(1e-10, 0.1): 0.52, (-1e-10, -0.1): 0.52, (0.1, 1.0): 49.0,
               (1.0, 1e6): 5.7, (-0.1, -1.0 + 1e-9): 19.4}


@pytest.mark.parametrize("lo, hi", list(_C_LOG_ULPS))
def test_c_log_error_in_ulps_by_branch(lo, hi):
    zs = np.sign(lo) * np.geomspace(abs(lo), abs(hi), 801)
    if abs(hi) == 0.1:
        zs = zs[:-1]  # 0.1 itself is the direct form's
    errs = []
    with mpmath.workdps(60):
        for z in map(float, zs):
            t = mpmath.mpf(z)
            want = (1 + t) * mpmath.log1p(t) / (t * t) - 1 / t
            errs.append(float(abs(c_log(z) - want)) / math.ulp(float(want)))
    assert max(errs) <= _C_LOG_ULPS[lo, hi], (lo, hi, max(errs))


def test_c_log_strictly_decreasing():
    rng = np.random.default_rng(3)
    for _ in range(40):
        z1, z2 = np.sort(10 ** rng.uniform(-6, 2, size=2))
        if z1 < z2:
            assert c_log(float(z1)) > c_log(float(z2))


def test_solve_z_residual_and_degenerate_cases():
    assert solve_z(make_mixture(2, 2, 1.0)) == 0.0
    rng = np.random.default_rng(11)
    for _ in range(25):
        p = int(rng.integers(2, 6))
        s = int(rng.integers(p, 41))
        m = make_mixture(p, s, float(rng.uniform(0, 1)))
        z = solve_z(m)
        a = xi_deriv(m, 1.0, 1)
        if a <= 2.0:
            assert z == 0.0
        else:
            assert abs(c_log(z) - 1 / a) <= 1e-12


def test_pure3_z_frozen():
    z = solve_z(make_mixture(3, 3, 1.0))
    assert z == pytest.approx(PURE3_Z, abs=1e-12)
    assert c_log(z) == pytest.approx(1 / 3, abs=1e-14)


def test_zeta_certificate():
    xs = np.linspace(1e-6, 1 - 1e-6, 1025)
    m18 = make_mixture(4, 18, 0.5)
    assert max(zeta(m18, x) for x in xs) <= 1e-11
    m38 = make_mixture(4, 38, 0.8)
    assert max(zeta(m38, x) for x in xs) > 1e-6
    # endpoints vanish analytically, so the interior test needs no slack there
    assert abs(zeta(m38, 1e-12)) < 1e-9
    assert abs(zeta(m38, 1.0)) < 1e-9
    with pytest.raises(ValueError):
        zeta(make_mixture(2, 2, 1.0), 0.5)


# ------------------------------------------------- quadratics and shortcuts
def test_psi_pure_closed_form():
    for p in (3, 4, 7):
        assert psi(p, p, 1.0) == pytest.approx(2 - 4 / p - math.log(p - 1), abs=1e-14)


def test_psi_frozen_at_first_star():
    st = lambda_stars(4, 18)
    assert st.roots[0] == pytest.approx(0.9264221464466653, abs=1e-12)
    assert st.roots[1] == pytest.approx(0.9864698396160525, abs=1e-12)
    assert psi(4, 18, st.roots[0]) == pytest.approx(-0.08824460943173151, abs=1e-10)
    assert st.shortcut == 33


def test_lambda_stars_against_numpy_roots():
    for p, s in [(4, 18), (4, 28), (4, 38), (5, 40)]:
        q = lambda_stars(p, s)
        r = np.sort(np.roots([q.a, q.b, q.c]))
        assert q.roots is not None and q.roots[0] < q.roots[1]
        assert q.roots[0] == pytest.approx(r[0], abs=1e-10)
        assert q.roots[1] == pytest.approx(r[1], abs=1e-10)


def test_discriminant_factorization():
    # disc(Q) = s^2 (s-p)^2 p^2 * (s^2 - 6(p-1)s + (p-1)(p+7))
    for p, s in [(4, 18), (4, 28), (4, 38), (3, 20), (5, 40), (3, 8)]:
        q = lambda_stars(p, s)
        lhs = q.b * q.b - 4 * q.a * q.c
        rhs = s**2 * (s - p) ** 2 * p**2 * q.shortcut
        assert lhs == pytest.approx(rhs, rel=1e-12)
        assert (q.roots is not None) == (lhs > 0)


def test_s_roots_closed_forms():
    q = s_roots(2, 4)
    assert min(q.roots) == pytest.approx(12 / 13, abs=1e-12)
    for p, s in [(4, 28), (4, 38), (5, 40), (3, 25)]:
        q = s_roots(p, s)
        r = np.sort(np.roots([q.a, q.b, q.c]))
        assert q.roots[0] == pytest.approx(r[0], rel=1e-9)
        assert q.roots[1] == pytest.approx(r[1], rel=1e-9)


def test_s_polynomial_is_concavity_defect():
    # a lam^2 + b lam + c must equal 3 xi'''(1)^2 - 2 xi''(1) xi''''(1)
    for p, s, lam in [(4, 38, 0.3), (4, 28, 0.62), (3, 10, 0.44), (2, 4, 0.9)]:
        m = make_mixture(p, s, lam)
        q = s_roots(p, s)
        poly = (q.a * lam + q.b) * lam + q.c
        defect = 3 * xi_deriv(m, 1.0, 3) ** 2 - 2 * xi_deriv(m, 1.0, 2) * xi_deriv(m, 1.0, 4)
        assert poly == pytest.approx(defect, rel=1e-8)


def test_star_orderings_under_positive_discriminant():
    # whenever the discriminant is positive: 0 < lam1* < lam2* and lam1* < the
    # smaller S-root (the 2RSB-to-1FRSB candidate)
    rng = np.random.default_rng(18)
    seen = 0
    while seen < 30:
        p = int(rng.integers(3, 12))
        s = int(rng.integers(p + 1, 61))
        q = lambda_stars(p, s)
        if q.roots is None:
            continue
        seen += 1
        assert 0 < q.roots[0] < q.roots[1]
        assert q.roots[1] < 1.0 or math.isclose(q.roots[1], 1.0, abs_tol=1e-9)
        sr = s_roots(p, s)
        assert sr.roots is not None
        assert q.roots[0] < min(sr.roots)


# ------------------------------------------------------------- f functions
def test_f2_vanishes_at_one_and_is_monotone():
    m = make_mixture(4, 38, 0.7)
    assert f12(m, 1 - 1e-13, 0.8)[1] == pytest.approx(0.0, abs=1e-10)
    q = 0.6
    zs = np.linspace(-0.5, 8.0, 60)
    vals = [f12(m, q, z)[1] for z in zs]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    z0 = brentq(lambda z: f12(m, q, z)[1], -0.9, 50.0, xtol=1e-13)
    assert f12(m, q, z0)[1] == pytest.approx(0.0, abs=1e-12)


def test_f2_z_to_zero_limit():
    m = make_mixture(3, 20, 0.6)
    q = 0.55
    x0, x1, a = xi_deriv(m, q), xi_deriv(m, q, 1), xi_deriv(m, 1.0, 1)
    want = (1 - q) * (a - x1) / 2 + x1 * (1 - q) - 1 + x0
    assert f12(m, q, 0.0)[1] == pytest.approx(want, rel=1e-12)
    assert f12(m, q, 1e-9)[1] == pytest.approx(want, rel=1e-8)


def test_f12_rejects_bad_domain():
    # scalars take plain-float checks, arrays the elementwise ones
    m = make_mixture(4, 38, 0.7)
    for q, z2 in ((0.5, -1.0), (1.5, 0.5), (0.0, 0.5), (1.0, 0.5),
                  (np.float64(0.5), np.float64(-1.5)),
                  (np.array([0.5, 1.0]), np.array([0.5, 0.5])),
                  (np.array([0.5]), np.array([-1.0]))):
        with pytest.raises(ValueError):
            f12(m, q, z2)


# ------------------------------------------------------- one-pass kernels
def _sums_by_length(x, n, weighted):
    # gsum(n, x) (weighted: hsum(n + 1, x)) from its own Horner run
    acc = 0.0 * x
    for k in range(1, n + 1):
        acc = acc * x + (k if weighted else 1.0)
    return acc


def test_horner_pass_equals_separate_runs_per_length():
    xs = np.concatenate([np.linspace(0.0, 1.0, 97), 1.0 - np.logspace(-12, -1, 12),
                         [1.0 + 1e-12, 0.3]])
    lengths = [(-2, 0, 1, 5), (0, 0, 3, 3), (1, 2, 36, 37), (2, 2), (-1,),
               (0, 1), (5, 7, 58, 59), (6,)]
    for weighted in (False, True):
        for ns in lengths:
            got = criteria._horner(xs, ns, weighted)
            for n, g in zip(ns, got):
                want = _sums_by_length(xs, n, weighted)
                assert np.array_equal(g, want), (ns, n, weighted)
            for x in xs[::7]:
                got = criteria._horner(float(x), ns, weighted)
                assert got == [_sums_by_length(float(x), n, weighted)
                               for n in ns], (ns, x, weighted)


def test_h22_evaluator_equals_eval_h2():
    xs = np.concatenate([np.linspace(1e-9, 1 - 1e-9, 513),
                         1.0 - np.logspace(-9, -4, 6)])
    for p, s, lam in GRID_MIXTURES + [(2, 8, 0.95), (4, 38, 0.985)]:
        m = make_mixture(p, s, lam)
        assert np.array_equal(criteria._h22(m, xs), eval_h2(m, xs)[1])
        for x in xs[::16]:
            assert criteria._h22(m, float(x)) == eval_h2(m, float(x))[1], x


def test_no_kernel_call_modifies_the_callers_x():
    m = make_mixture(4, 38, 0.95)
    xs = np.linspace(0.05, 0.95, 33)
    keep = xs.copy()
    calls = [lambda: criteria._horner(xs, (0, 3, 37)),
             lambda: criteria._horner(xs, (2, 36), True),
             lambda: criteria._wsum(37, xs), lambda: criteria._d1(m, xs),
             lambda: criteria._bfun(m, xs), lambda: criteria._tau(m, xs),
             lambda: criteria._kernel(m, xs), lambda: f12(m, xs, 0.5 + 0 * xs),
             lambda: eval_h1(m, xs), lambda: eval_h2(m, xs),
             lambda: criteria._h22(m, xs), lambda: criteria._nfun(m, xs),
             lambda: criteria._f22(m, xs)]
    for call in calls:
        call()
        assert np.array_equal(xs, keep)


def test_h22_evaluator_raises_f12s_domain_error():
    m = make_mixture(4, 38, 0.7)
    for q in (0.0, 1.0, -0.5, 1.5, np.float64(0.0), np.float64(1.0),
              np.array([0.5, 1.0]), np.array([0.0, 0.5])):
        for fn in (criteria._h22, eval_h2, eval_h1):
            with pytest.raises(ValueError, match="q must lie in"):
                fn(m, q)


# ------------------------------------------------------ auxiliary polynomials
def test_aux_polynomials_raw_forms():
    m = make_mixture(4, 38, 0.61)
    for x in (0.2, 0.55, 0.9):
        x0, x1, x2, x3 = (xi_deriv(m, x, o) for o in range(4))
        a = xi_deriv(m, 1.0, 1)
        t, mc, t12 = eval_aux(m, x)
        assert t == pytest.approx(a * x2 * x * (1 - x) - x1 * (a - x1), rel=1e-13)
        assert mc == pytest.approx(
            x3 * (a - x1) * (1 - x) - 2 * x2 * ((a - x1) - x2 * (1 - x)), rel=1e-13)
        assert t12 == pytest.approx(x * x1 * x3 - 2 * x2 * (x * x2 - x1), rel=1e-13)


def _central_slope(f, x, h):
    return (f(x + h) - f(x - h)) / (2 * h)


def test_t_has_a_double_root_at_one():
    # t(1) = 0 exactly; the slope estimate must shrink like h^2 (a simple
    # root would make it level off at t'(1) != 0)
    m = make_mixture(4, 38, 0.61)
    assert eval_aux(m, 1.0)[0] == pytest.approx(0.0, abs=1e-12)
    f = lambda x: eval_aux(m, x)[0]
    s1, s2 = _central_slope(f, 1.0, 1e-4), _central_slope(f, 1.0, 2e-4)
    assert s2 / s1 == pytest.approx(4.0, rel=0.05)


def test_m_has_a_triple_root_at_one():
    m = make_mixture(4, 38, 0.988)
    scale = xi_deriv(m, 1.0, 3)
    f = lambda x: eval_aux(m, x)[1]
    assert f(1.0) == pytest.approx(0.0, abs=1e-10 * scale)
    # slope and curvature estimates both vanish like h^2: root of order 3
    s1, s2 = _central_slope(f, 1.0, 1e-4), _central_slope(f, 1.0, 2e-4)
    assert s2 / s1 == pytest.approx(4.0, rel=0.05)

    def curv(h):
        return (f(1.0 + h) - 2 * f(1.0) + f(1.0 - h)) / h**2

    c1, c2 = curv(1e-4), curv(2e-4)
    assert c2 / c1 == pytest.approx(4.0, rel=0.05)


def test_m_third_derivative_sign_flips_at_the_s_root():
    # the cubic's leading behaviour at 1 changes sign exactly where the
    # concavity-defect quadratic vanishes
    lam_flip = min(s_roots(4, 38).roots)
    h = 1e-3

    def fd3(lam):
        m = make_mixture(4, 38, lam)
        vals = [eval_aux(m, 1.0 + k * h)[1] for k in (-2, -1, 1, 2)]
        return (-0.5 * vals[0] + vals[1] - vals[2] + 0.5 * vals[3]) / h**3

    assert fd3(lam_flip - 0.004) * fd3(lam_flip + 0.004) < 0


# ------------------------------------------------------------------ landmarks
def test_landmarks_absent_in_the_one_step_family():
    for lam in (0.2, 0.5, 0.8):
        lm = landmarks(make_mixture(4, 18, lam))
        assert lm.q11 is None


def test_landmarks_mid_two_step_window():
    b = boundaries(4, 38).general
    lam = 0.5 * (b["lambda_1to2"] + b["lambda_2to2F"])
    lm = landmarks(make_mixture(4, 38, lam))
    assert None not in (lm.qbar1, lm.qbar2, lm.q11, lm.q12, lm.q21, lm.q22)
    assert lm.qbar1 < lm.q11 < lm.q21 < lm.qbar2
    assert lm.q11 < lm.q12 and lm.q22 < lm.q12
    assert lm.q21 > lm.q11 and lm.q22 < lm.q12


def test_landmarks_above_the_2to1F_root():
    b = boundaries(4, 38).general
    lm = landmarks(make_mixture(4, 38, b["lambda_2to1F"] + 2e-4))
    assert lm.q22 == 1.0
    assert lm.q12 is not None and lm.q12 < 1.0


def _sign_roots_loop(f, lo, hi, n=criteria._H_GRID):
    # the element-by-element scan the vectorised one replaced, kept as the
    # reference it must match bit for bit
    xs = np.linspace(lo, hi, n)
    vs = np.asarray(f(xs), dtype=float)
    eps = 1e-14 * max(1.0, float(np.abs(vs).max()))
    firm = np.nonzero(np.abs(vs) > eps)[0]
    roots = []
    for a, b in zip(firm[:-1], firm[1:]):
        if vs[a] * vs[b] < 0.0:
            roots.append(brentq(lambda t: float(f(t)), xs[a], xs[b],
                                xtol=1e-14, rtol=8.9e-16))
    return roots


def test_sign_roots_catches_a_root_on_a_grid_point():
    x0 = np.linspace(0.0, 1.0, criteria._H_GRID)[250]
    # an exact zero or sub-floor noise of either sign there is bridged over
    for off in (0.0, 1e-16, -1e-16):
        roots = criteria._sign_roots(lambda x: x - x0 - off, 0.0, 1.0)
        assert roots == [pytest.approx(x0, abs=1e-14)], off
    assert criteria._sign_roots(lambda x: 0.5 - x, 0.0, 1.0, n=5) == [0.5]


def test_sign_roots_ignores_a_tangential_touch():
    touch = lambda x: (x - 0.5) ** 2
    assert criteria._sign_roots(touch, 0.0, 1.0) == []
    assert criteria._sign_roots(touch, 0.0, 1.0, n=5) == []  # 0.5 on the grid


def test_sign_roots_come_back_ascending():
    roots = criteria._sign_roots(lambda x: np.sin(10 * x), 0.1, 3.0)
    assert roots == sorted(roots)
    assert roots == pytest.approx([k * math.pi / 10 for k in range(1, 10)],
                                  abs=1e-13)


def test_sign_roots_match_the_loop_scan_and_the_grid_path():
    cases = [(lambda x: np.sin(10 * x), 0.1, 3.0),
             (lambda x: np.cos(3 * x) * (x - 0.25), 0.0, 2.0)]
    for p, s, lam in [(4, 38, 0.8), (4, 38, 0.985), (3, 20, 0.9), (2, 8, 0.9)]:
        m = make_mixture(p, s, lam)
        cases += [(lambda x, m=m: criteria._tau(m, x), 1e-9, 1 - 1e-9),
                  (lambda x, m=m: eval_h1(m, x)[0], 0.05, 1 - 1e-9),
                  (lambda x, m=m: eval_h1(m, x)[1], 0.05, 1 - 1e-9),
                  (lambda x, m=m: eval_h2(m, x)[1], 1e-9, 1 - 1e-9)]
    found = 0
    for f, lo, hi in cases:
        want = _sign_roots_loop(f, lo, hi)
        assert criteria._sign_roots(f, lo, hi) == want
        xs = np.linspace(lo, hi, criteria._H_GRID)
        assert criteria._grid_roots(f, xs, f(xs)) == want
        found += len(want)
    assert found >= 20


def _falling_loop(f, xs, vs):
    # the loop reference again, keeping only the brackets where f falls
    eps = 1e-14 * max(1.0, float(np.abs(vs).max()))
    firm = np.nonzero(np.abs(vs) > eps)[0]
    return [brentq(lambda t: float(f(t)), xs[a], xs[b], xtol=1e-14,
                   rtol=8.9e-16)
            for a, b in zip(firm[:-1], firm[1:]) if vs[a] > 0.0 > vs[b]]


def test_falling_roots_are_their_elements_of_the_full_list():
    # the 18 functions of the test above; with falling, _grid_roots refines
    # only the + to - brackets, and each root is bit for bit the full list's
    cases = [(lambda x: np.sin(10 * x), 0.1, 3.0),
             (lambda x: np.cos(3 * x) * (x - 0.25), 0.0, 2.0)]
    for p, s, lam in [(4, 38, 0.8), (4, 38, 0.985), (3, 20, 0.9), (2, 8, 0.9)]:
        m = make_mixture(p, s, lam)
        cases += [(lambda x, m=m: criteria._tau(m, x), 1e-9, 1 - 1e-9),
                  (lambda x, m=m: eval_h1(m, x)[0], 0.05, 1 - 1e-9),
                  (lambda x, m=m: eval_h1(m, x)[1], 0.05, 1 - 1e-9),
                  (lambda x, m=m: eval_h2(m, x)[1], 1e-9, 1 - 1e-9)]
    assert len(cases) == 18
    mixed = 0
    for f, lo, hi in cases:
        xs = np.linspace(lo, hi, criteria._H_GRID)
        vs = f(xs)
        full = criteria._grid_roots(f, xs, vs)
        falling = _falling_loop(f, xs, vs)
        assert falling == [r for r in full if r in falling]
        assert criteria._grid_roots(f, xs, vs, falling=True) == falling
        assert criteria._sign_roots(f, lo, hi, falling=True) == falling
        assert criteria._sign_roots(f, lo, hi) == full
        mixed += 0 < len(falling) < len(full)
    assert mixed >= 5


@pytest.mark.parametrize("lam, n_tau, n_read, n_f2", [(0.95, 1, 3, 1),
                                                   (0.8, 2, 4, 2)])
def test_landmarks_refines_only_the_roots_it_reads(monkeypatch, lam, n_tau,
                                                   n_read, n_f2):
    # one brentq per root landmarks reads: every root of t, the first of h11
    # and h12, the last of h21 and h22 (q21 = 1.0 at 0.95 is no root); each
    # window function has one sign change here. Each refinement evaluates
    # only the function it brackets, so c, which only h21 and h22 (f2)
    # need, runs on their grid values, once an evaluation in their n_f2
    # refinements and once in the h21 probe at qbar1, never for t, h11 or
    # h12
    m = make_mixture(4, 38, lam)
    evals, tilts = [], []  # per brentq: [evaluations, scalar c calls]
    refining = []  # the open brentq's entry
    real, real_c = criteria.brentq, criteria.c_log

    def counted(f, a, b, **kw):
        evals.append([0, 0])
        refining.append(evals[-1])

        def g(x):
            evals[-1][0] += 1
            return f(x)
        try:
            return real(g, a, b, **kw)
        finally:
            refining.pop()

    def c_counted(z):
        tilts.append(np.ndim(z))
        if refining and np.ndim(z) == 0:
            refining[-1][1] += 1
        return real_c(z)

    monkeypatch.setattr(criteria, "brentq", counted)
    monkeypatch.setattr(criteria, "c_log", c_counted)
    lm = landmarks(m)
    read = [q for q in (lm.q11, lm.q12, lm.q21, lm.q22)
            if q is not None and q < 1.0]
    assert len(read) == n_read and (lm.qbar2 < 1.0) == (n_tau == 2)
    assert len(evals) == n_tau + n_read
    f2 = [n for n, c in evals[n_tau:] if c]
    assert len(f2) == n_f2 and all(c in (0, n) for n, c in evals)
    assert not any(c for _, c in evals[:n_tau])
    assert tilts.count(1) == n_f2
    assert tilts.count(0) == 1 + sum(f2)


@pytest.mark.parametrize("lam, grid", [(0.995, False), (0.95, True)])
def test_landmarks_builds_its_grid_only_to_read_a_root(monkeypatch, lam,
                                                      grid):
    # at (4, 38, 0.995) only h21's probe is positive, qbar2 = 1 and the
    # onset quadratic is not positive, so q21 = q22 = 1.0 without a scan
    # and the kernel runs on scalars alone; at 0.95 the grid is scanned
    m = make_mixture(4, 38, lam)
    dims, real = [], criteria._kernel

    def counted(m, x, *args):
        dims.append(np.ndim(x))
        return real(m, x, *args)

    monkeypatch.setattr(criteria, "_kernel", counted)
    lm = landmarks(m)
    assert (lm.qbar2 == 1.0 and criteria.s_of(4, 38, lam) <= 0) == (not grid)
    assert (lm.q21 == lm.q22 == 1.0 and lm.q11 is None) == (not grid)
    assert dims.count(1) == int(grid)


def _band_points(p, s):
    # the middle of every band of the family's scenario
    from parisi_zero.phases import boundary_lambdas

    cuts = [0.0, *boundary_lambdas(boundaries(p, s)), 1.0]
    return [(p, s, 0.5 * (lo + hi)) for lo, hi in zip(cuts, cuts[1:])]


# the band midpoints of four families, written out so that the test ids
# stay put when a boundary moves in its last bits;
# test_band_points_are_the_band_midpoints holds them to _band_points
BAND_POINTS = [
    (4, 38, 0.30468225824271666), (4, 38, 0.7955245744550248),
    (4, 38, 0.9844164192320879), (4, 38, 0.988563923540578),
    (4, 38, 0.9949898205207983),
    (3, 20, 0.2823055532691574), (3, 20, 0.7584364883461381),
    (3, 20, 0.9653625197401442), (3, 20, 0.983398645781318),
    (3, 20, 0.9941670611181544),
    (4, 28, 0.36555146395481536), (4, 28, 0.8529339362139311),
    (4, 28, 0.9873824722591158),
    (5, 57, 0.32233591652200194), (5, 57, 0.8173085125739252),
    (5, 57, 0.9900720226703725), (5, 57, 0.99028190975305),
    (5, 57, 0.9951824831346008),
]


def test_band_points_are_the_band_midpoints():
    computed = [pt for fam in ((4, 38), (3, 20), (4, 28), (5, 57))
                for pt in _band_points(*fam)]
    assert [pt[:2] for pt in BAND_POINTS] == [pt[:2] for pt in computed]
    for pinned, mid in zip(BAND_POINTS, computed):
        assert abs(pinned[2] - mid[2]) < 1e-9, (pinned, mid)


@pytest.mark.parametrize("p, s, lam", BAND_POINTS)
def test_second_pair_stage_is_landmarks_record_bit_for_bit(p, s, lam):
    # the first stage holds landmarks' window and second pair, and no first
    # pair; the second stage is landmarks' record
    m = make_mixture(p, s, lam)
    lm = landmarks(m)
    stages = criteria._landmark_stages(m)
    first = next(stages)
    keys = ("qbar1", "qbar2", "q12", "q22")
    assert [getattr(first, k) for k in keys] == [getattr(lm, k) for k in keys]
    assert first.q11 is None and first.q21 is None
    assert next(stages, first) == lm


@pytest.mark.parametrize("p, s, lam", BAND_POINTS)
def test_b_free_kernel_keeps_the_first_window_functions_bits(p, s, lam):
    # scalar h11 and h12 build no B; at 50 points of the window they equal
    # eval_h1's and eval_h2's, and the array kernel's xi, taken from its
    # own powers, equals xi_deriv's, all with ==
    m = make_mixture(p, s, lam)
    lm = landmarks(m)
    lo, hi = (0.05, 0.95) if lm.qbar1 is None else (lm.qbar1, lm.qbar2)
    xs = np.linspace(lo, hi, 52)[1:-1]
    for x in xs.tolist():
        assert criteria._window(m, x, True, True) == eval_h1(m, x)[0], x
        assert criteria._window(m, x, False, True) == eval_h2(m, x)[0], x
    k = criteria._kernel(m, xs, False)
    assert k[3] is None
    assert np.array_equal(k[0], xi_deriv(m, xs))
    assert np.array_equal(k[0], xi_deriv(m, xs.copy()))


def test_coarse_h_grid_finds_the_fine_grids_roots(monkeypatch):
    # every scan grid only brackets roots for brentq: at 200 seeded points,
    # the band midpoints of three families and 60 seeded p = 2 points (whose
    # h22 scan, like t's, runs on the fixed grid), a 4096-point grid finds no
    # root the coarse one misses, and every root agrees to 1e-12
    rng = np.random.default_rng(31)
    points = [pt for fam in ((4, 38), (3, 20), (4, 28))
              for pt in _band_points(*fam)]
    for _ in range(200):
        p = int(rng.integers(3, 9))
        points.append((p, int(rng.integers(p + 1, 61)),
                       float(rng.uniform(0.5, 1.0))))
    for _ in range(60):
        points.append((2, int(rng.integers(3, 61)), float(rng.uniform())))
    fields = ("qbar1", "qbar2", "q11", "q12", "q21", "q22")

    def records():
        return [list(criteria._landmark_stages(make_mixture(*pt)))[-1]
                for pt in points]

    coarse, n = records(), criteria._H_GRID
    monkeypatch.setattr(criteria, "_H_GRID", 4096)
    fine = records()
    scanned = p2_roots = 0
    for pt, a, b in zip(points, coarse, fine):
        for k in fields:
            qa, qb = getattr(a, k), getattr(b, k)
            assert (qa is None) == (qb is None), (pt, k)
            if qa is not None:
                assert abs(qa - qb) <= 1e-12, (pt, k, qa, qb)
        scanned += a.q12 is not None and pt[0] > 2
        p2_roots += pt[0] == 2 and a.q22 not in (None, 1.0)
    assert n < 4096 and scanned >= 50 and p2_roots >= 40


# ------------------------------------------- slope relations (used by c9 too)
def _fd(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2 * h)


def slope_sign_relations(m, xs, floor=1e-8):
    """Check the three derivative-sign couplings on a grid.

    Returns the number of grid points where each relation was actually
    exercised, so callers can assert the test had teeth.
    """
    exercised = [0, 0, 0]
    for x in xs:
        d_h11 = _fd(lambda u: eval_h1(m, u)[0], x)
        d_h21 = _fd(lambda u: eval_h1(m, u)[1], x)
        d_h22 = _fd(lambda u: eval_h2(m, u)[1], x)
        if abs(d_h11) > floor and abs(d_h21) > floor:
            exercised[0] += 1
            assert d_h11 * d_h21 < 0, (x, d_h11, d_h21)
        if d_h21 < -floor:
            # inside the decreasing window the first-tilt pair dominates the
            # second-tilt pair (both, per the monotone-tilt argument; the
            # lemma's printed statement flips one of these, its proof does not)
            exercised[1] += 1
            h11, h21 = eval_h1(m, x)
            h12, h22 = eval_h2(m, x)
            assert h21 > h22 and h11 > h12, x
        mc = eval_aux(m, x)[1]
        if abs(d_h22) > floor and abs(mc) > floor:
            exercised[2] += 1
            assert d_h22 * mc > 0, (x, d_h22, mc)
    return exercised


def test_slope_sign_relations_on_grids():
    xs = np.linspace(0.05, 0.95, 37)
    for p, s, lam in [(4, 38, 0.8), (4, 28, 0.6), (3, 20, 0.9)]:
        counts = slope_sign_relations(make_mixture(p, s, lam), xs)
        assert min(counts) > 5, (p, s, lam, counts)
