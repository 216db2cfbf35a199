"""Measure constructors: cone membership, calibration, closed-form tails."""
import json
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from parisi_zero import criteria
from parisi_zero import (
    ParisiMeasure,
    Segment,
    build_1rsb,
    build_2rsb,
    build_mixed,
    build_rs,
    c_log,
    classify,
    density,
    eval_h1,
    f12,
    from_json_dict,
    make_mixture,
    solve_z,
    tail_mass,
    to_json_dict,
    wtilde,
    xi_deriv,
    zeta,
)
from parisi_zero.energy import _Tables
from parisi_zero.phases import boundaries, boundary_lambdas


def _mid(b, lo_key, hi_key):
    g = b.general
    return 0.5 * (g[lo_key] + g[hi_key])


def _exemplars():
    """One certified (mixture, measure) pair per constructor family."""
    b38 = boundaries(4, 38)
    pairs = []
    for p, s, lam in [
        (2, 5, 1.0),                                    # RS
        (4, 18, 0.5),                                   # 1RSB
        (4, 38, _mid(b38, "lambda_1to2", "lambda_2to2F")),    # 2RSB
        (4, 38, _mid(b38, "lambda_2to2F", "lambda_2to1F")),   # 2FRSB
        (4, 38, _mid(b38, "lambda_2to1F", "lambda_2to1")),    # 1FRSB above
        (2, 4, 0.74),                                   # 1FRSB below
        (2, 4, 0.95),                                   # FRSB
    ]:
        c = classify(p, s, lam)
        pairs.append((make_mixture(p, s, lam), c.measure, c.phase))
    return pairs


EXEMPLARS = _exemplars()


def gamma_at(nu, m, x):
    for seg in nu.segments:
        if seg.lo <= x < seg.hi:
            return seg.value if seg.kind == "const" else wtilde(m, x)
    return float("nan")


def test_cone_membership_on_grids():
    xs = np.linspace(0.0, 1.0 - 1e-9, 512)
    for m, nu, phase in EXEMPLARS:
        assert nu.atom > 0
        assert nu.segments[0].lo == 0.0 and nu.segments[-1].hi == 1.0
        g = np.array([gamma_at(nu, m, x) for x in xs])
        assert np.all(g >= -1e-15), phase
        assert np.all(np.diff(g) >= -1e-9 * max(1.0, g.max())), phase


def test_normalization_by_independent_quadrature():
    # int_0^1 dr / nu((r,1])^2 = xi'(1), integrating the closed-form tail
    # segment by segment with generic quadrature (no shared code path)
    for m, nu, phase in EXEMPLARS:
        total = 0.0
        for seg in nu.segments:
            val, _ = quad(lambda r: tail_mass(nu, m, r) ** -2.0,
                          seg.lo, seg.hi, epsabs=1e-12, limit=200)
            total += val
        assert total == pytest.approx(xi_deriv(m, 1.0, 1), abs=1e-9), phase


def test_calibration_inside_full_segments():
    for m, nu, phase in EXEMPLARS:
        for seg in nu.segments:
            if seg.kind != "full":
                continue
            for x in np.linspace(seg.lo, seg.hi - 1e-12, 64):
                assert abs(tail_mass(nu, m, x) - xi_deriv(m, x, 2) ** -0.5) <= 1e-10
    # build_mixed does not check the calibration itself: the verifier's
    # tables read it, and take the closed forms only below _CALIB_EPS.
    # Every mixed measure classify returns sits far below that
    seen = set()
    for p, s in [(2, 4), (2, 9), (2, 30), (3, 20), (3, 45), (4, 38), (4, 60),
                 (5, 57)]:
        ends = [0.0, *boundary_lambdas(boundaries(p, s)), 1.0]
        for lo, hi in zip(ends, ends[1:]):
            for lam in np.linspace(lo, hi, 5)[1:-1]:
                c = classify(p, s, float(lam))
                if c.phase in ("OneFRSB", "TwoFRSB", "FRSB"):
                    seen.add(c.phase)
                    C = _Tables(make_mixture(p, s, float(lam)), c.measure).C
                    assert max(map(abs, C)) <= 1e-13, (p, s, lam, c.phase)
    assert seen == {"OneFRSB", "TwoFRSB", "FRSB"}


def test_tail_closed_forms():
    m = make_mixture(2, 4, 0.95)
    nu = build_mixed(m, 0.0, 1.0)
    for x in (0.0, 0.3, 0.77, 1.0 - 1e-12):
        assert tail_mass(nu, m, x) == pytest.approx(xi_deriv(m, x, 2) ** -0.5, abs=1e-13)
    assert tail_mass(nu, m, 0.0) == pytest.approx((2 * 0.95) ** -0.5, abs=1e-14)

    m1 = make_mixture(4, 18, 0.5)
    z = solve_z(m1)
    nu1 = build_1rsb(m1, z)
    a = xi_deriv(m1, 1.0, 1)
    for x in (0.0, 0.4, 0.9):
        want = (1 + z * (1 - x)) / math.sqrt((1 + z) * a)
        assert tail_mass(nu1, m1, x) == pytest.approx(want, abs=1e-14)
    # the normalization identity behind the closed form
    assert 1 / ((1 + z) * nu1.atom**2) == pytest.approx(a, rel=1e-12)

    for m, nu, phase in EXEMPLARS:
        assert tail_mass(nu, m, 1.0) == nu.atom


def test_tail_domain_error():
    m, nu, _ = EXEMPLARS[0]
    with pytest.raises(ValueError):
        tail_mass(nu, m, 1.2)


def test_2rsb_window_at_solved_point():
    lam = _mid(boundaries(4, 38), "lambda_1to2", "lambda_2to2F")
    c = classify(4, 38, lam)
    m = make_mixture(4, 38, lam)
    q, z2 = c.params["q"], c.params["z2"]
    wa = xi_deriv(m, 1.0, 1) * q / xi_deriv(m, q, 1)
    wb = (xi_deriv(m, 1.0, 1) - xi_deriv(m, q, 1)) / (xi_deriv(m, q, 2) * (1 - q))
    assert wa < 1 + z2 < wb


def test_2rsb_degenerates_to_one_step():
    # with z1 = z2 q/(1-q) the two plateaus merge; the atom formula then
    # reproduces the one-step measure with z = z2/(1-q) exactly
    m = make_mixture(4, 38, 0.8)
    a = xi_deriv(m, 1.0, 1)
    q, z2 = 0.61, 2.3
    z1 = z2 * q / (1 - q)
    delta = math.sqrt((q / ((1 + z2) * (1 + z1 + z2)) + (1 - q) / (1 + z2)) / a)
    k1, k2 = z1 * delta / q, z2 * delta / (1 - q)
    assert k1 == pytest.approx(k2, rel=1e-14)
    z = z2 / (1 - q)
    assert delta == pytest.approx(((1 + z) * a) ** -0.5, rel=1e-14)
    assert k1 == pytest.approx(z * delta, rel=1e-14)
    assert a * (delta**2 + k1 * delta) == pytest.approx(1.0, rel=1e-14)


def test_2frsb_plateau_closed_forms():
    b = boundaries(4, 38)
    lam = _mid(b, "lambda_2to2F", "lambda_2to1F")
    c = classify(4, 38, lam)
    m = make_mixture(4, 38, lam)
    q1, q2 = c.params["q1"], c.params["q2"]
    lo, full, hi = c.measure.segments
    assert (lo.hi, full.hi) == (q1, q2)
    x1, x2 = xi_deriv(m, q1, 1), xi_deriv(m, q1, 2)
    k1 = (q1 * x2 - x1) / (q1 * x1 * math.sqrt(x2))
    assert lo.value == pytest.approx(k1, rel=1e-12)
    a = xi_deriv(m, 1.0, 1)
    d2 = xi_deriv(m, q2, 2)
    assert c.measure.atom == pytest.approx(
        math.sqrt(d2) * (1 - q2) / (a - xi_deriv(m, q2, 1)), rel=1e-12)
    assert tail_mass(c.measure, m, q2) == pytest.approx(d2 ** -0.5, abs=1e-12)
    assert tail_mass(c.measure, m, q1) == pytest.approx(
        xi_deriv(m, q1, 2) ** -0.5, abs=1e-12)
    # cone: the full density enters above the left plateau and exits below
    # the right one
    assert wtilde(m, q1) >= k1 - 1e-12
    assert wtilde(m, q2 - 1e-12) <= hi.value + 1e-9


def test_1frsb_above_edges():
    b = boundaries(4, 38)
    lam = _mid(b, "lambda_2to1F", "lambda_2to1")
    c = classify(4, 38, lam)
    m = make_mixture(4, 38, lam)
    q1 = c.params["q1"]
    assert c.measure.atom == pytest.approx(xi_deriv(m, 1.0, 2) ** -0.5, rel=1e-12)
    assert tail_mass(c.measure, m, q1) == pytest.approx(
        xi_deriv(m, q1, 2) ** -0.5, abs=1e-12)


def test_1frsb_below_plateau_identity():
    # a_P - wtilde(q_P) = -m(q_P) / (2 xi''(q_P)^{3/2} [xi'(1)-xi'(q_P)] (1-q_P)),
    # and that quantity is strictly positive
    from parisi_zero import eval_aux

    c = classify(2, 4, 0.7419)
    m = make_mixture(2, 4, 0.7419)
    q_p = c.measure.segments[0].hi
    a_p = c.measure.segments[1].value
    mc = eval_aux(m, q_p)[1]
    want = -mc / (2 * xi_deriv(m, q_p, 2) ** 1.5
                  * (xi_deriv(m, 1.0, 1) - xi_deriv(m, q_p, 1)) * (1 - q_p))
    gap = a_p - wtilde(m, q_p)
    assert gap > 0
    assert gap == pytest.approx(want, rel=1e-9)


def test_density_values():
    m1 = make_mixture(4, 18, 0.5)
    z = solve_z(m1)
    nu1 = build_1rsb(m1, z)
    want = z / math.sqrt((1 + z) * xi_deriv(m1, 1.0, 1))
    for x in (0.0, 0.5, 0.99):
        assert density(nu1, m1, x) == pytest.approx(want, rel=1e-13)

    mf = make_mixture(2, 4, 0.95)
    nuf = build_mixed(mf, 0.0, 1.0)
    xs = np.linspace(0.0, 1.0 - 1e-9, 100)
    vals = np.array([density(nuf, mf, x) for x in xs])
    assert np.all(np.diff(vals) > 0)
    assert vals[0] == pytest.approx(wtilde(mf, 0.0), rel=1e-13)

    # a full segment probed at x = 0 on a p > 3 mixture: the vanishing
    # third derivative takes precedence over the vanishing second
    m38 = make_mixture(4, 38, 0.5)
    raw = ParisiMeasure((Segment(0.0, 1.0, "full"),), 0.1)
    assert density(raw, m38, 0.0) == 0.0


def test_constructor_rejections():
    m = make_mixture(4, 18, 0.5)
    with pytest.raises(ValueError):
        build_1rsb(m, 0.0)
    with pytest.raises(ValueError):
        build_1rsb(m, -1.5)
    with pytest.raises(ValueError):
        build_2rsb(m, 0.5, 1.0, 1.0)  # not a solution of the two-level system
    with pytest.raises(ValueError):
        build_mixed(make_mixture(4, 38, 0.99), 0.0, 1.0)  # p != 2
    with pytest.raises(ValueError):
        build_mixed(make_mixture(2, 4, 0.9), 0.0, 1.0)  # below the full-type onset
    with pytest.raises(ValueError):
        build_mixed(m, 0.6, 0.4)  # q1 must lie below q2
    with pytest.raises(ValueError):
        build_mixed(make_mixture(4, 38, 0.9845), 0.3, 0.9)  # not the solved roots


def test_constructors_name_each_refusal():
    # every refusal the phase chain can meet, each with its own message
    m = make_mixture(4, 38, 0.5)
    with pytest.raises(ValueError, match="^z does not solve the tilt "):
        build_1rsb(m, 0.5)

    def two_step_at(q):
        # (q, z1, z2) with f2 zeroed by z2 and f1 by the choice of q
        k = criteria._kernel(m, q)
        z2 = criteria._c_inv(k[3] / k[2])
        return z2, k, q * k[2] / k[1] - 1.0 - z2

    def stationary(q):
        z2, k, _ = two_step_at(q)
        return criteria._f1(q, z2, k)

    # a stationary point of the two-level system below the two-step window
    q = brentq(stationary, 0.228, 0.23, xtol=1e-15)
    z2, _, z1 = two_step_at(q)
    with pytest.raises(ValueError, match="^tilt z2 falls outside the "
                                         "admissible window at q$"):
        build_2rsb(m, q, z1, z2)
    # the solved two-step point with z1 replaced
    c = classify(4, 38, 0.8)
    m8, (q, z2) = make_mixture(4, 38, 0.8), (c.params["q"], c.params["z2"])
    with pytest.raises(ValueError, match="^two-step construction needs "
                                         r"z1 > 0, got 0\.0$"):
        build_2rsb(m8, q, 0.0, z2)
    with pytest.raises(ValueError, match="^two-step densities must increase"):
        build_2rsb(m8, q, 1e4, z2)

    # a root of h12 past the window's closing: a lower plateau is refused
    h12 = lambda x: criteria._window(m, x, first=False, one=True)
    q1 = brentq(h12, 0.958, 0.96, xtol=1e-15)
    with pytest.raises(ValueError, match="^window closed at q1; no mixed "):
        build_mixed(m, q1, 1.0)
    # the solved lower plateau with an upper end that is no root of h22
    lam = _mid(boundaries(4, 38), "lambda_2to2F", "lambda_2to1F")
    c = classify(4, 38, lam)
    assert c.phase == "TwoFRSB"
    with pytest.raises(ValueError, match="^q2 does not solve its defining "
                                         "equation: "):
        build_mixed(make_mixture(4, 38, lam), c.params["q1"], 0.99)

    # a plateau above the full density's start leaves the cone
    bad = ParisiMeasure((Segment(0.0, 0.5, "const", 100.0),
                         Segment(0.5, 1.0, "full")), 0.1)
    from parisi_zero.measure import _structure_check

    with pytest.raises(ValueError, match="^density must be nondecreasing "
                                         "into a full segment$"):
        _structure_check(bad, m)


def test_domain_checks_refuse_nan():
    # each check is written so that NaN fails it, on the float and the
    # array path alike: no entry point returns NaN silently
    m, nan = make_mixture(4, 38, 0.5), math.nan
    q_msg, x_msg = r"^q must lie in \(0, 1\), got ", "^x must be >= 0$"
    for call, msg in [
        (lambda: f12(m, nan, 0.5), q_msg + "nan$"),
        (lambda: f12(m, np.array([0.5, nan]), 0.5), q_msg),
        (lambda: f12(m, 0.5, nan), "^z2 must exceed -1, got nan$"),
        (lambda: f12(m, np.array([0.5, 0.6]), np.array([0.5, nan])),
         "^z2 must exceed -1, got "),
        (lambda: eval_h1(m, nan), q_msg + "nan$"),
        (lambda: xi_deriv(m, nan), x_msg),
        (lambda: xi_deriv(m, np.array([0.5, nan])), x_msg),
        (lambda: c_log(nan), r"^c_log requires z > -1$"),
        (lambda: c_log(np.array([0.5, nan])), r"^c_log requires z > -1$"),
        (lambda: zeta(m, nan), x_msg),
        (lambda: wtilde(m, nan), x_msg),
        (lambda: build_1rsb(m, nan), "^one-step construction needs z > 0, "
                                     "got nan$"),
        (lambda: build_2rsb(m, nan, 0.5, 0.5), q_msg + "nan$"),
    ]:
        with pytest.raises(ValueError, match=msg):
            call()


def test_cross_phase_limit_at_the_2frsb_onset():
    # approaching lambda_2to2F from both sides: the 2RSB and 2FRSB tails agree
    # to the width of the vanishing full band
    lam_b = boundaries(4, 38).general["lambda_2to2F"]
    lo = classify(4, 38, lam_b - 1e-5)
    hi = classify(4, 38, lam_b + 1e-5)
    assert lo.phase == "TwoRSB" and hi.phase == "TwoFRSB"
    ml, mh = make_mixture(4, 38, lam_b - 1e-5), make_mixture(4, 38, lam_b + 1e-5)
    xs = np.linspace(0.0, 1.0, 257)
    gap = max(abs(tail_mass(lo.measure, ml, x) - tail_mass(hi.measure, mh, x))
              for x in xs)
    assert gap < 1e-3


def test_json_round_trip():
    for m, nu, phase in EXEMPLARS:
        d = json.loads(json.dumps(to_json_dict(nu)))
        back = from_json_dict(d)
        assert back == nu, phase


def test_json_rejects_malformed():
    good = to_json_dict(EXEMPLARS[0][1])
    for breaker in (
        lambda d: d.pop("atom"),
        lambda d: d["segments"][0].pop("kind"),
        lambda d: d["segments"][0].update(kind="wavelet"),
        lambda d: d.update(atom=-0.2),
        lambda d: d["segments"].clear(),
        lambda d: d["segments"][0].update(value=-0.5),
        lambda d: d.update(segments=[
            {"lo": 0.0, "hi": 0.7, "kind": "const", "value": 0.1},
            {"lo": 0.7, "hi": 0.3, "kind": "const", "value": 0.2},
            {"lo": 0.3, "hi": 1.0, "kind": "const", "value": 0.3}]),
    ):
        d = json.loads(json.dumps(good))
        breaker(d)
        with pytest.raises(ValueError):
            from_json_dict(d)


def test_structure_check_rejects_decreasing_plateaus():
    m = make_mixture(4, 18, 0.5)
    bad = ParisiMeasure(
        (Segment(0.0, 0.5, "const", 1.0), Segment(0.5, 1.0, "const", 0.5)), 0.3)
    from parisi_zero.measure import _structure_check

    with pytest.raises(ValueError):
        _structure_check(bad, m)


def _dense_verdict(m, lo, hi):
    # the reference: 2 xi'' xi'''' - 3 xi'''^2 on 4097 points of the
    # segment, under the cone check's tolerance rule
    xs = np.linspace(lo, min(hi, 1 - 1e-12), 4097)
    curv = (2 * xi_deriv(m, xs, 2) * xi_deriv(m, xs, 4)
            - 3 * xi_deriv(m, xs, 3) ** 2)
    return float(curv.min()) >= -1e-9 * max(1.0, float(np.abs(curv).max()))


def _two_end_verdict(m, lo, hi):
    # a full segment between a zero plateau and one far above it, so only
    # the segment's own monotonicity can fail the cone check
    from parisi_zero.measure import _structure_check

    segs = [Segment(lo, hi, "full")]
    if lo > 0:
        segs.insert(0, Segment(0.0, lo, "const", 0.0))
    if hi < 1:
        segs.append(Segment(hi, 1.0, "const", 1e300))
    try:
        _structure_check(ParisiMeasure(tuple(segs), 1.0), m)
    except ValueError as exc:
        assert "full density is not increasing" in str(exc)
        return False
    return True


def test_two_end_monotonicity_matches_a_dense_grid_and_classify():
    rng = np.random.default_rng(20221)
    draws = [(2, 3, 0.7, 0.0, 1.0), (2, 3, 0.2, 0.0, 0.6), (2, 4, 0.9, 0.0, 1.0)]
    for _ in range(400):
        p = int(rng.integers(2, 7))
        s = int(rng.integers(p + 1, 61))
        lam = float(rng.uniform(0.9, 1.0) if rng.random() < 0.5 else rng.random())
        lo, hi = sorted(rng.uniform(0.0, 1.0, 2))
        if p == 2 and rng.random() < 0.3:
            lo = 0.0
        if rng.random() < 0.3:
            hi = 1.0
        draws.append((p, s, lam, max(lo, 1e-3 if p > 2 else 0.0), hi))
    verdicts = []
    for p, s, lam, lo, hi in draws:
        m = make_mixture(p, s, lam)
        v = _two_end_verdict(m, lo, hi)
        assert v == _dense_verdict(m, lo, hi), (p, s, lam, lo, hi)
        verdicts.append(v)
    assert min(sum(verdicts), len(verdicts) - sum(verdicts)) >= 30
    # the one constructor rebuilds every mixed shape classify returns
    shapes = set()
    for m, nu, phase in EXEMPLARS:
        if phase not in ("TwoFRSB", "OneFRSB", "FRSB"):
            continue
        q = classify(m.p, m.s, m.lam).params
        q1 = 0.0 if "q_P" in q else q.get("q1", 0.0)
        q2 = q.get("q2", q.get("q_P", 1.0))
        assert build_mixed(m, q1, q2) == nu, phase
        shapes.add((q1 > 0, q2 < 1))
    assert len(shapes) == 4
