"""Energy functional, the certificate integrand g, and the verifier."""
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from parisi_zero import (
    ParisiMeasure,
    Segment,
    build_1rsb,
    build_mixed,
    build_rs,
    classify,
    criteria,
    cs_energy,
    density,
    g_of,
    make_mixture,
    solve_z,
    tail_mass,
    verify_parisi,
    xi_deriv,
)
from parisi_zero.phases import boundaries, boundary_lambdas


def one_step_energy(m, z):
    a = xi_deriv(m, 1.0, 1)
    return (a + z) / math.sqrt((1 + z) * a)


def test_one_step_energy_matches_closed_form():
    for p, s, lam in [(4, 18, 0.5), (4, 38, 0.3), (3, 30, 0.6), (3, 3, 1.0)]:
        m = make_mixture(p, s, lam)
        z = solve_z(m)
        nu = build_1rsb(m, z)
        assert cs_energy(m, nu) == pytest.approx(one_step_energy(m, z), abs=1e-10)


def test_pure_two_ground_state():
    m = make_mixture(2, 5, 1.0)
    assert cs_energy(m, build_rs(m)) == pytest.approx(math.sqrt(2), abs=1e-9)


def test_full_measure_energy_is_integral_of_sqrt_curvature():
    m = make_mixture(2, 4, 0.95)
    nu = build_mixed(m, 0.0, 1.0)
    want, _ = quad(lambda x: math.sqrt(xi_deriv(m, x, 2)), 0.0, 1.0,
                   epsabs=1e-13, limit=200)
    assert cs_energy(m, nu) == pytest.approx(want, abs=1e-9)


def test_g_vanishes_at_one_identically():
    for p, s, lam in [(4, 18, 0.5), (2, 4, 0.95)]:
        m = make_mixture(p, s, lam)
        nu = classify(p, s, lam).measure
        assert g_of(m, nu, 1.0) == 0.0


def test_g_vanishes_everywhere_for_the_full_measure():
    m = make_mixture(2, 4, 0.95)
    nu = build_mixed(m, 0.0, 1.0)
    us = np.linspace(0.0, 1.0, 512)
    gs = g_of(m, nu, us)
    assert np.max(np.abs(gs)) <= 1e-9


def test_g_array_matches_scalar():
    m = make_mixture(4, 18, 0.5)
    nu = build_1rsb(m, solve_z(m))
    us = np.linspace(0.0, 1.0, 9)
    vec = g_of(m, nu, us)
    assert vec.shape == (9,)
    for u, v in zip(us, vec):
        got = g_of(m, nu, float(u))
        assert type(got) is float and got == v, u


def test_g_refuses_u_outside_the_unit_interval():
    m = make_mixture(4, 18, 0.5)
    nu = build_1rsb(m, solve_z(m))
    for u in (1.5, -0.1, math.nan, np.array([0.5, 1.5]),
              np.array([-0.1, 0.5]), np.array([0.2, math.nan])):
        with pytest.raises(ValueError, match=r"u must lie in \[0, 1\]"):
            g_of(m, nu, u)


def _random_cone_member(rng):
    """A raw step measure in the cone: nondecreasing plateaus, positive atom."""
    k = rng.integers(1, 4)
    cuts = np.sort(rng.uniform(0.05, 0.95, size=k - 1)) if k > 1 else []
    heights = np.cumsum(rng.uniform(0.0, 1.5, size=k))
    los = [0.0, *cuts]
    his = [*cuts, 1.0]
    segs = tuple(Segment(lo, hi, "const", float(h))
                 for lo, hi, h in zip(los, his, heights))
    return ParisiMeasure(segs, float(rng.uniform(0.05, 1.2)))


def test_certified_energy_is_a_minimum_under_perturbation():
    m = make_mixture(4, 18, 0.5)
    z = solve_z(m)
    star = build_1rsb(m, z)
    e_star = cs_energy(m, star)
    rng = np.random.default_rng(42)
    for _ in range(50):
        nu = _random_cone_member(rng)
        assert cs_energy(m, nu) >= e_star - 1e-8
    # local perturbations around the optimum itself
    for eps in (1e-3, -1e-3, 3e-2):
        bumped = ParisiMeasure(star.segments, star.atom * (1 + eps))
        assert cs_energy(m, bumped) >= e_star - 1e-12
        lifted = ParisiMeasure(
            tuple(Segment(s.lo, s.hi, s.kind, s.value * (1 + eps))
                  for s in star.segments), star.atom)
        assert cs_energy(m, lifted) >= e_star - 1e-12


def test_quadrature_tolerance_halving_is_invisible():
    import parisi_zero.energy as energy_mod

    b = boundaries(4, 38)
    lam = 0.5 * (b.general["lambda_2to2F"] + b.general["lambda_2to1F"])
    cases = [(make_mixture(4, 38, lam), classify(4, 38, lam).measure),
             (make_mixture(2, 4, 0.95),
              build_mixed(make_mixture(2, 4, 0.95), 0.0, 1.0))]
    coarse = [cs_energy(m, nu) for m, nu in cases]
    saved = energy_mod._QUAD_EPS
    try:
        energy_mod._QUAD_EPS = saved / 2
        fine = [cs_energy(m, nu) for m, nu in cases]
    finally:
        energy_mod._QUAD_EPS = saved
    for c, f in zip(coarse, fine):
        assert abs(c - f) < 1e-9


def test_gauss_rule_halves_where_needed_and_gives_up_on_a_singularity():
    from parisi_zero.energy import _gauss

    # too sharp for 64 nodes on all of [0, 1], exact after a few halvings
    assert _gauss(lambda r: r ** 400, 0.0, 1.0) == pytest.approx(1 / 401,
                                                                  abs=1e-15)
    # a batch of integrands comes back as a batch
    both = _gauss(lambda r: np.multiply.outer([1.0, 2.0], r * r), 0.0, 1.0)
    assert both == pytest.approx([1 / 3, 2 / 3], abs=1e-15)
    with pytest.raises(ValueError, match="did not converge"):
        _gauss(lambda r: 1 / np.abs(r - 0.5), 0.0, 1.0)
    with pytest.raises(ValueError, match="not finite"):
        _gauss(lambda r: np.where(r < 0.5, r, np.nan), 0.0, 1.0)


def test_g_is_stationary_at_interior_support_points():
    b = boundaries(4, 38)
    lam = 0.5 * (b.general["lambda_1to2"] + b.general["lambda_2to2F"])
    c2 = classify(4, 38, lam)
    m2 = make_mixture(4, 38, lam)
    q = c2.params["q"]

    c1 = classify(2, 4, 0.7419)
    m1 = make_mixture(2, 4, 0.7419)
    q_p = c1.measure.segments[0].hi

    h = 1e-4
    for m, nu, x in [(m2, c2.measure, q), (m1, c1.measure, q_p)]:
        slope = (g_of(m, nu, x + h) - g_of(m, nu, x - h)) / (2 * h)
        assert abs(slope) <= 1e-6


def test_verifier_passes_certified_and_reports_residuals():
    m = make_mixture(4, 18, 0.5)
    nu = build_1rsb(m, solve_z(m))
    rep = verify_parisi(m, nu)
    assert rep.passed
    assert rep.normalization_error <= 1e-9
    assert rep.min_g >= -1e-7
    assert rep.support_residual <= 1e-7
    d = rep.to_dict()
    assert d["pass"] is True
    assert set(d) == {"normalization_error", "min_g", "support_residual",
                      "pass", "tolerance"}


def test_verifier_rejects_scaled_atom():
    m = make_mixture(4, 18, 0.5)
    nu = build_1rsb(m, solve_z(m))
    bad = ParisiMeasure(nu.segments, nu.atom * 1.1)
    rep = verify_parisi(m, bad)
    assert not rep.passed
    assert rep.normalization_error > 0.01


def test_verifier_rejects_one_step_in_a_two_step_phase():
    b = boundaries(4, 38)
    lam = 0.5 * (b.general["lambda_1to2"] + b.general["lambda_2to2F"])
    m = make_mixture(4, 38, lam)
    nu = build_1rsb(m, solve_z(m))  # wrong family here
    rep = verify_parisi(m, nu)
    assert not rep.passed
    assert rep.min_g < -1e-7


# the middle of each phase band of three families, from the boundary
# constants the pinned reports below were recorded with; held as literals,
# so a last-bit move of a solved constant leaves those inputs in place
_BAND_MIDPOINTS = {
    (4, 38): (0.30468225824271694, 0.7955245744550353, 0.9844164192320981,
              0.988563923540578, 0.9949898205207983),
    (3, 20): (0.2823055532691572, 0.7584364883461386, 0.965362519740145,
              0.983398645781318, 0.9941670611181544),
    (2, 8): (0.13458590634472692, 0.6132183849772056, 0.9786324786324787),
}


def _refinement_cases():
    """(name, mixture, measure): the measures classification certifies at
    a few points, a TwoFRSB construction, and the wrong one-step measure
    at the middle of each band where the phase is not OneRSB."""
    m = make_mixture(4, 38, 0.985)
    lm = criteria.landmarks(m)
    cases = [("TwoFRSB construction", m, build_mixed(m, lm.q12, lm.q22))]
    for p, s, lam in ((4, 38, 0.95), (2, 8, 0.5), (3, 20, 0.9)):
        cases.append((f"certified {p, s, lam}", make_mixture(p, s, lam),
                      classify(p, s, lam).measure))
    for (p, s), mids in _BAND_MIDPOINTS.items():
        edges = [0.0, *boundary_lambdas(boundaries(p, s)), 1.0]
        assert mids == pytest.approx(
            [0.5 * (a + b) for a, b in zip(edges, edges[1:])], abs=1e-9)
        for lam in mids:
            phase = classify(p, s, lam).phase
            if phase != "OneRSB":
                m = make_mixture(p, s, lam)
                name = f"wrong one-step ({p}, {s}, {lam:.4f}) in {phase}"
                cases.append((name, m, build_1rsb(m, solve_z(m))))
    return cases


def test_refined_min_g_matches_a_bounded_minimiser():
    # the zoom about the grid argmin ends no more than 1e-11 above scipy's
    # bounded minimiser on the two grid steps around that argmin
    cases = _refinement_cases()
    assert sum(name.startswith("wrong") for name, _, _ in cases) == 8
    us = np.linspace(0.0, 1.0, 2048)
    for name, m, nu in cases:
        i0 = int(np.argmin(g_of(m, nu, us)))
        lo, hi = us[max(0, i0 - 1)], us[min(2047, i0 + 1)]
        ref = minimize_scalar(lambda u: g_of(m, nu, u), bounds=(lo, hi),
                              method="bounded", options={"xatol": 1e-12})
        rep = verify_parisi(m, nu)
        assert rep.min_g <= ref.fun + 1e-11, (name, rep.min_g, ref.fun)
        assert rep.passed == (not name.startswith("wrong")), (name, rep)


# VerificationReport fields (normalization_error, min_g, support_residual,
# passed) of the refinement cases and of a classified measure of each
# phase, recorded before the certificate's array paths were rewritten
# (numpy 2.4, x86-64 with AVX-512; numpy's SIMD power can move the last
# bits on another CPU or numpy build); the entries that read q22 or a
# band midpoint re-recorded when landmarks took q22 from its shared grid,
# and the four that read a landmark root or a constant re-recorded when
# that grid went from 4096 to 1024 points (roots moved by under 1e-12), and
# again, four of them, when the t scan's and p = 2's h22 scan's grid did;
# the six that read a tilt z re-recorded when c's inverse became Newton's
# method; the (2, 8, 0.5) row, whose upper plateau and atom build_mixed now
# takes from the exact D1 and N, re-recorded then; the (3, 20, 0.9) row,
# whose two-step root is now bracketed on [q22, q12], re-recorded then
_PINNED_REPORTS = {
    "TwoFRSB construction": (8.881784197001252e-16, -4.440892098500626e-16,
                             4.440892098500626e-16, True),
    "certified (4, 38, 0.95)": (1.7763568394002505e-15, -3.552713678800501e-15,
                                3.552713678800501e-15, True),
    "certified (2, 8, 0.5)": (8.881784197001252e-16, 0.0, 0.0, True),
    "certified (3, 20, 0.9)": (0.0, -2.220446049250313e-16,
                               2.220446049250313e-16, True),
    "wrong one-step (4, 38, 0.7955) in TwoRSB": (
        0.0, -0.03939897575233209, 0.0, False),
    "wrong one-step (4, 38, 0.9844) in TwoFRSB": (
        8.881784197001252e-16, -0.0003946390742779471, 4.440892098500626e-16,
        False),
    "wrong one-step (4, 38, 0.9886) in OneFRSB": (
        0.0, -1.0865910185509087e-05, 4.4408920985006262e-16, False),
    "wrong one-step (3, 20, 0.7584) in TwoRSB": (
        8.8817841970012523e-16, -0.03287040591100321,
        2.2204460492503131e-16, False),
    "wrong one-step (3, 20, 0.9654) in TwoFRSB": (
        8.8817841970012523e-16, -0.0055437546389407455,
        2.2204460492503131e-16, False),
    "wrong one-step (3, 20, 0.9834) in OneFRSB": (
        0.0, -0.00022547926182958644, 3.3306690738754696e-16, False),
    "wrong one-step (2, 8, 0.6132) in OneFRSB": (
        8.8817841970012523e-16, -0.0267763954146526,
        6.661338147750939e-16, False),
    "wrong one-step (2, 8, 0.9786) in FRSB": (
        4.4408920985006262e-16, -0.01015740281035482,
        2.220446049250313e-16, False),
    "certified (2, 4, 1.0)": (4.4408920985006262e-16, 0.0, 0.0, True),
    "certified (4, 38, 0.5)": (7.1054273576010019e-15, 0.0,
                               7.7715611723760958e-16, True),
    "certified (4, 38, 0.985)": (8.881784197001252e-16,
                                 -4.440892098500626e-16,
                                 4.440892098500626e-16, True),
    "certified (4, 38, 0.988)": (8.881784197001252e-16,
                                 -2.220446049250313e-16,
                                 7.771561172376096e-16, True),
    "certified (2, 8, 0.99)": (0.0, 0.0, 0.0, True),
}


def test_certificate_bits_are_pinned():
    cases = _refinement_cases()
    phases = set()
    for p, s, lam in ((2, 4, 1.0), (4, 38, 0.5), (4, 38, 0.985),
                      (4, 38, 0.988), (2, 8, 0.99)):
        cl = classify(p, s, lam)
        phases.add(cl.phase)
        cases.append((f"certified {p, s, lam}", make_mixture(p, s, lam),
                      cl.measure))
    assert phases == {"RS", "OneRSB", "TwoFRSB", "OneFRSB", "FRSB"}
    assert [name for name, _, _ in cases] == list(_PINNED_REPORTS)
    for name, m, nu in cases:
        rep = verify_parisi(m, nu)
        got = (rep.normalization_error, rep.min_g, rep.support_residual,
               rep.passed)
        assert got == _PINNED_REPORTS[name], (name, got)
        assert rep.tolerance == 1e-7


def _phi_both_branches(y):
    # energy._phi's array path as it was: both forms everywhere, then a pick
    y = np.asarray(y, dtype=float)
    series = 0.5 + y / 3 + y * y / 4 + y ** 3 / 5
    with np.errstate(divide="ignore", invalid="ignore"):
        direct = (-np.log1p(-y) - y) / (y * y)
    out = np.where(np.abs(y) < 1e-4, series, direct)
    return float(out) if out.ndim == 0 else out


def test_phi_array_path_matches_the_both_branch_form():
    import warnings

    import parisi_zero.energy as energy_mod

    rng = np.random.default_rng(17)
    seam = [sg * (1e-4 + d) for sg in (1, -1) for d in (-1e-12, 0.0, 1e-12)]
    mixed = np.array([*seam, 0.0, -0.0, 0.5, 0.999999, 1.0, 1.5, -math.inf,
                      math.nan, *rng.uniform(-2e-4, 2e-4, 40),
                      *rng.uniform(-5.0, 0.9999, 40)])
    inputs = [mixed, mixed.reshape(2, -1), np.array(0.5), np.array(3e-5),
              np.array(1.0), np.array(math.nan), np.empty(0),
              np.empty((0, 2)), np.full(3, 2e-5), np.array([1.0, 2.0]),
              np.array([-math.inf, math.nan])]
    for y in inputs:
        with np.errstate(all="ignore"):
            want = _phi_both_branches(y)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = energy_mod._phi(y)
        assert type(got) is type(want), y
        assert np.shape(got) == np.shape(want), y
        assert np.array_equal(got, want, equal_nan=True), y


def _segment_patterns():
    # classified measures of the six segment patterns, by segment kinds
    points = {"const": (4, 38, 0.5), "const+const": (4, 38, 0.95),
              "full+const": (2, 8, 0.5), "const+full+const": (4, 38, 0.985),
              "full": (2, 8, 0.99), "const+full": (4, 38, 0.988)}
    for name, (p, s, lam) in points.items():
        nu = classify(p, s, lam).measure
        assert "+".join(seg.kind for seg in nu.segments) == name
        yield name, make_mixture(p, s, lam), nu


def test_g_of_takes_any_order_and_shape(monkeypatch):
    # g_of on shuffled, 2-D, empty and scalar input equals _Tables.g on the
    # sorted points, and every point reaches J through its own segment:
    # (hi_{i-1}, hi_i] for segment i, checked on a spy of _J_in; each
    # segment's own points (hi_i and the float below it among them) take
    # one _J_in call and keep the spanning call's bits; no point, no call
    import parisi_zero.energy as energy_mod

    reached, calls = {}, []
    j_in = energy_mod._Tables._J_in

    def spy(self, i, x, xi_x):
        calls.append(i)
        for v in np.ravel(x):
            reached.setdefault(float(v), set()).add(i)
        return j_in(self, i, x, xi_x)

    monkeypatch.setattr(energy_mod._Tables, "_J_in", spy)
    rng = np.random.default_rng(23)
    for name, m, nu in _segment_patterns():
        his = [seg.hi for seg in nu.segments]
        ends = [0.0, *his]
        near = {float(v) for e in ends
                for v in (np.nextafter(e, -1.0), e, np.nextafter(e, 2.0))}
        pts = np.array(sorted(v for v in near | set(np.linspace(0, 1, 41))
                              if 0.0 <= v <= 1.0))
        want = energy_mod._Tables(m, nu).g(pts)
        perm = rng.permutation(pts.size)
        got = g_of(m, nu, pts[perm])
        assert got.shape == pts.shape and (got == want[perm]).all(), name
        two = np.stack([pts, pts[::-1]])
        got = g_of(m, nu, two)
        assert got.shape == two.shape, name
        assert (got == np.stack([want, want[::-1]])).all(), name
        for shape in ((0,), (0, 3)):
            assert g_of(m, nu, np.empty(shape)).shape == shape, name
        for e in ends:
            for v in (np.nextafter(e, -1.0), e, np.nextafter(e, 2.0)):
                if 0.0 <= v <= 1.0:
                    got = g_of(m, nu, float(v))
                    assert type(got) is float, (name, v)
                    assert got == want[np.searchsorted(pts, v)], (name, v)
        segs = np.array([next(i for i, hi in enumerate(his) if v <= hi)
                         for v in pts])
        for v, seg in zip(pts, segs):
            assert reached[float(v)] == {seg}, (name, v, reached[float(v)])
        tab = energy_mod._Tables(m, nu)
        for i, hi in enumerate(his):
            own = segs == i
            assert hi in pts[own] and np.nextafter(hi, -1.0) in pts[own]
            calls.clear()
            assert (tab.g(pts[own]) == want[own]).all(), (name, i)
            assert calls == [i], (name, i, calls)
        calls.clear()
        assert tab.g(np.empty(0)).shape == (0,) and not calls, name
        reached.clear()


def test_j_on_a_zero_density_segment_is_the_plain_quadratic():
    # phi(0) is exactly 1/2, so a zero plateau adds w^2 / (2 T^2) to J's
    # linear part bit for bit, for a float and for an array
    import parisi_zero.energy as energy_mod

    m = make_mixture(4, 38, 0.8)
    for nu in (build_rs(m), ParisiMeasure(
            (Segment(0.0, 0.4, "const", 0.0), Segment(0.4, 1.0, "const", 2.0)),
            0.3)):
        tab = energy_mod._Tables(m, nu)
        hi, T = nu.segments[0].hi, tab.T[0]
        xs = np.linspace(0.0, hi, 33)
        want = tab.J[0] + tab.I[0] * xs + xs * xs / (2 * T * T)
        assert (tab._J_in(0, xs, xi_deriv(m, xs)) == want).all()
        for x in (0.0, float(xs[7]), hi):
            got = tab._J_in(0, x, xi_deriv(m, x))
            assert got == tab.J[0] + tab.I[0] * x + x * x / (2 * T * T), x

def _reference_by_quad(m, nu, us):
    """Normalization, g(us) and the energy from generic quadrature of the tail.

    Built on tail_mass and density alone; g(u) = xi(1) - xi(u)
    - int_0^1 (1 - max(r, u)) dr / T(r)^2 folds the double integral.
    """
    edges = sorted({seg.lo for seg in nu.segments} | {1.0})

    def integral(f, extra=()):
        pts = sorted(set(edges) | set(extra))
        return sum(quad(f, a, b, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
                   for a, b in zip(pts, pts[1:]))

    def inv_t2(r):
        return tail_mass(nu, m, r) ** -2.0

    norm = integral(inv_t2)
    gs = [xi_deriv(m, 1.0) - xi_deriv(m, u)
          - integral(lambda r: (1 - max(r, u)) * inv_t2(r), (u,)) for u in us]
    energy = 0.5 * (xi_deriv(m, 1.0, 1) * nu.atom
                    + integral(lambda r: xi_deriv(m, r, 1) * density(nu, m, r))
                    + integral(lambda r: 1.0 / tail_mass(nu, m, r)))
    return norm, gs, energy


@pytest.mark.parametrize("p, s, which", [(4, 38, "TwoFRSB"), (2, 8, "OneFRSB")])
@pytest.mark.parametrize("scale", [1 + 1e-6, 1.01])
def test_off_calibration_full_segments_match_generic_quadrature(p, s, which,
                                                                scale):
    # scaling the atom shifts the tail over a full segment off xi''^-1/2,
    # where the tables have no closed form and integrate instead
    import parisi_zero.energy as energy_mod

    if which == "TwoFRSB":
        g = boundaries(p, s).general
        lam = 0.5 * (g["lambda_2to2F"] + g["lambda_2to1F"])
    else:
        lam = 0.9
    cl = classify(p, s, lam)
    assert cl.phase == which
    m = make_mixture(p, s, lam)
    nu = ParisiMeasure(cl.measure.segments, cl.measure.atom * scale)
    assert max(abs(c) for c in energy_mod._Tables(m, nu).C) > energy_mod._CALIB_EPS

    us = [0.05, 0.3, 0.6, 0.9, 0.99]
    norm, gs, energy = _reference_by_quad(m, nu, us)
    rep = verify_parisi(m, nu)
    assert not rep.passed
    assert rep.normalization_error == pytest.approx(
        abs(norm - xi_deriv(m, 1.0, 1)), abs=1e-11)
    for u, want in zip(us, gs):
        assert g_of(m, nu, u) == pytest.approx(want, abs=1e-11)
    assert np.allclose(g_of(m, nu, np.array(us)), gs, rtol=0, atol=1e-11)
    assert cs_energy(m, nu) == pytest.approx(energy, abs=1e-11)


# Q(nu) of a classified measure of each phase, and of the off-calibration
# measures above (the atom scaled), recorded when the energy had a segment
# walk of its own (numpy 2.4, x86-64 with AVX-512, as _PINNED_REPORTS); the
# TwoFRSB rows, at (4, 38)'s band midpoint in _BAND_MIDPOINTS, re-recorded
# with the q22 entries there, and with the (4, 38, 0.988) row when the
# landmark grid went from 4096 to 1024 points; the (4, 38, 0.985) and
# (2, 8, 0.9) rows re-recorded when the t and p = 2 h22 grids did, the
# (4, 38, 0.95) row when the tilt inverse became Newton's method, and the
# (4, 38, 0.985) and (4, 38, 0.98441..., 1 + 1e-6) rows when build_mixed
# took the upper plateau and atom from the exact D1 and N
_PINNED_ENERGIES = {
    (2, 2, 1.0, 1.0): 1.414213562373095,
    (4, 38, 0.5, 1.0): 2.354034396459024,
    (4, 38, 0.95, 1.0): 1.9363188216908116,
    (4, 38, 0.985, 1.0): 1.8456654254983595,
    (4, 38, 0.988, 1.0): 1.8360772453783611,
    (2, 8, 0.99, 1.0): 1.434561758617329,
    (4, 38, 0.9844164192320981, 1 + 1e-6): 1.8474879413642142,
    (4, 38, 0.9844164192320981, 1.01): 1.8475088630991339,
    (2, 8, 0.9, 1 + 1e-6): 1.5727095702517386,
    (2, 8, 0.9, 1.01): 1.5727397788562705,
}


def test_the_report_carries_the_energy():
    # one segment walk gives the certificate and Q(nu): cs_energy, the
    # report's energy and classify's energy are one number, whether or
    # not the measure passes, and the v1 record does not carry it
    phases = set()
    for (p, s, lam, scale), want in _PINNED_ENERGIES.items():
        cl = classify(p, s, lam)
        m = make_mixture(p, s, lam)
        nu = ParisiMeasure(cl.measure.segments, cl.measure.atom * scale)
        rep = verify_parisi(m, nu)
        assert rep.passed == (scale == 1.0), (p, s, lam, scale)
        assert cs_energy(m, nu) == rep.energy == want, (p, s, lam, scale)
        if scale == 1.0:
            phases.add(cl.phase)
            assert cl.energy == want and cl.report == rep
        assert "energy" not in rep.to_dict()
    assert phases == {"RS", "OneRSB", "TwoRSB", "TwoFRSB", "OneFRSB", "FRSB"}


def test_zoom_points_are_linspace_bit_for_bit():
    # verify_parisi's zoom copies np.linspace's operations onto a stored
    # arange; neighbours two steps apart on the 2048-point grid (the first
    # round) and the narrower spans of later rounds are among the pairs
    import parisi_zero.energy as energy
    grid = np.linspace(0.0, 1.0, 2048)
    pairs = [(grid[i], grid[i + 2]) for i in range(2046)]
    rng = np.random.default_rng(18)
    for i in rng.integers(0, 2046, 200):
        zoom = energy._zoom(grid[i], grid[i + 2])
        pairs += [(zoom[j], zoom[j + 2]) for j in range(63)]
    pairs += [tuple(map(float, ab)) for ab in rng.uniform(0.0, 1.0, (5000, 2))]
    pairs += [(0.0, 1.0), (0.3, 0.3), (1.0 - 1e-12, 1.0), (2.0, -3.5)]
    for a, b in pairs:
        want = np.linspace(a, b, energy._ZOOM_POINTS)
        assert np.array_equal(energy._zoom(a, b), want), (a, b)


def _verify_before(m, nu, tol=1e-7):
    # energy.verify_parisi as it was before support points on the grid read
    # g from the grid pass: a fourth g pass over the whole support sample
    import parisi_zero.energy as energy
    tab = energy._Tables(m, nu)
    nerr = abs(tab.I[-1] - xi_deriv(m, 1.0, 1))
    us = energy._grid(0.0, 1.0, 2048)
    gv = tab.g(us)
    min_g = float(gv.min())
    for _ in range(energy._ZOOM_ROUNDS):
        i = int(np.argmin(gv))
        us = energy._zoom(us[max(0, i - 1)], us[min(us.size - 1, i + 1)])
        gv = tab.g(us)
        min_g = min(min_g, float(gv.min()))
    sup_pts = energy._support_points(m, nu)
    sres = float(np.abs(tab.g(np.sort(sup_pts))).max()) if len(sup_pts) else 0.0
    return energy.VerificationReport(
        normalization_error=float(nerr),
        min_g=min_g,
        support_residual=sres,
        passed=bool(nerr <= tol and min_g >= -tol and sres <= tol),
        tolerance=tol,
        energy=tab.energy,
    )


def test_support_on_the_grid_reads_the_grid_pass(monkeypatch):
    # a one-step measure's one support point is 0.0, point 0 of the grid:
    # three g passes (grid and two zooms), not four, and the same report
    import parisi_zero.energy as energy
    passes = []
    real = energy._Tables.g
    monkeypatch.setattr(energy._Tables, "g",
                        lambda tab, xs: passes.append(xs.size) or real(tab, xs))
    want_passes = {"RS": 3, "OneRSB": 3, "TwoRSB": 4, "TwoFRSB": 4,
                   "OneFRSB": 4, "FRSB": 4}
    seen = set()
    for p, s, lam in ((2, 4, 1.0), (4, 38, 0.5), (3, 20, 0.3), (4, 38, 0.8),
                      (3, 20, 0.75), (4, 38, 0.984), (3, 20, 0.965),
                      (4, 38, 0.9886), (2, 8, 0.3), (2, 8, 0.98),
                      (2, 4, 0.95)):
        cl = classify(p, s, lam)
        m = make_mixture(p, s, lam)
        for scale in (1.0, 1.01):
            nu = ParisiMeasure(cl.measure.segments, cl.measure.atom * scale)
            passes.clear()
            got = verify_parisi(m, nu)
            assert len(passes) == want_passes[cl.phase], (p, s, lam, passes)
            assert passes[:3] == [2048, 65, 65]
            assert got == _verify_before(m, nu), (p, s, lam, scale)
        seen.add(cl.phase)
    assert seen == set(want_passes)
