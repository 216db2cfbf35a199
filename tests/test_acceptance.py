"""Acceptance gate: the nine headline capabilities, one test each.

Run with -v to get a single pass/fail line per criterion. Tolerances are
stated inline; every expected number is either a closed form, a frozen
value from an independent route, or re-derived on the spot.
"""
import math
import time

import numpy as np
import pytest

import test_criteria as tc
from parisi_zero import (
    boundaries,
    classify,
    cs_energy,
    g_of,
    interval_phase,
    lambda_stars,
    make_mixture,
    oracle_profile,
    regime,
    s_roots,
    solve_z,
    xi_deriv,
)


def test_criterion_1_single_phase_family_sweep():
    """(4, 18): a dense lambda grid plus both pure endpoints stays one-step."""
    t0 = time.monotonic()
    lams = [round(0.02 + 0.03 * i, 2) for i in range(33)] + [0.0, 1.0]
    assert len(lams) == 35
    for lam in lams:
        c = classify(4, 18, lam, tol=1e-7)
        assert c.phase == "OneRSB", lam
        assert c.report.passed, lam
    assert time.monotonic() - t0 < 30.0


def test_criterion_2_full_phase_chain():
    """(4, 38): ordered boundary chain and a certified phase at each midpoint."""
    g = boundaries(4, 38).general
    cuts = [g["lambda_1to2"], g["lambda_2to2F"], g["lambda_2to1F"],
            g["lambda_2to1"]]
    assert all(0 < a < b < 1 for a, b in zip(cuts, cuts[1:]))
    edges = [0.0, *cuts, 1.0]
    seen = []
    for lo, hi in zip(edges, edges[1:]):
        c = classify(4, 38, 0.5 * (lo + hi), tol=1e-7)
        assert c.phase == interval_phase(4, 38, 0.5 * (lo + hi)), (lo, hi)
        assert c.report.passed
        seen.append(c.phase)
    assert set(seen) == {"OneRSB", "TwoRSB", "TwoFRSB", "OneFRSB"}


def test_criterion_3_two_phase_family_has_no_mixed_states():
    """(4, 28): the mixed-state onset test fails, so only 1- and 2-step appear."""
    r = regime(4, 28)
    assert r.tag == "TwoPhase"
    assert r.diagnostics["psi_at_lambda_2to1F"] < 0
    g = boundaries(4, 28).general
    assert set(g) == {"lambda_1to2", "lambda_2to1"}
    cuts = (g["lambda_1to2"], g["lambda_2to1"])
    for lam in np.linspace(0.0, 1.0, 100):
        if any(abs(lam - c) < 1e-6 for c in cuts):
            continue
        want = interval_phase(4, 28, float(lam))
        assert want in ("OneRSB", "TwoRSB")
        assert classify(4, 28, float(lam)).phase == want, lam


def test_criterion_4_p2_constants():
    """(2, 4): closed-form upper constant, its tilt, and the ordering below it."""
    b = boundaries(2, 4).p2
    assert b["lambda_1Fto1"] == pytest.approx(12 / 13, abs=1e-12)
    assert solve_z(make_mixture(2, 4, 12 / 13)) > 1 / 6
    assert b["lambda_1to1F"] < 12 / 13


def test_criterion_5_pure_ground_states():
    """Pure models: exact sqrt(2) at degree 2; closed form at degree 3."""
    c2 = classify(2, 5, 1.0)
    assert c2.phase == "RS"
    assert c2.energy == pytest.approx(math.sqrt(2), abs=1e-9)

    m3 = make_mixture(3, 3, 1.0)
    z = solve_z(m3)
    assert z == pytest.approx(1.8169605355365104, abs=1e-12)
    closed = (3 + z) / math.sqrt(3 * (1 + z))
    c3 = classify(3, 3, 1.0)
    assert c3.energy == pytest.approx(closed, abs=1e-10)
    assert closed == pytest.approx(1.6569983635274732, abs=1e-12)


def test_criterion_6_certificates_per_phase():
    """Every phase each family exhibits carries a clean optimality report."""
    g38 = boundaries(4, 38).general
    c38 = [g38["lambda_1to2"], g38["lambda_2to2F"], g38["lambda_2to1F"],
           g38["lambda_2to1"]]
    points = [(2, 4, 0.3), (2, 4, 0.74), (2, 4, 0.95),
              (2, 8, 0.15), (2, 8, 0.61), (2, 8, 0.978),
              (4, 38, 0.5 * c38[0]),
              (4, 38, 0.5 * (c38[0] + c38[1])),
              (4, 38, 0.5 * (c38[1] + c38[2])),
              (4, 38, 0.5 * (c38[2] + c38[3])),
              (4, 38, 0.5 * (c38[3] + 1.0))]
    seen = set()
    for p, s, lam in points:
        c = classify(p, s, lam)
        seen.add((p, s, c.phase))
        rep = c.report
        assert rep.normalization_error <= 1e-9, (p, s, lam)
        assert rep.min_g >= -1e-7, (p, s, lam)
        assert rep.support_residual <= 1e-7, (p, s, lam)
        if c.phase == "FRSB":
            m = make_mixture(p, s, lam)
            gs = g_of(m, c.measure, np.linspace(0.0, 1.0, 512))
            assert np.max(np.abs(gs)) <= 1e-9, (p, s, lam)
    assert {(2, 4, "OneRSB"), (2, 4, "OneFRSB"), (2, 4, "FRSB"),
            (2, 8, "OneRSB"), (2, 8, "OneFRSB"), (2, 8, "FRSB"),
            (4, 38, "OneRSB"), (4, 38, "TwoRSB"), (4, 38, "TwoFRSB"),
            (4, 38, "OneFRSB")} <= seen


def test_criterion_7_oracle_cross_check():
    """Random points per phase: the step-measure search brackets the answer."""
    t0 = time.monotonic()
    rng = np.random.default_rng(20260819)
    g38 = boundaries(4, 38).general
    g20 = boundaries(3, 20).general
    p24 = boundaries(2, 4).p2
    p28 = boundaries(2, 8).p2

    def band(lo, hi, u):
        return lo + u * (hi - lo)

    points = []
    for s in rng.choice([4, 5, 6, 7, 8, 9], size=3):
        points.append(("RS", 2, int(s), 1.0))
    for u in rng.uniform(0.1, 0.9, 3):
        points.append(("OneRSB", 4, 18, float(u)))
    for u in rng.uniform(0.2, 0.8, 3):
        points.append(("TwoRSB", 4, 38,
                       band(g38["lambda_1to2"], g38["lambda_2to2F"], u)))
    for u in rng.uniform(0.3, 0.7, 3):
        points.append(("TwoFRSB", 3, 20,
                       band(g20["lambda_2to2F"], g20["lambda_2to1F"], u)))
    for u in rng.uniform(0.3, 0.7, 3):
        points.append(("OneFRSB", 3, 20,
                       band(g20["lambda_2to1F"], g20["lambda_2to1"], u)))
    for i, u in enumerate(rng.uniform(0.2, 0.6, 3)):
        p2 = p24 if i % 2 == 0 else p28
        s = 4 if i % 2 == 0 else 8
        points.append(("FRSB", 2, s, band(p2["lambda_1Fto1"], 1.0, u)))

    k_of = {"RS": 0, "OneRSB": 1, "TwoRSB": 2}
    restarts = {"RS": 4, "OneRSB": 6, "TwoRSB": 6}
    for phase, p, s, lam in points:
        c = classify(p, s, lam)
        assert c.phase == phase, (p, s, lam)
        m = make_mixture(p, s, lam)
        seed = int(rng.integers(10**6))
        if phase in k_of:
            k = k_of[phase]
            prof = oracle_profile(m, kmax=k + 1, restarts=restarts[phase],
                                  seed=seed)
            es = prof.energies
            assert all(b <= a + 1e-12 for a, b in zip(es, es[1:]))
            assert prof.saturation == k, (p, s, lam, es)
            assert abs(es[k] - c.energy) <= 1e-5, (p, s, lam)
        else:
            prof = oracle_profile(m, kmax=4, restarts=6, seed=seed)
            es = prof.energies
            assert all(b <= a + 1e-12 for a, b in zip(es, es[1:]))
            # any finite level keeps improving at the two-step horizon
            assert es[1] < es[0] - 1e-6, (p, s, lam, es)
            assert es[2] < es[1] - 1e-6, (p, s, lam, es)
            assert c.energy <= es[4] + 1e-5, (p, s, lam, es)
    assert time.monotonic() - t0 < 300.0


def test_criterion_8_energy_continuity_across_boundaries():
    """(4, 38): the ground-state energy does not jump at any transition."""
    g = boundaries(4, 38).general
    for key in ("lambda_1to2", "lambda_2to2F", "lambda_2to1F", "lambda_2to1"):
        lam = g[key]
        lo = classify(4, 38, lam - 1e-4)
        hi = classify(4, 38, lam + 1e-4)
        assert lo.phase != "Unresolved" and hi.phase != "Unresolved", key
        assert abs(hi.energy - lo.energy) <= 1e-3, key


def test_criterion_9_structural_facts():
    """Identities, sign relations, root multiplicities, and orderings."""
    # dual-route identities on a dense grid, four mixtures
    xs = np.linspace(0.02, 0.995, 57)
    for p, s, lam in tc.GRID_MIXTURES:
        m = make_mixture(p, s, lam)
        assert max(tc.max_identity_errors(m, xs)) <= 1e-10

    # slope sign relations, each exercised at several points
    for p, s, lam in [(4, 38, 0.8), (4, 28, 0.9), (3, 30, 0.9)]:
        m = make_mixture(p, s, lam)
        counts = tc.slope_sign_relations(m, np.linspace(0.05, 0.95, 37))
        assert min(counts) > 5

    # double and triple roots at the right endpoint, by slope-halving ratio
    from parisi_zero import eval_aux

    m = make_mixture(4, 38, 0.7)

    def t_at(x):
        return eval_aux(m, x)[0]

    def m_at(x):
        return eval_aux(m, x)[1]

    for f, order in ((t_at, 2), (m_at, 3)):
        assert abs(f(1.0)) <= 1e-9 * xi_deriv(m, 1.0, 3)
        s1 = tc._central_slope(f, 1.0, 1e-4)
        s2 = tc._central_slope(f, 1.0, 2e-4)
        assert s2 / s1 == pytest.approx(4.0, rel=0.05)
    curv1 = (m_at(1 + 1e-4) - 2 * m_at(1.0) + m_at(1 - 1e-4)) / 1e-8
    curv2 = (m_at(1 + 2e-4) - 2 * m_at(1.0) + m_at(1 - 2e-4)) / 4e-8
    assert curv2 / curv1 == pytest.approx(4.0, rel=0.05)

    # root orderings for randomized families with two interior constants
    rng = np.random.default_rng(2026)
    found = 0
    while found < 20:
        p = int(rng.integers(3, 12))
        s = int(rng.integers(p + 1, 61))
        q = lambda_stars(p, s)
        if q.shortcut <= 0:
            continue
        lo, hi = q.roots
        assert 0 < lo < hi <= 1 + 1e-9, (p, s)
        assert lo < min(s_roots(p, s).roots), (p, s)
        found += 1
