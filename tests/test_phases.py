"""Regimes, boundary constants, and the classifier's phase map."""
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from parisi_zero import phases
from parisi_zero import (
    boundaries,
    classify,
    eval_h1,
    eval_h2,
    lambda_stars,
    make_mixture,
    psi,
    regime,
    s_roots,
    solve_z,
    zeta,
)


def test_regime_tags():
    assert regime(4, 18).tag == "AllOneRSB"
    assert regime(4, 28).tag == "TwoPhase"
    assert regime(4, 38).tag == "FourPhase"
    assert regime(2, 4).tag == "P2Family"
    assert regime(2, 3).tag == "P2Family"
    assert regime(3, 3).tag == "Pure"
    assert regime(7, 7).tag == "Pure"


def test_regime_diagnostics_frozen():
    d18 = regime(4, 18).diagnostics
    assert d18["discriminant_compact"] == 33.0
    assert d18["lambda_star"][0] == pytest.approx(0.9264221464466653, abs=1e-12)
    assert d18["lambda_star"][1] == pytest.approx(0.9864698396160525, abs=1e-12)
    assert d18["psi_at_lambda_star1"] == pytest.approx(-0.08824460943173151,
                                                       abs=1e-12)
    d28 = regime(4, 28).diagnostics
    assert d28["discriminant_compact"] == 313.0
    assert d28["lambda_2to1F_candidate"] == pytest.approx(0.9789521474316268,
                                                          abs=1e-10)
    assert d28["psi_at_lambda_2to1F"] == pytest.approx(-0.022626940409443463,
                                                       abs=1e-10)


def test_boundaries_frozen_four_phase():
    g = boundaries(4, 38).general
    assert g["lambda_1to2"] == pytest.approx(0.6093645164854334, abs=1e-9)
    assert g["lambda_2to2F"] == pytest.approx(0.9816846324246461, abs=1e-9)
    assert g["lambda_2to1F"] == pytest.approx(0.9871482060395593, abs=1e-9)
    assert g["lambda_2to1"] == pytest.approx(0.9899796410415966, abs=1e-9)


def test_boundaries_p2_frozen():
    b24 = boundaries(2, 4).p2
    assert b24["lambda_1to1F"] == pytest.approx(0.5607071822166656, abs=1e-9)
    assert b24["lambda_1Fto1"] == pytest.approx(12 / 13, abs=1e-15)
    b28 = boundaries(2, 8).p2
    assert b28["lambda_1to1F"] == pytest.approx(0.26917181268945384, abs=1e-9)
    assert b28["lambda_1Fto1"] == pytest.approx(0.9572649572649573, abs=1e-9)


def test_boundary_defining_equations_hold():
    # each stored constant is re-derived from its defining system here,
    # not read back from the solver's own residual fields
    b = boundaries(4, 38)
    g, d = b.general, b.diagnostics

    m12 = make_mixture(4, 38, g["lambda_1to2"])
    h11, h21 = eval_h1(m12, d["x_star_1to2"])
    assert abs(h11) + abs(h21) <= 1e-7

    m2f = make_mixture(4, 38, g["lambda_2to2F"])
    h12, h22 = eval_h2(m2f, d["x_star_2to2F"])
    assert abs(h12) + abs(h22) <= 1e-7

    assert g["lambda_2to1F"] == pytest.approx(min(s_roots(4, 38).roots),
                                              abs=1e-12)

    lo, hi = lambda_stars(4, 38).roots
    lam21 = brentq(lambda lam: psi(4, 38, lam), lo, hi, xtol=1e-14)
    assert g["lambda_2to1"] == pytest.approx(lam21, abs=1e-10)
    assert abs(psi(4, 38, g["lambda_2to1"])) <= 1e-10
    assert lo < g["lambda_2to1"] < hi


def test_boundary_orderings():
    g = boundaries(4, 38).general
    assert 0 < g["lambda_1to2"] < g["lambda_2to2F"] < g["lambda_2to1F"] \
        < g["lambda_2to1"] < 1
    g28 = boundaries(4, 28).general
    assert set(g28) == {"lambda_1to2", "lambda_2to1"}
    assert 0 < g28["lambda_1to2"] < g28["lambda_2to1"] < 1
    for s in (4, 8):
        p2 = boundaries(2, s).p2
        assert 0 < p2["lambda_1to1F"] < p2["lambda_1Fto1"] < 1


def test_p2_monotone_entry():
    for s in (4, 8):
        lo = boundaries(2, s).p2["lambda_1to1F"]
        for lam in np.linspace(lo + 1e-3, 0.999, 25):
            z = solve_z(make_mixture(2, s, lam))
            assert 2 * lam * z - s * (1 - lam) > 0


def _expected_phase(family, lam):
    kind, cuts = family
    if lam == 1.0:
        return "RS" if kind == "p2" else "OneRSB"
    if lam == 0.0:
        return "OneRSB"
    if kind == "all1":
        return "OneRSB"
    names = {"two": ["OneRSB", "TwoRSB", "OneRSB"],
             "four": ["OneRSB", "TwoRSB", "TwoFRSB", "OneFRSB", "OneRSB"],
             "p2": ["OneRSB", "OneFRSB", "FRSB"]}[kind]
    return names[sum(lam > c for c in cuts)]


def test_phase_map_matches_interval_prediction():
    families = {
        (4, 18): ("all1", ()),
        (4, 28): ("two", tuple(boundaries(4, 28).general[k]
                               for k in ("lambda_1to2", "lambda_2to1"))),
        (4, 38): ("four", tuple(boundaries(4, 38).general[k]
                                for k in ("lambda_1to2", "lambda_2to2F",
                                          "lambda_2to1F", "lambda_2to1"))),
        (2, 4): ("p2", tuple(boundaries(2, 4).p2.values())),
        (2, 8): ("p2", tuple(boundaries(2, 8).p2.values())),
    }
    grid = np.linspace(0.0, 1.0, 200)
    for (p, s), family in families.items():
        cuts = family[1]
        for lam in grid:
            if any(abs(lam - c) < 1e-6 for c in cuts):
                continue
            got = classify(p, s, float(lam)).phase
            assert got == _expected_phase(family, float(lam)), (p, s, lam)


def test_exactly_on_a_boundary_is_flagged():
    lam12 = boundaries(4, 38).general["lambda_1to2"]
    c = classify(4, 38, lam12)
    assert c.on_boundary
    assert c.phase == "OneRSB"
    assert not classify(4, 38, 0.5).on_boundary


def test_low_s_family():
    b = boundaries(2, 3).p2
    assert b["lambda_1to1F"] is None
    assert b["lambda_1Fto1"] == 1.0
    c = classify(2, 3, 0.5)
    assert c.low_s_unproven
    assert c.phase == "OneRSB"
    assert not classify(2, 4, 0.5).low_s_unproven


def test_unresolved_when_tolerance_is_impossible():
    c = classify(4, 18, 0.5, tol=1e-30)
    assert c.phase == "Unresolved"
    assert "certification" in c.detail


def test_rejects_bad_exponents():
    with pytest.raises(ValueError):
        boundaries(4, 3)
    with pytest.raises(ValueError):
        classify(1, 4, 0.5)


def test_zeta_sign_matches_h11_at_critical_points():
    # wherever the one-step criterion function has a flat spot, its sign
    # agrees with the first boundary function's sign there
    for p, s, lam in [(4, 38, 0.8), (4, 28, 0.95)]:
        m = make_mixture(p, s, lam)
        xs = np.linspace(1e-3, 1 - 1e-3, 801)
        zv = np.array([zeta(m, x) for x in xs])
        d = np.diff(zv)
        checked = 0
        for i in range(1, len(d)):
            if d[i - 1] > 0 >= d[i] or d[i - 1] < 0 <= d[i]:
                if abs(zv[i]) < 1e-12:
                    continue
                h11, _ = eval_h1(m, xs[i])
                assert np.sign(zv[i]) == np.sign(h11), (p, s, lam, xs[i])
                checked += 1
        assert checked >= 1


def test_boundary_solve_failure_comes_back_unresolved(monkeypatch):
    def failing(p, s):
        raise RuntimeError(f"no two-step window found for ({p}, {s})")

    monkeypatch.setattr(phases, "boundaries", failing)
    c = classify(4, 38, 0.8)
    assert c.phase == "Unresolved"
    assert c.detail == "no two-step window found for (4, 38)"
    assert c.measure is None and c.energy is None
