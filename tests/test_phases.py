"""Regimes, boundary constants, and the classifier's phase map."""
import json
import math
import re
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from scipy.optimize import brentq

from parisi_zero import criteria, phases
from parisi_zero.cli import main
from parisi_zero import (
    Regime,
    boundaries,
    classify,
    eval_h1,
    eval_h2,
    interval_phase,
    lambda_stars,
    make_mixture,
    psi,
    regime,
    s_roots,
    solve_z,
    xi_deriv,
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


def test_regime_decides_each_discriminant_in_integers():
    # at (3, 19102) the onset quadratic's b^2 - 4ac cancels to <= 0 in
    # floats while the exact value, a positive integer times the compact
    # discriminant, is positive: the family has both onset roots and is
    # FourPhase. (4, 10000)'s float discriminant keeps its sign
    a, b, c = criteria._s_coeffs(3, 19102)
    sr = s_roots(3, 19102)
    assert b * b - 4 * a * c <= 0.0 < sr.shortcut
    assert sr.roots is not None and 0.0 < sr.roots[0] < sr.roots[1]
    assert regime(3, 19102).tag == "FourPhase"
    assert regime(4, 10000).tag == "FourPhase"


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


def _numbers(x):
    # every leaf of nested dicts, lists and tuples but None and strings
    if isinstance(x, dict):
        return [v for y in x.values() for v in _numbers(y)]
    if isinstance(x, (list, tuple)):
        return [v for y in x for v in _numbers(y)]
    return [] if x is None or isinstance(x, str) else [x]


@pytest.mark.parametrize("p, s", [(5, 5), (2, 8), (4, 18), (4, 28), (4, 38)])
def test_regime_and_boundaries_give_plain_numbers(p, s):
    # one family per regime: no numpy scalar leaks into either result
    b = boundaries(p, s)
    found = _numbers([regime(p, s).diagnostics, b.regime.diagnostics, b.p2,
                      b.general, b.diagnostics])
    assert found or p == s
    for v in found:
        assert type(v) in (float, int, bool), (p, s, type(v), v)


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


def _cold_solve_counted(monkeypatch, p, s):
    # a cold solve of (p, s), and the lambdas it scanned landmarks at (the
    # lambda_2to2F gap reads their second pair)
    calls = []
    real = criteria.landmarks

    def counted(m):
        calls.append(m.lam)
        return real(m)

    monkeypatch.setattr(criteria, "landmarks", counted)
    boundaries.cache_clear()
    return boundaries(p, s), calls


def test_cold_four_phase_solve_stays_within_its_landmark_budget(monkeypatch):
    # only lambda_2to2F's Brent root scans landmarks, once an evaluation
    b, calls = _cold_solve_counted(monkeypatch, 4, 38)
    d, g = b.diagnostics, b.general
    assert 0 < len(calls) <= 9
    assert len(set(calls)) == len(calls)
    assert d["evaluations_2to2F"] == len(calls)
    assert g["lambda_1to2"] == pytest.approx(0.6093645164854334, abs=1e-9)
    assert g["lambda_2to2F"] == pytest.approx(0.9816846324246461, abs=1e-9)
    assert g["lambda_2to1F"] == pytest.approx(0.9871482060395593, abs=1e-9)
    assert g["lambda_2to1"] == pytest.approx(0.9899796410415966, abs=1e-9)


def _array_calls(monkeypatch):
    # the (first, one) of each window function evaluated on an array (h11:
    # True, True; h21: True, False; h12: False, True; h22 by the grid: False,
    # False), and the size of each B built on an array
    windows, bs = [], []
    real_w, real_b = criteria._window, criteria._bfun

    def window(m, x, first, one, k=None, z2=None):
        if np.ndim(x):
            windows.append((first, one))
        return real_w(m, x, first, one, k, z2)

    def bfun(m, x):
        if np.ndim(x):
            bs.append(np.size(x))
        return real_b(m, x)

    monkeypatch.setattr(criteria, "_window", window)
    monkeypatch.setattr(criteria, "_bfun", bfun)
    return windows, bs


@pytest.mark.parametrize("p, s, lam, phase", [
    (4, 38, 0.984, "TwoFRSB"), (3, 20, 0.965, "TwoFRSB"),
    (4, 38, 0.9886, "OneFRSB"), (3, 20, 0.983, "OneFRSB"),
    (4, 38, 0.8, "TwoRSB")])
def test_full_phases_scan_only_the_second_pair(monkeypatch, p, s, lam,
                                               phase):
    # landmarks reads the second pair alone, so no phase scans a first-pair
    # window function on the grid, and a OneFRSB point, whose h22 is not
    # scanned, builds no B there
    boundaries(p, s)
    windows, bs = _array_calls(monkeypatch)
    assert classify(p, s, lam).phase == phase
    assert windows and not any(first for first, _ in windows)
    assert bs == ([] if phase == "OneFRSB" else [criteria._H_GRID])


def test_cold_four_phase_solve_scans_only_the_second_pair(monkeypatch):
    # the lambda_2to2F gap reads q12 and q22 alone
    windows, _ = _array_calls(monkeypatch)
    b, calls = _cold_solve_counted(monkeypatch, 4, 38)
    assert 0 < len(calls) <= 9 and len(windows) >= len(calls)
    assert not any(first for first, _ in windows)
    assert b.general["lambda_2to2F"] == pytest.approx(0.9816846324246461,
                                                      abs=1e-9)


def test_cold_two_phase_solve_stays_within_its_landmark_budget(monkeypatch):
    # lambda_1to2 is read off zeta's peak: no landmark scan at all
    b, calls = _cold_solve_counted(monkeypatch, 4, 28)
    assert calls == []
    assert 0 < b.diagnostics["evaluations_1to2"] <= 20
    assert "evaluations_2to2F" not in b.diagnostics
    assert b.general["lambda_1to2"] == pytest.approx(0.731102927909631,
                                                     abs=1e-10)


# a fixed spread of both system-solving regimes over p = 3..6
SOLVED_FAMILIES = [(3, 13), (4, 25), (5, 36), (5, 47), (5, 56), (6, 52),
                   (3, 16), (3, 27), (3, 60), (4, 33), (4, 45), (5, 58)]

# their constants, and those of (5, 57), as the predicate bisections
# solved them: lambda_1to2, then lambda_2to2F and lambda_2to1F for
# FourPhase, then lambda_2to1
_FROZEN = {
    (3, 13): (0.8158580365548982, 0.9425605514047121),
    (4, 25): (0.7991423362693008, 0.9606487504568147),
    (5, 36): (0.8527335331488113, 0.9540103527493794),
    (5, 47): (0.7106479005757206, 0.9833061571360786),
    (5, 56): (0.6500316132976798, 0.9898929711191877),
    (6, 52): (0.8271379328976035, 0.9668464767039343),
    (3, 16): (0.6624748427325124, 0.9574027114183605, 0.9699511023259704,
              0.9765935300710104),
    (3, 27): (0.4767305404982631, 0.9585531845532961, 0.9869029281046152,
              0.9947806679540203),
    (3, 60): (0.34604022785182476, 0.9846059604267764, 0.9969592389287045,
              0.9991854595528302),
    (4, 33): (0.658242520467833, 0.981619042647812, 0.9837560223153954,
              0.98506487716044),
    (4, 45): (0.5616717210132486, 0.9832560415504408, 0.9903992356689074,
              0.9935676291408019),
    (5, 58): (0.6395197826086702, 0.990004433189532, 0.9904906223494085,
              0.9908036044806934),
    (5, 57): (0.6446718330440043, 0.9899451921035441, 0.9901988532368984,
              0.9903649662692017),
}


def _constants(b):
    return tuple(b.general[k] for k in ("lambda_1to2", "lambda_2to2F",
                                        "lambda_2to1F", "lambda_2to1")
                 if k in b.general)


@pytest.mark.parametrize("family", SOLVED_FAMILIES)
def test_solved_constants_stay_on_their_roots(family):
    assert _constants(boundaries(*family)) == pytest.approx(
        _FROZEN[family], abs=1e-10)


@pytest.mark.parametrize("gaps", ["all", "none", "holes"])
def test_bracket_halvings_land_on_the_same_roots(monkeypatch, gaps):
    # (5, 57): lambda_2to2F sits 2.5e-4 below lambda_2to1F, the top of
    # its bracket, where q22 runs to 1 and the gap reads 1 - q12. With
    # q22 withheld (None, read as +1) everywhere, or at every third look,
    # Brent's method has no bracket or steps around the holes; the solve
    # must then fail or land on the same root, never hand back an
    # uncertified lambda
    real, real_root, looks, gap_fns = criteria.landmarks, phases._root, [], []

    def landmarks(m):
        looks.append(m.lam)
        lm = real(m)
        return lm if gaps == "all" or (
            gaps == "holes" and len(looks) % 3) else replace(lm, q22=None)

    def root(key, f, lo, hi, **kw):
        if key == "2to2F":
            gap_fns.append(f)
        return real_root(key, f, lo, hi, **kw)

    monkeypatch.setattr(criteria, "landmarks", landmarks)
    monkeypatch.setattr(phases, "_root", root)
    boundaries.cache_clear()
    try:
        b = boundaries(5, 57)
    except RuntimeError as exc:
        assert gaps != "all" and re.match("^lambda_2to2F ", str(exc)), exc
        return
    finally:
        boundaries.cache_clear()
    assert gaps != "none"
    assert _constants(b) == pytest.approx(_FROZEN[5, 57], abs=1e-11)
    if gaps == "all":
        top = b.general["lambda_2to1F"]
        lm_top = criteria.landmarks(make_mixture(5, 57, top))
        assert lm_top.q22 == 1.0 and 0.0 < 1.0 - lm_top.q12 < 1e-3
        assert gap_fns[0](top) == 1.0 - lm_top.q12


def test_boundaries_hold_their_defining_equations_across_families():
    for p, s in SOLVED_FAMILIES:
        b = boundaries(p, s)
        g, d = b.general, b.diagnostics
        four = b.regime.tag == "FourPhase"
        assert d["residual_1to2"] <= 1e-7, (p, s)
        h11, h21 = eval_h1(make_mixture(p, s, g["lambda_1to2"]),
                           d["x_star_1to2"])
        assert abs(h11) + abs(h21) <= 1e-7, (p, s)
        assert abs(psi(p, s, g["lambda_2to1"])) <= 1e-10, (p, s)
        if four:
            assert d["residual_2to2F"] <= 1e-7, (p, s)
            h12, h22 = eval_h2(make_mixture(p, s, g["lambda_2to2F"]),
                               d["x_star_2to2F"])
            assert abs(h12) + abs(h22) <= 1e-7, (p, s)
            assert g["lambda_2to1F"] == pytest.approx(min(s_roots(p, s).roots),
                                                      abs=1e-12)
            assert (0 < g["lambda_1to2"] < g["lambda_2to2F"]
                    < g["lambda_2to1F"] < g["lambda_2to1"] < 1), (p, s)
        else:
            assert set(g) == {"lambda_1to2", "lambda_2to1"}, (p, s)
            assert 0 < g["lambda_1to2"] < g["lambda_2to1"] < 1, (p, s)
    assert {boundaries(*f).regime.tag for f in SOLVED_FAMILIES} == {
        "TwoPhase", "FourPhase"}


def test_zeta_peak_crosses_its_floor_at_lambda_1to2():
    # the one-step test passes 1e-7 below lambda_1to2 and fails 1e-7 above
    for p, s in SOLVED_FAMILIES:
        lb = boundaries(p, s).general["lambda_1to2"]
        for d in (-1e-7, 1e-7):
            m = make_mixture(p, s, lb + d)
            zmax = phases._zeta_max(m, solve_z(m))
            assert (zmax > phases._ZETA_FLOOR) == (d > 0), (p, s, d, zmax)


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


def _tilt_40_digits(s, lam):
    # z > 0 with c(z) = 1 / xi'(1) at 40 digits, xi'(1) = 2 lam + (1 - lam) s
    y = 1 / (2 * lam + (1 - lam) * s)
    c = lambda z: (1 + z) * mpmath.log1p(z) / z ** 2 - 1 / z - y
    return mpmath.findroot(c, (mpmath.mpf("1e-6"), mpmath.mpf(10) ** 8),
                           solver="anderson")


def test_p2_entry_matches_a_40_digit_solve():
    # lambda_1to1F against its definition 2 lam z(lam) = s (1 - lam),
    # solved in lambda with the tilt z(lam) found anew at 40 digits
    with mpmath.workdps(40):
        for s in (4, 8, 30, 200):
            want = mpmath.findroot(
                lambda t: 2 * t * _tilt_40_digits(s, t) - s * (1 - t),
                (mpmath.mpf("0.01"), mpmath.mpf("0.99")), solver="anderson")
            got = boundaries(2, s).p2["lambda_1to1F"]
            assert abs(got - want) <= 1e-14, (s, got, want)
    assert boundaries(2, 3).p2["lambda_1to1F"] is None


# plateau points q_P at lambda_1Fto1 - d, the first root of h22 found by a
# 60-digit mpmath transcription of h22 = (1-x)^2 (D1 c(z2) - B)
_PLATEAU_REF = {
    (4, 1e-3): 0.988379994281544,
    (8, 1e-4): 0.999321857493345,
    (30, 1e-5): 0.999855127929423,
    (60, 1e-5): 0.999732907517575,
    (60, 1e-6): 0.999973184828707,
    (4, 1e-4): 0.998827561312822,
    (4, 1e-5): 0.999882650624628,
    (8, 1e-5): 0.999932106980943,
    (8, 1e-6): 0.999993209909108,
    (30, 1e-6): 0.999985497488643,
}


@pytest.mark.parametrize("s, d", sorted(_PLATEAU_REF))
def test_p2_plateau_point_pressed_against_one(s, d):
    # as d shrinks the plateau point of h22 moves past the sign scan's
    # firmness floor (from d = 1e-4 here), so the edge scan has to find it
    # on h22 / (1 - x)^4; every row certifies, with q_P at the reference
    # (1e-11: (4, 1e-3) is polished on h22 itself, 9.6e-12 off)
    lam = boundaries(2, s).p2["lambda_1Fto1"] - d
    c = classify(2, s, lam)
    assert c.phase == "OneFRSB", c.detail
    assert c.report.passed and not c.on_boundary
    assert c.params["variant"] == "density-below"
    assert c.params["q_P"] == pytest.approx(_PLATEAU_REF[s, d], abs=1e-11)


def test_p2_plateau_point_near_zero_just_past_entry():
    # just above lambda_1to1F the plateau point sits within 1e-6 of 0, so
    # the bracket that certifies it must stay inside (0, 1)
    for d in (1e-8, 1e-7):
        c = classify(2, 8, boundaries(2, 8).p2["lambda_1to1F"] + d)
        assert c.phase == "OneFRSB", c.detail
        assert 0.0 < c.params["q_P"] < 1e-6


def test_plateau_point_rejects_an_edge_root_in_rounding_noise():
    # h22 < 0 on all of (0, 1) here (-3.7e-25 at 1 - 1e-4 by the 60-digit
    # transcription) but reads +2e-24 there in floats, so a scan of h22
    # near 1 brackets rounding noise; h22 / (1 - x)^4 keeps its sign on the
    # whole edge scan, so landmarks finds no root and does not fall back
    # to q22 = 1, a full density running to 1
    m = make_mixture(2, 3, 1 - 1e-4)
    assert eval_h2(m, 1 - 1e-4)[1] > 0.0
    xs = np.append(1.0 - criteria._EDGE_U, 1.0)
    assert (criteria._f22(m, xs) < 0.0).all()
    lm = criteria.landmarks(m)
    assert (lm.q12, lm.q22) == (0.0, None)


def test_landmarks_find_the_h22_root_pressed_against_one():
    # 1e-7 below lambda_2to1F in (4, 38) h22's root sits 3.9e-7 below 1,
    # where h22 itself is at its rounding floor; the edge scan finds it on
    # h22 / (1 - x)^4 at the 60-digit root, and classify certifies TwoFRSB
    lam = boundaries(4, 38).general["lambda_2to1F"] - 1e-7
    lm = criteria.landmarks(make_mixture(4, 38, lam))
    assert abs(lm.q22 - 0.99999961361332998) <= 4e-15
    c = classify(4, 38, lam)
    assert c.phase == "TwoFRSB", c.detail
    assert c.params["q2"] == lm.q22


def _old_one_frsb_rescan(m, lm):
    # the OneFRSB test as it was before landmarks' grid gave q22: no h22
    # root on a 513-point rescan of (q12 + 1e-6, 1 - 1e-6), which is empty
    # where q12 is within 2e-6 of 1 (as 1e-7 below lambda_2to1)
    return lm.q12 + 1e-6 >= 1 - 1e-6 or not criteria._sign_roots(
        lambda x: criteria._h22(m, x), lm.q12 + 1e-6, 1 - 1e-6, n=513)


@pytest.mark.parametrize("family", [(4, 38), (3, 20), (5, 57)])
def test_one_frsb_decision_matches_the_old_rescan(family):
    # across the TwoFRSB and OneFRSB bands and 1e-7..1e-3 about their upper
    # ends, wherever the chain reaches the full-type tests, the decision
    # taken from landmarks' q22 equals the one the rescan took
    g = boundaries(*family).general
    lams = list(np.linspace(g["lambda_2to2F"], g["lambda_2to1"], 21)[1:-1])
    for lb in (g["lambda_2to1F"], g["lambda_2to1"]):
        lams += [lb + sg * d for d in (1e-7, 1e-6, 1e-5, 1e-4, 1e-3)
                 for sg in (-1, 1)]
    decided = set()
    for lam in lams:
        m = make_mixture(*family, lam)
        z = solve_z(m)
        if phases._one_step(m, z):
            continue
        lm = criteria.landmarks(m)
        if None not in (lm.q12, lm.q22) and lm.q22 < lm.q12:
            continue
        if lm.q12 is None or not criteria.eval_aux(m, lm.q12)[0] < 0:
            continue
        two = (lm.q22 is not None and lm.q12 < lm.q22 < 1.0
               and criteria.eval_aux(m, lm.q22)[0] < 0)
        old = not two and _old_one_frsb_rescan(m, lm)
        new = lm.q22 is not None and not lm.q12 < lm.q22 < 1.0
        assert new == old, (family, lam, lm)
        # the mixed measure itself may still fail its cone check where q22
        # collapses onto 1 just below lambda_2to1F
        cl = classify(*family, lam)
        assert cl.phase == ("OneFRSB" if new else "TwoFRSB" if two
                            else "Unresolved") or (
            new and "full density is not increasing" in (cl.detail or "")), cl
        decided.add(new)
    assert decided == {True, False}


_SHAPES = {"FRSB": {("full",)},
           "OneFRSB": {("full", "const"), ("const", "full")},
           "TwoFRSB": {("const", "full", "const")}}


def test_full_phase_names_match_their_measures_shape():
    # the full branch names the phase from the measure it builds: a
    # constant density below q1 > 0 and a plateau above q2 < 1
    seen = set()
    for p, s in [(2, 4), (2, 9), (2, 30), (3, 20), (3, 45), (4, 38), (4, 60),
                 (5, 57)]:
        ends = [0.0, *phases.boundary_lambdas(boundaries(p, s)), 1.0]
        for lo, hi in zip(ends, ends[1:]):
            for lam in np.linspace(lo, hi, 5)[1:-1]:
                c = classify(p, s, float(lam))
                if c.phase not in _SHAPES:
                    continue
                kinds = tuple(seg.kind for seg in c.measure.segments)
                assert kinds in _SHAPES[c.phase], (p, s, lam, c.phase, kinds)
                if c.phase == "OneFRSB":
                    assert (kinds[0] == "full") == (
                        c.params["variant"] == "density-below"), (p, s, lam)
                seen.add((c.phase, kinds))
    assert len(seen) == 4, seen


def test_landmarks_read_full_window_roots_only_where_t_is_negative():
    # classify builds the full phases from q12 and q22 without testing t
    # there: landmarks reads both only inside its tau window, where t < 0
    read = set()
    for family in [*SOLVED_FAMILIES, (4, 38), (3, 20), (5, 57)]:
        cuts = [0.0, *phases.boundary_lambdas(boundaries(*family)), 1.0]
        for lo, hi in zip(cuts, cuts[1:]):
            for lam in np.linspace(lo, hi, 9)[1:-1]:
                m = make_mixture(*family, float(lam))
                lm = criteria.landmarks(m)
                for name in ("q12", "q22"):
                    q = getattr(lm, name)
                    if q is not None and q < 1.0:
                        read.add(name)
                        assert criteria.eval_aux(m, q)[0] < 0, (
                            family, lam, name, q)
    assert read == {"q12", "q22"}


def test_pure_models_pass_the_one_step_test():
    # pure models take the mixtures' chain, which must stop at one step
    for p in range(3, 61):
        m = make_mixture(p, p, 1.0)
        z = solve_z(m)
        assert phases._one_step(m, z), p
    for p in (3, 7, 60):
        cl = classify(p, p, 1.0)
        assert (cl.phase, cl.detail, cl.on_boundary) == ("OneRSB", None, False)
    # no boundary for a pure model, the mixtures' ends included, nor for an
    # AllOneRSB mixture
    for point in ((3, 3, 1.0), (4, 38, 0.0), (4, 38, 1.0), (2, 8, 1.0),
                  (4, 18, 0.5)):
        cl = classify(*point)
        assert (cl.boundary, cl.boundary_distance) == (None, None), point
    # the low-s flag is the (2, 3) mixtures', not its pure ends'
    assert [classify(2, 3, lam).low_s_unproven for lam in (0.0, 0.5, 1.0)] == [
        False, True, False]


@pytest.mark.parametrize("p, s, lam, phase, k_scan", [
    (4, 38, 0.8, "TwoRSB", True), (4, 38, 0.95, "TwoRSB", False),
    (4, 38, 0.985, "TwoFRSB", False), (4, 38, 0.988, "OneFRSB", False),
    (2, 8, 0.9, "OneFRSB", False)], ids=[
    "0.8-TwoRSB", "0.95-TwoRSB", "0.985-TwoFRSB", "0.988-OneFRSB",
    "p2-0.9-OneFRSB"])
def test_one_h22_grid_per_classification(monkeypatch, p, s, lam, phase,
                                         k_scan):
    # h22 is read off landmarks' shared grid: landmarks scans only tau on a
    # grid of its own (p = 2 only h22, on that grid), and classify adds only
    # the K scan of the one-step test, which an end condition that refuses
    # skips (K(1) < 0 at each (4, 38) point but 0.8, x = 0 at (2, 8))
    boundaries(p, s)  # solved before counting
    calls = []
    real = criteria._sign_roots

    def counted(f, lo, hi, n=None, **kw):
        calls.append((lo, hi, n))
        return real(f, lo, hi, n, **kw)

    monkeypatch.setattr(criteria, "_sign_roots", counted)
    criteria.landmarks(make_mixture(p, s, lam))
    assert calls == [(1e-9, 1 - 1e-9, None)]
    calls.clear()
    assert classify(p, s, lam).phase == phase
    assert calls == [(0.0, 1.0, 1025)] * k_scan + [(1e-9, 1 - 1e-9, None)]


def test_two_step_detail_names_the_sign_change_it_missed():
    # 1e-8 below lambda_2to1 of (4, 28) the two-step bracket [q22, q12]
    # ends at 1 - 1.7e-8, where the stationarity function is at rounding
    # level and reads one sign across the bracket; the detail says so
    # rather than passing on the root finder's generic bracket message
    lam = boundaries(4, 28).general["lambda_2to1"] - 1e-8
    c = classify(4, 28, lam)
    assert c.phase == "Unresolved" and not c.on_boundary
    assert c.detail.startswith(
        "two-step stationarity function has no sign change on ["), c.detail


@pytest.mark.parametrize("family, rate", [((4, 28), 1.6939), ((3, 14), 2.4153),
                                          ((5, 40), 1.0255)])
def test_two_step_collapse_is_linear_below_lambda_2to1(family, rate):
    # d below lambda_2to1 the two-step q and q12 run into 1 and z2 into 0
    # linearly in d, while q22 stays off 1: (1 - q)/d, (1 - q12)/d and z2/d
    # agree across three decades, and each point certifies TwoRSB
    lb = boundaries(*family).general["lambda_2to1"]
    rates = []
    for d in (1e-5, 1e-6, 1e-7):
        c = classify(*family, lb - d)
        assert c.phase == "TwoRSB", (family, d, c.detail)
        lm = criteria.landmarks(make_mixture(*family, lb - d))
        assert 1.0 - lm.q22 > 1e-2, (family, d, lm)
        rates.append(np.array([1.0 - c.params["q"], 1.0 - lm.q12,
                               c.params["z2"]]) / d)
    for r in rates[1:]:
        assert np.allclose(r, rates[0], rtol=1e-3, atol=0.0), (family, rates)
    assert rates[-1][0] == pytest.approx(rate, rel=1e-3)


def test_phase_map_matches_interval_prediction():
    grid = np.linspace(0.0, 1.0, 200)
    for p, s in [(4, 18), (4, 28), (4, 38), (2, 4), (2, 8)]:
        cuts = phases.boundary_lambdas(boundaries(p, s))
        for lam in grid:
            if any(abs(lam - c) < 1e-6 for c in cuts):
                continue
            got = classify(p, s, float(lam)).phase
            assert got == interval_phase(p, s, float(lam)), (p, s, lam)


def test_interval_phase_rules():
    # a lambda on a boundary takes the lower side's phase, and neighbouring
    # intervals differ; the phases themselves are held against classify
    for p, s in [(4, 28), (4, 38), (2, 8)]:
        for c in phases.boundary_lambdas(boundaries(p, s)):
            assert interval_phase(p, s, c) == interval_phase(p, s, c - 1e-6)
            assert interval_phase(p, s, c) != interval_phase(p, s, c + 1e-6)
    # pure models: RS at exponent 2, else OneRSB
    assert interval_phase(2, 8, 1.0) == interval_phase(2, 2, 0.5) == "RS"
    assert interval_phase(4, 38, 1.0) == interval_phase(4, 38, 0.0) == "OneRSB"
    assert interval_phase(2, 8, 0.0) == interval_phase(3, 3, 0.5) == "OneRSB"
    # (2, 3) has no constant inside (0, 1): OneRSB throughout, as classify
    # reads it
    assert {interval_phase(2, 3, lam) for lam in (0.1, 0.5, 0.999)} == {
        "OneRSB"}
    with pytest.raises(ValueError):
        interval_phase(4, 38, 1.5)


def test_boundaries_refuse_constants_out_of_scenario_order():
    four = {"lambda_1to2": 0.6, "lambda_2to2F": 0.98, "lambda_2to1F": 0.987,
            "lambda_2to1": 0.99}
    phases._ordered(phases.PhaseBoundaries(Regime("FourPhase"), general=four))
    for bad in ({"lambda_2to1F": 0.97}, {"lambda_1to2": 0.0},
                {"lambda_2to1": 1.5}):
        with pytest.raises(RuntimeError, match="FourPhase boundary ordering"):
            phases._ordered(phases.PhaseBoundaries(
                Regime("FourPhase"), general={**four, **bad}))
    with pytest.raises(RuntimeError, match="P2Family boundary ordering"):
        phases._ordered(phases.PhaseBoundaries(
            Regime("P2Family"), p2={"lambda_1to1F": 0.95,
                                    "lambda_1Fto1": 0.9}))
    # a missing p = 2 constant is skipped, and lambda_1Fto1 may sit at 1
    phases._ordered(phases.PhaseBoundaries(
        Regime("P2Family"), p2={"lambda_1to1F": None, "lambda_1Fto1": 1.0}))


def test_certified_phase_matches_the_interval_away_from_boundaries():
    # seeded draws over the families with p <= 8 and s <= 60, lambda at
    # least 1e-3 from every boundary: each comes back certified, with the
    # phase its scenario puts there
    rng = np.random.default_rng(2022)
    families = [(p, s) for p in range(2, 9) for s in range(p + 1, 61)]
    for _ in range(100):
        p, s = families[rng.integers(len(families))]
        cuts = phases.boundary_lambdas(boundaries(p, s))
        lam = float(rng.uniform(0.0, 1.0))
        while any(abs(lam - c) < 1e-3 for c in cuts):
            lam = float(rng.uniform(0.0, 1.0))
        cl = classify(p, s, lam)
        assert cl.report is not None and cl.report.passed, (p, s, lam, cl)
        assert cl.phase == interval_phase(p, s, lam), (p, s, lam)


def test_exactly_on_a_boundary_is_flagged(capsys):
    lam12 = boundaries(4, 38).general["lambda_1to2"]
    c = classify(4, 38, lam12)
    assert c.on_boundary
    assert c.phase == "OneRSB"
    assert (c.boundary, c.boundary_distance) == ("lambda_1to2", 0.0)
    assert not classify(4, 38, 0.5).on_boundary
    # a distance of 0.0 is still near its boundary
    assert main(["classify", "--p", "4", "--s", "38", "--lambda", repr(lam12),
                 "--format", "csv"]) == 0
    row = capsys.readouterr().out.splitlines()[2].split(",")
    assert row[5] == "near_boundary;on_boundary"


def test_low_s_family():
    b = boundaries(2, 3).p2
    assert b["lambda_1to1F"] is None
    assert b["lambda_1Fto1"] == 1.0
    c = classify(2, 3, 0.5)
    assert c.low_s_unproven
    assert (c.boundary, c.boundary_distance) == (None, None)
    assert c.phase == "OneRSB"
    assert not classify(2, 4, 0.5).low_s_unproven


def test_unresolved_when_tolerance_is_impossible():
    c = classify(4, 18, 0.5, tol=1e-30)
    assert c.phase == "Unresolved"
    assert "certification" in c.detail


def _placed(key, d, fam=(4, 38)):
    # (p, s, lambda) at lambda_<key> + d
    return (*fam, boundaries(*fam).general[key] + d)


@pytest.mark.parametrize("point, tol, phase, key, shifted, low_s", [
    ((4, 38, 0.95), 1e-7, "TwoRSB", "lambda_2to2F", False, False),
    ((2, 3, 0.5), 1e-7, "OneRSB", None, False, True),
    (("lambda_2to2F", 5e-10), 1e-7, "TwoRSB", "lambda_2to2F", True, False),
    (("lambda_2to1", -1e-8, (4, 28)), 1e-7, "Unresolved", "lambda_2to1",
     False, False),
    ((4, 38, 0.95), 1e-30, "Unresolved", "lambda_2to2F", False, False),
], ids=["certified", "certified-low-s", "ownership-shift",
        "unresolved-chain", "unresolved-certificate"])
def test_the_record_carries_its_placement(point, tol, phase, key, shifted,
                                          low_s):
    # every kind of record names its nearest boundary and the exact signed
    # distance to it, its ownership shift and the low-s flag
    p, s, lam = _placed(*point) if isinstance(point[0], str) else point
    c = classify(p, s, lam, tol=tol)
    assert c.phase == phase, c
    assert (c.phase == "Unresolved") == (c.detail is not None), c
    dist = (None if key is None else
            lam - phases._interior(boundaries(p, s))[key])
    assert (c.boundary, c.boundary_distance) == (key, dist)
    assert (c.on_boundary, c.low_s_unproven) == (shifted, low_s)


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


def _k(m, z, x):
    # zeta's stationarity factor xi'(1) + z xi'(x) - D1(x)
    return xi_deriv(m, 1.0, 1) + z * xi_deriv(m, x, 1) - criteria._d1(m, x)


def test_zeta_slope_factors_through_k():
    # zeta' = xi''(x) (1 - x) K(x) / (xi'(1) + z xi'(x)), against central
    # differences of zeta itself
    h = 1e-5
    xs = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99)
    for p, s, lam in [(4, 38, 0.8), (3, 20, 0.9), (4, 28, 0.95),
                      (5, 40, 0.9), (4, 38, 0.5)]:
        m = make_mixture(p, s, lam)
        z, a = solve_z(m), xi_deriv(m, 1.0, 1)
        for x in xs:
            fd = (criteria._zeta_at(m, x + h, z, a)
                  - criteria._zeta_at(m, x - h, z, a)) / (2 * h)
            want = (xi_deriv(m, x, 2) * (1 - x) * _k(m, z, x)
                    / (a + z * xi_deriv(m, x, 1)))
            assert fd == pytest.approx(want, rel=1e-6), (p, s, lam, x)


def test_zeta_max_matches_a_dense_grid():
    # the root search on K never reads below zeta's maximum on a
    # 2^16 + 1-point grid, and decides the one-step test the same way
    held = [(4, 38, 0.5, "OneRSB"), (4, 38, 0.8, "TwoRSB"),
            (3, 20, 0.5, "OneRSB"), (3, 20, 0.9, "TwoRSB"),
            (4, 28, 0.6, "OneRSB"), (4, 28, 0.9, "TwoRSB"),
            (3, 3, 1.0, "OneRSB")]
    for p, s, lam, phase in held:
        assert classify(p, s, lam).phase == phase
    below = [(p, s, boundaries(p, s).general["lambda_2to1"] - d, d)
             for p, s in [(4, 38), (3, 20)] for d in (1e-5, 1e-4, 1e-3)]
    xs = np.linspace(0.0, 1.0, 2 ** 16 + 1)
    for p, s, lam, _ in held + below:
        m = make_mixture(p, s, lam)
        z = solve_z(m)
        dense = float(criteria._zeta_at(m, xs, z, xi_deriv(m, 1.0, 1)).max())
        zmax = phases._zeta_max(m, z)
        assert zmax >= dense - 1e-14, (p, s, lam)
        assert (zmax <= phases._ZETA_FLOOR) == (dense <= phases._ZETA_FLOOR)
    # closest to lambda_2to1, K's top root, zeta's maximum, lies within the
    # last one or two cells of the 1025-point grid
    for p, s, lam, d in below:
        if d < 1e-3:
            m = make_mixture(p, s, lam)
            z = solve_z(m)
            top = criteria._sign_roots(lambda x: _k(m, z, x), 0.0, 1.0,
                                       n=1025)[-1]
            assert 1.0 - 2.0 / 1024 < top < 1.0, (p, s, lam)


def test_one_step_test_reads_the_x0_end_as_the_p2_tilt_test():
    # xi''(0) = 2 lam > 0 for p = 2, where zeta ~ lam x^2 ((1 + z) 2 lam /
    # xi'(1) - 1) near 0: the one-step test is the tilt test 2 lam z <
    # s (1 - lam), across each family and 1e-8..1e-3 about lambda_1to1F
    for s in (3, 4, 5, 6, 8, 10, 14, 20, 30, 45, 60, 200):
        lams = list(np.linspace(0.02, 0.98, 25))
        lb = boundaries(2, s).p2["lambda_1to1F"]
        if lb is not None:
            lams += [lb + sg * 10.0 ** -k for k in range(3, 9)
                     for sg in (-1, 1)]
        for lam in lams:
            m = make_mixture(2, s, float(lam))
            z = solve_z(m)
            assert phases._one_step(m, z) == (
                2 * m.lam * z < s * (1 - m.lam)), (s, lam)
    # 1e-5 past lambda_1to1F zeta's peak is O(d^3), under the floor, so
    # only the x = 0 end refuses the one-step measure there
    m = make_mixture(2, 8, boundaries(2, 8).p2["lambda_1to1F"] + 1e-5)
    z = solve_z(m)
    assert phases._zeta_max(m, z) <= phases._ZETA_FLOOR
    assert not phases._one_step(m, z)


def test_one_step_test_refuses_a_negative_k_at_one():
    # just below lambda_2to1, zeta's maximum is cubic in d and falls under
    # the floor, but K(1) = (1 + z) xi'(1) - xi''(1) < 0 puts zeta above
    # 0 just below x = 1: the point keeps its interval phase, not OneRSB
    for p, s, phase in ((4, 38, "OneFRSB"), (3, 14, "TwoRSB"),
                        (5, 57, "OneFRSB")):
        lam = boundaries(p, s).general["lambda_2to1"] - 1e-6
        m = make_mixture(p, s, lam)
        z = solve_z(m)
        assert phases._zeta_max(m, z) <= phases._ZETA_FLOOR
        assert (1 + z) * xi_deriv(m, 1.0, 1) < xi_deriv(m, 1.0, 2)
        assert not phases._one_step(m, z)
        assert classify(p, s, lam).phase == phase, (p, s)


def test_no_construction_detail_names_k_at_one():
    # at lambda_2to1 +- 1e-9 of (4, 38) both points are shifted to the
    # lower side, where zeta's maximum passes (it is rounding noise, at most
    # _ZETA_FLOOR) but K(1) < 0 refuses the one-step measure; the detail
    # names that K(1), not only zeta's maximum
    lb = boundaries(4, 38).general["lambda_2to1"]
    for lam in (lb - 1e-9, lb + 1e-9):
        c = classify(4, 38, lam)
        assert c.phase == "Unresolved" and c.on_boundary, c
        assert re.match(r"no construction applies \(one-step certificate "
                        r"\S+, K\(1\) -", c.detail), c.detail
        zmax = float(c.detail.split("certificate ")[1].split(",")[0])
        assert 0.0 <= zmax <= phases._ZETA_FLOOR, c.detail
        k1 = float(c.detail.split("K(1) ")[1].split(",")[0])
        assert -1e-6 < k1 < -1e-12 * xi_deriv(make_mixture(4, 38, lb), 1.0, 2)


def _zeta_max_all_roots(m, z):
    # the one-step test before it refined only K's falling roots: zeta at
    # every root of K
    a = xi_deriv(m, 1.0, 1)
    roots = criteria._sign_roots(lambda x: _k(m, z, x), 0.0, 1.0, n=1025)
    return max([0.0] + [float(criteria._zeta_at(m, r, z, a)) for r in roots])


def test_zeta_max_equals_the_all_roots_reference():
    # on the four lambda-sweep families, across lambda and next to every
    # interior boundary; zeta's minima (K's rising roots) never set zmax
    rising = positive = 0
    for p, s in [(4, 38), (3, 20), (4, 28), (2, 8)]:
        lams = list(np.linspace(0.005, 0.995, 100))
        lams += [lb + d for lb in phases.boundary_lambdas(boundaries(p, s))
                 for d in (-1e-4, -1e-7, 1e-7, 1e-4)]
        for lam in lams:
            m = make_mixture(p, s, lam)
            z = solve_z(m)
            if z == 0.0:
                continue
            want = _zeta_max_all_roots(m, z)
            assert phases._zeta_max(m, z) == want, (p, s, lam)
            ks = criteria._sign_roots(lambda x: _k(m, z, x), 0.0, 1.0, n=1025)
            rising += len(ks) > len(criteria._sign_roots(
                lambda x: _k(m, z, x), 0.0, 1.0, n=1025, falling=True))
            positive += want > phases._ZETA_FLOOR
    assert rising >= 50 and positive >= 50


@pytest.mark.parametrize("layer, exc", [
    ("boundaries", RuntimeError("lambda_2to2F residual 1.39e-01 too large")),
    ("boundaries", ValueError("lambda_2to2F not bracketed")),
    ("_solve_two_step", RuntimeError("Failed to converge after 100 "
                                     "iterations, value is 0.5")),
], ids=["boundaries-RuntimeError", "boundaries-ValueError",
        "two_step-RuntimeError"])
def test_boundary_solve_failure_comes_back_unresolved(monkeypatch, capsys,
                                                      layer, exc):
    # a failure in any layer of a valid point is an Unresolved record with
    # the failure's message, and the CLI prints it and exits 2
    def failing(*args):
        raise exc

    # a failed boundary solve leaves no boundary to name; a later layer's
    # failure keeps the nearest one
    place = ((None, None) if layer == "boundaries" else
             ("lambda_2to2F", 0.8 - boundaries(4, 38).general["lambda_2to2F"]))
    monkeypatch.setattr(phases, layer, failing)
    c = classify(4, 38, 0.8)
    assert c.phase == "Unresolved"
    assert c.detail == str(exc)
    assert c.measure is None and c.energy is None
    assert (c.boundary, c.boundary_distance) == place
    assert main(["classify", "--p", "4", "--s", "38", "--lambda", "0.8"]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["phase"] == "Unresolved" and out["detail"] == str(exc)
    assert (out["boundary"], out["boundary_distance"]) == place
    with pytest.raises(ValueError):
        classify(4, 38, 1.5)


def test_unbracketed_boundary_comes_back_unresolved(monkeypatch, capsys,
                                                    tmp_path):
    # a zeta peak that never crosses 0 leaves lambda_1to2 without a
    # bracket: classify says so, `boundaries` exits 1 without a traceback,
    # `classify` prints the Unresolved record and exits 2, and `sweep`
    # writes every row, each Unresolved, and exits 0
    monkeypatch.setattr(phases, "_zeta_peak", lambda m, z: (1.0, 0.5))
    boundaries.cache_clear()
    detail = ("lambda_1to2 not bracketed: f(a) and f(b) must have "
              "different signs")
    try:
        c = classify(4, 28, 0.8)
        assert c.phase == "Unresolved" and c.measure is None
        assert c.detail == detail
        assert (c.boundary, c.boundary_distance) == (None, None)
        assert main(["boundaries", "--p", "4", "--s", "28"]) == 1
        assert "lambda_1to2 not bracketed" in capsys.readouterr().err
        point = ["--p", "4", "--s", "28"]
        assert main(["classify", *point, "--lambda", "0.8"]) == 2
        out, err = capsys.readouterr()
        assert err == ""
        assert (json.loads(out)["phase"], json.loads(out)["detail"]) == (
            "Unresolved", detail)
        csv = tmp_path / "band.csv"
        assert main(["sweep", *point, "--lambda-grid", "0.7:0.9:0.1",
                     "--out", str(csv)]) == 0
        rows = csv.read_text().splitlines()[2:]
        assert [r.split(",")[2:4] for r in rows] == [
            [lam, "Unresolved"] for lam in ("0.7", "0.8", "0.9")]
        assert (tmp_path / "band.dat").read_text().splitlines()[1:] == [
            f"{lam} -1 nan" for lam in ("0.7", "0.8", "0.9")]
    finally:
        boundaries.cache_clear()
