"""Variational oracle over step measures: exactness, chains, saturation."""
import math
import warnings

import numpy as np
import pytest

from parisi_zero import oracle
from parisi_zero import (
    ParisiMeasure,
    Segment,
    StepMeasure,
    build_1rsb,
    cs_energy,
    make_mixture,
    minimize_k,
    oracle_profile,
    solve_z,
    step_energy,
    xi_deriv,
)


def as_parisi(sm):
    """The same step measure in segment form, for the quadrature route."""
    segs = []
    lo, level = 0.0, 0.0
    for q, a in sm.jumps:
        if q > lo:
            segs.append(Segment(lo, q, "const", level))
            lo = q
        level += a
    segs.append(Segment(lo, 1.0, "const", level))
    return ParisiMeasure(tuple(segs), sm.atom)


def test_step_energy_agrees_with_quadrature_route():
    rng = np.random.default_rng(5)
    m = make_mixture(4, 18, 0.5)
    for _ in range(12):
        k = int(rng.integers(0, 4))
        qs = np.sort(rng.uniform(0.05, 0.95, size=k))
        adds = rng.uniform(0.05, 1.0, size=k)
        sm = StepMeasure(tuple(zip(map(float, qs), map(float, adds))),
                         float(rng.uniform(0.05, 1.0)))
        assert step_energy(m, sm) == pytest.approx(
            cs_energy(m, as_parisi(sm)), abs=1e-11)


def test_zero_step_closed_form():
    for p, s, lam in [(2, 5, 1.0), (4, 18, 0.5)]:
        m = make_mixture(p, s, lam)
        a = xi_deriv(m, 1.0, 1)
        sm = StepMeasure((), a ** -0.5)
        assert step_energy(m, sm) == pytest.approx(math.sqrt(a), abs=1e-13)


def test_one_step_at_the_solved_tilt_is_exact():
    m = make_mixture(4, 18, 0.5)
    z = solve_z(m)
    nu = build_1rsb(m, z)
    sm = StepMeasure(((1e-14, z * nu.atom),), nu.atom)
    want = (xi_deriv(m, 1.0, 1) + z) / math.sqrt((1 + z) * xi_deriv(m, 1.0, 1))
    assert step_energy(m, sm) == pytest.approx(want, abs=1e-10)


def test_minimize_recovers_the_one_step_optimum():
    m = make_mixture(4, 18, 0.5)
    z = solve_z(m)
    want = (xi_deriv(m, 1.0, 1) + z) / math.sqrt((1 + z) * xi_deriv(m, 1.0, 1))
    sm, e = minimize_k(m, 1, restarts=6, seed=11)
    assert e == pytest.approx(want, abs=1e-9)
    assert sm.atom == pytest.approx(build_1rsb(m, z).atom, abs=1e-6)


def test_profile_monotone_and_certified_bound():
    m = make_mixture(4, 18, 0.5)
    prof = oracle_profile(m, kmax=2, restarts=6, seed=11)
    es = prof.energies
    assert all(es[i + 1] <= es[i] + 1e-12 for i in range(len(es) - 1))
    nu = build_1rsb(m, solve_z(m))
    assert cs_energy(m, nu) <= es[-1] + 1e-6
    assert prof.saturation == 1
    assert prof.tag == "saturates at 1"


def test_replica_symmetric_point_saturates_at_zero():
    m = make_mixture(2, 5, 1.0)
    prof = oracle_profile(m, kmax=2, restarts=4, seed=3)
    assert prof.saturation == 0
    assert prof.energies[0] == pytest.approx(math.sqrt(2), abs=1e-9)


def test_determinism_under_a_fixed_seed():
    m = make_mixture(4, 18, 0.5)
    a = oracle_profile(m, kmax=2, restarts=4, seed=9)
    b = oracle_profile(m, kmax=2, restarts=4, seed=9)
    assert a.energies == b.energies
    assert a.measures == b.measures


def test_validation_errors():
    m = make_mixture(4, 18, 0.5)
    with pytest.raises(ValueError):
        step_energy(m, StepMeasure(((0.7, 0.3), (0.2, 0.1)), 0.5))
    with pytest.raises(ValueError):
        step_energy(m, StepMeasure(((0.3, -0.1),), 0.5))
    with pytest.raises(ValueError):
        step_energy(m, StepMeasure(((0.3, 0.1),), 0.0))
    with pytest.raises(ValueError):
        minimize_k(m, 7)
    with pytest.raises(ValueError):
        minimize_k(m, -1)


def vector_energy(m, v, k):
    """step_energy of the measure a search vector stands for."""
    qs, adds, atom = oracle._unpack(v, k)
    return step_energy(m, StepMeasure(tuple(zip(qs, adds)), atom))


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(17)
    h = 1e-6
    for p, s, lam in [(4, 18, 0.5), (2, 5, 0.6)]:
        m = make_mixture(p, s, lam)
        terms, xi1 = oracle._xi_terms(m), xi_deriv(m, 1.0, 1)
        for k in range(5):
            for trial in range(3):
                v = rng.normal(0.0, 1.5, size=2 * k + 1)
                clipped = set()
                if trial == 1:
                    # past every clip bound the parameter is inert
                    v[2 * k] = 7.0
                    clipped.add(2 * k)
                    if k >= 1:
                        v[k] = -60.0
                        clipped.add(k)
                    if k >= 2:
                        v[k + 1] = 12.0
                        clipped.add(k + 1)
                elif trial == 2:
                    v[2 * k] = -60.0
                    clipped.add(2 * k)
                e, g = oracle._objective(v, k, terms, xi1)
                assert e == vector_energy(m, v, k)
                for i in range(2 * k + 1):
                    step = np.zeros_like(v)
                    step[i] = h
                    fd = (vector_energy(m, v + step, k)
                          - vector_energy(m, v - step, k)) / (2 * h)
                    if i in clipped:
                        assert g[i] == 0.0 and fd == 0.0, (k, i)
                    else:
                        assert abs(g[i] - fd) <= 1e-6 * (1 + abs(fd)), (k, i)


def test_vanishing_atom_neither_raises_nor_warns():
    m = make_mixture(4, 18, 0.5)
    terms, xi1 = oracle._xi_terms(m), xi_deriv(m, 1.0, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in range(4):
            v = np.zeros(2 * k + 1)
            v[-1] = -800.0
            e, g = oracle._objective(v, k, terms, xi1)
            assert math.isfinite(e) and np.all(np.isfinite(g))
            assert g[-1] == 0.0
        # a tiny atom given directly is a huge energy, not an overflow
        assert step_energy(m, StepMeasure((), 1e-200)) == pytest.approx(5e199)


def test_profiles_raise_no_warnings():
    # one point inside each phase: (4, 38) boundaries 0.6094 / 0.9817 /
    # 0.9871 / 0.9900, (2, 4) full above 12/13
    points = [(2, 5, 1.0, 1), (4, 18, 0.5, 2), (4, 38, 0.8, 3),
              (4, 38, 0.9844, 2), (4, 38, 0.9886, 2), (2, 4, 0.96, 2)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p, s, lam, kmax in points:
            prof = oracle_profile(make_mixture(p, s, lam), kmax=kmax,
                                  restarts=4, seed=1)
            es = prof.energies
            assert all(b <= a + 1e-12 for a, b in zip(es, es[1:]))
