"""Variational oracle over step measures: exactness, chains, saturation."""
import math
import warnings
from itertools import accumulate

import mpmath
import numpy as np
import pytest
import scipy.optimize

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
    # non-finite atoms, locations and sizes
    for sm in (StepMeasure(((0.3, 0.1),), math.nan),
               StepMeasure(((0.3, 0.1),), math.inf),
               StepMeasure(((math.nan, 0.1),), 0.5),
               StepMeasure(((0.3, math.nan),), 0.5),
               StepMeasure(((0.3, math.inf),), 0.5)):
        with pytest.raises(ValueError):
            step_energy(m, sm)
    # a negative restart count leaves no start set to search
    with pytest.raises(ValueError, match="restarts"):
        minimize_k(m, 1, restarts=-3)
    with pytest.raises(ValueError, match="restarts"):
        oracle_profile(m, 1, restarts=-3)


def vector_energy(m, v, k):
    """step_energy of the measure a search vector stands for."""
    qs, adds, atom = oracle._unpack(v, k)
    return step_energy(m, StepMeasure(tuple(zip(qs, adds)), atom))


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(17)
    h = 1e-6
    for p, s, lam in [(4, 18, 0.5), (2, 5, 0.6)]:
        m = make_mixture(p, s, lam)
        terms, xi1 = m.terms[0], xi_deriv(m, 1.0, 1)
        for k in range(5):
            for trial in range(5):
                v = rng.normal(0.0, 1.5, size=2 * k + 1)
                clipped = set()
                if trial == 1:
                    # past every clip bound the parameter is inert: the
                    # atom's log past its cap, a jump size's root past e^5
                    v[2 * k] = 7.0
                    clipped.add(2 * k)
                    if k >= 1:
                        v[k] = -160.0
                        clipped.add(k)
                    if k >= 2:
                        v[k + 1] = 150.0
                        clipped.add(k + 1)
                elif trial == 2:
                    v[2 * k] = -60.0
                    clipped.add(2 * k)
                elif trial == 3:
                    # the boundaries are interior points of the search: a
                    # jump at 0, a zero jump size, a jump on its neighbour
                    # and a jump at 1
                    if k >= 1:
                        v[0] = v[k] = 0.0
                    if k >= 3:
                        v[1] = 0.0
                    if k >= 2:
                        v[k - 1] = 0.5 * math.pi
                elif trial == 4 and k >= 1:
                    # every jump at 1, the last one with a zero size
                    v[0] = 0.5 * math.pi
                    v[2 * k - 1] = 0.0
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


# The evaluator as first written, with lists for the edges, widths and xi
# values and generator sums for xi and xi', kept verbatim: the one-pass
# `_functional` and `_objective` must match it bit for bit.
def ref_functional(terms, xi1, qs, adds, atom):
    k = len(qs)
    edges = [0.0, *qs, 1.0]
    cs = list(accumulate(adds, initial=0.0))
    xs = [0.0, *(sum(w * x ** n for w, n in terms) for x in qs),
          sum(w for w, _ in terms)]
    widths = [edges[j + 1] - edges[j] for j in range(k + 1)]
    tails = [0.0] * (k + 2)
    logs = [0.0] * (k + 1)
    tails[k + 1] = atom
    total = xi1 * atom
    for j in range(k, -1, -1):
        w, c, t = widths[j], cs[j], tails[j + 1]
        total += c * (xs[j + 1] - xs[j])
        if c == 0.0:
            logs[j] = w / t
        elif w > 0.0:
            logs[j] = math.log1p(c * w / t) / c
        total += logs[j]
        tails[j] = t + c * w
    # backward pass: g_t is d(total)/dT_j, T_0 feeding nothing
    g_t = 0.0
    g_w = [0.0] * (k + 1)
    g_c = [0.0] * (k + 1)
    for j in range(k + 1):
        w, c, t, t0 = widths[j], cs[j], tails[j + 1], tails[j]
        r = w / t
        x = c * r
        if x < 1e-3:
            # the direct form below cancels; its series in x, exact at c = 0
            dl_dc = r * r * (-0.5 + x * (2 / 3 + x * (-0.75 + x * 0.8)))
        else:
            dl_dc = (w / t0 - logs[j]) / c
        g_w[j] = 1.0 / t0 + g_t * c
        g_c[j] = xs[j + 1] - xs[j] + dl_dc + g_t * w
        g_t -= r / t0
    g_qs = [0.5 * (g_w[i] - g_w[i + 1]
                   - adds[i] * sum(w * n * q ** (n - 1) for w, n in terms))
            for i, q in enumerate(qs)]
    # add i raises every density level c_j with j > i
    g_adds = [0.0] * k
    acc = 0.0
    for i in range(k - 1, -1, -1):
        acc += g_c[i + 1]
        g_adds[i] = 0.5 * acc
    return 0.5 * total, g_qs, g_adds, 0.5 * (xi1 + g_t)


def ref_unpack(v, k):
    v = v.tolist()
    qs = []
    acc = 0.0
    for x in v[:k]:
        acc += (1.0 - acc) * math.sin(x) ** 2
        qs.append(acc)
    adds = [min(abs(x), oracle._ROOT_ADD_CAP) ** 2 for x in v[k:2 * k]]
    atom = math.exp(min(max(v[2 * k], oracle._LOG_FLOOR),
                        oracle._LOG_ATOM_CAP))
    return qs, adds, atom


def ref_objective(v, k, terms, xi1):
    qs, adds, atom = ref_unpack(v, k)
    e, g_qs, g_adds, g_atom = ref_functional(terms, xi1, qs, adds, atom)
    v = v.tolist()
    grad = [0.0] * (2 * k + 1)
    # 1 - q_i = prod_{m <= i} cos^2 v_m, so grad_l = sin(2 v_l)
    # (1 - q_{l-1}) S_l with S_l = g_{q,l} + cos^2(v_{l+1}) S_{l+1}
    acc = cos2 = 0.0
    for i in range(k - 1, -1, -1):
        acc = g_qs[i] + cos2 * acc
        cos2 = math.cos(v[i]) ** 2
        rest = 1.0 - qs[i - 1] if i else 1.0
        grad[i] = math.sin(2.0 * v[i]) * rest * acc
    # past its cap a parameter is inert
    for i in range(k):
        if abs(v[k + i]) < oracle._ROOT_ADD_CAP:
            grad[k + i] = 2.0 * v[k + i] * g_adds[i]
    if oracle._LOG_FLOOR < v[2 * k] < oracle._LOG_ATOM_CAP:
        grad[2 * k] = atom * g_atom
    return e, np.asarray(grad)


def test_objective_equals_the_reference_bit_for_bit():
    rng = np.random.default_rng(23)
    for p, s, lam in [(4, 18, 0.5), (2, 5, 0.6), (4, 38, 0.985), (3, 3, 1.0)]:
        m = make_mixture(p, s, lam)
        terms, xi1 = m.terms[0], xi_deriv(m, 1.0, 1)
        for k in range(7):
            for trial in range(40):
                v = rng.normal(0.0, 1.5, size=2 * k + 1)
                if trial % 8 == 1:
                    # the atom's log past either clip bound, jump sizes'
                    # roots past e^5
                    v[2 * k] = 7.0 if trial % 16 == 1 else -60.0
                    v[k:2 * k:2] = -160.0
                    v[k + 1:2 * k:2] = 150.0
                elif trial % 8 == 2 and k >= 1:
                    # a jump at 0 with a zero size, one on its neighbour,
                    # one at 1
                    v[0] = v[k] = 0.0
                    v[min(1, k - 1)] = 0.0
                    v[k - 1] = 0.5 * math.pi
                elif trial % 8 == 3 and k >= 1:
                    # every jump at 1, the last one with a zero size
                    v[0] = 0.5 * math.pi
                    v[2 * k - 1] = 0.0
                elif trial % 8 == 4:
                    # zero sizes and jumps piled on their neighbours
                    v[rng.random(2 * k + 1) < 0.5] = 0.0
                e, g = oracle._objective(v, k, terms, xi1)
                e_ref, g_ref = ref_objective(v, k, terms, xi1)
                assert e == e_ref, (p, s, lam, k, v)
                assert g.tolist() == g_ref.tolist(), (p, s, lam, k, v)


def test_step_energy_equals_the_reference_bit_for_bit():
    m = make_mixture(4, 38, 0.985)
    terms, xi1 = m.terms[0], xi_deriv(m, 1.0, 1)
    jump_sets = [((0.3, 0.2), (0.3, 0.5)),
                 ((0.0, 0.0), (0.4, 1.5), (0.4, 0.0), (1.0, 0.7)),
                 ((0.25, 0.0), (1.0, 3.0), (1.0, 0.0)),
                 ((1.0, 0.5),), ((0.0, 0.4),), ()]
    rng = np.random.default_rng(29)
    for k in range(1, 7):
        # locations drawn from a few values, so some repeat or sit at 0, 1
        qs = np.sort(rng.choice([0.0, 0.1, 0.5, 0.77, 0.999, 1.0], size=k))
        adds = rng.exponential(1.0, size=k) * (rng.random(k) < 0.7)
        jump_sets.append(tuple(zip(qs.tolist(), adds.tolist())))
    for jumps in jump_sets:
        for atom in (1e-3, 0.4, 2.0):
            sm = StepMeasure(jumps, atom)
            want = ref_functional(terms, xi1, [q for q, _ in jumps],
                                  [a for _, a in jumps], atom)[0]
            assert step_energy(m, sm) == want, (jumps, atom)


def test_small_add_partial_matches_mpmath():
    # one jump at 0 and atom 0.5: the partial in the add a is
    # (1 + d/da [log(1 + a / 0.5) / a]) / 2, whose direct form cancels as
    # a goes to 0
    m = make_mixture(4, 38, 0.8)
    terms, xi1, atom = m.terms[0], xi_deriv(m, 1.0, 1), 0.5

    def energy(a):
        xi = lambda x: sum(mpmath.mpf(w) * mpmath.mpf(x) ** n for w, n in terms)
        return (mpmath.mpf(xi1) * atom + a * (xi(1) - xi(0))
                + mpmath.log(1 + a / mpmath.mpf(atom)) / a) / 2

    for add in (0.0, 1e-18, 1e-14, 1e-10, 1e-6, 1e-3, 0.1):
        got = oracle._functional(terms, xi1, [0.0], [add], atom)[2][0]
        with mpmath.workdps(60):
            want = mpmath.diff(energy, mpmath.mpf(add))
        assert abs(got - want) <= 1e-12 * abs(want), (add, got, want)


def test_pack_round_trips_the_boundaries():
    # a jump at 0, two equal jumps, a jump at 1 (and one after it) and a
    # zero jump size are all points of the search, and _pack finds them
    rng = np.random.default_rng(3)
    triples = [([0.0], [0.0], 0.4),
               ([0.0, 0.3, 0.3, 1.0], [0.2, 0.0, 1.5, 0.7], 2.0),
               ([0.25, 1.0, 1.0], [0.0, 3.0, 0.0], 0.1),
               ([1.0], [0.5], 1.0)]
    for qs, adds, atom in triples:
        k = len(qs)
        v = oracle._pack(qs, adds, atom)
        assert np.all(np.isfinite(v))
        qs1, adds1, atom1 = oracle._unpack(v, k)
        assert np.abs(np.subtract(qs1, qs)).max() <= 1e-12
        assert np.abs(np.subtract(adds1, adds)).max() <= 1e-12
        assert abs(atom1 - atom) <= 1e-12
        # such an optimum seeds finite starts for the next level
        for start in oracle._level_starts(k + 1, (qs, adds, atom), rng, 4):
            assert len(start) == 2 * k + 3 and np.all(np.isfinite(start))


def test_vanishing_atom_neither_raises_nor_warns():
    m = make_mixture(4, 18, 0.5)
    terms, xi1 = m.terms[0], xi_deriv(m, 1.0, 1)
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


def test_searches_go_through_the_module_level_minimize(monkeypatch):
    # _chain looks `minimize` up on the module at call time, so a wrapper
    # set there sees every solve and changes no result
    m = make_mixture(4, 38, 0.985)
    plain = oracle_profile(m, kmax=2, restarts=4, seed=1)
    seen = []
    real = oracle.minimize

    def counting(*args, **kwargs):
        res = real(*args, **kwargs)
        seen.append(res.nfev)
        return res
    monkeypatch.setattr(oracle, "minimize", counting)
    wrapped = oracle_profile(m, kmax=2, restarts=4, seed=1)
    assert len(seen) > 0 and sum(seen) > 0
    assert wrapped.energies == plain.energies
    assert wrapped.measures == plain.measures


def rosenbrock(x):
    a, b = x
    return ((1.0 - a) ** 2 + 100.0 * (b - a * a) ** 2,
            np.array([-2.0 * (1.0 - a) - 400.0 * a * (b - a * a),
                      200.0 * (b - a * a)]))


def test_bfgs_reaches_gtol_on_a_convex_quadratic():
    # written about its minimum, so the value keeps its relative precision
    # all the way down; ftol = 0 leaves gtol the only way to stop
    rng = np.random.default_rng(4)
    q, _ = np.linalg.qr(rng.normal(size=(13, 13)))
    a = q @ np.diag(np.geomspace(0.1, 100.0, 13)) @ q.T
    c = rng.normal(size=13)

    def quadratic(x):
        ad = a @ (x - c)
        return 0.5 * (x - c) @ ad, ad
    res = oracle.minimize(quadratic, np.zeros(13), ftol=0.0)
    assert np.abs(quadratic(res.x)[1]).max() <= 1e-12
    assert np.abs(res.x - c).max() <= 1e-11
    assert 0 < res.nit < 200


def test_bfgs_solves_rosenbrock():
    res = oracle.minimize(rosenbrock, [-1.2, 1.0])
    assert np.abs(res.x - 1.0).max() <= 1e-8
    assert res.fun == rosenbrock(res.x)[0]


def test_bfgs_never_ends_above_its_start():
    rng = np.random.default_rng(8)
    m = make_mixture(2, 29, 0.8590255149245344)
    terms, xi1 = m.terms[0], xi_deriv(m, 1.0, 1)
    for trial in range(12):
        k = trial % 4
        v = rng.normal(0.0, 3.0, size=2 * k + 1)
        res = oracle.minimize(oracle._objective, v, args=(k, terms, xi1),
                              maxiter=50 * (trial + 1))
        assert res.fun <= oracle._objective(v, k, terms, xi1)[0]
        assert res.fun == oracle._objective(res.x, k, terms, xi1)[0]
        x0 = rng.normal(0.0, 2.0, size=2)
        assert oracle.minimize(rosenbrock, x0).fun <= rosenbrock(x0)[0]


def test_bfgs_returns_a_start_with_zero_gradient():
    # past either clip bound the atom's log is inert, and at k = 0 it is
    # the whole search vector
    m = make_mixture(4, 18, 0.5)
    for v in (7.0, -60.0):
        res = oracle.minimize(oracle._objective, np.array([v]),
                              args=(0, m.terms[0], xi_deriv(m, 1.0, 1)))
        assert res.x.tolist() == [v]
        assert res.nit == 0 and res.nfev == 1


def test_bfgs_respects_maxiter():
    for n in (1, 5, 17):
        res = oracle.minimize(rosenbrock, [-1.2, 1.0], maxiter=n)
        assert res.nit == n
        assert np.abs(res.x - 1.0).max() > 1e-3


def test_bfgs_is_repeatable_bit_for_bit():
    m = make_mixture(2, 29, 0.8590255149245344)
    args = (3, m.terms[0], xi_deriv(m, 1.0, 1))
    v = np.array([0.8, -1.75, -3.09, -1.97, -3.67, 0.93, -2.6])
    a = oracle.minimize(oracle._objective, v, args=args)
    b = oracle.minimize(oracle._objective, v, args=args)
    assert a.x.tolist() == b.x.tolist()
    assert (a.fun, a.nfev, a.nit) == (b.fun, b.nfev, b.nit)


def scipy_lbfgsb(fun, x0, args=(), maxiter=15000, gtol=1e-12, ftol=1e-16):
    """The search the oracle ran before it had its own BFGS."""
    return scipy.optimize.minimize(
        fun, x0, args=args, jac=True, method="L-BFGS-B",
        options={"maxiter": maxiter, "gtol": gtol, "ftol": ftol,
                 "maxcor": 30})


def test_chain_no_worse_than_scipy_lbfgsb(monkeypatch):
    # one point in each phase, plus a p = 2 OneFRSB point whose level-3
    # optimum only a long crawl from the peeled-rung start reaches
    points = [(2, 5, 1.0, 1), (4, 18, 0.5, 2), (4, 38, 0.95, 3),
              (4, 38, 0.985, 4), (4, 38, 0.988, 5), (2, 4, 0.95, 6),
              (2, 29, 0.8590255149245344, 734087)]
    ours = [oracle_profile(make_mixture(p, s, lam), kmax=3, restarts=4,
                           seed=seed) for p, s, lam, seed in points]
    monkeypatch.setattr(oracle, "minimize", scipy_lbfgsb)
    for (p, s, lam, seed), mine in zip(points, ours):
        ref = oracle_profile(make_mixture(p, s, lam), kmax=3, restarts=4,
                             seed=seed)
        assert mine.saturation == ref.saturation, (p, s, lam)
        for k, (a, b) in enumerate(zip(mine.energies, ref.energies)):
            assert a <= b + 1e-9, (p, s, lam, k, a - b)


def test_no_solve_crawls_toward_a_boundary(monkeypatch):
    # the optima put their first jump at 0; where that point lay at an
    # infinite logit, one solve here took 1137 evaluations to crawl there
    seen = []
    real = oracle.minimize

    def counting(*args, **kwargs):
        res = real(*args, **kwargs)
        seen.append(res.nfev)
        return res
    monkeypatch.setattr(oracle, "minimize", counting)
    oracle_profile(make_mixture(4, 38, 0.8), kmax=3, restarts=4, seed=1)
    assert 0 < max(seen) <= 300


# level energies of the chain run on scipy's L-BFGS-B with the jump
# locations as stick-breaking logits and the jump sizes as logs; at level
# 3 of the first two points the package's own BFGS, on that search, read
# 9.8e-9 and 1.1e-8 above them
LBFGSB_LOGIT_CHAIN = [
    ((2, 17, 0.6836230800030284, 116921), 1,
     (2.5972396500813271, 1.9610442589035151, 1.9610438464178883,
      1.961043835023784)),
    ((2, 38, 0.8897282885095474, 189950), 1,
     (2.4433136543751997, 1.8206393183166796, 1.820638866167849,
      1.8206388530379543)),
    ((2, 35, 0.8152562779950456, 418903), 1,
     (2.8454424657974537, 1.942918162026297, 1.9429181280741123,
      1.9429181277833241)),
    ((3, 28, 0.965385462498534, 777849), 2,
     (1.9660527555324274, 1.7788228032739981, 1.7736641963893633,
      1.7736641951268683)),
]


def test_chain_no_worse_than_lbfgsb_on_logits():
    for (p, s, lam, seed), sat, ref in LBFGSB_LOGIT_CHAIN:
        prof = oracle_profile(make_mixture(p, s, lam), kmax=3, restarts=4,
                              seed=seed)
        assert prof.saturation == sat, (p, s, lam)
        for k, (a, b) in enumerate(zip(prof.energies, ref)):
            assert a <= b + 1e-9, (p, s, lam, k, a - b)
