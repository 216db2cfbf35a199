"""Per-family tables on the fixed scan grids against a fresh computation.

On a fixed grid (``mixture._grid``) xi's powers and the Horner sums of the
divided differences come from tables built once per (p, s) family; a copy
of the same grid bypasses them. Both must give the same bits, compared
with ``np.array_equal``, never with a tolerance.
"""
import numpy as np
import pytest

from parisi_zero import (classify, criteria, energy, make_mixture, mixture,
                         xi_deriv)
from parisi_zero.cli import main
from parisi_zero.mixture import _grid

GRIDS = [(1e-9, 1 - 1e-9, mixture._H_GRID), (0.0, 1.0, 1025), (0.0, 1.0, 2048)]
FAMILIES = [(2, 3, 0.4), (2, 60, 0.3), (3, 20, 0.8), (4, 38, 0.95),
            (8, 60, 0.2), (5, 5, 1.0), (60, 60, 1.0)]


def _k(m, x):
    # the one-step certificate's K = xi'(1) + z xi' - D1, as phases scans it
    z = criteria.solve_z(m)
    return xi_deriv(m, 1.0, 1) + z * xi_deriv(m, x, 1) - criteria._d1(m, x)


def _fns(lo):
    fns = {"_tau": criteria._tau, "_d1": criteria._d1,
           "_bfun": criteria._bfun, "K": _k,
           **{f"xi_deriv{k}": (lambda m, x, k=k: xi_deriv(m, x, k))
              for k in range(5)}}
    if lo > 0.0:  # h22 lives on (0, 1)
        fns["_h22"] = criteria._h22
    return fns


@pytest.mark.parametrize("p, s, lam", FAMILIES)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # h22 of x**60 near 0
def test_tables_on_the_fixed_grids_give_the_fresh_bits(p, s, lam):
    mixture._family_tables.cache_clear()
    m = make_mixture(p, s, lam)
    for key in GRIDS:
        g = _grid(*key)
        assert g is _grid(*key) and np.array_equal(g, np.linspace(*key))
        for name, fn in _fns(key[0]).items():
            want = fn(m, g.copy())
            for _ in range(2):  # the call that builds the tables, then a read
                got = fn(m, g)
                assert got.dtype == want.dtype, name
                assert np.array_equal(got, want, equal_nan=True), (name, key)
        for k in range(5):  # and xi's powers are still ** (square at 2)
            want = np.zeros_like(g)
            for c, e in m.terms[k]:
                want = want + c * g.copy() ** e
            assert np.array_equal(xi_deriv(m, g, k), want), (k, key)
    assert mixture._family_tables(m.p, m.s)


def test_other_grids_are_fresh_and_writable():
    g = _grid(0.0, 1.0, 1000)
    assert g is not _grid(0.0, 1.0, 1000) and g.flags.writeable
    assert np.array_equal(g, np.linspace(0.0, 1.0, 1000))


def test_tables_and_fixed_grids_are_read_only():
    mixture._family_tables.cache_clear()
    m = make_mixture(4, 38, 0.95)
    for key in GRIDS:
        g = _grid(*key)
        for fn in _fns(key[0]).values():
            fn(m, g)
        with pytest.raises(ValueError):
            g[0] = 0.5
    tables = mixture._family_tables(4, 38).values()
    assert len(tables) > 10
    for t in tables:
        for a in t if isinstance(t, list) else (t,):
            with pytest.raises(ValueError):
                a[0] = 1.0
            with pytest.raises(ValueError):
                a *= 2.0


def test_tables_hold_at_most_the_bound_of_families():
    tables = mixture._family_tables
    tables.cache_clear()
    bound = tables.cache_info().maxsize
    assert bound == 8
    g = _grid(*GRIDS[0])
    first, kept = make_mixture(2, 3, 0.4), make_mixture(3, 20, 0.8)
    want = criteria._tau(first, g.copy())
    criteria._tau(first, g)
    held = tables(2, 3)
    for s in range(4, 4 + 2 * bound):
        criteria._tau(kept, g)  # the family used last is never evicted
        criteria._h22(make_mixture(2, s, 0.4), g)
        assert tables.cache_info().currsize <= bound
    assert tables.cache_info().currsize == bound and tables(3, 20)
    assert np.array_equal(criteria._tau(first, g), want)  # rebuilt
    assert tables(2, 3) and tables(2, 3) is not held


def test_verify_parisi_agrees_with_a_table_free_run(monkeypatch):
    reps = []
    for p, s, lam in [(4, 38, 0.5), (4, 38, 0.95), (4, 38, 0.985), (2, 8, 0.99)]:
        m, nu = make_mixture(p, s, lam), classify(p, s, lam).measure
        reps.append((m, nu, energy.verify_parisi(m, nu)))
    monkeypatch.setattr(energy, "_grid", np.linspace)  # fresh, writable grids
    for m, nu, rep in reps:
        assert energy.verify_parisi(m, nu) == rep


def test_sweep_rows_do_not_depend_on_the_tables(tmp_path, capsys):
    base = ("sweep", "--p", "4", "--s", "38", "--lambda-grid", "0.95:0.992",
            "--count", "15")
    outs = []
    for i in range(2):
        mixture._family_tables.cache_clear()
        out = tmp_path / f"{i}.csv"
        assert main([*base, "--out", str(out)]) == 0
        outs.append(out.read_text().splitlines())
    capsys.readouterr()
    assert outs[0] == outs[1] and len(outs[0]) == 17


@pytest.mark.parametrize("p, s, lam, phase, key", [
    (4, 38, 0.985, "TwoFRSB", "tau"), (2, 8, 0.9, "OneFRSB", "d1")])
def test_a_full_phase_classify_fills_the_scan_grids_tables(p, s, lam, phase,
                                                          key):
    # t's scan (p = 2: h22's) reads its sums from the family's tables on the
    # fixed grid of criteria's scan size, so a size criteria and mixture
    # disagree on cannot drop the scan to an untabled linspace unseen
    mixture._family_tables.cache_clear()
    assert classify(p, s, lam).phase == phase
    g = _grid(1e-9, 1 - 1e-9, criteria._H_GRID)
    assert g.size == 1024 and not g.flags.writeable
    tables = mixture._family_tables(p, s)[id(g), key]
    assert tables and all(t.shape == g.shape for t in tables)
