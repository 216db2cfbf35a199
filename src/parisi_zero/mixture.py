"""Two-term covariance mixtures and their derivatives.

The whole package works with the one-parameter family

    xi(x) = lam * x**p + (1 - lam) * x**s,   2 <= p <= s, lam in [0, 1],

normalized so xi(1) = 1. Everything downstream (criterion functions,
measure constructions, energies) consumes xi and its first four
derivatives through :func:`xi_deriv`, which evaluates the exact
polynomial with falling-factorial coefficients and integer exponents.

Reproducibility: the powers are numpy ``power`` calls, whose float64
loop numpy dispatches to CPU-specific SIMD code; on this path it differs
from the C library's ``pow`` (Python's ``**``) in the last bit for a few
percent of inputs. So values are not bit-reproducible across CPUs or
numpy builds. What holds is that a scalar input and the same value in an
array give the same bits on one numpy build and one CPU: the plain-float
path for scalars calls ``np.power`` too, never ``**``: one call over an
order's exponents if all are at least 3 (numpy's vectorised power at 2
is not its square), else one a term; xi at 1 is summed once per mixture.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = ["Mixture", "make_mixture", "xi_deriv"]


@dataclass(frozen=True)
class Mixture:
    """Validated mixture. Build through :func:`make_mixture`.

    ``is_pure`` marks single-term models (p == s after canonicalization);
    ``exponent`` is the effective exponent in that case and None otherwise.
    ``terms`` holds, for each derivative order 0..4, the (coefficient,
    exponent) pairs of xi's nonzero terms; it is filled at construction
    and takes no part in equality, hashing or repr.
    """

    p: int
    s: int
    lam: float
    is_pure: bool = False
    exponent: int | None = None
    terms: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        terms = tuple(_terms(self, order) for order in range(5))
        object.__setattr__(self, "terms", terms)  # _exps, _at1: not fields
        object.__setattr__(self, "_exps", _exponents(*(k for _, k in terms[0])))
        object.__setattr__(self, "_at1",
                           tuple(sum((c for c, _ in t), 0.0) for t in terms))


# the fixed scan grids (criteria's tau/plateau and K scans, verify_parisi's
# default), on which xi's powers and criteria's sums are tabled per family
_GRIDS = {key: np.linspace(*key) for key in
          ((1e-9, 1 - 1e-9, 4096), (0.0, 1.0, 1025), (0.0, 1.0, 2048))}
for _g in _GRIDS.values():
    _g.flags.writeable = False
_GRID_IDS = frozenset(map(id, _GRIDS.values()))
_family_tables = lru_cache(maxsize=8)(lambda p, s: {})  # ~450 kB a family


def _grid(lo, hi, n):
    g = _GRIDS.get((lo, hi, n))
    return np.linspace(lo, hi, n) if g is None else g


def _table(m: Mixture, x, key, build, *args):
    # build(*args), or, when x is a fixed grid, the family's read-only copy
    if id(x) not in _GRID_IDS:
        return build(*args)
    fam = _family_tables(m.p, m.s)
    if (id(x), key) not in fam:
        v = fam[id(x), key] = build(*args)  # an array or a list of arrays
        for a in v if type(v) is list else [v]:
            a.flags.writeable = False
    return fam[id(x), key]


@lru_cache(maxsize=None)
def _exponents(*ks):
    # xi's exponents by order, None where one is 2 or less (np.power(1.0, k)
    # is 1.0, so xi at 1 is the sum of coefficients)
    es = (np.array([k - o for k in ks if k >= o], float) for o in range(5))
    return tuple(e if (e >= 3).all() else None for e in es)


def _as_int(name, value):
    # accept ints and integer-valued floats, nothing else
    if isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got bool")
    iv = int(value)
    if iv != value:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return iv


def make_mixture(p, s, lam) -> Mixture:
    """Validate (p, s, lam) and canonicalize pure models.

    A pure model (p == s, or lam at an endpoint of [0, 1]) is stored as a
    single term with lam = 1, so downstream code can branch once on
    ``is_pure`` and never sees a zero-weight term.
    """
    p = _as_int("p", p)
    s = _as_int("s", s)
    lam = float(lam)
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")
    if s < p:
        raise ValueError(f"s must be >= p, got s={s} < p={p}")
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must lie in [0, 1], got {lam}")
    if p == s or lam == 1.0:
        return Mixture(p, p, 1.0, is_pure=True, exponent=p)
    if lam == 0.0:
        return Mixture(s, s, 1.0, is_pure=True, exponent=s)
    return Mixture(p, s, lam)


def _terms(m: Mixture, order: int):
    # (coefficient, exponent) of each nonzero term of the order-th derivative
    out = []
    for n, w in ((m.p, m.lam), (m.s, 1.0 - m.lam)):
        if w == 0.0 or n - order < 0:
            continue
        c = w
        for i in range(order):
            c *= n - i
        out.append((c, n - order))
    return tuple(out)


def xi_deriv(m: Mixture, x, order: int = 0):
    """d^order xi / dx^order at x, exactly.

    x may be a scalar or an ndarray; the result matches its shape, and a
    scalar comes back as a Python float. Orders 0..4 only (that is all the
    theory ever uses). x must be nonnegative; the criteria probe slightly
    above 1, so no upper cap.
    """
    if order not in (0, 1, 2, 3, 4):
        raise ValueError(f"order must be in 0..4, got {order}")
    if isinstance(x, float):
        # plain-float path (np.float64 is a float too): the same operations
        # as on a 0-d array, without its overhead; np.power, not **, keeps
        # the array path's bits
        if not x >= 0:
            raise ValueError("x must be >= 0")
        if x == 1.0:
            return m._at1[order]
        out, exps = 0.0, m._exps[order]
        if exps is None:
            for c, k in m.terms[order]:
                out = out + c * np.power(x, k)
        else:
            for (c, _), v in zip(m.terms[order], np.power(x, exps).tolist()):
                out = out + c * v
        return float(out)
    x = np.asarray(x, dtype=float)
    if not (x >= 0).all():
        raise ValueError("x must be >= 0")
    terms = m.terms[order]
    if not terms:
        return 0.0 if x.ndim == 0 else np.zeros_like(x)
    # starting from the first term, not from zeros, gives the same values,
    # since every c is >= 0 (only a zero from x = -0.0 may keep its sign)
    (c, k), *rest = terms
    out = c * _table(m, x, k, pow, x, k)
    for c, k in rest:
        out = out + c * _table(m, x, k, pow, x, k)
    return float(out) if out.ndim == 0 else out
