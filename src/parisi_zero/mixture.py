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
path for scalars calls ``np.power`` too, never ``**``.
"""
from __future__ import annotations

from dataclasses import dataclass, field

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
        object.__setattr__(self, "terms",
                           tuple(_terms(self, order) for order in range(5)))


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
        if x < 0:
            raise ValueError("x must be >= 0")
        out = 0.0
        for c, k in m.terms[order]:
            out = out + c * np.power(x, k)
        return float(out)
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("x must be >= 0")
    out = np.zeros_like(x)
    for c, k in m.terms[order]:
        out = out + c * x ** k
    if out.ndim == 0:
        return float(out)
    return out
