"""Brute-force variational search over finitely supported measures.

This module deliberately knows nothing about phase classification or the
closed-form constructions. It parametrizes a density with k upward jumps
plus the terminal atom, evaluates the functional in exact closed form
(the tail is piecewise linear, so every piece is a log), and minimizes
with L-BFGS-B from many starts. The functional is smooth in the search
parameters (stick-breaking logits for the jump locations, logs for the
jump sizes and the atom), so its gradient is exact and closed form too:
one backward pass through the tail recursion, then the chain rule
through the parametrization. Each level k is warm-started from the
level k-1 optimum with a near-zero jump inserted into its widest gap, so
the reported energies are nonincreasing in k by construction.

The search profile over k is the independent evidence the classifier is
checked against: a k-step ground state shows up as the chain saturating
at k, a genuinely continuous one keeps improving at every level.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np
from scipy.optimize import minimize

from .mixture import Mixture, xi_deriv

__all__ = ["StepMeasure", "OracleProfile", "step_energy", "minimize_k",
           "oracle_profile"]

_KMAX = 6
# clip range of the log parameters (jump sizes and atom share the floor)
_LOG_FLOOR, _LOG_ADD_CAP, _LOG_ATOM_CAP = -45.0, 10.0, 5.0
_LBFGSB = {"ftol": 1e-16, "gtol": 1e-12, "maxcor": 30}


@dataclass(frozen=True)
class StepMeasure:
    """Piecewise-constant density: jumps ((q1, a1), ...) and atom at 1."""

    jumps: tuple[tuple[float, float], ...]
    atom: float


def _xi_terms(m: Mixture):
    """xi as plain-float pairs (w, n), xi(x) = sum of w * x**n."""
    return tuple((w, n) for n, w in ((m.p, m.lam), (m.s, 1.0 - m.lam))
                 if w != 0.0)


def _functional(terms, xi1, qs, adds, atom):
    """Energy of a step measure and its partials in (qs, adds, atom).

    With edges e = (0, qs, 1), density c_j on (e_j, e_{j+1}) of width w_j
    and tails T_j = T_{j+1} + c_j w_j from T_{k+1} = atom, the energy is
    half of xi'(1) atom + sum_j [c_j (xi(e_{j+1}) - xi(e_j)) + L_j] with
    L_j = log(1 + c_j w_j / T_{j+1}) / c_j (w_j / T_{j+1} where c_j = 0).
    xi1 is xi'(1); plain floats throughout.
    """
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
        dl_dc = (w / t0 - logs[j]) / c if c > 0.0 else -0.5 * r * r
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


def step_energy(m: Mixture, sm: StepMeasure) -> float:
    """Exact functional value of a step measure (no quadrature)."""
    qs = [q for q, _ in sm.jumps]
    adds = [a for _, a in sm.jumps]
    if sm.atom <= 0.0:
        raise ValueError("atom must be positive")
    if qs != sorted(qs) or any(q < 0.0 or q > 1.0 for q in qs):
        raise ValueError("jump locations must be sorted within [0, 1]")
    if any(a < 0.0 for a in adds):
        raise ValueError("jump sizes must be nonnegative")
    return _functional(_xi_terms(m), xi_deriv(m, 1.0, 1), qs, adds,
                       sm.atom)[0]


def _pack(qs, adds, atom):
    v = []
    acc = 0.0
    for q in qs:
        frac = (q - acc) / (1.0 - acc)
        frac = min(max(frac, 1e-15), 1.0 - 1e-15)
        v.append(2.0 * math.atanh(2.0 * frac - 1.0))
        acc = q
    for a in adds:
        v.append(math.log(max(a, 1e-300)))
    v.append(math.log(atom))
    return np.asarray(v)


def _clip(x, cap):
    return min(max(x, _LOG_FLOOR), cap)


def _unpack(v, k):
    """(qs, adds, atom) as plain floats; jump locations by stick-breaking,
    q_i = q_{i-1} + (1 - q_{i-1}) u_i with u_i the logistic of v_i."""
    v = v.tolist()
    qs = []
    acc = 0.0
    for x in v[:k]:
        acc += (1.0 - acc) * 0.5 * (1.0 + math.tanh(0.5 * x))
        qs.append(acc)
    adds = [math.exp(_clip(x, _LOG_ADD_CAP)) for x in v[k:2 * k]]
    atom = math.exp(_clip(v[2 * k], _LOG_ATOM_CAP))
    return qs, adds, atom


def _objective(v, k, terms, xi1):
    """Energy at search vector v and its exact gradient in v."""
    qs, adds, atom = _unpack(v, k)
    e, g_qs, g_adds, g_atom = _functional(terms, xi1, qs, adds, atom)
    v = v.tolist()
    grad = [0.0] * (2 * k + 1)
    # dq_i/dv_l = (1 - q_i) u_l for l <= i
    acc = 0.0
    for i in range(k - 1, -1, -1):
        acc += (1.0 - qs[i]) * g_qs[i]
        grad[i] = 0.5 * (1.0 + math.tanh(0.5 * v[i])) * acc
    # the exp of a log parameter is its own derivative, except where clipped
    for i in range(k):
        if _LOG_FLOOR < v[k + i] < _LOG_ADD_CAP:
            grad[k + i] = adds[i] * g_adds[i]
    if _LOG_FLOOR < v[2 * k] < _LOG_ATOM_CAP:
        grad[2 * k] = atom * g_atom
    return e, np.asarray(grad)


def _flat(triple):
    qs, adds, atom = triple
    return (*map(float, qs), *map(float, adds), float(atom))


def _level_starts(k, prev, rng, restarts):
    """Start vectors for level k: the warm split plus stratified randoms."""
    starts = []
    if prev is not None:
        qs0, as0, at0 = prev
        edges = [0.0, *qs0, 1.0]
        widths = [edges[i + 1] - edges[i] for i in range(len(edges) - 1)]
        j = int(np.argmax(widths))
        mid = 0.5 * (edges[j] + edges[j + 1])
        qs1 = np.sort(np.append(qs0, mid))
        # a vanishing add replays the previous optimum exactly, anchoring
        # the non-regression guarantee; it cannot explore, though, since
        # d(energy)/d(log add) -> 0 as the add vanishes
        starts.append(_pack(qs1, np.insert(as0, int(np.searchsorted(qs0, mid)),
                                           1e-18), at0))
        # continuous-branch optima grow by adding rungs pressed toward 1;
        # seed those with real mass taken from the atom so the solver has
        # a gradient to follow
        w = 1.0 - edges[-2]
        for f in (0.5, 0.125, 0.03125):
            if w <= 1e-12:
                break
            mid = 1.0 - w * f
            qs1 = np.sort(np.append(qs0, mid))
            as1 = np.insert(as0, int(np.searchsorted(qs0, mid)), 0.5 * at0)
            starts.append(_pack(qs1, as1, 0.5 * at0))
        # optima whose continuous part lies below the top jump grow by a
        # rung peeled off just under it, taking a sliver of its mass
        if qs0:
            top, under = edges[-2], edges[-3]
            qs1 = [*qs0[:-1], top - 0.2 * (top - under), top]
            as1 = [*as0[:-1], 0.01 * as0[-1], 0.99 * as0[-1]]
            starts.append(_pack(qs1, as1, at0))
    for r in range(restarts):
        if k == 0:
            starts.append(np.asarray([rng.normal(-1.0, 1.0)]))
            continue
        if r % 2 == 0:
            qs = np.sort(rng.uniform(0.02, 0.995, size=k))
        else:
            # half the budget probes overlaps crowding the right endpoint,
            # where the full-type ground states live
            qs = np.sort(1.0 - 10.0 ** rng.uniform(-4.0, -0.05, size=k))
        starts.append(_pack(qs, np.exp(rng.normal(-1.0, 1.0, size=k)),
                            math.exp(rng.normal(-1.0, 0.5))))
    return starts


def _chain(m: Mixture, kmax: int, restarts: int, seed: int):
    rng = np.random.default_rng(seed)
    terms = _xi_terms(m)
    xi1 = xi_deriv(m, 1.0, 1)
    energies: list[float] = []
    triples = []
    for k in range(kmax + 1):
        if k == 0:
            best_e = math.inf
            best_t = None
            best_vec = ()
            starts = [np.asarray([-0.5 * math.log(xi1)])]
            starts += _level_starts(0, None, rng, max(2, restarts // 4))
        else:
            starts = _level_starts(k, triples[k - 1], rng, restarts)
            # the warm split replays the previous optimum, so level k can
            # never regress past float noise even if every solve stalls
            best_e = energies[k - 1] + 1e-15
            best_t = _unpack(starts[0], k)
            best_vec = _flat(best_t)

        opts = {"maxiter": 3000 * (2 * k + 1), **_LBFGSB}
        for v0 in starts:
            res = minimize(_objective, v0, args=(k, terms, xi1), jac=True,
                           method="L-BFGS-B", options=opts)
            # ties broken by the smaller parameter vector, so the pick is a
            # pure function of the start set and not of evaluation order
            cand_t = _unpack(res.x, k)
            cand_vec = _flat(cand_t)
            if (float(res.fun), cand_vec) < (best_e, best_vec):
                best_e = float(res.fun)
                best_t = cand_t
                best_vec = cand_vec
        energies.append(best_e)
        triples.append(best_t)
    measures = tuple(
        StepMeasure(tuple((float(q), float(a)) for q, a in zip(qs, adds)),
                    float(atom))
        for qs, adds, atom in triples)
    return energies, measures


def minimize_k(m: Mixture, k: int, restarts: int = 16, seed: int = 0):
    """Best k-step measure found, as (StepMeasure, energy).

    Runs the whole warm-started chain 0..k, so the result is guaranteed
    not to exceed any lower level's optimum.
    """
    if not 0 <= k <= _KMAX:
        raise ValueError(f"k must lie in 0..{_KMAX}")
    energies, measures = _chain(m, k, restarts, seed)
    return measures[k], energies[k]


@dataclass(frozen=True)
class OracleProfile:
    """Energies E(0..kmax) of the chain and where (if anywhere) it flattens."""

    energies: tuple[float, ...]
    measures: tuple[StepMeasure, ...]
    saturation: int | None
    tag: str


def oracle_profile(m: Mixture, kmax: int, restarts: int = 16, seed: int = 0,
                   gap_tol: float = 1e-6) -> OracleProfile:
    """Run the chain to kmax and report the first level whose successor
    stops improving by more than gap_tol; no such level means the profile
    looks like a continuous (full-type) ground state."""
    if not 0 <= kmax <= _KMAX:
        raise ValueError(f"kmax must lie in 0..{_KMAX}")
    energies, measures = _chain(m, kmax, restarts, seed)
    sat = None
    for k in range(len(energies) - 1):
        if energies[k + 1] >= energies[k] - gap_tol:
            sat = k
            break
    tag = "full-like" if sat is None else f"saturates at {sat}"
    return OracleProfile(tuple(energies), measures, sat, tag)
