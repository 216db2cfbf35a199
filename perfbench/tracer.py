"""Outside-in tracing of parisi_zero: wrappers on module attributes.

Nothing in the package is edited. `Tracer.install()` replaces the
attributes that callers look up at call time with timing wrappers and
`uninstall()` puts the originals back. Two kinds of wrapper exist:

- spans, for calls that are few and coarse (landmarks, boundaries,
  classify, the measure builders, verify_parisi, cs_energy, minimize,
  oracle_profile): each records name, start, end, parent span and the
  id of the benchmark operation it belongs to;
- counted leaves, for the hot calls (xi_deriv, eval_h1/eval_h2, psi,
  solve_z): only a call count and the summed busy time are kept, since
  a span per call would cost more than the call.

Spans stay in memory; `dump()` returns them for writing out at the end.
"""
from __future__ import annotations

import time
from collections import defaultdict

# (module, attribute, span or leaf name). Names imported with
# `from .x import y` are bound in the importing module, so the wrapper
# goes on the importing module's attribute.
SPANS = [
    ("phases", "classify", "phases.classify"),
    ("phases", "boundaries", "phases.boundaries"),
    ("criteria", "landmarks", "criteria.landmarks"),
    ("phases", "verify_parisi", "energy.verify_parisi"),
    ("phases", "cs_energy", "energy.cs_energy"),
    ("phases", "build_rs", "measure.build"),
    ("phases", "build_1rsb", "measure.build"),
    ("phases", "build_2rsb", "measure.build"),
    ("phases", "build_2frsb", "measure.build"),
    ("phases", "build_1frsb", "measure.build"),
    ("phases", "build_frsb", "measure.build"),
    ("oracle", "minimize", "oracle.minimize"),
    ("oracle", "oracle_profile", "oracle.oracle_profile"),
    ("cli", "classify", "phases.classify"),
    ("cli", "boundaries", "phases.boundaries"),
    ("cli", "oracle_profile", "oracle.oracle_profile"),
    ("cli", "verify_parisi", "energy.verify_parisi"),
]
LEAVES = [
    ("mixture", "xi_deriv", "mixture.xi_deriv"),
    ("criteria", "xi_deriv", "mixture.xi_deriv"),
    ("measure", "xi_deriv", "mixture.xi_deriv"),
    ("energy", "xi_deriv", "mixture.xi_deriv"),
    ("oracle", "xi_deriv", "mixture.xi_deriv"),
    ("phases", "xi_deriv", "mixture.xi_deriv"),
    ("criteria", "eval_h1", "criteria.eval_h"),
    ("criteria", "eval_h2", "criteria.eval_h"),
    ("criteria", "psi", "criteria.psi"),
    ("criteria", "solve_z", "criteria.solve_z"),
]


def _attrs_for(name, args, result, cold):
    """Facts a span keeps about its call, read from arguments and result;
    `cold` says whether a cached call missed its cache."""
    if name == "phases.boundaries":
        return {"family": list(args[:2]), "regime": result.regime.tag,
                "cold": cold}
    if name == "phases.classify":
        return {"phase": result.phase, "detail": result.detail,
                "passed": bool(result.report and result.report.passed)}
    if name == "oracle.minimize":
        return {"nfev": int(result.nfev)}
    if name == "energy.verify_parisi":
        return {"passed": bool(result.passed)}
    return None


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id, attrs]
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self._stack = []
        self._op = None
        self._saved = []

    # -- operations ---------------------------------------------------------

    def begin_op(self, op_id, label):
        """Open the root span of one benchmark operation."""
        self._op = op_id
        self._open("op", {"label": label})

    def end_op(self):
        self._close(self._stack[-1], None)
        self._op = None

    # -- spans ----------------------------------------------------------------

    def _open(self, name, attrs):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._op,
                           attrs])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx, attrs):
        span = self.spans[idx]
        span[2] = time.perf_counter()
        if attrs:
            span[5] = {**(span[5] or {}), **attrs}
        self._stack.pop()

    def _span(self, name, fn):
        cache_info = getattr(fn, "cache_info", None)

        def wrapper(*args, **kwargs):
            misses = cache_info().misses if cache_info else None
            idx = self._open(name, None)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                cold = (cache_info().misses > misses) if cache_info else None
                self._close(idx, result is not None
                            and _attrs_for(name, args, result, cold))
        wrapper.__wrapped__ = fn
        return wrapper

    def _leaf(self, name, fn):
        calls, busy, clock = self.calls, self.busy, time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                busy[name] += clock() - t0
                calls[name] += 1
        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self, modules):
        """Wrap every listed attribute of the given {short name: module}."""
        for table, make in ((SPANS, self._span), (LEAVES, self._leaf)):
            for mod_name, attr, name in table:
                mod = modules.get(mod_name)
                if mod is None or not hasattr(mod, attr):
                    continue
                orig = getattr(mod, attr)
                self._saved.append((mod, attr, orig))
                setattr(mod, attr, make(name, orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()

    def reset(self):
        """Forget what was recorded; a forked child starts its own trace."""
        self.spans.clear()
        self.calls.clear()
        self.busy.clear()
        self._stack.clear()

    def dump(self):
        return {"spans": self.spans, "calls": dict(self.calls),
                "busy": dict(self.busy)}


def package_modules():
    from parisi_zero import (cli, criteria, energy, measure, mixture, oracle,
                             phases)
    return {"cli": cli, "criteria": criteria, "energy": energy,
            "measure": measure, "mixture": mixture, "oracle": oracle,
            "phases": phases}
