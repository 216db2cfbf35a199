"""The reference computation that the end-to-end cost is measured in.

    python3 perfbench/probe.py      # what `Sampler` starts; not run by hand

The host is shared, and its speed moves by a third or more from one
minute to the next, CPU time included: neighbours slow the cores down,
they do not only take them away. Each of the two cores of the VM the
benchmark was built on (an Intel Xeon) changes speed on its own, within
a second, between about 33, 55 and 90 ms for one `reference()` call.
So the benchmark runs this fixed computation next to the work it
measures, on the same core and over the same seconds, and reports the
work's CPU time as a multiple of it. Both slow down together, and the
ratio stays put.

The computation does what the package does most, with none of the
package's code: root finding on a function evaluated over a 2049-point
grid, a small Nelder-Mead minimisation, adaptive quadrature, and plain
interpreted arithmetic. It does not change when the package does, so a
faster package shows as a smaller ratio.

`Sampler` pins the calling process to one core and starts this file as a
process on that core at nice 10. Next to a busy process it gets about a
tenth of the core in short slices, so each call is spread over half a
second or so of the measured work, and `cpu_at` gives the reference's
CPU time at any moment of it. Children the caller starts (the CLI and
its pool workers) inherit the pin.
"""
from __future__ import annotations

import os
import subprocess
import sys
import time

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq, minimize

NICENESS = 10
_X = np.linspace(0.0, 1.0, 2049)


def _moment(c):
    return float(np.trapezoid(np.exp(-c * _X) * _X ** 2, _X)) - 0.2


def _bowl(v):
    return float(np.sum((v - 0.3) ** 2) + np.sum(np.cos(3 * v)) ** 2)


def reference():
    """One unit of reference work; returns a number so nothing is skipped."""
    acc = 0.0
    for i in range(8):
        acc += brentq(_moment, -5.0, 10.0, xtol=1e-13)
        acc += minimize(_bowl, np.full(3, 0.1 * i), method="Nelder-Mead").fun
        acc += quad(lambda t: np.exp(-t * t) * (1 + i * t), 0.0, 3.0)[0]
        acc += sum(k * 0.5 for k in range(4000))
    return acc


class Sampler:
    """Time `reference()` on the caller's core while the block runs.

    On exit, `samples` holds (start, end, CPU seconds) of every call that
    started inside the block (at least one). The process is stopped and
    reaped, and the caller's own cores given back, on every way out of
    the block."""

    def __init__(self):
        self.samples = []
        self._proc = None
        self._cores = os.sched_getaffinity(0)

    def mean_cpu(self):
        return sum(c for _, _, c in self.samples) / len(self.samples)

    def cpu_at(self, t0, t1):
        """CPU seconds of one reference call while [t0, t1] ran: the mean
        over the calls that overlap it, weighted by the overlap (the mean
        of all calls if none does)."""
        num = den = 0.0
        for start, end, cpu in self.samples:
            w = min(end, t1) - max(start, t0)
            if w > 0:
                num, den = num + w * cpu, den + w
        return num / den if den > 0 else self.mean_cpu()

    def __enter__(self):
        self._proc = subprocess.Popen([sys.executable, __file__],
                                      stdout=subprocess.PIPE, text=True)
        try:
            # the import runs before the pin, on whichever core is free
            if self._proc.stdout.readline() != "ready\n":
                raise RuntimeError("the reference process did not start")
            core = min(os.sched_getaffinity(0))
            os.sched_setaffinity(0, {core})
            os.sched_setaffinity(self._proc.pid, {core})
        except BaseException:
            self._stop()
            raise
        self._t0 = time.perf_counter()
        return self

    def _stop(self):
        self._proc.terminate()
        self._proc.communicate()
        os.sched_setaffinity(0, self._cores)

    def __exit__(self, *exc):
        # let the call in progress finish (it ran next to the block as
        # well), and one more if none started inside the block
        t1 = time.perf_counter()
        try:
            for line in self._proc.stdout:
                start, end, cpu = map(float, line.split())
                if start >= self._t0:
                    self.samples.append((start, end, cpu))
                if end > t1 and self.samples:
                    break
        finally:
            self._stop()
        return False


def main():
    parent = os.getppid()
    os.nice(NICENESS)
    reference()  # warm: first-call imports and caches stay out of the samples
    print("ready", flush=True)
    while os.getppid() == parent:  # a parent that died unclean ends it too
        t0, c0 = time.perf_counter(), time.process_time()
        reference()
        c1, t1 = time.process_time(), time.perf_counter()
        print(f"{t0!r} {t1!r} {c1 - c0!r}", flush=True)


if __name__ == "__main__":
    main()
