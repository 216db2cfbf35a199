"""Test-session setup.

scipy's L-BFGS-B calls into OpenBLAS, which runs several times slower
with more than one thread whenever another process keeps a core busy, so
the suite runs BLAS single-threaded unless the environment says
otherwise. OpenBLAS reads the variable once, when numpy first loads it,
so the pin only holds if nothing has imported numpy before this file.
"""
import os
import sys

if "numpy" in sys.modules:
    raise RuntimeError("numpy was loaded before the OpenBLAS thread pin")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
