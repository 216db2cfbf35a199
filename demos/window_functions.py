import numpy as np

from parisi_zero import (eval_h1, eval_h2, landmarks, lambda_stars,
                        make_mixture, psi, s_roots, zeta)

# The phase decision rests on a few scalar functions of x in (0, 1).
# eval_h1 and eval_h2 each return a pair of window components whose
# sign patterns pick the structure; zeta integrates the first family
# against the curvature weight and its maximum decides whether a
# one-step measure survives.

m = make_mixture(4, 38, 0.985)
print(f"window functions for (4, 38, {m.lam}):")
print(f"{'x':>6s} {'h11':>13s} {'h21':>13s} {'h12':>13s} {'h22':>13s} {'zeta':>13s}")
for x in np.linspace(0.05, 0.999, 12):
    h11, h21 = eval_h1(m, x)
    h12, h22 = eval_h2(m, x)
    print(f"{x:6.3f} {h11:13.5e} {h21:13.5e} {h12:13.5e} {h22:13.5e} {zeta(m, x):13.5e}")
print()

lm = landmarks(m)
print("landmarks (t's window and the second pair's roots, None when absent):")
for name in ("qbar1", "qbar2", "q12", "q22"):
    print(f"  {name:<6s} {getattr(lm, name)}")
print()

# Two quadratics in lam control the outermost boundary. lambda_stars
# brackets where the zeta bump can live, s_roots marks where the
# full-type band opens and closes.
for label, qr in [("lambda_stars", lambda_stars(4, 38)), ("s_roots", s_roots(4, 38))]:
    lo, hi = qr.roots
    print(f"{label}(4, 38): roots = ({lo:.15f}, {hi:.15f})")

# psi is the signed criterion whose zero crossing between the stars IS
# the one-step boundary; watch it change sign.
print()
print("psi across the top of the (4, 38) family:")
for lam in (0.985, 0.9899796410415966, 0.995):
    print(f"  lam={lam:.12f}  psi={psi(4, 38, lam):+.6e}")
