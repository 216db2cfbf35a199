import numpy as np

from parisi_zero import (build_mixed, classify, cs_energy, g_of, make_mixture,
                         verify_parisi, xi_deriv)

# The certificate behind every classification: a function g built from
# the candidate measure that must vanish on the support and stay
# nonnegative everywhere else. Watch it do both at a fully continuous
# point, then watch it fail on a deliberately wrong measure.

m = make_mixture(2, 4, 0.95)
nu = build_mixed(m, 0.0, 1.0)
e = cs_energy(m, nu)

# For the fully continuous measure the energy collapses to the integral
# of sqrt(xi''), a closed form worth checking against a 200-node
# Gauss-Legendre rule on [0, 1].
nodes, weights = np.polynomial.legendre.leggauss(200)
ref = 0.5 * weights @ np.sqrt(xi_deriv(m, 0.5 * (nodes + 1.0), 2))
print(f"continuous phase at (2, 4, 0.95):")
print(f"  functional energy   {e:.15f}")
print(f"  integral sqrt(xi'') {ref:.15f}")
print(f"  difference          {abs(e - ref):.2e}")

us = np.linspace(0.0, 1.0, 2001)
gs = g_of(m, nu, us)
print(f"  g on [0,1]: min {gs.min():+.3e}  max {gs.max():+.3e}  (support is everything)")
print()

# Now a one-step point. The support is {0} and the atom, so g must be
# zero at the ends and strictly positive in between.
c = classify(4, 18, 0.5)
m1 = make_mixture(4, 18, 0.5)
gs = g_of(m1, c.measure, us)
interior = gs[1:-1]
print(f"one-step phase at (4, 18, 0.5): energy {c.energy:.15f}")
print(f"  g(0)={gs[0]:+.2e}  g(1)={gs[-1]:+.2e}  interior min {interior.min():+.3e}")
print()

# Feed the verifier a corrupted measure: scale the atom by 10 percent.
bad = type(c.measure)(segments=c.measure.segments, atom=1.1 * c.measure.atom)
rep = verify_parisi(m1, bad)
print("verifier on a 10 percent heavier atom:")
print(f"  normalization error {rep.normalization_error:.3e}  passed={rep.passed}")
