"""Zero-temperature structure of spherical two-exponent spin-glass models.

The package answers, for a mixture lam*x**p + (1-lam)*x**s, which
replica-symmetry-breaking structure the ground state carries, constructs
the optimal measure explicitly, evaluates its energy, and certifies the
answer twice: against the first-order optimality conditions and against
a structure-blind variational search.
"""
from .criteria import (Landmarks, QuadraticRoots, c_log, eval_aux, eval_h1,
                       eval_h2, f12, landmarks, lambda_stars, psi, s_roots,
                       solve_z, zeta)
from .energy import VerificationReport, cs_energy, g_of, verify_parisi
from .measure import (ParisiMeasure, Segment, build_1rsb, build_2rsb,
                      build_mixed, build_rs, density, from_json_dict,
                      tail_mass, to_json_dict, wtilde)
from .mixture import Mixture, make_mixture, xi_deriv
from .oracle import (OracleProfile, StepMeasure, minimize_k, oracle_profile,
                     step_energy)
from .phases import (Classification, PhaseBoundaries, Regime, boundaries,
                     boundary_lambdas, classify, interval_phase, regime)

__version__ = "0.1.0"

__all__ = [
    "Mixture", "make_mixture", "xi_deriv",
    "Landmarks", "QuadraticRoots", "c_log", "solve_z", "zeta", "psi",
    "lambda_stars", "s_roots", "f12", "eval_h1", "eval_h2", "eval_aux",
    "landmarks",
    "ParisiMeasure", "Segment", "wtilde", "tail_mass", "density",
    "build_rs", "build_1rsb", "build_2rsb", "build_mixed", "to_json_dict",
    "from_json_dict",
    "VerificationReport", "cs_energy", "g_of", "verify_parisi",
    "StepMeasure", "OracleProfile", "step_energy", "minimize_k",
    "oracle_profile",
    "Regime", "PhaseBoundaries", "Classification", "regime", "boundaries",
    "classify", "boundary_lambdas", "interval_phase",
    "__version__",
]
