"""zerosep: constructive zero separation for algebraic combinations of Euler
products in the half-plane of absolute convergence.

The library builds polynomial combinations of Euler products, steers per-prime
vertical shifts so one combination vanishes while the other provably does not,
converts the steered configuration into a single height by simultaneous
Diophantine approximation, and certifies zeros with winding counts and
explicit truncation budgets.
"""

__version__ = "0.1.0"

from .characters import Character, dirichlet_characters
from .combalg import (AuxiliaryCombination, CombPolynomial, SeparationProblem,
                      build_auxiliary, find_nonvanishing_t0, support_prime)
from .errors import ZerosepError
from .euler import (EulerProductSpec, EvalResult, eval_dirichlet_sum,
                    eval_partial_euler, finite_euler_spec, lfunction_spec,
                    sparse_zeta_spec, zeta_spec)
from .hurwitz import hurwitz_as_combination, hurwitz_eval
from .lattice import (ApproximationResult, almost_periods, simultaneous_approx)
from .locate import (CombEvaluator, ZeroCertificate, certify_noncoincidence,
                     refine_zero, twisted_eval)
from .pfinite import PFiniteSeries
from .pipeline import (PipelineConfig, RunRecord, builtin_config,
                       builtin_problem, export_certificate,
                       run_separation_pipeline)
from .polyzero import (ComplexPolynomial, RoucheCertificate, SeparatingZero,
                       find_separating_zero, rouche_delta, univariate_roots)
from .steering import (PhaseAssignment, SteeringResult, SteeringTarget,
                       SteerOptions, solve_phases, track_zero_in_sigma)

__all__ = [
    "Character", "dirichlet_characters", "AuxiliaryCombination",
    "CombPolynomial", "SeparationProblem", "build_auxiliary",
    "find_nonvanishing_t0", "support_prime", "ZerosepError",
    "EulerProductSpec", "EvalResult", "eval_dirichlet_sum", "eval_partial_euler",
    "finite_euler_spec", "lfunction_spec", "sparse_zeta_spec", "zeta_spec",
    "hurwitz_as_combination", "hurwitz_eval", "ApproximationResult",
    "almost_periods", "simultaneous_approx", "CombEvaluator", "ZeroCertificate",
    "certify_noncoincidence", "refine_zero",
    "twisted_eval", "PFiniteSeries", "PipelineConfig", "RunRecord",
    "builtin_config", "builtin_problem", "export_certificate",
    "run_separation_pipeline", "ComplexPolynomial", "RoucheCertificate",
    "SeparatingZero", "find_separating_zero", "rouche_delta",
    "univariate_roots", "PhaseAssignment", "SteeringResult",
    "SteeringTarget", "SteerOptions", "solve_phases", "track_zero_in_sigma",
]
