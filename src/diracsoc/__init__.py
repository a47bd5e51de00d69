"""Numerical toolkit for the stochastic-optimal-control route to the
Dirac equation: exact gamma-matrix algebra, the second-order proper-time
operator and its first-order factorization, plane-wave dispersion and
mode evolution, the optimal control law, and the complex controlled
diffusion -- each with machine-checkable identities.
"""

from .clifford import DIRAC, METRIC_DIAG, GammaSet, mdot
from .constants import PhysicalConstants
from .emfield import (PotentialSpec, constant_electric, constant_magnetic,
                      constant_potential, custom_polynomial, custom_wave,
                      em_plane_wave, evaluate_potential, field_strength, free,
                      lorenz_residual, spin_coupling_matrix)
from .grid import (Field, SpacetimeGrid, dalembertian, l2norm, partial, plane_wave,
                   random_band_limited)
from .operators import (SampledPotential, build_spinor, dirac_apply, factored_rhs,
                        factorization_discrepancy, fock_rhs, gauge_discrepancy_prediction,
                        kg_residual_componentwise, legacy_factored_rhs)
from .soc import (BATTERY, DiffusionCoefficients, EnsembleParams, TrajectoryEnsemble,
                  accumulate_action, generator_check, hjb_residual_mode, hopf_cole_check,
                  hopf_cole_exponential_error, make_diffusion, optimal_control_mode,
                  run_generator_battery, simulate, weak_condition_residual, zero_diffusion)
from .spectrum import (delta_sweep, dispersion_solve, fit_mode_frequency, legacy_mode_condition,
                       matrix_nullspace, nullspace_spinors, propertime_evolve)

__version__ = "0.1.0"
