"""eflab: a numerical laboratory for the explicit formula of the Riemann zeta
function and the p-adic conductor operator.

Every identity is verified by computing each side independently: zero-side
sums over certified tables of critical-line ordinates against local terms at
the real and prime places, each local term itself available by several
equivalent routes (finite integrals, series, finite-part integrals, vertical
contour integrals, additive-convolution shell sums).
"""

from .errors import (AdmissibilityError, CertificationError, ConvergenceError,
                     DomainError, ParseError, PoleError)
from .special import (EULER_GAMMA, Place, digamma, gamma_factor, is_prime,
                      lambda_factor, log_gamma)
from .testfn import (BumpCombination, LogGridFunction, StepFunction,
                     TestFunction, autocorrelate, bump, derivation_D,
                     mconvolve, parse_test_function)
from .zeta import (VonMangoldtSieve, ZeroTable, find_zeros, hardy_z,
                   lambda_von_mangoldt, psi_sum, read_zero_table, rs_theta,
                   write_zero_table, zero_count, zeta_em)
from .weil import (EFReport, PlaceTermReport, explicit_formula_check,
                   local_term, place_term_report, positivity_q, reciprocal_zero_sum,
                   reciprocal_zero_sum_modulus, symmetry_shift, v_p_sum,
                   vonmangoldt_check, w_field, w_p, w_p_contour, w_r,
                   zero_side_sum)
from .padic import (GAUSSIAN, ConductorMatrix, LevelFunction, RealTestInput,
                    ShellFunction, additive_character, commutation_check,
                    conductor_apply, cusp_project, cuspidal_spectrum,
                    fourier_level, g_apply, gamma_identity_check, haran_term,
                    inversion, lift_radial, mellin_fourier_check)

__version__ = "0.1.0"
