"""Genus-two sextics, their Satake sextics, and K3 elliptic fibrations.

Exact (arbitrary-precision rational) implementations of the Igusa-Clebsch
invariants, the even Siegel modular form dictionary, the Satake sextic
with its discriminant identity, the explicit moduli map on absolute
invariants, and the four Jacobian elliptic fibrations on the associated
Kummer and Shioda-Inose K3 surfaces with Kodaira fiber classification,
plus numeric genus-two theta constants tying the two worlds together.
"""

from .errors import (DegeneratePointError, DomainError, G2SatakeError,
                     IdentityViolationError, InversionSingularError,
                     NonMinimalModelError, ProductLocusError, RootFindingError)
from .fibrations import (FiberCensus, FibrationParams, KodairaFiber,
                         QuarticModel, WeierstrassModel, alternate_model,
                         alternate_model_ftheory, classify_fibers,
                         degeneration_predicates, dual_isogeny, isogeny,
                         kodaira_type, kumfib2_model, kummer_quartic_model,
                         nikulin_involution, qvanish_bracket, qvanish_identity,
                         radicand, recovered_sextic, standard_model,
                         type_iii_bracket, type_iii_siegel_identity)
from .igusa import (AbsoluteInvariants, DerivedForms, IgusaInvariants,
                    SiegelForms, absolute_invariants, chi35_squared,
                    derived_forms, humbert_predicates, igusa_from_absolute,
                    igusa_from_rosenhain, igusa_from_sextic, igusa_from_siegel,
                    q_form, rosenhain_poly, siegel_from_igusa)
from .qpoly import (EpsSeries, GaussianRational, Poly, discriminant,
                    laurent_limit, poly_gcd, resultant,
                    squarefree_decomposition)
from .roots import complex_roots, gaussian_roots
from .satake import (PhiResult, PowerSums, complete_bell, igusa_from_power_sums,
                     phi_map, power_sums_from_igusa, is_rational_square,
                     reconstruct_from_satake_roots, satake_discriminant_identity,
                     satake_sextic, satake_sextic_from_siegel,
                     theta_power_sum_consistency)
from .theta import (EVEN_CHARACTERISTICS, ODD_CHARACTERISTICS, PeriodMatrix,
                    SatakeCoordinates, ThetaConstants, check_frobenius,
                    even_theta_constants, rosenhain_from_theta,
                    rosenhain_from_theta4, satake_from_theta, theta_constant,
                    theta4_from_satake)

__version__ = "0.1.0"
