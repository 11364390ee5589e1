"""Exact arithmetic for rational Cherednik algebras of rank <= 2.

Dunkl operators, standard (Verma-type) lowest-weight modules, the
contravariant form, and the finite-dimensionality classification of the
simple quotients, over the root systems A1, A2, B2, G2 — all in exact
rational (or quadratic-extension) arithmetic.  No floats anywhere.
"""

from .errors import InvariantViolation, NonDivisibleError
from .scalars import (Rat, rat, is_nonneg_int, QuadExt, SQRT3, ParamPoly,
                      PP_K1, PP_K2)
from .polynomials import (MPoly, monomials, weyl_act, div_linear, reynolds,
                          clear_content)
from .rootsystem import RootSystem, build_root_system, hbar_poly, kappa_poly
from .wrep import (Irrep, irreps, irreps_for, get_irrep, tensor_one_dim,
                   twist_couplings)
from .dunkl import (poly_coords, coords_poly, dunkl_apply, lowering_matrix,
                    b_lowering_matrix, e_mult_matrix, f_matrix,
                    reflection_sum_scalar, lowest_weight_scalar,
                    sl2_calibration)
from .verma import (VermaModule, ClassifyResult, EPowerResult, classify,
                    standard_module, DEFAULT_SCAN_BOUND)
from .rank2 import (f_power_image, f_power_image_closed, f_power_image_direct,
                    kappa_factor, kappa_factor_at_critical,
                    kappa_factor_conjectured, check_kappa_factorization,
                    FactorizationReport, very_singular, VerySingularResult,
                    finite_dim_table, singular_reference,
                    evaluate_at_couplings, table_variables)

__version__ = "0.1.0"

__all__ = [
    "InvariantViolation", "NonDivisibleError",
    "Rat", "rat", "is_nonneg_int", "QuadExt", "SQRT3", "ParamPoly",
    "PP_K1", "PP_K2",
    "MPoly", "monomials", "weyl_act", "div_linear", "reynolds",
    "clear_content",
    "RootSystem", "build_root_system", "hbar_poly", "kappa_poly",
    "Irrep", "irreps", "irreps_for", "get_irrep", "tensor_one_dim",
    "twist_couplings",
    "poly_coords", "coords_poly", "dunkl_apply", "lowering_matrix",
    "b_lowering_matrix", "e_mult_matrix", "f_matrix",
    "reflection_sum_scalar", "lowest_weight_scalar", "sl2_calibration",
    "VermaModule", "ClassifyResult", "EPowerResult", "classify",
    "standard_module", "DEFAULT_SCAN_BOUND",
    "f_power_image", "f_power_image_closed", "f_power_image_direct",
    "kappa_factor", "kappa_factor_at_critical", "kappa_factor_conjectured",
    "check_kappa_factorization", "FactorizationReport", "very_singular",
    "VerySingularResult", "finite_dim_table", "singular_reference",
    "evaluate_at_couplings", "table_variables",
    "__version__",
]
