"""Exact arithmetic for rational Cherednik algebras of rank <= 2.

Dunkl operators, standard (Verma-type) lowest-weight modules, the
contravariant form, and the finite-dimensionality classification of the
simple quotients, over the root systems A1, A2, B2, G2 — all in exact
rational (or quadratic-extension) arithmetic.  No floats anywhere.
"""

from .errors import InvariantViolation, NonDivisibleError
from .scalars import Rat, rat, QuadExt
from .polynomials import ParamPoly, PP_K1, PP_K2
from .rootsystem import build_root_system
from .wrep import get_irrep
from .dunkl import dunkl_apply, lowest_weight_scalar, sl2_calibration
from .verma import VermaModule, ClassifyResult, classify, standard_module
from .rank2 import (f_power_image, f_power_image_closed, f_power_image_direct,
                    check_kappa_factorization, finite_dim_table,
                    evaluate_at_couplings)

__version__ = "0.1.0"

__all__ = [
    "InvariantViolation", "NonDivisibleError",
    "Rat", "rat", "QuadExt", "ParamPoly", "PP_K1", "PP_K2",
    "build_root_system", "get_irrep", "dunkl_apply", "lowest_weight_scalar",
    "sl2_calibration",
    "VermaModule", "ClassifyResult", "classify", "standard_module",
    "f_power_image", "f_power_image_closed", "f_power_image_direct",
    "check_kappa_factorization", "finite_dim_table", "evaluate_at_couplings",
    "__version__",
]
