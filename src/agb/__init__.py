"""Order-type minimum-distance bounds for one-point evaluation codes.

Compute the per-dimension bound tables, improved-code profiles, and
generalized-Hamming-weight bounds of one-point evaluation codes purely from
Weierstrass-semigroup data, and cross-validate everything against brute-force
truth on small explicitly constructed codes over finite fields.
"""

from .bounds import (BoundTable, GhwTable, LambdaProfile, a_set, bound_table,
                     d_ord, d_star, feng_rao_improved_dim, ghw_bound,
                     ghw_table, goppa_compare, improved_profile, l_set_check,
                     lambda_profile, lambda_star)
from .errors import AgbError
from .evalcode import (EvaluationTable, OnePointCode, biorthogonal_adjust,
                       code, code_chain, empirical_hstar, hermitian_table,
                       improved_generators, load_table, save_table)
from .generic_bound import CodeChain
from .gf import FieldMatrix, FiniteField, field, rref, save_matrix
from .hstar import HStar, HStarMode
from .oracle import (SearchBudget, dual, find_isometry_vector, min_distance,
                     weight_hierarchy)
from .semigroup import NumericalSemigroup

__version__ = "0.1.0"

__all__ = [
    "AgbError",
    "BoundTable",
    "CodeChain",
    "EvaluationTable",
    "FieldMatrix",
    "FiniteField",
    "GhwTable",
    "HStar",
    "HStarMode",
    "LambdaProfile",
    "NumericalSemigroup",
    "OnePointCode",
    "SearchBudget",
    "a_set",
    "biorthogonal_adjust",
    "bound_table",
    "code",
    "code_chain",
    "d_ord",
    "d_star",
    "dual",
    "empirical_hstar",
    "feng_rao_improved_dim",
    "field",
    "find_isometry_vector",
    "ghw_bound",
    "ghw_table",
    "goppa_compare",
    "hermitian_table",
    "improved_generators",
    "improved_profile",
    "l_set_check",
    "lambda_profile",
    "lambda_star",
    "load_table",
    "min_distance",
    "rref",
    "save_matrix",
    "save_table",
    "weight_hierarchy",
]
