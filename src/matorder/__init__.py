"""Generalized inverses and matrix partial orders.

Two scalar backends share one Matrix type: ``exact`` holds Gaussian
rationals, stored as integer numerators over one common denominator, and
compares exactly; ``float`` stores complex doubles and compares in a
relative Frobenius norm.  Everything randomized takes an explicit seed or
``random.Random`` so runs replay exactly.
"""

from .errors import BackendError, DomainError, MatOrderError, ShapeError
from .scalars import GaussianRational, gaussian
from .matrix import (EPS, EQ_TOL, EXACT, FLOAT, RANK_FACTOR, Matrix, block,
                     exact_rref, hstack, inverse, is_zero_matrix,
                     matrices_equal, matrix_from_dict, matrix_from_json,
                     matrix_to_dict, matrix_to_json, rank, vstack)
from .subspaces import (SubspaceBasis, column_space, range_sum_check,
                        subspace_intersection_dim, subspace_leq)
from .pinv import (PenroseResiduals, inner_inverse, is_partial_isometry,
                   moore_penrose, penrose_residuals, projector_range,
                   projector_rowspace)
from .decomp import (CanonicalPair, HSForm, SVDForm, diamond_canonical_pair,
                     hartwig_spindelbock, partitioned_mp, svd)
from .orders import (DIAMOND_ROUTES, RELATIONS, OrderReport,
                     diamond_via_dagger_minus, diamond_via_range_split,
                     diamond_via_rank, idempotent_factor_witness,
                     left_star_equivalents, leq_diamond, leq_left_star,
                     leq_minus, leq_right_star, leq_space, leq_star,
                     projector_transfer, right_star_equivalents)
from .predecessors import (PredecessorBundle, build_predecessor, dagger_isotone,
                           diamond_predecessor, is_bidagger, predecessor_mp,
                           random_idempotent, recover_idempotent,
                           reverse_order_law)
from .fuzz import (EXACT_PROPERTIES, FLOAT_PROPERTIES, PropertyResult,
                   RunConfig, run_all, run_property, run_suite)
from .poset import PosetGraph, build_poset, to_dot

__version__ = "0.1.0"

__all__ = [
    "BackendError", "DomainError", "MatOrderError", "ShapeError",
    "GaussianRational", "gaussian",
    "EPS", "EQ_TOL", "EXACT", "FLOAT", "RANK_FACTOR", "Matrix", "block",
    "exact_rref", "hstack", "inverse", "is_zero_matrix",
    "matrices_equal", "matrix_from_dict", "matrix_from_json",
    "matrix_to_dict", "matrix_to_json", "rank", "vstack",
    "SubspaceBasis", "column_space", "range_sum_check",
    "subspace_intersection_dim", "subspace_leq",
    "PenroseResiduals", "inner_inverse", "is_partial_isometry",
    "moore_penrose", "penrose_residuals", "projector_range",
    "projector_rowspace",
    "CanonicalPair", "HSForm", "SVDForm", "diamond_canonical_pair",
    "hartwig_spindelbock", "partitioned_mp", "svd",
    "DIAMOND_ROUTES", "RELATIONS", "OrderReport",
    "diamond_via_dagger_minus", "diamond_via_range_split",
    "diamond_via_rank", "idempotent_factor_witness",
    "left_star_equivalents", "leq_diamond", "leq_left_star", "leq_minus",
    "leq_right_star", "leq_space", "leq_star", "projector_transfer",
    "right_star_equivalents",
    "PredecessorBundle", "build_predecessor", "dagger_isotone",
    "diamond_predecessor", "is_bidagger", "predecessor_mp",
    "random_idempotent", "recover_idempotent", "reverse_order_law",
    "EXACT_PROPERTIES", "FLOAT_PROPERTIES", "PropertyResult", "RunConfig",
    "run_all", "run_property", "run_suite",
    "PosetGraph", "build_poset", "to_dot",
    "__version__",
]
