"""Generalized inverses and matrix partial orders.

Two scalar backends share one Matrix type: ``exact`` holds Gaussian
rationals, stored as integer numerators over one common denominator, and
compares exactly; ``float`` stores complex doubles and compares in a
relative Frobenius norm.  Everything randomized takes an explicit seed or
``random.Random`` so runs replay exactly.

Importing the package loads none of its modules. ``_HOMES`` names the
module that defines each public name; its first use imports that module
(PEP 562) and returns the module's current attribute, never a copy.
"""

import importlib

_HOMES = {
    "errors": "BackendError DomainError MatOrderError ShapeError",
    "scalars": "GaussianRational gaussian",
    "matrix": "EPS EQ_TOL EXACT FLOAT RANK_FACTOR Matrix block exact_rref "
              "hstack inverse is_zero_matrix matrices_equal matrix_from_dict "
              "matrix_from_json matrix_to_dict matrix_to_json rank vstack",
    "subspaces": "column_space range_sum_check subspace_intersection_dim "
                 "subspace_leq",
    "pinv": "PenroseResiduals inner_inverse is_partial_isometry moore_penrose "
            "penrose_residuals projector_range projector_rowspace",
    "decomp": "CanonicalPair HSForm SVDForm diamond_canonical_pair "
              "hartwig_spindelbock partitioned_mp svd",
    "orders": "DIAMOND_ROUTES RELATIONS OrderReport diamond_via_dagger_minus "
              "diamond_via_range_split diamond_via_rank "
              "idempotent_factor_witness left_star_equivalents leq_diamond "
              "leq_left_star leq_minus leq_right_star leq_space leq_star "
              "projector_transfer right_star_equivalents",
    "predecessors": "PredecessorBundle build_predecessor dagger_isotone "
                    "diamond_predecessor is_bidagger predecessor_mp "
                    "random_idempotent recover_idempotent reverse_order_law",
    "fuzz": "EXACT_PROPERTIES FLOAT_PROPERTIES PropertyResult RunConfig "
            "run_all run_property run_suite",
    "poset": "PosetGraph build_poset to_dot",
}
_HOME = {n: m for m, names in _HOMES.items() for n in names.split()}
__version__ = "0.1.0"
__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    return getattr(importlib.import_module("." + _HOME[name], __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
