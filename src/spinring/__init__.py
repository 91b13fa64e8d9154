"""Exact workbench for the cohomology rings of genus-2 spin-curve moduli.

The package bundles a small exact computer-algebra kernel (sparse rational
polynomials, Buchberger's algorithm, Artinian quotients with integration)
with the built-in presentations of the even and odd spin components and a
verification suite replaying every recorded claim about them.
"""

from .groebner import GroebnerBasis, Ideal, buchberger, is_member, normal_form, s_polynomial
from .parser import ParseError, parse_polynomial, parse_ring_file
from .poly import GREVLEX, ContextMismatch, Polynomial, RingContext, RingError
from .quotient import (
    DegreeError,
    NonArtinianError,
    PointNormalization,
    build_quotient,
    hilbert_function,
    integrate,
    multiplication_matrix,
    pairing_matrix,
    rank,
)
from .spindomain import (
    COMPONENTS,
    EXPECTED_HODGE,
    GRAPH_NODE_COUNTS,
    GRAPH_TYPES,
    ODD_CUBIC_RELATIONS,
    base_class,
    base_context,
    base_intersections,
    boundary_product_relation,
    boundary_sum,
    builtin,
    covering_degree_check,
    groebner_basis,
    hodge_diamond,
    lambda_class,
    lambda_d1_relation,
    lambda_on_base,
    pullback,
    quotient_ring,
    strata,
    verify,
)

__version__ = "0.1.0"

__all__ = [
    "COMPONENTS",
    "ContextMismatch",
    "DegreeError",
    "EXPECTED_HODGE",
    "GRAPH_NODE_COUNTS",
    "GRAPH_TYPES",
    "GREVLEX",
    "GroebnerBasis",
    "Ideal",
    "NonArtinianError",
    "ODD_CUBIC_RELATIONS",
    "ParseError",
    "PointNormalization",
    "Polynomial",
    "RingContext",
    "RingError",
    "base_class",
    "base_context",
    "base_intersections",
    "boundary_product_relation",
    "boundary_sum",
    "buchberger",
    "build_quotient",
    "builtin",
    "covering_degree_check",
    "groebner_basis",
    "hilbert_function",
    "hodge_diamond",
    "integrate",
    "is_member",
    "lambda_class",
    "lambda_d1_relation",
    "lambda_on_base",
    "multiplication_matrix",
    "normal_form",
    "pairing_matrix",
    "parse_polynomial",
    "parse_ring_file",
    "pullback",
    "quotient_ring",
    "rank",
    "s_polynomial",
    "strata",
    "verify",
]
