"""Exact lattice-point counting and Ehrhart quasi-polynomial tooling.

The package constructs rational polytope families with prescribed
coefficient-period behaviour, counts lattice points in their integer
dilates exactly, reconstructs the dilate-count quasi-polynomials, and
verifies period sequences, face-index bounds and the algebraic
identities relating the families. All arithmetic is exact rational.
"""

from .counting import count, count_convex, count_union, fitted, kernel_name
from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    EhrhartError,
    Infeasible,
    NotAvailable,
    SizeMismatch,
    UnverifiedSolution,
    VerificationFailed,
)
from .indices import IndexSequence, McMullenReport, chain_check, index_sequence, mcmullen_check
from .linalg import AffineSubspace, Rational, min_dilate_with_lattice_point
from .polytope import (
    ConvexPolytope,
    PolytopalUnion,
    denominator,
    faces,
    from_vertices,
    is_integral,
    product,
)
from .pte import PteSolution, power_sum, product_identity_check, table_lookup
from .quasipoly import QuasiPolynomial, coefficient_period, equivalent, fit, negate, period_sequence
from .series import EhrhartSeries, from_quasipolynomial, pyramid_transform, series_equivalent

__version__ = "0.1.0"
