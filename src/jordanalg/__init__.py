"""Exact-arithmetic toolkit for finite-dimensional Jordan algebras.

Algebras are given by rational structure constants; the package computes
the invariant suite (powers, annihilator, radical, derivations, second
cohomology, Peirce decompositions, subalgebra embeddings) and verifies the
bundled catalog of low-dimensional Jordan algebras, certifying that its
four-dimensional entries are pairwise non-isomorphic.
"""

from .algebra import (
    Algebra,
    AlgebraError,
    associator,
    change_basis,
    check_isomorphism,
    direct_sum,
    find_identity,
    is_associative,
    is_commutative,
    is_jordan,
    jordan_violation,
    matrix_algebra,
    multiply,
    plus_algebra,
    product_span,
    unitalization,
)
from .catalog import (
    CatalogEntry,
    CatalogError,
    load_catalog,
    parse_catalog,
    resolve,
    resolve_all,
    serialize,
    verify_catalog,
)
from .cohomology import CocycleSpace, cocycle_space, coboundary, null_extension
from .invariants import (
    Fingerprint,
    PowerProfile,
    annihilator,
    derivation_dim,
    fingerprint,
    induced_algebra,
    is_ideal,
    is_nilpotent,
    nilpotency_type,
    power_profile,
    quotient_algebra,
    radical,
    radical_split,
    trace_form,
    trace_rank,
)
from .peirce import PeirceDecomposition, is_idempotent, peirce_multi, peirce_single
from .polysolve import (
    B2Result,
    GroebnerResult,
    Polynomial,
    PolySystem,
    buchberger,
    embeds_b2,
    has_solution,
)
from .ratlin import Matrix, Rational, Subspace, kernel, rref, solve

__version__ = "0.1.0"
