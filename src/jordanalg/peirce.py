"""Peirce decompositions relative to one idempotent or an orthogonal family.

For a single idempotent e the eigenspaces of L_e for the eigenvalues 0, 1/2
and 1 are computed as kernels; no other eigenvalue can occur in a Jordan
algebra, which is detected by a dimension count rather than root finding.
The grid decomposition relative to pairwise orthogonal idempotents summing
to the identity follows the same pattern.  One law checks both: the single
decomposition is the grid of the family (1 - e, e), and the multiplication
rules between its components are verified, any violation raising.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .algebra import (
    Algebra,
    AlgebraError,
    NonJordanError,
    _int_products,
    find_identity,
    is_jordan,
    product_span,
)
from .ratlin import (
    HALF, ONE, ZERO, Subspace, Vector, _int_kernel, _int_vec, _pairs, is_zero_vec, rat, vec,
)


class NotIdempotentError(AlgebraError):
    pass


class PeirceSpectrumError(AlgebraError):
    pass


class PeirceRuleError(AlgebraError):
    pass


EIGENVALUES = (Fraction(1), HALF, Fraction(0))


@dataclass(frozen=True)
class PeirceDecomposition:
    """Eigenspace components: keyed by eigenvalue (single e) or (i, j) (grid)."""

    idempotents: tuple[Vector, ...]
    components: dict


def is_idempotent(a: Algebra, e: Sequence[Fraction]) -> bool:
    e = vec(e)
    return not is_zero_vec(e) and a.mul(e, e) == e


def eigenspace(a: Algebra, e: Sequence[Fraction], lam: Fraction) -> Subspace:
    """Kernel of L_e - lam * id, from the integer rows q * D * den * (L_e - lam),
    lam = p/q, D the lcm of the denominators of e (`_int_vec`) and den that
    of the structure constants."""
    n = a.dim
    if len(e) != n:
        raise AlgebraError("element dimension mismatch")
    lam = rat(lam)
    d, e = _int_vec(vec(e))
    p, q = lam.numerator, lam.denominator
    # column j is den D e b_j; row k, column j: its coordinate k, less lam at k == j
    cols = _int_products(a, [e], [[int(i == j) for i in range(n)] for j in range(n)])
    rows = [[q * col[k] for col in cols] for k in range(n)]
    for k in range(n):
        rows[k][k] -= p * d * a._int_structure[0]
    return Subspace.span(n, _int_kernel(map(_pairs, rows), n))


def _check_peirce_law(a: Algebra, comps: dict) -> None:
    """The Peirce multiplication law (Jacobson) on components keyed (i, j),
    i <= j, each given as (name, Subspace): J_ij*J_jk <= J_ik,
    J_ij*J_ij <= J_ii + J_jj, and J_ij*J_kl = 0 for disjoint {i, j} and
    {k, l}.  A commutative product needs each unordered pair once."""
    keys = list(comps)
    for x, p in enumerate(keys):
        for q in keys[x:]:
            shared = set(p) & set(q)
            if len(shared) == 2:  # p == q, i < j
                bound = [(i, i) for i in p]
            elif shared:
                (s,) = shared
                # the index of each pair besides the shared one
                u, v = sum(p) - s, sum(q) - s
                bound = [(min(u, v), max(u, v))]
            else:
                bound = []
            got = product_span(a, comps[p][1], comps[q][1])
            if not bound:
                ok, rule = got.dim == 0, "= 0"
            else:
                space = comps[bound[0]][1]
                if len(bound) == 2:
                    space = space.add(comps[bound[1]][1])
                ok, rule = space.contains(got), "<= " + "+".join(comps[b][0] for b in bound)
            if not ok:
                raise PeirceRuleError(f"Peirce rule violated: {comps[p][0]}*{comps[q][0]} {rule}")


# J_1, J_0 and J_1/2 of e are the components (1, 1), (0, 0) and (0, 1) of
# the family (1 - e, e); this order names the products J1*J0 and J0*J1/2
_SINGLE_GRID = {(1, 1): (ONE, "J1"), (0, 0): (ZERO, "J0"), (0, 1): (HALF, "J1/2")}


def peirce_single(a: Algebra, e: Sequence[Fraction]) -> PeirceDecomposition:
    """Decomposition J = J_1 + J_1/2 + J_0 relative to an idempotent e."""
    if not is_jordan(a):
        raise NonJordanError("Peirce decomposition requires a Jordan algebra")
    e = vec(e)
    if not is_idempotent(a, e):
        raise NotIdempotentError("element is not a nonzero idempotent")
    spaces = {lam: eigenspace(a, e, lam) for lam in EIGENVALUES}
    if sum(s.dim for s in spaces.values()) != a.dim:
        raise PeirceSpectrumError("not a Jordan Peirce spectrum: eigenvalue outside {0, 1/2, 1}")
    _check_peirce_law(a, {k: (name, spaces[lam]) for k, (lam, name) in _SINGLE_GRID.items()})
    return PeirceDecomposition((e,), spaces)


def peirce_multi(a: Algebra, es: Sequence[Sequence[Fraction]]) -> PeirceDecomposition:
    """Grid decomposition J = sum J_ij relative to orthogonal idempotents.

    Requires the idempotents to be pairwise orthogonal and to sum to the
    identity of `a`.  Components are keyed by (i, j) with i <= j indexing
    into `es`.
    """
    if not is_jordan(a):
        raise NonJordanError("Peirce decomposition requires a Jordan algebra")
    es = [vec(e) for e in es]
    for e in es:
        if not is_idempotent(a, e):
            raise NotIdempotentError("family member is not a nonzero idempotent")
    for i in range(len(es)):
        for j in range(i + 1, len(es)):
            if not is_zero_vec(a.mul(es[i], es[j])):
                raise AlgebraError("idempotents are not pairwise orthogonal")
    unit = find_identity(a)
    total = tuple(sum(e[k] for e in es) for k in range(a.dim))
    if unit is None or tuple(unit) != total:
        raise AlgebraError("idempotents do not sum to the identity")
    comps: dict[tuple[int, int], Subspace] = {}
    halves = [eigenspace(a, e, HALF) for e in es]
    for i, e in enumerate(es):
        comps[(i, i)] = eigenspace(a, e, ONE)
        for j in range(i + 1, len(es)):
            comps[(i, j)] = halves[i].intersect(halves[j])
    if sum(s.dim for s in comps.values()) != a.dim:
        raise PeirceSpectrumError("Peirce grid does not cover the space")
    _check_peirce_law(a, {(i, j): (f"J{i}{j}", s) for (i, j), s in comps.items()})
    return PeirceDecomposition(tuple(es), comps)
