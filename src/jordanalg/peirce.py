"""Peirce decompositions relative to one idempotent or an orthogonal family.

For a single idempotent e the eigenspaces of L_e for the eigenvalues 0, 1/2
and 1 are computed as kernels; no other eigenvalue can occur in a Jordan
algebra, which is detected by a dimension count rather than root finding.
The multiplication rules between components are verified and any violation
raises.  The grid decomposition relative to pairwise orthogonal idempotents
summing to the identity follows the same pattern.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .algebra import Algebra, AlgebraError, find_identity, is_jordan, product_span, unitalization
from .invariants import NonJordanError
from .ratlin import HALF, ONE, ZERO, Subspace, Vector, _int_kernel, is_zero_vec, rat, sub_vec, vec


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
    lam = p/q, D the lcm of the denominators of e and den that of the
    structure constants."""
    n = a.dim
    e, lam = vec(e), rat(lam)
    den, srows = a._int_structure
    d = lcm(*(x.denominator for x in e))
    p, q = lam.numerator, lam.denominator
    # row k, column j: coordinate k of e b_j, less lam at k == j
    rows = [[0] * n for _ in range(n)]
    for i, x in enumerate(e):
        if x:
            c = q * x.numerator * (d // x.denominator)
            for j in range(n):
                for k, y in srows[i][j]:
                    rows[k][j] += c * y
    for k in range(n):
        rows[k][k] -= p * d * den
    return Subspace.span(n, _int_kernel(rows, n))


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
    _check_single_rules(a, spaces)
    return PeirceDecomposition((e,), spaces)


def _check_single_rules(a: Algebra, spaces: dict) -> None:
    one, half, zero = (spaces[lam] for lam in EIGENVALUES)
    rules = [
        ("J1*J1 <= J1", product_span(a, one, one), one),
        ("J1*J0 = 0", product_span(a, one, zero), Subspace.zero(a.dim)),
        ("J0*J0 <= J0", product_span(a, zero, zero), zero),
        ("J0*J1/2 <= J1/2", product_span(a, zero, half), half),
        ("J1*J1/2 <= J1/2", product_span(a, one, half), half),
        ("J1/2*J1/2 <= J0+J1", product_span(a, half, half), zero.add(one)),
    ]
    for name, got, bound in rules:
        if not bound.contains(got):
            raise PeirceRuleError(f"Peirce rule violated: {name}")


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
    _check_multi_rules(a, comps, len(es))
    return PeirceDecomposition(tuple(es), comps)


def _comp(comps: dict, i: int, j: int) -> Subspace:
    return comps[(min(i, j), max(i, j))]


def _check_multi_rules(a: Algebra, comps: dict, m: int) -> None:
    zero = Subspace.zero(a.dim)

    def check(name: str, got: Subspace, bound: Subspace) -> None:
        if not bound.contains(got):
            raise PeirceRuleError(f"Peirce rule violated: {name}")

    for i in range(m):
        check(f"J{i}{i}^2 <= J{i}{i}", product_span(a, comps[(i, i)], comps[(i, i)]), comps[(i, i)])
        for j in range(m):
            if j == i:
                continue
            check(
                f"J{min(i,j)}{max(i,j)}*J{i}{i} <= J{min(i,j)}{max(i,j)}",
                product_span(a, _comp(comps, i, j), comps[(i, i)]),
                _comp(comps, i, j),
            )
            check(
                f"J{i}{i}*J{j}{j} = 0",
                product_span(a, comps[(i, i)], comps[(j, j)]),
                zero,
            )
    for i in range(m):
        for j in range(i + 1, m):
            check(
                f"J{i}{j}^2 <= J{i}{i}+J{j}{j}",
                product_span(a, comps[(i, j)], comps[(i, j)]),
                comps[(i, i)].add(comps[(j, j)]),
            )
            for k in range(m):
                if k in (i, j):
                    continue
                # one shared index, in either slot of the (i, j) pair
                check(
                    f"J{i}{j}*J{min(j,k)}{max(j,k)} <= J{min(i,k)}{max(i,k)}",
                    product_span(a, comps[(i, j)], _comp(comps, j, k)),
                    _comp(comps, i, k),
                )
                check(
                    f"J{i}{j}*J{min(i,k)}{max(i,k)} <= J{min(j,k)}{max(j,k)}",
                    product_span(a, comps[(i, j)], _comp(comps, i, k)),
                    _comp(comps, j, k),
                )
                check(
                    f"J{k}{k}*J{i}{j} = 0",
                    product_span(a, comps[(k, k)], comps[(i, j)]),
                    zero,
                )
                for l in range(k + 1, m):
                    if l in (i, j):
                        continue
                    check(
                        f"J{i}{j}*J{k}{l} = 0",
                        product_span(a, comps[(i, j)], comps[(k, l)]),
                        zero,
                    )


def peirce_multi_unitalized(
    a: Algebra, es: Sequence[Sequence[Fraction]]
) -> tuple[PeirceDecomposition, Algebra]:
    """Grid decomposition inside the unital hull a + k*1.

    The idempotent family becomes [e0, e1, ..., ek] with e0 = 1 - sum(e_i)
    the complement idempotent, so component indices match the convention
    that index 0 refers to the complement.  Returns the decomposition and
    the unital hull (elements of `a` embed with a trailing 0 coordinate).
    """
    hull = unitalization(a)
    lifted = [tuple(e) + (ZERO,) for e in (vec(e) for e in es)]
    unit = hull.basis_vector(hull.dim - 1)
    e0 = unit
    for e in lifted:
        e0 = sub_vec(e0, e)
    family = [e0] + lifted
    return peirce_multi(hull, family), hull


def component_of(decomp: PeirceDecomposition, v: Sequence[Fraction]):
    """Key of the unique component containing v, or None."""
    for key, space in decomp.components.items():
        if space.contains_vector(v):
            return key
    return None
