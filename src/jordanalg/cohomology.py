"""Second cohomology of a Jordan algebra acting on itself.

A symmetric bilinear map h : J x J -> J is a 2-cocycle iff the split null
extension J + M (M a copy of J with M*M = 0, products
(x,u)(y,v) = (xy, xv + uy + h(x,y))) again satisfies the linearized Jordan
identity (x, y, zw) + (w, y, zx) + (z, y, xw) = 0, ( , , ) the associator.
Coboundaries are the maps h_mu(x, y) = mu(x)y + x mu(y) - mu(xy) for linear
mu, and h2 = dim Z2 - dim B2 counts extensions up to equivalence.  B2 is the
image of the operator delta^1 : mu -> h_mu, whose kernel is Der J; both read
the rows of `invariants.coboundary_int_rows`, so dim Der J = n^2 - dim B2.

On basis elements b_x, b_y, b_z, b_w of J the M-part of (b_x, b_y, b_z b_w) is

    (xy) h(z,w) + (zw) h(x,y) + h(xy, zw) - x (y h(z,w)) - x h(y, zw) - h(x, y(zw)),

linear in h, and its J-part is that of J, which vanishes.  The cocycles are
the kernel of this operator summed over the three associator terms and over
basis quadruples of J only: a quadruple with an argument in M has a defect
independent of h (h enters only as the M-part of a product of two
J-elements, and that M-part is then multiplied by a factor holding the
argument in M, where M*M = 0), so it equals the defect of the h = 0
extension, which is Jordan.
`tests/test_cohomology.py::test_fast_assembly_matches_full_extension_scan`
checks this against a scan of every quadruple of the doubled algebra.

The rows are written on integer-scaled structure constants: every term of
the operator carries exactly two structure-constant factors, and every term
of a coboundary exactly one, so clearing denominators rescales each system
uniformly and leaves kernels and ranks unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .algebra import Algebra, AlgebraError, is_jordan
from .invariants import NonJordanError, coboundary_int_rows
from .ratlin import (
    Matrix,
    Subspace,
    Vector,
    _int_kernel,
    int_rows_rank,
    unit_vec,
    vec,
    zero_vec,
)

SymGrid = tuple[tuple[Vector, ...], ...]


@dataclass(frozen=True)
class CocycleSpace:
    z2_dim: int
    b2_dim: int
    h2_dim: int

    def __post_init__(self):
        if self.h2_dim != self.z2_dim - self.b2_dim or self.h2_dim < 0:
            raise AlgebraError("inconsistent cocycle dimensions")


def grid_from_function(a: Algebra, fn) -> SymGrid:
    n = a.dim
    return tuple(tuple(vec(fn(i, j)) for j in range(n)) for i in range(n))


def zero_grid(a: Algebra) -> SymGrid:
    return grid_from_function(a, lambda i, j: zero_vec(a.dim))


def null_extension(a: Algebra, h: SymGrid) -> Algebra:
    """Algebra on J + M realizing the symmetric bilinear map h."""
    n = a.dim
    if len(h) != n or any(len(row) != n or any(len(v) != n for v in row) for row in h):
        raise AlgebraError("cocycle grid must be n x n with n-vectors")
    for i in range(n):
        for j in range(i + 1, n):
            if tuple(h[i][j]) != tuple(h[j][i]):
                raise AlgebraError("cocycle grid must be symmetric")
    labels = a.labels + tuple(l + "'" for l in a.labels)
    zeros = zero_vec(n)
    table = []
    for i in range(2 * n):
        row = []
        for j in range(2 * n):
            if i < n and j < n:
                row.append(tuple(a.table[i][j]) + tuple(h[i][j]))
            elif i < n <= j:
                row.append(zeros + tuple(a.table[i][j - n]))
            elif j < n <= i:
                row.append(zeros + tuple(a.table[i - n][j]))
            else:
                row.append(zeros + zeros)
        table.append(tuple(row))
    return Algebra(labels, tuple(table))


def coboundary(a: Algebra, mu: Matrix) -> SymGrid:
    """h_mu(x, y) = mu(x)y + x mu(y) - mu(xy) on basis pairs."""
    if mu.rows != a.dim or mu.cols != a.dim:
        raise AlgebraError("coboundary map has wrong shape")
    n = a.dim
    cols = [mu.apply(unit_vec(n, j)) for j in range(n)]

    def entry(i, j):
        t = a.mul(cols[i], a.basis_vector(j))
        t = tuple(x + y for x, y in zip(t, a.mul(a.basis_vector(i), cols[j])))
        return tuple(x - y for x, y in zip(t, mu.apply(a.table[i][j])))

    return grid_from_function(a, entry)


# ---------------------------------------------------------------------------
# linear system for the cocycle condition

def _assemble_cocycle_rows(a: Algebra) -> tuple[int, list[tuple[int, ...]]]:
    """Unknown count and integer rows of the cocycle condition.

    One row per basis quadruple (x, y, z, w) of J and coordinate m: the
    M-part of the linearized identity there, as a form in the unknowns
    h(p, q)_k, at index base[p][q] + k in the order of `grid_to_vec`.
    """
    n = a.dim
    _, srows = a._int_structure
    base = [[0] * n for _ in range(n)]
    nunk = 0
    for p in range(n):
        for q in range(p, n):
            base[p][q] = base[q][p] = nunk
            nunk += n
    unit = [((j, 1),) for j in range(n)]

    def mul(u, v):
        """Product of sparse integer vectors ((k, c), ...)."""
        out = [0] * n
        for i, c in u:
            for j, d in v:
                for k, e in srows[i][j]:
                    out[k] += c * d * e
        return tuple((k, c) for k, c in enumerate(out) if c)

    # column j of the action h -> (xy) h is (xy) b_j, and of h -> x (y h) it
    # is x (y b_j); both recur across the quadruple scan
    pair_action = [[[mul(srows[x][y], unit[j]) for j in range(n)] for y in range(n)]
                   for x in range(n)]
    nested_action = [[[mul(unit[x], srows[y][j]) for j in range(n)] for y in range(n)]
                     for x in range(n)]

    def act(form, sign, cols, p, q):
        # form += sign * K h(p, q), column j of K being cols[j]
        off = base[p][q]
        for j, col in enumerate(cols):
            for m, c in col:
                form[m][off + j] += sign * c

    def at(form, c, p, q):
        # form += c * h(p, q)
        off = base[p][q]
        for m in range(n):
            form[m][off + m] += c

    def add_associator(form, x, y, z, w):
        # M-part of (b_x, b_y, b_z b_w) in the null extension
        zw = srows[z][w]
        act(form, 1, pair_action[x][y], z, w)  # (xy) h(z, w)
        act(form, 1, pair_action[z][w], x, y)  # (zw) h(x, y)
        for p, c in srows[x][y]:
            for q, d in zw:
                at(form, c * d, p, q)  # h(xy, zw)
        act(form, -1, nested_action[x][y], z, w)  # - x (y h(z, w))
        for q, c in zw:
            act(form, -c, srows[x], y, q)  # - x h(y, zw)
        for q, c in mul(unit[y], zw):
            at(form, -c, x, q)  # - h(x, y(zw))

    rows: set[tuple[int, ...]] = set()
    for x in range(n):
        for z in range(x, n):
            for w in range(z, n):
                for y in range(n):
                    form = [[0] * nunk for _ in range(n)]
                    add_associator(form, x, y, z, w)
                    add_associator(form, w, y, z, x)
                    add_associator(form, z, y, x, w)
                    rows.update(tuple(r) for r in form if any(r))
    return nunk, list(rows)


def grid_to_vec(a: Algebra, h: SymGrid) -> Vector:
    """Flatten a symmetric grid to coordinates over pairs p <= q."""
    n = a.dim
    out = []
    for p in range(n):
        for q in range(p, n):
            out.extend(h[p][q])
    return tuple(out)


def vec_to_grid(a: Algebra, v: Sequence[Fraction]) -> SymGrid:
    n = a.dim
    grid = [[None] * n for _ in range(n)]
    pos = 0
    for p in range(n):
        for q in range(p, n):
            entry = tuple(v[pos : pos + n])
            grid[p][q] = entry
            grid[q][p] = entry
            pos += n
    return tuple(tuple(row) for row in grid)


def _cocycle_system(a: Algebra) -> tuple[int, list[tuple[int, ...]], list[list[int]]]:
    """Unknown count, cocycle rows and coboundary rows of a Jordan algebra."""
    if not is_jordan(a):
        raise NonJordanError("cocycles are only computed for Jordan algebras")
    nunk, rows = _assemble_cocycle_rows(a)
    return nunk, rows, coboundary_int_rows(a)


def cocycle_subspaces(a: Algebra) -> tuple[Subspace, Subspace]:
    """(Z2, B2) as subspaces of the flattened symmetric-map coordinates."""
    nunk, rows, coboundary_rows = _cocycle_system(a)
    z2 = Subspace.span(nunk, _int_kernel(rows, nunk))
    return z2, Subspace.span(nunk, coboundary_rows)


def cocycle_space(a: Algebra) -> CocycleSpace:
    """Dimensions of 2-cocycles, 2-coboundaries and their quotient."""
    nunk, rows, coboundary_rows = _cocycle_system(a)
    z2 = nunk - int_rows_rank(rows, nunk)
    b2 = int_rows_rank(coboundary_rows, nunk)
    return CocycleSpace(z2, b2, z2 - b2)
