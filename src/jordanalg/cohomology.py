"""Second cohomology of a Jordan algebra acting on itself.

A symmetric bilinear map h : J x J -> J is a 2-cocycle iff the split null
extension J + M (M a copy of J with M*M = 0, products
(x,u)(y,v) = (xy, xv + uy + h(x,y))) again satisfies the linearized Jordan
identity (x, y, zw) + (w, y, zx) + (z, y, xw) = 0, ( , , ) the associator.
Coboundaries are the maps h_mu(x, y) = mu(x)y + x mu(y) - mu(xy) for linear
mu, and h2 = dim Z2 - dim B2 counts extensions up to equivalence.  B2 is the
image of the operator delta^1 : mu -> h_mu, whose kernel is Der J; one
integer echelon of the delta^1 rows, `Algebra._coboundary_echelon`, gives
dim B2 as its size and dim Der J = n^2 - dim B2.

Every coboundary is a cocycle, so Z2 = B2 + (Z2 meet C), a direct sum, for
any complement C of B2.  The unit vectors off the echelon's pivot columns
span one: a vector of B2 that vanishes on every pivot column is zero.  So
the cocycle rows are written only on the columns of C, the other
coordinates of a vector of C being zero; the kernel of those rows is
Z2 meet C, its dimension is h2, and z2 = b2 + h2.  When H2 = 0 the cut ends
as soon as that kernel is empty, before the rest of the cocycle rows are
read.

The dense size of the cocycle system, n^2 C(n+2, 3) rows times
n^2 (n+1)/2 unknowns, grows like n^8 / 12.  `check_cocycle_cells` estimates
it before the Jordan scan and the assembly, and a system above
`MAX_COCYCLE_CELLS` is refused with an AlgebraError instead of running for
hours; `fingerprint` runs the same check before its other invariants.

On basis elements b_x, b_y, b_z, b_w of J the M-part of (b_x, b_y, b_z b_w) is

    (x, y, h(z,w)) + (zw) h(x,y) + h(xy, zw) - x h(y, zw) - h(x, y(zw)),

with (x, y, v) = (xy) v - x (y v) the associator of J acting on M, linear in
h, and its J-part is that of J, which vanishes.  The cocycles are
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

The actions in this operator do not depend on the quadruple.  Once per
table the assembly lists the nonzero entries of h -> (x, y, h),
h -> (zw) h and h -> x h, and the sparse products y(zw); the quadruple scan
only adds those entries.  Each product is taken once, by
`algebra._int_products`: one call gives every b_p b_q, and one more every
b_j (b_z b_w), which both h -> (zw) h and y(zw) read.  The terms
h(xy, zw) and -h(x, y(zw)) are multiples of the identity on one block
h(p, q): over the three associator terms of a quadruple their
coefficients are summed per block, and each nonzero sum is spread over
the n coordinates once.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from operator import itemgetter
from typing import Sequence

from .algebra import Algebra, AlgebraError, NonJordanError, _int_products, is_jordan
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

# Largest cocycle system, in dense cells (`cocycle_cells`), that
# `cocycle_space` and `cocycle_subspaces` assemble: every table of
# dimension up to 12 (4.9e7 cells) passes, dimension 13 (9.1e7) is refused.
# Measured on Python 3.11, 2-CPU x86_64: the identity spin factor of dim 12
# takes 1.3 s and 57 MB; in a dense basis, dims 9 and 10 take 2.4 s / 114 MB
# and 6.8 s / 240 MB, and each further dimension about 3x the time and 2x
# the memory, so a dense table of dim 13 would take minutes and gigabytes.
MAX_COCYCLE_CELLS = 6 * 10**7


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

def cocycle_cells(n: int) -> int:
    """Dense cells of the cocycle system of an n-dimensional table: one row
    per basis quadruple (x <= z <= w, any y) and coordinate, times the
    n^2 (n+1)/2 unknowns."""
    return n * n * comb(n + 2, 3) * (n * n * (n + 1) // 2)


def check_cocycle_cells(a: Algebra) -> None:
    """Raise AlgebraError, naming the estimate and the limit, when the
    cocycle system of `a` has more than `MAX_COCYCLE_CELLS` dense cells.
    It reads only `a.dim`, so it can run before any other work on `a`."""
    n = a.dim
    cells = cocycle_cells(n)
    if cells > MAX_COCYCLE_CELLS:
        raise AlgebraError(
            f"the cocycle system of a {n}-dimensional algebra has {cells:,} dense cells,"
            f" over the limit of {MAX_COCYCLE_CELLS:,}")


def _column_picker(cols: Sequence[int]):
    """Row -> tuple of its entries on `cols`, for any number of columns."""
    if len(cols) > 1:
        return itemgetter(*cols)
    if cols:
        c = cols[0]
        return lambda row: (row[c],)
    return lambda row: ()


def _assemble_cocycle_rows(a: Algebra, cols: Sequence[int]) -> list[tuple[int, ...]]:
    """Distinct nonzero integer rows of the cocycle condition, written on the
    columns `cols` only.

    One row per basis quadruple (x, y, z, w) of J and coordinate m: the
    M-part of the linearized identity there, as a form in the unknowns
    h(p, q)_k, at index base[p][q] + k in the order of `grid_to_vec`, of
    which the entries on `cols` are kept.  A row that is zero there is
    dropped.

    Everything that does not depend on the quadruple is built once per
    call: the nonzeros (m, j, c) of the actions h -> (x, y, h), h -> (zw) h
    and h -> x h (column j, output coordinate m), and the sparse products
    y(zw), from one `_int_products` call for every b_p b_q and one for
    every b_j (b_z b_w); the sparse b_p b_q themselves are the rows of
    `Algebra._int_structure`.  The terms h(xy, zw) and -h(x, y(zw)) put one
    coefficient on the diagonal of a block h(p, q); over the three
    associator terms of a quadruple these are summed per block first and
    each nonzero sum is spread over the n coordinates once.
    """
    n = a.dim
    nsq = n * n
    base = [[0] * n for _ in range(n)]
    nunk = 0
    for p in range(n):
        for q in range(p, n):
            base[p][q] = base[q][p] = nunk
            nunk += n

    def nonzeros(cols):
        # (m, j, c) for each nonzero entry c of column j, coordinate m
        return [(m, j, c) for j, col in enumerate(cols) for m, c in enumerate(col) if c]

    units = [[int(i == k) for k in range(n)] for i in range(n)]
    prod = _int_products(a, units, units)  # b_p b_q at p n + q
    triple = _int_products(a, units, prod)  # b_j (b_z b_w) at j n^2 + z n + w
    sparse = [entry for row in a._int_structure[1] for entry in row]  # b_p b_q at p n + q
    # column j of h -> (x, y, h) is (b_x, b_y, b_j), of h -> (zw) h it is
    # b_j (zw), and of h -> x h it is b_x b_j
    assoc_ops = [[nonzeros(cols) for cols in row] for row in a._assoc_table]
    prod_ops = [nonzeros(triple[zw::nsq]) for zw in range(nsq)]
    left_ops = [nonzeros(prod[x * n:(x + 1) * n]) for x in range(n)]
    y_zw = [[(q, c) for q, c in enumerate(v) if c] for v in triple]

    pick = _column_picker(cols)
    rows: set[tuple[int, ...]] = set()
    for x in range(n):
        for z in range(x, n):
            for w in range(z, n):
                for y in range(n):
                    form = [[0] * nunk for _ in range(n)]
                    diag: dict[int, int] = {}
                    # M-part of (b_x, b_y, b_z b_w) in the null extension,
                    # for each associator term of the linearized identity
                    for x_, z_, w_ in ((x, z, w), (w, z, x), (z, x, w)):
                        zw_i = z_ * n + w_
                        zw = sparse[zw_i]
                        off = base[z_][w_]
                        for m, j, c in assoc_ops[x_][y]:  # (x, y, h(z, w))
                            form[m][off + j] += c
                        off = base[x_][y]
                        for m, j, c in prod_ops[zw_i]:  # (zw) h(x, y)
                            form[m][off + j] += c
                        for p, c in sparse[x_ * n + y]:
                            bp = base[p]
                            for q, d in zw:  # h(xy, zw)
                                diag[bp[q]] = diag.get(bp[q], 0) + c * d
                        bx = base[x_]
                        for q, c in y_zw[y * nsq + zw_i]:  # - h(x, y(zw))
                            diag[bx[q]] = diag.get(bx[q], 0) - c
                        by = base[y]
                        for q, c in zw:  # - x h(y, zw)
                            off = by[q]
                            for m, j, d in left_ops[x_]:
                                form[m][off + j] -= c * d
                    for off, c in diag.items():
                        if c:
                            for m in range(n):
                                form[m][off + m] += c
                    rows.update(r for r in map(pick, form) if any(r))
    return list(rows)


def grid_to_vec(a: Algebra, h: SymGrid) -> Vector:
    """Flatten a symmetric grid to coordinates over pairs p <= q."""
    n = a.dim
    out = []
    for p in range(n):
        for q in range(p, n):
            out.extend(h[p][q])
    return tuple(out)


def _cocycle_system(a: Algebra) -> tuple[int, list[int], list[tuple[int, ...]]]:
    """Unknown count, the columns of `_complement_columns` and the cocycle
    rows of a Jordan algebra on those columns, which the H2 cut reads.

    The size of the system is checked first: above `MAX_COCYCLE_CELLS`
    this raises AlgebraError before the Jordan scan and the assembly.
    """
    check_cocycle_cells(a)
    if not is_jordan(a):
        raise NonJordanError("cocycles are only computed for Jordan algebras")
    n = a.dim
    cols = _complement_columns(a)
    return n * (n + 1) // 2 * n, cols, _assemble_cocycle_rows(a, cols)


def _complement_columns(a: Algebra) -> list[int]:
    """The columns off the pivot columns of the delta^1 echelon: the unit
    vectors on them span the complement C of B2."""
    n = a.dim
    pivots = a._coboundary_echelon
    return [c for c in range(n * (n + 1) // 2 * n) if c not in pivots]


def cocycle_subspaces(a: Algebra) -> tuple[Subspace, Subspace]:
    """(Z2, B2) as subspaces of the flattened symmetric-map coordinates."""
    nunk, cols, rows = _cocycle_system(a)
    b2 = list(a._coboundary_echelon.values())
    meet = []  # Z2 meet C, with zeros put back on the pivot columns
    for k in _int_kernel(rows, len(cols)):
        v = [0] * nunk
        for c, x in zip(cols, k):
            v[c] = x
        meet.append(v)
    return Subspace.span(nunk, b2 + meet), Subspace.span(nunk, b2)


def cocycle_space(a: Algebra) -> CocycleSpace:
    """Dimensions of 2-cocycles, 2-coboundaries and their quotient."""
    _, cols, rows = _cocycle_system(a)
    b2 = len(a._coboundary_echelon)
    h2 = len(cols) - int_rows_rank(rows, len(cols))
    return CocycleSpace(b2 + h2, b2, h2)
