"""Second cohomology of a Jordan algebra acting on itself.

A symmetric bilinear map h : J x J -> J is a 2-cocycle iff the split null
extension J + M (M a copy of J with M*M = 0, products
(x,u)(y,v) = (xy, xv + uy + h(x,y))) again satisfies the linearized Jordan
identity (x, y, zw) + (w, y, zx) + (z, y, xw) = 0, ( , , ) the associator.
Coboundaries are the maps h_mu(x, y) = mu(x)y + x mu(y) - mu(xy) for linear
mu, and h2 = dim Z2 - dim B2 counts extensions up to equivalence.  B2 is the
image of the operator delta^1 : mu -> h_mu, whose kernel is Der J.  This
module writes both the delta^1 rows and the cocycle rows, on the unknowns
h(p, q)_k, pairs p <= q in order and then the coordinate k.  Both are pair
rows, the sorted (column, value) pairs of a row's nonzero entries, read off
the sparse integer constants.  One pair-row echelon of the delta^1 rows,
`coboundary_echelon`, kept per algebra, gives dim B2 as its size and
dim Der J = n^2 - dim B2; only its pivot columns are read.

Every coboundary is a cocycle, so Z2 = B2 + (Z2 meet C), a direct sum, for
any complement C of B2.  The unit vectors off the echelon's pivot columns
span one: a vector of B2 that vanishes on every pivot column is zero.  So
the cocycle rows are written only on the columns of C, the other
coordinates of a vector of C being zero; the kernel of those rows is
Z2 meet C, its dimension is h2, and z2 = b2 + h2.  Each row is a pair row,
the sorted (column of C, value) pairs of its nonzero entries, so both the
assembly and the cut `ratlin._int_kernel` cost a table's nonzero constants
and not the n^2 (n+1)/2 unknowns of every form.  The cut reads the rows
shortest first, and when H2 = 0 it ends as soon as the kernel is empty,
before the rest of the cocycle rows are read.

The dense size of the cocycle system, n^2 C(n+2, 3) rows times
n^2 (n+1)/2 unknowns, grows like n^8 / 12.  `check_cocycle_cells` estimates
it before the Jordan scan and the assembly, and a system above
`MAX_COCYCLE_CELLS` is refused with an AlgebraError instead of running for
hours.  `cocycle_space` works on the table as given; `invariants.h2_dims`
runs the same check first and reads the same dimensions on a sparser
isomorphic table when there is one.

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
table the assembly lists the nonzero entries of h -> (x, y, h), unpacked
from the columns of `Algebra._associators`, of h -> (zw) h and h -> x h,
and the sparse products y(zw); the quadruple scan only adds those
entries.  Each product is taken once, by
`algebra._int_products`: one call gives every b_p b_q, and one more every
b_j (b_z b_w) with b_z b_w nonzero, which both h -> (zw) h and y(zw) read.  The terms
h(xy, zw) and -h(x, y(zw)) are multiples of the identity on one block
h(p, q): over the three associator terms of a quadruple their
coefficients are summed per block, and each nonzero sum is spread over
the n coordinates once.  Every term of an associator term carries either
an associator column (b_x, b_y, b_j) or the product b_z b_w, so a
quadruple whose three terms have neither writes nothing and is skipped
before any form is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Sequence

from .algebra import (
    Algebra,
    AlgebraError,
    NonJordanError,
    _int_products,
    _unpack,
    is_commutative,
    is_jordan,
    per_algebra,
)
from .ratlin import _int_kernel, _pair_echelon, _pairs

# Largest cocycle system, in dense cells (`cocycle_cells`), that
# `cocycle_space` assembles: every table of dimension up to 12 (4.9e7
# cells) passes, dimension 13 (9.1e7) is refused.  Measured on Python 3.11,
# shared 2-CPU x86_64, one fresh process per table, three runs each
# (`time.process_time`, peak RSS from `resource.getrusage`, 26 MB before
# the call): the identity spin factor of dim 12 takes 0.07-0.09 s and
# 29 MB; in a dense basis (`tests/gen.py` `dense_basis`, tags scale-sp8 and
# scale-sp9), the spin factors of dims 9 and 10 take 3.4-3.8 s / 195 MB and
# 7.5-8.1 s / 375 MB, and each further dimension about 2x the time and 2x
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


def _pair_bases(n: int) -> list[list[int]]:
    """base[p][q] = base[q][p]: the index of unknown h(p, q)_0; h(p, q)_k
    is at base[p][q] + k, pairs p <= q in order."""
    base = [[0] * n for _ in range(n)]
    nunk = 0
    for p in range(n):
        for q in range(p, n):
            base[p][q] = base[q][p] = nunk
            nunk += n
    return base


def coboundary_pair_rows(a: Algebra) -> list[tuple[tuple[int, int], ...]]:
    """Rows of the coboundary operator delta^1(mu)(x, y) = mu(x)y + x mu(y) - mu(xy),
    as pair rows: sorted tuples of (unknown, nonzero value).

    Row (r, s) is delta^1 of the unit map mu = E_rs (b_s -> b_r) on the
    unknowns h(i, j)_k, i <= j, read off the sparse rows of
    `Algebra._int_structure`: +c_rj^k at pair (s, j) for j >= s, +c_ir^k at
    pair (i, s) for i <= s (both at pair (s, s)), and -c_ij^s at coordinate
    r of pair (i, j).  Every entry carries one structure constant, so the
    scaling is uniform and the row space is unchanged.  The kernel of
    delta^1 is Der J and its image is B2.  Pairs i <= j cover every pair
    only on a commutative table, so any other raises AlgebraError.
    """
    if not is_commutative(a):
        raise AlgebraError("delta^1 rows cover pairs i <= j only: the table must be commutative")
    n = a.dim
    srows = a._int_structure[1]
    base = _pair_bases(n)
    coord = [[] for _ in range(n)]  # (base of pair (i, j), c_ij^s) at s
    for i in range(n):
        for j in range(i, n):
            for s, c in srows[i][j]:
                coord[s].append((base[i][j], c))
    rows = []
    for r in range(n):
        for s in range(n):
            row: dict[int, int] = {}
            for j in range(s, n):  # mu(b_s) b_j = b_r b_j, the first term
                off = base[s][j]
                for k, c in srows[r][j]:
                    row[off + k] = c
            for i in range(s + 1):  # b_i mu(b_s) = b_i b_r
                off = base[i][s]
                for k, c in srows[i][r]:
                    row[off + k] = row.get(off + k, 0) + c
            for off, c in coord[s]:  # - mu(b_i b_j)
                row[off + r] = row.get(off + r, 0) - c
            rows.append(tuple(sorted((k, x) for k, x in row.items() if x)))
    return rows


@per_algebra
def coboundary_echelon(a: Algebra) -> dict[int, dict[int, int]]:
    """`ratlin._pair_echelon` of `coboundary_pair_rows`, run once per
    algebra: pivot column -> row.  Only its pivot columns are read: its
    size is dim B2 = n^2 - dim Der J, and the unit vectors off its pivot
    columns span a complement of B2.  The pivot columns do not depend on
    the row order, and sparser rows first keep the echelon rows sparse for
    longer."""
    return _pair_echelon(sorted(coboundary_pair_rows(a), key=len))


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


def _assemble_cocycle_rows(a: Algebra, cols: Sequence[int]) -> list[tuple[tuple[int, int], ...]]:
    """Distinct nonzero integer rows of the cocycle condition of a
    commutative table, written on the columns `cols` only, as pair rows:
    sorted tuples of (index in `cols`, nonzero value).  `cocycle_space`,
    its one caller, refuses a non-Jordan table and builds the delta^1
    echelon first, which refuses a noncommutative one.

    One row per basis quadruple (x, y, z, w) of J and coordinate m: the
    M-part of the linearized identity there, as a form in the unknowns
    h(p, q)_k, at index base[p][q] + k (`_pair_bases`), of which the
    entries on `cols` are kept.  A row that is zero there is
    dropped.  The n forms of a quadruple are one dict keyed by the flat
    index m nunk + u of unknown u in the form of coordinate m, and a
    quadruple whose three associator terms have neither a nonzero
    associator column nor a nonzero b_z b_w writes nothing and is skipped.

    Everything that does not depend on the quadruple is built once per
    call: the nonzeros (m nunk + j, c) of the actions h -> (x, y, h),
    h -> (zw) h and h -> x h (column j, output coordinate m), and the
    sparse products y(zw), from one `_int_products` call for every b_p b_q
    and one for every b_j (b_z b_w) with b_z b_w nonzero; the sparse b_p b_q
    themselves are the rows of `Algebra._int_structure`.  The terms h(xy, zw) and
    -h(x, y(zw)) put one coefficient on the diagonal of a block h(p, q);
    over the three associator terms of a quadruple these are summed per
    block first and each nonzero sum is spread over the n coordinates once.
    """
    n = a.dim
    nsq = n * n
    base = _pair_bases(n)
    nunk = n * (n + 1) // 2 * n

    def nonzeros(cols):
        # (m nunk + j, c) for each pair (m, c) of column j: its nonzero
        # entry c at coordinate m
        return [(m * nunk + j, c) for j, col in enumerate(cols) for m, c in col]

    units = [[int(i == k) for k in range(n)] for i in range(n)]
    prod = _int_products(a, units, units)  # b_p b_q at p n + q
    sparse = [entry for row in a._int_structure[1] for entry in row]  # b_p b_q at p n + q
    zws = [zw for zw in range(nsq) if sparse[zw]]  # the nonzero b_z b_w
    # column j of h -> (x, y, h) is (b_x, b_y, b_j), of h -> (zw) h it is
    # b_j (zw), and of h -> x h it is b_x b_j; x < k is unpacked only,
    # (b_k, b_y, b_x) being -(b_x, b_y, b_k) on a commutative table
    width, packed = a._associators
    assoc_ops = [[[] for _ in range(n)] for _ in range(n)]
    for x, row in enumerate(packed):
        for k in range(x + 1, n):
            for y, block in enumerate(_unpack(row[k], width, n) if row[k] else ()):
                for m, e in _pairs(block or ()):
                    assoc_ops[x][y].append((m * nunk + k, e))
                    assoc_ops[k][y].append((m * nunk + x, -e))
    left_ops = [nonzeros(row) for row in a._int_structure[1]]
    prod_ops = [[] for _ in range(nsq)]
    y_zw = [[] for _ in range(n * nsq)]  # sparse b_y (b_z b_w) at y n^2 + z n + w
    triple = _int_products(a, units, [prod[zw] for zw in zws])  # b_j (b_z b_w), j-major
    for i, zw in enumerate(zws):
        cols_zw = triple[i::len(zws)]
        prod_ops[zw] = nonzeros(map(_pairs, cols_zw))
        for y, v in enumerate(cols_zw):
            y_zw[y * nsq + zw] = [(q, c) for q, c in enumerate(v) if c]
    spread = [m * (nunk + 1) for m in range(n)]  # h(p, q)_m in the form of m
    # flat index -> (m, index in cols), None off `cols`
    comp = [None] * nunk
    for i, u in enumerate(cols):
        comp[u] = i
    place = [None if i is None else (m, i) for m in range(n) for i in comp]

    rows: set[tuple[tuple[int, int], ...]] = set()
    for x in range(n):
        for z in range(x, n):
            for w in range(z, n):
                terms = ((x, z, w), (w, z, x), (z, x, w))
                any_zw = any(sparse[z_ * n + w_] for _, z_, w_ in terms)
                for y in range(n):
                    if not (any_zw or assoc_ops[x][y] or assoc_ops[w][y] or assoc_ops[z][y]):
                        continue
                    form: dict[int, int] = {}
                    diag: dict[int, int] = {}
                    # M-part of (b_x, b_y, b_z b_w) in the null extension,
                    # for each associator term of the linearized identity
                    for x_, z_, w_ in terms:
                        zw_i = z_ * n + w_
                        zw = sparse[zw_i]
                        off = base[z_][w_]
                        for k, c in assoc_ops[x_][y]:  # (x, y, h(z, w))
                            k += off
                            form[k] = form.get(k, 0) + c
                        off = base[x_][y]
                        for k, c in prod_ops[zw_i]:  # (zw) h(x, y)
                            k += off
                            form[k] = form.get(k, 0) + c
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
                            for k, d in left_ops[x_]:
                                k += off
                                form[k] = form.get(k, 0) - c * d
                    for off, c in diag.items():
                        if c:
                            for s in spread:
                                k = off + s
                                form[k] = form.get(k, 0) + c
                    out = [[] for _ in range(n)]
                    for k, c in form.items():
                        if c and (p := place[k]):
                            out[p[0]].append((p[1], c))
                    rows.update(tuple(sorted(r)) for r in out if r)
    return list(rows)


def cocycle_space(a: Algebra) -> CocycleSpace:
    """Dimensions of 2-cocycles, 2-coboundaries and their quotient.

    The size of the system is checked first: above `MAX_COCYCLE_CELLS`
    this raises AlgebraError before the Jordan scan and the assembly.
    """
    check_cocycle_cells(a)
    if not is_jordan(a):
        raise NonJordanError("cocycles are only computed for Jordan algebras")
    n = a.dim
    pivots = coboundary_echelon(a)
    cols = [c for c in range(n * (n + 1) // 2 * n) if c not in pivots]
    # sparser rows first keep the kernel basis sparse for longer
    rows = sorted(_assemble_cocycle_rows(a, cols), key=len)
    h2 = len(_int_kernel(rows, len(cols)))
    return CocycleSpace(len(pivots) + h2, len(pivots), h2)
