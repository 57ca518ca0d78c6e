"""Exact linear algebra over the rationals.

Everything in this package reduces to rank, kernel and span computations
over Q, and every result is exact.  The work runs fraction-free on integer
rows in two exact cores.  `_int_vec` scales every rational vector to
integers: the callers write their systems on the structure constants it
scaled, and the public `Matrix` functions divide each row it scaled by its
content (`_int_row`).
`_int_kernel` cuts a kernel basis down row by row, so a row dependent on
earlier ones costs one test and no reduction; `rank`, `int_rows_rank` and
`kernel` use it.  `_int_echelon` builds the echelon basis that `rref`,
`solve`, `invert` and `Subspace` need, and `_int_rref` back-substitutes it in
integers.

Matrices are immutable.  A subspace is stored as its RREF basis with each
row scaled to a primitive integer row with a positive pivot; that basis is
unique, so two subspaces are equal iff their representations are identical,
and its rational rows are derived only when read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

Rational = Fraction

Vector = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)


def rat(value) -> Fraction:
    """Coerce ints, strings like '-1/2' and Fractions to a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational number")


def vec(values: Iterable) -> Vector:
    return tuple(rat(v) for v in values)


def zero_vec(n: int) -> Vector:
    return (ZERO,) * n


def unit_vec(n: int, i: int) -> Vector:
    return tuple(ONE if j == i else ZERO for j in range(n))


def sub_vec(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vector:
    return tuple(a - b for a, b in zip(u, v))


def is_zero_vec(u: Sequence[Fraction]) -> bool:
    return all(a == 0 for a in u)


@dataclass(frozen=True)
class Matrix:
    """Dense row-major matrix of Fractions."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match shape")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "Matrix":
        rows = [vec(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        flat = tuple(x for r in rows for x in r)
        return cls(len(rows), ncols, flat)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls.from_rows([unit_vec(n, i) for i in range(n)])

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, (ZERO,) * (rows * cols))

    def row(self, i: int) -> Vector:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def apply(self, v: Sequence[Fraction]) -> Vector:
        """Matrix times column vector."""
        if len(v) != self.cols:
            raise ValueError("dimension mismatch")
        out = []
        for i in range(self.rows):
            base = i * self.cols
            out.append(sum((self.entries[base + j] * v[j] for j in range(self.cols)), ZERO))
        return tuple(out)


# ---------------------------------------------------------------------------
# fraction-free elimination core

def _int_vec(v: Sequence[Fraction]) -> tuple[int, list[int]]:
    """(d, d v): d the lcm of the denominators of v's entries, so that d v
    is an integer vector.  The structure constants, elements and matrix rows
    are all scaled to integers here."""
    d = lcm(*(x.denominator for x in v))
    return d, [x.numerator * (d // x.denominator) for x in v]


def _int_row(frac_row: Sequence[Fraction]) -> list[int]:
    """Scale a rational row to a primitive integer row (same span):
    `_int_vec`, divided by its content."""
    row = _int_vec(frac_row)[1]
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _normalize_int_row(row: list[int]) -> Optional[list[int]]:
    """Divide by content, make the leading entry positive; None if zero."""
    g = gcd(*row)
    if g == 0:
        return None
    if next(x for x in row if x) < 0:
        g = -g
    return [x // g for x in row] if g != 1 else row


def _int_echelon_add(pivots: dict[int, list[int]], raw: Sequence[int], ncols: int) -> bool:
    """Reduce one row against the echelon `pivots` (pivot column ->
    primitive row) and add what is left as a new pivot row; True iff the
    row was independent of the rows already there.

    Rows are combined only from the current column onward (both operands
    are zero to its left), which keeps the elimination cheap on the long
    sparse rows produced by the assembled linear systems.
    """
    row = list(raw)
    c = 0
    while c < ncols:
        v = row[c]
        if v == 0:
            c += 1
            continue
        p = pivots.get(c)
        if p is None:
            pivots[c] = _normalize_int_row(row)
            return True
        pl = p[c]
        g = gcd(pl, v)
        a, b = pl // g, v // g
        if a == 1:
            row[c:] = [x - b * y for x, y in zip(row[c:], p[c:])]
        else:
            row[c:] = [a * x - b * y for x, y in zip(row[c:], p[c:])]
        c += 1
    return False


def _int_echelon(rows: Iterable[Sequence[int]], ncols: int) -> dict[int, list[int]]:
    """Incremental integer echelon form: pivot column -> primitive row."""
    pivots: dict[int, list[int]] = {}
    for raw in rows:
        _int_echelon_add(pivots, raw, ncols)
    return pivots


def _int_kernel(rows: Iterable[Sequence[int]], ncols: int) -> list[list[int]]:
    """Integer basis of the right kernel {v : r . v = 0 for every row r}.

    From the unit vectors on, a row orthogonal to every basis vector lies in
    the span of the rows before it and is skipped; otherwise the vector k0
    of smallest nonzero product d0 is dropped and each other k, of product
    d, becomes (d0/g) k - (d/g) k0 over its content, g = gcd(d0, d).  Each
    vector stays alone nonzero at one coordinate (k0 is zero there), so the
    basis is independent and sparse: dicts column -> entry, `cols` by column.
    Reading stops at the row that empties the basis.
    """
    basis = {j: {j: 1} for j in range(ncols)}
    cols = [{j: 1} for j in range(ncols)]  # cols[c][i] == basis[i][c]
    for row in rows:
        dots: dict[int, int] = {}
        for c, x in enumerate(row):
            if x:
                for i, y in cols[c].items():
                    dots[i] = dots.get(i, 0) + x * y
        hit = [(i, d) for i, d in dots.items() if d]
        if not hit:
            continue
        i0, d0 = min(hit, key=lambda t: abs(t[1]))
        hit.remove((i0, d0))
        k0 = basis.pop(i0)
        for c in k0:
            del cols[c][i0]
        for i, d in hit:
            g = gcd(d0, d)
            a, b = d0 // g, d // g
            k = basis[i]
            for c in k:
                k[c] *= a
            for c, y in k0.items():
                v = k.get(c, 0) - b * y
                if v:
                    k[c] = v
                elif c in k:
                    del k[c], cols[c][i]
            g = gcd(*k.values())
            for c in k:
                k[c] //= g
                cols[c][i] = k[c]
        if not basis:
            break
    out = []
    for k in basis.values():
        v = [0] * ncols
        for c, x in k.items():
            v[c] = x
        out.append(v)
    return out


def _int_rref(pivots: dict[int, list[int]]) -> list[list[int]]:
    """Back-substitute an integer echelon: the RREF rows in pivot order,
    each scaled to a primitive integer row with a positive pivot.

    Each changed row is divided by its content; its leading entry stays
    positive, so the rows are as canonical as the RREF itself.
    """
    cols = sorted(pivots)
    rows = [pivots[c] for c in cols]
    # eliminate above each pivot, bottom-up
    for idx in range(len(cols) - 1, -1, -1):
        c = cols[idx]
        prow = rows[idx]
        lead = prow[c]
        for j in range(idx):
            f = rows[j][c]
            if f:
                g = gcd(lead, f)
                a, b = lead // g, f // g
                row = [a * x - b * y for x, y in zip(rows[j], prow)]
                g = gcd(*row)
                rows[j] = [x // g for x in row] if g != 1 else row
    return rows


def _rational_rows(int_rows: Iterable[Sequence[int]]) -> list[Vector]:
    """Each integer RREF row divided by its pivot: the rational RREF rows."""
    out = []
    for r in int_rows:
        lead = next(x for x in r if x)
        out.append(tuple(Fraction(x, lead) if x else ZERO for x in r))
    return out


def _echelon_to_rref_rows(pivots: dict[int, list[int]]) -> list[Vector]:
    """Canonical rational RREF rows of an integer echelon."""
    return _rational_rows(_int_rref(pivots))


def rref(m: Matrix) -> tuple[Matrix, int]:
    """Reduced row echelon form and rank."""
    pivots = _int_echelon([_int_row(m.row(i)) for i in range(m.rows)], m.cols)
    rows = _echelon_to_rref_rows(pivots)
    rank = len(rows)
    rows += [zero_vec(m.cols) for _ in range(m.rows - rank)]
    return Matrix.from_rows(rows) if m.rows else m, rank


def rank(m: Matrix) -> int:
    return m.cols - len(_int_kernel((_int_row(m.row(i)) for i in range(m.rows)), m.cols))


def int_rows_rank(rows: Iterable[Sequence[int]], ncols: int) -> int:
    """Rank of a collection of integer rows (the assembled cocycle systems).

    Sparser rows are processed first, which keeps the kernel basis sparse
    for longer.
    """
    ordered = sorted(rows, key=lambda r: len(r) - r.count(0))
    return ncols - len(_int_kernel(ordered, ncols))


def kernel(m: Matrix) -> "Subspace":
    """Canonical basis of the right kernel {v : m v = 0}."""
    rows = (_int_row(m.row(i)) for i in range(m.rows))
    return Subspace.span(m.cols, _int_kernel(rows, m.cols))


def solve(m: Matrix, b: Sequence[Fraction]) -> Optional[Vector]:
    """Some solution of m x = b, or None if the system is inconsistent."""
    if len(b) != m.rows:
        raise ValueError("right-hand side has wrong length")
    aug_rows = [list(m.row(i)) + [rat(x)] for i, x in zip(range(m.rows), b)]
    pivots = _int_echelon([_int_row(r) for r in aug_rows], m.cols + 1)
    if m.cols in pivots:
        return None
    rows = _echelon_to_rref_rows(pivots)
    x = [ZERO] * m.cols
    for r, c in zip(rows, sorted(pivots)):
        x[c] = r[m.cols]
    return tuple(x)


def invert(m: Matrix) -> Optional[Matrix]:
    """Inverse of a square matrix, or None if singular."""
    if m.rows != m.cols:
        raise ValueError("not square")
    n = m.rows
    aug = [list(m.row(i)) + list(unit_vec(n, i)) for i in range(n)]
    pivots = _int_echelon([_int_row(r) for r in aug], 2 * n)
    if sorted(pivots) != list(range(n)):
        return None
    rows = _echelon_to_rref_rows(pivots)
    return Matrix.from_rows([r[n:] for r in rows])


# ---------------------------------------------------------------------------
# subspaces

@dataclass(frozen=True)
class Subspace:
    """Linear subspace of Q^ambient, stored as its RREF basis with each row
    scaled to a primitive integer row with a positive pivot.

    That basis is unique, so structural equality of two Subspace values is
    equality of subspaces.  `rows` is the rational RREF, derived on demand.
    """

    ambient: int
    int_rows: tuple[tuple[int, ...], ...]

    @classmethod
    def span(cls, ambient: int, gens: Iterable[Sequence]) -> "Subspace":
        """Span of generators; integer rows are read as they are, others
        (Fractions, or strings `rat` reads) are scaled to integer rows."""
        rows = [g if all(type(x) is int for x in g) else _int_row(vec(g)) for g in gens]
        pivots = _int_echelon(rows, ambient)
        return cls(ambient, tuple(map(tuple, _int_rref(pivots))))

    @classmethod
    def zero(cls, ambient: int) -> "Subspace":
        return cls(ambient, ())

    @classmethod
    def full(cls, ambient: int) -> "Subspace":
        units = tuple(tuple(int(i == j) for j in range(ambient)) for i in range(ambient))
        return cls(ambient, units)

    @cached_property
    def rows(self) -> tuple[Vector, ...]:
        return tuple(_rational_rows(self.int_rows))

    @property
    def dim(self) -> int:
        return len(self.int_rows)

    def _pivot_cols(self) -> list[int]:
        return [next(c for c, x in enumerate(r) if x) for r in self.int_rows]

    def reduce_vector(self, v: Sequence[Fraction]) -> Vector:
        """Residue of v after subtracting its projection onto the basis rows."""
        if len(v) != self.ambient:
            raise ValueError("ambient mismatch")
        w = list(vec(v))
        for row, c in zip(self.rows, self._pivot_cols()):
            f = w[c]
            if f:
                for j in range(c, self.ambient):
                    w[j] -= f * row[j]
        return tuple(w)

    def contains_vector(self, v: Sequence[Fraction]) -> bool:
        return is_zero_vec(self.reduce_vector(v))

    def contains(self, other: "Subspace") -> bool:
        if other.ambient != self.ambient:
            raise ValueError("ambient mismatch")
        return len(_int_echelon(self.int_rows + other.int_rows, self.ambient)) == self.dim

    def add(self, other: "Subspace") -> "Subspace":
        if other.ambient != self.ambient:
            raise ValueError("ambient mismatch")
        return Subspace.span(self.ambient, self.int_rows + other.int_rows)

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: echelonize [A|A; B|0]; rows with zero left half span the meet."""
        if other.ambient != self.ambient:
            raise ValueError("ambient mismatch")
        n = self.ambient
        stacked = [r + r for r in self.int_rows] + [r + (0,) * n for r in other.int_rows]
        pivots = _int_echelon(stacked, 2 * n)
        return Subspace.span(n, [row[n:] for c, row in pivots.items() if c >= n])

    def is_zero(self) -> bool:
        return not self.int_rows
