"""Exact linear algebra over the rationals.

Everything in this package reduces to rank, kernel and span computations
over Q, carried out with `fractions.Fraction` coefficients so that every
result is exact.  Internally the work runs fraction-free on integer rows
(scaled by the lcm of their denominators, divided by their content) in two
exact cores.  `_int_kernel` cuts a kernel basis down row by row, so a row
dependent on earlier ones costs one test and no reduction; `rank`,
`int_rows_rank` and `kernel` use it.  `_int_echelon` builds the echelon
basis that `rref`, `solve`, `invert` and `Subspace` need.

Matrices are immutable; subspaces are stored as reduced row-echelon bases,
so two subspaces are equal iff their representations are identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
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


def add_vec(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vector:
    return tuple(a + b for a, b in zip(u, v))


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

    def row_list(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

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

    def matmul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        cols = [other.apply_t_row(j) for j in range(other.cols)]
        rows = []
        for i in range(self.rows):
            r = self.row(i)
            rows.append([sum((r[k] * cols[j][k] for k in range(self.cols)), ZERO) for j in range(other.cols)])
        return Matrix.from_rows(rows)

    def apply_t_row(self, j: int) -> Vector:
        return tuple(self.entry(i, j) for i in range(self.rows))


# ---------------------------------------------------------------------------
# fraction-free elimination core

def _int_row(frac_row: Sequence[Fraction]) -> list[int]:
    """Scale a rational row to a primitive integer row (same span)."""
    den = 1
    for x in frac_row:
        d = x.denominator
        den = den // gcd(den, d) * d
    row = [x.numerator * (den // x.denominator) for x in frac_row]
    g = 0
    for x in row:
        g = gcd(g, x)
        if g == 1:
            break
    if g > 1:
        row = [x // g for x in row]
    return row


def _normalize_int_row(row: list[int]) -> Optional[list[int]]:
    """Divide by content, make the leading entry positive; None if zero."""
    g = 0
    lead = 0
    for x in row:
        if x and lead == 0:
            lead = x
        g = gcd(g, x)
    if g == 0:
        return None
    if lead < 0:
        g = -g
    if g != 1:
        row = [x // g for x in row]
    return row


def _int_echelon(rows: Iterable[Sequence[int]], ncols: int) -> dict[int, list[int]]:
    """Incremental integer echelon form: pivot column -> primitive row.

    Rows are combined only from the current column onward (both operands
    are zero to its left), which keeps the elimination cheap on the long
    sparse rows produced by the assembled linear systems.
    """
    pivots: dict[int, list[int]] = {}
    for raw in rows:
        row = list(raw)
        c = 0
        while c < ncols:
            v = row[c]
            if v == 0:
                c += 1
                continue
            p = pivots.get(c)
            if p is None:
                norm = _normalize_int_row(row)
                if norm is not None:
                    pivots[c] = norm
                break
            pl = p[c]
            g = gcd(pl, v)
            a, b = pl // g, v // g
            if a == 1:
                row[c:] = [x - b * y for x, y in zip(row[c:], p[c:])]
            else:
                row[c:] = [a * x - b * y for x, y in zip(row[c:], p[c:])]
            c += 1
    return pivots


def _int_kernel(rows: Iterable[Sequence[int]], ncols: int) -> list[list[int]]:
    """Integer basis of the right kernel {v : r . v = 0 for every row r}.

    From the unit vectors on, a row orthogonal to every basis vector lies in
    the span of the rows before it and is skipped; otherwise the vector k0
    of smallest nonzero product d0 is dropped and each other k, of product
    d, becomes (d0/g) k - (d/g) k0 over its content, g = gcd(d0, d).  Each
    vector stays alone nonzero at one coordinate (k0 is zero there), so the
    basis is independent and sparse: dicts column -> entry, `cols` by column.
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
    out = []
    for k in basis.values():
        v = [0] * ncols
        for c, x in k.items():
            v[c] = x
        out.append(v)
    return out


def _echelon_to_rref_rows(pivots: dict[int, list[int]], ncols: int) -> list[Vector]:
    """Back-substitute an integer echelon into canonical rational RREF rows."""
    cols = sorted(pivots)
    rows: list[list[Fraction]] = []
    for c in cols:
        p = pivots[c]
        lead = Fraction(p[c])
        rows.append([Fraction(x) / lead for x in p])
    # eliminate above each pivot, bottom-up
    for idx in range(len(cols) - 1, -1, -1):
        c = cols[idx]
        prow = rows[idx]
        for j in range(idx):
            f = rows[j][c]
            if f:
                rows[j] = [x - f * y for x, y in zip(rows[j], prow)]
    return [tuple(r) for r in rows]


def rref(m: Matrix) -> tuple[Matrix, int]:
    """Reduced row echelon form and rank."""
    pivots = _int_echelon([_int_row(m.row(i)) for i in range(m.rows)], m.cols)
    rows = _echelon_to_rref_rows(pivots, m.cols)
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
    rows = _echelon_to_rref_rows(pivots, m.cols + 1)
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
    rows = _echelon_to_rref_rows(pivots, 2 * n)
    return Matrix.from_rows([r[n:] for r in rows])


# ---------------------------------------------------------------------------
# subspaces

@dataclass(frozen=True)
class Subspace:
    """Linear subspace of Q^ambient, stored as its unique RREF basis.

    Structural equality of two Subspace values is equality of subspaces.
    """

    ambient: int
    rows: tuple[Vector, ...]

    @classmethod
    def span(cls, ambient: int, gens: Iterable[Sequence]) -> "Subspace":
        int_rows = [_int_row(vec(g)) for g in gens]
        pivots = _int_echelon(int_rows, ambient)
        return cls(ambient, tuple(_echelon_to_rref_rows(pivots, ambient)))

    @classmethod
    def zero(cls, ambient: int) -> "Subspace":
        return cls(ambient, ())

    @classmethod
    def full(cls, ambient: int) -> "Subspace":
        return cls(ambient, tuple(unit_vec(ambient, i) for i in range(ambient)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _pivot_cols(self) -> list[int]:
        cols = []
        for r in self.rows:
            for c, x in enumerate(r):
                if x:
                    cols.append(c)
                    break
        return cols

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

    def coords(self, v: Sequence[Fraction]) -> Vector:
        """Coordinates of v in the RREF basis; requires containment."""
        if not self.contains_vector(v):
            raise ValueError("vector not in subspace")
        return tuple(vec(v)[c] for c in self._pivot_cols())

    def from_coords(self, coeffs: Sequence[Fraction]) -> Vector:
        out = [ZERO] * self.ambient
        for c, row in zip(coeffs, self.rows):
            if c:
                for j, x in enumerate(row):
                    out[j] += c * x
        return tuple(out)

    def contains_vector(self, v: Sequence[Fraction]) -> bool:
        return is_zero_vec(self.reduce_vector(v))

    def contains(self, other: "Subspace") -> bool:
        if other.ambient != self.ambient:
            raise ValueError("ambient mismatch")
        return all(self.contains_vector(r) for r in other.rows)

    def add(self, other: "Subspace") -> "Subspace":
        if other.ambient != self.ambient:
            raise ValueError("ambient mismatch")
        return Subspace.span(self.ambient, list(self.rows) + list(other.rows))

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: echelonize [A|A; B|0]; rows with zero left half span the meet."""
        if other.ambient != self.ambient:
            raise ValueError("ambient mismatch")
        n = self.ambient
        stacked = [list(r) + list(r) for r in self.rows]
        stacked += [list(r) + [ZERO] * n for r in other.rows]
        pivots = _int_echelon([_int_row(r) for r in stacked], 2 * n)
        gens = []
        for c, row in pivots.items():
            if c >= n:
                gens.append([Fraction(x) for x in row[n:]])
        return Subspace.span(n, gens)

    def is_zero(self) -> bool:
        return not self.rows
