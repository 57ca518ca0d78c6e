"""Exact linear algebra over the rationals.

Everything in this package reduces to rank, kernel and span computations
over Q, and every result is exact.  The work runs fraction-free on integer
pair rows, the (column, value) pairs of a row's nonzero entries, so a row
costs its nonzeros and not its length, in two exact cores.  `_int_vec`
scales every rational vector to integers: the callers write their systems
on the structure constants it scaled, and the public `Matrix` functions
divide each row it scaled by its content (`_int_row`) and take its pairs
(`_pairs`).
`_int_kernel` cuts a kernel basis down row by row, so a row dependent on
earlier ones costs one test and no reduction; `rank`, `int_rows_rank`,
`kernel` and the cocycle cut use it.  `_pair_echelon` is the one echelon:
`Subspace`, `rref`, the delta^1 rows of `cohomology` and the flags and
frames of `invariants` read it, `_int_rref` back-substitutes it in
integers, and on it `_int_solve` reads a solution (`solve`,
`algebra.find_identity`) and `_int_inverse` an inverse (`invert`,
`algebra.change_basis`).

Matrices are immutable.  A subspace is stored as its RREF basis with each
row scaled to a primitive integer row with a positive pivot; that basis is
unique, so two subspaces are equal iff their representations are identical,
and its rational rows are derived only when read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, compress
from math import gcd, isfinite, lcm
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
    is an integer vector."""
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


def _pairs(row: Sequence[int]) -> Iterable[tuple[int, int]]:
    """The (column, value) pairs of a dense row's nonzero entries."""
    return compress(enumerate(row), row)


def _pair_echelon_add(pivots: dict[int, dict[int, int]], pairs: Iterable[tuple[int, int]]) -> bool:
    """Reduce a pair row against the echelon `pivots` and add what is left
    as a new pivot row; True iff the row was independent of those there.

    At its leading column c the row becomes (p[c] / g) row - (row[c] / g) p,
    p the pivot row there and g = gcd(p[c], row[c]), until it is zero or
    leads at a new pivot column.  A step costs the nonzeros of the two
    rows, not the row length, and the leading column only moves right, so
    it is found by a scan on from the last one."""
    row = dict(pairs)
    if not row:
        return False
    c = min(row)
    while True:
        p = pivots.get(c)
        if p is None:
            g = gcd(*row.values())
            if row[c] < 0:
                g = -g
            pivots[c] = {k: x // g for k, x in row.items()} if g != 1 else row
            return True
        g = gcd(p[c], row[c])
        a, b = p[c] // g, row[c] // g
        if a != 1:
            for k in row:
                row[k] *= a
        for k, y in p.items():
            x = row.get(k, 0) - b * y
            if x:
                row[k] = x
            else:
                del row[k]
        if not row:
            return False
        while c not in row:
            c += 1


def _pair_echelon(rows: Iterable[Iterable[tuple[int, int]]]) -> dict[int, dict[int, int]]:
    """Integer echelon form of pair rows: pivot column -> row, a dict
    column -> nonzero entry, divided by its content and positive at its
    pivot, the row's smallest column.  The pivot columns are the leading
    columns of the row space."""
    pivots: dict[int, dict[int, int]] = {}
    for pairs in rows:
        _pair_echelon_add(pivots, pairs)
    return pivots


def _int_kernel(rows: Iterable[Iterable[tuple[int, int]]], ncols: int) -> list[list[int]]:
    """Integer basis of the right kernel {v : r . v = 0 for every row r}, each
    row given as pairs (column, value) of its nonzero entries.

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
        for c, x in row:
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


def _int_rref(pivots: dict[int, dict[int, int]], ncols: int) -> list[tuple[int, ...]]:
    """Back-substitute an integer echelon of `ncols` columns, which is left
    as it is: the RREF rows in pivot order, dense, each scaled to a
    primitive integer row with a positive pivot.

    Each changed row is divided by its content; its leading entry stays
    positive, so the rows are as canonical as the RREF itself.
    """
    cols = sorted(pivots)
    rows = []
    for c in cols:
        row = [0] * ncols
        for k, x in pivots[c].items():
            row[k] = x
        rows.append(row)
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
    return list(map(tuple, rows))


def _rational_rows(int_rows: Iterable[Sequence[int]]) -> list[Vector]:
    """Each integer RREF row divided by its pivot: the rational RREF rows."""
    out = []
    for r in int_rows:
        lead = next(x for x in r if x)
        out.append(tuple(Fraction(x, lead) if x else ZERO for x in r))
    return out


def _echelon_to_rref_rows(pivots: dict[int, dict[int, int]], ncols: int) -> list[Vector]:
    """Canonical rational RREF rows of an integer echelon."""
    return _rational_rows(_int_rref(pivots, ncols))


def _int_solve(rows: Iterable[Iterable[tuple[int, int]]], ncols: int) -> Optional[Vector]:
    """A solution of the integer system of pair rows `rows`, each with its
    right-hand side at column `ncols`, or None if it is inconsistent: read
    off the RREF, with the free unknowns zero."""
    pivots = _pair_echelon(rows)
    if ncols in pivots:
        return None
    x = [ZERO] * ncols
    for r, c in zip(_echelon_to_rref_rows(pivots, ncols + 1), sorted(pivots)):
        x[c] = r[ncols]
    return tuple(x)


def _int_inverse(rows: Sequence[Sequence[int]]) -> Optional[tuple[list[list[int]], int]]:
    """(Q, dq), Q an integer matrix with P^-1 = Q / dq, for the square
    integer matrix P of `rows`, or None if P is singular: read off the
    integer RREF of [P | I]."""
    n = len(rows)
    pivots = _pair_echelon(chain(_pairs(r), ((n + i, 1),)) for i, r in enumerate(rows))
    if sorted(pivots) != list(range(n)):
        return None
    rref = _int_rref(pivots, 2 * n)
    dq = lcm(*(r[c] for c, r in enumerate(rref)))
    return [[x * (dq // r[c]) for x in r[n:]] for c, r in enumerate(rref)], dq


def rref(m: Matrix) -> tuple[Matrix, int]:
    """Reduced row echelon form and rank."""
    pivots = _pair_echelon(_pairs(_int_row(m.row(i))) for i in range(m.rows))
    rows = _echelon_to_rref_rows(pivots, m.cols)
    rank = len(rows)
    rows += [zero_vec(m.cols) for _ in range(m.rows - rank)]
    return Matrix.from_rows(rows) if m.rows else m, rank


def rank(m: Matrix) -> int:
    rows = (_pairs(_int_row(m.row(i))) for i in range(m.rows))
    return m.cols - len(_int_kernel(rows, m.cols))


def _simple_rational_roots(c: Sequence[int]) -> list[Fraction]:
    """The simple rational roots, ascending, of the integer polynomial
    sum c_k t^k of degree d >= 1.

    Candidates come from the near-real roots of a Durand-Kerner iteration
    in floats on the monic polynomial, started on a circle of Fujiwara's
    bound on the roots.  With L = c_d a rational root is s / L for an
    integer s, a root of H(s) = L^d f(s / L) = sum c_k s^k L^(d-k); the
    rounded float guess for s is polished by integer Newton steps and kept
    when H(s) = 0 and H'(s) != 0 exactly.  A root that is missed is not
    reported, and nothing else is.
    """
    d, lead = len(c) - 1, c[-1]
    try:
        mono = [x / lead for x in c]
        radius = 2 * max(abs(x) ** (1 / (d - k)) for k, x in enumerate(mono[:-1]))  # Fujiwara
        z = [radius * complex(0.4, 0.9) ** i for i in range(d)]
        for _ in range(100):
            moved = 0.0
            for i in range(d):
                p, q = 0j, 1 + 0j
                for x in reversed(mono):
                    p = p * z[i] + x
                for j in range(d):
                    if j != i:
                        q *= z[i] - z[j]
                step = p / q
                z[i] -= step
                moved = max(moved, abs(step))
            if moved <= 1e-13 * radius:
                break
    except (OverflowError, ZeroDivisionError):
        return []
    coeffs = [x * lead ** (d - k) for k, x in enumerate(c)]  # H(s) = sum coeffs[k] s^k
    roots = set()
    for w in z:
        if not (abs(w.imag) <= 1e-6 * radius and isfinite(w.real)):
            continue
        s = round(Fraction(w.real) * lead)
        for _ in range(4):
            h = sum(x * s ** k for k, x in enumerate(coeffs))
            dh = sum(k * x * s ** (k - 1) for k, x in enumerate(coeffs) if k)
            if h == 0:
                if dh:
                    roots.add(Fraction(s, lead))
                break
            step = round(Fraction(h, dh)) if dh else 0
            if not step:
                break
            s -= step
    return sorted(roots)


def int_rows_rank(rows: Iterable[Sequence[int]], ncols: int) -> int:
    """Rank of a collection of dense integer rows (the centroid system).

    Each row is read as its pairs; sparser rows are processed first, which
    keeps the kernel basis sparse for longer.
    """
    ordered = sorted((tuple(_pairs(r)) for r in rows), key=len)
    return ncols - len(_int_kernel(ordered, ncols))


def kernel(m: Matrix) -> "Subspace":
    """Canonical basis of the right kernel {v : m v = 0}."""
    rows = (_pairs(_int_row(m.row(i))) for i in range(m.rows))
    return Subspace.span(m.cols, _int_kernel(rows, m.cols))


def solve(m: Matrix, b: Sequence[Fraction]) -> Optional[Vector]:
    """Some solution of m x = b, or None if the system is inconsistent."""
    if len(b) != m.rows:
        raise ValueError("right-hand side has wrong length")
    return _int_solve((_pairs(_int_row(m.row(i) + (rat(y),))) for i, y in enumerate(b)), m.cols)


def invert(m: Matrix) -> Optional[Matrix]:
    """Inverse of a square matrix, or None if singular: with m = P / d for
    an integer matrix P, the inverse is d Q / dq for `_int_inverse(P)`."""
    if m.rows != m.cols:
        raise ValueError("not square")
    n = m.rows
    d, flat = _int_vec(m.entries)
    inverse = _int_inverse([flat[i * n:(i + 1) * n] for i in range(n)])
    if inverse is None:
        return None
    q, dq = inverse
    return Matrix(n, n, tuple(Fraction(d * x, dq) for r in q for x in r))


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
        if any(len(r) != ambient for r in rows):
            raise ValueError("ambient mismatch")
        return cls(ambient, tuple(_int_rref(_pair_echelon(map(_pairs, filter(any, rows))), ambient)))

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
        return len(_pair_echelon(map(_pairs, self.int_rows + other.int_rows))) == self.dim

    def add(self, other: "Subspace") -> "Subspace":
        if other.ambient != self.ambient:
            raise ValueError("ambient mismatch")
        return Subspace.span(self.ambient, self.int_rows + other.int_rows)

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: echelonize [A|A; B|0]; rows with zero left half span the meet."""
        if other.ambient != self.ambient:
            raise ValueError("ambient mismatch")
        n = self.ambient
        stacked = [r + r for r in self.int_rows] + list(other.int_rows)
        pivots = _pair_echelon(map(_pairs, stacked))
        # the rows that lead in the right half are an echelon of the meet
        meet = {c - n: {k - n: x for k, x in row.items()} for c, row in pivots.items() if c >= n}
        return Subspace(n, tuple(_int_rref(meet, n)))

    def is_zero(self) -> bool:
        return not self.int_rows
