"""Finite-dimensional algebras presented by rational structure constants.

An `Algebra` stores a basis (labels are for reporting only) and the full
table c[i][j] = coefficient vector of b_i * b_j.  Elements are plain tuples
of Fractions in that basis.  Commutative tables are the main case, but the
storage is general enough for, e.g., full matrix algebras, which is what the
symmetrized `plus_algebra` construction consumes.

All values are immutable and every operation is a pure function.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Optional, Sequence

from .ratlin import (
    HALF,
    ONE,
    ZERO,
    Matrix,
    Subspace,
    Vector,
    add_vec,
    invert,
    is_zero_vec,
    rat,
    solve,
    sub_vec,
    unit_vec,
    zero_vec,
)


class AlgebraError(ValueError):
    """Structural or precondition failure on an algebra operation."""


@dataclass(frozen=True)
class Algebra:
    labels: tuple[str, ...]
    table: tuple[tuple[Vector, ...], ...]

    def __post_init__(self):
        n = len(self.labels)
        if len(self.table) != n or any(len(row) != n for row in self.table):
            raise AlgebraError("structure-constant table must be n x n")
        for row in self.table:
            for entry in row:
                if len(entry) != n:
                    raise AlgebraError("structure-constant vectors must have length n")

    @property
    def dim(self) -> int:
        return len(self.labels)

    @classmethod
    def from_products(
        cls,
        labels: Sequence[str],
        products: Mapping[tuple[str, str], Mapping[str, object]],
        symmetric: bool = True,
    ) -> "Algebra":
        """Build from sparse products {(la, lb): {lc: coeff}}; omitted pairs are 0."""
        labels = tuple(labels)
        index = {l: i for i, l in enumerate(labels)}
        if len(index) != len(labels):
            raise AlgebraError("duplicate basis labels")
        n = len(labels)
        table = [[list(zero_vec(n)) for _ in range(n)] for _ in range(n)]
        for (la, lb), rhs in products.items():
            i, j = index[la], index[lb]
            v = [ZERO] * n
            for lc, coeff in rhs.items():
                v[index[lc]] = rat(coeff)
            table[i][j] = v
            if symmetric:
                table[j][i] = list(v)
        return cls(labels, tuple(tuple(tuple(r) for r in row) for row in table))

    def basis_vector(self, i: int) -> Vector:
        return unit_vec(self.dim, i)

    def element(self, coeffs: Mapping[str, object]) -> Vector:
        """Vector from {label: coefficient}."""
        index = {l: i for i, l in enumerate(self.labels)}
        v = [ZERO] * self.dim
        for label, c in coeffs.items():
            if label not in index:
                raise AlgebraError(f"unknown basis label {label!r}")
            v[index[label]] += rat(c)
        return tuple(v)

    def label_index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise AlgebraError(f"unknown basis label {label!r}") from None

    def format_element(self, v: Sequence[Fraction]) -> str:
        parts = []
        for c, label in zip(v, self.labels):
            if c == 0:
                continue
            if c == 1:
                parts.append(f"+ {label}")
            elif c == -1:
                parts.append(f"- {label}")
            elif c > 0:
                parts.append(f"+ {c} {label}")
            else:
                parts.append(f"- {-c} {label}")
        if not parts:
            return "0"
        head = parts[0].lstrip("+ ")
        if parts[0].startswith("- "):
            head = "-" + parts[0][2:]
        return " ".join([head] + parts[1:])

    # -- products ----------------------------------------------------------

    @cached_property
    def _sparse(self) -> tuple[tuple[tuple[tuple[int, Fraction], ...], ...], ...]:
        return tuple(
            tuple(tuple((k, c) for k, c in enumerate(entry) if c) for entry in row)
            for row in self.table
        )

    @cached_property
    def _int_structure(self):
        """(denominator, sparse integer table): table entries scaled by the
        global lcm of denominators, for fast zero-tests of multilinear
        expressions (which only rescale under the scaling)."""
        from math import lcm

        den = 1
        for row in self.table:
            for entry in row:
                for x in entry:
                    den = lcm(den, x.denominator)
        srows = tuple(
            tuple(
                tuple((k, int(x * den)) for k, x in enumerate(entry) if x)
                for entry in row
            )
            for row in self.table
        )
        return den, srows

    def mul_bv(self, i: int, v: Sequence[Fraction]) -> Vector:
        """Product b_i * v."""
        out = [ZERO] * self.dim
        row = self._sparse[i]
        for j, c in enumerate(v):
            if c:
                for k, x in row[j]:
                    out[k] += c * x
        return tuple(out)

    def mul(self, u: Sequence[Fraction], v: Sequence[Fraction]) -> Vector:
        out = [ZERO] * self.dim
        sparse = self._sparse
        for i, a in enumerate(u):
            if a:
                row = sparse[i]
                for j, b in enumerate(v):
                    if b:
                        ab = a * b
                        for k, x in row[j]:
                            out[k] += ab * x
        return tuple(out)

    def left_mult_matrix(self, v: Sequence[Fraction]) -> Matrix:
        """Matrix of L_v : x -> v * x in the basis."""
        cols = [self.mul(v, self.basis_vector(j)) for j in range(self.dim)]
        return Matrix.from_rows(
            [[cols[j][k] for j in range(self.dim)] for k in range(self.dim)]
        )

    @cached_property
    def _basis_traces(self) -> Vector:
        """tr L_{b_i} = sum_k c[i][k][k]; traces extend linearly."""
        return tuple(
            sum((self.table[i][k][k] for k in range(self.dim)), ZERO)
            for i in range(self.dim)
        )

    def trace_of_left_mult(self, v: Sequence[Fraction]) -> Fraction:
        traces = self._basis_traces
        return sum((c * traces[i] for i, c in enumerate(v) if c), ZERO)


def multiply(a: Algebra, x: Sequence[Fraction], y: Sequence[Fraction]) -> Vector:
    if len(x) != a.dim or len(y) != a.dim:
        raise AlgebraError("element dimension mismatch")
    return a.mul(x, y)


def associator(
    a: Algebra, x: Sequence[Fraction], y: Sequence[Fraction], z: Sequence[Fraction]
) -> Vector:
    """(x*y)*z - x*(y*z)."""
    return sub_vec(a.mul(a.mul(x, y), z), a.mul(x, a.mul(y, z)))


def commutativity_violation(a: Algebra) -> Optional[tuple[int, int]]:
    for i in range(a.dim):
        for j in range(i + 1, a.dim):
            if a.table[i][j] != a.table[j][i]:
                return (i, j)
    return None


def is_commutative(a: Algebra) -> bool:
    return commutativity_violation(a) is None


def _linearized_defect(a: Algebra, x: int, y: int, z: int, w: int) -> Vector:
    """Defect of the multilinear identity

        (x, y, z*w) + (w, y, z*x) + (z, y, x*w) = 0

    evaluated on basis elements, where ( , , ) is the associator."""
    bx, by, bz, bw = (a.basis_vector(t) for t in (x, y, z, w))
    t1 = associator(a, bx, by, a.table[z][w])
    t2 = associator(a, bw, by, a.table[z][x])
    t3 = associator(a, bz, by, a.table[x][w])
    return add_vec(add_vec(t1, t2), t3)


def _int_defect_scan(a: Algebra) -> Optional[tuple[int, int, int, int]]:
    """Scan basis quadruples for a nonzero identity defect, on integer-scaled
    structure constants (the defect is trilinear in them, so zero-ness is
    scale invariant)."""
    n = a.dim
    _, srows = a._int_structure

    def mul_bv(i: int, v: list[int]) -> list[int]:
        out = [0] * n
        row = srows[i]
        for j, c in enumerate(v):
            if c:
                for k, x in row[j]:
                    out[k] += c * x
        return out

    def row_vec(i: int, j: int) -> list[int]:
        out = [0] * n
        for k, x in srows[i][j]:
            out[k] = x
        return out

    def assoc_bb(p: int, q: int, v: list[int]) -> list[int]:
        # (b_p, b_q, v) = (b_p b_q) v - b_p (b_q v)
        left = [0] * n
        for k, x in srows[p][q]:
            if x:
                t = mul_bv(k, v)
                for m in range(n):
                    left[m] += x * t[m]
        right = mul_bv(p, mul_bv(q, v))
        return [l - r for l, r in zip(left, right)]

    for x in range(n):
        for z in range(x, n):
            for w in range(z, n):
                zw = row_vec(z, w)
                zx = row_vec(z, x)
                xw = row_vec(x, w)
                for y in range(n):
                    t1 = assoc_bb(x, y, zw)
                    t2 = assoc_bb(w, y, zx)
                    t3 = assoc_bb(z, y, xw)
                    if any(p + q + r for p, q, r in zip(t1, t2, t3)):
                        return (x, y, z, w)
    return None


def jordan_violation(a: Algebra) -> Optional[tuple[tuple[int, int, int, int], Vector]]:
    """First basis quadruple on which the linearized Jordan identity fails.

    For commutative tables the identity is symmetric in the first, third and
    fourth arguments, so only multisets {x, z, w} are scanned; multilinearity
    makes basis quadruples sufficient in characteristic zero.  Check
    commutativity separately before trusting a None result.
    """
    quad = _int_defect_scan(a)
    if quad is None:
        return None
    return (quad, _linearized_defect(a, *quad))


def is_jordan(a: Algebra) -> bool:
    """Commutativity plus the linearized Jordan identity on basis quadruples."""
    cached = a.__dict__.get("_jordan_ok")
    if cached is None:
        cached = is_commutative(a) and _int_defect_scan(a) is None
        a.__dict__["_jordan_ok"] = cached
    return cached


def is_associative(a: Algebra) -> bool:
    n = a.dim
    for i in range(n):
        bi = a.basis_vector(i)
        for j in range(n):
            bj = a.basis_vector(j)
            for k in range(n):
                if not is_zero_vec(associator(a, bi, bj, a.basis_vector(k))):
                    return False
    return True


def direct_sum(a: Algebra, b: Algebra) -> Algebra:
    """Block-diagonal table; cross products zero; labels concatenated."""
    n, m = a.dim, b.dim
    labels = a.labels + b.labels
    table = []
    for i in range(n + m):
        row = []
        for j in range(n + m):
            if i < n and j < n:
                row.append(tuple(a.table[i][j]) + zero_vec(m))
            elif i >= n and j >= n:
                row.append(zero_vec(n) + tuple(b.table[i - n][j - n]))
            else:
                row.append(zero_vec(n + m))
        table.append(tuple(row))
    return Algebra(labels, tuple(table))


def plus_algebra(a: Algebra) -> Algebra:
    """Symmetrized product x o y = (x*y + y*x)/2 on an associative algebra."""
    if not is_associative(a):
        raise AlgebraError("plus construction requires an associative algebra")
    n = a.dim
    table = tuple(
        tuple(
            tuple(HALF * (a.table[i][j][k] + a.table[j][i][k]) for k in range(n))
            for j in range(n)
        )
        for i in range(n)
    )
    return Algebra(a.labels, table)


def unitalization(a: Algebra, unit_label: str = "one") -> Algebra:
    """Adjoin a formal identity as the last basis element."""
    while unit_label in a.labels:
        unit_label += "_"
    n = a.dim
    table = []
    for i in range(n + 1):
        row = []
        for j in range(n + 1):
            if i < n and j < n:
                row.append(tuple(a.table[i][j]) + (ZERO,))
            elif i == n and j == n:
                row.append(zero_vec(n) + (ONE,))
            else:
                k = i if i < n else j
                row.append(unit_vec(n + 1, k))
        table.append(tuple(row))
    return Algebra(a.labels + (unit_label,), tuple(table))


def find_identity(a: Algebra) -> Optional[Vector]:
    """The unique two-sided identity, or None.

    Solves u * b_i = b_i for all i; in a commutative algebra an identity is
    unique, and for noncommutative tables the solution is verified on the
    right as well.
    """
    n = a.dim
    if n == 0:
        return ()
    rows = []
    rhs = []
    for i in range(n):
        for k in range(n):
            rows.append([a.table[j][i][k] for j in range(n)])
            rhs.append(ONE if i == k else ZERO)
    u = solve(Matrix.from_rows(rows), rhs)
    if u is None:
        return None
    for i in range(n):
        if a.mul(a.basis_vector(i), u) != a.basis_vector(i):
            return None
    return u


def check_isomorphism(a: Algebra, b: Algebra, p: Matrix) -> bool:
    """True iff p is invertible and maps a's product to b's on all basis pairs."""
    if a.dim != b.dim or p.rows != p.cols or p.rows != a.dim:
        return False
    if invert(p) is None:
        return False
    images = [p.apply(a.basis_vector(i)) for i in range(a.dim)]
    for i in range(a.dim):
        for j in range(a.dim):
            if p.apply(a.table[i][j]) != b.mul(images[i], images[j]):
                return False
    return True


def change_basis(a: Algebra, p: Matrix) -> Algebra:
    """Algebra in the basis given by the columns of p (in a's coordinates).

    check_isomorphism(change_basis(a, p), a, p) always holds.
    """
    if p.rows != a.dim or p.cols != a.dim:
        raise AlgebraError("basis-change matrix has wrong shape")
    p_inv = invert(p)
    if p_inv is None:
        raise AlgebraError("basis-change matrix is singular")
    cols = [p.apply(unit_vec(a.dim, i)) for i in range(a.dim)]
    table = tuple(
        tuple(p_inv.apply(a.mul(cols[i], cols[j])) for j in range(a.dim))
        for i in range(a.dim)
    )
    labels = tuple(f"b{i+1}" for i in range(a.dim))
    return Algebra(labels, table)


def product_span(a: Algebra, s: Subspace, t: Subspace) -> Subspace:
    """Span of {u * v : u in s, v in t}; bilinearity makes basis products enough."""
    if s.ambient != a.dim or t.ambient != a.dim:
        raise AlgebraError("subspace ambient mismatch")
    gens = [a.mul(u, v) for u in s.rows for v in t.rows]
    return Subspace.span(a.dim, gens)


def matrix_algebra(n: int) -> Algebra:
    """Full associative algebra of n x n matrix units E_ij (noncommutative table)."""
    labels = tuple(f"E{i+1}{j+1}" for i in range(n) for j in range(n))
    index = {(i, j): i * n + j for i in range(n) for j in range(n)}
    dim = n * n
    table = [[zero_vec(dim) for _ in range(dim)] for _ in range(dim)]
    for (i, j), p in index.items():
        for (k, l), q in index.items():
            if j == k:
                v = [ZERO] * dim
                v[index[(i, l)]] = ONE
                table[p][q] = tuple(v)
    return Algebra(labels, tuple(tuple(row) for row in table))


_RATIONAL_LITERAL = re.compile(r"[0-9]+(/[0-9]+)?")


def parse_terms(text: str) -> list[tuple[Fraction, str]]:
    """Split '[c] label [+/- [c] label ...]' into (coefficient, label) terms,
    c a rational literal such as 3 or 1/2 (default 1).

    Malformed text raises AlgebraError with a bare message; callers say
    where the text came from.
    """
    tokens = text.replace("+", " + ").replace("-", " - ").split()
    terms: list[tuple[Fraction, str]] = []
    sign = ONE
    coeff: Optional[Fraction] = None
    expecting_term = True
    for tok in tokens:
        if tok in ("+", "-"):
            if coeff is not None:
                raise AlgebraError("dangling coefficient")
            if tok == "-":
                sign = -sign
            expecting_term = True
        elif _RATIONAL_LITERAL.fullmatch(tok):
            if coeff is not None:
                raise AlgebraError("two coefficients in a row")
            den = tok.partition("/")[2]
            if den and int(den) == 0:
                raise AlgebraError("zero denominator")
            coeff = Fraction(tok)
        elif not expecting_term:
            raise AlgebraError("missing operator")
        else:
            terms.append((sign * (coeff if coeff is not None else ONE), tok))
            sign, coeff, expecting_term = ONE, None, False
    if expecting_term or coeff is not None:
        raise AlgebraError("trailing operator or coefficient")
    return terms


def parse_linear_combination(a: Algebra, text: str) -> Vector:
    """Parse '[c] label [+/- [c] label ...]' with rational coefficients c."""
    try:
        terms = parse_terms(text)
    except AlgebraError as exc:
        raise AlgebraError(f"{exc} in {text!r}") from None
    v = [ZERO] * a.dim
    for c, label in terms:
        v[a.label_index(label)] += c
    return tuple(v)
