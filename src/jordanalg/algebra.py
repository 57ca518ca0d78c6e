"""Finite-dimensional algebras presented by rational structure constants.

An `Algebra` stores a basis (labels are for reporting only) and the full
table c[i][j] = coefficient vector of b_i * b_j.  Elements are plain tuples
of Fractions in that basis.  Commutative tables are the main case, but the
storage is general enough for, e.g., full matrix algebras, which is what the
symmetrized `plus_algebra` construction consumes.

The identity checks run on integer-scaled constants: `_int_structure`
multiplies every constant by the lcm `den` of their denominators.  An
associator of basis elements carries two constants, so it scales by den**2,
and the linearized Jordan defect carries three, so it scales by den**3;
neither scaling changes which of them vanish.  `_assoc_table` holds the
associator of every basis triple on those constants, n**4 integers built
once per algebra and cached like `_int_structure`; the Jordan scan, the
associativity test and the cocycle rows read it, and the associator is
linear in each argument, so it extends to any element.  Subspace products,
from the integer rows a `Subspace` stores, and the derivation, centroid,
annihilator and Peirce systems are written on those constants as well.

All values are immutable and every operation is a pure function.  A
derived invariant that several callers read is wrapped in `per_algebra`,
which keeps it next to the cached properties in the algebra's `__dict__`:
callers call it again rather than pass its value on.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, wraps
from typing import Mapping, Optional, Sequence

from .ratlin import (
    HALF,
    ONE,
    ZERO,
    Matrix,
    Subspace,
    Vector,
    _int_echelon,
    invert,
    rat,
    solve,
    sub_vec,
    unit_vec,
    zero_vec,
)


class AlgebraError(ValueError):
    """Structural or precondition failure on an algebra operation."""


def per_algebra(fn):
    """`fn(a, *args)`, kept in `a.__dict__` keyed on `fn` and the hashable
    `args`: computed once per algebra, never shared by two distinct equal
    algebras, and not kept when it raises."""

    @wraps(fn)
    def memoized(a, *args):
        memo = a.__dict__.setdefault("_memo", {})
        key = (fn, args)
        if key not in memo:
            memo[key] = fn(a, *args)
        return memo[key]

    return memoized


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
            try:
                i, j = index[la], index[lb]
                v = [ZERO] * n
                for lc, coeff in rhs.items():
                    v[index[lc]] = rat(coeff)
            except KeyError as exc:
                raise AlgebraError(f"unknown basis label {exc.args[0]!r}") from None
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

    @cached_property
    def _assoc_table(self) -> list[list[list[list[int]]]]:
        """T[x][y][k] = (b_x b_y) b_k - b_x (b_y b_k), on integer-scaled
        constants."""
        n = self.dim
        _, srows = self._int_structure
        table = [[[[0] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
        for x in range(n):
            for y in range(n):
                for k, v in enumerate(table[x][y]):
                    for p, c in srows[x][y]:
                        for m, d in srows[p][k]:
                            v[m] += c * d
                    for q, c in srows[y][k]:
                        for m, d in srows[x][q]:
                            v[m] -= c * d
        return table

    @cached_property
    def _jordan_defect(self):
        """`_int_defect_scan` of this table, run once."""
        return _int_defect_scan(self)

    @cached_property
    def _coboundary_echelon(self) -> dict[int, list[int]]:
        """`_int_echelon` of `coboundary_int_rows`, run once: pivot column ->
        row.  Its rows span B2, its size is dim B2 = n^2 - dim Der J, and the
        unit vectors off its pivot columns span a complement of B2."""
        n = self.dim
        return _int_echelon(coboundary_int_rows(self), n * (n + 1) // 2 * n)

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


def _int_bb(srows, i: int, j: int) -> list[int]:
    """b_i b_j as a dense vector, on integer-scaled constants."""
    out = [0] * len(srows)
    for k, x in srows[i][j]:
        out[k] = x
    return out


def _int_mul_bv(srows, i: int, v: Sequence[int]) -> list[int]:
    """b_i v for a dense integer vector v, on integer-scaled constants."""
    out = [0] * len(srows)
    row = srows[i]
    for j, c in enumerate(v):
        if c:
            for k, x in row[j]:
                out[k] += c * x
    return out


def coboundary_int_rows(a: Algebra) -> list[list[int]]:
    """Rows of the coboundary operator delta^1(mu)(x, y) = mu(x)y + x mu(y) - mu(xy).

    Row (r, s) is delta^1 of the unit map mu = E_rs (b_s -> b_r), flattened
    over basis pairs i <= j as in `cohomology.grid_to_vec`, on integer-scaled
    structure constants: every entry carries one structure constant, so the
    scaling is uniform and the rank is unchanged.  The kernel of delta^1 is
    Der J and its image is B2.
    """
    n = a.dim
    _, srows = a._int_structure
    dense = [[_int_bb(srows, i, j) for j in range(n)] for i in range(n)]
    rows = []
    for r in range(n):
        for s in range(n):
            row: list[int] = []
            for i in range(n):
                for j in range(i, n):
                    v = [0] * n
                    if i == s:
                        for k, x in enumerate(dense[r][j]):
                            v[k] += x
                    if j == s:
                        for k, x in enumerate(dense[i][r]):
                            v[k] += x
                    v[r] -= dense[i][j][s]
                    row.extend(v)
            rows.append(row)
    return rows


def _int_defect_scan(a: Algebra) -> Optional[tuple[tuple[int, int, int, int], list[int]]]:
    """First basis quadruple (x, y, z, w) on which the defect
    (x, y, z*w) + (w, y, z*x) + (z, y, x*w) of the linearized identity is
    nonzero, with that defect on integer-scaled constants.  The associator
    is linear in its last argument, so each term is read off `_assoc_table`."""
    n = a.dim
    _, srows = a._int_structure
    table = a._assoc_table
    for x in range(n):
        for z in range(x, n):
            for w in range(z, n):
                terms = ((table[x], srows[z][w]), (table[w], srows[z][x]), (table[z], srows[x][w]))
                for y in range(n):
                    defect = [0] * n
                    for t, prod in terms:
                        ty = t[y]
                        for k, c in prod:
                            for m, e in enumerate(ty[k]):
                                if e:
                                    defect[m] += c * e
                    if any(defect):
                        return (x, y, z, w), defect
    return None


def jordan_violation(a: Algebra) -> Optional[tuple[tuple[int, int, int, int], Vector]]:
    """First basis quadruple on which the linearized Jordan identity fails.

    For commutative tables the identity is symmetric in the first, third and
    fourth arguments, so only multisets {x, z, w} are scanned; multilinearity
    makes basis quadruples sufficient in characteristic zero.  Check
    commutativity separately before trusting a None result.
    """
    found = a._jordan_defect
    if found is None:
        return None
    quad, defect = found
    den = a._int_structure[0]  # the defect is trilinear in the constants
    return quad, tuple(Fraction(x, den**3) for x in defect)


class NonJordanError(AlgebraError):
    pass


def is_jordan(a: Algebra) -> bool:
    """Commutativity plus the linearized Jordan identity on basis quadruples."""
    return is_commutative(a) and a._jordan_defect is None


def is_associative(a: Algebra) -> bool:
    """(b_i, b_j, b_k) = 0 for all basis triples, on integer-scaled constants."""
    return not any(any(v) for tx in a._assoc_table for txy in tx for v in txy)


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


def _int_products(a: Algebra, us, vs) -> list[list[int]]:
    """u v for each u in `us` and v in `vs`, u-major, for integer rows u, v,
    on the integer-scaled constants: each product is den times the true one."""
    _, srows = a._int_structure
    gens = []
    for u in us:
        left = [(i, x, srows[i]) for i, x in enumerate(u) if x]
        for v in vs:
            out = [0] * a.dim
            for i, x, row in left:
                for j, y in enumerate(v):
                    if y:
                        xy = x * y
                        for k, c in row[j]:
                            out[k] += xy * c
            gens.append(out)
    return gens


def product_span(a: Algebra, s: Subspace, t: Subspace) -> Subspace:
    """Span of {u * v : u in s, v in t}; bilinearity makes basis products
    enough, and they are taken on the integer rows of `s` and `t` and the
    integer-scaled constants, which rescales each product and leaves the
    span unchanged."""
    if s.ambient != a.dim or t.ambient != a.dim:
        raise AlgebraError("subspace ambient mismatch")
    return Subspace.span(a.dim, _int_products(a, s.int_rows, t.int_rows))


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


_RATIONAL_LITERAL = re.compile(r"([0-9]+)(?:/([0-9]+))?")


def parse_terms(text: str) -> list[tuple[Fraction, str]]:
    """Split '[c] label [+/- [c] label ...]' into (coefficient, label) terms,
    c a rational literal such as 3 or 1/2 (default 1).

    Malformed text raises AlgebraError with a bare message; callers say
    where the text came from.
    """
    tokens = text.replace("+", " + ").replace("-", " - ").split()
    terms: list[tuple[Fraction, str]] = []
    negative = False
    coeff: Optional[Fraction] = None
    expecting_term = True
    for tok in tokens:
        if tok == "+" or tok == "-":
            if coeff is not None:
                raise AlgebraError("dangling coefficient")
            if tok == "-":
                negative = not negative
            expecting_term = True
            continue
        literal = _RATIONAL_LITERAL.fullmatch(tok)
        if literal is not None:
            if coeff is not None:
                raise AlgebraError("two coefficients in a row")
            num, den = literal.groups()
            if den is None:
                coeff = Fraction(int(num))
            elif int(den) == 0:
                raise AlgebraError("zero denominator")
            else:
                coeff = Fraction(int(num), int(den))
        elif not expecting_term:
            raise AlgebraError("missing operator")
        else:
            if coeff is None:
                coeff = ONE
            terms.append((-coeff if negative else coeff, tok))
            negative, coeff, expecting_term = False, None, False
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
