"""Finite-dimensional algebras presented by rational structure constants.

An `Algebra` stores a basis (labels are for reporting only) and the full
table c[i][j] = coefficient vector of b_i * b_j.  Elements are plain tuples
of Fractions in that basis.  Commutative tables are the main case, but the
storage is general enough for, e.g., full matrix algebras, which is what the
symmetrized `plus_algebra` construction consumes.  `Algebra.from_products`
is the one routine that builds a table from sparse products: the catalog's
inline entries and `matrix_algebra` both go through it.

Products are taken on integer-scaled constants: `_int_structure` scales
all of them with one call of `ratlin._int_vec`, by the lcm `den` of their
denominators, and it is the one cached copy of the table besides `table`
itself.  `_int_products` is the one routine that multiplies elements.  It
takes integer rows, which `_int_vec` makes of rational vectors, and gives
each product times den; `Algebra.mul`, the change of basis, subspace products,
the coboundary and cocycle rows and the Peirce systems all call it.  The
annihilator, centroid and trace-form systems are written on the constants
themselves, as are the associator table and the Jordan scan below.

An associator of basis elements carries two constants, so it scales by
den**2, and the linearized Jordan defect carries three, so it scales by
den**3; neither scaling changes which of them vanish.  `_assoc_table`
holds the associator of every basis triple on those constants, n**4
integers built once per algebra and cached like `_int_structure`.  The
Jordan scan, the associativity test and the cocycle rows read it, and the
associator is linear in each argument, so it extends to any element.

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
    _int_vec,
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
        table = [[zero_vec(n)] * n for _ in range(n)]
        for (la, lb), rhs in products.items():
            try:
                i, j = index[la], index[lb]
                v = [ZERO] * n
                for lc, coeff in rhs.items():
                    v[index[lc]] = rat(coeff)
            except KeyError as exc:
                raise AlgebraError(f"unknown basis label {exc.args[0]!r}") from None
            table[i][j] = v = tuple(v)
            if symmetric:
                table[j][i] = v
        return cls(labels, tuple(map(tuple, table)))

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
    def _int_structure(self):
        """(den, srows): one `_int_vec` of all n**3 constants, den the lcm
        of their denominators and srows[i][j] the nonzero (k, den c_ijk) of
        b_i b_j, for fast zero-tests of multilinear expressions (which only
        rescale under the scaling)."""
        n = self.dim
        den, flat = _int_vec([x for row in self.table for entry in row for x in entry])
        entries = [tuple((k, x) for k, x in enumerate(flat[ij * n:(ij + 1) * n]) if x)
                   for ij in range(n * n)]
        return den, tuple(tuple(entries[i * n:(i + 1) * n]) for i in range(n))

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
        """u v, from the integer product of d_u u and d_v v: `_int_products`
        scales it by den d_u d_v, which is divided out here."""
        du, iu = _int_vec(u)
        dv, iv = _int_vec(v)
        scale = self._int_structure[0] * du * dv
        return tuple(Fraction(x, scale) for x in _int_products(self, [iu], [iv])[0])


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


def coboundary_int_rows(a: Algebra) -> list[list[int]]:
    """Rows of the coboundary operator delta^1(mu)(x, y) = mu(x)y + x mu(y) - mu(xy).

    Row (r, s) is delta^1 of the unit map mu = E_rs (b_s -> b_r), flattened
    over basis pairs i <= j as in `cohomology.grid_to_vec`, on integer-scaled
    structure constants: every entry carries one structure constant, so the
    scaling is uniform and the rank is unchanged.  The kernel of delta^1 is
    Der J and its image is B2.  Pairs i <= j cover every pair only on a
    commutative table, so any other raises AlgebraError.
    """
    if not is_commutative(a):
        raise AlgebraError("delta^1 rows cover pairs i <= j only: the table must be commutative")
    n = a.dim
    units = [[int(i == k) for k in range(n)] for i in range(n)]
    prods = _int_products(a, units, units)  # b_i b_j at i n + j
    rows = []
    for r in range(n):
        for s in range(n):
            row: list[int] = []
            for i in range(n):
                for j in range(i, n):
                    v = [0] * n
                    if i == s:
                        for k, x in enumerate(prods[r * n + j]):
                            v[k] += x
                    if j == s:
                        for k, x in enumerate(prods[i * n + r]):
                            v[k] += x
                    v[r] -= prods[i * n + j][s]
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

    The work is in integers: p = P / dp and its inverse Q / dq for integer
    matrices P and Q, the products of the columns of P are taken on the
    integer-scaled constants (each is den dp^2 times the true one), and
    only the n^3 entries of Q times those products become Fractions.
    """
    n = a.dim
    if p.rows != n or p.cols != n:
        raise AlgebraError("basis-change matrix has wrong shape")
    p_inv = invert(p)
    if p_inv is None:
        raise AlgebraError("basis-change matrix is singular")
    dp, pint = _int_vec(p.entries)
    dq, qint = _int_vec(p_inv.entries)
    cols = [[pint[k * n + i] for k in range(n)] for i in range(n)]
    qrows = [[(k, x) for k, x in enumerate(qint[r * n:(r + 1) * n]) if x] for r in range(n)]
    scale = a._int_structure[0] * dp * dp * dq
    prods = _int_products(a, cols, cols)
    table = tuple(
        tuple(tuple(Fraction(sum(x * v[k] for k, x in qr), scale) for qr in qrows)
              for v in prods[i * n:(i + 1) * n])
        for i in range(n)
    )
    labels = tuple(f"b{i+1}" for i in range(n))
    return Algebra(labels, table)


def _int_products(a: Algebra, us, vs) -> list[list[int]]:
    """u v for each u in `us` and v in `vs`, u-major, for integer rows u, v,
    on the integer-scaled constants: each product is den times the true one.
    Every product of elements in this package is taken here."""
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
    units = [[f"E{i+1}{j+1}" for j in range(n)] for i in range(n)]
    products = {(units[i][j], units[j][k]): {units[i][k]: 1}
                for i in range(n) for j in range(n) for k in range(n)}
    return Algebra.from_products([e for row in units for e in row], products, symmetric=False)


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
