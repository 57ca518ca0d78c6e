"""Finite-dimensional algebras presented by rational structure constants.

An `Algebra` stores a basis (labels are for reporting only) and, like a
`Subspace`, only integers: `_int_structure` = (den, srows), srows[i][j]
the nonzero (k, x) of b_i * b_j, x / den its coordinate k, den the lcm of
the denominators, so the pair is canonical.  `table`, c[i][j] = the
Fraction vector of b_i * b_j, is made from them when read.  Elements are
plain tuples of Fractions.  Commutative tables are the main case, but the
storage is general enough for, e.g., full matrix algebras, which is what
the symmetrized `plus_algebra` construction consumes.  Constants come in
as Fractions only through the constructor, which scales all n**3 with one
`ratlin._int_vec`, and `Algebra.from_products`, which builds a table from
sparse products (catalog entries, `matrix_algebra`) scaling only the
coefficients it parsed.

`_int_products` is the one routine that multiplies elements.  It takes
integer rows, which `_int_vec` makes of rational vectors, and gives each
product times den; `Algebra.mul`, the change of basis, subspace products,
the cocycle rows of `cohomology` and the Peirce systems all call it.  Every
algebra built from integer constants (`from_products`, sums, plus algebra,
unital hull, change of basis, and the quotients and induced algebras of
`invariants`) is built by `_from_int_structure`, which makes no Fraction.
Commutativity is read off those constants once per algebra.  The
annihilator, centroid, trace-form and identity systems and the delta^1 rows
are written on the constants themselves, as are the packed associators and
the Jordan scan below.

An associator of basis elements carries two constants, so it scales by
den**2, and the linearized Jordan defect carries three, so it scales by
den**3; neither scaling changes which of them vanish.  `_associators` is
the one associator computation, made once per algebra and cached: the
associator (b_x, b_y, b_k) of every basis triple on the integer constants,
packed for each (x, k) into one int whose W-bit slot y n + m holds
coordinate m for y (Kronecker substitution).  W is chosen from the largest
scaled constant so that every slot of an associator or of a Jordan defect
stays below 2^(W - 1) in absolute value, so a packed sum is zero iff every
slot is, and `_unpack` reads the slots back with their signs.  The Jordan
scan sums one packed int per x <= z <= w and decodes only a nonzero sum;
the associativity test asks that every packed int be zero; the cocycle
rows of `cohomology` unpack each nonzero column once.  The associator is
linear in each argument, so it extends to any element.

All values are immutable and every operation is a pure function.  A
derived invariant that several callers read is wrapped in `per_algebra`,
which keeps it next to the cached properties in the algebra's `__dict__`:
callers call it again rather than pass its value on.  The delta^1 echelon
is one, kept by `cohomology`, which owns the cochain space C2(J, J).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, wraps
from itertools import count
from math import gcd, lcm
from typing import Mapping, Optional, Sequence

from .ratlin import (
    ONE,
    ZERO,
    Matrix,
    Subspace,
    Vector,
    _int_inverse,
    _int_solve,
    _int_vec,
    _pairs,
    invert,
    rat,
    sub_vec,
    unit_vec,
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

    def seed(a, value, *args):  # keep `value`, known by other means, as fn(a, *args)
        a.__dict__.setdefault("_memo", {})[(fn, args)] = value

    memoized.seed = seed
    return memoized


@dataclass(frozen=True, init=False)
class Algebra:
    """Basis `labels` and canonical integer constants (den, srows), k
    ascending in srows[i][j]; equality and hashing read both."""

    labels: tuple[str, ...]
    _int_structure: tuple[int, tuple[tuple[tuple[tuple[int, int], ...], ...], ...]]

    def __init__(self, labels: Sequence[str], table: Sequence[Sequence[Sequence]]):
        """b_i b_j = table[i][j], constants ints or Fractions, scaled by one
        `_int_vec`."""
        labels = tuple(labels)
        n = len(labels)
        if len(table) != n or any(len(row) != n for row in table):
            raise AlgebraError("structure-constant table must be n x n")
        if any(len(entry) != n for row in table for entry in row):
            raise AlgebraError("structure-constant vectors must have length n")
        flat = [x for row in table for entry in row for x in entry]
        try:
            den, flat = _int_vec(flat)
        except (AttributeError, TypeError):  # only a constant of another type fails
            ijk, x = next((ijk, x) for ijk, x in enumerate(flat) if not isinstance(x, (int, Fraction)))
            i, j, k = ijk // (n * n), ijk // n % n, ijk % n
            raise AlgebraError(f"structure constant {x!r} of {labels[i]}*{labels[j]} "
                               f"at {labels[k]} is not an int or a Fraction") from None
        entries = [tuple((k, x) for k, x in enumerate(flat[ij * n:(ij + 1) * n]) if x)
                   for ij in range(n * n)]
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_int_structure",
                           (den, tuple(tuple(entries[i * n:(i + 1) * n]) for i in range(n))))

    @cached_property
    def table(self) -> tuple[tuple[Vector, ...], ...]:
        """c[i][j], the coordinate vector of b_i b_j in Fractions, made from
        `_int_structure` on first read, one Fraction per distinct numerator."""
        n = self.dim
        den, srows = self._int_structure
        fracs = {x: Fraction(x, den) for x in {x for row in srows for entry in row for _, x in entry}}

        def vector(entry):
            v = [ZERO] * n
            for k, x in entry:
                v[k] = fracs[x]
            return tuple(v)

        return tuple(tuple(map(vector, row)) for row in srows)

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
        """Build from sparse products {(la, lb): {lc: coeff}}; omitted pairs
        are 0.  One `_int_vec` of the nonzero coefficients parsed gives the
        integer constants: den is the lcm of their denominators, so den and
        the numerators have no common factor."""
        labels = tuple(labels)
        index = {l: i for i, l in enumerate(labels)}
        if len(index) != len(labels):
            raise AlgebraError("duplicate basis labels")
        n = len(labels)
        cells = {}  # (i, j) -> the (k, c) of b_i b_j, k ascending, c nonzero
        for (la, lb), rhs in products.items():
            try:
                i, j = index[la], index[lb]
                entry = sorted((index[lc], rat(coeff)) for lc, coeff in rhs.items())
            except KeyError as exc:
                raise AlgebraError(f"unknown basis label {exc.args[0]!r}") from None
            cells[i, j] = entry = [(k, c) for k, c in entry if c]
            if symmetric:
                cells[j, i] = entry
        den, flat = _int_vec([c for entry in cells.values() for _, c in entry])
        scaled = iter(flat)
        srows = [[()] * n for _ in range(n)]
        for (i, j), entry in cells.items():
            srows[i][j] = tuple((k, next(scaled)) for k, _ in entry)
        return _from_int_structure(den, srows, labels)

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
    def _associators(self) -> tuple[int, list[list[int]]]:
        """(W, Q): Q[x][k] holds the associators (b_x, b_y, b_k) of every
        y, on integer-scaled constants, packed into one int as
        sum_{y, m} (b_x, b_y, b_k)_m 2^(W (y n + m)).

        With V[p][k] = sum_m den c_pk^m 2^(W m), the product b_p b_k packed
        over m, and U[x][p] = sum_y den c_xy^p 2^(W n y), the first term
        (b_x b_y) b_k packs to sum_p U[x][p] V[p][k], and with U'[k][q] =
        sum_y den c_yk^q 2^(W n y) the second, b_x (b_y b_k), to
        sum_q U'[k][q] V[x][q].  On a commutative table U' = U,
        Q[k][x] = -Q[x][k] and Q[x][x] = 0, so only x < k is multiplied
        out.  With C the largest |den c_ij^k|, a slot of Q is at most
        2 n C^2 in absolute value and a slot of a Jordan defect (three
        sums of n of them, times constants) at most 6 n^2 C^3, so with
        W = bitlen(6 n^2 C^3) + 2 every slot of either lies below
        2^(W - 1): a packed sum is zero iff every slot is, and `_unpack`
        reads each slot back with its sign."""
        n = self.dim
        _, srows = self._int_structure
        big = max((abs(x) for row in srows for entry in row for _, x in entry), default=0)
        width = (6 * n * n * big**3).bit_length() + 2
        sym = self._commutativity_violation is None
        v = [[0] * n for _ in range(n)]
        u = [[0] * n for _ in range(n)]
        ut = u if sym else [[0] * n for _ in range(n)]
        for x, row in enumerate(srows):
            for y, entry in enumerate(row):
                for p, c in entry:
                    v[x][y] += c << width * p
                    u[x][p] += c << width * n * y
                    if not sym:
                        ut[y][p] += c << width * n * x
        left = [[(p, w) for p, w in enumerate(row) if w] for row in u]
        right = left if sym else [[(q, w) for q, w in enumerate(row) if w] for row in ut]
        packed = [[0] * n for _ in range(n)]
        for x, vx in enumerate(v):
            for k in range(x + 1 if sym else 0, n):
                s = 0
                for p, w in left[x]:
                    s += w * v[p][k]
                for q, w in right[k]:
                    s -= w * vx[q]
                packed[x][k] = s
                if sym:
                    packed[k][x] = -s
        return width, packed

    @cached_property
    def _commutativity_violation(self) -> Optional[tuple[int, int]]:
        """`commutativity_violation`, read once off `_int_structure`: two
        entries are equal iff their scaled (k, den c_ijk) pairs are."""
        srows = self._int_structure[1]
        n = self.dim
        return next(((i, j) for i in range(n) for j in range(i + 1, n)
                     if srows[i][j] != srows[j][i]), None)

    @cached_property
    def _jordan_defect(self):
        """`_int_defect_scan` of this table, run once."""
        return _int_defect_scan(self)

    def mul(self, u: Sequence[Fraction], v: Sequence[Fraction]) -> Vector:
        """u v, from the integer product of d_u u and d_v v: `_int_products`
        scales it by den d_u d_v, which is divided out here."""
        if len(u) != self.dim or len(v) != self.dim:
            raise AlgebraError("element dimension mismatch")
        du, iu = _int_vec(u)
        dv, iv = _int_vec(v)
        scale = self._int_structure[0] * du * dv
        return tuple(Fraction(x, scale) for x in _int_products(self, [iu], [iv])[0])


def associator(
    a: Algebra, x: Sequence[Fraction], y: Sequence[Fraction], z: Sequence[Fraction]
) -> Vector:
    """(x*y)*z - x*(y*z)."""
    return sub_vec(a.mul(a.mul(x, y), z), a.mul(x, a.mul(y, z)))


def commutativity_violation(a: Algebra) -> Optional[tuple[int, int]]:
    """The first (i, j), i < j in row order, with b_i b_j != b_j b_i."""
    return a._commutativity_violation


def is_commutative(a: Algebra) -> bool:
    return a._commutativity_violation is None


def _unpack(s: int, width: int, n: int) -> list[Optional[list[int]]]:
    """The n blocks of s = sum_{y, m} s_ym 2^(width (y n + m)), for slots
    with |s_ym| < 2^(width - 1): block y is [s_y0, ..., s_y(n-1)], or None
    when each of its slots is 0.  With 2^(width - 1) added to every slot
    each slot is nonnegative, so blocks and slots are read by shift and mask."""
    half, mask, bw = 1 << (width - 1), (1 << width) - 1, width * n
    bias = half * ((1 << bw) - 1) // mask  # half in each slot of a block
    t = s + bias * ((1 << bw * n) - 1) // ((1 << bw) - 1)
    blocks = []
    for _ in range(n):
        b = t & ((1 << bw) - 1)
        blocks.append(None if b == bias else [(b >> width * m & mask) - half for m in range(n)])
        t >>= bw
    return blocks


def _int_defect_scan(a: Algebra) -> Optional[tuple[tuple[int, int, int, int], list[int]]]:
    """First basis quadruple (x, y, z, w) on which the defect
    (x, y, z*w) + (w, y, z*x) + (z, y, x*w) of the linearized identity is
    nonzero, with that defect on integer-scaled constants.  The associator
    is linear in its last argument, so for each x <= z <= w the defects of
    every y come packed in one sum of constants times `_associators`
    columns, and only a nonzero sum is decoded, to its lowest nonzero y."""
    n = a.dim
    _, srows = a._int_structure
    width, packed = a._associators
    for x in range(n):
        for z in range(x, n):
            for w in range(z, n):
                s = 0
                for q, prod in ((packed[x], srows[z][w]), (packed[w], srows[z][x]),
                                (packed[z], srows[x][w])):
                    for k, c in prod:
                        s += c * q[k]
                if s:
                    y, block = next((y, b) for y, b in enumerate(_unpack(s, width, n)) if b)
                    return (x, y, z, w), block
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
    """(b_i, b_j, b_k) = 0 for all basis triples: every packed column of
    `_associators` is zero."""
    return not any(map(any, a._associators[1]))


def direct_sum(a: Algebra, b: Algebra) -> Algebra:
    """Block-diagonal table; cross products zero; labels concatenated, a
    repeat renamed by `_dedupe_labels`."""
    return _direct_sum((a, b), _dedupe_labels(a.labels + b.labels))


def _dedupe_labels(labels: Sequence[str]) -> tuple[str, ...]:
    """`labels` with each repeat of a label l renamed l_k, k >= 2 the
    least suffix that no label, given or renamed, has taken."""
    taken, out = set(labels), []
    for l in labels:
        if l in out:
            l = next(f"{l}_{k}" for k in count(2) if f"{l}_{k}" not in taken)
            taken.add(l)
        out.append(l)
    return tuple(out)


def _direct_sum(parts: Sequence[Algebra], labels: Sequence[str]) -> Algebra:
    """The direct sum of `parts`, in order, with basis `labels`: their
    constants over the lcm of their dens."""
    den = lcm(*(p._int_structure[0] for p in parts))
    n, srows = sum(p.dim for p in parts), []
    for p in parts:
        pden, prows = p._int_structure
        f, at = den // pden, len(srows)
        srows += [((),) * at + tuple(tuple((k + at, x * f) for k, x in e) for e in row)
                  + ((),) * (n - at - p.dim) for row in prows]
    return _from_int_structure(den, srows, labels)


def plus_algebra(a: Algebra) -> Algebra:
    """Symmetrized product x o y = (x*y + y*x)/2 on an associative algebra,
    the sum of the two products over 2 den."""
    if not is_associative(a):
        raise AlgebraError("plus construction requires an associative algebra")
    n = a.dim
    units = [[int(i == j) for i in range(n)] for j in range(n)]
    prods = _int_products(a, units, units)  # den b_i b_j at i n + j
    sym = [[tuple(_pairs([x + y for x, y in zip(prods[i * n + j], prods[j * n + i])]))
            for j in range(n)] for i in range(n)]
    return _from_int_structure(2 * a._int_structure[0], sym, a.labels)


def unitalization(a: Algebra) -> Algebra:
    """Adjoin a formal identity as the last basis element, labelled `one`
    with an `_` appended until the label is new."""
    unit_label = "one"
    while unit_label in a.labels:
        unit_label += "_"
    den, srows = a._int_structure
    table = [row + (((i, den),),) for i, row in enumerate(srows)]
    table.append(tuple(((j, den),) for j in range(a.dim + 1)))
    return _from_int_structure(den, table, a.labels + (unit_label,))


def find_identity(a: Algebra) -> Optional[Vector]:
    """The unique two-sided identity, or None.

    Solves u * b_i = b_i for all i on the integer-scaled constants: pair
    row (i, k) is sum_j den c_ji^k u_j = den [i = k], its right-hand side
    at column n.  A two-sided identity is the unique left identity, and
    `ratlin._int_solve` reads it off the integer RREF with the free unknowns
    zero, as `ratlin.solve` does.  In a commutative algebra a left identity
    is two-sided; for noncommutative tables it is verified on the right.
    """
    n = a.dim
    if n == 0:
        return ()
    den, srows = a._int_structure
    rows = []
    for i in range(n):
        block = [[] for _ in range(n)]
        block[i].append((n, den))
        for j in range(n):
            for k, c in srows[j][i]:
                block[k].append((j, c))
        rows += block
    u = _int_solve(rows, n)
    if u is None:
        return None
    if not is_commutative(a):
        for i in range(n):
            if a.mul(a.basis_vector(i), u) != a.basis_vector(i):
                return None
    return u


def check_isomorphism(a: Algebra, b: Algebra, p: Matrix) -> bool:
    """True iff p is invertible and maps a's product to b's on all basis
    pairs: p a_ij = b(p_i, p_j), which says that b in the basis of p's
    columns has a's constants, compared in their canonical integer form."""
    if a.dim != b.dim or p.rows != p.cols or p.rows != a.dim:
        return False
    if invert(p) is None:
        return False
    return change_basis(b, p)._int_structure == a._int_structure


def change_basis(a: Algebra, p: Matrix) -> Algebra:
    """Algebra in the basis given by the columns of p (in a's coordinates).

    check_isomorphism(change_basis(a, p), a, p) always holds.  p = P / dp
    for an integer matrix P, and the table is `_int_change_basis` of P's
    columns, so only its nonzero constants become Fractions.
    """
    n = a.dim
    if p.rows != n or p.cols != n:
        raise AlgebraError("basis-change matrix has wrong shape")
    dp, pint = _int_vec(p.entries)
    den, srows, _ = _int_change_basis(a, [pint[i::n] for i in range(n)], dp)
    return _from_int_structure(den, srows, tuple(f"b{i+1}" for i in range(n)))


def _int_change_basis(a: Algebra, cols: Sequence[Sequence[int]], dp: int = 1):
    """(S, srows, qrows): the constants of `a` in the basis of the vectors
    col / dp, for integer vectors `cols`, as integers over S = den dq dp,
    with no Fraction built, and the rows of Q as pairs.  With Q / dq the
    inverse of P = [cols] (`ratlin._int_inverse`, as `ratlin.invert` reads
    it), the product col_i col_j on the integer-scaled constants is
    den dp^2 b_i b_j, so the coordinates of b_i b_j are Q (col_i col_j) / S,
    and those of any vector v of `a` are a multiple of Q v.  On a
    commutative table only the products with i <= j are taken."""
    n = a.dim
    inverse = _int_inverse([[c[k] for c in cols] for k in range(n)])
    if inverse is None:
        raise AlgebraError("basis-change matrix is singular")
    q, dq = inverse
    qrows = [tuple(_pairs(r)) for r in q]
    sym = a._commutativity_violation is None
    srows = [[()] * n for _ in range(n)]
    for i, u in enumerate(cols):
        for j, v in enumerate(_int_products(a, [u], cols[i if sym else 0:]), i if sym else 0):
            srows[i][j] = tuple(_pairs([sum(x * v[k] for k, x in qr) for qr in qrows]))
            if sym:
                srows[j][i] = srows[i][j]
    return a._int_structure[0] * dq * dp, srows, qrows


def _from_int_structure(den: int, srows, labels: Sequence[str]) -> Algebra:
    """The one builder of an algebra from integer constants: basis `labels`,
    and constants x / den for the nonzero (k, x) of b_i b_j in the tuple
    srows[i][j], k ascending.  With den and every x divided by their gcd,
    den is the lcm of the denominators, and (den, srows) is the algebra's
    `_int_structure`; no Fraction is made."""
    g = gcd(den, *(x for row in srows for entry in row for _, x in entry))
    if g != 1:
        den //= g
        srows = [[tuple((k, x // g) for k, x in entry) for entry in row] for row in srows]
    b = object.__new__(Algebra)
    object.__setattr__(b, "labels", tuple(labels))
    object.__setattr__(b, "_int_structure", (den, tuple(map(tuple, srows))))
    return b


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
