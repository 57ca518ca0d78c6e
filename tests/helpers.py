"""Shared check routines used by the property and acceptance suites, and
reference implementations that faster code in `jordanalg` must match."""

from dataclasses import astuple, is_dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

from jordanalg.algebra import (
    Algebra,
    AlgebraError,
    _dedupe_labels,
    _int_products,
    find_identity,
    is_associative,
    is_commutative,
    is_jordan,
    parse_terms,
    product_span,
    unitalization,
)
from jordanalg.catalog import (
    FLAG_NAMES,
    MAX_CATALOG_DIM,
    PEIRCE_PLACES,
    _SINGLE_PLACES,
    CatalogEntry,
    CatalogError,
    CatalogParseError,
    Expected,
    _is_count,
)
from jordanalg.cohomology import (
    _assemble_cocycle_rows,
    check_cocycle_cells,
    coboundary_echelon,
)
from jordanalg.peirce import PeirceDecomposition, eigenspace, peirce_multi, peirce_single
from jordanalg.polysolve import PolySystem, Polynomial, _leads, _reduce
from jordanalg.invariants import (
    B2_ORDER,
    Fingerprint,
    NonJordanError,
    RadicalVerificationError,
    SemisimpleRecord,
    _adapted_basis,
    _adapted_table,
    annihilator_series,
    centroid_dim,
    derivation_dim,
    h2_dims,
    is_ideal,
    is_nilpotent,
    power_profile,
    radical,
    radical_record,
    radical_split,
)
from jordanalg.ratlin import (
    HALF,
    ONE,
    ZERO,
    Matrix,
    Subspace,
    Vector,
    _int_kernel,
    invert,
    kernel,
    rank as matrix_rank,
    solve,
    sub_vec,
    unit_vec,
    vec,
    zero_vec,
)


# The Fraction cochain path: symmetric maps h : J x J -> J as n x n grids
# of vectors, their split null extensions, and the coboundary of a linear
# map.  `jordanalg.cohomology` works on integer pair rows; these are the
# slow reference its answers are checked against.

SymGrid = tuple[tuple[Vector, ...], ...]


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


def grid_to_vec(a: Algebra, h: SymGrid) -> Vector:
    """Flatten a symmetric grid to coordinates over pairs p <= q."""
    n = a.dim
    out = []
    for p in range(n):
        for q in range(p, n):
            out.extend(h[p][q])
    return tuple(out)


def coboundary_int_rows(a: Algebra) -> list[list[int]]:
    """Dense rows of the coboundary operator delta^1(mu)(x, y) = mu(x)y + x mu(y) - mu(xy):
    the reference that `cohomology.coboundary_pair_rows` must match row for row.

    Row (r, s) is delta^1 of the unit map mu = E_rs (b_s -> b_r), flattened
    over basis pairs i <= j as in `grid_to_vec`, on integer-scaled
    structure constants.  Pairs i <= j cover every pair only on a
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


def reference_identity(a: Algebra) -> Optional[Vector]:
    """`algebra.find_identity` as it was written on Fractions: `solve` of
    u * b_i = b_i for all i, checked on the right."""
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


# Small conversions that only the tests read.

def zero_grid(a: Algebra) -> SymGrid:
    return grid_from_function(a, lambda i, j: zero_vec(a.dim))


def vec_to_grid(a: Algebra, v: Sequence[Fraction]) -> SymGrid:
    """Symmetric grid of a vector in the coordinates of `grid_to_vec`."""
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


def complement_columns(a: Algebra) -> list[int]:
    """The columns off the pivots of `coboundary_echelon`, the ones that
    `cohomology.cocycle_space` writes the cocycle rows on."""
    n = a.dim
    pivots = coboundary_echelon(a)
    return [c for c in range(n * (n + 1) // 2 * n) if c not in pivots]


def cocycle_system(a: Algebra) -> tuple[int, list[int], list[tuple[tuple[int, int], ...]]]:
    """Unknown count, `complement_columns` and the cocycle rows on them, as
    pair rows (index in the columns, value): the system
    `cohomology.cocycle_space` cuts, with its size check and then its
    Jordan check before any work."""
    check_cocycle_cells(a)
    if not is_jordan(a):
        raise NonJordanError("cocycles are only computed for Jordan algebras")
    n = a.dim
    cols = complement_columns(a)
    return n * (n + 1) // 2 * n, cols, _assemble_cocycle_rows(a, cols)


def cocycle_subspaces(a: Algebra) -> tuple[Subspace, Subspace]:
    """(Z2, B2) as subspaces of the flattened symmetric-map coordinates,
    from the system `cohomology.cocycle_space` cuts, so a table over
    `MAX_COCYCLE_CELLS` is refused alike."""
    nunk, cols, rows = cocycle_system(a)
    b2 = []  # the pair rows of the delta^1 echelon, made dense
    for row in coboundary_echelon(a).values():
        v = [0] * nunk
        for c, x in row.items():
            v[c] = x
        b2.append(v)
    meet = []  # Z2 meet C, with zeros put back on the pivot columns
    for k in _int_kernel(rows, len(cols)):
        v = [0] * nunk
        for c, x in zip(cols, k):
            v[c] = x
        meet.append(v)
    return Subspace.span(nunk, b2 + meet), Subspace.span(nunk, b2)


def normal_form(p: Polynomial, basis: Sequence[Polynomial]) -> Polynomial:
    """Full remainder of p modulo basis (leading and tail terms reduced)."""
    return Polynomial._lowest(p.names, *_reduce(p.num, p.den, _leads(basis)))


def reference_b2_chart_system(a: Algebra, i: int) -> PolySystem:
    """`polysolve.b2_chart_system` in Fractions, read off `a.table`:
    e*e - e, e*y - y/2 and y*y on chart i (y_i = 1, y_j = 0 for j < i)."""
    n = a.dim
    names = tuple([f"e{k}" for k in range(n)] + [f"y{k}" for k in range(i + 1, n)])
    # the variable index of each nonzero y-coordinate; None is the constant y_i = 1
    yvar = {j: (None if j == i else n + j - i - 1) for j in range(i, n)}

    def mono(*variables: Optional[int]) -> tuple[int, ...]:
        exps = [0] * len(names)
        for v in variables:
            if v is not None:
                exps[v] += 1
        return tuple(exps)

    ee, ey, yy = ([{} for _ in range(n)] for _ in range(3))
    for k in range(n):
        ee[k][mono(k)] = -ONE
        if k in yvar:
            ey[k][mono(yvar[k])] = -HALF
    for p in range(n):
        for q in range(n):
            for k, c in enumerate(a.table[p][q]):
                if not c:
                    continue
                products = [(ee, mono(p, q))]
                if q in yvar:  # skip the factors y_q = 0
                    products.append((ey, mono(p, yvar[q])))
                    if p in yvar:
                        products.append((yy, mono(yvar[p], yvar[q])))
                for out, m in products:
                    out[k][m] = out[k].get(m, ZERO) + c
    polys = [Polynomial(names, terms) for k in range(n) for terms in (ee[k], ey[k], yy[k])]
    return PolySystem(tuple(polys), names)


def coords(s: Subspace, v: Sequence[Fraction]) -> Vector:
    """Coordinates of v in the RREF basis of s; requires containment."""
    if not s.contains_vector(v):
        raise ValueError("vector not in subspace")
    return tuple(vec(v)[c] for c in s._pivot_cols())


def from_coords(s: Subspace, coeffs: Sequence[Fraction]) -> Vector:
    out = [ZERO] * s.ambient
    for c, row in zip(coeffs, s.rows):
        if c:
            for j, x in enumerate(row):
                out[j] += c * x
    return tuple(out)


# The Peirce grid of the unital hull, and the placement reading that
# `catalog.check_peirce_placements` must match.

def peirce_multi_unitalized(
    a: Algebra, es: Sequence[Sequence[Fraction]]
) -> tuple[PeirceDecomposition, Algebra]:
    """Grid decomposition inside the unital hull a + k*1.

    The idempotent family becomes [e0, e1, ..., ek] with e0 = 1 - sum(e_i)
    the complement idempotent, so component indices match the convention
    that index 0 refers to the complement.  Returns the decomposition and
    the unital hull (elements of `a` embed with a trailing 0 coordinate).
    """
    hull = unitalization(a)
    lifted = [tuple(e) + (ZERO,) for e in (vec(e) for e in es)]
    unit = hull.basis_vector(hull.dim - 1)
    e0 = unit
    for e in lifted:
        e0 = sub_vec(e0, e)
    family = [e0] + lifted
    return peirce_multi(hull, family), hull


def component_of(decomp: PeirceDecomposition, v: Sequence[Fraction]):
    """Key of the unique component containing v, or None."""
    for key, space in decomp.components.items():
        if space.contains_vector(v):
            return key
    return None


def reference_peirce_placements(
    entry: CatalogEntry, a: Algebra
) -> list[tuple[str, str, Optional[str], bool]]:
    """Re-derive each recorded 'label lies in N_place' annotation.

    Every place is read in the grid decomposition of the unital hull
    relative to the basis idempotents e1..ek plus the complement idempotent
    (index 0).  A basis idempotent is one labelled `e` and a count; others,
    such as `e` or `e_2`, have no index for a place to name.  A
    single-index place names a component for the one basis idempotent e:
    N0, Nhalf and N1 are N00, N01 and N11 of the family [e].
    A place that names an index with no basis idempotent is never computed,
    so its row is a mismatch.  Returns (label, expected, computed, ok) rows.
    """
    if not entry.expected.peirce:
        return []
    idem = {}
    for i, label in enumerate(a.labels):
        if a.table[i][i] == a.basis_vector(i) and label[:1] == "e" and _is_count(label[1:]):
            idem[int(label[1:])] = a.basis_vector(i)
    if len(idem) != 1 and any(p in _SINGLE_PLACES.values() for _, p in entry.expected.peirce):
        raise CatalogError(f"{entry.name}: single-index places need one idempotent")
    shown = [0] + sorted(idem)  # the index that places use, by family position
    decomp, _ = peirce_multi_unitalized(a, [idem[k] for k in shown[1:]])
    results = []
    for label, place in entry.expected.peirce:
        got = component_of(decomp, tuple(a.basis_vector(a.label_index(label))) + (ZERO,))
        if got is None:
            display = None
        elif place in _SINGLE_PLACES.values():
            display = _SINGLE_PLACES[got]
        else:
            display = f"N{shown[got[0]]}{shown[got[1]]}"
        results.append((label, place, display, display == place))
    return results


# One-entry catalogs whose `expect peirce` record is wrong or unreadable.

WRONG_PLACE = """algebra W
  dim 2
  basis e1 n1
  e1*e1 = e1
  e1*n1 = 1/2 n1
  expect peirce n1 N11
end
"""
# e2 is the unit and e1 an idempotent under it: a Jordan table whose two
# basis idempotents are not orthogonal
NOT_ORTHOGONAL = """algebra O
  dim 2
  basis e1 e2
  e1*e1 = e1
  e2*e2 = e2
  e1*e2 = e1
  expect peirce e1 N11
end
"""
UNKNOWN_LABEL = WRONG_PLACE.replace("peirce n1 N11", "peirce q N01")
# e0 would take index 0, which names the complement idempotent in a place
INDEX_ZERO = """algebra Z
  dim 2
  basis e0 n1
  e0*e0 = e0
  e0*n1 = 1/2 n1
  expect peirce n1 N01
  expect peirce e0 N11
end
"""
# e1 and e01 both count 1; n1 lies in N12 of the pair
SHARED_INDEX = """algebra S
  dim 3
  basis e1 e01 n1
  e1*e1 = e1
  e01*e01 = e01
  e1*n1 = 1/2 n1
  e01*n1 = 1/2 n1
  expect peirce n1 N12
end
"""
NOT_JORDAN = """algebra Bad
  dim 4
  basis e1 n1 n2 n3
  e1*e1 = e1
  e1*n1 = 1/2 n1
  e1*n3 = 1/2 n3
  n1*n1 = n2
  n1*n2 = n3
  expect peirce n1 N01
end
"""


def table_idempotents(a):
    return [i for i in range(a.dim) if a.table[i][i] == a.basis_vector(i)]


def sweep_peirce_rules(env):
    """Run both Peirce decompositions (rules verified internally) for every
    table idempotent of every catalog algebra; returns (#single, #grids)."""
    singles = grids = 0
    for name, a in env.items():
        idems = table_idempotents(a)
        for i in idems:
            d = peirce_single(a, a.basis_vector(i))
            assert sum(s.dim for s in d.components.values()) == a.dim, name
            singles += 1
        if idems:
            d, hull = peirce_multi_unitalized(a, [a.basis_vector(i) for i in idems])
            assert sum(s.dim for s in d.components.values()) == hull.dim, name
            grids += 1
    return singles, grids


def sweep_radical_peirce_products(env):
    """dim-one radical eigenspace pieces square to zero; a dim-one half
    piece is killed by the integer pieces.  Returns the number of checks."""
    checked = 0
    for name, a in env.items():
        rad = radical(a)
        if rad.dim == 0:
            continue
        for i in table_idempotents(a):
            e = a.basis_vector(i)
            pieces = {
                lam: rad.intersect(eigenspace(a, e, lam)) for lam in (ZERO, HALF, ONE)
            }
            for lam in (ZERO, ONE):
                if pieces[lam].dim == 1:
                    assert product_span(a, pieces[lam], pieces[lam]).dim == 0, name
                    checked += 1
            if pieces[HALF].dim == 1:
                for lam in (ZERO, ONE):
                    assert product_span(a, pieces[lam], pieces[HALF]).dim == 0, name
                    checked += 1
    return checked


# Products read straight off the table, apart from `algebra._int_products`,
# through which `jordanalg` takes every product: Fraction ones for the
# references below, and the integer ones `reference_cocycle_rows` uses.

def reference_mul(a: Algebra, u: Sequence[Fraction], v: Sequence[Fraction]) -> Vector:
    """u v = sum of u_i v_j c[i][j], in Fractions: what `Algebra.mul` must give."""
    out = [ZERO] * a.dim
    for i, x in enumerate(u):
        for j, y in enumerate(v):
            if x and y:
                xy = x * y
                for k, c in enumerate(a.table[i][j]):
                    if c:
                        out[k] += xy * c
    return tuple(out)


def reference_associator(a: Algebra, x, y, z) -> Vector:
    """(x y) z - x (y z) by `reference_mul`."""
    return sub_vec(reference_mul(a, reference_mul(a, x, y), z),
                   reference_mul(a, x, reference_mul(a, y, z)))


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


def reference_cocycle_rows(a: Algebra) -> tuple[int, list[tuple[int, ...]]]:
    """Unknown count and integer rows of the cocycle condition, assembled
    entry by entry over every action matrix: the reference that
    `cohomology._assemble_cocycle_rows` must match row set for row set.

    One row per basis quadruple (x, y, z, w) of J and coordinate m: the
    M-part of the linearized identity there, as a form in the unknowns
    h(p, q)_k, at index base[p][q] + k in the order of `grid_to_vec`.
    Each associator column (b_x b_y) b_j - b_x (b_y b_j) is taken by
    `_int_mul_bv`, with (b_x b_y) b_j = b_j (b_x b_y) on the commutative
    tables that have cocycles.
    """
    n = a.dim
    _, srows = a._int_structure
    base = [[0] * n for _ in range(n)]
    nunk = 0
    for p in range(n):
        for q in range(p, n):
            base[p][q] = base[q][p] = nunk
            nunk += n
    # column j of the action h -> x h is b_x b_j, of h -> (x, y, h) it is
    # (b_x, b_y, b_j), and of h -> (zw) h it is b_j (zw); all recur across
    # the quadruple scan
    prod = [[_int_bb(srows, p, q) for q in range(n)] for p in range(n)]
    assoc_cols = [[[[u - v for u, v in zip(_int_mul_bv(srows, j, prod[x][y]),
                                           _int_mul_bv(srows, x, prod[y][j]))]
                    for j in range(n)] for y in range(n)] for x in range(n)]
    prod_cols = [[[_int_mul_bv(srows, j, prod[z][w]) for j in range(n)] for w in range(n)]
                 for z in range(n)]

    def act(form, sign, cols, p, q):
        # form += sign * K h(p, q), column j of K being cols[j]
        off = base[p][q]
        for j, col in enumerate(cols):
            for m, c in enumerate(col):
                if c:
                    form[m][off + j] += sign * c

    def at(form, c, p, q):
        # form += c * h(p, q)
        off = base[p][q]
        for m in range(n):
            form[m][off + m] += c

    def add_associator(form, x, y, z, w):
        # M-part of (b_x, b_y, b_z b_w) in the null extension
        zw = srows[z][w]
        act(form, 1, assoc_cols[x][y], z, w)  # (x, y, h(z, w))
        act(form, 1, prod_cols[z][w], x, y)  # (zw) h(x, y)
        for p, c in srows[x][y]:
            for q, d in zw:
                at(form, c * d, p, q)  # h(xy, zw)
        for q, c in zw:
            act(form, -c, prod[x], y, q)  # - x h(y, zw)
        for q, c in enumerate(_int_mul_bv(srows, y, prod[z][w])):
            if c:
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


def reference_fingerprint_key(fp) -> tuple:
    """`Fingerprint.key()` as it was written before it read each record's
    fields shallowly: a record field through `dataclasses.astuple`, None read
    as 0, and `b2_embeds` by `B2_ORDER`."""
    out = []
    for name in fp.SHALLOW_FIELDS + fp.DEEP_FIELDS:
        value = getattr(fp, name)
        if is_dataclass(value):
            out.append(tuple(0 if v is None else v for v in astuple(value)))
        elif name == "b2_embeds":
            out.append(B2_ORDER[value])
        else:
            out.append(value)
    return tuple(out)


def reference_fingerprint(a: Algebra) -> Fingerprint:
    """`invariants.fingerprint` as it was before it read every field on the
    adapted table: only `dim_der`, `dim_h2` and `dim_centroid` come from
    `_adapted_table(a)`, and every other field, the radical and semisimple
    records too, is read on a's own table and its own radical split."""
    check_cocycle_cells(a)
    if not is_jordan(a):
        raise NonJordanError("fingerprints are only defined for Jordan algebras")
    _, rad_alg, quot = radical_split(a)
    cocycles = h2_dims(a)
    return Fingerprint(
        dim=a.dim,
        power_profile=power_profile(a),
        ann_series=annihilator_series(a),
        unital=find_identity(a) is not None,
        associative=is_associative(a),
        dim_der=a.dim * a.dim - cocycles.b2_dim,
        dim_centroid=centroid_dim(_adapted_table(a)),
        dim_h2=cocycles.h2_dim,
        rad_record=radical_record(rad_alg),
        ss_record=SemisimpleRecord(quot.dim, derivation_dim(quot), is_associative(quot)),
    )


def check_radical_block(a: Algebra) -> bool:
    """Whether `a` is read on an adapted table b other than itself; if it
    is, assert that b came with its radical split, kept on b before anything
    ran on it, that its radical is the span of b's first dim rad basis
    vectors, the image of a's radical, and that the split equals the one
    computed from scratch on a fresh copy of b."""
    b = _adapted_table(a)
    if b is a:
        return False
    split = vars(b)["_memo"][radical_split.__wrapped__, ()]
    rad = radical_split(a)[0]
    assert split[0] == Subspace(b.dim, Subspace.full(b.dim).int_rows[:rad.dim]), a.labels
    assert Subspace.span(a.dim, _adapted_basis(a)[:rad.dim]) == rad, a.labels
    assert radical_split(b) is split
    assert radical_split(Algebra(b.labels, b.table)) == split, a.labels
    return True


# The scalings of rationals to integers that `ratlin._int_vec` replaced:
# the integer structure constants, and `ratlin._int_row` as it was before it
# called `_int_vec`, kept verbatim.

def reference_int_structure(a: Algebra) -> tuple[int, tuple]:
    """(den, srows) of `Algebra._int_structure`, in Fractions: den the lcm
    of every denominator of the table, and each nonzero constant times den."""
    den = 1
    for row in a.table:
        for entry in row:
            for x in entry:
                den = lcm(den, x.denominator)
    srows = tuple(
        tuple(tuple((k, int(x * den)) for k, x in enumerate(entry) if x) for entry in row)
        for row in a.table
    )
    return den, srows


def sympy_rref(rows, ncols: int) -> tuple[tuple[Fraction, ...], ...]:
    """Reference: the nonzero rows of sympy's RREF over QQ of integer rows,
    as Fractions."""
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    if not rows or not ncols:
        return ()
    m, pivots = DomainMatrix([[QQ(x) for x in r] for r in rows], (len(rows), ncols), QQ).rref()
    return tuple(tuple(Fraction(int(x.numerator), int(x.denominator)) for x in r)
                 for r in m.to_list()[:len(pivots)])


def reference_int_row(frac_row: Sequence[Fraction]) -> list[int]:
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


# The Fraction versions of the trace form, the induced algebra, the
# quotient and the radical split that the integer ones in
# `jordanalg.invariants` replaced, and of the change of basis, the direct
# sum, the plus algebra and the unital hull that `jordanalg.algebra`
# builds from integer constants.

def reference_change_basis(a: Algebra, p: Matrix) -> Algebra:
    """Algebra in the basis given by the columns of p, in Fractions: each
    product of two columns mapped back by the inverse of p."""
    if p.rows != a.dim or p.cols != a.dim:
        raise AlgebraError("basis-change matrix has wrong shape")
    p_inv = invert(p)
    if p_inv is None:
        raise AlgebraError("basis-change matrix is singular")
    cols = [p.apply(unit_vec(a.dim, i)) for i in range(a.dim)]
    table = tuple(
        tuple(p_inv.apply(reference_mul(a, cols[i], cols[j])) for j in range(a.dim))
        for i in range(a.dim)
    )
    labels = tuple(f"b{i+1}" for i in range(a.dim))
    return Algebra(labels, table)


def reference_direct_sum(a: Algebra, b: Algebra) -> Algebra:
    """Block-diagonal table; cross products zero; labels concatenated, a
    repeat renamed as catalog sums rename it."""
    n, m = a.dim, b.dim
    labels = _dedupe_labels(a.labels + b.labels)
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


def reference_plus_algebra(a: Algebra) -> Algebra:
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


def reference_unitalization(a: Algebra, unit_label: str = "one") -> Algebra:
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


def reference_trace_form(a: Algebra) -> Matrix:
    """Gram matrix T[i][j] = tr L_{b_i * b_j}; tr L_{b_m} = sum_k c[m][k][k]
    and traces extend linearly."""
    n = a.dim
    traces = [sum((a.table[m][k][k] for k in range(n)), ZERO) for m in range(n)]
    rows = [[sum((c * t for c, t in zip(a.table[i][j], traces) if c), ZERO) for j in range(n)]
            for i in range(n)]
    return Matrix.from_rows(rows) if n else Matrix(0, 0, ())


def reference_trace_rank(a: Algebra) -> int:
    return matrix_rank(reference_trace_form(a))


def reference_induced_algebra(a: Algebra, s: Subspace) -> Algebra:
    """Structure constants restricted to a subspace closed under the product."""
    prods = {}
    for i, u in enumerate(s.rows):
        for j, v in enumerate(s.rows):
            p = reference_mul(a, u, v)
            if not s.contains_vector(p):
                raise AlgebraError("subspace is not closed under the product")
            prods[(i, j)] = coords(s, p)
    labels = tuple(f"r{i+1}" for i in range(s.dim))
    table = tuple(
        tuple(prods[(i, j)] for j in range(s.dim)) for i in range(s.dim)
    )
    return Algebra(labels, table)


def reference_quotient_algebra(a: Algebra, ideal: Subspace) -> Algebra:
    """Algebra induced on the complement basis (non-pivot coordinates) mod ideal."""
    if not is_ideal(a, ideal):
        raise AlgebraError("quotient requires an ideal")
    pivot_cols = set(ideal._pivot_cols())
    comp = [c for c in range(a.dim) if c not in pivot_cols]
    labels = tuple(a.labels[c] for c in comp)
    table = []
    for c in comp:
        row = []
        for d in comp:
            residue = ideal.reduce_vector(a.table[c][d])
            row.append(tuple(residue[e] for e in comp))
        table.append(tuple(row))
    return Algebra(labels, tuple(table))


def reference_radical_split(a: Algebra) -> tuple[Subspace, Algebra, Algebra]:
    """(rad, rad_alg, quotient): the radical as the trace form's kernel, its
    induced algebra, and the quotient algebra it was certified on.

    The radical must be an ideal, its induced algebra must be nilpotent, and
    the quotient's trace form must be nondegenerate; any failure raises
    RadicalVerificationError.
    """
    if not is_jordan(a):
        raise NonJordanError("radical is only computed for Jordan algebras")
    rad = kernel(reference_trace_form(a))
    if not is_ideal(a, rad):
        raise RadicalVerificationError("trace-form kernel is not an ideal")
    rad_alg = reference_induced_algebra(a, rad)
    if not is_nilpotent(rad_alg):
        raise RadicalVerificationError("trace-form kernel is not nilpotent")
    quot = reference_quotient_algebra(a, rad)
    if reference_trace_rank(quot) != quot.dim:
        raise RadicalVerificationError("quotient trace form is degenerate")
    return rad, rad_alg, quot


# The catalog parser that `catalog.parse_catalog` replaced, kept verbatim:
# one dict per entry, and every body line parsed where it stands.  Apart
# from counts written in non-ASCII digits (`dim ²`, which it sends to
# `int`), the new parser must give equal entries or the same error.

def reference_parse_catalog(text: str) -> list[CatalogEntry]:
    """Parse entries in file order; duplicate names are rejected."""
    entries: list[CatalogEntry] = []
    seen: set[str] = set()
    current: Optional[dict] = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        if current is None:
            if not line.startswith("algebra "):
                raise CatalogParseError(line_no, f"expected 'algebra', got {line!r}")
            header = line[len("algebra ") :].strip()
            if "=" in header:
                name, _, rhs = header.partition("=")
                name = name.strip()
                summands = tuple(s.strip() for s in rhs.split("+"))
                if not all(summands):
                    raise CatalogParseError(line_no, "empty summand in sum expression")
            else:
                name, summands = header, None
            if not name or " " in name:
                raise CatalogParseError(line_no, "bad algebra name")
            if name in seen:
                raise CatalogParseError(line_no, f"duplicate algebra name {name!r}")
            seen.add(name)
            current = {
                "name": name,
                "summands": summands,
                "dim": None,
                "basis": None,
                "products": [],
                "labels": None,
                "expected": {"flags": (), "peirce": []},
                "line": line_no,
            }
            continue
        if line == "end":
            entries.append(_reference_finish_entry(current))
            current = None
            continue
        _reference_parse_body_line(current, line, line_no)
    if current is not None:
        raise CatalogParseError(current["line"], f"entry {current['name']!r} missing 'end'")
    return entries


def _reference_parse_body_line(current: dict, line: str, line_no: int) -> None:
    # the line kinds are disjoint; the most frequent are tested first
    tokens = line.split()
    head = tokens[0]
    if head == "expect":
        _reference_parse_expect(current, tokens[1:], line_no)
    elif "*" in head and "=" in line:
        lhs, _, rhs = line.partition("=")
        la, star, lb = lhs.partition("*")
        la, lb = la.strip(), lb.strip()
        if not star or not la or not lb:
            raise CatalogParseError(line_no, "product line must look like li*lj = ...")
        try:
            terms = tuple(parse_terms(rhs))
        except AlgebraError as exc:
            raise CatalogParseError(line_no, str(exc)) from None
        current["products"].append((la, lb, terms, line_no))
    elif head == "dim":
        if current["summands"] is not None:
            raise CatalogParseError(line_no, "'dim' not allowed in a sum entry")
        if len(tokens) != 2 or not tokens[1].isdigit():
            raise CatalogParseError(line_no, "usage: dim N")
        current["dim"] = int(tokens[1])
        if current["dim"] > MAX_CATALOG_DIM:
            raise CatalogParseError(line_no, f"dim {tokens[1]} exceeds the limit {MAX_CATALOG_DIM}")
    elif head == "basis":
        if current["summands"] is not None:
            raise CatalogParseError(line_no, "'basis' not allowed in a sum entry")
        labels = tuple(tokens[1:])
        if len(set(labels)) != len(labels):
            raise CatalogParseError(line_no, "duplicate basis labels")
        current["basis"] = labels
    elif head == "labels":
        if current["summands"] is None:
            raise CatalogParseError(line_no, "'labels' only allowed in a sum entry")
        labels = tuple(tokens[1:])
        if len(set(labels)) != len(labels):
            raise CatalogParseError(line_no, "duplicate labels")
        current["labels"] = labels
    else:
        raise CatalogParseError(line_no, f"unrecognized line {line!r}")


def _reference_parse_expect(current: dict, tokens: list[str], line_no: int) -> None:
    if not tokens:
        raise CatalogParseError(line_no, "empty expect line")
    kind, rest = tokens[0], tokens[1:]
    exp = current["expected"]
    if kind in ("aut", "ann", "sq"):
        if len(rest) != 1 or not rest[0].isdigit():
            raise CatalogParseError(line_no, f"usage: expect {kind} K")
        exp[kind] = int(rest[0])
    elif kind == "flags":
        bad = [f for f in rest if f not in FLAG_NAMES]
        if bad:
            raise CatalogParseError(line_no, f"unknown flags {bad}")
        exp["flags"] = tuple(rest)
    elif kind == "niltype":
        body = "".join(rest)
        parts = [x for x in body[1:-1].split(",") if x]
        # niltype parts are ASCII-digit counts, as in `catalog._parse_expect`
        if not (body.startswith("(") and body.endswith(")")
                and all(x.isascii() and x.isdigit() for x in parts)):
            raise CatalogParseError(line_no, "usage: expect niltype (a,b,...)")
        exp["niltype"] = tuple(int(x) for x in parts)
    elif kind == "peirce":
        if len(rest) != 2 or rest[1] not in PEIRCE_PLACES:
            raise CatalogParseError(line_no, "usage: expect peirce LABEL PLACE")
        exp["peirce"].append((rest[0], rest[1]))
    elif kind == "radical":
        exp["radical"] = tuple(t for t in "".join(rest).split("+") if t)
        if not exp["radical"]:
            raise CatalogParseError(line_no, "usage: expect radical NAME [+ NAME ...]")
    elif kind == "h2":
        if len(rest) != 1 or not (rest[0] in ("zero", "nonzero") or rest[0].isdigit()):
            raise CatalogParseError(line_no, "usage: expect h2 zero|nonzero|K")
        exp["h2"] = rest[0]
    elif kind == "b2":
        if len(rest) != 1 or rest[0] not in ("yes", "no"):
            raise CatalogParseError(line_no, "usage: expect b2 yes|no")
        exp["b2"] = rest[0]
    else:
        raise CatalogParseError(line_no, f"unknown expect kind {kind!r}")


def _reference_finish_entry(current: dict) -> CatalogEntry:
    exp = current["expected"]
    expected = Expected(
        aut=exp.get("aut"),
        ann=exp.get("ann"),
        sq=exp.get("sq"),
        flags=exp.get("flags", ()),
        niltype=exp.get("niltype"),
        peirce=tuple(exp.get("peirce", [])),
        radical_expr=exp.get("radical"),
        h2=exp.get("h2"),
        b2=exp.get("b2"),
    )
    if current["summands"] is not None:
        return CatalogEntry(
            name=current["name"],
            summands=current["summands"],
            labels_override=current["labels"],
            expected=expected,
        )
    dim = current["dim"]
    basis = current["basis"]
    if dim is None or basis is None:
        raise CatalogParseError(current["line"], f"entry {current['name']!r} needs dim and basis")
    if len(basis) != dim:
        raise CatalogParseError(current["line"], f"entry {current['name']!r}: basis size != dim")
    products = []
    seen_pairs = set()
    for la, lb, terms, line_no in current["products"]:
        for _, lc in terms:
            if lc not in basis:
                raise CatalogParseError(line_no, f"unknown label {lc!r} in product")
        if la not in basis or lb not in basis:
            raise CatalogParseError(line_no, f"unknown label in product {la}*{lb}")
        pair = (la, lb) if la <= lb else (lb, la)
        if pair in seen_pairs:
            raise CatalogParseError(line_no, f"product {la}*{lb} listed twice")
        seen_pairs.add(pair)
        products.append((la, lb, terms))
    return CatalogEntry(
        name=current["name"],
        dim=dim,
        basis=basis,
        products=tuple(products),
        expected=expected,
    )
