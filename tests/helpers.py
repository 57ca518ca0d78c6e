"""Shared check routines used by the property and acceptance suites, and
reference implementations that faster code in `jordanalg` must match."""

from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

from jordanalg.algebra import (
    Algebra,
    AlgebraError,
    is_jordan,
    parse_terms,
    product_span,
)
from jordanalg.catalog import (
    FLAG_NAMES,
    MAX_CATALOG_DIM,
    PEIRCE_PLACES,
    CatalogEntry,
    CatalogParseError,
    Expected,
)
from jordanalg.cohomology import SymGrid, grid_from_function
from jordanalg.peirce import eigenspace, peirce_multi_unitalized, peirce_single
from jordanalg.polysolve import Polynomial, _integer_terms, _leads, _reduce
from jordanalg.invariants import (
    NonJordanError,
    RadicalVerificationError,
    is_ideal,
    is_nilpotent,
    quotient_algebra,
    radical,
)
from jordanalg.ratlin import (
    HALF,
    ONE,
    ZERO,
    Matrix,
    Subspace,
    Vector,
    invert,
    kernel,
    rank as matrix_rank,
    sub_vec,
    unit_vec,
    vec,
    zero_vec,
)


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


def normal_form(p: Polynomial, basis: Sequence[Polynomial]) -> Polynomial:
    """Full remainder of p modulo basis (leading and tail terms reduced)."""
    terms, den = _reduce(*_integer_terms(p), _leads(basis))
    return Polynomial._of(p.names, {m: Fraction(x, den) for m, x in terms.items()})


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
    assoc_cols = a._assoc_table
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


# The Fraction versions of the trace form, the induced algebra and the
# radical split that the integer ones in `jordanalg.invariants` replaced,
# and of the change of basis that `jordanalg.algebra.change_basis` replaced.

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
    quot = quotient_algebra(a, rad)
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
