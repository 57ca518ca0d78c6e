"""Shared check routines used by the property and acceptance suites, and
reference implementations that faster code in `jordanalg` must match."""

from jordanalg.algebra import Algebra, AlgebraError, _int_bb, _int_mul_bv, is_jordan, product_span
from jordanalg.peirce import eigenspace, peirce_multi_unitalized, peirce_single
from jordanalg.invariants import (
    NonJordanError,
    RadicalVerificationError,
    is_ideal,
    is_nilpotent,
    quotient_algebra,
    radical,
)
from jordanalg.ratlin import HALF, ONE, ZERO, Matrix, Subspace, kernel, rank as matrix_rank


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


# The Fraction versions of the trace form, the induced algebra and the
# radical split that the integer ones in `jordanalg.invariants` replaced.

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
            p = a.mul(u, v)
            if not s.contains_vector(p):
                raise AlgebraError("subspace is not closed under the product")
            prods[(i, j)] = s.coords(p)
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
