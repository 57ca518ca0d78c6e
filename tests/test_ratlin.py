from fractions import Fraction
from math import gcd
from operator import mul

import pytest

from jordanalg import ratlin
from jordanalg.algebra import change_basis, coboundary_int_rows
from jordanalg.cohomology import _assemble_cocycle_rows
from jordanalg.ratlin import (
    Matrix,
    Subspace,
    _echelon_to_rref_rows,
    _int_echelon,
    _int_kernel,
    int_rows_rank,
    invert,
    kernel,
    rank,
    rref,
    solve,
    vec,
)
from conftest import random_invertible_matrix, seeded_rng
from helpers import coords, from_coords, reference_int_row

F = Fraction


def test_rref_identity():
    m = Matrix.identity(3)
    r, rank = rref(m)
    assert r == m and rank == 3


def test_rref_zero():
    m = Matrix.zero(2, 4)
    r, rank = rref(m)
    assert r == m and rank == 0


def test_rref_rank_one():
    # hand Gaussian elimination: second row is twice the first
    m = Matrix.from_rows([[1, 2], [2, 4]])
    r, rank = rref(m)
    assert rank == 1
    assert r == Matrix.from_rows([[1, 2], [0, 0]])


def test_rref_idempotent():
    rng = seeded_rng("rref")
    for _ in range(25):
        rows = [[F(rng.randint(-4, 4), rng.choice([1, 2]))
                 for _ in range(5)] for _ in range(4)]
        m = Matrix.from_rows(rows)
        r1, k1 = rref(m)
        r2, k2 = rref(r1)
        assert r1 == r2 and k1 == k2


def test_kernel_identity_and_zero():
    assert kernel(Matrix.identity(4)).dim == 0
    assert kernel(Matrix.zero(3, 3)) == Subspace.full(3)


def test_kernel_line():
    # direct solve: x + y = 0
    k = kernel(Matrix.from_rows([[1, 1]]))
    assert k.rows == ((F(1), F(-1)),)


def test_rank_nullity():
    rng = seeded_rng("ranknullity")
    for _ in range(40):
        rows = [[F(rng.randint(-3, 3)) for _ in range(rng.randint(1, 6))]]
        cols = len(rows[0])
        rows += [[F(rng.randint(-3, 3)) for _ in range(cols)] for _ in range(rng.randint(0, 5))]
        m = Matrix.from_rows(rows)
        _, rank = rref(m)
        assert rank + kernel(m).dim == m.cols


def test_solve_identity():
    b = vec([3, F(1, 2), -2])
    assert solve(Matrix.identity(3), b) == b


def test_solve_inconsistent():
    assert solve(Matrix.zero(2, 2), vec([1, 0])) is None


def test_solve_diagonal():
    # direct solve of 2x = 1 in both coordinates
    x = solve(Matrix.from_rows([[2, 0], [0, 2]]), vec([1, 1]))
    assert x == (F(1, 2), F(1, 2))


def test_solve_verifies():
    rng = seeded_rng("solve")
    for _ in range(30):
        m = Matrix.from_rows([[F(rng.randint(-3, 3)) for _ in range(3)] for _ in range(4)])
        b = vec([rng.randint(-3, 3) for _ in range(4)])
        x = solve(m, b)
        if x is not None:
            assert m.apply(x) == b


def test_invert_round_trip():
    m = Matrix.from_rows([[1, 2, 0], [0, 1, 1], [1, 0, 1]])
    mi = invert(m)
    assert mi is not None
    units = [vec(int(i == j) for i in range(3)) for j in range(3)]
    assert [m.apply(mi.apply(u)) for u in units] == units
    assert invert(Matrix.from_rows([[1, 2], [2, 4]])) is None


def test_subspace_sum_with_zero():
    v = Subspace.span(3, [[1, 0, 2], [0, 1, 1]])
    assert v.add(Subspace.zero(3)) == v


def test_subspace_self_intersection():
    v = Subspace.span(3, [[1, 0, 2], [0, 1, 1]])
    assert v.intersect(v) == v


def test_subspace_sum_spans_plane():
    # stacked-basis reduction of two independent lines
    a = Subspace.span(2, [[1, 0]])
    b = Subspace.span(2, [[0, 1]])
    assert a.add(b) == Subspace.full(2)


def test_subspace_dimension_formula():
    rng = seeded_rng("subspace")
    for _ in range(30):
        n = 5
        a = Subspace.span(n, [[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(3)])
        b = Subspace.span(n, [[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(3)])
        assert a.add(b).dim == a.dim + b.dim - a.intersect(b).dim
        assert a.add(b).contains(a) and a.contains(a.intersect(b))


def test_subspace_canonical_under_generator_scrambling():
    rng = seeded_rng("canonical")
    gens = [[1, 2, 0, 1], [0, 1, 1, 1], [1, 3, 1, 2]]
    base = Subspace.span(4, gens)
    for _ in range(10):
        shuffled = [list(g) for g in gens]
        rng.shuffle(shuffled)
        scalars = [F(rng.choice([1, -1, 2, 3]), rng.choice([1, 2])) for _ in shuffled]
        scaled = [[c * x for x in g] for c, g in zip(scalars, shuffled)]
        # add a random combination of the generators
        combo = [F(rng.randint(-2, 2)) for _ in scaled]
        extra = [sum(c * g[i] for c, g in zip(combo, scaled)) for i in range(4)]
        assert Subspace.span(4, scaled + [extra]) == base


def test_subspace_ambient_mismatch():
    with pytest.raises(ValueError):
        Subspace.full(2).add(Subspace.full(3))
    with pytest.raises(ValueError):
        Subspace.full(2).intersect(Subspace.full(3))


def test_subspace_coords_round_trip():
    s = Subspace.span(4, [[1, 2, 0, 0], [0, 0, 1, 3]])
    v = from_coords(s, vec([2, -1]))
    assert s.contains_vector(v)
    assert coords(s, v) == (F(2), F(-1))


def free_column_kernel(m, pivots):
    """Reference kernel: one generator per free column of the echelon form
    `pivots` of m's rows."""
    rows = _echelon_to_rref_rows(pivots)
    gens = []
    for f in (c for c in range(m.cols) if c not in pivots):
        v = [F(0)] * m.cols
        v[f] = F(1)
        for r, c in zip(rows, sorted(pivots)):
            v[c] = -r[f]
        gens.append(v)
    return Subspace.span(m.cols, gens)


def planted_rank_rows(rng, nrows, ncols, r):
    """Rows of B C with B nrows x r and C r x ncols, entries in [-3, 3],
    plus duplicate and zero rows, shuffled."""
    b = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(nrows)]
    c = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(r)]
    rows = [[sum(x * c[k][j] for k, x in enumerate(bi)) for j in range(ncols)] for bi in b]
    rows += [list(rng.choice(rows)) for _ in range(2)] + [[0] * ncols]
    rng.shuffle(rows)
    return rows


def full_cocycle_system(a):
    # (rows, nunk): the cocycle rows on every column
    nunk = a.dim * (a.dim + 1) // 2 * a.dim
    return _assemble_cocycle_rows(a, range(nunk)), nunk


def kernel_oracle_cases(env):
    rng = seeded_rng("kernel-oracle")
    cases = [([], 3), ([[]], 0), ([], 0), ([[0, 0, 0]] * 4, 3),
             ([[1, 2], [3, 4]], 2), ([[2, 0, 0], [0, 3, 0], [0, 0, 5], [1, 1, 1]], 3)]
    for a in env.values():
        cases.append(full_cocycle_system(a))
    for name in rng.sample(sorted(env), 12):
        b = change_basis(env[name], random_invertible_matrix(env[name].dim, rng, dense=True))
        cases.append(full_cocycle_system(b))
    for _ in range(40):
        ncols = rng.randint(1, 9)
        cases.append((planted_rank_rows(rng, rng.randint(1, 12), ncols,
                                        rng.randint(0, ncols)), ncols))
    return cases


def test_kernel_core_matches_echelon(env):
    # the kernel core against the echelon core it replaced for rank and
    # kernel; sparse rows first, as the echelon rank ordered them
    for rows, ncols in kernel_oracle_cases(env):
        pivots = _int_echelon(sorted(rows, key=lambda r: len(r) - r.count(0)), ncols)
        r = len(pivots)
        assert int_rows_rank(rows, ncols) == r
        basis = _int_kernel(rows, ncols)
        assert len(basis) == ncols - r
        assert not any(sum(map(mul, v, row)) for v in basis for row in rows)
        m = Matrix(len(rows), ncols, tuple(F(x) for row in rows for x in row))
        assert rank(m) == r
        assert kernel(m) == free_column_kernel(m, pivots)


def test_kernel_reads_no_row_after_the_basis_empties():
    def rows():
        yield [0, 2, 0]
        yield [1, 0, 1]
        yield [3, 1, -1]  # empties the basis
        raise AssertionError("row read after the kernel basis emptied")

    assert _int_kernel(rows(), 3) == []


def test_kernel_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = seeded_rng("kernel-sympy")
    for _ in range(8):
        ncols = rng.randint(2, 8)
        rows = planted_rank_rows(rng, rng.randint(2, 10), ncols, rng.randint(1, ncols))
        sm = sympy.Matrix(rows)
        m = Matrix.from_rows(rows)
        assert rank(m) == int_rows_rank(rows, ncols) == sm.rank()
        null = [[F(int(x.p), int(x.q)) for x in v] for v in sm.nullspace()]
        assert kernel(m) == Subspace.span(ncols, null)


def test_span_of_int_rows_matches_fraction_path(env):
    # integer generators go straight to primitive rows; the subspace is the
    # one their Fraction copies span, zero and duplicate rows included
    rng = seeded_rng("span-int")
    cases = [([], 3), ([[]], 0), ([[0, 0, 0]] * 4, 3), ([[2, 4], [-1, -2], [0, 6]], 2)]
    for name in rng.sample(sorted(env), 8):
        rows, nunk = full_cocycle_system(env[name])
        cases += [(coboundary_int_rows(env[name]), nunk), (_int_kernel(rows, nunk), nunk)]
    for _ in range(30):
        ncols = rng.randint(1, 8)
        k = rng.choice([1, 2, 6, -3])
        rows = planted_rank_rows(rng, rng.randint(1, 10), ncols, rng.randint(0, ncols))
        cases.append(([[k * x for x in r] for r in rows], ncols))
    for _ in range(20):
        ncols = rng.randint(1, 6)
        gens = planted_rank_rows(rng, rng.randint(1, 6), ncols, rng.randint(0, ncols))
        gens += [[F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(ncols)]
                 for _ in range(rng.randint(1, 3))]
        rng.shuffle(gens)
        cases.append((gens, ncols))
    for gens, ncols in cases:
        got = Subspace.span(ncols, gens)
        assert got == Subspace.span(ncols, [[F(x) for x in g] for g in gens])
        assert all(type(x) is F for row in got.rows for x in row)


def fraction_echelon_to_rref_rows(pivots):
    # reference: the back-substitution in Fractions, each row divided by its
    # pivot first, then eliminated above each pivot from the bottom up
    cols = sorted(pivots)
    rows = [[F(x) / pivots[c][c] for x in pivots[c]] for c in cols]
    for idx in range(len(cols) - 1, -1, -1):
        c = cols[idx]
        for j in range(idx):
            f = rows[j][c]
            if f:
                rows[j] = [x - f * y for x, y in zip(rows[j], rows[idx])]
    return [tuple(r) for r in rows]


def back_substitution_cases():
    """Seeded integer rows: negative entries, zero and duplicate rows, rank
    deficiency, and rows scaled or filled past 64 bits."""
    rng = seeded_rng("back-substitution")
    cases = [([[0, 0, 0]] * 2, 3), ([[2, -4, 6], [-1, 2, 5]], 3), ([[-3, 0], [0, -7]], 2)]
    for _ in range(80):
        ncols = rng.randint(1, 9)
        rows = planted_rank_rows(rng, rng.randint(1, 12), ncols, rng.randint(0, ncols))
        rows = [[rng.choice([1, -1, 3**45, -(2**70) - 1]) * x for x in r] for r in rows]
        if rng.random() < 0.3:
            rows.append([rng.randint(-(2**90), 2**90) for _ in range(ncols)])
        cases.append((rows, ncols))
    return cases


def test_back_substitution_matches_fraction_reference(monkeypatch):
    cases = back_substitution_cases()
    assert any(abs(x).bit_length() > 64 for rows, _ in cases for r in rows for x in r)
    assert any(len(_int_echelon(rows, n)) < min(len(rows), n) for rows, n in cases)
    for rows, ncols in cases:
        pivots = _int_echelon(rows, ncols)
        got = _echelon_to_rref_rows(pivots)
        assert got == fraction_echelon_to_rref_rows(pivots)
        assert all(type(x) is F for r in got for x in r)

    def answers():
        out = []
        for rows, ncols in cases:
            m = Matrix.from_rows(rows)
            out += [rref(m), solve(m, m.apply(vec(range(1, ncols + 1)))),
                    solve(m, vec(range(m.rows)))]
            if len(rows) >= ncols:
                out.append(invert(Matrix.from_rows(rows[:ncols])))
        return out

    got = answers()
    assert any(x is None for x in got) and any(isinstance(x, Matrix) for x in got)
    monkeypatch.setattr(ratlin, "_echelon_to_rref_rows", fraction_echelon_to_rref_rows)
    assert answers() == got


def fraction_rref(gens, n):
    # reference: Gauss-Jordan in Fractions, pivot rows scaled to 1
    rows = [[F(x) for x in g] for g in gens]
    out, c = [], 0
    while rows and c < n:
        hit = next((r for r in rows if r[c]), None)
        if hit is not None:
            rows.remove(hit)
            hit = [x / hit[c] for x in hit]
            out = [[x - r[c] * y for x, y in zip(r, hit)] for r in out] + [hit]
            rows = [[x - r[c] * y for x, y in zip(r, hit)] for r in rows]
        c += 1
    return tuple(tuple(r) for r in out)


def test_subspace_stores_primitive_integer_rref_rows():
    rng = seeded_rng("int-storage")
    for _ in range(60):
        n = rng.randint(1, 7)
        gens = [[F(rng.randint(-5, 5), rng.choice([1, 2, 3, 7])) for _ in range(n)]
                for _ in range(rng.randint(0, n + 2))]
        if rng.random() < 0.5:
            gens.append([rng.randint(-(2**70), 2**70) for _ in range(n)])
        s = Subspace.span(n, gens)
        for row in s.int_rows:
            assert all(type(x) is int for x in row)
            assert gcd(*row) == 1 and next(x for x in row if x) > 0
        assert s.rows == fraction_rref(gens, n)
        assert all(type(x) is F for row in s.rows for x in row)
        scaled = [[c * x for x in g] for c, g in
                  zip((F(rng.choice([1, -1, 3, -5]), rng.choice([1, 2, 9])) for _ in gens), gens)]
        rng.shuffle(scaled)
        assert Subspace.span(n, scaled) == s
        assert Subspace.span(n, s.rows) == s == Subspace.span(n, s.int_rows)


def test_int_row_matches_the_reference():
    # `_int_row` is `_int_vec` divided by its content: it gives the row
    # the scaling before it gave, on seeded rows with zeros, negative
    # entries, wide denominators and all-zero rows, and on the empty row
    rng = seeded_rng("int-row")
    rows = [[], [F(0)] * 5, [F(-3, 4)], [F(0), F(-6), F(4), F(0)]]
    for _ in range(300):
        n = rng.randint(1, 8)
        if rng.random() < 0.1:
            rows.append([F(0)] * n)
            continue
        rows.append([F(rng.choice([0, 0, rng.randint(-12, 12), rng.randint(-(2**70), 2**70)]),
                       rng.choice([1, 2, 3, 4, 9, 2**70 + 1])) for _ in range(n)])
    assert any(x < 0 for r in rows for x in r) and sum(not any(r) for r in rows) > 10
    for row in rows:
        got = ratlin._int_row(row)
        assert got == reference_int_row(row), row
        assert all(type(x) is int for x in got)
