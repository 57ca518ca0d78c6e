from fractions import Fraction
from math import gcd, lcm
from operator import mul

import pytest

from jordanalg import ratlin
from jordanalg.algebra import change_basis
from jordanalg.cohomology import _assemble_cocycle_rows
from jordanalg.ratlin import (
    Matrix,
    Subspace,
    _echelon_to_rref_rows,
    _int_kernel,
    _pair_echelon,
    _pair_echelon_add,
    _pairs,
    int_rows_rank,
    invert,
    kernel,
    rank,
    rref,
    solve,
    vec,
)
from conftest import random_invertible_matrix, seeded_rng
from helpers import coboundary_int_rows, coords, from_coords, reference_int_row, sympy_rref

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


def test_span_refuses_generators_of_the_wrong_length():
    # as `add`, `contains`, `intersect` and `reduce_vector` refuse a wrong
    # ambient, so does `span`: a longer generator is not cut short and a
    # shorter one is not kept
    for ambient, gens in ((2, [[0, 0, 5]]), (2, [[1, 0, 5]]), (3, [[1, 0]]),
                          (2, [[1, 0], [F(1, 2), 0, 1]]), (0, [[1]])):
        with pytest.raises(ValueError, match="ambient mismatch"):
            Subspace.span(ambient, gens)


def test_subspace_coords_round_trip():
    s = Subspace.span(4, [[1, 2, 0, 0], [0, 0, 1, 3]])
    v = from_coords(s, vec([2, -1]))
    assert s.contains_vector(v)
    assert coords(s, v) == (F(2), F(-1))


def free_column_kernel(ncols, rows):
    """Reference kernel: one generator per free column of the rational RREF
    rows `rows`."""
    pivots = [next(c for c, x in enumerate(r) if x) for r in rows]
    gens = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [F(0)] * ncols
        v[f] = F(1)
        for r, c in zip(rows, pivots):
            v[c] = -r[f]
        gens.append(v)
    return Subspace.span(ncols, gens)


def planted_rank_rows(rng, nrows, ncols, r):
    """Rows of B C with B nrows x r and C r x ncols, entries in [-3, 3],
    plus duplicate and zero rows, shuffled."""
    b = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(nrows)]
    c = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(r)]
    rows = [[sum(x * c[k][j] for k, x in enumerate(bi)) for j in range(ncols)] for bi in b]
    rows += [list(rng.choice(rows)) for _ in range(2)] + [[0] * ncols]
    rng.shuffle(rows)
    return rows


def pair_rows(rows):
    # each dense row as the (column, value) pairs of its nonzero entries,
    # the rows `_int_kernel` reads
    return [[(c, x) for c, x in enumerate(r) if x] for r in rows]


def full_cocycle_system(a):
    # (rows, nunk): the cocycle rows on every column, written out densely
    nunk = a.dim * (a.dim + 1) // 2 * a.dim
    rows = []
    for pairs in _assemble_cocycle_rows(a, range(nunk)):
        row = [0] * nunk
        for c, x in pairs:
            row[c] = x
        rows.append(row)
    return rows, nunk


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
    # the kernel core against the rank and the free-column kernel of
    # sympy's RREF
    for rows, ncols in kernel_oracle_cases(env):
        reference = sympy_rref(rows, ncols)
        r = len(reference)
        assert int_rows_rank(rows, ncols) == r
        basis = _int_kernel(pair_rows(rows), ncols)
        assert len(basis) == ncols - r
        assert not any(sum(map(mul, v, row)) for v in basis for row in rows)
        m = Matrix(len(rows), ncols, tuple(F(x) for row in rows for x in row))
        assert rank(m) == r
        assert kernel(m) == free_column_kernel(ncols, reference)


def test_kernel_reads_no_row_after_the_basis_empties():
    def rows():
        yield [(1, 2)]
        yield [(0, 1), (2, 1)]
        yield [(0, 3), (1, 1), (2, -1)]  # empties the basis
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


def test_pair_kernel_matches_echelon_and_sympy():
    # the pair rows `_int_kernel` reads, against the Fraction rank and the
    # sympy nullspace of the same rows written densely: empty rows, columns
    # no row touches, duplicate rows and coefficients of 60 to 80 bits
    sympy = pytest.importorskip("sympy")
    rng = seeded_rng("pair-kernel")
    assert _int_kernel([], 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert _int_kernel([[], [], [(1, 5)]], 2) == [[1, 0]]
    assert _int_kernel([[]], 0) == []
    big = (3**50, -(2**70) + 3, 10**20 + 1)
    for _ in range(30):
        ncols = rng.randint(1, 9)
        rows = planted_rank_rows(rng, rng.randint(1, 12), ncols, rng.randint(0, ncols))
        unused = rng.sample(range(ncols), rng.randint(0, ncols // 2))
        for row in rows:
            for c in unused:
                row[c] = 0
            if rng.random() < 0.4:
                k = rng.choice(big)
                row[:] = [k * x for x in row]
        rows += [list(rng.choice(rows)), [0] * ncols]
        rng.shuffle(rows)
        r = len(fraction_rref(rows, ncols))
        basis = _int_kernel(pair_rows(rows), ncols)
        assert len(basis) == ncols - r == ncols - sympy.Matrix(rows).rank()
        assert not any(sum(map(mul, v, row)) for v in basis for row in rows)
        space = Subspace.span(ncols, basis)
        assert all(space.contains_vector([F(int(j == c)) for j in range(ncols)]) for c in unused)
        null = [[F(int(x.p), int(x.q)) for x in v] for v in sympy.Matrix(rows).nullspace()]
        assert space == Subspace.span(ncols, null)
        assert int_rows_rank(rows, ncols) == r


def test_span_of_int_rows_matches_fraction_path(env):
    # integer generators go straight to primitive rows; the subspace is the
    # one their Fraction copies span, zero and duplicate rows included
    rng = seeded_rng("span-int")
    cases = [([], 3), ([[]], 0), ([[0, 0, 0]] * 4, 3), ([[2, 4], [-1, -2], [0, 6]], 2)]
    for name in rng.sample(sorted(env), 8):
        rows, nunk = full_cocycle_system(env[name])
        cases += [(coboundary_int_rows(env[name]), nunk),
                  (_int_kernel(pair_rows(rows), nunk), nunk)]
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


def fraction_echelon_to_rref_rows(pivots, ncols):
    # reference: the back-substitution in Fractions, each row divided by its
    # pivot first, then eliminated above each pivot from the bottom up
    cols = sorted(pivots)
    rows = [[F(pivots[c].get(k, 0), pivots[c][c]) for k in range(ncols)] for c in cols]
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


def test_pair_echelon_matches_the_dense_echelon():
    # on the seeded rows the pair-row echelon has the pivot columns of the
    # Gauss-Jordan reference in Fractions, its incremental add says True
    # exactly for a row that raises the reference rank, and its rows,
    # primitive and positive at their pivot, span the same space
    for rows, ncols in back_substitution_cases():
        pivots = _pair_echelon(_pairs(r) for r in rows)
        reference = fraction_rref(rows, ncols)
        assert sorted(pivots) == [next(c for c, x in enumerate(r) if x) for r in reference]
        grown, added = {}, []
        for i, r in enumerate(rows):
            added.append(_pair_echelon_add(grown, _pairs(r)))
            assert added[-1] == (len(fraction_rref(rows[:i + 1], ncols))
                                 > len(fraction_rref(rows[:i], ncols)))
        assert grown == pivots and sum(added) == len(pivots)
        for c, row in pivots.items():
            assert min(row) == c and row[c] > 0 and gcd(*row.values()) == 1
        dense = [[row.get(c, 0) for c in range(ncols)] for row in pivots.values()]
        assert Subspace.span(ncols, dense) == Subspace.span(ncols, rows)


def test_back_substitution_matches_fraction_reference(monkeypatch):
    cases = back_substitution_cases()
    assert any(abs(x).bit_length() > 64 for rows, _ in cases for r in rows for x in r)
    assert any(len(fraction_rref(rows, n)) < min(len(rows), n) for rows, n in cases)
    for rows, ncols in cases:
        pivots = _pair_echelon(map(_pairs, rows))
        kept = {c: dict(row) for c, row in pivots.items()}
        got = _echelon_to_rref_rows(pivots, ncols)
        assert got == fraction_echelon_to_rref_rows(pivots, ncols)
        assert got == list(fraction_rref(rows, ncols))
        assert all(type(x) is F for r in got for x in r)
        assert pivots == kept  # the back-substitution leaves the echelon as it is

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
    # `invert` reads `_int_inverse`, not the patched rows: the Gauss-Jordan
    # reference of [m | I] gives its answers
    for rows, ncols in cases:
        if len(rows) >= ncols:
            square = rows[:ncols]
            aug = fraction_rref([r + [int(i == j) for j in range(ncols)]
                                 for i, r in enumerate(square)], 2 * ncols)
            expected = None
            if all(r[i] == 1 for i, r in enumerate(aug)):  # pivots 0 .. ncols - 1
                expected = Matrix.from_rows([r[ncols:] for r in aug])
            assert invert(Matrix.from_rows(square)) == expected


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


def test_int_vec_scales_each_entry_by_the_lcm_of_the_denominators():
    # the lcm d and the integer vector d v, with a vector of ints or
    # Fractions over 1 read as its numerators; an entry with no
    # denominator (a float or a string) raises AttributeError, which
    # `Algebra` turns into its "not an int or a Fraction" error
    rng = seeded_rng("int-vec")
    vectors = [[], [0, 0], [3, F(-4), True], [F(1, 2), F(-5, 6), 0, 7]]
    vectors += [[F(rng.randint(-20, 20), rng.choice([1, 1, 2, 3, 8])) for _ in range(6)]
                for _ in range(200)]
    for v in vectors:
        d, scaled = ratlin._int_vec(v)
        assert d == lcm(1, *(F(x).denominator for x in v)), v
        assert scaled == [F(x) * d for x in v], v
        assert all(type(x) is int for x in scaled), v
    assert any(ratlin._int_vec(v)[0] == 1 for v in vectors[4:])
    for bad in (1.5, "1/2"):
        for v in ([bad], [F(1, 3), bad], [2, bad]):
            with pytest.raises(AttributeError):
                ratlin._int_vec(v)


def poly_from_roots(lead, roots, rest=()):
    """Integer coefficients, constant first, of lead * prod (t - r) * rest,
    each root r a Fraction and `rest` an integer polynomial."""
    f = [F(lead)]
    for r in roots:
        f = [a - r * b for a, b in zip([F(0)] + f, f + [F(0)])]
    for_rest = list(rest) or [1]
    out = [F(0)] * (len(f) + len(for_rest) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(for_rest):
            out[i + j] += a * b
    assert all(x.denominator == 1 for x in out)
    return [int(x) for x in out]


def test_simple_rational_roots_are_exact_and_skip_repeated_and_irrational_roots():
    # 36 (t - 1/2)(t + 3)(t - 2/3)(t^2 - 2): the irrational pair is not
    # reported; a repeated root is not simple, so it is not reported either
    c = poly_from_roots(36, [F(1, 2), F(-3), F(2, 3)], [-2, 0, 1])
    assert ratlin._simple_rational_roots(c) == [F(-3), F(1, 2), F(2, 3)]
    assert ratlin._simple_rational_roots(poly_from_roots(1, [F(1), F(1), F(-2)])) == [F(-2)]
    assert ratlin._simple_rational_roots([2, 0, 1]) == []
    assert ratlin._simple_rational_roots([-7, 3]) == [F(7, 3)]
    # roots with large numerators and denominators, found on seeded cases
    rng = seeded_rng("rational-roots")
    for _ in range(50):
        roots = sorted({F(rng.randint(-10**9, 10**9), rng.randint(1, 10**6))
                        for _ in range(rng.randint(1, 5))})
        lead = 1
        for r in roots:
            lead *= r.denominator
        assert ratlin._simple_rational_roots(poly_from_roots(lead, roots)) == roots
