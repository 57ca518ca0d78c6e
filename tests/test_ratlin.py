from fractions import Fraction
from operator import mul

import pytest

from jordanalg.algebra import change_basis
from jordanalg.cohomology import _cocycle_system
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
    assert r.row_list() == [[F(1), F(2)], [F(0), F(0)]]


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
    assert m.matmul(mi) == Matrix.identity(3)
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
    v = s.from_coords(vec([2, -1]))
    assert s.contains_vector(v)
    assert s.coords(v) == (F(2), F(-1))


def free_column_kernel(m, pivots):
    """Reference kernel: one generator per free column of the echelon form
    `pivots` of m's rows."""
    rows = _echelon_to_rref_rows(pivots, m.cols)
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


def kernel_oracle_cases(env):
    rng = seeded_rng("kernel-oracle")
    cases = [([], 3), ([[]], 0), ([], 0), ([[0, 0, 0]] * 4, 3),
             ([[1, 2], [3, 4]], 2), ([[2, 0, 0], [0, 3, 0], [0, 0, 5], [1, 1, 1]], 3)]
    for a in env.values():
        nunk, rows, _ = _cocycle_system(a)
        cases.append((rows, nunk))
    for name in rng.sample(sorted(env), 12):
        b = change_basis(env[name], random_invertible_matrix(env[name].dim, rng, dense=True))
        nunk, rows, _ = _cocycle_system(b)
        cases.append((rows, nunk))
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
