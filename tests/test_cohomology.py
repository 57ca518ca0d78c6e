from fractions import Fraction
from itertools import compress
from math import gcd

import pytest

from jordanalg.algebra import (
    Algebra,
    AlgebraError,
    change_basis,
    check_isomorphism,
    direct_sum,
    is_jordan,
    matrix_algebra,
    plus_algebra,
)
from jordanalg.cohomology import (
    CocycleSpace,
    MAX_COCYCLE_CELLS,
    _assemble_cocycle_rows,
    cocycle_cells,
    coboundary_echelon,
    coboundary_pair_rows,
    cocycle_space,
)
from jordanalg.invariants import derivation_dim, fingerprint
from jordanalg.ratlin import (
    Matrix,
    _int_kernel,
    _int_row,
    _pairs,
    int_rows_rank,
    zero_vec,
)
from conftest import random_invertible_matrix, seeded_rng
from gen import dense_basis, field_sum, spin_factor, truncated_polynomial
from helpers import (
    coboundary,
    coboundary_int_rows,
    cocycle_subspaces,
    cocycle_system,
    complement_columns,
    grid_from_function,
    grid_to_vec,
    null_extension,
    reference_cocycle_rows,
    sympy_rref,
    vec_to_grid,
    zero_grid,
)

F = Fraction


def test_null_extension_of_zero_cocycle_is_jordan(env):
    for name in ("B2", "T5", "J55", "J68"):
        a = env[name]
        assert is_jordan(null_extension(a, zero_grid(a)))


def test_null_extension_detects_non_jordan_base():
    bad = Algebra.from_products(
        ("e1", "n1", "n2", "n3"),
        {("e1", "e1"): {"e1": 1}, ("e1", "n1"): {"n1": F(1, 2)},
         ("e1", "n3"): {"n3": F(1, 2)},
         ("n1", "n1"): {"n2": 1}, ("n1", "n2"): {"n3": 1}})
    assert not is_jordan(null_extension(bad, zero_grid(bad)))


def test_null_extension_square_zero_line(env):
    # extending the square-zero line by h(n, n) = n gives the table with
    # n^2 = n-copy: the two-dimensional nilpotent chain
    f2 = env["F2"]
    h = grid_from_function(f2, lambda i, j: (F(1),))
    ext = null_extension(f2, h)
    assert ext.mul(ext.basis_vector(0), ext.basis_vector(0)) == ext.basis_vector(1)
    assert fingerprint(ext) == fingerprint(env["B3"])


def test_null_extension_rejects_asymmetric(env):
    a = env["B2"]
    h = [[zero_vec(2), (F(1), F(0))], [zero_vec(2), zero_vec(2)]]
    with pytest.raises(Exception):
        null_extension(a, tuple(tuple(r) for r in h))


def test_coboundary_extension_is_trivially_isomorphic(env):
    # (x, u) -> (x, u + mu(x)) identifies the h_mu extension with the h = 0 one
    rng = seeded_rng("coboundary-iso")
    for name in ("B2", "T9"):
        a = env[name]
        n = a.dim
        mu = Matrix.from_rows(
            [[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        )
        ext_h = null_extension(a, coboundary(a, mu))
        ext_0 = null_extension(a, zero_grid(a))
        rows = []
        for i in range(2 * n):
            row = [F(1) if i == j else F(0) for j in range(2 * n)]
            rows.append(row)
        for i in range(n):
            for k in range(n):
                rows[n + k][i] = mu.entry(k, i)
        p = Matrix.from_rows(rows)
        assert check_isomorphism(ext_h, ext_0, p)


def test_cocycle_space_key_values(env):
    assert cocycle_space(env["J59"]).h2_dim == 0
    assert cocycle_space(env["J55"]).h2_dim > 0
    assert cocycle_space(env["J56"]).h2_dim > 0


def test_cocycle_space_vanishes_on_semisimple(env):
    for name in ("F1", "T5", "J1", "J2", "J3"):
        assert cocycle_space(env[name]).h2_dim == 0, name


def test_cocycle_space_beyond_dimension_four(large_algebras):
    # (z2, b2, h2) of the three tables of dimension 7 to 9
    expected = {"J56+T5": (47, 44, 3), "J56+J59": (59, 56, 3), "M3+": (73, 73, 0)}
    for name, a in large_algebras.items():
        cs = cocycle_space(a)
        assert (cs.z2_dim, cs.b2_dim, cs.h2_dim) == expected[name], name


def test_cocycle_space_consistency():
    with pytest.raises(Exception):
        CocycleSpace(3, 5, -2)


def test_coboundaries_are_cocycles(env):
    for name in ("B1", "T5", "J13", "J59", "J70"):
        z2, b2 = cocycle_subspaces(env[name])
        assert z2.contains(b2)


def test_random_coboundary_extensions_are_jordan(env):
    rng = seeded_rng("coboundary-jordan")
    for name in ("B2", "J55", "J73"):
        a = env[name]
        n = a.dim
        for _ in range(2):
            mu = Matrix.from_rows(
                [[F(rng.randint(-1, 1)) for _ in range(n)] for _ in range(n)]
            )
            assert is_jordan(null_extension(a, coboundary(a, mu)))


def test_h2_invariant_under_basis_change(env):
    rng = seeded_rng("h2-invariance")
    for name in ("J55", "J63", "J13"):
        a = env[name]
        h2 = cocycle_space(a).h2_dim
        for dense in (False, True):
            p = random_invertible_matrix(a.dim, rng, dense=dense)
            assert cocycle_space(change_basis(a, p)).h2_dim == h2


def test_grid_vector_round_trip(env):
    a = env["J49"]
    z2, b2 = cocycle_subspaces(a)
    for row in b2.rows[:3]:
        grid = vec_to_grid(a, row)
        assert grid_to_vec(a, grid) == row
        # symmetric by construction
        for i in range(a.dim):
            for j in range(a.dim):
                assert grid[i][j] == grid[j][i]


def test_cocycles_give_jordan_extensions(env):
    # every basis cocycle of Z2 yields a Jordan null extension: the direct
    # (slow) certificate that the assembled linear system is right
    for name in ("B2", "B3"):
        a = env[name]
        z2, _ = cocycle_subspaces(a)
        for row in z2.rows:
            assert is_jordan(null_extension(a, vec_to_grid(a, row)))


def test_coboundary_pair_rows_match_the_dense_reference(env, dense_env):
    # each delta^1 pair row is the nonzero pairs of the dense reference row,
    # and their echelon `coboundary_echelon`, of primitive rows with a positive entry at
    # the smallest column, has the pivot columns of sympy's RREF of the
    # dense rows: on the catalog in its own and a dense basis, and on
    # generated families in their given and a dense basis
    cases = list(env.values()) + [b for b, _ in dense_env.values()]
    generated = [spin_factor(3, [[1, 0, 0], [0, 2, 0], [0, 0, 0]]), truncated_polynomial(5),
                 field_sum(env["B3"]), field_sum(truncated_polynomial(3))]
    for i, a in enumerate(generated):
        cases += [a, dense_basis(a, f"pair-rows-{i}")[0]]
    for a in cases:
        n = a.dim
        dense = coboundary_int_rows(a)
        rows = coboundary_pair_rows(a)
        assert rows == [tuple(_pairs(r)) for r in dense], a.labels
        pivots = coboundary_echelon(a)
        reference = sympy_rref(dense, n * (n + 1) // 2 * n)
        assert sorted(pivots) == [next(c for c, x in enumerate(r) if x) for r in reference], a.labels
        for c, row in pivots.items():
            assert min(row) == c and row[c] > 0 and gcd(*row.values()) == 1
            assert all(row.values())
    assert any(len(coboundary_echelon(a)) < a.dim ** 2 for a in cases)
    with pytest.raises(AlgebraError):
        coboundary_pair_rows(matrix_algebra(2))


def test_fast_assembly_matches_full_extension_scan(env):
    # the assembled system conditions only quadruples of base elements; the
    # defect on mixed quadruples is independent of the cocycle, so nothing
    # is lost.  Certify by scanning every quadruple of the doubled algebra.
    # dense bases of B3 and T8 fill in the zero structure constants and
    # bring denominators into the integer scaling
    from jordanalg.algebra import associator
    from jordanalg.ratlin import unit_vec

    rng = seeded_rng("assembly-scan")
    cases = [(name, env[name]) for name in ("F1", "F2", "B2", "B3", "T8")]
    for name in ("B3", "T8"):
        p = random_invertible_matrix(env[name].dim, rng, dense=True)
        cases.append((f"{name} dense", change_basis(env[name], p)))
    for name, a in cases:
        n = a.dim
        nunk = n * (n + 1) // 2 * n
        cols = []
        for u in range(nunk):
            ext = null_extension(a, vec_to_grid(a, unit_vec(nunk, u)))
            col = []
            for x in range(2 * n):
                for z in range(x, 2 * n):
                    for w in range(z, 2 * n):
                        for y in range(2 * n):
                            bx, by, bz, bw = (ext.basis_vector(t) for t in (x, y, z, w))
                            t1 = associator(ext, bx, by, ext.table[z][w])
                            t2 = associator(ext, bw, by, ext.table[z][x])
                            t3 = associator(ext, bz, by, ext.table[x][w])
                            col.extend(p + q + r for p, q, r in zip(t1, t2, t3))
            cols.append(col)
        rows = [r for r in zip(*cols) if any(r)]
        brute_z2 = nunk - int_rows_rank([_int_row(r) for r in rows], nunk)
        z2, _ = cocycle_subspaces(a)
        assert z2.dim == brute_z2, name


def test_non_cocycle_extension_fails(env):
    # h(e1, e1) = n1 on the half-action table violates the identity
    a = env["B2"]
    h = grid_from_function(
        a, lambda i, j: (F(0), F(1)) if i == j == 0 else zero_vec(2)
    )
    z2, _ = cocycle_subspaces(a)
    if not z2.contains_vector(grid_to_vec(a, h)):
        assert not is_jordan(null_extension(a, h))


def full_cut_reference(a):
    """The full cut the complement cut replaced: Z2 as the kernel of every
    cocycle row, B2 spanned by every delta^1 row, and dim Der J as the
    kernel cut from the columns of the delta^1 rows (the transposed
    system).  Returns (nunk, (z2, b2, h2), Z2 basis, B2 generators, dim Der J)
    with integer vectors, so no rational echelon is built."""
    nunk = a.dim * (a.dim + 1) // 2 * a.dim
    rows = _assemble_cocycle_rows(a, range(nunk))
    delta = coboundary_int_rows(a)
    der = len(_int_kernel((compress(enumerate(c), c) for c in zip(*delta)), a.dim * a.dim))
    z2_basis = _int_kernel(rows, nunk)
    b2 = a.dim * a.dim - der
    return nunk, (len(z2_basis), b2, len(z2_basis) - b2), z2_basis, delta, der


def same_span(space, gens, nunk):
    # gens span `space` iff adding them to its basis does not raise its rank
    rows = [_int_row(r) for r in space.rows] + [list(g) for g in gens]
    return int_rows_rank(rows, nunk) == space.dim == int_rows_rank(gens, nunk)


def test_complement_cut_matches_full_cut(env):
    # Z2 = B2 + (Z2 meet C), C spanned by the unit vectors off the pivot
    # columns of the delta^1 echelon: the dimensions, both subspaces and
    # dim Der J agree with the full cut on the catalog, a dense basis of
    # each table and three algebras of dimension 7 to 9
    rng = seeded_rng("complement-cut")
    cases = dict(env)
    for name, a in env.items():
        cases[f"{name} dense"] = change_basis(
            a, random_invertible_matrix(a.dim, rng, dense=True))
    cases["J56+T5"] = direct_sum(env["J56"], env["T5"])
    cases["J56+J59"] = direct_sum(env["J56"], env["J59"])
    cases["M3+"] = plus_algebra(matrix_algebra(3))
    for name, a in cases.items():
        nunk, dims, z2_basis, delta, der = full_cut_reference(a)
        cs = cocycle_space(a)
        assert (cs.z2_dim, cs.b2_dim, cs.h2_dim) == dims, name
        z2, b2 = cocycle_subspaces(a)
        assert same_span(z2, z2_basis, nunk) and same_span(b2, delta, nunk), name
        assert derivation_dim(a) == der, name


def test_h2_zero_cut_stops_before_the_cocycle_rows_run_out(env):
    # on J59, H2 = 0: the first cocycle rows on the columns of C empty the
    # kernel basis, and the rows after them are never read
    a = env["J59"]
    nunk, cols, rows = cocycle_system(a)
    ncomp = len(cols)
    assert cols == complement_columns(a)
    assert ncomp == nunk - cocycle_space(a).b2_dim
    assert ncomp < nunk and all(c < ncomp for row in rows for c, _ in row)
    read = []

    def counted():
        for row in rows:
            read.append(row)
            yield row

    assert _int_kernel(counted(), ncomp) == []
    assert 0 < len(read) < len(rows)


def pair_rows_on(rows, cols):
    # the nonzero entries of dense rows on `cols`, as sorted pairs
    # (index in cols, value); rows that are zero there are left out
    picked = (tuple((i, r[c]) for i, c in enumerate(cols) if r[c]) for r in rows)
    return {r for r in picked if r}


def test_assembled_rows_match_the_reference(env, dense_env, large_algebras):
    # the per-table operator lists and the combined diagonal terms give
    # exactly the rows of the entry-by-entry assembly, on every column and
    # on the columns of C, on the catalog, a dense basis of each table and
    # three tables of dimension 7 to 9: sorted pair rows of nonzero entries,
    # pivot columns dropped
    cases = dict(env)
    cases.update((f"{name} dense", b) for name, (b, _) in dense_env.items())
    cases.update(large_algebras)
    for name, a in cases.items():
        ref_nunk, ref_rows = reference_cocycle_rows(a)
        for cols in (range(ref_nunk), complement_columns(a)):
            rows = _assemble_cocycle_rows(a, cols)
            assert len(rows) == len(set(rows)), name
            assert all(row and list(row) == sorted(row) and all(v for _, v in row)
                       for row in rows), name
            assert set(rows) == pair_rows_on(ref_rows, cols), name


def test_complements_of_one_and_of_no_column(env):
    # F1 (e e = e) has B2 of dim 1 = nunk, so C is zero; the square-zero
    # line F2 has Der = gl(1), B2 = 0 and C of one column
    for name, ncomp, dims in (("F1", 0, (1, 1, 0)), ("F2", 1, (1, 0, 1))):
        a = env[name]
        assert len(complement_columns(a)) == ncomp, name
        cs = cocycle_space(a)
        assert (cs.z2_dim, cs.b2_dim, cs.h2_dim) == dims, name
        z2, b2 = cocycle_subspaces(a)
        assert (z2.dim, b2.dim) == dims[:2], name


def test_work_bound_admits_dimension_twelve_and_refuses_sixteen():
    assert cocycle_cells(12) == 144 * 364 * 936 <= MAX_COCYCLE_CELLS
    assert cocycle_cells(16) > MAX_COCYCLE_CELLS


def test_large_table_is_refused_before_any_work():
    # a 30-dimensional table built in code: about 1.2e11 dense cells.  The
    # refusal names the estimate and the limit and comes before the Jordan
    # scan and its associator table
    n = 30
    a = Algebra.from_products(tuple(f"n{i}" for i in range(n)), {("n0", "n0"): {"n1": 1}})
    for fn in (cocycle_space, cocycle_subspaces):
        with pytest.raises(AlgebraError) as exc:
            fn(a)
        assert f"{cocycle_cells(n):,}" in str(exc.value), fn
        assert f"{MAX_COCYCLE_CELLS:,}" in str(exc.value), fn
        assert "_jordan_defect" not in a.__dict__ and "_assoc_table" not in a.__dict__


def test_fingerprint_refuses_a_large_table_before_any_work():
    # `fingerprint` runs the cocycle bound first: a 30-dimensional sparse
    # table is refused before the Jordan scan, the radical split or any
    # other invariant is kept on it
    n = 30
    a = Algebra.from_products(tuple(f"n{i}" for i in range(n)), {("n0", "n0"): {"n1": 1}})
    with pytest.raises(AlgebraError) as exc:
        fingerprint(a)
    assert f"{cocycle_cells(n):,}" in str(exc.value)
    assert f"{MAX_COCYCLE_CELLS:,}" in str(exc.value)
    for name in ("_jordan_defect", "_assoc_table", "_memo"):
        assert name not in a.__dict__, name


def test_derivation_dim_and_cocycle_space_build_delta1_rows_once(env, monkeypatch):
    # both read the delta^1 echelon that `coboundary_echelon` keeps on the
    # algebra, so a fresh table has its delta^1 rows written once
    from jordanalg import cohomology

    built = []
    original = cohomology.coboundary_pair_rows
    monkeypatch.setattr(cohomology, "coboundary_pair_rows",
                        lambda a: built.append(a) or original(a))
    a = Algebra(env["J55"].labels, env["J55"].table)
    assert derivation_dim(a) == a.dim * a.dim - cocycle_space(a).b2_dim
    assert len(built) == 1 and built[0] is a
