from fractions import Fraction

import pytest

from jordanalg.algebra import Algebra, change_basis, check_isomorphism, is_jordan
from jordanalg.cohomology import (
    CocycleSpace,
    coboundary,
    cocycle_space,
    cocycle_subspaces,
    grid_from_function,
    grid_to_vec,
    null_extension,
    vec_to_grid,
    zero_grid,
)
from jordanalg.invariants import fingerprint
from jordanalg.ratlin import Matrix, zero_vec
from conftest import random_invertible_matrix, seeded_rng

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


def test_fast_assembly_matches_full_extension_scan(env):
    # the assembled system conditions only quadruples of base elements; the
    # defect on mixed quadruples is independent of the cocycle, so nothing
    # is lost.  Certify by scanning every quadruple of the doubled algebra.
    # dense bases of B3 and T8 fill in the zero structure constants and
    # bring denominators into the integer scaling
    from jordanalg.algebra import associator
    from jordanalg.ratlin import _int_row, int_rows_rank, unit_vec

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
