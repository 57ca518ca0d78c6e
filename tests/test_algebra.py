from fractions import Fraction

import pytest

from jordanalg.algebra import (
    Algebra,
    AlgebraError,
    associator,
    change_basis,
    check_isomorphism,
    commutativity_violation,
    direct_sum,
    find_identity,
    is_associative,
    is_commutative,
    is_jordan,
    jordan_violation,
    matrix_algebra,
    multiply,
    parse_linear_combination,
    plus_algebra,
    product_span,
    unitalization,
)
from jordanalg.ratlin import Matrix, Subspace, invert, is_zero_vec, unit_vec, vec, zero_vec
from conftest import random_invertible_matrix, seeded_rng
from helpers import (
    reference_associator,
    reference_change_basis,
    reference_identity,
    reference_int_structure,
    reference_mul,
)

F = Fraction
HALF = F(1, 2)


def zero_algebra(n):
    return Algebra(tuple(f"n{i+1}" for i in range(n)),
                   tuple(tuple(zero_vec(n) for _ in range(n)) for _ in range(n)))


def test_multiply_b3(env):
    b3 = env["B3"]
    assert multiply(b3, b3.basis_vector(0), b3.basis_vector(0)) == b3.element({"n2": 1})


def test_multiply_bilinearity_zero(env):
    a = env["J9"]
    y = a.element({"e3": 2, "n1": F(1, 3)})
    assert is_zero_vec(multiply(a, zero_vec(4), y))


def test_multiply_j2(env):
    j2 = env["J2"]
    prod = multiply(j2, j2.element({"e3": 1}), j2.element({"e4": 1}))
    assert prod == j2.element({"e1": HALF, "e2": HALF})


def test_multiply_dimension_mismatch(env):
    with pytest.raises(AlgebraError):
        multiply(env["B3"], (F(1),), (F(1), F(0)))


def test_associator_associative_vanishes(env):
    a = env["J3"]
    for i in range(4):
        for j in range(4):
            for k in range(4):
                assert is_zero_vec(
                    associator(a, a.basis_vector(i), a.basis_vector(j), a.basis_vector(k))
                )


def test_associator_t5(env):
    # evaluate from the table: (e1 e3) e3 - e1 (e3 e3) = (e2 - e1)/2
    t5 = env["T5"]
    e1, e3 = t5.basis_vector(0), t5.basis_vector(2)
    assert associator(t5, e1, e3, e3) == t5.element({"e1": -HALF, "e2": HALF})


def test_associator_idempotent_vanishes(env):
    t5 = env["T5"]
    e = t5.basis_vector(0)
    assert is_zero_vec(associator(t5, e, e, e))


def test_is_commutative_catalog(env):
    assert all(is_commutative(a) for a in env.values())


def test_is_commutative_counterexample():
    a = Algebra.from_products(("b1", "b2"), {("b1", "b2"): {"b1": 1}}, symmetric=False)
    assert not is_commutative(a)


def test_commutativity_violation_is_the_first_pair_and_is_read_once():
    # the first pair (i, j), i < j in row order, whose products differ, as
    # the pairwise comparison of the Fraction table finds it; kept on the
    # algebra, and read off the integer constants
    a = Algebra.from_products(("b1", "b2", "b3"),
                              {("b2", "b3"): {"b1": 1}, ("b1", "b3"): {"b2": F(1, 2)},
                               ("b3", "b1"): {"b2": F(1, 2)}, ("b3", "b2"): {"b1": 2}},
                              symmetric=False)
    assert commutativity_violation(a) == (1, 2) == next(
        (i, j) for i in range(3) for j in range(i + 1, 3) if a.table[i][j] != a.table[j][i])
    assert a.__dict__["_commutativity_violation"] == (1, 2)
    assert commutativity_violation(matrix_algebra(2)) == (0, 1)
    assert commutativity_violation(plus_algebra(matrix_algebra(2))) is None


def test_matrix_algebra_not_commutative():
    assert not is_commutative(matrix_algebra(2))
    assert is_associative(matrix_algebra(2))


def test_is_jordan_catalog(env):
    assert all(is_jordan(a) for a in env.values())


def test_is_jordan_zero_algebra():
    assert is_jordan(zero_algebra(3))


def rejected_half_action():
    """Three orthogonal-idempotent table extended by a nilpotent with a
    half-action on only one idempotent; fails the linearized identity."""
    return Algebra.from_products(
        ("e1", "e2", "e3", "n1"),
        {("e1", "e1"): {"e1": 1}, ("e2", "e2"): {"e2": 1},
         ("e3", "e3"): {"e1": 1, "e2": 1},
         ("e1", "e3"): {"e3": HALF}, ("e2", "e3"): {"e3": HALF},
         ("e1", "n1"): {"n1": HALF}})


def rejected_cubed_generator():
    """Half-eigenspace pair whose generator cubes into the half part."""
    return Algebra.from_products(
        ("e1", "n1", "n2", "n3"),
        {("e1", "e1"): {"e1": 1}, ("e1", "n1"): {"n1": HALF},
         ("e1", "n3"): {"n3": HALF},
         ("n1", "n1"): {"n2": 1}, ("n1", "n2"): {"n3": 1}})


def test_non_jordan_witnesses():
    for a in (rejected_half_action(), rejected_cubed_generator()):
        assert is_commutative(a)
        assert not is_jordan(a)
        violation = jordan_violation(a)
        assert violation is not None
        quad, defect = violation
        assert not is_zero_vec(defect)


def fraction_is_associative(a):
    # oracle: the Fraction reference associator on every basis triple
    basis = [a.basis_vector(i) for i in range(a.dim)]
    return all(is_zero_vec(reference_associator(a, x, y, z))
               for x in basis for y in basis for z in basis)


def fraction_defect(a, x, y, z, w):
    # oracle: (x, y, zw) + (w, y, zx) + (z, y, xw) with the Fraction reference associator
    bx, by, bz, bw = (a.basis_vector(t) for t in (x, y, z, w))
    terms = (reference_associator(a, bx, by, a.table[z][w]),
             reference_associator(a, bw, by, a.table[z][x]),
             reference_associator(a, bz, by, a.table[x][w]))
    return tuple(sum(t) for t in zip(*terms))


def fraction_violation(a):
    # oracle: the first quadruple of the scan order with a nonzero defect
    n = a.dim
    for x in range(n):
        for z in range(x, n):
            for w in range(z, n):
                for y in range(n):
                    defect = fraction_defect(a, x, y, z, w)
                    if not is_zero_vec(defect):
                        return (x, y, z, w), defect
    return None


def random_table(rng, n, den, commutative):
    table = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if commutative and j < i:
                table[i][j] = table[j][i]
            else:
                table[i][j] = tuple(F(rng.choice([0, 0, 1, -1, 2]), rng.choice([1, den]))
                                    for _ in range(n))
    return Algebra(tuple(f"b{i+1}" for i in range(n)), tuple(map(tuple, table)))


def unit_first(a):
    """`a` with a unit adjoined as its first basis element u: every
    associator with u in the middle vanishes, so the first quadruple that
    violates the Jordan identity, if there is one, has y > 0."""
    n = a.dim + 1
    rows = [tuple(unit_vec(n, j) for j in range(n))]
    rows += [(unit_vec(n, i + 1),) + tuple((F(0),) + e for e in row)
             for i, row in enumerate(a.table)]
    return Algebra(("u",) + a.labels, tuple(rows))


def wide_basis_change(a, rng):
    """`a` in a dense basis whose entries have numerators and denominators
    above 2**64, so that its constants have them too."""
    while True:
        p = Matrix.from_rows([[F(rng.randint(-3, 3) * 2**65 + rng.randint(1, 9),
                                 2**64 + rng.randint(1, 99)) for _ in range(a.dim)]
                              for _ in range(a.dim)])
        if invert(p) is not None:
            b = change_basis(a, p)
            assert any(abs(x.numerator) > 2**64 and x.denominator > 2**64
                       for row in b.table for v in row for x in v)
            return b


def edge_tables(env):
    """The zero table, 1-dimensional tables, and catalog tables, the
    noncommutative 2 x 2 matrix algebra and a table that is not Jordan in
    dense bases with constants wider than 64 bits."""
    rng = seeded_rng("wide-bases")
    cases = [zero_algebra(3), zero_algebra(1)]
    cases += [Algebra(("x",), (((F(c, d),),),)) for c, d in ((1, 1), (-3, 7))]
    cases += [wide_basis_change(a, rng) for a in (env["J55"], env["J56"], env["T5"],
                                                   matrix_algebra(2), rejected_cubed_generator())]
    return cases


def rational_basis_change(a, rng, den):
    p = Matrix.from_rows([[F(rng.randint(-2, 2), rng.choice([1, den])) for _ in range(a.dim)]
                          for _ in range(a.dim)])
    return change_basis(a, p) if invert(p) is not None else a


def test_is_associative_matches_fraction_oracle(env):
    rng = seeded_rng("assoc-oracle")
    m2 = matrix_algebra(2)
    cases = [m2, plus_algebra(m2)]
    for a in env.values():
        cases += [a, change_basis(a, random_invertible_matrix(a.dim, rng, dense=True))]
    for den in (1, 2, 3, 17):
        # basis changes with denominators keep associative tables associative
        cases += [rational_basis_change(m2, rng, den), rational_basis_change(env["J3"], rng, den)]
        for commutative in (True, False):
            cases += [random_table(rng, rng.choice([2, 3]), den, commutative) for _ in range(3)]
    cases += edge_tables(env) + [wide_basis_change(env["J3"], rng)]
    verdicts = [is_associative(a) for a in cases]
    assert verdicts == [fraction_is_associative(a) for a in cases]
    kinds = {(is_commutative(a), v) for a, v in zip(cases, verdicts)}
    assert kinds == {(True, True), (True, False), (False, True), (False, False)}


def test_jordan_violation_matches_fraction_oracle(env):
    # the first quadruple and its defect, as the Fraction scan finds them;
    # with a unit as the first basis element the first violation has y > 0,
    # and where the first nonzero entry of its defect is negative the packed
    # sum is negative, so every slot above it is read back through a borrow.
    # The wide Jordan tables are catalog tables and M2 in other bases, so
    # their None needs no Fraction scan, which takes seconds on each
    rng = seeded_rng("violation-oracle")
    cases = [rejected_half_action(), rejected_cubed_generator()]
    for den in (1, 2, 3, 17):
        cases += [random_table(rng, rng.choice([2, 3, 4]), den, True) for _ in range(5)]
    unital = [unit_first(random_table(rng, rng.choice([2, 3]), rng.choice([1, 2, 3]), True))
              for _ in range(12)]
    edges = edge_tables(env)
    for a in cases + unital + edges[:4] + edges[-1:]:
        assert jordan_violation(a) == fraction_violation(a), a.labels
    assert sum(jordan_violation(a) is not None for a in cases) >= len(cases) - 2
    signed = [v for v in map(jordan_violation, unital)
              if v and v[0][1] > 0 and next(x for x in v[1] if x) < 0]
    assert len(signed) >= 3
    assert [jordan_violation(a) is None for a in edges] == [True] * 8 + [False]


def test_assoc_table_matches_fraction_associator(env):
    # T[x][y][k] is the associator (b_x, b_y, b_k) scaled by den**2, as the
    # sorted (coordinate, value) pairs of its nonzero entries, decoded from
    # the packed columns; a commutative table computes x < k only and reads
    # the rest off the symmetry, the noncommutative matrix algebra takes
    # every triple.  The edge tables add the zero and 1-dimensional tables
    # and constants wider than 64 bits, whose slots are as wide
    rng = seeded_rng("assoc-table")
    cases = [matrix_algebra(2), plus_algebra(matrix_algebra(3)),
             rejected_half_action(), rejected_cubed_generator()]
    for a in env.values():
        cases += [a, change_basis(a, random_invertible_matrix(a.dim, rng, dense=True))]
    assert len(cases) == 4 + 2 * 88
    cases += edge_tables(env)
    for a in cases:
        den = a._int_structure[0]
        basis = [a.basis_vector(i) for i in range(a.dim)]
        table = a._assoc_table
        for x, bx in enumerate(basis):
            for y, by in enumerate(basis):
                for k, bk in enumerate(basis):
                    t = table[x][y][k]
                    assert all(type(e) is int and e for _, e in t)
                    assert [m for m, _ in t] == sorted({m for m, _ in t})
                    want = reference_associator(a, bx, by, bk)
                    got = [0] * a.dim
                    for m, e in t:
                        got[m] = e
                    assert got == [den**2 * f for f in want], (a.labels, x, y, k)
    assert any(a._int_structure[0] > 1 for a in cases)


def test_mul_matches_the_fraction_reference(env, dense_env):
    # `Algebra.mul` scales both factors to integers and takes one
    # `_int_products`; on seeded random rational vectors it gives the
    # Fraction products of the table, for every catalog table in its own
    # basis and in a dense one, and keeps the factor order of the
    # noncommutative 2 x 2 matrix algebra
    rng = seeded_rng("mul-reference")
    cases = list(env.values()) + [b for b, _ in dense_env.values()]
    assert len(cases) == 2 * 88
    cases.append(matrix_algebra(2))

    def rand_vec(n):
        return [F(rng.randint(-5, 5), rng.choice([1, 2, 3, 7])) for _ in range(n)]

    for a in cases:
        for u, v in [(rand_vec(a.dim), rand_vec(a.dim)) for _ in range(3)] + [
                (zero_vec(a.dim), rand_vec(a.dim))]:
            got = a.mul(u, v)
            assert got == reference_mul(a, u, v), a.labels
            assert all(type(x) is Fraction for x in got), a.labels
    m2 = matrix_algebra(2)
    u, v = rand_vec(4), rand_vec(4)
    assert m2.mul(u, v) != m2.mul(v, u)


def fraction_product_span(a, s, t):
    # reference: the span of Fraction products of the basis rows, factor from s on the left
    return Subspace.span(a.dim, [reference_mul(a, u, v) for u in s.rows for v in t.rows])


def random_subspace(rng, n):
    gens = [[F(rng.randint(-3, 3), rng.choice([1, 2, 5])) for _ in range(n)]
            for _ in range(rng.randint(0, n))]
    return Subspace.span(n, gens)


def test_product_span_matches_fraction_products(env):
    rng = seeded_rng("product-span")
    for a in env.values():
        for b in (a, change_basis(a, random_invertible_matrix(a.dim, rng, dense=True))):
            pairs = [(Subspace.full(b.dim), Subspace.full(b.dim))]
            pairs += [(random_subspace(rng, b.dim), random_subspace(rng, b.dim)) for _ in range(3)]
            for s, t in pairs:
                assert product_span(b, s, t) == fraction_product_span(b, s, t), b.labels
    m2 = matrix_algebra(2)
    ordered = 0
    for _ in range(20):
        s, t = random_subspace(rng, 4), random_subspace(rng, 4)
        assert product_span(m2, s, t) == fraction_product_span(m2, s, t)
        assert product_span(m2, t, s) == fraction_product_span(m2, t, s)
        ordered += product_span(m2, s, t) != product_span(m2, t, s)
    assert ordered > 0


def test_integer_rows_stay_integer(env, monkeypatch):
    # product spans, sums, meets and spans of integer rows never scale a
    # row from Fractions: no module outside ratlin holds `_int_row`
    import importlib

    from jordanalg import ratlin

    for name in ("algebra", "catalog", "cli", "cohomology", "invariants", "peirce", "polysolve"):
        assert not hasattr(importlib.import_module(f"jordanalg.{name}"), "_int_row"), name
    rng = seeded_rng("no-int-row")
    cases = []
    for a in list(env.values())[::4] + [matrix_algebra(2)]:
        cases += [(a, random_subspace(rng, a.dim), random_subspace(rng, a.dim)) for _ in range(3)]

    def answers():
        out = []
        for a, s, t in cases:
            st = product_span(a, s, t)
            out += [st, s.add(t), s.intersect(t), st.contains(s), s.contains(s.intersect(t)),
                    Subspace.span(a.dim, [list(r) for r in st.int_rows + s.int_rows])]
        return out

    want = answers()

    def fail(row):
        raise AssertionError("integer row sent through _int_row")

    monkeypatch.setattr(ratlin, "_int_row", fail)
    assert answers() == want
    assert any(s.dim and t.dim and s.intersect(t).dim for _, s, t in cases)


def test_int_structure_matches_the_fraction_reference(env, dense_env):
    # one `_int_vec` of all n**3 constants gives the lcm of their
    # denominators and each constant times it, as the Fraction reference
    # does, on the catalog, a dense basis of each table, and a table whose
    # denominators 2, 3, 9 and 2**70 + 1 have an lcm wider than 64 bits
    wide = 2**70 + 1
    odd = Algebra.from_products(("x", "y", "z"), {
        ("x", "x"): {"x": F(1, 2), "y": F(-5, 9)},
        ("x", "y"): {"z": F(7, 3)},
        ("y", "z"): {"x": F(3, wide), "z": -4},
        ("z", "z"): {"y": F(1, 9)},
    }, symmetric=False)
    cases = list(env.values()) + [b for b, _ in dense_env.values()] + [odd]
    assert len(cases) == 2 * 88 + 1
    for a in cases:
        assert a._int_structure == reference_int_structure(a), a.labels
    assert odd._int_structure[0] == 18 * wide
    assert any(b._int_structure[0] > 1 for b, _ in dense_env.values())


def test_from_products_scales_only_the_parsed_coefficients(env):
    # the integer constants that `from_products` keeps from the nonzero
    # coefficients it parsed are those one `_int_vec` of all n**3 constants
    # gives on the same table: on every catalog entry, nested sums among
    # them, the matrix algebras, and tables with a product given in both
    # orders, a zero coefficient or a denominator wider than 64 bits
    from jordanalg.catalog import parse_catalog, resolve

    sums = dict(env)
    for entry in parse_catalog("algebra P = F1 + F1\nend\nalgebra Q = P + F1\nend\n"):
        sums[entry.name] = resolve(entry, sums)
    cases = list(sums.values()) + [matrix_algebra(2), matrix_algebra(3)]
    for symmetric in (True, False):
        cases.append(Algebra.from_products(("x", "y"), {
            ("x", "y"): {"x": F(1, 2), "y": 0}, ("y", "x"): {"y": F(-3, 2**70 + 1)},
            ("y", "y"): {"x": 0}}, symmetric=symmetric))
    assert len(cases) == 88 + 2 + 2 + 2
    for a in cases:
        assert "_int_structure" in a.__dict__, a.labels
        assert a._int_structure == Algebra(a.labels, a.table)._int_structure, a.labels
    assert cases[-1]._int_structure[0] == 2 * (2**70 + 1)


def test_matrix_units_multiply_as_matrices():
    # E_ij E_jk = E_ik, and E_ij E_lk = 0 for j != l
    n = 3
    m3 = matrix_algebra(n)
    assert m3.labels == tuple(f"E{i}{j}" for i in range(1, n + 1) for j in range(1, n + 1))
    e = [[m3.basis_vector(i * n + j) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            for l in range(n):
                for k in range(n):
                    want = e[i][k] if j == l else zero_vec(n * n)
                    assert m3.mul(e[i][j], e[l][k]) == want, (i, j, l, k)


def test_from_products_unknown_label():
    for products in ({("e1", "x"): {"e1": 1}}, {("e1", "e1"): {"y": 1}}):
        with pytest.raises(AlgebraError, match="unknown basis label"):
            Algebra.from_products(("e1", "e2"), products)


def test_is_associative_examples(env):
    assert is_associative(env["J3"])
    assert not is_associative(env["B2"])
    assert is_associative(env["J61"])


def test_direct_sum_zero_products(env):
    f2 = env["F2"]
    s = direct_sum(direct_sum(f2, f2), direct_sum(f2, f2))
    assert s.dim == 4
    assert all(is_zero_vec(s.table[i][j]) for i in range(4) for j in range(4))
    assert s.table == env["J73"].table


def test_direct_sum_with_empty(env):
    empty = Algebra((), ())
    b2 = env["B2"]
    assert direct_sum(b2, empty).table == b2.table


def test_direct_sum_b3_b3(env):
    assert direct_sum(env["B3"], env["B3"]).table == env["J68"].table


def test_plus_algebra_fixes_commutative(env):
    a = env["J3"]
    assert plus_algebra(a).table == a.table


def test_plus_algebra_matrix_units():
    m2p = plus_algebra(matrix_algebra(2))
    i12 = m2p.label_index("E12")
    i21 = m2p.label_index("E21")
    prod = m2p.table[i12][i21]
    assert prod == m2p.element({"E11": HALF, "E22": HALF})
    assert is_jordan(m2p)


def test_plus_algebra_rejects_nonassociative(env):
    with pytest.raises(AlgebraError):
        plus_algebra(env["T5"])


def test_nine_dimensional_symmetrized_matrix_algebra():
    # nothing is hardwired to dimension four
    from jordanalg.invariants import radical, trace_rank
    from jordanalg.peirce import peirce_single

    m3p = plus_algebra(matrix_algebra(3))
    assert is_jordan(m3p)
    assert radical(m3p).dim == 0
    assert trace_rank(m3p) == 9
    d = peirce_single(m3p, m3p.element({"E11": 1}))
    dims = sorted(s.dim for s in d.components.values())
    assert dims == [1, 4, 4]


def test_unitalization_of_nilpotent_line(env):
    # one-dimensional square-zero algebra plus a unit is the two-dimensional
    # unital table with n^2 = 0
    hull = unitalization(env["F2"])
    b1 = env["B1"]
    p = Matrix.from_rows([[0, 1], [1, 0]])  # n -> n1, one -> e1
    assert check_isomorphism(hull, b1, p)


def test_unitalization_preserves_jordan(env):
    for name in ("B2", "T5", "J55", "J73"):
        assert is_jordan(unitalization(env[name]))


def test_unitalization_identity_is_adjoined(env):
    a = env["J8"]
    hull = unitalization(a)
    assert find_identity(hull) == hull.basis_vector(hull.dim - 1)


def test_find_identity_examples(env):
    assert find_identity(env["J36"]) == env["J36"].element({"e1": 1})
    assert find_identity(env["J5"]) is None
    assert find_identity(env["J1"]) == env["J1"].element({"e1": 1, "e2": 1, "e4": 1})


def test_find_identity_matches_the_fraction_reference(env, dense_env):
    # the integer solve gives the identity, or None, that `solve` gave on
    # the Fraction table: on every catalog table in its own and a dense
    # basis, the catalog quotients by the radical, noncommutative matrix
    # algebras and the unitalizations of the nilpotent tables
    from jordanalg.invariants import is_nilpotent, radical_split

    cases = list(env.values()) + [b for b, _ in dense_env.values()]
    cases += [radical_split(a)[2] for a in env.values()]
    cases += [matrix_algebra(2), plus_algebra(matrix_algebra(3))]
    cases += [unitalization(a) for a in env.values() if is_nilpotent(a)]
    # e e = e and e n = n but n e = 0: e is a left identity and no right one
    left = Algebra.from_products(("e", "n"), {("e", "e"): {"e": 1}, ("e", "n"): {"n": 1}},
                                 symmetric=False)
    assert find_identity(left) is None
    cases.append(left)
    found = [find_identity(a) for a in cases]
    assert found == [reference_identity(a) for a in cases]
    m2 = matrix_algebra(2)
    assert find_identity(m2) == m2.element({"E11": 1, "E22": 1})
    assert 0 < sum(u is None for u in found) < len(cases) // 2
    assert any(a.dim == 0 for a in cases) and any(a._int_structure[0] > 1 for a in cases)


def test_check_isomorphism_identity_map(env):
    a = env["J9"]
    assert check_isomorphism(a, a, Matrix.identity(4))


def test_check_isomorphism_j2_matrix_units(env):
    j2 = env["J2"]
    m2p = plus_algebra(matrix_algebra(2))
    targets = ["E11", "E22", "E12", "E21"]
    p = Matrix.from_rows(
        [[1 if m2p.label_index(targets[j]) == i else 0 for j in range(4)]
         for i in range(4)]
    )
    assert check_isomorphism(j2, m2p, p)


def test_check_isomorphism_rejects_singular(env):
    a = env["J9"]
    assert not check_isomorphism(a, a, Matrix.zero(4, 4))


def test_check_isomorphism_rejects_a_wrong_shape_and_non_isomorphisms(env):
    j55, j56 = env["J55"], env["J56"]
    assert not check_isomorphism(j56, j56, Matrix.identity(3))
    # invertible maps that do not carry the product: J55 and J56 share a
    # basis and differ in one product, and scaling e1 breaks e1*e1 = e1
    assert not check_isomorphism(j55, j56, Matrix.identity(4))
    assert not check_isomorphism(j56, j56, Matrix.from_rows(
        [[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]))


def test_change_basis_is_isomorphic(env):
    rng = seeded_rng("changebasis")
    for name in ("J2", "J33", "J63"):
        a = env[name]
        p = random_invertible_matrix(a.dim, rng)
        b = change_basis(a, p)
        assert check_isomorphism(b, a, p)


def test_integer_change_basis_matches_the_fraction_reference(env, dense_env, large_algebras):
    # the same table as the Fraction version, on the catalog (whose
    # constants include halves) and on a dense basis of each table, in
    # sparse bases with halves and in dense bases, on tables of dimension 7
    # to 9, and on the noncommutative 2 x 2 matrix algebra, which takes
    # every product and not only those with i <= j, and its plus algebra,
    # with the integer constants the table itself gives kept on it; bad
    # matrices raise the same errors
    rng = seeded_rng("integer-change-basis")
    cases = list(env.values()) + list(large_algebras.values())
    cases += [b for b, _ in dense_env.values()]
    cases += [matrix_algebra(2), plus_algebra(matrix_algebra(2)), zero_algebra(0)]
    checked = 0
    for a in cases:
        for dense in (False, True):
            p = random_invertible_matrix(a.dim, rng, dense=dense)
            b = change_basis(a, p)
            assert b == reference_change_basis(a, p), a.labels
            assert b.__dict__["_int_structure"] == reference_int_structure(b), a.labels
            assert all(type(x) is Fraction for row in b.table for v in row for x in v)
            checked += any(x.denominator > 1 for x in p.entries)
    assert checked > 30
    assert not is_commutative(change_basis(matrix_algebra(2), random_invertible_matrix(4, rng)))
    a = env["J9"]
    for p in (Matrix.zero(4, 4), Matrix.identity(3)):
        with pytest.raises(AlgebraError) as want:
            reference_change_basis(a, p)
        with pytest.raises(AlgebraError, match=f"^{want.value}$"):
            change_basis(a, p)


def test_jordan_random_substitution(env):
    # power identity ((x x) y) x = (x x)(y x) on random rational elements
    rng = seeded_rng("eq1-smoke")
    a = env["J57"]
    for _ in range(50):
        x = vec([F(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(4)])
        y = vec([F(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(4)])
        xx = a.mul(x, x)
        assert a.mul(a.mul(xx, y), x) == a.mul(xx, a.mul(y, x))


MALFORMED_TERMS = [
    ("", "trailing operator or coefficient"),
    ("e1 +", "trailing operator or coefficient"),
    ("e1 - 2", "trailing operator or coefficient"),
    ("2 - e1", "dangling coefficient"),
    ("2 3 e1", "two coefficients in a row"),
    ("e1 n1", "missing operator"),
    ("1/ e1", "missing operator"),
    ("1/0 e1", "zero denominator"),
]


def test_parse_linear_combination(env):
    a = env["J55"]
    v = parse_linear_combination(a, "e1 - n2 + n3")
    assert v == a.element({"e1": 1, "n2": -1, "n3": 1})
    v = parse_linear_combination(a, "1/2 e1 + 3 n1")
    assert v == a.element({"e1": HALF, "n1": 3})
    v = parse_linear_combination(a, "- + e1 - - 2 n1")
    assert v == a.element({"e1": -1, "n1": 2})
    with pytest.raises(AlgebraError):
        parse_linear_combination(a, "e9")
    with pytest.raises(AlgebraError):
        parse_linear_combination(a, "2 + e1")
    for text, message in MALFORMED_TERMS:
        with pytest.raises(AlgebraError) as err:
            parse_linear_combination(a, text)
        assert str(err.value) == f"{message} in {text!r}"
