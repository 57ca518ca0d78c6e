from fractions import Fraction

import pytest

from jordanalg.algebra import (
    Algebra,
    AlgebraError,
    associator,
    change_basis,
    check_isomorphism,
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
from jordanalg.ratlin import Matrix, Subspace, invert, is_zero_vec, vec, zero_vec
from conftest import random_invertible_matrix, seeded_rng
from helpers import (
    reference_associator,
    reference_change_basis,
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
    verdicts = [is_associative(a) for a in cases]
    assert verdicts == [fraction_is_associative(a) for a in cases]
    kinds = {(is_commutative(a), v) for a, v in zip(cases, verdicts)}
    assert kinds == {(True, True), (True, False), (False, True), (False, False)}


def test_jordan_violation_matches_fraction_oracle():
    rng = seeded_rng("violation-oracle")
    cases = [rejected_half_action(), rejected_cubed_generator()]
    for den in (1, 2, 3, 17):
        cases += [random_table(rng, rng.choice([2, 3, 4]), den, True) for _ in range(5)]
    for a in cases:
        assert jordan_violation(a) == fraction_violation(a)
    assert sum(jordan_violation(a) is not None for a in cases) >= len(cases) - 2


def test_assoc_table_matches_fraction_associator(env):
    # T[x][y][k] is the associator (b_x, b_y, b_k) scaled by den**2
    rng = seeded_rng("assoc-table")
    cases = [matrix_algebra(2), plus_algebra(matrix_algebra(3)),
             rejected_half_action(), rejected_cubed_generator()]
    for a in env.values():
        cases += [a, change_basis(a, random_invertible_matrix(a.dim, rng, dense=True))]
    assert len(cases) == 4 + 2 * 88
    for a in cases:
        den = a._int_structure[0]
        basis = [a.basis_vector(i) for i in range(a.dim)]
        for x, bx in enumerate(basis):
            for y, by in enumerate(basis):
                for k, bk in enumerate(basis):
                    t = a._assoc_table[x][y][k]
                    assert all(type(e) is int for e in t)
                    want = reference_associator(a, bx, by, bk)
                    assert t == [den**2 * f for f in want], (a.labels, x, y, k)
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


def test_change_basis_is_isomorphic(env):
    rng = seeded_rng("changebasis")
    for name in ("J2", "J33", "J63"):
        a = env[name]
        p = random_invertible_matrix(a.dim, rng)
        b = change_basis(a, p)
        assert check_isomorphism(b, a, p)


def test_integer_change_basis_matches_the_fraction_reference(env, large_algebras):
    # the same table as the Fraction version, on the catalog (whose
    # constants include halves) in sparse bases with halves and in dense
    # bases, on tables of dimension 7 to 9, and on the noncommutative 2 x 2
    # matrix algebra and its plus algebra; bad matrices raise the same errors
    rng = seeded_rng("integer-change-basis")
    cases = list(env.values()) + list(large_algebras.values())
    cases += [matrix_algebra(2), plus_algebra(matrix_algebra(2)), zero_algebra(0)]
    checked = 0
    for a in cases:
        for dense in (False, True):
            p = random_invertible_matrix(a.dim, rng, dense=dense)
            b = change_basis(a, p)
            assert b == reference_change_basis(a, p), a.labels
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
