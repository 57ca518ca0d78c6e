from fractions import Fraction

import pytest

from jordanalg.algebra import find_identity, product_span, unitalization
from jordanalg.peirce import (
    NotIdempotentError,
    PeirceRuleError,
    _check_peirce_law,
    component_of,
    eigenspace,
    is_idempotent,
    peirce_multi,
    peirce_multi_unitalized,
    peirce_single,
)
from jordanalg.ratlin import ZERO, Matrix, Subspace, invert, kernel, zero_vec

F = Fraction
HALF = F(1, 2)
ONE = F(1)


def test_is_idempotent_basis_elements(env):
    for name in ("B1", "T5", "J9", "J42"):
        a = env[name]
        assert is_idempotent(a, a.element({"e1": 1}))


def test_zero_is_not_idempotent(env):
    assert not is_idempotent(env["J9"], zero_vec(4))


def test_j55_idempotent_family(env):
    # e1 - c^2 n2 + c n3 squares to itself; checked at c = 1
    a = env["J55"]
    assert is_idempotent(a, a.element({"e1": 1, "n2": -1, "n3": 1}))


def test_peirce_single_j9(env):
    # eigenspaces of multiplication by e1, read off the table
    a = env["J9"]
    d = peirce_single(a, a.element({"e1": 1}))
    dims = {lam: s.dim for lam, s in d.components.items()}
    assert dims == {ONE: 1, HALF: 2, ZERO: 1}
    assert d.components[HALF].contains_vector(a.element({"e3": 1}))
    assert d.components[HALF].contains_vector(a.element({"n1": 1}))
    assert d.components[ZERO].contains_vector(a.element({"e2": 1}))


def test_peirce_single_b1(env):
    a = env["B1"]
    d = peirce_single(a, a.element({"e1": 1}))
    assert d.components[ONE].dim == 2
    assert d.components[HALF].dim == 0 and d.components[ZERO].dim == 0


def test_peirce_single_adjoined_unit(env):
    a = unitalization(env["J8"])
    d = peirce_single(a, a.basis_vector(a.dim - 1))
    assert d.components[ONE].dim == a.dim


def test_peirce_single_completeness(env):
    for name, a in env.items():
        for i in range(a.dim):
            if a.table[i][i] == a.basis_vector(i):
                d = peirce_single(a, a.basis_vector(i))
                assert sum(s.dim for s in d.components.values()) == a.dim


def test_peirce_single_rejects_non_idempotent(env):
    a = env["J9"]
    with pytest.raises(NotIdempotentError):
        peirce_single(a, a.element({"e3": 1}))


def test_peirce_multi_j3(env):
    a = env["J3"]
    es = [a.basis_vector(i) for i in range(4)]
    d = peirce_multi(a, es)
    for i in range(4):
        assert d.components[(i, i)].dim == 1
        for j in range(i + 1, 4):
            assert d.components[(i, j)].dim == 0


def test_peirce_multi_requires_identity_sum(env):
    a = env["J3"]
    with pytest.raises(Exception):
        peirce_multi(a, [a.basis_vector(0), a.basis_vector(1)])


def test_peirce_multi_rejects_non_orthogonal(env):
    a = env["J2"]
    e1 = a.element({"e1": 1})
    u = a.element({"e1": 1, "e2": 1})
    with pytest.raises(Exception):
        peirce_multi(a, [e1, u])


def test_unitalized_grid_j5(env):
    # the nilpotent generator lands in the component of the complement
    a = env["J5"]
    es = [a.element({"e1": 1}), a.element({"e2": 1}), a.element({"e3": 1})]
    d, hull = peirce_multi_unitalized(a, es)
    v = a.element({"n1": 1}) + (ZERO,)
    assert component_of(d, v) == (0, 0)


def test_unitalized_grid_j7(env):
    a = env["J7"]
    es = [a.element({"e1": 1}), a.element({"e2": 1}), a.element({"e3": 1})]
    d, hull = peirce_multi_unitalized(a, es)
    v = a.element({"n1": 1}) + (ZERO,)
    assert component_of(d, v) == (1, 2)


def test_unitalized_grid_covers_space(env):
    for name in ("J4", "J13", "J22", "J25"):
        a = env[name]
        es = [a.basis_vector(i) for i in range(a.dim)
              if a.table[i][i] == a.basis_vector(i)]
        d, hull = peirce_multi_unitalized(a, es)
        assert sum(s.dim for s in d.components.values()) == hull.dim


def test_eigenspace_is_kernel(env):
    a = env["B2"]
    e = a.element({"e1": 1})
    half = eigenspace(a, e, HALF)
    assert half.rows == (a.element({"n1": 1}),)


def test_multi_rules_cover_shared_smallest_index(env):
    # white-box: fabricate a grid whose only violation is
    # J01 * J02 not contained in J12, and confirm the checker catches it
    a = env["J2"]  # any 4-dim product table with e3*e4 = (e1+e2)/2
    comps = {
        (0, 0): Subspace.zero(4),
        (1, 1): Subspace.zero(4),
        (2, 2): Subspace.zero(4),
        (0, 1): Subspace.span(4, [a.element({"e3": 1})]),
        (0, 2): Subspace.span(4, [a.element({"e4": 1})]),
        (1, 2): Subspace.zero(4),
    }
    with pytest.raises(PeirceRuleError) as err:
        _check_peirce_law(a, {(i, j): (f"J{i}{j}", s) for (i, j), s in comps.items()})
    assert "J01*J02 <= J12" in str(err.value)


def test_single_rules_share_the_grid_checker(env):
    # white-box: J_1 and J_0 of a single decomposition fabricated so that
    # J1*J0 = span(e1 + e2) is nonzero; the single decomposition is read as
    # the grid (1, 1), (0, 1), (0, 0) of the family (1 - e, e)
    a = env["J2"]
    comps = {
        (1, 1): ("J1", Subspace.span(4, [a.element({"e3": 1})])),
        (0, 0): ("J0", Subspace.span(4, [a.element({"e4": 1})])),
        (0, 1): ("J1/2", Subspace.span(4, [a.element({"e1": 1, "e2": 1})])),
    }
    assert product_span(a, comps[(1, 1)][1], comps[(0, 0)][1]).dim == 1
    with pytest.raises(PeirceRuleError) as err:
        _check_peirce_law(a, comps)
    assert str(err.value) == "Peirce rule violated: J1*J0 = 0"


def fraction_eigenspace(a, e, lam):
    # reference: the kernel of the Fraction matrix of L_e - lam
    n = a.dim
    cols = [a.mul(e, a.basis_vector(j)) for j in range(n)]
    return kernel(Matrix.from_rows(
        [[cols[j][k] - (lam if j == k else 0) for j in range(n)] for k in range(n)]))


def table_idempotents_and_unit(a):
    units = [a.basis_vector(i) for i in range(a.dim) if a.table[i][i] == a.basis_vector(i)]
    unit = find_identity(a)
    return units + ([unit] if unit is not None else [])


def test_integer_eigenspace_matches_fraction_reference(env, dense_env, large_algebras):
    # table idempotents and identities, in the catalog basis and carried
    # into a dense basis, where their coordinates are fractions
    cases = [(a, table_idempotents_and_unit(a)) for a in large_algebras.values()]
    for name, a in env.items():
        b, p = dense_env[name]
        units = table_idempotents_and_unit(a)
        cases += [(a, units), (b, [invert(p).apply(e) for e in units])]
    assert any(x.denominator > 1 for _, units in cases for e in units for x in e)
    lams = (ONE, HALF, F(0), F(-3, 4))
    dims = set()
    for a, units in cases:
        for e in units:
            for lam in lams:
                got = eigenspace(a, e, lam)
                assert got == fraction_eigenspace(a, e, lam), (a.labels, e, lam)
                dims.add((lam, got.dim))
    assert all((lam, d) in dims for lam in (ONE, HALF, F(0)) for d in (1, 2))
