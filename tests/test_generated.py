"""Generated algebras against their closed-form invariants, each in the
given basis and in one seeded dense basis."""

import pytest

from jordanalg.algebra import unitalization
from jordanalg.cohomology import cocycle_space
from jordanalg.invariants import (
    _adapted_table,
    annihilator,
    centroid_dim,
    fingerprint,
    is_nilpotent,
    radical_split,
)
from jordanalg.polysolve import B2Result, check_b2_witness, embeds_b2
from jordanalg.ratlin import Subspace, invert, unit_vec
from gen import dense_basis, field_sum, spin_factor, truncated_polynomial
from helpers import check_radical_block


def both_bases(a, tag):
    """[(a, identity), (dense copy of a, v -> v in the copy's coordinates)]."""
    b, p = dense_basis(a, tag)
    p_inv = invert(p)
    return [(a, lambda v: v), (b, p_inv.apply)]


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_spin_factor_of_the_identity_form(m):
    # J(V, I) is simple: Der J = so(m), centroid F, radical 0, H2 = 0
    fps = []
    for a, _ in both_bases(spin_factor(m), f"spin-{m}"):
        fp = fingerprint(a)
        fps.append(fp)
        assert (fp.dim_der, fp.dim_centroid, fp.dim_rad, fp.dim_h2) == (m * (m - 1) // 2, 1, 0, 0)
        rad, rad_alg, quot = radical_split(a)
        assert rad.dim == rad_alg.dim == 0 and quot.dim == m + 1
        cs = cocycle_space(a)
        assert cs.h2_dim == 0 and cs.z2_dim == cs.b2_dim == (m + 1) ** 2 - m * (m - 1) // 2
    assert fps[0] == fps[1]


def test_spin_factor_of_a_degenerate_form():
    # f = diag(1, 1, 0): rad J = rad f, the line of v3
    a = spin_factor(3, [[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    v3 = unit_vec(4, 3)
    fps = []
    for b, image in both_bases(a, "spin-degenerate"):
        rad, rad_alg, quot = radical_split(b)
        assert rad == Subspace.span(4, [image(v3)])
        assert rad_alg.dim == 1 and quot.dim == 3
        fp = fingerprint(b)
        assert (fp.dim_rad, fp.rad_niltype) == (1, (1,))
        assert fp.dim_h2 == cocycle_space(b).h2_dim
        fps.append(fp)
    assert fps[0] == fps[1]


def test_spin_factor_rejects_a_bad_form():
    with pytest.raises(ValueError):
        spin_factor(2, [[1, 1], [0, 1]])
    with pytest.raises(ValueError):
        spin_factor(3, [[1, 0], [0, 1]])


def test_a_field_summand_or_a_unit_on_a_nilpotent_algebra(env):
    # for nilpotent N, F1 + N has rad J = N and Ann J = Ann N (both add
    # under the direct sum, and F1 has neither), and the unitalization has
    # rad J = N and Ann J = 0; both have J / rad J = F1, so in a dense basis
    # their fingerprint is read on the Peirce basis of the lifted unit
    nilpotents = [truncated_polynomial(m) for m in (1, 2, 3, 4)]
    nilpotents += [a for a in env.values() if is_nilpotent(a)]
    adapted = 0
    for i, n in enumerate(nilpotents):
        for a, dim_ann in ((field_sum(n), annihilator(n).dim), (unitalization(n), 0)):
            b, _ = dense_basis(a, f"nil-ext-{i}")
            fps = [fingerprint(a), fingerprint(b)]
            for fp in fps:
                assert (fp.dim_rad, fp.dim_ann, fp.ss_record.dim) == (n.dim, dim_ann, 1)
            assert fps[0] == fps[1]
            adapted += _adapted_table(b) is not b
    assert adapted > len(nilpotents)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_b2_embeds_in_a_spin_factor_of_dimension_at_least_three(m):
    # the idempotents other than 0 and e are (e + u)/2 with u in V and
    # f(u, u) = 1; their half space is the line's complement u^perp in V,
    # and y in it has y*y = f(y, y) e, so a copy of B2 needs an isotropic
    # vector in u^perp, which exists over the closure iff m - 1 >= 2
    for a, _ in both_bases(spin_factor(m), f"b2-spin-{m}"):
        res = embeds_b2(a)
        assert res.answer == ("yes" if m >= 3 else "no")
        if res.witness is not None:
            assert check_b2_witness(a, *res.witness)


@pytest.mark.parametrize("make", [lambda: truncated_polynomial(4),
                                  lambda: field_sum(truncated_polynomial(3))])
def test_b2_is_not_in_an_associative_table(make):
    # nilpotent, or associative with the unit of F1: either way no chart runs
    for a, _ in both_bases(make(), "b2-associative"):
        assert embeds_b2(a) == B2Result("no")


def test_the_radical_is_the_first_block_of_generated_adapted_tables():
    # spin factors, degenerate ones too, truncated polynomials, a field
    # summand and a unit on them, each in a dense basis: wherever the
    # adapted table is read, its radical is its first coordinate block and
    # its split is the given table's, carried over
    diag = lambda *d: [[d[i] if i == j else 0 for j in range(len(d))] for i in range(len(d))]
    cases = [spin_factor(m) for m in (2, 3, 4, 5)]
    cases += [spin_factor(3, diag(1, 0, 0)), spin_factor(4, diag(1, -1, 2, 0))]
    cases += [truncated_polynomial(m) for m in (2, 3, 4, 5)]
    cases += [f(truncated_polynomial(m)) for f in (field_sum, unitalization) for m in (2, 3)]
    adapted = sum(check_radical_block(dense_basis(a, f"radical-block-{i}")[0])
                  for i, a in enumerate(cases))
    assert adapted >= len(cases) - 2


@pytest.mark.parametrize("m", [6, 8, 10])
def test_a_dense_truncated_polynomial_keeps_its_fingerprint(m):
    # x Q[x] / (x^(m+1)) is nilpotent of index m + 1, and a derivation or a
    # centroid map is fixed by its value on x, anywhere in J: in a dense
    # basis the radical, read as the whole adapted table, gives it all
    a = truncated_polynomial(m)
    b, _ = dense_basis(a, f"dense-truncated-{m}")
    fp = fingerprint(b)
    assert (fp.dim_der, fp.dim_centroid, fp.dim_rad) == (m, m, m)
    assert fp.power_profile.nilindex == m + 1
    assert fp == fingerprint(a)
    assert centroid_dim(a) == m
