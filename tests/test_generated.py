"""Generated algebras against their closed-form invariants, each in the
given basis and in one seeded dense basis."""

import pytest

from jordanalg.cohomology import cocycle_space
from jordanalg.invariants import fingerprint, radical_split
from jordanalg.ratlin import Subspace, invert, unit_vec
from gen import dense_basis, spin_factor


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
