"""Module-level invariant suites over the whole catalog."""

from fractions import Fraction

from jordanalg.algebra import (
    direct_sum,
    find_identity,
    is_associative,
    is_commutative,
    is_jordan,
)
from jordanalg.invariants import (
    annihilator,
    induced_algebra,
    is_ideal,
    is_nilpotent,
    lcs_chain,
    power_chain,
    power_profile,
    quotient_algebra,
    radical,
    trace_rank,
)
from jordanalg.ratlin import Matrix, vec
from conftest import seeded_rng
from helpers import coboundary, cocycle_subspaces, null_extension, zero_grid

F = Fraction


def test_power_substitution_identity(env):
    # ((x x) y) x = (x x)(y x) for 200 pseudorandom rational pairs per algebra
    rng = seeded_rng("power-substitution")
    for name, a in env.items():
        n = a.dim
        for _ in range(200):
            x = vec([F(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(n)])
            y = vec([F(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(n)])
            xx = a.mul(x, x)
            assert a.mul(a.mul(xx, y), x) == a.mul(xx, a.mul(y, x)), name


def test_power_chain_containments(env):
    # J<k> inside J^k inside J^2 for k >= 2, with equality for k <= 3
    for name, a in env.items():
        powers = power_chain(a, 4)
        lcs = list(lcs_chain(a)[:4])
        while len(lcs) < 4:
            lcs.append(lcs[-1])
        for k in range(1, 4):
            assert powers[k - 1].contains(powers[k]) or powers[k - 1] == powers[k]
        for k in range(2, 5):
            assert powers[k - 1].contains(lcs[k - 1]), name
            if k >= 3:
                assert powers[1].contains(powers[k - 1]), name
        assert powers[1] == lcs[1] and powers[2] == lcs[2], name


def test_power_profile_monotone(env):
    for name, a in env.items():
        pp = power_profile(a)
        assert all(x >= y for x, y in zip(pp.assoc_dims, pp.assoc_dims[1:]))
        assert all(x >= y for x, y in zip(pp.lcs_dims, pp.lcs_dims[1:]))


def test_radical_postconditions(env):
    for name, a in env.items():
        rad = radical(a)
        assert is_ideal(a, rad), name
        rad_alg = induced_algebra(a, rad)
        assert is_nilpotent(rad_alg), name
        quot = quotient_algebra(a, rad)
        assert trace_rank(quot) == quot.dim, name
        assert find_identity(quot) is not None, name
        assert rad.dim + quot.dim == a.dim, name


def test_annihilator_is_ideal(env):
    for name, a in env.items():
        assert is_ideal(a, annihilator(a)), name


def test_direct_sums_of_catalog_algebras_are_jordan(env):
    rng = seeded_rng("direct-sums")
    names = sorted(env)
    for _ in range(20):
        a, b = rng.choice(names), rng.choice(names)
        assert is_jordan(direct_sum(env[a], env[b]))


def test_commutative_associative_implies_jordan(env):
    for name, a in env.items():
        if is_commutative(a) and is_associative(a):
            assert is_jordan(a), name


def test_one_dimensional_peirce_pieces_of_radical_square_to_zero(env):
    # radical eigenspace pieces N_i relative to each table idempotent:
    # dim N_i = 1 (i in {0, 1}) forces N_i^2 = 0, and dim N_half = 1 forces
    # N_i * N_half = 0
    from helpers import sweep_radical_peirce_products

    assert sweep_radical_peirce_products(env) > 60


def test_zero_cocycle_extensions_are_jordan(env):
    for name, a in env.items():
        assert is_jordan(null_extension(a, zero_grid(a))), name


def test_coboundary_extensions_are_jordan(env):
    # consistency of the coboundary formula with the cocycle condition,
    # checked directly on the extension for 10 random maps per algebra
    rng = seeded_rng("coboundary-extensions")
    for name, a in env.items():
        n = a.dim
        for _ in range(10):
            mu = Matrix.from_rows(
                [[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
            )
            assert is_jordan(null_extension(a, coboundary(a, mu))), name


def test_coboundaries_inside_cocycles_sample(env):
    for name in ("F1", "B2", "T5", "J2", "J44", "J59", "J73"):
        z2, b2 = cocycle_subspaces(env[name])
        assert z2.contains(b2), name


# every catalog answer of the subalgebra-embedding decision, frozen: the
# decision is exact, so any change here is a regression (witnesses verified
# below; "no" answers come from the nilpotency shortcut or Groebner branches)
B2_YES = {
    "B2", "T6", "T7", "T10",
    "J2", "J6", "J7", "J9", "J10", "J11", "J12", "J13", "J14", "J15", "J16",
    "J17", "J18", "J28", "J29", "J30", "J31", "J32", "J33", "J46", "J48",
    "J49", "J50", "J56", "J58", "J59", "J60",
}


def test_embedding_decision_sweep(env):
    from jordanalg.polysolve import check_b2_witness, embeds_b2

    for name, a in env.items():
        res = embeds_b2(a)
        want = "yes" if name in B2_YES else "no"
        assert res.answer == want, name
        if want == "yes":
            # every positive catalog answer comes with a rational witness
            assert res.witness is not None, name
            assert check_b2_witness(a, *res.witness), name
