from fractions import Fraction

import pytest

from jordanalg.algebra import Algebra, change_basis
from jordanalg.invariants import (
    NonJordanError,
    NotNilpotentError,
    annihilator,
    annihilator_series,
    centroid_dim,
    derivation_dim,
    fingerprint,
    find_first_difference_message,
    induced_algebra,
    is_ideal,
    lcs_chain,
    nilpotency_type,
    power_chain,
    power_profile,
    quotient_algebra,
    radical,
    radical_split,
    trace_rank,
)
from jordanalg.ratlin import Matrix, Subspace, zero_vec
from conftest import random_invertible_matrix, seeded_rng

F = Fraction


def zero_algebra(n):
    return Algebra(tuple(f"n{i+1}" for i in range(n)),
                   tuple(tuple(zero_vec(n) for _ in range(n)) for _ in range(n)))


def test_power_profile_zero_square(env):
    pp = power_profile(env["J73"])
    assert pp.assoc_dims == (4, 0, 0, 0)
    assert pp.nilindex == 2


def test_power_profile_b3(env):
    # n1^2 = n2 and n2 kills everything: right powers 2,1,0,0
    pp = power_profile(env["B3"])
    assert pp.lcs_dims == (2, 1, 0, 0)
    assert pp.nilindex == 3


def test_power_profile_j61(env):
    pp = power_profile(env["J61"])
    assert pp.assoc_dims[1] == 3
    assert pp.lcs_dims == (4, 3, 2, 1)
    assert pp.nilindex == 5


def test_power_profile_non_nilpotent(env):
    assert power_profile(env["J1"]).nilindex is None


def test_nilpotency_type_examples(env):
    assert nilpotency_type(env["J70"]) == (3, 1)
    assert nilpotency_type(env["J62"]) == (2, 1, 1)
    assert nilpotency_type(zero_algebra(4)) == (4,)
    with pytest.raises(NotNilpotentError):
        nilpotency_type(env["J1"])


def test_annihilator_examples(env):
    assert annihilator(env["J34"]).dim == 3
    assert annihilator(env["J3"]).dim == 0
    assert annihilator(zero_algebra(3)) == Subspace.full(3)


def test_radical_semisimple(env):
    for name in ("J1", "J2", "J3", "T5"):
        assert radical(env[name]).dim == 0


def test_radical_j8(env):
    rad = radical(env["J8"])
    assert rad.dim == 1
    assert rad.contains_vector(env["J8"].element({"n1": 1}))


def test_radical_nilpotent_is_everything(env):
    for name in ("J73", "J61", "B3"):
        assert radical(env[name]) == Subspace.full(env[name].dim)


def test_radical_requires_jordan():
    bad = Algebra.from_products(("b1", "b2"), {("b1", "b2"): {"b1": 1}}, symmetric=False)
    with pytest.raises(NonJordanError):
        radical(bad)


def test_quotient_by_zero(env):
    a = env["J9"]
    q = quotient_algebra(a, Subspace.zero(4))
    assert q.table == a.table


def test_quotient_j8_is_t5(env):
    q = quotient_algebra(env["J8"], radical(env["J8"]))
    assert fingerprint(q) == fingerprint(env["T5"])


def test_quotient_of_nilpotent_is_trivial(env):
    q = quotient_algebra(env["J68"], radical(env["J68"]))
    assert q.dim == 0


def test_is_ideal_examples(env):
    a = env["J9"]
    assert is_ideal(a, annihilator(a))
    j3 = env["J3"]
    assert is_ideal(j3, Subspace.span(4, [j3.element({"e1": 1})]))
    t5 = env["T5"]
    assert not is_ideal(t5, Subspace.span(3, [t5.element({"e3": 1})]))


def test_derivation_dims(env):
    assert derivation_dim(env["J33"]) == 12
    assert derivation_dim(env["J73"]) == 16
    assert derivation_dim(env["J3"]) == 0


def test_centroid_dims(env):
    # decomposable algebras carry their summand projections in the centroid
    assert centroid_dim(env["J13"]) == 2
    assert centroid_dim(env["J16"]) == 1
    assert centroid_dim(env["J3"]) == 4
    # hand checks: on the half-action pair only scalars commute with the
    # product (T(n1) = a n1 is forced, then T(e1) = a e1); the full-action
    # pair additionally admits multiplication by its radical element
    assert centroid_dim(env["B2"]) == 1
    assert centroid_dim(env["B1"]) == 2


def test_annihilator_series(env):
    assert annihilator_series(env["J63"]) == (1, 2, 4)
    assert annihilator_series(env["J65"]) == (1, 3, 4)
    assert annihilator_series(env["J1"]) == ()
    assert annihilator_series(zero_algebra(2)) == (2,)


def test_trace_rank_examples(env):
    assert trace_rank(env["J73"]) == 0
    assert trace_rank(env["J3"]) == 4
    assert trace_rank(env["J55"]) == 1


def test_fingerprint_requires_jordan():
    bad = Algebra.from_products(
        ("e1", "n1", "n2", "n3"),
        {("e1", "e1"): {"e1": 1}, ("e1", "n1"): {"n1": F(1, 2)},
         ("e1", "n3"): {"n3": F(1, 2)},
         ("n1", "n1"): {"n2": 1}, ("n1", "n2"): {"n3": 1}})
    with pytest.raises(NonJordanError):
        fingerprint(bad)


def test_fingerprint_rad_records_differ_j58_j60(env):
    fa, fb = fingerprint(env["J58"]), fingerprint(env["J60"])
    assert fa.rad_record != fb.rad_record
    assert fa.rad_record.dim_ann == 2 and fb.rad_record.dim_ann == 1
    msg = find_first_difference_message(fa, fb)
    assert msg == "rad_record.dim_ann: 2 vs 1"


def test_fingerprint_b2_separates_j55_j56(env):
    fa = fingerprint(env["J55"], with_b2=True)
    fb = fingerprint(env["J56"], with_b2=True)
    assert fa.b2_embeds == "no" and fb.b2_embeds == "yes"
    assert fa.key() != fb.key()


def test_fingerprint_keys_sort_deterministically(env):
    keys = [fingerprint(env[name]).key() for name in
            ("J1", "J5", "J13", "J34", "J55", "J61", "J73", "B2", "T5", "F1")]
    once = sorted(keys)
    assert sorted(reversed(keys)) == once
    assert len(set(keys)) == len(keys)


def test_fingerprint_invariant_under_permutation(env):
    a = env["J44"]
    # permutation of the basis
    p = Matrix.from_rows([[0, 0, 1, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 1, 0, 0]])
    assert fingerprint(change_basis(a, p)) == fingerprint(a)


def test_fingerprint_invariant_under_random_basis_change(env):
    rng = seeded_rng("fp-invariance-unit")
    for name in ("J13", "J16", "J63", "J65", "J50"):
        a = env[name]
        fp = fingerprint(a)
        for dense in (False, True):
            p = random_invertible_matrix(a.dim, rng, dense=dense)
            assert fingerprint(change_basis(a, p)) == fp


def test_power_chain_inclusions(env):
    for name in ("J61", "J44", "J2", "T8"):
        a = env[name]
        chain = power_chain(a, 4)
        for k in range(1, 4):
            assert chain[k - 1].contains(chain[k])
        assert chain[1].contains(chain[3])


def test_radical_plus_quotient_dimensions(env):
    for name, a in env.items():
        rad = radical(a)
        assert rad.dim + quotient_algebra(a, rad).dim == a.dim


def test_induced_algebra_requires_closure(env):
    t5 = env["T5"]
    with pytest.raises(Exception):
        induced_algebra(t5, Subspace.span(3, [t5.element({"e3": 1})]))


def test_radical_split_pieces(env):
    for a in [env[name] for name in ("J8", "J56", "J63", "J73", "J3")] + [zero_algebra(0)]:
        rad, rad_alg, rad_lcs, quot = radical_split(a)
        assert rad == radical(a)
        assert rad_alg == induced_algebra(a, rad)
        assert rad_lcs == lcs_chain(rad_alg)
        assert quot == quotient_algebra(a, rad)


def test_fingerprint_computes_each_piece_once(env, monkeypatch):
    # one fingerprint runs each of these on the algebra itself exactly once:
    # the annihilator heads the annihilator series, the trace form's kernel
    # is the radical, and the radical's induced and quotient algebras come
    # from the one certified split.  J56 has Ann J = 0; where Ann J != 0 the
    # annihilator series builds a second quotient of the algebra, J / Ann J.
    import jordanalg.invariants as inv
    from collections import Counter

    names = ("annihilator", "trace_form", "induced_algebra", "quotient_algebra")
    for a in (env["J56"], change_basis(env["J56"], random_invertible_matrix(
            4, seeded_rng("fp-once"), dense=True))):
        calls = Counter()
        for name in names:
            def wrapper(b, *args, _name=name, _orig=getattr(inv, name)):
                calls[_name] += b is a
                return _orig(b, *args)
            monkeypatch.setattr(inv, name, wrapper)
        fingerprint(a)
        monkeypatch.undo()
        assert calls == Counter({name: 1 for name in names})


def test_zero_dimensional_invariants():
    z = zero_algebra(0)
    assert annihilator(z) == Subspace.zero(0)
    assert trace_rank(z) == centroid_dim(z) == derivation_dim(z) == 0
    assert fingerprint(z).render() == (
        "dim=0 pow=0,0,0,0 lcs=0,0,0,0 nil=1 ann=0 annser=() unital=y assoc=y der=0"
        " centroid=0 rad=0 radtype=() trrank=0 h2=0"
        " rad[dim=0 lcs=0,0,0,0 type=() ann=0 der=0 assoc=y] ss=(0,0,y) b2=-")


def test_each_lcs_chain_built_once(env, entries, monkeypatch):
    # the radical's chain certifies its nilpotency and then gives the radical
    # record's lcs dims and nilpotency type; the entry's chain gives both the
    # nilpotent flag and the nilpotency type in verify_entry
    import jordanalg.catalog as cat
    import jordanalg.invariants as inv

    built = []

    def counted(b, *args, _orig=inv.lcs_chain):
        built.append(b)  # holding b keeps its id unique while counting
        return _orig(b, *args)

    for mod in (inv, cat):
        monkeypatch.setattr(mod, "lcs_chain", counted, raising=False)
    by_name = {e.name: e for e in entries}
    for name in ("J56", "J73"):
        for run in (lambda: fingerprint(env[name]),
                    lambda: cat.verify_entry(by_name[name], env[name], env)):
            built.clear()
            run()
            assert built and len({id(b) for b in built}) == len(built), name
