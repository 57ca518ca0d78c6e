from dataclasses import replace
from fractions import Fraction

import pytest

from jordanalg.algebra import (
    Algebra,
    AlgebraError,
    change_basis,
    check_isomorphism,
    find_identity,
    matrix_algebra,
    per_algebra,
)
from jordanalg.cohomology import cocycle_space
from jordanalg.invariants import (
    NonJordanError,
    NotNilpotentError,
    RadicalVerificationError,
    _adapted_basis,
    _adapted_table,
    _lift_idempotent,
    _lifted_unit,
    _nonzero_constants,
    annihilator,
    annihilator_series,
    centroid_dim,
    derivation_dim,
    difference_message,
    fingerprint,
    first_fingerprint_difference,
    induced_algebra,
    is_ideal,
    lcs_chain,
    nilpotency_type,
    power_chain,
    power_profile,
    quotient_algebra,
    radical,
    radical_split,
    trace_form,
    trace_rank,
)
from jordanalg.peirce import EIGENVALUES, eigenspace, is_idempotent
from jordanalg.polysolve import embeds_b2
from jordanalg.ratlin import ZERO, Matrix, Subspace, kernel, rank, zero_vec
from conftest import random_invertible_matrix, seeded_rng
from gen import dense_basis, spin_factor
from helpers import reference_induced_algebra, reference_radical_split, reference_trace_form

F = Fraction


def zero_algebra(n):
    return Algebra(tuple(f"n{i+1}" for i in range(n)),
                   tuple(tuple(zero_vec(n) for _ in range(n)) for _ in range(n)))


def fresh(a):
    """An equal algebra with nothing computed on it yet."""
    return Algebra(a.labels, a.table)


def count_builds(monkeypatch, module, name, built):
    """Give `module.name`, a `per_algebra` function, a memo of its own whose
    misses append their algebra to `built`; holding the algebra keeps its
    id unique while counting."""
    raw = getattr(module, name).__wrapped__
    monkeypatch.setattr(module, name,
                        per_algebra(lambda b, *args: built.append(b) or raw(b, *args)))


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


def test_derivation_dim_refuses_a_noncommutative_table():
    # y x = y and every other product 0: D(x) = 0 and D(y) in Q y, so
    # dim Der = 1, but delta^1 on the pairs i <= j alone misses y x and
    # gives 2; such a table is refused rather than answered wrongly
    a = Algebra.from_products(("x", "y"), {("y", "x"): {"y": 1}}, symmetric=False)
    rows = []  # D(b_i b_j) - D(b_i) b_j - b_i D(b_j) on every ordered pair
    for i in range(2):
        for j in range(2):
            for k in range(2):
                row = [F(0)] * 4  # D b_s = sum_r d_rs b_r, at column r * 2 + s
                for m, c in enumerate(a.table[i][j]):
                    row[k * 2 + m] += c
                for r in range(2):
                    row[r * 2 + i] -= a.table[r][j][k]
                    row[r * 2 + j] -= a.table[i][r][k]
                rows.append(row)
    assert kernel(Matrix.from_rows(rows)).dim == 1
    with pytest.raises(AlgebraError, match="commutative"):
        derivation_dim(a)


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
    msg = difference_message(first_fingerprint_difference(fa, fb))
    assert msg == "rad_record.dim_ann: 2 vs 1"


def test_fingerprint_b2_separates_j55_j56(env):
    fa, fb = (replace(fingerprint(env[n]), b2_embeds=embeds_b2(env[n]).answer)
              for n in ("J55", "J56"))
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


def induced_or_error(fn, a, s):
    try:
        return fn(a, s)
    except AlgebraError as exc:
        return str(exc)


def test_integer_radical_split_matches_the_fraction_reference(env, dense_env, large_algebras):
    # the trace form summed on integer constants, the induced algebra read
    # off integer products and the three parts of the radical split are
    # those of the Fraction code they replaced, on the catalog, a dense
    # basis of each table and three tables of dimension 7 to 9.  The induced
    # algebra is also compared on each basis line and on the lcs chain, and
    # both must refuse the same unclosed lines with the same error
    cases = dict(env)
    cases.update((f"{name} dense", b) for name, (b, _) in dense_env.items())
    cases.update(large_algebras)
    unclosed = 0
    for name, a in cases.items():
        assert trace_form(a) == reference_trace_form(a), name
        assert radical_split(fresh(a)) == reference_radical_split(fresh(a)), name
        spaces = [Subspace.span(a.dim, [a.basis_vector(i)]) for i in range(a.dim)]
        for s in spaces + [radical(a)] + list(lcs_chain(a)):
            got = induced_or_error(induced_algebra, a, s)
            assert got == induced_or_error(reference_induced_algebra, a, s), name
            unclosed += isinstance(got, str)
    assert unclosed > 100


def test_radical_split_pieces(env):
    for a in [env[name] for name in ("J8", "J56", "J63", "J73", "J3")] + [zero_algebra(0)]:
        rad, rad_alg, quot = radical_split(a)
        assert rad == radical(a)
        assert rad_alg == induced_algebra(a, rad)
        assert lcs_chain(rad_alg)[-1].is_zero()
        assert quot == quotient_algebra(a, rad)


def test_fingerprint_computes_each_piece_once(env, monkeypatch):
    # one fingerprint of a fresh algebra runs each of these on the algebra
    # itself exactly once: the annihilator heads the annihilator series, the
    # trace form's kernel is the radical, and the radical's induced and
    # quotient algebras come from the one certified split.  J56 has
    # Ann J = 0; where Ann J is nonzero and differs from rad J the
    # annihilator series builds a second quotient of the algebra, J / Ann J.
    import jordanalg.invariants as inv
    from collections import Counter

    names = ("annihilator", "trace_form", "induced_algebra")
    for a in (fresh(env["J56"]), change_basis(env["J56"], random_invertible_matrix(
            4, seeded_rng("fp-once"), dense=True))):
        calls = Counter()
        for name in names:
            def wrapper(b, *args, _name=name, _orig=getattr(inv, name)):
                calls[_name] += b is a
                return _orig(b, *args)
            monkeypatch.setattr(inv, name, wrapper)
        quotients = []
        count_builds(monkeypatch, inv, "quotient_algebra", quotients)
        fingerprint(a)
        monkeypatch.undo()
        calls["quotient_algebra"] = sum(b is a for b in quotients)
        assert calls == Counter({name: 1 for name in names + ("quotient_algebra",)})


def test_annihilator_series_reuses_the_radical_quotient(env, monkeypatch):
    # where Ann J = rad J (F2, J5, J8, J19, J34, J73) the series goes on
    # from the quotient `radical_split` built, so a fingerprint of a fresh
    # algebra builds one quotient of it; where they differ (J63) it builds two
    import jordanalg.invariants as inv

    rng = seeded_rng("ann-split")
    built = []
    count_builds(monkeypatch, inv, "quotient_algebra", built)
    expected = {"F2": 1, "J5": 1, "J8": 1, "J19": 1, "J34": 1, "J73": 1,
                "J56": 1, "J63": 2}
    for name, count in expected.items():
        for a in (fresh(env[name]), change_basis(env[name], random_invertible_matrix(
                env[name].dim, rng, dense=True))):
            built.clear()
            fingerprint(a)
            assert sum(b is a for b in built) == count, name
    monkeypatch.undo()
    for name, a in env.items():
        for b in (a, change_basis(a, random_invertible_matrix(a.dim, rng, dense=True))):
            split = fresh(b)
            radical_split(split)
            assert annihilator_series(split) == annihilator_series(fresh(b)), name


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
    count_builds(monkeypatch, inv, "lcs_chain", built)
    by_name = {e.name: e for e in entries}
    for name in ("J56", "J73"):
        for run in (lambda: fingerprint(fresh(env[name])),
                    lambda: cat.verify_entry(by_name[name], fresh(env[name]), env)):
            built.clear()
            run()
            assert built and len({id(b) for b in built}) == len(built), name


def test_power_chain_reads_the_lcs_chain(env, monkeypatch):
    # J^2 = J<2>, and on a commutative table J^3 = J<3> and J * J^3 = J<4>,
    # so of J^1..J^4 only J^2 J^2 is spanned beyond the memoized lcs chain.
    # A fresh fingerprint of J61 spans on J61 its four right powers, the one
    # ideal test of the radical (radical_split and quotient_algebra share it),
    # that of the annihilator, and J^2 J^2: 7 products, not 11
    import jordanalg.invariants as inv

    raw, calls = inv.product_span, []
    monkeypatch.setattr(inv, "product_span",
                        lambda b, s, t: calls.append((b, s, t)) or raw(b, s, t))
    a = fresh(env["J61"])
    fingerprint(a)
    assert len(lcs_chain(a)) == 5
    assert len([b for b, _, _ in calls if b is a]) == 7
    calls.clear()
    powers = power_chain(a, 4)
    assert [(s, t) for _, s, t in calls] == [(powers[1], powers[1])]
    calls.clear()
    assert power_chain(a, 2)[1] == lcs_chain(a)[1] and calls == []


def test_memoized_results_match_fresh_algebras(env, dense_env):
    # lcs_chain, radical_split and quotient_algebra give on an algebra that
    # has a memo what they give on an equal algebra without one
    for a in list(env.values()) + [b for b, _ in dense_env.values()]:
        chain, split = lcs_chain(a), radical_split(a)
        assert type(chain) is tuple and type(split) is tuple
        assert lcs_chain(a) is chain and radical_split(a) is split
        b = fresh(a)
        assert lcs_chain(b) == chain, a.labels
        assert radical_split(b) == split, a.labels
        for ideal in (split[0], annihilator(a)):
            assert quotient_algebra(b, ideal) == quotient_algebra(a, ideal), a.labels


def test_equal_algebras_do_not_share_a_memo(env):
    a, b = fresh(env["J63"]), fresh(env["J63"])
    assert a == b and a is not b
    chain = lcs_chain(a)
    assert "_memo" not in vars(b)
    assert lcs_chain(b) == chain and lcs_chain(b) is not chain
    assert vars(a)["_memo"] is not vars(b)["_memo"]


def test_a_failed_radical_split_is_not_kept():
    bad = Algebra.from_products(("b1", "b2"), {("b1", "b2"): {"b1": 1}}, symmetric=False)
    for _ in range(2):
        with pytest.raises(NonJordanError):
            radical_split(bad)
    assert not vars(bad).get("_memo")


def fraction_centroid_dim(a):
    # reference: the Fraction rows the centroid system was first built from
    n = a.dim
    nsq = n * n
    rows = []
    for i in range(n):
        for j in range(n):
            cij = a.table[i][j]
            for k in range(n):
                row = [ZERO] * nsq
                for m in range(n):
                    if cij[m]:
                        row[k * n + m] += cij[m]
                for q in range(n):
                    x = a.table[q][j][k]
                    if x:
                        row[q * n + i] -= x
                rows.append(row)
    return nsq - rank(Matrix.from_rows(rows))


def fraction_annihilator(a):
    # reference: the kernel of the stacked Fraction left multiplications
    n = a.dim
    return kernel(Matrix.from_rows(
        [[a.table[i][j][k] for i in range(n)] for j in range(n) for k in range(n)]))


def random_table(rng, n):
    """A seeded table with rational constants, neither commutative nor
    associative."""
    return Algebra(tuple(f"x{i}" for i in range(n)), tuple(
        tuple(tuple(F(rng.randint(-2, 2), rng.choice([1, 1, 3])) for _ in range(n))
              for _ in range(n)) for _ in range(n)))


def test_integer_invariant_rows_match_fraction_references(env, dense_env, large_algebras):
    # centroid and annihilator on integer-scaled constants against the
    # Fraction systems; the noncommutative tables tell the factors apart
    rng = seeded_rng("integer-invariants")
    cases = list(env.values()) + [b for b, _ in dense_env.values()]
    cases += list(large_algebras.values()) + [matrix_algebra(2)]
    cases += [random_table(rng, n) for n in (2, 3, 3, 4)]
    assert any(a._int_structure[0] > 1 for a in cases)
    for a in cases:
        assert centroid_dim(a) == fraction_centroid_dim(a), a.labels
        assert annihilator(a) == fraction_annihilator(a), a.labels
    assert any(annihilator(a).dim not in (0, a.dim) for a in cases)


def degenerate_spin_factors():
    """Spin factors whose form has a kernel, so their radical is not zero."""
    diag = lambda *d: [[d[i] if i == j else 0 for j in range(len(d))] for i in range(len(d))]
    return [spin_factor(2, diag(0, 0)), spin_factor(3, diag(1, 0, 0)),
            spin_factor(3, diag(1, 1, 0)), spin_factor(4, diag(1, -1, 2, 0))]


def test_adapted_table_gives_the_dimensions_of_the_table_itself(env, dense_env):
    # dim_h2, dim_der and dim_centroid of a fingerprint are read on the
    # adapted table; they equal the values computed on the table itself, on
    # the catalog in two seeded dense bases and on spin factors in a dense
    # basis, and the adapted table is isomorphic to it by the adapted basis
    rng = seeded_rng("adapted-dense")
    cases = [fresh(b) for b, _ in dense_env.values()]
    cases += [change_basis(a, random_invertible_matrix(a.dim, rng, dense=True))
              for a in env.values()]
    spins = [spin_factor(m) for m in (2, 3, 4)] + degenerate_spin_factors()
    cases += [dense_basis(a, f"adapted-spin-{i}")[0] for i, a in enumerate(spins)]
    adapted = 0
    for a in cases:
        fp = fingerprint(a)
        cs = cocycle_space(a)
        assert (fp.dim_h2, fp.dim_der, fp.dim_centroid) == (
            cs.h2_dim, derivation_dim(a), centroid_dim(a)), a.labels
        b = _adapted_table(a)
        if b is not a:
            adapted += 1
            assert check_isomorphism(b, a, _adapted_basis(a)), a.labels
            assert _nonzero_constants(b) < _nonzero_constants(a), a.labels
    assert adapted > 100


def test_catalog_tables_and_a_dense_spin_factor_keep_their_own_table(env):
    # the catalog bases are adapted already, and a simple table's flag is
    # only the whole space
    for name, a in env.items():
        assert _adapted_basis(a) is None and _adapted_table(a) is a, name
    b, _ = dense_basis(spin_factor(4), "adapted-own")
    assert _adapted_basis(b) is None and _adapted_table(b) is b


def test_lifted_unit_is_an_idempotent_over_the_unit_of_the_quotient(env, dense_env):
    # e = E / d is idempotent, and modulo the radical it is the unit of
    # J / rad J, read on the quotient's basis, the non-pivot columns
    cases = list(env.values()) + [b for b, _ in dense_env.values()]
    lifted = 0
    for a in cases:
        rad, _, quot = radical_split(a)
        if not quot.dim:
            continue
        e_int, d = _lifted_unit(a)
        e = tuple(F(x, d) for x in e_int)
        assert is_idempotent(a, e), a.labels
        pivots = set(rad._pivot_cols())
        residue = rad.reduce_vector(e)
        assert tuple(residue[c] for c in range(a.dim) if c not in pivots) == find_identity(quot)
        lifted += 1
    assert lifted > 100


def test_the_lift_stops_on_a_start_that_is_no_lift():
    # in F1 the unit e is reached at once, while 2e runs off to -4, 176, ...
    # and the iteration gives up after dim.bit_length() + 1 rounds
    f1 = Algebra(("e",), (((F(1),),),))
    assert _lift_idempotent(f1, (F(1),)) == ([1], 1)
    with pytest.raises(RadicalVerificationError):
        _lift_idempotent(f1, (F(2),))


def test_projected_rows_of_the_adapted_basis_lie_in_peirce_spaces(dense_env, large_algebras):
    # the adapted basis begins with the Peirce projections of the proper
    # flag ideals: its first columns span their sum, and each lies in one
    # Peirce space of the lifted unit
    cases = [b for b, _ in dense_env.values()]
    cases += [dense_basis(a, f"peirce-rows-{name}")[0] for name, a in large_algebras.items()]
    checked = 0
    for a in cases:
        p = _adapted_basis(a)
        rad, _, quot = radical_split(a)
        if p is None or not quot.dim:
            continue
        e_int, d = _lifted_unit(a)
        e = tuple(F(x, d) for x in e_int)
        spaces = [eigenspace(a, e, lam) for lam in EIGENVALUES]
        proper = [s for s in (rad,) + lcs_chain(a) if s.dim < a.dim]
        top = Subspace.span(a.dim, [r for s in proper for r in s.int_rows])
        columns = [tuple(p.entry(i, j) for i in range(a.dim)) for j in range(top.dim)]
        assert Subspace.span(a.dim, columns) == top, a.labels
        for v in columns:
            assert any(s.contains_vector(v) for s in spaces), a.labels
        checked += 1
    assert checked > 50


def test_dense_tables_of_higher_dimension_keep_their_fingerprint(large_algebras):
    # J56+T5 (dim 7) and J56+J59 (dim 8) in a dense basis are fingerprinted
    # on the Peirce-adapted table and give the record of the given basis
    for name in ("J56+T5", "J56+J59"):
        a = large_algebras[name]
        b, _ = dense_basis(a, f"large-{name}")
        assert _adapted_table(b) is not b
        assert fingerprint(b) == fingerprint(fresh(a)), name


def test_a_dense_table_is_scanned_for_the_jordan_identity_once(env, monkeypatch):
    # the adapted table takes the verdict of the table it came from; a
    # dense copy of a non-Jordan table is still refused
    import jordanalg.algebra as alg

    scans = []

    def counting_scan(b, _orig=alg._int_defect_scan):
        scans.append(b)
        return _orig(b)

    monkeypatch.setattr(alg, "_int_defect_scan", counting_scan)
    for name in ("J8", "J56", "J63"):
        a, _ = dense_basis(env[name], f"one-scan-{name}")
        copy = fresh(a)
        assert _adapted_table(copy) is not copy
        scans.clear()
        fingerprint(a)
        assert scans == [a], name
    bad = Algebra.from_products(
        ("e1", "n1", "n2", "n3"),
        {("e1", "e1"): {"e1": 1}, ("e1", "n1"): {"n1": F(1, 2)},
         ("e1", "n3"): {"n3": F(1, 2)},
         ("n1", "n1"): {"n2": 1}, ("n1", "n2"): {"n3": 1}})
    with pytest.raises(NonJordanError):
        fingerprint(dense_basis(bad, "one-scan-bad")[0])
