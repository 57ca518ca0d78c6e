import gc
import random
import weakref
from dataclasses import replace
from fractions import Fraction
from functools import partial
from math import gcd

import pytest

from jordanalg.algebra import (
    Algebra,
    AlgebraError,
    change_basis,
    check_isomorphism,
    direct_sum,
    find_identity,
    is_associative,
    matrix_algebra,
    per_algebra,
    plus_algebra,
    product_span,
    unitalization,
)
from jordanalg.cohomology import (
    MAX_COCYCLE_CELLS,
    CocycleSpace,
    cocycle_cells,
    cocycle_space,
)
from jordanalg.invariants import (
    NonJordanError,
    NotNilpotentError,
    RadicalVerificationError,
    _adapted_basis,
    _adapted_table,
    _flag,
    _frame,
    _lift_idempotent,
    _minimal_polynomial,
    _nonzero_constants,
    annihilator,
    annihilator_series,
    centroid_dim,
    derivation_dim,
    difference_message,
    fingerprint,
    first_fingerprint_difference,
    h2_dims,
    induced_algebra,
    is_ideal,
    is_nilpotent,
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
from jordanalg.peirce import is_idempotent, peirce_multi
from jordanalg.polysolve import embeds_b2
from jordanalg.ratlin import ZERO, Matrix, Subspace, _int_vec, kernel, rank, zero_vec
from conftest import random_invertible_matrix, seeded_rng
from gen import dense_basis, field_sum, spin_factor, truncated_polynomial
from helpers import (
    check_radical_block,
    reference_change_basis,
    reference_direct_sum,
    reference_fingerprint,
    reference_fingerprint_key,
    reference_induced_algebra,
    reference_plus_algebra,
    reference_quotient_algebra,
    reference_radical_split,
    reference_trace_form,
    reference_unitalization,
)

F = Fraction


def zero_algebra(n):
    return Algebra(tuple(f"n{i+1}" for i in range(n)),
                   tuple(tuple(zero_vec(n) for _ in range(n)) for _ in range(n)))


def fresh(a):
    """An equal algebra with nothing computed on it yet."""
    return Algebra(a.labels, a.table)


def basis_matrix(rows):
    """The matrix whose columns are the basis vectors `rows`."""
    return Matrix.from_rows(list(zip(*rows)))


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


@pytest.mark.parametrize("kernel, message", [
    (lambda n: Subspace.span(n, [[0, 1, 0, 0]]), "trace-form kernel is not an ideal"),
    (Subspace.full, "trace-form kernel is not nilpotent"),
    (Subspace.zero, "quotient trace form is degenerate"),
], ids=["span-n1", "whole-space", "zero"])
def test_radical_split_refuses_a_wrong_trace_form_kernel(env, monkeypatch, kernel, message):
    # the three postconditions, each failed by one wrong kernel of J56's
    # trace form (its radical is span(n1, n2, n3)); the table is fresh, so
    # no certified split is kept on it
    import jordanalg.invariants as inv

    j56 = Algebra(env["J56"].labels, env["J56"].table)
    monkeypatch.setattr(inv, "kernel", lambda form: kernel(4))
    with pytest.raises(RadicalVerificationError, match=f"^{message}$"):
        radical_split(j56)


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


def test_fingerprint_keys_match_the_deep_copied_records(entries, env):
    # `key()` reads each record's fields shallowly; on the 73 four-dimensional
    # fingerprints, with `b2_embeds` unset and set, it gives the tuples that
    # `dataclasses.astuple` gave, down to their repr
    dim4 = [e.name for e in entries if env[e.name].dim == 4]
    assert len(dim4) == 73
    for i, name in enumerate(dim4):
        fp = fingerprint(env[name])
        for b2 in (None, ("yes", "no", "inconclusive")[i % 3]):
            fp = replace(fp, b2_embeds=b2)
            assert repr(fp.key()) == repr(reference_fingerprint_key(fp)), name


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


def test_induced_algebra_refuses_a_subspace_of_another_ambient(env):
    # before, span(5, e4) gave a one-dimensional zero table, span(5, e5) an
    # IndexError and span(3, e2) "not closed under the product"
    j56 = env["J56"]
    for ambient, row in ((5, [0, 0, 0, 1, 0]), (5, [0, 0, 0, 0, 1]), (3, [0, 1, 0])):
        with pytest.raises(AlgebraError, match="^subspace ambient mismatch$"):
            induced_algebra(j56, Subspace.span(ambient, [row]))


def assert_built_as_reference(got, ref, name):
    """`got` has the labels and table of its Fraction reference, and the
    integer constants it kept are those a fresh copy of it computes."""
    assert (got.labels, got.table) == (ref.labels, ref.table), name
    assert "_int_structure" in got.__dict__, name
    assert got._int_structure == fresh(got)._int_structure, name


def test_derived_algebras_match_their_fraction_references(env, dense_env):
    # every algebra built from another is built from integer constants;
    # each equals the Fraction code it replaced and keeps its constants: the
    # sum with the next table, the unital hull, the plus algebra of an
    # associative table, the quotient by and the algebra induced on each
    # ideal of the flag, and the quotients of the annihilator series, on
    # the catalog and one dense basis of each table
    cases = list(env.items()) + [(f"{name} dense", b) for name, (b, _) in dense_env.items()]
    quotients = 0
    for (name, a), (_, b) in zip(cases, cases[1:] + cases[:1]):
        assert_built_as_reference(direct_sum(a, b), reference_direct_sum(a, b), name)
        assert_built_as_reference(unitalization(a), reference_unitalization(a), name)
        if is_associative(a):
            assert_built_as_reference(plus_algebra(a), reference_plus_algebra(a), name)
        for s in filter(partial(is_ideal, a), _flag(a)):
            assert_built_as_reference(quotient_algebra(a, s), reference_quotient_algebra(a, s), name)
            assert_built_as_reference(induced_algebra(a, s), reference_induced_algebra(a, s), name)
            quotients += 1
        cur = a
        while cur.dim and annihilator(cur).dim:
            q = quotient_algebra(cur, annihilator(cur))
            assert_built_as_reference(q, reference_quotient_algebra(cur, annihilator(cur)), name)
            cur = q
            quotients += 1
    assert quotients > 500
    for name, (b, p) in dense_env.items():
        assert_built_as_reference(b, reference_change_basis(env[name], p), name)
    m3 = matrix_algebra(3)
    assert_built_as_reference(plus_algebra(m3), reference_plus_algebra(m3), "M3+")


def test_fingerprint_of_a_fresh_table_scales_its_constants_once(dense_env, monkeypatch):
    # the radical's induced algebra, the quotients and the sparser table
    # take their integer constants from the builder; only the table itself
    # is scaled, with one `_int_vec` of its n^3 constants, when it is made
    import jordanalg.algebra as alg

    lengths = []

    def counted(v, _scale=alg._int_vec):
        lengths.append(len(v))
        return _scale(v)

    monkeypatch.setattr(alg, "_int_vec", counted)
    for name, (b, _) in dense_env.items():
        lengths.clear()
        a = fresh(b)
        assert lengths == [a.dim**3], name
        lengths.clear()
        fingerprint(a)
        cubes = {m**3 for m in range(2, a.dim + 1)}
        assert not cubes.intersection(lengths), name


def test_fingerprint_h2_and_b2_build_no_fraction_table(env, dense_env, monkeypatch):
    # an algebra stores its integer constants only, and its Fraction table
    # is made when it is read; `fingerprint`, `h2_dims` and `embeds_b2` read
    # none, on the catalog tables, one dense basis of each, and the
    # adapted, quotient and induced algebras built on the way
    import jordanalg.algebra as alg
    import jordanalg.invariants as inv

    built = []

    def builder(den, srows, labels, _build=alg._from_int_structure):
        built.append(_build(den, srows, labels))
        return built[-1]

    cases = [alg._from_int_structure(*a._int_structure, a.labels) for a in env.values()]
    cases += [change_basis(env[name], p) for name, (_, p) in dense_env.items()]
    monkeypatch.setattr(alg, "_from_int_structure", builder)
    monkeypatch.setattr(inv, "_from_int_structure", builder)
    for a in cases:
        fingerprint(a)
        h2_dims(a)
        embeds_b2(a)
    monkeypatch.undo()
    assert len(cases) == 2 * 88 and len(built) > 2 * 88
    assert not [a.labels for a in cases + built if "table" in a.__dict__]


def test_a_table_read_back_gives_an_equal_algebra(env, dense_env):
    # equality and hashing read labels and integer constants, which are
    # canonical: the Fraction table of an algebra gives it back, for
    # catalog tables, changes of basis, plus algebras, unital hulls,
    # quotients and induced algebras, and a table given in ints gives the
    # algebra of the same table in Fractions
    cases = list(env.values()) + [b for b, _ in dense_env.values()]
    cases += [plus_algebra(matrix_algebra(2)), plus_algebra(matrix_algebra(3))]
    cases += [unitalization(a) for a in env.values()]
    for a in list(env.values()) + [b for b, _ in dense_env.values()]:
        rad, rad_alg, quot = radical_split(a)
        cases += [induced_algebra(a, rad), quotient_algebra(a, rad), rad_alg, quot]
    for a in cases:
        b = Algebra(a.labels, a.table)
        assert b == a and hash(b) == hash(a), a.labels
        if a.dim:
            doubled = [[tuple(2 * x for x in v) for v in row] for row in a.table]
            assert (Algebra(a.labels, doubled) == a) == (not any(map(any, a._int_structure[1])))
    ints = [a for a in env.values() if a._int_structure[0] == 1]
    assert len(ints) > 10
    for a in ints:
        b = Algebra(a.labels, [[[int(x) for x in v] for v in row] for row in a.table])
        assert b == a and hash(b) == hash(a), a.labels


def test_radical_split_pieces(env):
    for a in [env[name] for name in ("J8", "J56", "J63", "J73", "J3")] + [zero_algebra(0)]:
        rad, rad_alg, quot = radical_split(a)
        assert rad == radical(a)
        assert rad_alg == induced_algebra(a, rad)
        assert lcs_chain(rad_alg)[-1].is_zero()
        assert quot == quotient_algebra(a, rad)


def test_fingerprint_computes_each_piece_once(env, monkeypatch):
    # one fingerprint of a fresh algebra runs each of these once: the
    # annihilator heads the annihilator series, the trace form's kernel is
    # the radical, and the radical's induced and quotient algebras come from
    # the one certified split.  J56 has Ann J = 0.  The catalog table is
    # read as it is; the dense copy is split once and then read on its
    # adapted table, which takes the split by restriction, so the trace form,
    # the induced algebra and the quotient never run there, and the
    # annihilator never runs on the dense table itself
    import jordanalg.invariants as inv
    from collections import Counter

    names = ("annihilator", "trace_form", "induced_algebra")
    once = Counter({name: 1 for name in names + ("quotient_algebra",)})
    for a in (fresh(env["J56"]), change_basis(env["J56"], random_invertible_matrix(
            4, seeded_rng("fp-once"), dense=True))):
        seen = {name: [] for name in once}
        for name in names:
            def wrapper(b, *args, _name=name, _orig=getattr(inv, name)):
                seen[_name].append(b)
                return _orig(b, *args)
            monkeypatch.setattr(inv, name, wrapper)
        count_builds(monkeypatch, inv, "quotient_algebra", seen["quotient_algebra"])
        fingerprint(a)
        monkeypatch.undo()
        table = _adapted_table(a)
        on = lambda t: Counter({name: sum(b is t for b in bs) for name, bs in seen.items()})
        if table is a:
            assert on(a) == once
        else:
            assert on(a) == Counter({"trace_form": 1, "induced_algebra": 1,
                                     "quotient_algebra": 1})
            assert on(table) == Counter({"annihilator": 1})
    assert table is not a  # the dense copy took the second branch


def test_annihilator_series_reuses_the_radical_quotient(env, monkeypatch):
    # where Ann J = rad J (F2, J5, J8, J19, J34, J73) the series goes on
    # from the quotient the radical split keeps, so a fingerprint of a fresh
    # algebra builds one quotient of the table it reads, where they differ
    # (J63) two; on an adapted table the split, quotient and all, is carried
    # over from the given table, which leaves none and one
    import jordanalg.invariants as inv

    rng = seeded_rng("ann-split")
    built = []
    count_builds(monkeypatch, inv, "quotient_algebra", built)
    expected = {"F2": 1, "J5": 1, "J8": 1, "J19": 1, "J34": 1, "J73": 1,
                "J56": 1, "J63": 2}
    adapted = 0
    for name, count in expected.items():
        for a in (fresh(env[name]), change_basis(env[name], random_invertible_matrix(
                env[name].dim, rng, dense=True))):
            built.clear()
            fingerprint(a)
            table = _adapted_table(a)
            adapted += table is not a
            assert sum(b is table for b in built) == count - (table is not a), name
    assert adapted >= len(expected) // 2
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


def test_is_nilpotent_agrees_with_the_lcs_chain(env, dense_env):
    # a nonzero trace of some R_{b_m} answers False before any chain is
    # spanned, and otherwise the chain decides: on the catalog, its dense
    # bases, the 2 x 2 matrix algebra, truncated polynomials and tables
    # that are not Jordan (one a noncommutative table whose right powers
    # vanish, one a table with every trace 0 and J J = J)
    cases = list(env.values()) + [b for b, _ in dense_env.values()]
    cases += [matrix_algebra(2)] + [truncated_polynomial(m) for m in (2, 5, 8)]
    cases += [
        Algebra.from_products(("e1", "n1", "n2", "n3"), {
            ("e1", "e1"): {"e1": 1}, ("e1", "n1"): {"n1": F(1, 2)},
            ("e1", "n3"): {"n3": F(1, 2)}, ("n1", "n1"): {"n2": 1}, ("n1", "n2"): {"n3": 1}}),
        Algebra.from_products(("x", "y"), {("x", "y"): {"y": 1}}, symmetric=False),
        Algebra.from_products(("x", "y"), {("x", "x"): {"y": 1}, ("y", "y"): {"x": 1}}),
    ]
    shortcut = 0
    for a in cases:
        want = lcs_chain(fresh(a))[-1].is_zero()
        b = fresh(a)
        assert is_nilpotent(b) == want, a.labels
        shortcut += (lcs_chain.__wrapped__, ()) not in vars(b).get("_memo", {})
    assert [is_nilpotent(a) for a in cases[-2:]] == [True, False]
    assert 0 < shortcut < len(cases) and sum(map(is_nilpotent, cases)) > 30


def bench_dense_tables(entries, env, seed):
    """The tables of the `dense` benchmark workload at `seed`: each catalog
    table, in catalog order, in two dense bases drawn from one seeded
    generator, as `bench/workloads.py` draws them."""
    rng = random.Random(f"dense-bases:{seed}")
    return [change_basis(env[e.name], random_invertible_matrix(env[e.name].dim, rng, dense=True))
            for e in entries for _ in range(2)]


def test_the_adapted_table_takes_the_lcs_chain_of_the_given_one(entries, env):
    # `_sparser_table` carries a's lcs chain into b's coordinates and keeps
    # it on b before anything runs there; it is the chain spanned from
    # scratch on a fresh copy of b, on the 176 tables of the `dense`
    # benchmark at seed 81 and on generated families in dense bases
    diag = lambda *d: [[d[i] if i == j else 0 for j in range(len(d))] for i in range(len(d))]
    generated = [spin_factor(m) for m in (2, 3, 5)] + [spin_factor(4, diag(1, -1, 2, 0))]
    generated += [truncated_polynomial(m) for m in (3, 6)]
    generated += [f(truncated_polynomial(3)) for f in (field_sum, unitalization)]
    cases = bench_dense_tables(entries, env, 81)
    assert len(cases) == 176
    cases += [dense_basis(a, f"lcs-seed-{i}")[0] for i, a in enumerate(generated)]
    seeded = 0
    for a in map(fresh, cases):
        b = _adapted_table(a)
        if b is a:
            continue
        chain = vars(b)["_memo"][lcs_chain.__wrapped__, ()]
        assert chain == lcs_chain(fresh(b)), a.labels
        assert lcs_chain(b) is chain
        seeded += 1
    assert seeded >= 170 + len(generated) - 2


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
    # dim_h2, dim_der and dim_centroid of a fingerprint, and h2_dims, are
    # read on the adapted table; they equal the values computed on the table
    # itself, on the catalog in two seeded dense bases and on spin factors in
    # a dense basis, and the adapted table is isomorphic to it by the
    # adapted basis
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
        assert h2_dims(a) == cs, a.labels
        b = _adapted_table(a)
        if b is not a:
            adapted += 1
            assert check_isomorphism(b, a, basis_matrix(_adapted_basis(a))), a.labels
            assert _nonzero_constants(b) < _nonzero_constants(a), a.labels
    assert adapted > 100


def test_the_radical_is_the_first_coordinate_block_of_every_adapted_table(dense_env):
    # on the adapted table of each dense catalog table the radical is the
    # span of the first dim rad basis vectors, and its split is carried
    # over from the given table, not computed again
    assert sum(check_radical_block(fresh(b)) for b, _ in dense_env.values()) > 80


def test_fingerprint_equals_the_record_read_on_the_given_table(env, dense_env):
    # every field read on the adapted table gives the key and the render
    # of the fingerprint that read all but three fields on the table as
    # given, on two seeded dense bases of each catalog table
    rng = seeded_rng("reference-fingerprint")
    cases = [b for b, _ in dense_env.values()]
    cases += [change_basis(a, random_invertible_matrix(a.dim, rng, dense=True))
              for a in env.values()]
    assert len(cases) == 176
    for b in cases:
        fp, want = fingerprint(fresh(b)), reference_fingerprint(fresh(b))
        assert (fp.key(), fp.render()) == (want.key(), want.render()), b.labels


def test_catalog_tables_keep_their_own_table_and_a_dense_spin_factor_gets_a_frame(
        env, monkeypatch):
    # the catalog bases are adapted already: no table searches for a frame,
    # and every one but J53 builds no basis; in J53 rad^2 is the line of
    # n2 + n3, and the table of the basis through it is no sparser
    import jordanalg.invariants as inv

    searched = []
    monkeypatch.setattr(inv, "_minimal_polynomial",
                        lambda q, *args, _orig=inv._minimal_polynomial: searched.append(q)
                        or _orig(q, *args))
    for name, a in env.items():
        a = fresh(a)
        assert (_adapted_basis(a) is None) == (name != "J53"), name
        assert _adapted_table(a) is a, name
    assert searched == []
    # a dense spin factor is fingerprinted on the table of an idempotent
    # frame, which is sparser, and the basis gives an isomorphism
    b, _ = dense_basis(spin_factor(4), "adapted-own")
    c = _adapted_table(b)
    assert _nonzero_constants(c) < _nonzero_constants(b)
    assert check_isomorphism(c, b, basis_matrix(_adapted_basis(b)))
    assert searched


def test_minimal_polynomials_of_quotient_samples(env, dense_env):
    # on seeded samples of each semisimple quotient J / rad J, in the given
    # and a dense basis: m is primitive, m(x) = 0 on powers taken by
    # Algebra.mul, 1, x, .., x^(deg m - 1) are independent, and each P_k
    # returned is s_k x^k
    rng = seeded_rng("minimal-polynomial")
    cases = list(env.values()) + [b for b, _ in dense_env.values()]
    degrees = []
    for a in cases:
        q = radical_split(a)[2]
        if not q.dim:
            continue
        unit = find_identity(q)
        du, u = _int_vec(unit)
        samples = [[int(i == j) for i in range(q.dim)] for j in range(q.dim)]
        samples += [[rng.randint(-3, 3) for _ in range(q.dim)] for _ in range(2)]
        for x in filter(any, samples):
            m, powers, scales = _minimal_polynomial(q, u, du, x)
            deg = len(m) - 1
            assert deg >= 1 and m[-1] and gcd(*m) == 1, a.labels
            xs = [unit]
            for _ in range(deg):
                xs.append(q.mul(tuple(map(F, x)), xs[-1]))
            assert all(sum(c * p[i] for c, p in zip(m, xs)) == 0 for i in range(q.dim)), a.labels
            assert Subspace.span(q.dim, xs[:deg]).dim == deg, a.labels
            assert len(powers) == len(scales) == deg
            assert all(tuple(map(F, p)) == tuple(s * y for y in xk)
                       for p, s, xk in zip(powers, scales, xs)), a.labels
            degrees.append(deg)
    assert len(degrees) > 400 and max(degrees) == 4


def test_flag_subspaces_are_canonical(env, dense_env):
    # the powers of the radical are built row by row through the RREF rows
    # of rad, not by `Subspace.span`; each flag space is the span of its own
    # rows, so its stored rows are the canonical ones.  The flag is the
    # radical chain, smallest first and ending at rad, each space the
    # product of the next with rad, then the rest of the lcs chain,
    # smallest first
    cases = list(env.values()) + [b for b, _ in dense_env.values()]
    built = 0
    for a in cases:
        flag = _flag(a)
        rad = radical_split(a)[0]
        head = flag[:flag.index(rad) + 1] if rad.dim else []
        for s, t in zip(head, head[1:]):
            assert product_span(a, t, rad) == s, a.labels
        assert not head or product_span(a, head[0], rad).is_zero(), a.labels
        rest = sorted({s for s in lcs_chain(a) if s.dim} - set(head), key=lambda s: s.dim)
        assert flag[len(head):] == rest, a.labels
        for s in flag:
            assert s == Subspace.span(a.dim, s.int_rows), a.labels
        built += len(flag) > len({rad, *lcs_chain(a)} - {Subspace.zero(a.dim)})
    assert built


def frame_elements(a):
    """The frame of `a` as rational vectors E_i = F_i / d."""
    frame, d = _frame(a)
    return [tuple(F(x, d) for x in f) for f in frame]


def test_lifted_unit_is_an_idempotent_over_the_unit_of_the_quotient(env, dense_env):
    # the sum of the frame is idempotent, and modulo the radical it is the
    # unit of J / rad J, read on the quotient's basis, the non-pivot columns
    cases = list(env.values()) + [b for b, _ in dense_env.values()]
    lifted = 0
    for a in cases:
        rad, _, quot = radical_split(a)
        if not quot.dim:
            continue
        e = tuple(map(sum, zip(*frame_elements(a))))
        assert is_idempotent(a, e), a.labels
        pivots = set(rad._pivot_cols())
        residue = rad.reduce_vector(e)
        assert tuple(residue[c] for c in range(a.dim) if c not in pivots) == find_identity(quot)
        lifted += 1
    assert lifted > 100


def grid_family(a, es):
    """(b, family): `a` itself and the frame `es` when their sum is a's
    unit, else the unitalization of `a` and the frame with 1 - sum es
    appended, so that `peirce_multi(b, family)` applies."""
    if find_identity(a) is not None:
        return a, es
    b = unitalization(a)
    es = [e + (ZERO,) for e in es]
    one = (ZERO,) * a.dim + (F(1),)
    return b, es + [tuple(x - sum(col) for x, col in zip(one, zip(*es)))]


def test_frames_of_dense_tables_are_orthogonal_idempotents_over_the_unit(env):
    # on dense copies of every class with dim J / rad J >= 2, and on T5:
    # each frame element is idempotent, they are pairwise orthogonal, their
    # sum lifts the unit of J / rad J, and peirce_multi accepts them
    checked = 0
    for name, a in env.items():
        quot = radical_split(a)[2]
        if quot.dim < 2 and name != "T5":
            continue
        b, _ = dense_basis(a, f"frame-facts-{name}")
        rad, _, quot = radical_split(b)
        es = frame_elements(b)
        for i, e in enumerate(es):
            assert is_idempotent(b, e), name
            assert all(b.mul(e, f) == zero_vec(b.dim) for f in es[i + 1:]), name
        pivots = set(rad._pivot_cols())
        residue = rad.reduce_vector(tuple(map(sum, zip(*es))))
        assert tuple(residue[c] for c in range(b.dim) if c not in pivots) == find_identity(quot)
        assert peirce_multi(*grid_family(b, es)).components, name
        checked += 1
    assert checked >= 25
    assert len(frame_elements(dense_basis(env["J3"], "frame-facts-J3")[0])) == 4


def test_a_dense_sum_of_k_fields_gets_a_table_of_k_constants():
    # F1 + ... + F1 in a dense basis: the frame is the k summands' units,
    # and its table has exactly their k products e_i e_i = e_i
    f1 = Algebra(("e",), (((F(1),),),))
    for k in range(2, 7):
        a = f1
        for _ in range(k - 1):
            a = direct_sum(a, f1)
        b, _ = dense_basis(a, f"fields-{k}")
        assert _nonzero_constants(_adapted_table(b)) == k, k


def test_a_field_with_no_rational_idempotent_is_not_split(env):
    # Q(sqrt 2) + F1 + F1: t^2 - 2 has no rational root, so the frame
    # splits off the two F1 summands and keeps the unit of Q(sqrt 2); the
    # invariants do not tell the table from J3 = F1^4
    f1 = Algebra(("e",), (((F(1),),),))
    a = direct_sum(direct_sum(spin_factor(1, [[2]]), f1), f1)
    b, _ = dense_basis(a, "no-split")
    es = frame_elements(b)
    assert len(es) == 3
    assert sorted(len(peirce_multi(b, [e, tuple(u - x for u, x in zip(find_identity(b), e))])
                      .components[(0, 0)].int_rows) for e in es) == [1, 1, 2]
    assert fingerprint(b) == fingerprint(fresh(env["J3"]))


def test_the_adapted_basis_is_deterministic(env):
    # two fresh copies of a table give the same basis
    for name in ("J1", "J2", "J3", "T5", "J8", "J56"):
        b, _ = dense_basis(env[name], f"determinism-{name}")
        assert _adapted_basis(fresh(b)) == _adapted_basis(fresh(b)), name


def test_a_dense_non_jordan_table_is_refused_before_a_frame_search(monkeypatch):
    import jordanalg.invariants as inv

    searched = []
    monkeypatch.setattr(inv, "_quotient_frame", lambda q: searched.append(q))
    bad = Algebra.from_products(
        ("e1", "e2", "n1"),
        {("e1", "e1"): {"e1": 1}, ("e2", "e2"): {"e2": 1}, ("e1", "n1"): {"n1": 1},
         ("e2", "n1"): {"n1": 1}})
    b, _ = dense_basis(bad, "non-jordan-frame")
    for call in (fingerprint, h2_dims):
        with pytest.raises(NonJordanError):
            call(b)
    assert searched == []


def test_the_lift_stops_on_a_start_that_is_no_lift():
    # in F1 the unit e is reached at once, while 2e runs off to -4, 176, ...
    # and the iteration gives up after dim.bit_length() + 1 rounds
    f1 = Algebra(("e",), (((F(1),),),))
    assert _lift_idempotent(f1, (F(1),)) == ([1], 1)
    with pytest.raises(RadicalVerificationError):
        _lift_idempotent(f1, (F(2),))


def test_projected_rows_of_the_adapted_basis_lie_in_peirce_spaces(dense_env, large_algebras):
    # the adapted basis begins with the grid pieces of the proper flag
    # ideals: its first columns span their sum, and each column lies in one
    # piece of the Peirce grid of the frame
    cases = [b for b, _ in dense_env.values()]
    cases += [dense_basis(a, f"peirce-rows-{name}")[0] for name, a in large_algebras.items()]
    checked = 0
    for a in cases:
        rows = _adapted_basis(a)
        rad, _, quot = radical_split(a)
        if rows is None or not quot.dim:
            continue
        b, family = grid_family(a, frame_elements(a))
        pieces = peirce_multi(b, family).components.values()
        proper = [s for s in (rad,) + lcs_chain(a) if s.dim < a.dim]
        top = Subspace.span(a.dim, [r for s in proper for r in s.int_rows])
        assert Subspace.span(a.dim, rows[:top.dim]) == top, a.labels
        for v in rows:
            v = tuple(v) + (0,) * (b.dim - a.dim)
            assert sum(s.contains_vector(v) for s in pieces) == 1, a.labels
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


def ci_dense_basis(a):
    """`a` in the basis of the console step's dense `J56+J59` file: the
    columns of p, p[i][j] = (3 i j + i + 2 j) mod 11 - 5."""
    n = a.dim
    return change_basis(a, Matrix.from_rows(
        [[(3 * i * j + i + 2 * j) % 11 - 5 for j in range(n)] for i in range(n)]))


def test_h2_dims_of_dense_tables_of_higher_dimension(large_algebras):
    # h2_dims reads the adapted table; the basis-literal cocycle_space of
    # the given table is the reference
    for name in ("J56+T5", "J56+J59"):
        b = ci_dense_basis(large_algebras[name])
        assert h2_dims(b) == cocycle_space(fresh(b)), name


def test_h2_dims_hands_cocycle_space_a_sparser_table(large_algebras, monkeypatch):
    import jordanalg.invariants as inv

    handed = []
    monkeypatch.setattr(inv, "cocycle_space",
                        lambda t, _orig=inv.cocycle_space: handed.append(t) or _orig(t))
    b = ci_dense_basis(large_algebras["J56+J59"])
    assert h2_dims(b) == CocycleSpace(59, 56, 3)
    assert len(handed) == 1
    assert _nonzero_constants(handed[0]) < _nonzero_constants(b)


def test_h2_dims_refuses_a_13_dimensional_table_before_the_jordan_scan(monkeypatch):
    import jordanalg.algebra as alg

    scans = []
    monkeypatch.setattr(alg, "_int_defect_scan", lambda b: scans.append(b))
    n = 13
    a = Algebra.from_products(tuple(f"n{i}" for i in range(n)), {("n0", "n0"): {"n1": 1}})
    with pytest.raises(AlgebraError) as exc:
        h2_dims(a)
    assert f"{cocycle_cells(n):,}" in str(exc.value)
    assert f"{MAX_COCYCLE_CELLS:,}" in str(exc.value)
    assert scans == []


def test_fingerprint_and_h2_dims_share_one_change_basis(env, monkeypatch):
    import jordanalg.invariants as inv

    built = []
    monkeypatch.setattr(inv, "_int_change_basis",
                        lambda a, rows, _orig=inv._int_change_basis:
                        built.append(a) or _orig(a, rows))
    b, _ = dense_basis(env["J56"], "share-change-basis")
    fp = fingerprint(b)
    assert h2_dims(b).h2_dim == fp.dim_h2
    assert built == [b]


def test_a_fingerprinted_algebra_is_freed_by_reference_counting(env):
    # the memo of the adapted table holds the sparser table or None, never
    # the algebra itself, so no reference cycle keeps it alive: one table
    # that gets a sparser basis and one that keeps its own
    dense, _ = dense_basis(env["J56"], "freed-dense")
    assert _adapted_table(dense) is not dense
    cases = [dense, fresh(env["J56"])]
    del dense
    gc.disable()
    try:
        for i in range(len(cases)):
            a = cases.pop()
            fingerprint(a)
            h2_dims(a)
            ref = weakref.ref(a)
            del a
            assert ref() is None, i
    finally:
        gc.enable()
