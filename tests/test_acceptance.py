"""Acceptance suite: one test per criterion, each printing a pass line.

Run `python3 -m pytest tests/test_acceptance.py -s -q` to see the lines.
"""

import time
from dataclasses import replace
from fractions import Fraction

import pytest

from jordanalg.algebra import (
    Algebra,
    change_basis,
    check_isomorphism,
    find_identity,
    is_associative,
    is_commutative,
    is_jordan,
    jordan_violation,
    matrix_algebra,
    plus_algebra,
)
from jordanalg.catalog import (
    catalog_order,
    load_catalog,
    resolve_all,
    verify_catalog,
)
from jordanalg.cohomology import cocycle_space
from jordanalg.invariants import (
    annihilator,
    derivation_dim,
    fingerprint,
    induced_algebra,
    is_nilpotent,
    nilpotency_type,
    power_chain,
    quotient_algebra,
    radical,
    trace_rank,
)
from jordanalg.polysolve import (
    PolySystem,
    Polynomial,
    buchberger,
    check_b2_witness,
    embeds_b2,
    is_groebner_basis,
)
from jordanalg.ratlin import Matrix
from conftest import random_invertible_matrix, seeded_rng
from helpers import cocycle_subspaces, sweep_peirce_rules, sweep_radical_peirce_products

F = Fraction
HALF = F(1, 2)

# the recorded column values that exact recomputation contradicts; every
# entry is (recorded, computed), independently confirmed in test_errata.py
DOCUMENTED_ERRATA = {
    ("J41", "ann"): (2, 1),
    ("J50", "ann"): (1, 0),
    ("J62", "ann"): (2, 1),
    ("J63", "ann"): (2, 1),
    ("J64", "ann"): (2, 1),
    ("J65", "ann"): (2, 1),
    ("J66", "ann"): (2, 1),
    ("J70", "ann"): (3, 1),
    ("J71", "ann"): (3, 2),
}


def test_criterion_1_identity_suite():
    # fresh resolution so no cached identity checks are reused
    entries = catalog_order(load_catalog())
    env = resolve_all(entries)
    t0 = time.time()
    for name, a in env.items():
        assert is_commutative(a), name
        assert is_jordan(a), name
    elapsed = time.time() - t0
    assert len(env) == 88
    assert elapsed < 10.0
    print(f"criterion 1 PASS: 88/88 commutative Jordan tables ({elapsed:.2f}s)")


def _rejected_half_action():
    return Algebra.from_products(
        ("e1", "e2", "e3", "n1"),
        {("e1", "e1"): {"e1": 1}, ("e2", "e2"): {"e2": 1},
         ("e3", "e3"): {"e1": 1, "e2": 1},
         ("e1", "e3"): {"e3": HALF}, ("e2", "e3"): {"e3": HALF},
         ("e1", "n1"): {"n1": HALF}})


def _rejected_cubed_generator():
    return Algebra.from_products(
        ("e1", "n1", "n2", "n3"),
        {("e1", "e1"): {"e1": 1}, ("e1", "n1"): {"n1": HALF},
         ("e1", "n3"): {"n3": HALF},
         ("n1", "n1"): {"n2": 1}, ("n1", "n2"): {"n3": 1}})


def test_criterion_2_negative_controls():
    reports = []
    for label, a in (
        ("half-action extension of the rank-3 idempotent table", _rejected_half_action()),
        ("half-pair with a cubed generator", _rejected_cubed_generator()),
    ):
        assert is_commutative(a)
        violation = jordan_violation(a)
        assert violation is not None, label
        quad, defect = violation
        assert any(defect), label
        labels = ",".join(a.labels[i] for i in quad)
        reports.append(f"{label}: violating quadruple ({labels})")
    print("criterion 2 PASS: " + "; ".join(reports))


def test_criterion_3_table_reproduction(entries, env):
    mismatches = {}
    exact = 0
    for entry in entries:
        if env[entry.name].dim != 4:
            continue
        a = env[entry.name]
        computed = {
            "aut": derivation_dim(a),
            "ann": annihilator(a).dim,
            "sq": power_chain(a, 2)[1].dim,
        }
        expected = {"aut": entry.expected.aut, "ann": entry.expected.ann,
                    "sq": entry.expected.sq}
        assert None not in expected.values(), entry.name
        row_ok = True
        for field in ("aut", "ann", "sq"):
            if computed[field] != expected[field]:
                mismatches[(entry.name, field)] = (expected[field], computed[field])
                row_ok = False
        if row_ok:
            exact += 1
    # every mismatch is documented, with both values, and nothing undocumented
    assert mismatches == DOCUMENTED_ERRATA
    report = verify_catalog(entries)
    for (name, field), (recorded, computed) in DOCUMENTED_ERRATA.items():
        assert (name, f"{field}: recorded {recorded}, computed {computed}") in report.errata
    assert len(report.errata) == len(DOCUMENTED_ERRATA)
    print(
        f"criterion 3 PASS: {exact}/73 rows match exactly;"
        f" {len(mismatches)} mismatches, all in the annihilator column,"
        f" each documented with both values"
    )


def test_criterion_4_flag_reproduction(entries, env):
    flags_checked = 0
    niltypes_checked = 0
    for entry in entries:
        a = env[entry.name]
        unital = find_identity(a) is not None
        assoc = is_associative(a)
        nilp = is_nilpotent(a)
        rad_dim = radical(a).dim
        for flag in entry.expected.flags:
            ok = {
                "unitary": unital,
                "associative": assoc,
                "nonassociative": not assoc,
                "nilpotent": nilp,
                "semisimple": rad_dim == 0,
            }[flag]
            assert ok, f"{entry.name}: flag {flag}"
            flags_checked += 1
        if entry.expected.niltype is not None:
            assert nilp, entry.name
            assert nilpotency_type(a) == entry.expected.niltype, entry.name
            niltypes_checked += 1
    sample = {"J61": (1, 1, 1, 1), "J70": (3, 1), "J73": (4,)}
    for name, nt in sample.items():
        assert nilpotency_type(env[name]) == nt
    assert niltypes_checked == 13
    print(
        f"criterion 4 PASS: {flags_checked} flag annotations and"
        f" {niltypes_checked} nilpotency types all confirmed"
    )


RADICAL_GROUPS = [(range(1, 4), 0), (range(4, 10), 1), (range(10, 28), 2),
                  (range(28, 61), 3), (range(61, 74), 4)]


def test_criterion_5_radical_grouping(env):
    for rng_, want in RADICAL_GROUPS:
        for k in rng_:
            name = f"J{k}"
            a = env[name]
            rad = radical(a)  # postconditions verified inside
            assert rad.dim == want, name
            rad_alg = induced_algebra(a, rad)
            assert is_nilpotent(rad_alg), name
            quot = quotient_algebra(a, rad)
            assert trace_rank(quot) == quot.dim, name
    print("criterion 5 PASS: radical dimensions 0/1/2/3/4 match the five groups"
          " J1-J3 / J4-J9 / J10-J27 / J28-J60 / J61-J73, all certified nilpotent ideals")


def test_criterion_6_deep_distinguishers(env):
    h2_59 = cocycle_space(env["J59"]).h2_dim
    h2_55 = cocycle_space(env["J55"]).h2_dim
    h2_56 = cocycle_space(env["J56"]).h2_dim
    assert h2_59 == 0
    assert h2_55 >= 1 and h2_56 >= 1
    r56 = embeds_b2(env["J56"])
    assert r56.answer == "yes" and r56.witness is not None
    assert check_b2_witness(env["J56"], *r56.witness)
    r55 = embeds_b2(env["J55"])
    assert r55.answer == "no"
    f58, f60 = fingerprint(env["J58"]), fingerprint(env["J60"])
    assert f58.rad_record != f60.rad_record
    print(
        f"criterion 6 PASS: h2(J59)=0, h2(J55)={h2_55}, h2(J56)={h2_56};"
        f" embed(J56)=yes (verified witness), embed(J55)=no;"
        f" radical records of J58/J60 differ (ann {f58.rad_record.dim_ann}"
        f" vs {f60.rad_record.dim_ann})"
    )


def test_criterion_7_pairwise_distinctness(entries, env):
    dim4 = [e.name for e in entries if env[e.name].dim == 4]
    assert len(dim4) == 73
    fps = {name: fingerprint(env[name]) for name in dim4}
    groups = {}
    for name in dim4:
        groups.setdefault(fps[name].key(), []).append(name)
    escalated = []
    for names in groups.values():
        if len(names) > 1:
            escalated.extend(names)
            for name in names:
                fps[name] = replace(fps[name], b2_embeds=embeds_b2(env[name]).answer)
                assert fps[name].b2_embeds in ("yes", "no"), name
    keys = {fps[name].key() for name in dim4}
    assert len(keys) == 73
    print(
        f"criterion 7 PASS: 73 pairwise-distinct fingerprints"
        f" (deep embedding field needed for: {escalated or 'none'})"
    )


def test_criterion_8_construction_crosschecks(env):
    m2p = plus_algebra(matrix_algebra(2))
    assert fingerprint(m2p) == fingerprint(env["J2"])
    targets = ["E11", "E22", "E12", "E21"]
    p = Matrix.from_rows(
        [[1 if m2p.label_index(targets[j]) == i else 0 for j in range(4)]
         for i in range(4)]
    )
    assert check_isomorphism(env["J2"], m2p, p)
    print("criterion 8 PASS: symmetrized 2x2 matrix algebra matches J2"
          " (fingerprint equal, explicit isomorphism verified)")


def test_criterion_9a_peirce_rules(env):
    singles, grids = sweep_peirce_rules(env)
    print(f"criterion 9a PASS: Peirce completeness and multiplication rules for"
          f" {singles} single decompositions and {grids} idempotent-family grids")


def test_criterion_9b_radical_peirce_products(env):
    checked = sweep_radical_peirce_products(env)
    print(f"criterion 9b PASS: one-dimensional radical Peirce pieces checked"
          f" ({checked} product-vanishing assertions)")


def test_criterion_9c_fingerprint_invariance(env):
    rng = seeded_rng("fp-invariance-acceptance")
    total = 0
    for name, a in env.items():
        fp = fingerprint(a)
        for k in range(20):
            p = random_invertible_matrix(a.dim, rng, dense=(k % 7 == 0))
            assert fingerprint(change_basis(a, p)) == fp, name
            total += 1
    print(f"criterion 9c PASS: fingerprints invariant under {total} random"
          f" basis changes (20 per algebra)")


def test_criterion_9d_buchberger_certificates():
    names = ("x", "y", "z")
    x, y, z = (Polynomial.variable(names, i) for i in range(3))
    systems = [
        (x * x, x - Polynomial.const(names, 1)),
        (x * y - z, y * z - x, x * z - y),
        (x * x + y, x * y + Polynomial.const(names, 1)),
        (x + y, x - y),
    ]
    for polys in systems:
        res = buchberger(PolySystem(tuple(polys), names))
        assert not res.exhausted
        assert is_groebner_basis(list(res.basis))
    print(f"criterion 9d PASS: S-polynomials of {len(systems)} completed bases"
          f" all reduce to zero")


def test_criterion_9e_coboundaries_inside_cocycles(env):
    # B2 spanned from the coboundary rows against dim B2 = n^2 - dim Der,
    # on each table and on one dense basis of it
    rng = seeded_rng("coboundaries-acceptance")
    for name, table in env.items():
        dense = change_basis(table, random_invertible_matrix(table.dim, rng, dense=True))
        for a in (table, dense):
            z2, b2 = cocycle_subspaces(a)
            assert z2.contains(b2), name
            cs = cocycle_space(a)
            assert (z2.dim, b2.dim) == (cs.z2_dim, cs.b2_dim), name
    print("criterion 9e PASS: coboundary space contained in cocycle space"
          " for all 88 entries and a dense basis of each")
