"""Independent confirmation of the documented catalog errata.

Every (aut, ann, sq) triple is recomputed with sympy's rational linear
algebra, a code path sharing nothing with the package's elimination core.
The recorded values the catalog ships are transcriptions; where they
disagree with both independent computations, the records are the typos.
"""

import sympy

from jordanalg.algebra import change_basis
from jordanalg.invariants import annihilator, derivation_dim, power_chain
from conftest import random_invertible_matrix, seeded_rng
from test_acceptance import DOCUMENTED_ERRATA


def sympy_derivation_matrix(a):
    """D(b_i b_j) - D(b_i) b_j - b_i D(b_j) = 0 for i <= j, in the n^2
    entries of D."""
    n = a.dim
    rows = []
    for i in range(n):
        for j in range(i, n):
            cij = a.table[i][j]
            for k in range(n):
                row = [sympy.Rational(0)] * (n * n)
                for q in range(n):
                    row[q * n + i] += sympy.Rational(a.table[q][j][k])
                    row[q * n + j] += sympy.Rational(a.table[i][q][k])
                for m in range(n):
                    row[k * n + m] -= sympy.Rational(cij[m])
                rows.append(row)
    return sympy.Matrix(rows)


def sympy_triple(a):
    n = a.dim
    aut = n * n - sympy_derivation_matrix(a).rank()
    ann_rows = []
    for j in range(n):
        for k in range(n):
            ann_rows.append([sympy.Rational(a.table[i][j][k]) for i in range(n)])
    ann = len(sympy.Matrix(ann_rows).nullspace())
    prods = [[sympy.Rational(x) for x in a.table[i][j]]
             for i in range(n) for j in range(i, n)]
    sq = sympy.Matrix(prods).rank()
    return aut, ann, sq


def test_all_dim4_triples_match_sympy(entries, env):
    for entry in entries:
        a = env[entry.name]
        if a.dim != 4:
            continue
        ours = (derivation_dim(a), annihilator(a).dim, power_chain(a, 2)[1].dim)
        assert ours == sympy_triple(a), entry.name


def test_dense_basis_derivations_match_sympy(entries, env):
    # derivation_dim reads the integer coboundary rows; the oracle assembles
    # the derivation condition directly, in one seeded dense basis of each
    # entry, where the sparse catalog tables no longer hide sign or index slips
    rng = seeded_rng("errata-dense-basis")
    for entry in entries:
        a = env[entry.name]
        if a.dim != 4:
            continue
        b = change_basis(a, random_invertible_matrix(a.dim, rng, dense=True))
        ref = 16 - sympy_derivation_matrix(b).to_DM().rank()
        assert derivation_dim(b) == ref == derivation_dim(a), entry.name


def test_documented_errata_confirmed_by_sympy(entries, env):
    field_index = {"aut": 0, "ann": 1, "sq": 2}
    for (name, field), (recorded, computed) in DOCUMENTED_ERRATA.items():
        ref = sympy_triple(env[name])[field_index[field]]
        assert ref == computed, (name, field)
        assert ref != recorded, (name, field)


def test_errata_hand_checks(env):
    # spot hand-derivations: in J70 the products n1*n1 = n2 and n3*n4 = n2
    # leave only n2 annihilating everything, and in J50 the product
    # n1*n2 = n3 removes the last annihilator candidate
    j70 = env["J70"]
    ann = annihilator(j70)
    assert ann.dim == 1 and ann.contains_vector(j70.element({"n2": 1}))
    assert annihilator(env["J50"]).dim == 0
