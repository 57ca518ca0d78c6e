from fractions import Fraction

import pytest

from jordanalg import polysolve
from jordanalg.algebra import change_basis, is_associative
from jordanalg.invariants import is_nilpotent
from jordanalg.polysolve import (
    B2Chart,
    B2Result,
    PolySystem,
    Polynomial,
    b2_chart_system,
    buchberger,
    check_b2_witness,
    degrevlex_key,
    embeds_b2,
    has_solution,
    is_groebner_basis,
)
from conftest import random_invertible_matrix, seeded_rng
from helpers import normal_form, reference_b2_chart_system

F = Fraction


def P(names, terms):
    return Polynomial(names, terms)


def test_polynomial_arithmetic():
    names = ("x", "y")
    x = Polynomial.variable(names, 0)
    y = Polynomial.variable(names, 1)
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert (x * y) ** 2 == P(names, {(2, 2): 1})
    assert (p - p).is_zero()


def test_degrevlex_order():
    # graded first; ties by smaller exponent in the last variable winning
    assert degrevlex_key((2, 0, 0)) > degrevlex_key((1, 1, 0))
    assert degrevlex_key((1, 1, 0)) > degrevlex_key((1, 0, 1))
    assert degrevlex_key((0, 2, 0)) > degrevlex_key((1, 0, 1))


def test_buchberger_inconsistent_pair():
    names = ("x",)
    x = Polynomial.variable(names, 0)
    res = buchberger(PolySystem((x * x, x - Polynomial.const(names, 1)), names))
    assert not res.exhausted and res.trivial


def test_buchberger_single_polynomial_is_its_own_basis():
    names = ("x",)
    x = Polynomial.variable(names, 0)
    f = x * x - x
    res = buchberger(PolySystem((f,), names))
    assert res.basis == (f,)


def test_buchberger_linear_elimination():
    names = ("x", "y")
    x = Polynomial.variable(names, 0)
    y = Polynomial.variable(names, 1)
    res = buchberger(PolySystem((x + y, x - y), names))
    assert res.basis == (y, x)  # sorted by leading monomial


def test_buchberger_result_is_groebner():
    names = ("x", "y", "z")
    x, y, z = (Polynomial.variable(names, i) for i in range(3))
    sys = PolySystem((x * y - z, y * z - x, x * z - y), names)
    res = buchberger(sys)
    assert not res.exhausted
    assert is_groebner_basis(list(res.basis))


def test_buchberger_against_sympy():
    import sympy

    xs, ys, zs = sympy.symbols("x y z")
    names = ("x", "y", "z")
    x, y, z = (Polynomial.variable(names, i) for i in range(3))
    cases = [
        ((x * y - z, y * z - x, x * z - y), (xs * ys - zs, ys * zs - xs, xs * zs - ys)),
        ((x * x + y, x * y + Polynomial.const(names, 1)), (xs**2 + ys, xs * ys + 1)),
    ]
    for ours, theirs in cases:
        res = buchberger(PolySystem(tuple(ours), names))
        ref = sympy.groebner(list(theirs), xs, ys, zs, order="grevlex")
        got = set()
        for p in res.basis:
            expr = 0
            for exps, c in p.terms.items():
                expr += sympy.Rational(c) * xs**exps[0] * ys**exps[1] * zs**exps[2]
            got.add(sympy.expand(expr))
        want = {sympy.expand(sympy.nsimplify(e)) for e in ref.exprs}
        assert got == want


def _fraction_normal_form(p, basis):
    """Reference division in Fractions: reduce the degrevlex-largest term
    of what is left by the first basis element whose lead divides it."""
    work, remainder = dict(p.terms), {}
    while work:
        m = max(work, key=degrevlex_key)
        c = work.pop(m)
        for g in basis:
            lm, lc = g.lead()
            if all(a <= b for a, b in zip(lm, m)):
                q = tuple(a - b for a, b in zip(m, lm))
                for gm, gc in g.terms.items():
                    t = tuple(a + b for a, b in zip(gm, q))
                    if t != m:
                        work[t] = work.get(t, 0) - c / lc * gc
                        if not work[t]:
                            del work[t]
                break
        else:
            remainder[m] = c
    return Polynomial(p.names, remainder)


def _random_polynomial(names, rng):
    terms = {}
    for _ in range(rng.randint(1, 5)):
        m = tuple(rng.randint(0, 2) for _ in names)
        terms[m] = F(rng.randint(-4, 4), rng.choice([1, 2, 3, 5]))
    return Polynomial(names, terms)


def test_normal_form_matches_fraction_division():
    # exact remainders, coefficients included: the completion only needs
    # them up to a scalar, the public normal_form does not
    rng = seeded_rng("normal-form")
    names = ("x", "y", "z")
    for _ in range(150):
        basis = [g for g in (_random_polynomial(names, rng) for _ in range(rng.randint(1, 4)))
                 if not g.is_zero()]
        p = _random_polynomial(names, rng) * _random_polynomial(names, rng)
        assert normal_form(p, basis) == _fraction_normal_form(p, basis)


def test_has_solution_over_closure():
    names = ("x",)
    x = Polynomial.variable(names, 0)
    one = Polynomial.const(names, 1)
    assert has_solution(PolySystem((x * x + one,), names)) == "yes"
    assert has_solution(PolySystem((x, x - one), names)) == "no"


def test_has_solution_square_zero_idempotent(env):
    # z^2 = 0 and z invertible (t z = 1) is unsolvable: the square-zero line
    # has no nonzero idempotent
    names = ("z", "t")
    z = Polynomial.variable(names, 0)
    t = Polynomial.variable(names, 1)
    one = Polynomial.const(names, 1)
    sys = PolySystem((z * z, t * z - one), names)
    assert has_solution(sys) == "no"


def test_budget_exhaustion_is_reported():
    names = ("x", "y", "z")
    x, y, z = (Polynomial.variable(names, i) for i in range(3))
    sys = PolySystem((x * y - z, y * z - x, x * z - y), names)
    res = buchberger(sys, budget=0)
    assert res.exhausted and res.basis is None
    assert has_solution(sys, budget=0) == "inconclusive"


def test_embeds_b2_itself(env):
    res = embeds_b2(env["B2"])
    assert res.answer == "yes"
    assert check_b2_witness(env["B2"], *res.witness)


def test_embeds_b2_j56_witness(env):
    res = embeds_b2(env["J56"])
    assert res.answer == "yes"
    e, y = res.witness
    assert e == env["J56"].element({"e1": 1})
    assert check_b2_witness(env["J56"], e, y)


def test_embeds_b2_j55_is_no(env):
    assert embeds_b2(env["J55"]).answer == "no"


def test_embeds_b2_nilpotent_is_no(env):
    assert embeds_b2(env["J73"]).answer == "no"
    assert embeds_b2(env["J61"]).answer == "no"


def test_embeds_b2_diagonal_table_is_no(env):
    # four orthogonal idempotents admit no half eigenvalue
    assert embeds_b2(env["J3"]).answer == "no"


def test_embeds_b2_basis_change_consistency(env):
    rng = seeded_rng("b2-invariance")
    for name, expected in (("J56", "yes"), ("J55", "no")):
        a = env[name]
        for _ in range(2):
            p = random_invertible_matrix(a.dim, rng)
            assert embeds_b2(change_basis(a, p)).answer == expected


# ---------------------------------------------------------------------------
# independent certificate that the half-action pair cannot embed into J55:
# the idempotents form the family e_d = e1 - d^2 n2 + d n3, whose half
# eigenspace is the line spanned by v_d = n3 - 2d n2, and v_d squares to a
# nonzero multiple of n2.  All three facts are polynomial identities in d.

def _j55_symbolic(env):
    a = env["J55"]
    names = ("d", "t")
    d = Polynomial.variable(names, 0)
    t = Polynomial.variable(names, 1)
    one = Polynomial.const(names, 1)
    zero = Polynomial.zero(names)
    # e_d and v_d in the basis (e1, n1, n2, n3), entries polynomial in d
    e_d = [one, zero, -(d * d), d]
    v_d = [zero, zero, -(d * 2), one]

    def mul(u, v):
        out = [zero, zero, zero, zero]
        for i in range(4):
            for j in range(4):
                entry = a.table[i][j]
                if u[i].is_zero() or v[j].is_zero():
                    continue
                term = u[i] * v[j]
                for k in range(4):
                    if entry[k]:
                        out[k] = out[k] + term * entry[k]
        return out

    return names, d, t, e_d, v_d, mul


def test_j55_family_is_idempotent_identically(env):
    names, d, t, e_d, v_d, mul = _j55_symbolic(env)
    sq = mul(e_d, e_d)
    assert all((sq[k] - e_d[k]).is_zero() for k in range(4))


def test_j55_idempotents_are_only_the_family(env):
    # e = a e1 + b n1 + c n2 + d n3 idempotent forces a(a-1) = 0,
    # b(2a-1) = 0, 2ac + d^2 = c, d(a-1) = 0; over any field with a != 1/2
    # possible these give e = 0 or the family above.  Verified by checking
    # that adjoining a = 1 reduces the system to b = 0, c = -d^2 exactly.
    a = env["J55"]
    x = [None] * 4
    names = tuple("abcd")
    va, vb, vc, vd = (Polynomial.variable(names, i) for i in range(4))
    coords = [va, vb, vc, vd]

    def mul(u, v):
        zero = Polynomial.zero(names)
        out = [zero] * 4
        for i in range(4):
            for j in range(4):
                entry = a.table[i][j]
                term = u[i] * v[j]
                for k in range(4):
                    if entry[k]:
                        out[k] = out[k] + term * entry[k]
        return out

    sq = mul(coords, coords)
    eqs = [sq[k] - coords[k] for k in range(4)]
    # substitute a = 1: remaining equations must say b = 0 and c + d^2 = 0
    def sub_a1(p):
        out = Polynomial.zero(names)
        for exps, c in p.terms.items():
            out = out + Polynomial(names, {(0,) + exps[1:]: c})
        return out

    reduced = [sub_a1(p) for p in eqs]
    want_b = Polynomial(names, {(0, 1, 0, 0): 1})
    want_c = Polynomial(names, {(0, 0, 1, 0): 1, (0, 0, 0, 2): 1})  # c = -d^2
    nontrivial = [p for p in reduced if not p.is_zero()]
    assert want_b in nontrivial
    assert any(p == want_c or p == want_c * -1 for p in nontrivial)
    # substitute a = 0: equations force b = c = d = 0 (the zero solution)
    def sub_a0(p):
        out = Polynomial.zero(names)
        for exps, c in p.terms.items():
            if exps[0] == 0:
                out = out + Polynomial(names, {exps: c})
        return out

    reduced0 = [sub_a0(p) for p in eqs]
    sys = PolySystem(tuple(p for p in reduced0 if not p.is_zero()), names)
    # adjoin invertibility of each coordinate in turn: no nonzero solution
    t_names = names + ("t",)
    for i in (1, 2, 3):
        lifted = [Polynomial(t_names, {e + (0,): c for e, c in p.terms.items()})
                  for p in sys.polynomials]
        inv = Polynomial.variable(t_names, 4) * Polynomial.variable(t_names, i) \
            - Polynomial.const(t_names, 1)
        assert has_solution(PolySystem(tuple(lifted + [inv]), t_names)) == "no"


def test_j55_half_eigenspace_line_and_quadric(env):
    names, d, t, e_d, v_d, mul = _j55_symbolic(env)
    # v_d is a half eigenvector of e_d, identically in d
    prod = mul(e_d, v_d)
    for k in range(4):
        assert (prod[k] * 2 - v_d[k]).is_zero()
    # the eigenspace is exactly a line: L_{e_d} - 1/2 has a 3x3 minor with
    # constant nonzero determinant, and zero determinant in full
    from jordanalg.algebra import change_basis  # noqa: F401  (documentation import)
    a = env["J55"]
    cols = []
    for j in range(4):
        basis = [Polynomial.zero(names)] * 4
        basis[j] = Polynomial.const(names, 1)
        cols.append(mul(e_d, basis))
    m = [[cols[j][k] - (Polynomial.const(names, F(1, 2)) if j == k else Polynomial.zero(names))
          for j in range(4)] for k in range(4)]

    def det(mat):
        if len(mat) == 1:
            return mat[0][0]
        total = Polynomial.zero(names)
        for j in range(len(mat)):
            minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
            term = mat[0][j] * det(minor)
            total = total + (term if j % 2 == 0 else term * -1)
        return total

    full = det(m)
    assert full.is_zero()
    minor = det([row[:3] for row in m[:3]])
    assert minor == Polynomial.const(names, minor.terms[(0, 0)]) and not minor.is_zero()
    # y = t v_d squares to t^2 n2, so y^2 = 0 forces t = 0 and hence y = 0
    y = [t * c for c in v_d]
    sq = mul(y, y)
    assert sq[0].is_zero() and sq[1].is_zero() and sq[3].is_zero()
    assert sq[2] == Polynomial(names, {(0, 2): 1})


# ---------------------------------------------------------------------------
# reason and per-chart records

def test_exhaustion_reason(monkeypatch):
    names = ("x", "y", "z")
    x, y, z = (Polynomial.variable(names, i) for i in range(3))
    sys = PolySystem((x * y - z, y * z - x, x * z - y), names)
    done = buchberger(sys)
    assert (done.exhausted, done.reason) == (False, None) and done.pairs_reduced > 0
    starved = buchberger(sys, budget=1)
    assert (starved.exhausted, starved.reason, starved.pairs_reduced) == (True, "budget", 1)
    monkeypatch.setattr(polysolve, "COEFF_BIT_GUARD", 1)
    third = Polynomial.const(names, F(1, 3))
    res = buchberger(PolySystem((x * y - third, x * x - y * third), names))
    assert (res.exhausted, res.reason, res.basis) == (True, "coeff_bits", None)


def test_chart_records(env):
    res = embeds_b2(env["J55"])
    assert res.answer == "no"
    assert [c.label for c in res.charts] == ["e1", "n1", "n2", "n3"]
    assert all(c.answer == "no" and c.reason is None for c in res.charts)
    # the witness scan and the nilpotent shortcut run no chart
    assert embeds_b2(env["J56"]).charts == () == embeds_b2(env["J73"]).charts
    starved = embeds_b2(env["J55"], budget=0)
    assert starved.answer == "inconclusive"
    assert B2Chart("n2", "inconclusive", 0, "budget") in starved.charts


def test_chart_records_of_the_catalog_are_pinned(catalog_b2):
    # label, answer, pairs reduced and reason of every chart of the 15
    # catalog tables that run charts: every chart answers "no", and only
    # these five reduce an S-pair
    pairs = {("T5", "e1"): 11, ("J1", "e1"): 15, ("J8", "e1"): 11,
             ("J55", "n2"): 8, ("J57", "n2"): 7}
    charted = {name: res.charts for name, res in catalog_b2.items() if res.charts}
    assert list(charted) == ["T5", "T8", "T9", "J1", "J8", "J23", "J24", "J25", "J44",
                             "J45", "J51", "J52", "J53", "J55", "J57"]
    labels = {"T5": "e1 e2 e3", "T8": "e1 n1 n2", "T9": "e1 n1 n2", "J1": "e1 e2 e3 e4",
              "J8": "e1 e2 e3 n1", "J23": "e1 n1 n2 e2", "J24": "e1 n1 n2 e2",
              "J25": "e1 e2 n1 n2"}
    for name, charts in charted.items():
        want = [B2Chart(l, "no", pairs.get((name, l), 0))
                for l in labels.get(name, "e1 n1 n2 n3").split()]
        assert list(charts) == want, name
        assert catalog_b2[name].answer == "no"


def test_buchberger_completes_integer_chart_terms_as_fraction_systems(env, dense_env):
    # `embeds_b2` hands `buchberger` the integer terms of each chart with no
    # Fraction made; they are the integer terms of `b2_chart_system`, and
    # give the same completion, on the catalog and in dense bases
    cases = list(env.items()) + [(f"{name} dense", b) for name, (b, _) in dense_env.items()]
    for name, a in cases:
        if a.dim > 4:
            continue
        for i in range(a.dim):
            chart, system = polysolve._b2_chart_terms(a, i), b2_chart_system(a, i)
            assert chart.names == system.names, (name, i)
            terms = chart.integer_terms()
            assert all(type(x) is int and x for t in terms for x in t.values()), (name, i)
            assert terms == system.integer_terms(), (name, i)
            assert buchberger(chart, 20) == buchberger(system, 20), (name, i)


def test_pairs_reduced_is_deterministic(env):
    for name in ("J1", "J8", "T5", "J55"):
        first, second = embeds_b2(env[name]), embeds_b2(env[name])
        assert first == second, name
        assert sum(c.pairs_reduced for c in first.charts) > 0, name


def test_chart_systems_drop_the_earlier_coordinates(env):
    a = env["J55"]
    for i in range(a.dim):
        names = b2_chart_system(a, i).names
        assert names == tuple(f"e{k}" for k in range(4)) + tuple(f"y{k}" for k in range(i + 1, 4))
        assert len(names) == 2 * a.dim - 1 - i


# ---------------------------------------------------------------------------
# oracles for the affine charts: the reduced basis against sympy, and the
# answers against the Rabinowitsch encoding the charts replaced, which
# decides y != 0 by one branch per coordinate with a variable t and
# t*y_i - 1 adjoined

def _sympy_basis(system):
    import sympy

    gens = sympy.symbols(system.names)

    def expr(p):
        return sum(sympy.Rational(c.numerator, c.denominator)
                   * sympy.Mul(*(g**e for g, e in zip(gens, m)))
                   for m, c in p.terms.items())

    # over QQ the reduced basis is monic, as buchberger's is; an integer
    # system would get sympy's primitive integer basis over ZZ instead
    ref = sympy.groebner([expr(p) for p in system.polynomials], *gens, order="grevlex",
                         domain=sympy.QQ)
    return expr, {sympy.expand(e) for e in ref.exprs}


@pytest.mark.parametrize("name, chart", [("J55", 0), ("J1", 0), ("T5", 1), ("J55", 2)])
def test_chart_basis_matches_sympy(env, name, chart):
    import sympy

    system = b2_chart_system(env[name], chart)
    res = buchberger(system)
    assert not res.exhausted
    expr, want = _sympy_basis(system)
    assert {sympy.expand(expr(p)) for p in res.basis} == want


def test_yes_chart_basis_matches_sympy(env):
    # in a dense basis J56 has no table idempotent, so its "yes" comes from a
    # chart whose reduced basis is not {1}
    import sympy

    rng = seeded_rng("b2-yes-chart")
    b = change_basis(env["J56"], random_invertible_matrix(4, rng, dense=True))
    res = embeds_b2(b)
    assert res.answer == "yes" and res.witness is None
    assert _rabinowitsch_embeds_b2(b) == "yes"
    system = b2_chart_system(b, len(res.charts) - 1)
    basis = buchberger(system).basis
    assert len(basis) > 1
    expr, want = _sympy_basis(system)
    assert {sympy.expand(expr(p)) for p in basis} == want


def _rabinowitsch_embeds_b2(a, budget=polysolve.DEFAULT_BUDGET):
    if is_nilpotent(a):
        return "no"
    if polysolve._witness_scan(a) is not None:
        return "yes"
    n = a.dim
    names = tuple([f"e{i}" for i in range(n)] + [f"y{i}" for i in range(n)] + ["t"])
    es = [Polynomial.variable(names, i) for i in range(n)]
    ys = [Polynomial.variable(names, n + i) for i in range(n)]
    t = Polynomial.variable(names, 2 * n)

    def product(xs, zs):
        out = [Polynomial.zero(names)] * n
        for i in range(n):
            for j in range(n):
                for k, c in enumerate(a.table[i][j]):
                    if c:
                        out[k] = out[k] + xs[i] * zs[j] * c
        return out

    ee, ey, yy = product(es, es), product(es, ys), product(ys, ys)
    base = [p for k in range(n) for p in (ee[k] - es[k], ey[k] - ys[k] * F(1, 2), yy[k])]
    one = Polynomial.const(names, 1)
    answers = [has_solution(PolySystem(tuple(base + [t * ys[i] - one]), names), budget)
               for i in range(n)]
    if "yes" in answers:
        return "yes"
    return "no" if all(x == "no" for x in answers) else "inconclusive"


@pytest.fixture(scope="module")
def catalog_b2(entries, env):
    """embeds_b2 on each catalog table, by name."""
    return {e.name: embeds_b2(env[e.name]) for e in entries}


def test_charts_agree_with_rabinowitsch_on_catalog(env, catalog_b2):
    for name, res in catalog_b2.items():
        assert res.answer == _rabinowitsch_embeds_b2(env[name]), name
    assert sum(1 for res in catalog_b2.values() if res.charts) == 15


def _charted(env, catalog_b2):
    """The tables that neither the nilpotent shortcut nor the witness scan
    decides, in catalog order, each with whether it is associative."""
    return [(name, is_associative(env[name])) for name, res in catalog_b2.items()
            if res.witness is None and not is_nilpotent(env[name])]


def test_associative_tables_need_no_chart_and_every_chart_agrees(env, catalog_b2):
    # e*y = y/2 gives y/2 = (e*e)*y = e*(e*y) = y/4 in an associative table, so
    # embeds_b2 answers "no" there without a chart; each chart's completion
    # reaches the same answer
    tables = [name for name, assoc in _charted(env, catalog_b2) if assoc]
    assert len(tables) == 25
    for name in tables:
        a = env[name]
        assert catalog_b2[name] == B2Result("no"), name
        assert all(has_solution(b2_chart_system(a, i)) == "no" for i in range(a.dim)), name


def test_charts_agree_with_rabinowitsch_in_dense_bases(env, catalog_b2):
    # one dense basis of each table that the charts decide, or that the
    # associative rule decides in their place, where the charts run directly
    rng = seeded_rng("b2-charts-dense")
    tables = _charted(env, catalog_b2)
    assert len(tables) == 40
    for name, assoc in tables:
        a = env[name]
        b = change_basis(a, random_invertible_matrix(a.dim, rng, dense=True))
        res = catalog_b2[name]
        assert embeds_b2(b).answer == _rabinowitsch_embeds_b2(b) == res.answer, name
        if assoc:
            assert all(has_solution(b2_chart_system(b, i)) == "no" for i in range(b.dim)), name


def test_integer_chart_systems_match_the_fraction_reference(env, dense_env):
    # the same monic polynomials as the Fraction equations, in the same order
    cases = list(env.items()) + [(f"{name} dense", b) for name, (b, _) in dense_env.items()]
    for name, a in cases:
        for i in range(a.dim):
            got, ref = b2_chart_system(a, i), reference_b2_chart_system(a, i)
            assert got.names == ref.names, (name, i)
            assert polysolve._leads(got.polynomials) == polysolve._leads(ref.polynomials), (name, i)
