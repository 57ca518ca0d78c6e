"""Multivariate polynomials over Q and a budgeted Buchberger completion.

Existence questions over the algebraic closure reduce to ideal triviality:
a polynomial system is solvable over the closure iff its reduced Groebner
basis is not {1}.  The completion is budgeted (a maximum number of S-pair
reductions plus a coefficient-size guard) so blowups surface as an explicit
"exhausted" outcome instead of a hang; answers, when produced, are exact.

The only consumer beyond the generic solver is `embeds_b2`, which decides
whether an algebra contains a subalgebra spanned by an idempotent e and a
nonzero y with e*y = y/2 and y*y = 0.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .algebra import Algebra, is_jordan
from .ratlin import HALF, ONE, ZERO, Vector, is_zero_vec, rat, vec

Monomial = tuple[int, ...]

DEFAULT_BUDGET = 10000
COEFF_BIT_GUARD = 4096


def degrevlex_key(m: Monomial) -> tuple:
    """Sort key: graded, ties broken by reverse lexicographic comparison."""
    return (sum(m), tuple(-e for e in reversed(m)))


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    return tuple(a + b for a, b in zip(m1, m2))


def _mono_divides(m1: Monomial, m2: Monomial) -> bool:
    return all(a <= b for a, b in zip(m1, m2))


def _mono_div(m1: Monomial, m2: Monomial) -> Monomial:
    return tuple(a - b for a, b in zip(m1, m2))


def _mono_lcm(m1: Monomial, m2: Monomial) -> Monomial:
    return tuple(max(a, b) for a, b in zip(m1, m2))


class Polynomial:
    """Sparse polynomial: {exponent tuple: nonzero Fraction coefficient}."""

    __slots__ = ("names", "terms")

    def __init__(self, names: Sequence[str], terms: Optional[dict] = None):
        self.names = tuple(names)
        clean = {}
        if terms:
            for exps, coeff in terms.items():
                coeff = rat(coeff)
                if coeff:
                    if len(exps) != len(self.names):
                        raise ValueError("exponent vector does not match variable count")
                    clean[tuple(exps)] = coeff
        self.terms = clean

    @classmethod
    def zero(cls, names: Sequence[str]) -> "Polynomial":
        return cls(names)

    @classmethod
    def const(cls, names: Sequence[str], c) -> "Polynomial":
        return cls(names, {(0,) * len(names): rat(c)})

    @classmethod
    def variable(cls, names: Sequence[str], i: int) -> "Polynomial":
        exps = [0] * len(names)
        exps[i] = 1
        return cls(names, {tuple(exps): ONE})

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        return max((sum(m) for m in self.terms), default=0)

    def lead(self) -> tuple[Monomial, Fraction]:
        m = max(self.terms, key=degrevlex_key)
        return m, self.terms[m]

    def __add__(self, other: "Polynomial") -> "Polynomial":
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, ZERO) + c
        return Polynomial(self.names, out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, ZERO) - c
        return Polynomial(self.names, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.names, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            c = rat(other)
            return Polynomial(self.names, {m: c * x for m, x in self.terms.items()})
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                out[m] = out.get(m, ZERO) + c1 * c2
        return Polynomial(self.names, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        out = Polynomial.const(self.names, 1)
        for _ in range(k):
            out = out * self
        return out

    def term_mul(self, mono: Monomial, coeff: Fraction) -> "Polynomial":
        return Polynomial(
            self.names, {_mono_mul(m, mono): c * coeff for m, c in self.terms.items()}
        )

    def monic(self) -> "Polynomial":
        if self.is_zero():
            return self
        _, lc = self.lead()
        return self * (ONE / lc)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.names == other.names
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.names, tuple(sorted(self.terms.items()))))

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for m in sorted(self.terms, key=degrevlex_key, reverse=True):
            c = self.terms[m]
            factors = [
                f"{self.names[i]}^{e}" if e > 1 else self.names[i]
                for i, e in enumerate(m)
                if e
            ]
            body = "*".join(factors)
            if not body:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{c}*{body}")
        return " + ".join(parts).replace("+ -", "- ")


@dataclass(frozen=True)
class PolySystem:
    """A list of polynomials over a shared variable set (degrevlex order)."""

    polynomials: tuple[Polynomial, ...]
    names: tuple[str, ...]

    def __post_init__(self):
        for p in self.polynomials:
            if p.names != self.names:
                raise ValueError("all polynomials must share the variable set")


@dataclass(frozen=True)
class GroebnerResult:
    basis: Optional[tuple[Polynomial, ...]]
    exhausted: bool
    pairs_reduced: int

    @property
    def trivial(self) -> Optional[bool]:
        """Whether the ideal is all of the ring (None when exhausted)."""
        if self.basis is None:
            return None
        return len(self.basis) == 1 and self.basis[0].total_degree() == 0


class _BudgetExceeded(Exception):
    pass


def normal_form(p: Polynomial, basis: Sequence[Polynomial]) -> Polynomial:
    """Full remainder of p modulo basis (leading and tail terms reduced)."""
    remainder: dict = {}
    work = Polynomial(p.names, dict(p.terms))
    leads = [(g.lead()[0], g.lead()[1], g) for g in basis if not g.is_zero()]
    while not work.is_zero():
        m, c = work.lead()
        reduced = False
        for lm, lc, g in leads:
            if _mono_divides(lm, m):
                work = work - g.term_mul(_mono_div(m, lm), c / lc)
                reduced = True
                break
        if not reduced:
            remainder[m] = c
            del work.terms[m]
        else:
            _check_coeffs(work)
    return Polynomial(p.names, remainder)


def _check_coeffs(p: Polynomial) -> None:
    for c in p.terms.values():
        if c.numerator.bit_length() > COEFF_BIT_GUARD or c.denominator.bit_length() > COEFF_BIT_GUARD:
            raise _BudgetExceeded


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    mf, cf = f.lead()
    mg, cg = g.lead()
    l = _mono_lcm(mf, mg)
    return f.term_mul(_mono_div(l, mf), ONE / cf) - g.term_mul(_mono_div(l, mg), ONE / cg)


def _interreduce(polys: list[Polynomial]) -> list[Polynomial]:
    polys = [p.monic() for p in polys if not p.is_zero()]
    changed = True
    while changed:
        changed = False
        for i in range(len(polys)):
            others = polys[:i] + polys[i + 1 :]
            r = normal_form(polys[i], others)
            if r != polys[i]:
                changed = True
                if r.is_zero():
                    polys = others
                else:
                    polys = others + [r.monic()]
                break
    return sorted(polys, key=lambda p: degrevlex_key(p.lead()[0]))


def buchberger(system: PolySystem, budget: int = DEFAULT_BUDGET) -> GroebnerResult:
    """Reduced Groebner basis in degrevlex, or an exhausted marker.

    `budget` caps the number of S-pairs actually reduced (pairs discarded by
    the coprimality or chain criteria are free); a coefficient-size guard
    also trips the same exhaustion path.
    """
    basis = [p.monic() for p in system.polynomials if not p.is_zero()]
    if not basis:
        return GroebnerResult((), False, 0)
    reduced_count = 0
    try:
        basis = _interreduce(basis)
        if basis and basis[0].total_degree() == 0:
            return GroebnerResult((Polynomial.const(system.names, 1),), False, 0)
        pairs = {(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))}
        done: set[tuple[int, int]] = set()

        def lm(i: int) -> Monomial:
            return basis[i].lead()[0]

        while pairs:
            pair = min(pairs, key=lambda ij: degrevlex_key(_mono_lcm(lm(ij[0]), lm(ij[1]))))
            pairs.discard(pair)
            done.add(pair)
            i, j = pair
            l = _mono_lcm(lm(i), lm(j))
            if l == _mono_mul(lm(i), lm(j)):
                continue  # coprime leading monomials
            chain = False
            for k in range(len(basis)):
                if k in pair:
                    continue
                if _mono_divides(lm(k), l):
                    p1 = (min(i, k), max(i, k))
                    p2 = (min(j, k), max(j, k))
                    if p1 in done and p2 in done:
                        chain = True
                        break
            if chain:
                continue
            if reduced_count >= budget:
                return GroebnerResult(None, True, reduced_count)
            reduced_count += 1
            r = normal_form(s_polynomial(basis[i], basis[j]), basis)
            _check_coeffs(r)
            if r.is_zero():
                continue
            if r.total_degree() == 0:
                return GroebnerResult(
                    (Polynomial.const(system.names, 1),), False, reduced_count
                )
            basis.append(r.monic())
            new = len(basis) - 1
            for k in range(new):
                pairs.add((k, new))
        return GroebnerResult(tuple(_interreduce(basis)), False, reduced_count)
    except _BudgetExceeded:
        return GroebnerResult(None, True, reduced_count)


def has_solution(system: PolySystem, budget: int = DEFAULT_BUDGET) -> str:
    """'no' iff 1 lies in the ideal (no solution over the algebraic closure),
    'yes' if the basis completed nontrivially, 'inconclusive' on exhaustion.

    Answers are sound in both directions: a trivial basis exhibits 1 in the
    ideal, and a nontrivial completion is re-certified by reducing every
    S-polynomial to zero before 'yes' is returned.
    """
    result = buchberger(system, budget)
    if result.exhausted:
        return "inconclusive"
    if result.trivial:
        return "no"
    if not is_groebner_basis(result.basis):
        raise AssertionError("completed basis failed its own certificate")
    return "yes"


def is_groebner_basis(basis: Sequence[Polynomial]) -> bool:
    """Certifies a basis: every S-polynomial reduces to zero."""
    for f, g in itertools.combinations(basis, 2):
        if not normal_form(s_polynomial(f, g), basis).is_zero():
            return False
    return True


# ---------------------------------------------------------------------------
# two-dimensional half-action subalgebra detection

@dataclass(frozen=True)
class B2Result:
    answer: str  # "yes" | "no" | "inconclusive"
    witness: Optional[tuple[Vector, Vector]] = None


def check_b2_witness(a: Algebra, e: Sequence[Fraction], y: Sequence[Fraction]) -> bool:
    """e nonzero idempotent, y nonzero, e*y = y/2, y*y = 0."""
    e, y = vec(e), vec(y)
    if is_zero_vec(e) or is_zero_vec(y):
        return False
    return (
        a.mul(e, e) == e
        and a.mul(e, y) == tuple(HALF * c for c in y)
        and is_zero_vec(a.mul(y, y))
    )


def _witness_scan(a: Algebra) -> Optional[tuple[Vector, Vector]]:
    """Look for a rational witness in the half eigenspace of a table idempotent."""
    from .peirce import eigenspace

    small = [rat(c) for c in (1, -1, 2, -2, Fraction(1, 2))]
    for i in range(a.dim):
        e = a.basis_vector(i)
        if a.table[i][i] != e:
            continue
        half_space = eigenspace(a, e, HALF)
        rows = half_space.rows
        candidates: list[Vector] = list(rows)
        for r1, r2 in itertools.combinations(rows, 2):
            for c in small:
                candidates.append(tuple(x + c * y for x, y in zip(r1, r2)))
        for y in candidates:
            if not is_zero_vec(y) and is_zero_vec(a.mul(y, y)):
                return (e, y)
    return None


def embeds_b2(a: Algebra, budget: int = DEFAULT_BUDGET) -> B2Result:
    """Decide, over the algebraic closure, whether a contains e, y with
    e*e = e, e*y = y/2, y*y = 0 and y != 0.

    Strategy: nilpotent algebras contain no nonzero idempotent (e = e*e
    forces e into every right power), so the answer there is 'no' outright.
    Otherwise scan the half eigenspaces of the table idempotents for a
    rational witness; failing that, encode the full system in the 2n
    coordinates of e and y and decide y != 0 through one Rabinowitsch branch
    per coordinate (adjoin t*y_i - 1).  A branch answering 'yes' settles the
    question; 'no' requires every branch to answer 'no'.
    """
    from .invariants import NonJordanError, is_nilpotent

    if not is_jordan(a):
        raise NonJordanError("subalgebra detection requires a Jordan algebra")
    if is_nilpotent(a):
        return B2Result("no")
    witness = _witness_scan(a)
    if witness is not None:
        return B2Result("yes", witness)

    n = a.dim
    names = tuple([f"e{i}" for i in range(n)] + [f"y{i}" for i in range(n)] + ["t"])
    nv = len(names)

    def variable(i: int) -> Polynomial:
        return Polynomial.variable(names, i)

    es = [variable(i) for i in range(n)]
    ys = [variable(n + i) for i in range(n)]
    t = variable(2 * n)

    def product(xs: list[Polynomial], zs: list[Polynomial]) -> list[Polynomial]:
        out = [Polynomial.zero(names) for _ in range(n)]
        for i in range(n):
            for j in range(n):
                entry = a.table[i][j]
                term = xs[i] * zs[j]
                for k in range(n):
                    if entry[k]:
                        out[k] = out[k] + term * entry[k]
        return out

    base: list[Polynomial] = []
    ee = product(es, es)
    ey = product(es, ys)
    yy = product(ys, ys)
    for k in range(n):
        base.append(ee[k] - es[k])
        base.append(ey[k] - ys[k] * HALF)
        base.append(yy[k])

    answers = []
    for i in range(n):
        branch = base + [t * ys[i] - Polynomial.const(names, 1)]
        answers.append(has_solution(PolySystem(tuple(branch), names), budget))
    if "yes" in answers:
        return B2Result("yes")
    if all(ans == "no" for ans in answers):
        return B2Result("no")
    return B2Result("inconclusive")
