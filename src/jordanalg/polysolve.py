"""Multivariate polynomials over Q and a budgeted Buchberger completion.

A polynomial is stored as its integer numerators over one positive
denominator, the lcm of the denominators of its coefficients; its Fraction
coefficients are made only when they are read.  Existence questions over
the algebraic closure reduce to ideal triviality: a polynomial system is
solvable over the closure iff its reduced Groebner basis is not {1}.  The
completion is budgeted (a maximum number of S-pair reductions plus a
coefficient-size guard) so blowups surface as an explicit "exhausted"
outcome, with its reason, instead of a hang; answers, when produced, are
exact.  Pending S-pairs wait in a heap keyed once on the lcm of their lead
monomials, and reduction runs on the integer numerators.

The only consumer beyond the generic solver is `embeds_b2`, which decides
whether an algebra contains a subalgebra spanned by an idempotent e and a
nonzero y with e*y = y/2 and y*y = 0.  Those two equations are homogeneous
in y, so y != 0 is decided in affine charts (y_i = 1, y_j = 0 for j < i)
rather than by adjoining a new variable for the inverse of y_i (the
Rabinowitsch trick): a chart has fewer variables than the system, not more.
`b2_chart_system` writes each chart on the integer-scaled structure
constants, so no Fraction is made on the way to `buchberger`.
An associative table needs no chart: there e*y = y/2 gives
y/2 = (e*e)*y = e*(e*y) = y/4, so y = 0.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add, le, neg, sub
from typing import Optional, Sequence

from .algebra import Algebra, NonJordanError, is_associative, is_jordan
from .invariants import is_nilpotent
from .peirce import eigenspace
from .ratlin import HALF, ONE, Vector, _int_vec, is_zero_vec, rat, vec

Monomial = tuple[int, ...]

DEFAULT_BUDGET = 10000
COEFF_BIT_GUARD = 4096


def degrevlex_key(m: Monomial) -> tuple:
    """Sort key: graded, ties broken by reverse lexicographic comparison."""
    return (sum(m), tuple(map(neg, reversed(m))))


def _descending(m: Monomial) -> tuple:
    """Sort key that puts the degrevlex-larger monomial first."""
    return (-sum(m), m[::-1])


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    return tuple(map(add, m1, m2))


def _mono_divides(m1: Monomial, m2: Monomial) -> bool:
    return all(map(le, m1, m2))


def _mono_div(m1: Monomial, m2: Monomial) -> Monomial:
    return tuple(map(sub, m1, m2))


def _mono_lcm(m1: Monomial, m2: Monomial) -> Monomial:
    return tuple(map(max, m1, m2))


class Polynomial:
    """Sparse polynomial over Q: integer numerators `num` {exponent tuple:
    nonzero int} over one positive `den`, the lcm of the reduced
    denominators of the coefficients, so the form is canonical; equality
    and hashing read it, and `terms` is made from it when first read."""

    __slots__ = ("names", "num", "den", "_terms")

    def __init__(self, names: Sequence[str], terms: Optional[dict] = None):
        """{exponent tuple: coefficient}, the coefficients ints, Fractions
        or strings, scaled by one `_int_vec`; zero coefficients are dropped."""
        self.names = tuple(names)
        items = [(tuple(m), rat(c)) for m, c in terms.items()] if terms else []
        if any(c and len(m) != len(self.names) for m, c in items):
            raise ValueError("exponent vector does not match variable count")
        self.den, nums = _int_vec([c for _, c in items])
        self.num = {m: x for (m, _), x in zip(items, nums) if x}
        self._terms = None

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

    @classmethod
    def _of(cls, names: tuple[str, ...], num: dict, den: int = 1) -> "Polynomial":
        """Wrap a form that is already canonical: nonzero ints keyed by
        exponent tuples of the right length, over a positive den with no
        factor common to all of them."""
        p = cls.__new__(cls)
        p.names, p.num, p.den, p._terms = names, num, den, None
        return p

    @classmethod
    def _lowest(cls, names: tuple[str, ...], num: dict, den: int) -> "Polynomial":
        """num / den, den positive, in the canonical form: zero numerators
        dropped and the common factor divided out."""
        num = {m: x for m, x in num.items() if x}
        h = gcd(den, *num.values())
        return cls._of(names, {m: x // h for m, x in num.items()}, den // h)

    @property
    def terms(self) -> dict:
        """{exponent tuple: nonzero Fraction coefficient}, made on first read."""
        if self._terms is None:
            self._terms = {m: Fraction(x, self.den) for m, x in self.num.items()}
        return self._terms

    def is_zero(self) -> bool:
        return not self.num

    def total_degree(self) -> int:
        return max((sum(m) for m in self.num), default=0)

    def lead(self) -> tuple[Monomial, Fraction]:
        m = min(self.num, key=_descending)
        return m, Fraction(self.num[m], self.den)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        den = lcm(self.den, other.den)
        out = {m: x * (den // self.den) for m, x in self.num.items()}
        k = den // other.den
        for m, x in other.num.items():
            out[m] = out.get(m, 0) + k * x
        return Polynomial._lowest(self.names, out, den)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + -other

    def __neg__(self) -> "Polynomial":
        return Polynomial._of(self.names, {m: -x for m, x in self.num.items()}, self.den)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            c = rat(other)
            return Polynomial._lowest(self.names, {m: c.numerator * x for m, x in self.num.items()},
                                      c.denominator * self.den)
        out: dict = {}
        for m1, x1 in self.num.items():
            for m2, x2 in other.num.items():
                m = _mono_mul(m1, m2)
                out[m] = out.get(m, 0) + x1 * x2
        return Polynomial._lowest(self.names, out, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        out = Polynomial.const(self.names, 1)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.names == other.names
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self):
        return hash((self.names, self.den, frozenset(self.num.items())))

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
    """`reason` says why an exhausted completion stopped: "budget" (the
    S-pair budget ran out) or "coeff_bits" (a coefficient outgrew
    `COEFF_BIT_GUARD`); it is None when the completion finished."""

    basis: Optional[tuple[Polynomial, ...]]
    pairs_reduced: int
    reason: Optional[str] = None

    @property
    def exhausted(self) -> bool:
        return self.reason is not None

    @property
    def trivial(self) -> Optional[bool]:
        """Whether the ideal is all of the ring (None when exhausted)."""
        if self.basis is None:
            return None
        return len(self.basis) == 1 and self.basis[0].total_degree() == 0


class _CoeffBitsExceeded(Exception):
    pass


# Inside the completion a polynomial is a dict {monomial: integer} over one
# positive denominator, as `Polynomial.num` and `Polynomial.den` are, so
# reduction multiplies integers and makes no Fraction.
# A basis element is kept as its Lead (lm, support, tail, d): the monic
# polynomial lm - sum(x * m for m, x in tail) / d, with `support` the
# bitmask of the variables in lm.  Reducing c*m by it adds c * (m/lm) * tail/d.
Lead = tuple[Monomial, int, tuple[tuple[Monomial, int], ...], int]


def _support(m: Monomial) -> int:
    return sum(1 << k for k, e in enumerate(m) if e)


def _lead(terms: dict) -> Lead:
    """The Lead of the monic multiple of a nonzero integer polynomial."""
    lm = min(terms, key=_descending)
    lc = terms[lm]
    sign = -1 if lc > 0 else 1
    tail = {m: sign * x for m, x in terms.items() if m != lm}
    d = abs(lc)
    h = gcd(d, *tail.values())
    return lm, _support(lm), tuple((m, x // h) for m, x in tail.items()), d // h


def _leads(basis: Sequence[Polynomial]) -> list[Lead]:
    return [_lead(g.num) for g in basis if g.num]


def _monic(g: Lead, names: tuple[str, ...]) -> Polynomial:
    """The monic polynomial of g, whose form is canonical since its Lead
    has no factor common to d and the tail."""
    lm, _, tail, d = g
    return Polynomial._of(names, {lm: d, **{m: -x for m, x in tail}}, d)


def _reduce(terms: dict, den: int, leads: Sequence[Lead]) -> tuple[dict, int]:
    """Full remainder of terms / den modulo leads, dividing each term by the
    first lead whose monomial divides it; the remainder is again a dict of
    integers over a denominator.

    The terms wait in a heap on (-degree, reversed exponents), whose least
    entry is the degrevlex-largest monomial.  A popped term never comes
    back, since reducing it adds only smaller monomials, so an irreducible
    one just stays in the dict as part of the remainder, and an entry whose
    term has cancelled is skipped.  After each step the numerators and the
    denominator are divided by their common factor, and each coefficient
    the step wrote is held to `COEFF_BIT_GUARD`.
    """
    work = dict(terms)
    heap = [(-sum(m), m[::-1], m) for m in work]
    heapq.heapify(heap)
    while heap:
        m = heapq.heappop(heap)[2]
        a = work.get(m)
        if a is None:
            continue
        outside = ~_support(m)
        for lm, mask, tail, d in leads:
            if not mask & outside and _mono_divides(lm, m):
                del work[m]
                # work += (a / den) * x^q * tail / d, over den * scale
                h = gcd(a, d)
                a, scale = a // h, d // h
                if scale != 1:
                    den *= scale
                    for t in work:
                        work[t] *= scale
                q = _mono_div(m, lm)
                touched = []
                for gm, x in tail:
                    t = _mono_mul(gm, q)
                    old = work.get(t)
                    if old is None:
                        work[t] = a * x
                        heapq.heappush(heap, (-sum(t), t[::-1], t))
                    elif old + a * x:
                        work[t] = old + a * x
                    else:
                        del work[t]
                        continue
                    touched.append(t)
                h = gcd(den, *work.values())
                if h != 1:
                    den //= h
                    for t in work:
                        work[t] //= h
                _check_coeffs(work, den, touched)
                break
    return work, den


def _check_coeffs(terms: dict, den: int, keys) -> None:
    """Exhaust when some terms[m] / den, m in keys, has a numerator or a
    denominator wider than COEFF_BIT_GUARD bits in lowest terms."""
    bits = max(map(int.bit_length, map(terms.__getitem__, keys)), default=0)
    if max(bits, den.bit_length()) <= COEFF_BIT_GUARD:
        return
    for m in keys:
        h = gcd(terms[m], den)
        if max((terms[m] // h).bit_length(), (den // h).bit_length()) > COEFF_BIT_GUARD:
            raise _CoeffBitsExceeded


def _s_poly(f: Lead, g: Lead) -> tuple[dict, int]:
    """(l/lm_f) f - (l/lm_g) g for monic f, g, l the lcm of their lead
    monomials: the lead terms cancel and the tails remain."""
    l = _mono_lcm(f[0], g[0])
    den = lcm(f[3], g[3])
    terms: dict = {}
    for (lm, _, tail, d), sign in ((f, -1), (g, 1)):
        q, k = _mono_div(l, lm), sign * (den // d)
        for m, x in tail:
            t = _mono_mul(m, q)
            terms[t] = terms.get(t, 0) + k * x
    return {t: x for t, x in terms.items() if x}, den


def _divides_a_term(leads: Sequence[Lead], g: Lead) -> bool:
    """Whether a lead monomial of `leads` divides a term of g."""
    for m in [g[0]] + [m for m, _ in g[2]]:
        outside = ~_support(m)
        if any(not mask & outside and _mono_divides(lm, m) for lm, mask, _, _ in leads):
            return True
    return False


def _interreduce(leads: list[Lead]) -> list[Lead]:
    """Leads of monic polynomials generating the same ideal, none with a term
    that the lead monomial of another divides, sorted by lead monomial.

    Each pass reduces every element by the others in place; passes repeat
    until one changes nothing.  On a Groebner basis this is the reduced
    basis, which is unique.
    """
    leads = list(leads)
    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(leads):
            lm, _, tail, d = leads[i]
            others = leads[:i] + leads[i + 1 :]
            if not _divides_a_term(others, leads[i]):
                i += 1
                continue
            changed = True
            r, _ = _reduce({lm: d, **{m: -x for m, x in tail}}, d, others)
            if r:
                leads[i] = _lead(r)
                i += 1
            else:
                del leads[i]
    return sorted(leads, key=lambda g: degrevlex_key(g[0]))


def buchberger(system: PolySystem, budget: int = DEFAULT_BUDGET) -> GroebnerResult:
    """Reduced Groebner basis in degrevlex, or an exhausted marker.

    `budget` caps the number of S-pairs actually reduced (pairs discarded by
    the coprimality or chain criteria are free); a coefficient-size guard
    also trips the same exhaustion path.  Pending pairs wait in a heap keyed
    on the degrevlex key of the lcm of their lead monomials, computed once
    when the pair is pushed; ties go to the smaller (i, j), so the order of
    reduction, and with it `pairs_reduced`, is deterministic.
    """
    leads = _leads(system.polynomials)
    if not leads:
        return GroebnerResult((), 0)
    one = (Polynomial._of(system.names, {(0,) * len(system.names): 1}),)
    reduced_count = 0
    try:
        leads = _interreduce(leads)
        if not any(leads[0][0]):
            return GroebnerResult(one, 0)
        lms = [g[0] for g in leads]
        queue: list[tuple[tuple, int, int, Monomial]] = []
        done: set[tuple[int, int]] = set()

        def push(i: int, j: int) -> None:
            l = _mono_lcm(lms[i], lms[j])
            if l == _mono_mul(lms[i], lms[j]):
                done.add((i, j))  # coprime leading monomials: S reduces to 0
            else:
                heapq.heappush(queue, (degrevlex_key(l), i, j, l))

        for j in range(1, len(lms)):
            for i in range(j):
                push(i, j)
        while queue:
            _, i, j, l = heapq.heappop(queue)
            done.add((i, j))
            if any(
                k != i and k != j and _mono_divides(lk, l)
                and (min(i, k), max(i, k)) in done and (min(j, k), max(j, k)) in done
                for k, lk in enumerate(lms)
            ):
                continue  # chain criterion
            if reduced_count >= budget:
                return GroebnerResult(None, reduced_count, "budget")
            reduced_count += 1
            r, den = _reduce(*_s_poly(leads[i], leads[j]), leads)
            _check_coeffs(r, den, r)
            if not r:
                continue
            leads.append(_lead(r))
            lms.append(leads[-1][0])
            if not any(lms[-1]):
                return GroebnerResult(one, reduced_count)
            new = len(lms) - 1
            for k in range(new):
                push(k, new)
        basis = tuple(_monic(g, system.names) for g in _interreduce(leads))
        return GroebnerResult(basis, reduced_count)
    except _CoeffBitsExceeded:
        return GroebnerResult(None, reduced_count, "coeff_bits")


def has_solution(system: PolySystem, budget: int = DEFAULT_BUDGET) -> str:
    """'no' iff 1 lies in the ideal (no solution over the algebraic closure),
    'yes' if the basis completed nontrivially, 'inconclusive' on exhaustion.

    Answers are sound in both directions: a trivial basis exhibits 1 in the
    ideal, and a nontrivial completion is re-certified by reducing every
    S-polynomial to zero before 'yes' is returned.
    """
    return _decide(system, budget)[0]


def _decide(system: PolySystem, budget: int) -> tuple[str, GroebnerResult]:
    """`has_solution`'s answer together with the completion behind it."""
    result = buchberger(system, budget)
    if result.exhausted:
        return "inconclusive", result
    if result.trivial:
        return "no", result
    if not is_groebner_basis(result.basis):
        raise AssertionError("completed basis failed its own certificate")
    return "yes", result


def is_groebner_basis(basis: Sequence[Polynomial]) -> bool:
    """Certifies a basis: every S-polynomial reduces to zero."""
    leads = _leads(basis)
    return all(
        not _reduce(*_s_poly(f, g), leads)[0] for f, g in itertools.combinations(leads, 2)
    )


# ---------------------------------------------------------------------------
# two-dimensional half-action subalgebra detection

@dataclass(frozen=True)
class B2Chart:
    """The completion of one affine chart of `embeds_b2`: `label` names the
    basis element whose y-coordinate is set to 1; `reason` is the
    `GroebnerResult.reason` of an inconclusive chart."""

    label: str
    answer: str  # "yes" | "no" | "inconclusive"
    pairs_reduced: int
    reason: Optional[str] = None


@dataclass(frozen=True)
class B2Result:
    answer: str  # "yes" | "no" | "inconclusive"
    witness: Optional[tuple[Vector, Vector]] = None
    charts: tuple[B2Chart, ...] = ()  # in chart order, up to the first "yes"


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
    small = [rat(c) for c in (1, -1, 2, -2, Fraction(1, 2))]
    den, srows = a._int_structure
    for i in range(a.dim):
        if srows[i][i] != ((i, den),):  # b_i b_i = b_i
            continue
        e = a.basis_vector(i)
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


def b2_chart_system(a: Algebra, i: int) -> PolySystem:
    """e*e = e, e*y = y/2 and y*y = 0 on chart i, where y_i = 1 and y_j = 0
    for j < i.  The variables are e_0..e_{n-1} and y_{i+1}..y_{n-1}.  The
    polynomials are written on the integer-scaled constants (den, srows) of
    `_int_structure`: den (e*e - e), 2 den (e*y - y/2) and den y*y, integer
    polynomials over den 1 and positive multiples of the equations, so their
    monic forms are those of the equations themselves."""
    n = a.dim
    den, srows = a._int_structure
    names = tuple([f"e{k}" for k in range(n)] + [f"y{k}" for k in range(i + 1, n)])
    # the variable index of each nonzero y-coordinate; None is the constant y_i = 1
    yvar = {j: (None if j == i else n + j - i - 1) for j in range(i, n)}

    def mono(*variables: Optional[int]) -> Monomial:
        exps = [0] * len(names)
        for v in variables:
            if v is not None:
                exps[v] += 1
        return tuple(exps)

    ee, ey, yy = ([{} for _ in range(n)] for _ in range(3))
    for k in range(n):
        ee[k][mono(k)] = -den
        if k in yvar:
            ey[k][mono(yvar[k])] = -den
    for p in range(n):
        for q in range(n):
            for k, c in srows[p][q]:
                products = [(ee, mono(p, q), c)]
                if q in yvar:  # skip the factors y_q = 0
                    products.append((ey, mono(p, yvar[q]), 2 * c))
                    if p in yvar:
                        products.append((yy, mono(yvar[p], yvar[q]), c))
                for out, m, x in products:
                    out[k][m] = out[k].get(m, 0) + x
    return PolySystem(tuple(Polynomial._of(names, {m: x for m, x in t.items() if x})
                            for k in range(n) for t in (ee[k], ey[k], yy[k])), names)


def embeds_b2(a: Algebra, budget: int = DEFAULT_BUDGET) -> B2Result:
    """Decide, over the algebraic closure, whether a contains e, y with
    e*e = e, e*y = y/2, y*y = 0 and y != 0.

    Strategy: two kinds of table answer 'no' outright.  In an associative
    algebra e*y = y/2 gives y/2 = (e*e)*y = e*(e*y) = y/4, so y = 0;
    associativity is a multilinear identity, so it holds over the closure
    too.  Nilpotent algebras contain no nonzero idempotent (e = e*e forces
    e into every right power).  Otherwise scan the half eigenspaces of the
    table idempotents for a rational witness; failing that, decide the
    system in affine charts.  e*y = y/2 and y*y = 0 are homogeneous in y
    and e*e = e does not involve y, so (e, y) is a solution iff (e, y/y_i)
    is one.  Taking i as the first
    nonzero coordinate of y, a solution with y != 0 exists iff some chart i
    of `b2_chart_system` (y_i = 1, y_j = 0 for j < i) has one.  A chart
    answering 'yes' settles the question; 'no' requires every chart to
    answer 'no'.  Each chart goes to `buchberger` as the integer polynomials
    of `b2_chart_system`, with no Fraction made.  `B2Result.charts` records
    each chart's completion.
    """
    if not is_jordan(a):
        raise NonJordanError("subalgebra detection requires a Jordan algebra")
    if is_associative(a) or is_nilpotent(a):
        return B2Result("no")
    witness = _witness_scan(a)
    if witness is not None:
        return B2Result("yes", witness)

    charts = []
    for i in range(a.dim):
        answer, result = _decide(b2_chart_system(a, i), budget)
        charts.append(B2Chart(a.labels[i], answer, result.pairs_reduced, result.reason))
        if answer == "yes":
            return B2Result("yes", charts=tuple(charts))
    if all(c.answer == "no" for c in charts):
        return B2Result("no", charts=tuple(charts))
    return B2Result("inconclusive", charts=tuple(charts))
