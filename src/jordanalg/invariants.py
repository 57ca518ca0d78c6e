"""Isomorphism invariants: powers, annihilator, radical, derivations, fingerprints.

The radical is computed as the kernel of the trace form T(x, y) = tr L_{x*y}
(valid in characteristic zero) and then verified rather than trusted: the
returned subspace must be an ideal, its induced algebra nilpotent and the
quotient's trace form nondegenerate.  Any failure raises.  The trace form,
the induced algebra and the quotient are read off `Algebra._int_structure`,
the last two built by `algebra._from_int_structure`, and the split and its
quotient share one ideal test, kept per algebra, so rad * J is spanned once.

The `Fingerprint` record collects every invariant used to separate algebras,
totally ordered by a fixed field order so fingerprint sets deduplicate
deterministically.  Its fields are isomorphism invariants, so any basis
gives the same record.  Their systems cost more the more nonzero structure
constants a table has, so `fingerprint` reads every field, and `h2_dims`,
the one entry point for H2, reads H2, on `_adapted_table`: the table in a
basis built from the flag of the radical's powers, the radical and the right
powers of J, split into the Peirce grid of an exact idempotent frame, when
it is sparser than the given one.  The radical is its first coordinate
block, and a's radical split is restricted to it.  The frame comes from the
minimal polynomials of sample elements of the semisimple J / rad J: the CRT
idempotents of their rational roots, lifted to orthogonal idempotents of J
(Jacobson, Structure and Representations of Jordan Algebras).  The catalog
bases are graded by such a frame already and are used as they are.  The
public `derivation_dim`, `centroid_dim` and `cocycle_space` work on the
table as given; `derivation_dim` reads the delta^1 echelon of `cohomology`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from itertools import chain, count
from math import gcd, lcm
from operator import mul
from typing import Optional, Sequence

from .algebra import (
    Algebra,
    AlgebraError,
    NonJordanError,
    _from_int_structure,
    _int_change_basis,
    _int_products,
    find_identity,
    is_associative,
    is_commutative,
    is_jordan,
    per_algebra,
    product_span,
)
from .cohomology import CocycleSpace, check_cocycle_cells, coboundary_echelon, cocycle_space
from .ratlin import (
    Matrix,
    Subspace,
    _int_kernel,
    _int_vec,
    _normalize_int_row,
    _pair_echelon,
    _pair_echelon_add,
    _pairs,
    _simple_rational_roots,
    int_rows_rank,
    kernel,
    rank as matrix_rank,
)


class NotNilpotentError(AlgebraError):
    pass


class RadicalVerificationError(AlgebraError):
    """The trace-form kernel failed one of its certifying postconditions."""


POWER_DEPTH = 4


def power_chain(a: Algebra, upto: int) -> list[Subspace]:
    """Subspaces J^1..J^upto with J^k = sum_{i+j=k} J^i * J^j.

    The term J * J^(k-1) is the right power J<k> of `lcs_chain` whenever
    J^(k-1) = J<k-1>: for k = 2 on any table, and on a commutative table,
    where J * J<k-1> = J<k-1> * J, also for k = 3 and 4.  Those terms are
    read from the memoized chain (padded with its last, stable or zero,
    entry) instead of being spanned again.
    """
    lcs = lcs_chain(a)
    reach = 4 if is_commutative(a) else 2
    chain = [Subspace.full(a.dim)]
    for k in range(2, upto + 1):
        if k <= reach:
            s = lcs[min(k, len(lcs)) - 1]
        else:
            s = product_span(a, chain[0], chain[k - 2])
        for i in range(2, k // 2 + 1):
            s = s.add(product_span(a, chain[i - 1], chain[k - i - 1]))
        chain.append(s)
    return chain


@per_algebra
def lcs_chain(a: Algebra) -> tuple[Subspace, ...]:
    """Right powers J<1>, J<2>, ... until zero or stable (capped at dim+1)."""
    full = Subspace.full(a.dim)
    chain = [full]
    while len(chain) <= a.dim:
        nxt = product_span(a, chain[-1], full)
        chain.append(nxt)
        if nxt.is_zero() or nxt == chain[-2]:
            break
    return tuple(chain)


@dataclass(frozen=True)
class PowerProfile:
    assoc_dims: tuple[int, ...]
    lcs_dims: tuple[int, ...]
    nilindex: Optional[int]


def power_profile(a: Algebra) -> PowerProfile:
    """Power dimensions and nilindex."""
    assoc = power_chain(a, POWER_DEPTH)
    lcs_dims = [s.dim for s in lcs_chain(a)]
    nilindex = len(lcs_dims) if is_nilpotent(a) else None  # the chain stops at zero
    lcs_dims += [lcs_dims[-1]] * (POWER_DEPTH - len(lcs_dims))
    return PowerProfile(tuple(s.dim for s in assoc), tuple(lcs_dims[:POWER_DEPTH]), nilindex)


def is_nilpotent(a: Algebra) -> bool:
    """Whether `lcs_chain(a)` ends at zero.  R_x maps J<k> into J<k+1>, so
    on a nilpotent table, commutative or not, every R_{b_m} is nilpotent
    and tr R_{b_m} = sum_k c_km^k is 0: a nonzero trace, read off
    `_int_structure`, answers False before any chain is spanned."""
    srows = a._int_structure[1]
    if any(sum(x for k, row in enumerate(srows) for j, x in row[m] if j == k)
           for m in range(a.dim)):
        return False
    return lcs_chain(a)[-1].is_zero()


def nilpotency_type(a: Algebra) -> tuple[int, ...]:
    """dim(J<i>/J<i+1>) of a nilpotent algebra."""
    if not is_nilpotent(a):
        raise NotNilpotentError("nilpotency type requires a nilpotent algebra")
    dims = [s.dim for s in lcs_chain(a)]
    return tuple(dims[i] - dims[i + 1] for i in range(len(dims) - 1) if dims[i] != dims[i + 1])


def annihilator(a: Algebra) -> Subspace:
    """{x : x * J = 0}, the kernel of the stacked left-multiplication
    operators: row (j, k) holds the k-th coordinate of b_i b_j over i, on
    integer-scaled constants, as the pairs (i, x) of its nonzeros."""
    n = a.dim
    _, srows = a._int_structure
    rows = [[] for _ in range(n * n)]
    for i in range(n):
        for j in range(n):
            for k, x in srows[i][j]:
                rows[j * n + k].append((i, x))
    return Subspace.span(n, _int_kernel(rows, n))


def trace_form(a: Algebra) -> Matrix:
    """Gram matrix T[i][j] = tr L_{b_i * b_j}; tr L_{b_m} = sum_k c[m][k][k]
    and traces extend linearly.  Summed on the integer-scaled constants of
    `_int_structure`: every entry carries two constants, so it is divided by
    den^2 once."""
    n = a.dim
    den, srows = a._int_structure
    traces = [sum(x for k in range(n) for p, x in srows[m][k] if p == k) for m in range(n)]
    den2 = den * den
    return Matrix(n, n, tuple(Fraction(sum(x * traces[p] for p, x in srows[i][j]), den2)
                              for i in range(n) for j in range(n)))


def trace_rank(a: Algebra) -> int:
    return matrix_rank(trace_form(a))


@per_algebra
def is_ideal(a: Algebra, s: Subspace) -> bool:
    """s * J inside s, spanned once per algebra and subspace: the radical
    split and the quotient it builds share one test."""
    if s.ambient != a.dim:
        raise AlgebraError("subspace ambient mismatch")
    return s.contains(product_span(a, s, Subspace.full(a.dim)))


def induced_algebra(a: Algebra, s: Subspace) -> Algebra:
    """Structure constants restricted to a subspace closed under the product.

    The basis is the RREF basis r_i = u_i / lead_i of `s`, u_i its integer
    rows with leading entry lead_i at pivot column p_i.  The rows U_i of
    `_common_lead(s)` all lead with m, and their products are taken on the
    integer-scaled constants, so each is den m^2 r_i r_j; closure is checked
    on those products, and coordinate k of r_i r_j is out[p_k] / (den m^2),
    the RREF rows being zero on each other's pivot columns.
    """
    if s.ambient != a.dim:
        raise AlgebraError("subspace ambient mismatch")
    k = s.dim
    m, rows = _common_lead(s)
    prods = _int_products(a, rows, rows)
    if len(_pair_echelon(map(_pairs, s.int_rows + tuple(prods)))) != k:
        raise AlgebraError("subspace is not closed under the product")
    pivots = s._pivot_cols()
    srows = [[tuple(_pairs([prods[i * k + j][p] for p in pivots])) for j in range(k)]
             for i in range(k)]
    return _from_int_structure(a._int_structure[0] * m * m, srows, [f"r{i+1}" for i in range(k)])


def _common_lead(s: Subspace) -> tuple[int, list[list[int]]]:
    """(m, [(m / lead_i) u_i]): the integer RREF rows u_i of `s` scaled to
    one leading entry m, the lcm of their leads lead_i."""
    leads = [next(filter(None, u)) for u in s.int_rows]
    m = lcm(*leads)
    return m, [[x * (m // lead) for x in u] for u, lead in zip(s.int_rows, leads)]


@per_algebra
def quotient_algebra(a: Algebra, ideal: Subspace) -> Algebra:
    """Algebra induced on the complement basis (non-pivot coordinates) mod
    ideal, in integers: with U_i the rows of `_common_lead(ideal)`, of lead
    m at p_i, the residue of an integer-scaled product v is
    m v - sum v[p_i] U_i, read on the complement columns, over den m."""
    if not is_ideal(a, ideal):
        raise AlgebraError("quotient requires an ideal")
    pivots = ideal._pivot_cols()
    m, rows = _common_lead(ideal)
    comp = [c for c in range(a.dim) if c not in pivots]
    units = [[int(i == c) for i in range(a.dim)] for c in comp]
    table = [[tuple(_pairs([m * v[e] - sum(v[p] * u[e] for u, p in zip(rows, pivots))
                            for e in comp]))
              for v in _int_products(a, [b], units)] for b in units]
    return _from_int_structure(a._int_structure[0] * m, table, [a.labels[c] for c in comp])


@per_algebra
def radical_split(a: Algebra) -> tuple[Subspace, Algebra, Algebra]:
    """(rad, rad_alg, quotient): the radical as the trace form's kernel, its
    induced algebra, and the quotient algebra it was certified on.

    The radical must be an ideal, its induced algebra must be nilpotent, and
    the quotient's trace form must be nondegenerate; any failure raises
    RadicalVerificationError.
    """
    if not is_jordan(a):
        raise NonJordanError("radical is only computed for Jordan algebras")
    rad = kernel(trace_form(a))
    if not is_ideal(a, rad):
        raise RadicalVerificationError("trace-form kernel is not an ideal")
    rad_alg = induced_algebra(a, rad)
    if not is_nilpotent(rad_alg):
        raise RadicalVerificationError("trace-form kernel is not nilpotent")
    quot = quotient_algebra(a, rad)
    if trace_rank(quot) != quot.dim:
        raise RadicalVerificationError("quotient trace form is degenerate")
    return rad, rad_alg, quot


def radical(a: Algebra) -> Subspace:
    """Unique maximal nilpotent ideal, certified as in `radical_split`."""
    return radical_split(a)[0]


def derivation_dim(a: Algebra) -> int:
    """dim Der J: D is a derivation iff delta^1(D) = 0, D(xy) = D(x)y + xD(y)
    on basis pairs, so Der J is the kernel of delta^1 and
    dim Der J = n^2 - dim B2, the pivot count of the one pair-row echelon
    of the delta^1 rows that `cohomology.coboundary_echelon` keeps on the
    algebra and `cohomology.cocycle_space` shares."""
    return a.dim * a.dim - len(coboundary_echelon(a))


def centroid_dim(a: Algebra) -> int:
    """dim {T linear : T(xy) = T(x)y}, over all ordered pairs.

    Commutativity makes this the full centroid condition T(xy) = T(x)y =
    xT(y).  The centroid of a decomposable algebra contains the summand
    projections, so this dimension carries the decomposition information
    that the catalog's observation columns record.
    """
    n = a.dim
    nsq = n * n
    _, srows = a._int_structure
    # row (i, j, k) is coordinate k of T(b_i b_j) - T(b_i) b_j, on
    # integer-scaled constants; the unknown (T b_s)_r is at column r * n + s
    rows = [[0] * nsq for _ in range(n * nsq)]
    for i in range(n):
        for j in range(n):
            ij = (i * n + j) * n
            for m, x in srows[i][j]:
                for k in range(n):
                    rows[ij + k][k * n + m] += x
            for q in range(n):
                for k, x in srows[q][j]:
                    rows[ij + k][q * n + i] -= x
    return nsq - int_rows_rank([r for r in rows if any(r)], nsq)


def annihilator_series(a: Algebra) -> tuple[int, ...]:
    """Cumulative dimensions of the ascending annihilator chain.

    A_1 = Ann(J), A_{k+1}/A_k = Ann(J/A_k); the chain of ideals stabilizes
    and its dimension sequence is an isomorphism invariant.  When
    Ann J = rad J the first quotient is the one `radical_split` keeps.
    """
    dims: list[int] = []
    cur = a
    total = 0
    while cur.dim:
        s = annihilator(cur)
        if s.dim == 0:
            break
        total += s.dim
        dims.append(total)
        cur = quotient_algebra(cur, s)
    return tuple(dims)


# ---------------------------------------------------------------------------
# fingerprints

B2_ORDER = {None: 0, "no": 1, "yes": 2, "inconclusive": 3}


@dataclass(frozen=True)
class RadicalRecord:
    """Depth-one invariants of the radical's induced algebra."""

    dim: int
    assoc_dims: tuple[int, ...]
    lcs_dims: tuple[int, ...]
    nilindex: Optional[int]
    niltype: tuple[int, ...]
    dim_ann: int
    dim_der: int
    associative: bool

    def render(self) -> str:
        nt = ",".join(str(x) for x in self.niltype)
        return (
            f"dim={self.dim} lcs={','.join(str(d) for d in self.lcs_dims)}"
            f" type=({nt}) ann={self.dim_ann} der={self.dim_der}"
            f" assoc={'y' if self.associative else 'n'}"
        )


@dataclass(frozen=True)
class SemisimpleRecord:
    dim: int
    dim_der: int
    associative: bool


@dataclass(frozen=True)
class Fingerprint:
    """Ordered record of isomorphism invariants.

    Field order is fixed; `key()` linearizes it so fingerprints sort and
    deduplicate deterministically.  `fingerprint` leaves `b2_embeds` unset:
    it may run a Groebner computation, so callers that need it attach
    `embeds_b2(a).answer` with `dataclasses.replace`.  `rad_record`,
    `b2_embeds` and `dim_h2` are the deep fields used to separate shallow ties.

    `ann_series` and `dim_centroid` extend the basic record: they carry the
    decomposition-shape information (summand projections live in the
    centroid) without which two pairs of catalog entries are inseparable.
    `dim_ann`, `dim_rad`, `rad_niltype` and `trace_rank` are read from
    `ann_series` and `rad_record`.
    """

    dim: int
    power_profile: PowerProfile
    ann_series: tuple[int, ...]
    unital: bool
    associative: bool
    dim_der: int
    dim_centroid: int
    dim_h2: int
    rad_record: RadicalRecord
    ss_record: SemisimpleRecord
    b2_embeds: Optional[str] = None

    SHALLOW_FIELDS = (
        "dim",
        "power_profile",
        "dim_ann",
        "ann_series",
        "unital",
        "associative",
        "dim_der",
        "dim_centroid",
        "dim_rad",
        "rad_niltype",
        "trace_rank",
        "ss_record",
    )
    DEEP_FIELDS = ("rad_record", "b2_embeds", "dim_h2")

    @property
    def dim_ann(self) -> int:
        return self.ann_series[0] if self.ann_series else 0

    @property
    def dim_rad(self) -> int:
        return self.rad_record.dim

    @property
    def rad_niltype(self) -> tuple[int, ...]:
        return self.rad_record.niltype

    @property
    def trace_rank(self) -> int:
        return self.dim - self.rad_record.dim  # the radical is the trace-form kernel

    def field_key(self, name: str):
        value = getattr(self, name)
        if is_dataclass(value):  # a record: its fields in order, None as 0
            values = (getattr(value, f.name) for f in fields(value))
            return tuple(0 if v is None else v for v in values)
        if name == "b2_embeds":
            return B2_ORDER[value]
        return value

    def key(self) -> tuple:
        return tuple(
            self.field_key(name) for name in self.SHALLOW_FIELDS + self.DEEP_FIELDS
        )

    def render(self) -> str:
        pp = self.power_profile
        nil = str(pp.nilindex) if pp.nilindex is not None else "-"
        nt = ",".join(str(x) for x in self.rad_niltype)
        b2 = self.b2_embeds if self.b2_embeds is not None else "-"
        ann_ser = ",".join(str(x) for x in self.ann_series)
        return (
            f"dim={self.dim}"
            f" pow={','.join(str(d) for d in pp.assoc_dims)}"
            f" lcs={','.join(str(d) for d in pp.lcs_dims)}"
            f" nil={nil}"
            f" ann={self.dim_ann}"
            f" annser=({ann_ser})"
            f" unital={'y' if self.unital else 'n'}"
            f" assoc={'y' if self.associative else 'n'}"
            f" der={self.dim_der}"
            f" centroid={self.dim_centroid}"
            f" rad={self.dim_rad}"
            f" radtype=({nt})"
            f" trrank={self.trace_rank}"
            f" h2={self.dim_h2}"
            f" rad[{self.rad_record.render()}]"
            f" ss=({self.ss_record.dim},{self.ss_record.dim_der},"
            f"{'y' if self.ss_record.associative else 'n'})"
            f" b2={b2}"
        )


def radical_record(rad_alg: Algebra) -> RadicalRecord:
    pp = power_profile(rad_alg)
    return RadicalRecord(
        dim=rad_alg.dim,
        assoc_dims=pp.assoc_dims,
        lcs_dims=pp.lcs_dims,
        nilindex=pp.nilindex,
        niltype=nilpotency_type(rad_alg),
        dim_ann=annihilator(rad_alg).dim,
        dim_der=derivation_dim(rad_alg),
        associative=is_associative(rad_alg),
    )


def _nonzero_constants(a: Algebra) -> int:
    return _count_constants(a._int_structure[1])


def _count_constants(srows) -> int:
    return sum(len(entry) for row in srows for entry in row)


def _lift_idempotent(a: Algebra, start: Sequence[Fraction]) -> tuple[list[int], int]:
    """(E, d) with e = E / d the idempotent that e -> 3e^2 - 2e^3 reaches
    from `start`, on the integer-scaled constants.

    When z = e^2 - e lies in the radical, the next e has error z^2 (4z - 3)
    in the associative subalgebra Q[e] (Jordan algebras are power
    associative), and a proper radical is nilpotent of index at most dim,
    so dim.bit_length() steps reach an idempotent.  The iteration stops
    after dim.bit_length() + 1 rounds: past that the start was not the lift
    of an idempotent of J / rad J, and RadicalVerificationError is raised.
    """
    den = a._int_structure[0]
    d, e = _int_vec(start)
    for _ in range(a.dim.bit_length() + 1):
        e2 = _int_products(a, [e], [e])[0]  # den d^2 e^2
        if e2 == [den * d * x for x in e]:
            return e, d
        e3 = _int_products(a, [e2], [e])[0]  # den^2 d^3 e^3
        e = [3 * den * d * x - 2 * y for x, y in zip(e2, e3)]
        d = den * den * d ** 3
        g = gcd(d, *e)
        e, d = [x // g for x in e], d // g
    raise RadicalVerificationError("an idempotent of J / rad J did not lift to an idempotent")


# the sample elements of `_quotient_frame` after the basis vectors: this
# many small integer combinations, drawn like the first one from the seed
FRAME_SAMPLES = 8
FRAME_SEED = "jordanalg-frame"


def _minimal_polynomial(q: Algebra, u: list[int], du: int, x: list[int]):
    """(m, powers, scales): the minimal polynomial sum m_k t^k of x in q,
    primitive in integers, and P_k = s_k x^k for k < deg m.

    Q[x] is associative (Jordan algebras are power associative).  The
    powers P_0 = du 1 = u, P_1 = x and P_(j+1) = x P_j on the
    integer-scaled constants enter one integer echelon, each with a unit
    tag, until the first relation among them, read off the tag columns.
    """
    n = q.dim
    powers, scales, pivots = [u, x], [du, 1], {}
    for j in count():
        _pair_echelon_add(pivots, chain(_pairs(powers[j]), ((n + j, 1),)))
        if max(pivots) >= n:  # the tagged row reduced to zero on the powers
            tags = pivots[max(pivots)]
            m = [tags.get(n + i, 0) * s for i, s in enumerate(scales[:j + 1])]
            return [c // gcd(*m) for c in m], powers[:j], scales[:j]
        if j:
            powers += _int_products(q, [x], [powers[j]])
            scales.append(scales[j] * q._int_structure[0])


def _quotient_frame(q: Algebra) -> list[list[Fraction]]:
    """Orthogonal idempotents of the semisimple algebra q that sum to its
    unit: the CRT idempotents of Q[x] = Q[t] / (m), m the minimal
    polynomial of a sample element x.

    Each simple rational root r of m (`ratlin._simple_rational_roots`)
    splits off the factor t - r, coprime to the rest of m, and its
    idempotent is g(x) / g(r), g = m / (t - r); the rest, if any, gives
    1 less the others.  A repeated root stays in the rest, which costs
    sparsity only.  The samples are a combination with coefficients up to
    99, then the basis vectors, then FRAME_SAMPLES combinations with
    coefficients up to 2; the one with the most factors is kept.  The
    search ends at the first m that splits into distinct linear factors at
    the largest degree seen: from the first sample on that is the generic
    degree, the most idempotents one element gives, with high probability.
    Where no sample gives two factors (q may have no idempotent but its
    unit, as Q(sqrt 2) has not) the frame is the unit alone.
    """
    n = q.dim
    unit = find_identity(q)
    if n == 1:
        return [list(unit)]
    du, u = _int_vec(unit)
    rng = random.Random(FRAME_SEED)
    samples = [[rng.randint(-99, 99) for _ in range(n)]]
    samples += [[int(i == j) for i in range(n)] for j in range(n)]
    samples += [[rng.randint(-2, 2) for _ in range(n)] for _ in range(FRAME_SAMPLES)]
    best, most, rank = None, 1, 1
    for x in filter(any, samples):
        m, powers, scales = _minimal_polynomial(q, u, du, x)
        rank = max(rank, len(m) - 1)
        roots = _simple_rational_roots(m) if len(m) > 2 else []
        factors = len(roots) + (len(roots) < len(m) - 1)  # the rest is one more
        if factors > most:
            best, most = (m, powers, scales, roots), factors
        if len(roots) == rank:
            break
    if best is None:
        return [list(unit)]
    m, powers, scales, roots = best
    idems = []
    for r in roots:
        g = [Fraction(m[-1])]  # m / (t - r) by synthetic division, highest term first
        for c in m[-2:0:-1]:
            g.append(c + r * g[-1])
        g.reverse()
        gr = sum(c * r ** k for k, c in enumerate(g))
        dw, w = _int_vec([c / (gr * s) for c, s in zip(g, scales)])
        idems.append([Fraction(sum(map(mul, w, col)), dw) for col in zip(*powers)])
    if len(roots) < len(m) - 1:
        idems.append([t - sum(col) for t, col in zip(unit, zip(*idems))])
    return idems


def _frame(a: Algebra) -> tuple[list[list[int]], int]:
    """(F_1 .. F_k, d): pairwise orthogonal idempotents E_i = F_i / d of `a`
    that lift `_quotient_frame` of J / rad J, so that their sum lifts its
    unit.

    Each idempotent of the quotient is put on the non-pivot columns of the
    radical, as in `quotient_algebra`.  E_1 is `_lift_idempotent` of the
    first; E_k is that of the J_0(f) projection (1 - L)(1 - 2L) of the k-th,
    L = L_f, f = E_1 + ... + E_(k-1).  J_0(f) is a subalgebra, so the
    iteration stays in it, and E_k is orthogonal to f, hence to every
    earlier E_i (J_0(f) is the meet of the J_0(E_i)).  No subalgebra is
    built.
    """
    n = a.dim
    den = a._int_structure[0]
    rad, _, quot = radical_split(a)
    pivot_cols = set(rad._pivot_cols())
    comp = [c for c in range(n) if c not in pivot_cols]
    frame, d, total = [], 1, [0] * n
    for idem in _quotient_frame(quot):
        dy, coords = _int_vec(idem)
        y = [0] * n
        for c, v in zip(comp, coords):
            y[c] = v
        if frame:  # k^2 (1 - L)(1 - 2L) y with k = den d, on integers
            k = den * d
            ly = _int_products(a, [total], [y])[0]
            l2y = _int_products(a, [total], [ly])[0]
            y = [k * k * v - 3 * k * w + 2 * z for v, w, z in zip(y, ly, l2y)]
            dy *= k * k
        e, de = _lift_idempotent(a, [Fraction(v, dy) for v in y])
        m = lcm(d, de)
        frame = [[v * (m // d) for v in f] for f in frame] + [[v * (m // de) for v in e]]
        total, d = list(map(sum, zip(*frame))), m
    return frame, d


def _flag(a: Algebra) -> list[Subspace]:
    """The right powers of rad J (`lcs_chain` of the radical's induced
    algebra, read back through the RREF rows of rad) smallest first, rad J,
    then the rest of `lcs_chain(a)` smallest first, the zero space left
    out: so the first dim rad rows that `_adapted_basis` keeps span rad."""
    rad, rad_alg, _ = radical_split(a)
    cols = list(zip(*_common_lead(rad)[1]))
    # the rows of rad are zero on each other's pivot columns, so the RREF
    # rows of a power, taken through them and divided by their content, are
    # the power's canonical rows in J
    powers = [Subspace(a.dim, tuple(tuple(_normalize_int_row([sum(map(mul, w, c)) for c in cols]))
                                    for w in s.int_rows)) for s in lcs_chain(rad_alg)[1:]]
    return [s for s in dict.fromkeys((*powers[::-1], rad, *lcs_chain(a)[::-1])) if s.dim]


def _graded_by_idempotents(a: Algebra) -> bool:
    """Whether the idempotent basis vectors are pairwise orthogonal, send
    every basis vector b_k to 0, b_k / 2 or b_k, and sum to the unit of
    J / rad J modulo the radical: then, with a radical spanned by basis
    vectors, a's own basis is split by the Peirce grid of a frame.  Read
    off `_int_structure`.  The sum s then sends b_k to a multiple of b_k,
    and the b_k off the pivot columns of rad give a basis of J / rad J, as
    in `quotient_algebra`, so s is its unit iff each of them is fixed."""
    den, srows = a._int_structure
    idem = {i for i, row in enumerate(srows) if row[i] == ((i, den),)}
    for i in idem:
        for k, entry in enumerate(srows[i]):
            if entry and (k in idem and k != i or len(entry) != 1 or entry[0][0] != k
                          or 2 * entry[0][1] not in (den, 2 * den)):
                return False
    pivot_cols = set(radical_split(a)[0]._pivot_cols())
    return all(sum(x for i in idem for _, x in srows[i][k]) == den
               for k in range(a.dim) if k not in pivot_cols)


def _adapted_basis(a: Algebra) -> Optional[list[list[int]]]:
    """A basis of `a` adapted to its flag of ideals and to the Peirce grid
    of an idempotent frame, as primitive integer vectors in a's
    coordinates, or None when a's own basis, up to order, is adapted
    already.

    The flag is `_flag(a)`.  Its primitive integer RREF rows are read in
    order, ending with those of J = J<1>, the unit vectors, and a row is
    kept when it is independent of those kept before it (one incremental
    integer echelon).  The basis is None when every kept row is a unit
    vector and either dim J / rad J <= 1 or a's idempotent basis vectors
    grade it (`_graded_by_idempotents`); a nilpotent table keeps those
    rows.  Otherwise the frame E_1 .. E_k of `_frame(a)` splits each row r
    into its Peirce grid pieces.  With E_0 for 1 - (E_1 + ... + E_k), so
    L_0 = 1 - L_1 - ... - L_k, the piece in J_ij, i <= j, is
    L_i (2 L_i - 1) r for i = j and 4 L_i L_j r otherwise; the L_i commute,
    the E_i being orthogonal.  The pieces of the rows of the proper flag
    ideals are read, then the E_i, then the pieces of the unit vectors, and
    the independent ones are kept as before, reading stopping at dim a of
    them.  With E_i = F_i / d and k = den d, k L_i r and k^2 L_i L_j r are
    the integer products F_i r and F_i (F_j r) of `_int_products`, so no
    matrix of an L_i is built.  A frame of one, the unit lifted from
    J / rad J, cuts each row into its pieces in J_1, J_1/2 and J_0.
    """
    n = a.dim
    quot = radical_split(a)[2]
    flag = _flag(a)
    kept = _independent_rows((r for s in flag for r in s.int_rows), n)
    if all(sum(map(bool, row)) == 1 for row in kept) and (
            quot.dim <= 1 or _graded_by_idempotents(a)):
        return None
    if not quot.dim:  # a nilpotent table has no unit to lift
        return kept
    frame, d = _frame(a)
    k = a._int_structure[0] * d
    size = len(frame)

    def pieces(rows):
        for r in rows:
            ls = _int_products(a, frame, [r])  # k L_i r
            lls = _int_products(a, frame, ls)  # k^2 L_i L_j r at i * size + j
            # k^2 L_i L_s r for L_s = L_1 + ... + L_k = 1 - L_0
            lss = [list(map(sum, zip(*lls[i * size:(i + 1) * size]))) for i in range(size)]
            for i in range(size):
                yield [2 * y - k * x for x, y in zip(ls[i], lls[i * size + i])]
                for j in range(i + 1, size):
                    yield [4 * y for y in lls[i * size + j]]
            for i in range(size):
                yield [4 * (k * x - y) for x, y in zip(ls[i], lss[i])]
            yield [k * k * z - 3 * k * x + 2 * y
                   for z, x, y in zip(r, map(sum, zip(*ls)), map(sum, zip(*lss)))]

    units = ([int(i == j) for i in range(n)] for j in range(n))
    proper = (r for s in flag if s.dim < n for r in s.int_rows)
    return _independent_rows(chain(pieces(proper), frame, pieces(units)), n)


def _independent_rows(rows, n: int) -> list[list[int]]:
    """The rows independent of those before them, each divided by its
    content, up to n of them (one incremental integer echelon)."""
    pivots: dict[int, dict[int, int]] = {}
    kept = []
    for row in rows:
        if _pair_echelon_add(pivots, _pairs(row)):
            kept.append(_normalize_int_row(list(row)))
            if len(kept) == n:
                break
    return kept


@per_algebra
def _sparser_table(a: Algebra) -> Optional[Algebra]:
    """`a` in the basis of `_adapted_basis` when that table has fewer nonzero
    structure constants than a's own, else None (never `a`, whose memo would
    then hold `a`: a reference cycle).  The constants of the candidate are
    counted on `algebra._int_change_basis` before any Fraction is built,
    and only a sparser table becomes an `Algebra`.  The two are isomorphic,
    so every invariant of one is that of the other, and the new table takes
    a's Jordan verdict instead of a second scan.  It takes a's radical
    split too: the first r = dim rad rows of the basis span rad J (`_flag`),
    so rad is the span of b's first r basis vectors, checked to be an
    ideal, its induced algebra the constants with i, j < r and the quotient
    those with i, j >= r, as `radical_split` builds them.  Its lcs chain is
    a's, each space's rows carried into b's coordinates by the inverse of
    the basis change and spanned again, so that each stays canonical."""
    rows = _adapted_basis(a)
    if rows is None:
        return None
    den, srows, qrows = _int_change_basis(a, rows)
    if _count_constants(srows) >= _nonzero_constants(a):
        return None
    n, r = a.dim, radical_split(a)[0].dim
    if any(k >= r for row in srows[:r] for entry in row for k, _ in entry):
        raise RadicalVerificationError("the radical is not a coordinate ideal of the table")
    b = _from_int_structure(den, srows, tuple(f"b{i+1}" for i in range(n)))
    b.__dict__["_jordan_defect"] = a._jordan_defect  # b is a in another basis
    rad = Subspace(n, Subspace.full(n).int_rows[:r])
    rad_alg = _from_int_structure(den, [row[:r] for row in srows[:r]],
                                  [f"r{i+1}" for i in range(r)])
    quot = _from_int_structure(den, [[tuple((k - r, x) for k, x in entry if k >= r)
                                      for entry in row[r:]] for row in srows[r:]], b.labels[r:])
    radical_split.seed(b, (rad, rad_alg, quot))
    is_ideal.seed(b, True, rad)
    quotient_algebra.seed(b, quot, rad)
    lcs_chain.seed(b, tuple(s if s.dim in (0, n) else Subspace.span(
        n, [[sum(x * v[k] for k, x in q) for q in qrows] for v in s.int_rows])
        for s in lcs_chain(a)))
    return b


def _adapted_table(a: Algebra) -> Algebra:
    """`_sparser_table(a)` if there is one, else `a`."""
    return _sparser_table(a) or a


def h2_dims(a: Algebra) -> CocycleSpace:
    """`cocycle_space` of `_adapted_table(a)`: the same dimensions as on `a`,
    from a sparser system.  A table too large for it, then a non-Jordan
    table, is refused before the radical split."""
    check_cocycle_cells(a)
    if not is_jordan(a):
        raise NonJordanError("cocycles are only computed for Jordan algebras")
    return cocycle_space(_adapted_table(a))


def fingerprint(a: Algebra) -> Fingerprint:
    """Assemble the invariant record of a Jordan algebra, `b2_embeds` unset.

    Every field is read on b = `_adapted_table(a)`, so `fingerprint(a)` is
    the record of b by construction, and each is computed once: `dim_h2`
    and `dim_der` = n^2 - dim B2 come from `h2_dims`, and the radical and
    semisimple records and the first annihilator quotient when
    Ann J = rad J from the one `radical_split` kept on b.  A table whose
    cocycle system `h2_dims` would refuse is refused first, before any of
    that work.
    """
    check_cocycle_cells(a)
    if not is_jordan(a):
        raise NonJordanError("fingerprints are only defined for Jordan algebras")
    b = _adapted_table(a)
    _, rad_alg, quot = radical_split(b)
    cocycles = h2_dims(a)
    return Fingerprint(
        dim=b.dim,
        power_profile=power_profile(b),
        ann_series=annihilator_series(b),
        unital=find_identity(b) is not None,
        associative=is_associative(b),
        dim_der=b.dim * b.dim - cocycles.b2_dim,
        dim_centroid=centroid_dim(b),
        dim_h2=cocycles.h2_dim,
        rad_record=radical_record(rad_alg),
        ss_record=SemisimpleRecord(quot.dim, derivation_dim(quot), is_associative(quot)),
    )


def first_fingerprint_difference(
    fa: Fingerprint, fb: Fingerprint
) -> Optional[tuple[str, object, object]]:
    """First differing field in the fixed order, shallow fields before deep ones.

    The embedding field only counts as a difference when both sides carry a
    definite yes/no answer; an unfilled or inconclusive value never
    separates two fingerprints.
    """
    for name in Fingerprint.SHALLOW_FIELDS + Fingerprint.DEEP_FIELDS:
        if name == "b2_embeds":
            if (
                fa.b2_embeds in ("yes", "no")
                and fb.b2_embeds in ("yes", "no")
                and fa.b2_embeds != fb.b2_embeds
            ):
                return (name, fa.b2_embeds, fb.b2_embeds)
            continue
        if fa.field_key(name) != fb.field_key(name):
            return (name, getattr(fa, name), getattr(fb, name))
    return None


def difference_message(diff: Optional[tuple[str, object, object]]) -> Optional[str]:
    """Readable statement of a `first_fingerprint_difference` result."""
    if diff is None:
        return None
    name, va, vb = diff
    if is_dataclass(va):
        for f in fields(va):
            sa, sb = getattr(va, f.name), getattr(vb, f.name)
            if sa != sb:
                return f"{name}.{f.name}: {sa} vs {sb}"
    return f"{name}: {va} vs {vb}"
