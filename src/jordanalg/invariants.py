"""Isomorphism invariants: powers, annihilator, radical, derivations, fingerprints.

The radical is computed as the kernel of the trace form T(x, y) = tr L_{x*y}
(valid in characteristic zero) and then verified rather than trusted: the
returned subspace must be an ideal, its induced algebra nilpotent and the
quotient's trace form nondegenerate.  Any failure raises.  The trace form
and the induced algebra are computed on the integer-scaled constants of
`Algebra._int_structure`, and the ideal test is kept per algebra, so the
split and the quotient it builds span rad * J once.

The `Fingerprint` record collects every invariant used to separate algebras,
totally ordered by a fixed field order so fingerprint sets deduplicate
deterministically.  Its fields are isomorphism invariants, so any basis
gives the same record.  The derivation, centroid and H2 systems cost more
the more nonzero structure constants a table has, so `h2_dims`, the one
entry point for H2, and `fingerprint` read them on `_adapted_table`: the
table in a basis built from the radical and the right powers, both already
kept on the algebra, and split into the Peirce spaces of an idempotent
lifted from the unit of J / rad J, when it is sparser than the given one.
The catalog bases are adapted already and are used as they are.  The
public `derivation_dim`, `centroid_dim` and `cocycle_space` work on the
table as given; `derivation_dim` reads the delta^1 echelon of `cohomology`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

from .algebra import (
    Algebra,
    AlgebraError,
    NonJordanError,
    _int_products,
    change_basis,
    find_identity,
    is_associative,
    is_commutative,
    is_jordan,
    per_algebra,
    product_span,
)
from .cohomology import CocycleSpace, check_cocycle_cells, coboundary_echelon, cocycle_space
from .ratlin import (
    ZERO,
    Matrix,
    Subspace,
    _int_echelon,
    _int_echelon_add,
    _int_kernel,
    _int_vec,
    _normalize_int_row,
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
    rows with leading entry lead_i at pivot column p_i.  The products u_i u_j
    are taken on the integer-scaled constants, so each is
    den lead_i lead_j r_i r_j; closure is checked on those products, and
    coordinate k of r_i r_j is out[p_k] / (den lead_i lead_j), the RREF rows
    being zero on each other's pivot columns.
    """
    den = a._int_structure[0]
    k = s.dim
    pivots = s._pivot_cols()
    leads = [u[p] for u, p in zip(s.int_rows, pivots)]
    prods = _int_products(a, s.int_rows, s.int_rows)
    if len(_int_echelon(s.int_rows + tuple(prods), a.dim)) != k:
        raise AlgebraError("subspace is not closed under the product")
    table = tuple(
        tuple(tuple(Fraction(prods[i * k + j][p], den * leads[i] * leads[j]) for p in pivots)
              for j in range(k))
        for i in range(k)
    )
    return Algebra(tuple(f"r{i+1}" for i in range(k)), table)


@per_algebra
def quotient_algebra(a: Algebra, ideal: Subspace) -> Algebra:
    """Algebra induced on the complement basis (non-pivot coordinates) mod ideal."""
    if not is_ideal(a, ideal):
        raise AlgebraError("quotient requires an ideal")
    pivot_cols = set(ideal._pivot_cols())
    comp = [c for c in range(a.dim) if c not in pivot_cols]
    labels = tuple(a.labels[c] for c in comp)
    table = []
    for c in comp:
        row = []
        for d in comp:
            residue = ideal.reduce_vector(a.table[c][d])
            row.append(tuple(residue[e] for e in comp))
        table.append(tuple(row))
    return Algebra(labels, tuple(table))


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
    Ann J = rad J the first quotient is the one `radical_split` builds.
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
    return sum(len(entry) for row in a._int_structure[1] for entry in row)


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
    raise RadicalVerificationError("the unit of J / rad J did not lift to an idempotent")


def _lifted_unit(a: Algebra) -> tuple[list[int], int]:
    """`_lift_idempotent` of the unit of J / rad J, put on the non-pivot
    columns of the radical as in `quotient_algebra`.  J / rad J is
    semisimple, so it has a unit unless it is zero."""
    rad, _, quot = radical_split(a)
    unit = find_identity(quot)
    if unit is None:
        raise RadicalVerificationError("J / rad J has no unit")
    pivot_cols = set(rad._pivot_cols())
    start = [ZERO] * a.dim
    for c, x in zip([c for c in range(a.dim) if c not in pivot_cols], unit):
        start[c] = x
    return _lift_idempotent(a, start)


def _adapted_basis(a: Algebra) -> Optional[Matrix]:
    """A basis of `a` adapted to its flag of ideals and to the Peirce
    decomposition of a lifted unit, as the columns of a matrix in a's
    coordinates, or None when a's own basis, up to order, is adapted to
    the flag.

    The flag is the radical of `radical_split` and the right powers of
    `lcs_chain`, in order of dimension.  Their primitive integer RREF rows
    are read in that order, ending with those of J<1> = J, the unit
    vectors, and a row is kept when it is independent of those kept before
    it (one incremental integer echelon).  The basis is None when every
    kept row is a unit vector.  A nilpotent table keeps those rows.
    Otherwise e = `_lifted_unit(a)` splits each proper flag ideal into its
    Peirce spaces J_1(e), J_1/2(e) and J_0(e): the projections
    k^2 L(2L - 1), 4 k^2 L(1 - L) and k^2 (1 - L)(1 - 2L), L = L_e, of each
    ideal's rows r are read, then e and the unit vectors, and the
    independent ones kept as before.  With e = E / d and k = den d, k L r
    and k^2 L^2 r are the integer products E r and E (E r) that
    `_int_products` gives, so no matrix of L_e is built.
    """
    n = a.dim
    rad, _, quot = radical_split(a)
    flag = sorted((rad,) + lcs_chain(a), key=lambda s: s.dim)
    kept = _independent_rows((r for s in flag for r in s.int_rows), n)
    if all(sum(map(bool, row)) == 1 for row in kept):
        return None
    if quot.dim:  # a nilpotent table has no unit to lift
        e, d = _lifted_unit(a)
        k = a._int_structure[0] * d
        rows = [r for s in flag if s.dim < n for r in s.int_rows]
        mrs = _int_products(a, [e], rows)  # k L r
        m2rs = _int_products(a, [e], mrs)  # k^2 L^2 r
        projected = []
        for r, mr, m2r in zip(rows, mrs, m2rs):
            projected += ([2 * y - k * x for x, y in zip(mr, m2r)],
                          [4 * (k * x - y) for x, y in zip(mr, m2r)],
                          [k * k * z - 3 * k * x + 2 * y for x, y, z in zip(mr, m2r, r)])
        # then e and the rows of J<1> = J, the unit vectors
        kept = _independent_rows(projected + [e] + list(flag[-1].int_rows), n)
    return Matrix.from_rows(list(zip(*kept)))


def _independent_rows(rows, n: int) -> list[list[int]]:
    """The rows independent of those before them, each divided by its
    content, up to n of them (one incremental integer echelon)."""
    pivots: dict[int, list[int]] = {}
    kept = []
    for row in rows:
        if _int_echelon_add(pivots, row, n):
            kept.append(_normalize_int_row(list(row)))
            if len(kept) == n:
                break
    return kept


@per_algebra
def _sparser_table(a: Algebra) -> Optional[Algebra]:
    """`a` in the basis of `_adapted_basis` when that table has fewer nonzero
    structure constants than a's own, else None (never `a`, whose memo would
    then hold `a`: a reference cycle).  The two are isomorphic, so every
    invariant of one is that of the other, and the new table takes a's
    Jordan verdict instead of a second scan."""
    p = _adapted_basis(a)
    if p is None:
        return None
    b = change_basis(a, p)
    b.__dict__["_jordan_defect"] = a._jordan_defect  # b is a in another basis
    return b if _nonzero_constants(b) < _nonzero_constants(a) else None


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

    Each invariant is computed once: `dim_h2` and `dim_der` = n^2 - dim B2
    come from `h2_dims`, `dim_centroid` is read on the same
    `_adapted_table(a)`, and the radical record, the semisimple quotient
    and the first annihilator quotient when Ann J = rad J come from the one
    `radical_split` kept on the algebra.  A table whose cocycle system
    `h2_dims` would refuse is refused first, before any of that work.
    """
    check_cocycle_cells(a)
    if not is_jordan(a):
        raise NonJordanError("fingerprints are only defined for Jordan algebras")
    _, rad_alg, quot = radical_split(a)
    cocycles = h2_dims(a)
    return Fingerprint(
        dim=a.dim,
        power_profile=power_profile(a),
        ann_series=annihilator_series(a),
        unital=find_identity(a) is not None,
        associative=is_associative(a),
        dim_der=a.dim * a.dim - cocycles.b2_dim,
        dim_centroid=centroid_dim(_adapted_table(a)),
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
