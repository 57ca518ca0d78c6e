"""Isomorphism invariants: powers, annihilator, radical, derivations, fingerprints.

The radical is computed as the kernel of the trace form T(x, y) = tr L_{x*y}
(valid in characteristic zero) and then verified rather than trusted: the
returned subspace must be an ideal, its induced algebra nilpotent and the
quotient's trace form nondegenerate.  Any failure raises.

The `Fingerprint` record collects every invariant used to separate algebras,
totally ordered by a fixed field order so fingerprint sets deduplicate
deterministically.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields, is_dataclass

from typing import Optional

from .algebra import (
    Algebra,
    AlgebraError,
    find_identity,
    is_associative,
    is_jordan,
    product_span,
)
from .ratlin import Matrix, Subspace, ZERO, kernel, rank as matrix_rank


class NonJordanError(AlgebraError):
    pass


class NotNilpotentError(AlgebraError):
    pass


class RadicalVerificationError(AlgebraError):
    """The trace-form kernel failed one of its certifying postconditions."""


POWER_DEPTH = 4


def power_chain(a: Algebra, upto: int) -> list[Subspace]:
    """Subspaces J^1..J^upto with J^k = sum_{i+j=k} J^i * J^j."""
    full = Subspace.full(a.dim)
    chain = [full]
    for k in range(2, upto + 1):
        s = Subspace.zero(a.dim)
        for i in range(1, k // 2 + 1):
            s = s.add(product_span(a, chain[i - 1], chain[k - i - 1]))
        chain.append(s)
    return chain


def lcs_chain(a: Algebra, upto: Optional[int] = None) -> list[Subspace]:
    """Right powers J<1>, J<2>, ... until zero or stable (capped at dim+1)."""
    cap = upto if upto is not None else a.dim + 1
    full = Subspace.full(a.dim)
    chain = [full]
    while len(chain) < cap:
        nxt = product_span(a, chain[-1], full)
        chain.append(nxt)
        if nxt.is_zero() or nxt == chain[-2]:
            break
    return chain


@dataclass(frozen=True)
class PowerProfile:
    assoc_dims: tuple[int, ...]
    lcs_dims: tuple[int, ...]
    nilindex: Optional[int]


def power_profile(a: Algebra, lcs: Optional[list[Subspace]] = None) -> PowerProfile:
    """Power dimensions and nilindex; `lcs` is `lcs_chain(a)` if built."""
    assoc = power_chain(a, POWER_DEPTH)
    lcs = lcs_chain(a) if lcs is None else lcs
    nilindex = None
    for k, s in enumerate(lcs, start=1):
        if s.is_zero():
            nilindex = k
            break
    lcs_dims = [s.dim for s in lcs]
    lcs_dims += [lcs_dims[-1]] * (POWER_DEPTH - len(lcs_dims))
    return PowerProfile(
        tuple(s.dim for s in assoc), tuple(lcs_dims[:POWER_DEPTH]), nilindex
    )


def is_nilpotent(a: Algebra) -> bool:
    chain = lcs_chain(a)
    return chain[-1].is_zero()


def nilpotency_type(a: Algebra, lcs: Optional[list[Subspace]] = None) -> tuple[int, ...]:
    """dim(J<i>/J<i+1>) of a nilpotent algebra; `lcs` is `lcs_chain(a)` if built."""
    chain = lcs_chain(a) if lcs is None else lcs
    if not chain[-1].is_zero():
        raise NotNilpotentError("nilpotency type requires a nilpotent algebra")
    dims = [s.dim for s in chain]
    return tuple(dims[i] - dims[i + 1] for i in range(len(dims) - 1) if dims[i] != dims[i + 1])


def annihilator(a: Algebra) -> Subspace:
    """{x : x * J = 0}, the kernel of the stacked left-multiplication operators."""
    n = a.dim
    rows = []
    for j in range(n):
        for k in range(n):
            rows.append([a.table[i][j][k] for i in range(n)])
    return kernel(Matrix.from_rows(rows))


def trace_form(a: Algebra) -> Matrix:
    """Gram matrix T[i][j] = tr L_{b_i * b_j}."""
    n = a.dim
    rows = [[a.trace_of_left_mult(a.table[i][j]) for j in range(n)] for i in range(n)]
    return Matrix.from_rows(rows) if n else Matrix(0, 0, ())


def trace_rank(a: Algebra) -> int:
    return matrix_rank(trace_form(a))


def is_ideal(a: Algebra, s: Subspace) -> bool:
    if s.ambient != a.dim:
        raise AlgebraError("subspace ambient mismatch")
    return s.contains(product_span(a, s, Subspace.full(a.dim)))


def induced_algebra(a: Algebra, s: Subspace) -> Algebra:
    """Structure constants restricted to a subspace closed under the product."""
    prods = {}
    for i, u in enumerate(s.rows):
        for j, v in enumerate(s.rows):
            p = a.mul(u, v)
            if not s.contains_vector(p):
                raise AlgebraError("subspace is not closed under the product")
            prods[(i, j)] = s.coords(p)
    labels = tuple(f"r{i+1}" for i in range(s.dim))
    table = tuple(
        tuple(prods[(i, j)] for j in range(s.dim)) for i in range(s.dim)
    )
    return Algebra(labels, table)


def quotient_algebra(a: Algebra, ideal: Subspace) -> Algebra:
    """Algebra induced on the complement basis (non-pivot coordinates) mod ideal."""
    if not is_ideal(a, ideal):
        raise AlgebraError("quotient requires an ideal")
    pivot_cols = set()
    for r in ideal.rows:
        for c, x in enumerate(r):
            if x:
                pivot_cols.add(c)
                break
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


def radical_split(a: Algebra) -> tuple[Subspace, Algebra, list[Subspace], Algebra]:
    """(rad, rad_alg, rad_lcs, quotient): the radical as the trace form's
    kernel, its induced algebra and that algebra's `lcs_chain`, and the
    quotient algebra it was certified on.

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
    rad_lcs = lcs_chain(rad_alg)
    if not rad_lcs[-1].is_zero():
        raise RadicalVerificationError("trace-form kernel is not nilpotent")
    quot = quotient_algebra(a, rad)
    if trace_rank(quot) != quot.dim:
        raise RadicalVerificationError("quotient trace form is degenerate")
    return rad, rad_alg, rad_lcs, quot


def radical(a: Algebra) -> Subspace:
    """Unique maximal nilpotent ideal, certified as in `radical_split`."""
    return radical_split(a)[0]


def coboundary_int_rows(a: Algebra) -> list[list[int]]:
    """Rows of the coboundary operator delta^1(mu)(x, y) = mu(x)y + x mu(y) - mu(xy).

    Row (r, s) is delta^1 of the unit map mu = E_rs (b_s -> b_r), flattened
    over basis pairs i <= j as in `cohomology.grid_to_vec`, on integer-scaled
    structure constants: every entry carries one structure constant, so the
    scaling is uniform and the rank is unchanged.  The kernel of delta^1 is
    Der J and its image is B2.
    """
    n = a.dim
    _, srows = a._int_structure
    dense = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k, x in srows[i][j]:
                dense[i][j][k] = x
    rows = []
    for r in range(n):
        for s in range(n):
            row: list[int] = []
            for i in range(n):
                for j in range(i, n):
                    v = [0] * n
                    if i == s:
                        for k, x in enumerate(dense[r][j]):
                            v[k] += x
                    if j == s:
                        for k, x in enumerate(dense[i][r]):
                            v[k] += x
                    v[r] -= dense[i][j][s]
                    row.extend(v)
            rows.append(row)
    return rows


def derivation_dim(a: Algebra) -> int:
    """dim Der J = n^2 - rank delta^1: D is a derivation iff delta^1(D) = 0,
    D(xy) = D(x)y + xD(y) on basis pairs.  The rows are the ones B2 is
    spanned by in `cohomology`.  They are ranked with the general `rank`:
    `int_rows_rank` is kept for the cocycle systems, whose work the
    benchmark's `ratlin.int_rows_rank` metrics measure."""
    return a.dim * a.dim - matrix_rank(Matrix.from_rows(coboundary_int_rows(a)))


def centroid_dim(a: Algebra) -> int:
    """dim {T linear : T(xy) = T(x)y}, over all ordered pairs.

    Commutativity makes this the full centroid condition T(xy) = T(x)y =
    xT(y).  The centroid of a decomposable algebra contains the summand
    projections, so this dimension carries the decomposition information
    that the catalog's observation columns record.
    """
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
    return nsq - matrix_rank(Matrix.from_rows(rows))


def annihilator_series(a: Algebra) -> tuple[int, ...]:
    """Cumulative dimensions of the ascending annihilator chain.

    A_1 = Ann(J), A_{k+1}/A_k = Ann(J/A_k); the chain of ideals stabilizes
    and its dimension sequence is an isomorphism invariant.
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
    deduplicate deterministically.  `b2_embeds` is only filled when requested
    (it may run a Groebner computation); `rad_record`, `b2_embeds` and
    `dim_h2` are the deep fields used to separate shallow ties.

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
            return tuple(0 if v is None else v for v in astuple(value))
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


def radical_record(rad_alg: Algebra, rad_lcs: list[Subspace]) -> RadicalRecord:
    pp = power_profile(rad_alg, rad_lcs)
    return RadicalRecord(
        dim=rad_alg.dim,
        assoc_dims=pp.assoc_dims,
        lcs_dims=pp.lcs_dims,
        nilindex=pp.nilindex,
        niltype=nilpotency_type(rad_alg, rad_lcs),
        dim_ann=annihilator(rad_alg).dim,
        dim_der=derivation_dim(rad_alg),
        associative=is_associative(rad_alg),
    )


def fingerprint(a: Algebra, with_b2: bool = False, budget: int = 10000) -> Fingerprint:
    """Assemble the full invariant record of a Jordan algebra.

    Each invariant is computed once: `dim_der` is n^2 - dim B2 (Der J and B2
    are the kernel and image of one coboundary operator), and the radical
    record and the semisimple quotient come from one `radical_split`.
    """
    from .cohomology import cocycle_space

    if not is_jordan(a):
        raise NonJordanError("fingerprints are only defined for Jordan algebras")
    _, rad_alg, rad_lcs, quot = radical_split(a)
    cocycles = cocycle_space(a)
    b2: Optional[str] = None
    if with_b2:
        from .polysolve import embeds_b2

        b2 = embeds_b2(a, budget=budget).answer
    return Fingerprint(
        dim=a.dim,
        power_profile=power_profile(a),
        ann_series=annihilator_series(a),
        unital=find_identity(a) is not None,
        associative=is_associative(a),
        dim_der=a.dim * a.dim - cocycles.b2_dim,
        dim_centroid=centroid_dim(a),
        dim_h2=cocycles.h2_dim,
        rad_record=radical_record(rad_alg, rad_lcs),
        ss_record=SemisimpleRecord(quot.dim, derivation_dim(quot), is_associative(quot)),
        b2_embeds=b2,
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


def find_first_difference_message(fa: Fingerprint, fb: Fingerprint) -> Optional[str]:
    """Readable statement of the first differing field (drills into records)."""
    return difference_message(first_fingerprint_difference(fa, fb))


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
