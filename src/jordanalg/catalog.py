"""Catalog files: parsing, resolution and verification.

The format is line oriented and bit exact so the files diff cleanly:

    algebra NAME [= NAME + NAME [+ ...]]
      dim N                 (inline entries)
      basis l1 ... lN       (inline entries)
      li*lj = [c] lk [+ [c] lk ...]     c a rational literal, default 1
      labels l1 ... lN      (sum entries: overrides concatenated labels)
      expect aut K | expect ann K | expect sq K
      expect flags f1 ...   (unitary associative nonassociative nilpotent semisimple)
      expect niltype (a,b,...)
      expect peirce LABEL PLACE     PLACE in {N00, N01, ..., N0, Nhalf, N1}
      expect radical NAME [+ NAME ...]
      expect h2 zero|nonzero|K
      expect b2 yes|no
    end

Omitted products are zero and products are mirrored, so only pairs i <= j
are listed.  Direct-sum entries may only reference previously defined
names.  The recorded `expect` values are transcribed as-is from the source
tables; verification recomputes every invariant and reports disagreements
as errata rather than editing the records.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from .algebra import (
    Algebra,
    AlgebraError,
    commutativity_violation,
    direct_sum,
    find_identity,
    is_associative,
    jordan_violation,
    parse_terms,
)
from .invariants import (
    annihilator,
    derivation_dim,
    fingerprint,
    lcs_chain,
    nilpotency_type,
    power_chain,
    radical_split,
)
from .ratlin import ZERO, zero_vec


class CatalogError(ValueError):
    pass


class CatalogParseError(CatalogError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


FLAG_NAMES = {"unitary", "associative", "nonassociative", "nilpotent", "semisimple"}
PEIRCE_PLACES = {"N0", "Nhalf", "N1"} | {f"N{i}{j}" for i in range(4) for j in range(4) if i <= j}


@dataclass(frozen=True)
class Expected:
    aut: Optional[int] = None
    ann: Optional[int] = None
    sq: Optional[int] = None
    flags: tuple[str, ...] = ()
    niltype: Optional[tuple[int, ...]] = None
    peirce: tuple[tuple[str, str], ...] = ()
    radical_expr: Optional[tuple[str, ...]] = None
    h2: Optional[str] = None
    b2: Optional[str] = None


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    summands: Optional[tuple[str, ...]] = None
    dim: Optional[int] = None
    basis: Optional[tuple[str, ...]] = None
    products: tuple[tuple[str, str, tuple[tuple[Fraction, str], ...]], ...] = ()
    labels_override: Optional[tuple[str, ...]] = None
    expected: Expected = field(default_factory=Expected)


def parse_catalog(text: str) -> list[CatalogEntry]:
    """Parse entries in file order; duplicate names are rejected."""
    entries: list[CatalogEntry] = []
    seen: set[str] = set()
    current: Optional[dict] = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if current is None:
            if not line.startswith("algebra "):
                raise CatalogParseError(line_no, f"expected 'algebra', got {line!r}")
            header = line[len("algebra ") :].strip()
            if "=" in header:
                name, _, rhs = header.partition("=")
                name = name.strip()
                summands = tuple(s.strip() for s in rhs.split("+"))
                if not all(summands):
                    raise CatalogParseError(line_no, "empty summand in sum expression")
            else:
                name, summands = header, None
            if not name or " " in name:
                raise CatalogParseError(line_no, "bad algebra name")
            if name in seen:
                raise CatalogParseError(line_no, f"duplicate algebra name {name!r}")
            seen.add(name)
            current = {
                "name": name,
                "summands": summands,
                "dim": None,
                "basis": None,
                "products": [],
                "labels": None,
                "expected": {"flags": (), "peirce": []},
                "line": line_no,
            }
            continue
        if line == "end":
            entries.append(_finish_entry(current))
            current = None
            continue
        _parse_body_line(current, line, line_no)
    if current is not None:
        raise CatalogParseError(current["line"], f"entry {current['name']!r} missing 'end'")
    return entries


def _parse_body_line(current: dict, line: str, line_no: int) -> None:
    tokens = line.split()
    head = tokens[0]
    if head == "dim":
        if current["summands"] is not None:
            raise CatalogParseError(line_no, "'dim' not allowed in a sum entry")
        if len(tokens) != 2 or not tokens[1].isdigit():
            raise CatalogParseError(line_no, "usage: dim N")
        current["dim"] = int(tokens[1])
    elif head == "basis":
        if current["summands"] is not None:
            raise CatalogParseError(line_no, "'basis' not allowed in a sum entry")
        labels = tuple(tokens[1:])
        if len(set(labels)) != len(labels):
            raise CatalogParseError(line_no, "duplicate basis labels")
        current["basis"] = labels
    elif head == "labels":
        if current["summands"] is None:
            raise CatalogParseError(line_no, "'labels' only allowed in a sum entry")
        labels = tuple(tokens[1:])
        if len(set(labels)) != len(labels):
            raise CatalogParseError(line_no, "duplicate labels")
        current["labels"] = labels
    elif head == "expect":
        _parse_expect(current, tokens[1:], line_no)
    elif "*" in head and "=" in line:
        lhs, _, rhs = line.partition("=")
        la, star, lb = lhs.strip().partition("*")
        if not star or not la.strip() or not lb.strip():
            raise CatalogParseError(line_no, "product line must look like li*lj = ...")
        try:
            terms = tuple(parse_terms(rhs))
        except AlgebraError as exc:
            raise CatalogParseError(line_no, str(exc)) from None
        current["products"].append((la.strip(), lb.strip(), terms, line_no))
    else:
        raise CatalogParseError(line_no, f"unrecognized line {line!r}")


def _parse_expect(current: dict, tokens: list[str], line_no: int) -> None:
    if not tokens:
        raise CatalogParseError(line_no, "empty expect line")
    kind, rest = tokens[0], tokens[1:]
    exp = current["expected"]
    if kind in ("aut", "ann", "sq"):
        if len(rest) != 1 or not rest[0].isdigit():
            raise CatalogParseError(line_no, f"usage: expect {kind} K")
        exp[kind] = int(rest[0])
    elif kind == "flags":
        bad = [f for f in rest if f not in FLAG_NAMES]
        if bad:
            raise CatalogParseError(line_no, f"unknown flags {bad}")
        exp["flags"] = tuple(rest)
    elif kind == "niltype":
        body = "".join(rest)
        if not (body.startswith("(") and body.endswith(")")):
            raise CatalogParseError(line_no, "usage: expect niltype (a,b,...)")
        try:
            exp["niltype"] = tuple(int(x) for x in body[1:-1].split(",") if x)
        except ValueError:
            raise CatalogParseError(line_no, "niltype entries must be integers") from None
    elif kind == "peirce":
        if len(rest) != 2 or rest[1] not in PEIRCE_PLACES:
            raise CatalogParseError(line_no, "usage: expect peirce LABEL PLACE")
        exp["peirce"].append((rest[0], rest[1]))
    elif kind == "radical":
        exp["radical"] = tuple(t for t in "".join(rest).split("+") if t)
        if not exp["radical"]:
            raise CatalogParseError(line_no, "usage: expect radical NAME [+ NAME ...]")
    elif kind == "h2":
        if len(rest) != 1 or not (rest[0] in ("zero", "nonzero") or rest[0].isdigit()):
            raise CatalogParseError(line_no, "usage: expect h2 zero|nonzero|K")
        exp["h2"] = rest[0]
    elif kind == "b2":
        if len(rest) != 1 or rest[0] not in ("yes", "no"):
            raise CatalogParseError(line_no, "usage: expect b2 yes|no")
        exp["b2"] = rest[0]
    else:
        raise CatalogParseError(line_no, f"unknown expect kind {kind!r}")


def _finish_entry(current: dict) -> CatalogEntry:
    exp = current["expected"]
    expected = Expected(
        aut=exp.get("aut"),
        ann=exp.get("ann"),
        sq=exp.get("sq"),
        flags=exp.get("flags", ()),
        niltype=exp.get("niltype"),
        peirce=tuple(exp.get("peirce", [])),
        radical_expr=exp.get("radical"),
        h2=exp.get("h2"),
        b2=exp.get("b2"),
    )
    if current["summands"] is not None:
        return CatalogEntry(
            name=current["name"],
            summands=current["summands"],
            labels_override=current["labels"],
            expected=expected,
        )
    dim = current["dim"]
    basis = current["basis"]
    if dim is None or basis is None:
        raise CatalogParseError(current["line"], f"entry {current['name']!r} needs dim and basis")
    if len(basis) != dim:
        raise CatalogParseError(current["line"], f"entry {current['name']!r}: basis size != dim")
    products = []
    seen_pairs = set()
    for la, lb, terms, line_no in current["products"]:
        for _, lc in terms:
            if lc not in basis:
                raise CatalogParseError(line_no, f"unknown label {lc!r} in product")
        if la not in basis or lb not in basis:
            raise CatalogParseError(line_no, f"unknown label in product {la}*{lb}")
        pair = (la, lb) if la <= lb else (lb, la)
        if pair in seen_pairs:
            raise CatalogParseError(line_no, f"product {la}*{lb} listed twice")
        seen_pairs.add(pair)
        products.append((la, lb, terms))
    return CatalogEntry(
        name=current["name"],
        dim=dim,
        basis=basis,
        products=tuple(products),
        expected=expected,
    )


def resolve(entry: CatalogEntry, env: dict[str, Algebra]) -> Algebra:
    """Entry -> Algebra; sum entries resolve against previously defined names."""
    if entry.summands is not None:
        try:
            alg = resolve_expr(entry.summands, env)
        except CatalogError as exc:
            raise CatalogError(f"{entry.name}: {exc}") from None
        labels = entry.labels_override
        if labels is None:
            return alg
        if len(labels) != alg.dim:
            raise CatalogError(f"{entry.name}: labels line has wrong length")
        return Algebra(tuple(labels), alg.table)
    index = {l: i for i, l in enumerate(entry.basis)}
    n = entry.dim
    table = [[list(zero_vec(n)) for _ in range(n)] for _ in range(n)]
    for la, lb, terms in entry.products:
        i, j = index[la], index[lb]
        v = [ZERO] * n
        for coeff, lc in terms:
            v[index[lc]] += coeff
        table[i][j] = v
        table[j][i] = list(v)
    return Algebra(
        tuple(entry.basis),
        tuple(tuple(tuple(r) for r in row) for row in table),
    )


def _dedupe_labels(labels: Sequence[str]) -> tuple[str, ...]:
    seen: dict[str, int] = {}
    out = []
    for l in labels:
        if l not in seen:
            seen[l] = 1
            out.append(l)
        else:
            seen[l] += 1
            out.append(f"{l}_{seen[l]}")
    return tuple(out)


def resolve_all(entries: Sequence[CatalogEntry]) -> dict[str, Algebra]:
    env: dict[str, Algebra] = {}
    for entry in entries:
        env[entry.name] = resolve(entry, env)
    return env


def resolve_expr(names: Sequence[str], env: dict[str, Algebra]) -> Algebra:
    """Direct sum of previously defined algebras, with deduplicated labels."""
    for name in names:
        if name not in env:
            raise CatalogError(f"unknown summand {name!r}")
    parts = [env[n] for n in names]
    alg = parts[0]
    for p in parts[1:]:
        alg = direct_sum(alg, p)
    return Algebra(_dedupe_labels(alg.labels), alg.table)


def serialize(a: Algebra) -> str:
    """Inline catalog body for a commutative table (round-trips through parse)."""
    if commutativity_violation(a) is not None:
        raise CatalogError("only commutative tables serialize to catalog format")
    if len(set(a.labels)) != a.dim:
        raise CatalogError("serialization needs distinct labels")
    lines = [f"dim {a.dim}", "basis " + " ".join(a.labels)]
    for i in range(a.dim):
        for j in range(i, a.dim):
            entry = a.table[i][j]
            terms = []
            for k, c in enumerate(entry):
                if c == 0:
                    continue
                if c == 1:
                    terms.append(("+", a.labels[k]))
                elif c == -1:
                    terms.append(("-", a.labels[k]))
                elif c > 0:
                    terms.append(("+", f"{c} {a.labels[k]}"))
                else:
                    terms.append(("-", f"{-c} {a.labels[k]}"))
            if not terms:
                continue
            rhs = ""
            for sign, body in terms:
                if not rhs:
                    rhs = body if sign == "+" else f"-{body}"
                else:
                    rhs += f" {sign} {body}"
            lines.append(f"{a.labels[i]}*{a.labels[j]} = {rhs}")
    return "\n".join(lines)


def serialize_entry(name: str, a: Algebra) -> str:
    body = serialize(a)
    indented = "\n".join("  " + l for l in body.splitlines())
    return f"algebra {name}\n{indented}\nend\n"


# ---------------------------------------------------------------------------
# shipped data

def data_dir() -> Path:
    return Path(importlib.resources.files("jordanalg") / "data")


def load_catalog(directory: Optional[Path] = None) -> list[CatalogEntry]:
    """Parse all .alg files (sorted by name) from a directory."""
    base = Path(directory) if directory is not None else data_dir()
    files = sorted(base.glob("*.alg"))
    if not files:
        raise CatalogError(f"no .alg files found in {base}")
    entries: list[CatalogEntry] = []
    seen: set[str] = set()
    for f in files:
        for entry in parse_catalog(f.read_text()):
            if entry.name in seen:
                raise CatalogError(f"duplicate algebra name {entry.name!r} across files")
            seen.add(entry.name)
            entries.append(entry)
    return entries


def catalog_order(entries: Sequence[CatalogEntry]) -> list[CatalogEntry]:
    """Entries in canonical order: F*, B*, T*, J* by numeric suffix."""
    group_rank = {"F": 0, "B": 1, "T": 2, "J": 3}

    def key(e: CatalogEntry):
        head = e.name[0]
        tail = e.name[1:]
        num = int(tail) if tail.isdigit() else 0
        return (group_rank.get(head, 9), num, e.name)

    return sorted(entries, key=key)


# ---------------------------------------------------------------------------
# verification

@dataclass
class EntryResult:
    name: str
    dim: int
    commutative: bool
    jordan_ok: bool
    violation: Optional[str]
    computed_aut: int
    computed_ann: int
    computed_sq: int
    mismatches: list[str]
    deep_failures: list[str]
    h2: Optional[int] = None  # computed by the deep checks when `expect h2` is set
    b2: Optional[str] = None  # likewise for `expect b2`

    @property
    def fatal(self) -> bool:
        return not (self.commutative and self.jordan_ok) or bool(self.deep_failures)

    @property
    def passed(self) -> bool:
        return not self.fatal and not self.mismatches


@dataclass
class CatalogReport:
    results: list[EntryResult]
    deep: bool

    @property
    def fatal(self) -> bool:
        return any(r.fatal for r in self.results)

    @property
    def errata(self) -> list[tuple[str, str]]:
        return [(r.name, m) for r in self.results for m in r.mismatches]

    def text(self) -> str:
        lines = []
        jordan_pass = 0
        for r in self.results:
            status = []
            if not r.commutative:
                status.append("COMMUTATIVITY FAIL")
            if r.commutative and not r.jordan_ok:
                status.append(f"JORDAN FAIL ({r.violation})")
            if r.commutative and r.jordan_ok:
                jordan_pass += 1
            if r.mismatches:
                status.append(f"{len(r.mismatches)} invariant mismatch(es)")
            if r.deep_failures:
                status.append("DEEP FAIL")
            lines.append(
                f"{r.name}: "
                + ("PASS" if not status else "; ".join(status))
                + f"  [aut={r.computed_aut} ann={r.computed_ann} sq={r.computed_sq}]"
            )
        lines.append("")
        lines.append(
            f"{len(self.results)} algebras: {jordan_pass} Jordan-identity PASS,"
            f" {len(self.results) - jordan_pass} FAIL"
        )
        if self.errata:
            lines.append("")
            lines.append("ERRATA (recorded table value vs exact recomputation):")
            for name, m in self.errata:
                lines.append(f"  {name}: {m}")
        else:
            lines.append("no invariant mismatches")
        deep_fails = [(r.name, d) for r in self.results for d in r.deep_failures]
        if self.deep:
            lines.append("")
            if deep_fails:
                lines.append("DEEP CHECK FAILURES:")
                for name, d in deep_fails:
                    lines.append(f"  {name}: {d}")
            else:
                lines.append("deep checks (h2 / b2 / radical type): all PASS")
            lines.append("")
            for r in self.results:
                if r.h2 is not None:
                    lines.append(f"H2({r.name})={r.h2}")
                if r.b2 is not None:
                    lines.append(f"embed-b2({r.name})={r.b2}")
        return "\n".join(lines)

    def summary_lines(self) -> list[str]:
        out = []
        for r in self.results:
            state = "PASS" if r.passed else ("FATAL" if r.fatal else "ERRATUM")
            out.append(
                f"{r.name} {state} aut={r.computed_aut} ann={r.computed_ann} sq={r.computed_sq}"
            )
        return out


def verify_entry(
    entry: CatalogEntry,
    a: Algebra,
    env: dict[str, Algebra],
    deep: bool = False,
    budget: int = 10000,
) -> EntryResult:
    comm = commutativity_violation(a) is None
    violation = None
    jordan_ok = False
    if comm:
        jv = jordan_violation(a)
        jordan_ok = jv is None
        if jv is not None:
            quad, _ = jv
            labels = ",".join(a.labels[i] for i in quad)
            violation = f"quadruple ({labels})"
    else:
        violation = "not commutative"
    aut = derivation_dim(a)
    ann = annihilator(a).dim
    sq = power_chain(a, 2)[1].dim
    mismatches: list[str] = []
    exp = entry.expected
    if exp.aut is not None and exp.aut != aut:
        mismatches.append(f"aut: recorded {exp.aut}, computed {aut}")
    if exp.ann is not None and exp.ann != ann:
        mismatches.append(f"ann: recorded {exp.ann}, computed {ann}")
    if exp.sq is not None and exp.sq != sq:
        mismatches.append(f"sq: recorded {exp.sq}, computed {sq}")
    if jordan_ok:
        unital = find_identity(a) is not None
        assoc = is_associative(a)
        lcs = lcs_chain(a)
        nilp = lcs[-1].is_zero()
        rad, rad_alg, _, _ = radical_split(a)
        for flag in exp.flags:
            ok = {
                "unitary": unital,
                "associative": assoc,
                "nonassociative": not assoc,
                "nilpotent": nilp,
                "semisimple": rad.dim == 0,
            }[flag]
            if not ok:
                mismatches.append(f"flag {flag}: not confirmed by computation")
        if exp.niltype is not None:
            if not nilp:
                mismatches.append("niltype: algebra is not nilpotent")
            else:
                nt = nilpotency_type(a, lcs)
                if nt != exp.niltype:
                    mismatches.append(f"niltype: recorded {exp.niltype}, computed {nt}")
    deep_failures: list[str] = []
    h2 = b2 = None
    if deep and jordan_ok:
        deep_failures, h2, b2 = _deep_checks(entry, a, rad_alg, env, budget)
    return EntryResult(
        name=entry.name,
        dim=a.dim,
        commutative=comm,
        jordan_ok=jordan_ok,
        violation=violation,
        computed_aut=aut,
        computed_ann=ann,
        computed_sq=sq,
        mismatches=mismatches,
        deep_failures=deep_failures,
        h2=h2,
        b2=b2,
    )


def _deep_checks(
    entry: CatalogEntry, a: Algebra, rad_alg: Algebra, env: dict[str, Algebra], budget: int
) -> tuple[list[str], Optional[int], Optional[str]]:
    """Deep-check failures, plus the h2 and b2 values the checks computed;
    `rad_alg` is the algebra induced on the radical of `a`."""
    from .cohomology import cocycle_space
    from .polysolve import embeds_b2

    failures = []
    exp = entry.expected
    h2 = b2 = None
    if exp.h2 is not None:
        h2 = cocycle_space(a).h2_dim
        if exp.h2 == "zero" and h2 != 0:
            failures.append(f"h2: expected 0, computed {h2}")
        elif exp.h2 == "nonzero" and h2 == 0:
            failures.append("h2: expected nonzero, computed 0")
        elif exp.h2.isdigit() and h2 != int(exp.h2):
            failures.append(f"h2: expected {exp.h2}, computed {h2}")
    if exp.b2 is not None:
        b2 = embeds_b2(a, budget=budget).answer
        if b2 != exp.b2:
            failures.append(f"b2: expected {exp.b2}, computed {b2}")
    if exp.radical_expr is not None:
        try:
            model = resolve_expr(exp.radical_expr, env)
        except CatalogError as exc:
            raise CatalogError(f"{entry.name}: expect radical: {exc}") from None
        if fingerprint(rad_alg) != fingerprint(model):
            failures.append(
                f"radical: fingerprint differs from {' + '.join(exp.radical_expr)}"
            )
    return failures, h2, b2


def verify_catalog(
    entries: Sequence[CatalogEntry],
    deep: bool = False,
    budget: int = 10000,
) -> CatalogReport:
    """Identity checks plus recorded-column comparison for every entry.

    Jordan-identity failures are fatal; invariant mismatches are reported as
    errata (the recorded values are transcriptions and may contain typos,
    the recomputation is the arbiter).  With `deep`, the h2 / b2 / radical
    expectations are also checked and treated as fatal.
    """
    ordered = catalog_order(list(entries))
    env = resolve_all(ordered)
    results = [
        verify_entry(e, env[e.name], env, deep=deep, budget=budget) for e in ordered
    ]
    return CatalogReport(results, deep)


# ---------------------------------------------------------------------------
# Peirce placement annotations

def check_peirce_placements(
    entry: CatalogEntry, a: Algebra
) -> list[tuple[str, str, Optional[str], bool]]:
    """Re-derive each recorded 'label lies in N_place' annotation.

    Two-index places are read in the grid decomposition of the unital hull
    relative to the basis idempotents e1..ek plus the complement idempotent
    (index 0); single-index places in the eigenspace decomposition for the
    unique basis idempotent.  Returns (label, expected, computed, ok) rows.
    """
    from .peirce import component_of, peirce_multi_unitalized, peirce_single

    if not entry.expected.peirce:
        return []
    idem = {}
    for i, label in enumerate(a.labels):
        if a.table[i][i] == a.basis_vector(i) and label.startswith("e"):
            idem[int(label[1:])] = a.basis_vector(i)
    results = []
    grid_places = [p for _, p in entry.expected.peirce if p not in ("N0", "Nhalf", "N1")]
    if grid_places:
        family = [idem[k] for k in sorted(idem)]
        decomp, hull = peirce_multi_unitalized(a, family)
        pos_of_display = {k: pos + 1 for pos, k in enumerate(sorted(idem))}
        pos_of_display[0] = 0
        for label, place in entry.expected.peirce:
            want = (int(place[1]), int(place[2]))
            want_pos = tuple(sorted((pos_of_display[want[0]], pos_of_display[want[1]])))
            v = tuple(a.basis_vector(a.label_index(label))) + (ZERO,)
            got = component_of(decomp, v)
            display = None
            if got is not None:
                back = {v: k for k, v in pos_of_display.items()}
                display = f"N{min(back[got[0]], back[got[1]])}{max(back[got[0]], back[got[1]])}"
            results.append((label, place, display, got == want_pos))
    else:
        if len(idem) != 1:
            raise CatalogError(f"{entry.name}: single-index places need one idempotent")
        (e,) = idem.values()
        decomp = peirce_single(a, e)
        names = {Fraction(0): "N0", Fraction(1, 2): "Nhalf", Fraction(1): "N1"}
        for label, place in entry.expected.peirce:
            v = a.basis_vector(a.label_index(label))
            got = component_of(decomp, v)
            display = names.get(got) if got is not None else None
            results.append((label, place, display, display == place))
    return results
