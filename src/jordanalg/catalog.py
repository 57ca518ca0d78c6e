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

Counts N and K and niltype parts are ASCII digits.  Omitted products are
zero and products are mirrored, so only pairs i <= j are listed: `resolve`
sums the terms of a product line per label and builds the table with
`Algebra.from_products`, which mirrors it.  Direct-sum entries may only
reference previously defined names.  The recorded `expect` values are
transcribed as-is from the source tables; verification recomputes every
invariant and reports disagreements as errata rather than editing the
records.  The one exception is `expect peirce`: `verify` ignores it, and
only the test suite checks it, through `check_peirce_placements`.  The 78
recorded placements take about half the time of `verify --deep` itself
(46 ms against 93 ms in process, best of five, Python 3.11 on a shared 2-CPU
x86_64 host), so checking them in `verify` would grow the `catalog`
workload's `certify_s` far past the 15% bound that `BENCHMARK.json` sets
on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Mapping, NamedTuple, Optional, Sequence

from .algebra import (
    _RATIONAL_LITERAL,
    Algebra,
    AlgebraError,
    commutativity_violation,
    direct_sum,
    find_identity,
    is_associative,
    jordan_violation,
    parse_terms,
)
from .cohomology import cocycle_space
from .invariants import (
    annihilator,
    derivation_dim,
    fingerprint,
    is_nilpotent,
    nilpotency_type,
    power_chain,
    radical,
    radical_split,
)
from .peirce import component_of, peirce_multi_unitalized
from .polysolve import DEFAULT_BUDGET, embeds_b2
from .ratlin import ZERO


class CatalogError(ValueError):
    pass


class CatalogParseError(CatalogError):
    """A malformed line; `source`, when known, names the file it is in."""

    def __init__(self, line_no: int, message: str, source: Optional[Path] = None):
        where = f"line {line_no}" if source is None else f"{source}: line {line_no}"
        super().__init__(f"{where}: {message}")
        self.line_no = line_no
        self.message = message


# Largest dimension a catalog entry may have, inline or as a sum.  Each
# identity check reads n**4 integers and a cocycle system has n**3 unknowns,
# so a larger table from a file is refused rather than left to run for
# hours; `Algebra` values built in code have no such limit.
MAX_CATALOG_DIM = 16

FLAG_NAMES = {"unitary", "associative", "nonassociative", "nilpotent", "semisimple"}
# the single-index places of an idempotent e, by their component in the
# grid of the family [e]
_SINGLE_PLACES = {(0, 0): "N0", (0, 1): "Nhalf", (1, 1): "N1"}
PEIRCE_PLACES = set(_SINGLE_PLACES.values()) | {
    f"N{i}{j}" for i in range(4) for j in range(4) if i <= j
}


# Named tuples rather than frozen dataclasses: the catalog makes 176 of
# them per load, and a frozen dataclass costs several times more to build.
class Expected(NamedTuple):
    aut: Optional[int] = None
    ann: Optional[int] = None
    sq: Optional[int] = None
    flags: tuple[str, ...] = ()
    niltype: Optional[tuple[int, ...]] = None
    peirce: tuple[tuple[str, str], ...] = ()
    radical_expr: Optional[tuple[str, ...]] = None
    h2: Optional[str] = None
    b2: Optional[str] = None


class CatalogEntry(NamedTuple):
    name: str
    summands: Optional[tuple[str, ...]] = None
    dim: Optional[int] = None
    basis: Optional[tuple[str, ...]] = None
    products: tuple[tuple[str, str, tuple[tuple[Fraction, str], ...]], ...] = ()
    labels_override: Optional[tuple[str, ...]] = None
    expected: Expected = Expected()


def _is_count(token: str) -> bool:
    """A count is written in ASCII digits: `str.isdigit` alone also takes
    `²`, which `int` then refuses."""
    return token.isascii() and token.isdigit()


# Slot of each `expect` kind in `Expected`; `_parse_line` names a parsed
# expectation by its field.  `_UNSET` is an entry with no `expect` lines.
_EXPECT_SLOTS = {field: i for i, field in enumerate(Expected._fields)}
_PEIRCE_SLOT = _EXPECT_SLOTS["peirce"]
_UNSET = tuple(Expected())


def _parse_line(line: str) -> tuple[Optional[str], object, Optional[str]]:
    """(kind, value, error) of a stripped body line, whatever entry it is in.

    `kind` is "product" (value `(la, lb, terms)`), "dim", "basis",
    "labels", an `Expected` field for an `expect` line, or None for a line
    of no known kind.  `error` is the message of a malformed line, whose
    value is then None; whether the kind is allowed in the entry at hand is
    for the caller to check, before it raises `error`.
    """
    # the line kinds are disjoint; the most frequent are tested first
    tokens = line.split()
    head = tokens[0]
    if head == "expect":
        return _parse_expect(tokens[1:])
    if "*" in head and "=" in line:
        lhs, _, rhs = line.partition("=")
        la, star, lb = lhs.partition("*")
        la, lb = la.strip(), lb.strip()
        if not star or not la or not lb:
            return "product", None, "product line must look like li*lj = ..."
        try:
            return "product", (la, lb, tuple(parse_terms(rhs))), None
        except AlgebraError as exc:
            return "product", None, str(exc)
    if head == "dim":
        if len(tokens) != 2 or not _is_count(tokens[1]):
            return "dim", None, "usage: dim N"
        if int(tokens[1]) > MAX_CATALOG_DIM:
            return "dim", None, f"dim {tokens[1]} exceeds the limit {MAX_CATALOG_DIM}"
        return "dim", int(tokens[1]), None
    if head == "basis" or head == "labels":
        labels = tuple(tokens[1:])
        if len(set(labels)) != len(labels):
            return head, None, "duplicate basis labels" if head == "basis" else "duplicate labels"
        return head, labels, None
    return None, None, f"unrecognized line {line!r}"


def _parse_expect(tokens: list[str]) -> tuple[Optional[str], object, Optional[str]]:
    if not tokens:
        return None, None, "empty expect line"
    kind, rest = tokens[0], tokens[1:]
    if kind in ("aut", "ann", "sq"):
        if len(rest) != 1 or not _is_count(rest[0]):
            return kind, None, f"usage: expect {kind} K"
        return kind, int(rest[0]), None
    if kind == "flags":
        bad = [f for f in rest if f not in FLAG_NAMES]
        if bad:
            return kind, None, f"unknown flags {bad}"
        return kind, tuple(rest), None
    if kind == "niltype":
        body = "".join(rest)
        parts = [x for x in body[1:-1].split(",") if x]
        # the parts are counts: `int` alone would take `-1`, `+2` and `٣`
        if not (body.startswith("(") and body.endswith(")") and all(map(_is_count, parts))):
            return kind, None, "usage: expect niltype (a,b,...)"
        return kind, tuple(map(int, parts)), None
    if kind == "peirce":
        if len(rest) != 2 or rest[1] not in PEIRCE_PLACES:
            return kind, None, "usage: expect peirce LABEL PLACE"
        return kind, (rest[0], rest[1]), None
    if kind == "radical":
        names = tuple(t for t in "".join(rest).split("+") if t)
        if not names:
            return "radical_expr", None, "usage: expect radical NAME [+ NAME ...]"
        return "radical_expr", names, None
    if kind == "h2":
        if len(rest) != 1 or not (rest[0] in ("zero", "nonzero") or _is_count(rest[0])):
            return kind, None, "usage: expect h2 zero|nonzero|K"
        return kind, rest[0], None
    if kind == "b2":
        if len(rest) != 1 or rest[0] not in ("yes", "no"):
            return kind, None, "usage: expect b2 yes|no"
        return kind, rest[0], None
    return None, None, f"unknown expect kind {kind!r}"


class _OpenEntry:
    """What the lines of an entry have said so far."""

    __slots__ = ("name", "summands", "line_no", "dim", "basis", "labels", "products",
                 "expected", "peirce")

    def __init__(self, name: str, summands: Optional[tuple[str, ...]], line_no: int):
        self.name = name
        self.summands = summands
        self.line_no = line_no
        self.dim = self.basis = self.labels = None
        self.products: list = []  # ((la, lb, terms), line number)
        self.expected = list(_UNSET)
        self.peirce: list = []


def parse_catalog(text: str) -> list[CatalogEntry]:
    """Parse entries in file order; duplicate names are rejected.

    Each distinct body line is parsed once per call, by `_parse_line`; the
    loop applies the parse in its entry, so a line that is malformed, or
    not allowed in its entry, fails at its first occurrence.
    """
    entries: list[CatalogEntry] = []
    seen: set[str] = set()
    parsed: dict[str, tuple] = {}
    current: Optional[_OpenEntry] = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        if current is None:
            current = _open_entry(line, line_no, seen)
            continue
        if line == "end":
            entries.append(_finish_entry(current))
            current = None
            continue
        result = parsed.get(line)
        if result is None:
            result = parsed[line] = _parse_line(line)
        kind, value, error = result
        # products and expectations are allowed in every entry
        if error is None and kind == "product":
            current.products.append((value, line_no))
        elif error is None and kind == "peirce":
            current.peirce.append(value)
        elif error is None and kind in _EXPECT_SLOTS:
            current.expected[_EXPECT_SLOTS[kind]] = value
        else:
            # a kind not allowed in this entry is reported before the
            # line's own error: `dim x` in a sum entry names the `dim`
            if (kind == "dim" or kind == "basis") and current.summands is not None:
                raise CatalogParseError(line_no, f"'{kind}' not allowed in a sum entry")
            if kind == "labels" and current.summands is None:
                raise CatalogParseError(line_no, "'labels' only allowed in a sum entry")
            if error is not None:
                raise CatalogParseError(line_no, error)
            setattr(current, kind, value)  # dim, basis or labels
    if current is not None:
        raise CatalogParseError(current.line_no, f"entry {current.name!r} missing 'end'")
    return entries


def _open_entry(line: str, line_no: int, seen: set[str]) -> _OpenEntry:
    """The entry an `algebra` header line opens; its name joins `seen`."""
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
    return _OpenEntry(name, summands, line_no)


def _finish_entry(current: _OpenEntry) -> CatalogEntry:
    expected = current.expected
    expected[_PEIRCE_SLOT] = tuple(current.peirce)
    expected = Expected(*expected)
    if current.summands is not None:
        return CatalogEntry(current.name, current.summands, None, None, (), current.labels,
                            expected)
    dim = current.dim
    basis = current.basis
    if dim is None or basis is None:
        raise CatalogParseError(current.line_no, f"entry {current.name!r} needs dim and basis")
    if len(basis) != dim:
        raise CatalogParseError(current.line_no, f"entry {current.name!r}: basis size != dim")
    labels = set(basis)
    products = []
    seen_pairs = set()
    for (la, lb, terms), line_no in current.products:
        for _, lc in terms:
            if lc not in labels:
                raise CatalogParseError(line_no, f"unknown label {lc!r} in product")
        if la not in labels or lb not in labels:
            raise CatalogParseError(line_no, f"unknown label in product {la}*{lb}")
        pair = (la, lb) if la <= lb else (lb, la)
        if pair in seen_pairs:
            raise CatalogParseError(line_no, f"product {la}*{lb} listed twice")
        seen_pairs.add(pair)
        products.append((la, lb, terms))
    return CatalogEntry(current.name, None, dim, basis, tuple(products), None, expected)


def _require_defined(names: Sequence[str], known: Mapping[str, object]) -> None:
    for name in names:
        if name not in known:
            raise CatalogError(f"unknown summand {name!r}")


def _entry_dim(entry: CatalogEntry, dims: Mapping[str, int]) -> int:
    """Dimension of `entry`, given the dimensions of the names defined
    before it.  This is where a sum entry's references are checked: each
    summand must be defined, and a `labels` line must fit the sum."""
    if entry.summands is None:
        return entry.dim
    try:
        _require_defined(entry.summands, dims)
    except CatalogError as exc:
        raise CatalogError(f"{entry.name}: {exc}") from None
    dim = sum(dims[s] for s in entry.summands)
    if dim > MAX_CATALOG_DIM:
        raise CatalogError(f"{entry.name}: dim {dim} exceeds the limit {MAX_CATALOG_DIM}")
    if entry.labels_override is not None and len(entry.labels_override) != dim:
        raise CatalogError(f"{entry.name}: labels line has wrong length")
    return dim


def check_references(
    entries: Sequence[CatalogEntry], dims: Optional[Mapping[str, int]] = None
) -> dict[str, int]:
    """Check the references of every entry, in order, without building a
    table; raises the CatalogError that `resolve_all` would.  Returns the
    dimension of each name, `dims` giving those defined before `entries`."""
    out = dict(dims) if dims else {}
    for entry in entries:
        out[entry.name] = _entry_dim(entry, out)
    return out


def resolve(entry: CatalogEntry, env: dict[str, Algebra]) -> Algebra:
    """Entry -> Algebra; sum entries resolve against previously defined names."""
    if entry.summands is not None:
        _entry_dim(entry, {s: env[s].dim for s in entry.summands if s in env})  # the checks
        alg = resolve_expr(entry.summands, env)
        labels = entry.labels_override
        return alg if labels is None else Algebra(tuple(labels), alg.table)
    products = {}
    for la, lb, terms in entry.products:
        rhs = products[la, lb] = {}
        for coeff, lc in terms:
            rhs[lc] = rhs.get(lc, 0) + coeff
    return Algebra.from_products(entry.basis, products)


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


def resolve_named(entries: Sequence[CatalogEntry], name: str) -> Algebra:
    """The last entry called `name`, built with the summands its sum line
    names, transitively, each against the names defined before it; no other
    entry is built.  Run `check_references` on `entries` first: this
    function finds only the references that its build reaches."""
    wanted = {name}
    chosen = []
    # walking back, the first definition met of a wanted name is the latest
    # one before the entry that wants it
    for entry in reversed(entries):
        if entry.name in wanted:
            wanted.discard(entry.name)
            wanted.update(entry.summands or ())
            chosen.append(entry)
    env: dict[str, Algebra] = {}
    for entry in reversed(chosen):
        env[entry.name] = resolve(entry, env)
    return env[name]


def resolve_expr(names: Sequence[str], env: dict[str, Algebra]) -> Algebra:
    """Direct sum of previously defined algebras, with deduplicated labels."""
    _require_defined(names, env)
    parts = [env[n] for n in names]
    dim = sum(p.dim for p in parts)
    if dim > MAX_CATALOG_DIM:
        raise CatalogError(f"dim {dim} exceeds the limit {MAX_CATALOG_DIM}")
    alg = parts[0]
    for p in parts[1:]:
        alg = direct_sum(alg, p)
    return Algebra(_dedupe_labels(alg.labels), alg.table)


def _unreadable(text: str, breaks: str) -> bool:
    """Empty, or holding whitespace or a character of `breaks`."""
    return not text or any(c.isspace() or c in breaks for c in text)


def serialize(a: Algebra) -> str:
    """Inline catalog body for a commutative table (round-trips through parse).
    What the parser would not read back raises CatalogError: a dimension
    above `MAX_CATALOG_DIM`, or a label holding whitespace, `*`, `=`, `+` or
    `-`, a rational literal, or one starting with `#`, which makes its
    product lines comments."""
    if commutativity_violation(a) is not None:
        raise CatalogError("only commutative tables serialize to catalog format")
    if len(set(a.labels)) != a.dim:
        raise CatalogError("serialization needs distinct labels")
    if a.dim > MAX_CATALOG_DIM:
        raise CatalogError(f"dim {a.dim} exceeds the limit {MAX_CATALOG_DIM}")
    for label in a.labels:
        if _unreadable(label, "*=+-") or label[0] == "#" or _RATIONAL_LITERAL.fullmatch(label):
            raise CatalogError(f"label {label!r} does not read back from catalog format")
    lines = [f"dim {a.dim}", "basis " + " ".join(a.labels)]
    for i in range(a.dim):
        for j in range(i, a.dim):
            entry = a.table[i][j]
            if any(entry):
                lines.append(f"{a.labels[i]}*{a.labels[j]} = {a.format_element(entry)}")
    return "\n".join(lines)


def serialize_entry(name: str, a: Algebra) -> str:
    """`serialize(a)` as the entry `name`, which holds no whitespace or `=`."""
    if _unreadable(name, "="):
        raise CatalogError(f"name {name!r} does not read back from catalog format")
    body = serialize(a)
    indented = "\n".join("  " + l for l in body.splitlines())
    return f"algebra {name}\n{indented}\nend\n"


# ---------------------------------------------------------------------------
# shipped data

def data_dir() -> Path:
    return Path(__file__).with_name("data")


def parse_catalog_file(path: Path) -> list[CatalogEntry]:
    """Read and parse one .alg file; a parse error names the file."""
    try:
        text = path.read_text()
    except UnicodeDecodeError as exc:
        raise CatalogError(f"cannot read {path}: {exc}") from exc
    try:
        return parse_catalog(text)
    except CatalogParseError as exc:
        raise CatalogParseError(exc.line_no, exc.message, source=path) from None


def load_catalog(directory: Optional[Path] = None) -> list[CatalogEntry]:
    """Parse all .alg files (sorted by name) from a directory."""
    base = Path(directory) if directory is not None else data_dir()
    files = sorted(base.glob("*.alg"))
    if not files:
        raise CatalogError(f"no .alg files found in {base}")
    entries: list[CatalogEntry] = []
    seen: dict[str, Path] = {}
    for f in files:
        for entry in parse_catalog_file(f):
            if entry.name in seen:
                raise CatalogError(f"duplicate algebra name {entry.name!r}"
                                   f" in {seen[entry.name]} and {f}")
            seen[entry.name] = f
            entries.append(entry)
    return entries


def catalog_order(entries: Sequence[CatalogEntry]) -> list[CatalogEntry]:
    """Entries in canonical order: F*, B*, T*, J* by numeric suffix."""
    group_rank = {"F": 0, "B": 1, "T": 2, "J": 3}

    def key(e: CatalogEntry):
        head = e.name[0]
        tail = e.name[1:]
        num = int(tail) if tail.isdecimal() else 0  # `isdigit` takes `²`, `int` does not
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


def computed_flags(a: Algebra) -> list[str]:
    """The `FLAG_NAMES` that hold for a Jordan algebra, in print order."""
    flags = ["unitary"] if find_identity(a) is not None else []
    flags.append("associative" if is_associative(a) else "nonassociative")
    if is_nilpotent(a):
        flags.append("nilpotent")
    if radical(a).dim == 0:
        flags.append("semisimple")
    return flags


def verify_entry(
    entry: CatalogEntry,
    a: Algebra,
    env: dict[str, Algebra],
    deep: bool = False,
    budget: int = DEFAULT_BUDGET,
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
    exp = entry.expected
    mismatches = [
        f"{kind}: recorded {recorded}, computed {computed}"
        for kind, recorded, computed in (("aut", exp.aut, aut), ("ann", exp.ann, ann),
                                         ("sq", exp.sq, sq))
        if recorded is not None and recorded != computed
    ]
    if jordan_ok:
        flags = computed_flags(a)
        for flag in exp.flags:
            if flag not in flags:
                mismatches.append(f"flag {flag}: not confirmed by computation")
        if exp.niltype is not None:
            if not is_nilpotent(a):
                mismatches.append("niltype: algebra is not nilpotent")
            elif (nt := nilpotency_type(a)) != exp.niltype:
                mismatches.append(f"niltype: recorded {exp.niltype}, computed {nt}")
    deep_failures: list[str] = []
    h2 = b2 = None
    if deep and jordan_ok:
        deep_failures, h2, b2 = _deep_checks(entry, a, env, budget)
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
    entry: CatalogEntry, a: Algebra, env: dict[str, Algebra], budget: int
) -> tuple[list[str], Optional[int], Optional[str]]:
    """Deep-check failures, plus the h2 and b2 values the checks computed."""
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
        if fingerprint(radical_split(a)[1]) != fingerprint(model):
            failures.append(
                f"radical: fingerprint differs from {' + '.join(exp.radical_expr)}"
            )
    return failures, h2, b2


def verify_catalog(
    entries: Sequence[CatalogEntry],
    deep: bool = False,
    budget: int = DEFAULT_BUDGET,
) -> CatalogReport:
    """Identity checks plus recorded-column comparison for every entry.

    Jordan-identity failures are fatal; invariant mismatches are reported as
    errata (the recorded values are transcriptions and may contain typos,
    the recomputation is the arbiter).  With `deep`, the h2 / b2 / radical
    expectations are also checked and treated as fatal.  The entries are
    resolved in the given order and reported in `catalog_order`.
    """
    env = resolve_all(entries)
    results = [
        verify_entry(e, env[e.name], env, deep=deep, budget=budget)
        for e in catalog_order(entries)
    ]
    return CatalogReport(results, deep)


# ---------------------------------------------------------------------------
# Peirce placement annotations

def check_peirce_placements(
    entry: CatalogEntry, a: Algebra
) -> list[tuple[str, str, Optional[str], bool]]:
    """Re-derive each recorded 'label lies in N_place' annotation.

    Every place is read in the grid decomposition of the unital hull
    relative to the basis idempotents e1..ek plus the complement idempotent
    (index 0).  A basis idempotent is one labelled `e` and a count; others,
    such as `e` or `e_2`, have no index for a place to name.  A
    single-index place names a component for the one basis idempotent e:
    N0, Nhalf and N1 are N00, N01 and N11 of the family [e].
    A place that names an index with no basis idempotent is never computed,
    so its row is a mismatch.  Returns (label, expected, computed, ok) rows.
    """
    if not entry.expected.peirce:
        return []
    idem = {}
    for i, label in enumerate(a.labels):
        if a.table[i][i] == a.basis_vector(i) and label[:1] == "e" and _is_count(label[1:]):
            idem[int(label[1:])] = a.basis_vector(i)
    if len(idem) != 1 and any(p in _SINGLE_PLACES.values() for _, p in entry.expected.peirce):
        raise CatalogError(f"{entry.name}: single-index places need one idempotent")
    shown = [0] + sorted(idem)  # the index that places use, by family position
    decomp, _ = peirce_multi_unitalized(a, [idem[k] for k in shown[1:]])
    results = []
    for label, place in entry.expected.peirce:
        got = component_of(decomp, tuple(a.basis_vector(a.label_index(label))) + (ZERO,))
        if got is None:
            display = None
        elif place in _SINGLE_PLACES.values():
            display = _SINGLE_PLACES[got]
        else:
            display = f"N{shown[got[0]]}{shown[got[1]]}"
        results.append((label, place, display, display == place))
    return results
