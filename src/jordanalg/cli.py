"""Command-line interface.

Subcommands: verify, invariants, fingerprint, fingerprint-all, distinguish,
peirce, h2, embed-b2, show.  Exit status: 0 all fatal checks pass,
1 verification failure, 2 usage or I/O error.  Output is deterministic for
a fixed catalog.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import catalog as cat
from .algebra import (
    Algebra,
    AlgebraError,
    find_identity,
    is_associative,
    parse_linear_combination,
)
from .cohomology import cocycle_space
from .invariants import (
    Fingerprint,
    annihilator,
    derivation_dim,
    difference_message,
    fingerprint,
    first_fingerprint_difference,
    nilpotency_type,
    power_profile,
    radical_split,
    trace_rank,
)
from .peirce import PeirceRuleError, is_idempotent, peirce_single
from .polysolve import embeds_b2


class UsageError(Exception):
    pass


def _load_entries(directory: Optional[str]) -> list[cat.CatalogEntry]:
    try:
        return cat.catalog_order(cat.load_catalog(Path(directory) if directory else None))
    except (OSError, cat.CatalogError) as exc:
        raise UsageError(str(exc)) from exc


def _lookup_named(name: str, directory: Optional[str]) -> tuple[str, Algebra]:
    """Resolve a catalog name, or the last entry of a catalog file."""
    entries = _load_entries(directory)
    env = cat.resolve_all(entries)
    if name in env:
        return name, env[name]
    p = Path(name)
    if p.exists():
        try:
            file_entries = cat.parse_catalog(p.read_text())
            for e in file_entries:
                env[e.name] = cat.resolve(e, env)
        except cat.CatalogError as exc:
            raise UsageError(str(exc)) from exc
        if file_entries:
            last = file_entries[-1].name
            return last, env[last]
        raise UsageError(f"no entries in {name}")
    raise UsageError(f"unknown algebra {name!r}")


def cmd_verify(args) -> int:
    entries = _load_entries(args.dir)
    report = cat.verify_catalog(entries, deep=args.deep, budget=args.budget)
    print(report.text())
    if args.summary:
        Path(args.summary).write_text("\n".join(report.summary_lines()) + "\n")
    return 1 if report.fatal else 0


def cmd_invariants(args) -> int:
    _, a = _lookup_named(args.name, args.dir)
    pp = power_profile(a)
    rad, rad_alg, rad_lcs, _ = radical_split(a)
    print(f"dim      {a.dim}")
    print(f"powers   J^1..J^4 dims {','.join(str(d) for d in pp.assoc_dims)}")
    print(f"lcs      J<1>..J<4> dims {','.join(str(d) for d in pp.lcs_dims)}")
    print(f"nilindex {pp.nilindex if pp.nilindex is not None else '-'}")
    print(f"ann      {annihilator(a).dim}")
    print(f"der      {derivation_dim(a)}")
    nt = ",".join(str(x) for x in nilpotency_type(rad_alg, rad_lcs))
    print(f"radical  dim {rad.dim}, nilpotency type ({nt})")
    flags = []
    if find_identity(a) is not None:
        flags.append("unitary")
    flags.append("associative" if is_associative(a) else "nonassociative")
    if pp.nilindex is not None:  # the lcs chain reaches zero
        flags.append("nilpotent")
    if rad.dim == 0:
        flags.append("semisimple")
    print(f"flags    {' '.join(flags)}")
    print(f"tracerk  {trace_rank(a)}")
    return 0


def cmd_fingerprint(args) -> int:
    _, a = _lookup_named(args.name, args.dir)
    fp = fingerprint(a, with_b2=args.deep, budget=args.budget)
    print(f"{args.name} {fp.render()}")
    return 0


def cmd_fingerprint_all(args) -> int:
    entries = _load_entries(args.dir)
    env = cat.resolve_all(entries)
    dim4 = [e.name for e in entries if env[e.name].dim == 4]
    fps: dict[str, Fingerprint] = {name: fingerprint(env[name]) for name in dim4}
    groups: dict[tuple, list[str]] = {}
    for name in dim4:
        groups.setdefault(fps[name].key(), []).append(name)
    for names in groups.values():
        if len(names) > 1:
            deep = {n: fingerprint(env[n], with_b2=True, budget=args.budget) for n in names}
            # an inconclusive embedding answer must not fake a distinction
            if all(deep[n].b2_embeds in ("yes", "no") for n in names):
                fps.update(deep)
    for name in dim4:
        print(f"{name} {fps[name].render()}")
    keys = {}
    collisions = []
    for name in dim4:
        k = fps[name].key()
        if k in keys:
            collisions.append((keys[k], name))
        else:
            keys[k] = name
    print()
    if collisions:
        for a_name, b_name in collisions:
            print(f"COLLISION: {a_name} and {b_name} share a fingerprint")
        print(f"{len(dim4)} fingerprints, pairwise distinct: NO")
        return 1
    print(f"{len(dim4)} fingerprints, pairwise distinct: yes")
    return 0


def cmd_distinguish(args) -> int:
    _, a = _lookup_named(args.a, args.dir)
    _, b = _lookup_named(args.b, args.dir)
    fa, fb = fingerprint(a), fingerprint(b)
    diff = first_fingerprint_difference(fa, fb)
    if diff is None or diff[0] == "dim_h2":
        # shallow fields and radical record tie: bring in the embedding
        # decision before falling back to the cohomology dimension
        fa = fingerprint(a, with_b2=True, budget=args.budget)
        fb = fingerprint(b, with_b2=True, budget=args.budget)
        diff = first_fingerprint_difference(fa, fb)
    msg = difference_message(diff)
    if msg is None:
        print("INDISTINGUISHABLE by implemented invariants")
    else:
        print(msg)
    return 0


def cmd_peirce(args) -> int:
    _, a = _lookup_named(args.name, args.dir)
    try:
        e = parse_linear_combination(a, args.idempotent)
    except AlgebraError as exc:
        raise UsageError(str(exc)) from exc
    if not is_idempotent(a, e):
        square = a.mul(e, e)
        print(f"not idempotent: e*e = {a.format_element(square)} != {a.format_element(e)}")
        return 1
    try:
        decomp = peirce_single(a, e)
    except PeirceRuleError as exc:
        print(str(exc))
        return 1
    from fractions import Fraction

    names = {Fraction(1): "J_1", Fraction(1, 2): "J_1/2", Fraction(0): "J_0"}
    for lam in (Fraction(1), Fraction(1, 2), Fraction(0)):
        space = decomp.components[lam]
        if space.dim == 0:
            print(f"{names[lam]}: 0")
        else:
            rows = "; ".join(a.format_element(r) for r in space.rows)
            print(f"{names[lam]}: dim {space.dim}, span {{{rows}}}")
    print("eigenspace multiplication rules: all confirmed")
    return 0


def cmd_h2(args) -> int:
    _, a = _lookup_named(args.name, args.dir)
    cs = cocycle_space(a)
    print(f"z2={cs.z2_dim} b2={cs.b2_dim} h2={cs.h2_dim}")
    return 0


def cmd_embed_b2(args) -> int:
    _, a = _lookup_named(args.name, args.dir)
    res = embeds_b2(a, budget=args.budget)
    if res.witness is not None:
        e, y = res.witness
        print(f"{res.answer} (e = {a.format_element(e)}, y = {a.format_element(y)})")
    else:
        print(res.answer)
    return 0


def cmd_show(args) -> int:
    name, a = _lookup_named(args.name, args.dir)
    print(cat.serialize_entry(name, a), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jordanalg",
        description="Exact verification toolkit for the bundled Jordan-algebra catalog.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--dir", help="catalog directory (defaults to the bundled catalog)")
        p.add_argument("--budget", type=int, default=10000, help="S-pair budget for Groebner runs")
        p.set_defaults(fn=fn)
        return p

    p = add("verify", cmd_verify, help="check identities and recorded invariants")
    p.add_argument("--deep", action="store_true", help="also run h2 / b2 / radical-type checks")
    p.add_argument("--summary", help="write a machine-readable summary file")

    p = add("invariants", cmd_invariants, help="print the invariant record of one algebra")
    p.add_argument("name")

    p = add("fingerprint", cmd_fingerprint, help="print one canonical fingerprint line")
    p.add_argument("name")
    p.add_argument("--deep", action="store_true", help="include the subalgebra-embedding field")

    add("fingerprint-all", cmd_fingerprint_all,
        help="fingerprint every four-dimensional entry and assert pairwise distinctness")

    p = add("distinguish", cmd_distinguish, help="first invariant separating two algebras")
    p.add_argument("a")
    p.add_argument("b")

    p = add("peirce", cmd_peirce, help="eigenspace decomposition for an idempotent expression")
    p.add_argument("name")
    p.add_argument("idempotent", help="expression such as 'e1 - n2 + n3'")

    p = add("h2", cmd_h2, help="second cohomology dimensions")
    p.add_argument("name")

    p = add("embed-b2", cmd_embed_b2, help="decide the two-dimensional half-action subalgebra")
    p.add_argument("name")

    p = add("show", cmd_show, help="print the multiplication table in catalog format")
    p.add_argument("name")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (cat.CatalogError, AlgebraError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
