"""Command-line interface.

Subcommands: verify, invariants, fingerprint, fingerprint-all, distinguish,
peirce, h2, embed-b2, show.  Exit status: 0 all fatal checks pass,
1 verification failure, 2 usage or I/O error, including output that the
stdout encoding cannot print.  Output is deterministic for a fixed catalog.

Every command reads every catalog file and checks it and its references,
so a malformed catalog is reported by each of them alike; a file text
already parsed in this process is not parsed again, which only callers
running several commands in one process notice.  A command on one or two
names then builds only the tables it needs: the named entries and the
summands their `sum` lines name.  The argument parser is built once, at
import.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import suppress
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from . import catalog as cat
from .algebra import Algebra, AlgebraError, parse_linear_combination
from .invariants import (
    Fingerprint,
    annihilator,
    derivation_dim,
    difference_message,
    fingerprint,
    first_fingerprint_difference,
    h2_dims,
    nilpotency_type,
    power_profile,
    radical_split,
)
from .peirce import EIGENVALUES, PeirceRuleError, is_idempotent, peirce_single
from .polysolve import DEFAULT_BUDGET, embeds_b2


class UsageError(Exception):
    pass


def _load_entries(directory: Optional[str]) -> list[cat.CatalogEntry]:
    """The catalog's entries in load order, the order their sums are
    checked and resolved in; only printed lines are sorted."""
    try:
        return cat.load_catalog(Path(directory) if directory else None)
    except (OSError, cat.CatalogError) as exc:
        raise UsageError(str(exc)) from exc


def _lookup_named(directory: Optional[str], *names: str) -> list[tuple[str, Algebra]]:
    """Each name as a catalog entry, or as the last entry of a catalog file.

    The whole catalog is read and its references checked, once for all
    the names, so a malformed catalog fails here as it fails `verify`; only
    the named tables and the summands they use are built.
    """
    entries = _load_entries(directory)
    dims = cat.check_references(entries)
    return [_lookup(name, entries, dims) for name in names]


def _as_utf8(arg: str) -> str:
    """A command-line argument as UTF-8 text, as catalog files are read,
    whatever locale decoded the command line."""
    try:
        return os.fsencode(arg).decode("utf-8", "surrogateescape")
    except UnicodeEncodeError:  # text passed in process, not from the command line
        return arg


def _lookup(
    arg: str, entries: list[cat.CatalogEntry], dims: dict[str, int]
) -> tuple[str, Algebra]:
    name = _as_utf8(arg)
    if name in dims:
        return name, cat.resolve_named(entries, name)
    p = Path(arg)
    if not p.exists():
        raise UsageError(f"unknown algebra {name!r}")
    try:
        file_entries = cat.parse_catalog_file(p)
        cat.check_references(file_entries, dims)
    except cat.CatalogError as exc:
        raise UsageError(str(exc)) from exc
    except OSError as exc:
        raise UsageError(f"cannot read {arg}: {exc}") from exc
    if not file_entries:
        raise UsageError(f"no entries in {arg}")
    last = file_entries[-1].name
    return last, cat.resolve_named(entries + file_entries, last)


def cmd_verify(args) -> int:
    entries = _load_entries(args.dir)
    report = cat.verify_catalog(entries, deep=args.deep, budget=args.budget)
    print(report.text())
    if args.summary:
        try:
            Path(args.summary).write_text("\n".join(report.summary_lines()) + "\n",
                                          encoding="utf-8")
        except OSError as exc:
            raise UsageError(f"cannot write {args.summary}: {exc}") from exc
    return 1 if report.fatal else 0


def cmd_invariants(args) -> int:
    [(_, a)] = _lookup_named(args.dir, args.name)
    pp = power_profile(a)
    rad, rad_alg, _ = radical_split(a)
    print(f"dim      {a.dim}")
    print(f"powers   J^1..J^4 dims {','.join(str(d) for d in pp.assoc_dims)}")
    print(f"lcs      J<1>..J<4> dims {','.join(str(d) for d in pp.lcs_dims)}")
    print(f"nilindex {pp.nilindex if pp.nilindex is not None else '-'}")
    print(f"ann      {annihilator(a).dim}")
    print(f"der      {derivation_dim(a)}")
    nt = ",".join(str(x) for x in nilpotency_type(rad_alg))
    print(f"radical  dim {rad.dim}, nilpotency type ({nt})")
    print(f"flags    {' '.join(cat.computed_flags(a))}")
    print(f"tracerk  {a.dim - rad.dim}")  # the radical is the trace-form kernel
    return 0


def cmd_fingerprint(args) -> int:
    [(_, a)] = _lookup_named(args.dir, args.name)
    fp = fingerprint(a)
    if args.deep:
        fp = replace(fp, b2_embeds=embeds_b2(a, budget=args.budget).answer)
    print(f"{args.name} {fp.render()}")
    return 0


def cmd_fingerprint_all(args) -> int:
    entries = _load_entries(args.dir)
    env = cat.resolve_all(entries)
    dim4 = [e.name for e in cat.catalog_order(entries) if env[e.name].dim == 4]
    fps: dict[str, Fingerprint] = {name: fingerprint(env[name]) for name in dim4}
    groups: dict[tuple, list[str]] = {}
    for name in dim4:
        groups.setdefault(fps[name].key(), []).append(name)
    for names in groups.values():
        if len(names) > 1:
            deep = {n: replace(fps[n], b2_embeds=embeds_b2(env[n], budget=args.budget).answer)
                    for n in names}
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
    [(_, a), (_, b)] = _lookup_named(args.dir, args.a, args.b)
    fa, fb = fingerprint(a), fingerprint(b)
    diff = first_fingerprint_difference(fa, fb)
    if diff is None or diff[0] == "dim_h2":
        # shallow fields and radical record tie: bring in the embedding
        # decision before falling back to the cohomology dimension
        fa = replace(fa, b2_embeds=embeds_b2(a, budget=args.budget).answer)
        fb = replace(fb, b2_embeds=embeds_b2(b, budget=args.budget).answer)
        diff = first_fingerprint_difference(fa, fb)
    msg = difference_message(diff)
    if msg is None:
        print("INDISTINGUISHABLE by implemented invariants")
    else:
        print(msg)
    return 0


def cmd_peirce(args) -> int:
    [(_, a)] = _lookup_named(args.dir, args.name)
    try:
        e = parse_linear_combination(a, _as_utf8(args.idempotent))
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
    names = {Fraction(1): "J_1", Fraction(1, 2): "J_1/2", Fraction(0): "J_0"}
    for lam in EIGENVALUES:
        space = decomp.components[lam]
        if space.dim == 0:
            print(f"{names[lam]}: 0")
        else:
            rows = "; ".join(a.format_element(r) for r in space.rows)
            print(f"{names[lam]}: dim {space.dim}, span {{{rows}}}")
    print("eigenspace multiplication rules: all confirmed")
    return 0


def cmd_h2(args) -> int:
    [(_, a)] = _lookup_named(args.dir, args.name)
    cs = h2_dims(a)
    print(f"z2={cs.z2_dim} b2={cs.b2_dim} h2={cs.h2_dim}")
    return 0


EXHAUSTION = {"budget": "the S-pair budget", "coeff_bits": "the coefficient-size guard"}


def cmd_embed_b2(args) -> int:
    [(_, a)] = _lookup_named(args.dir, args.name)
    res = embeds_b2(a, budget=args.budget)
    if res.witness is not None:
        e, y = res.witness
        print(f"{res.answer} (e = {a.format_element(e)}, y = {a.format_element(y)})")
    else:
        print(res.answer)
    for chart in res.charts:
        if chart.answer == "inconclusive":
            print(f"chart y[{chart.label}] = 1: stopped by {EXHAUSTION[chart.reason]}"
                  f" after {chart.pairs_reduced} S-pair reductions", file=sys.stderr)
    return 0


def cmd_show(args) -> int:
    [(name, a)] = _lookup_named(args.dir, args.name)
    print(cat.serialize_entry(name, a), end="")
    return 0


def _budget(text: str) -> int:
    """The `--budget` value: an S-pair count, 0 or more."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"not a non-negative integer: {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jordanalg",
        description="Exact verification toolkit for the bundled Jordan-algebra catalog.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    groebner = ("verify", "fingerprint", "fingerprint-all", "distinguish", "embed-b2")

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--dir", help="catalog directory (defaults to the bundled catalog)")
        if name in groebner:  # the commands that may run `embeds_b2`
            p.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET,
                           help="S-pair budget for Groebner runs")
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


PARSER = build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = PARSER.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        status = args.fn(args)
        sys.stdout.flush()  # so that a closed pipe is met here, not at exit
        return status
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (UnicodeEncodeError, BrokenPipeError) as exc:
        # a name the locale cannot encode, or a reader that closed the pipe;
        # then stdout goes to devnull, so its flush at exit cannot fail again
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        if isinstance(exc, BrokenPipeError):
            with suppress(OSError):  # a stdout with no file descriptor
                fd = sys.stdout.fileno()
                os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
        return 2
    except (cat.CatalogError, AlgebraError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
