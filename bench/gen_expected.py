"""Regenerate the expected answers in bench/expected/ and cross-check them.

    python3 bench/gen_expected.py

Each answer is computed once by the code under benchmark, then checked
against facts that do not depend on that code: the catalog's `expect`
records, exactly the nine known annihilator errata, 73 pairwise-distinct
four-dimensional fingerprints, basis invariance of every fingerprint under
dense basis changes, and every `expect b2` record.  Nothing is written
unless every check passes.
"""

import json
import re
import sys

from worker import EXPECTED, import_package

ERRATA = {"J41", "J50", "J62", "J63", "J64", "J65", "J66", "J70", "J71"}
DENSE_CHECK_SEEDS = (1, 2)


def fail(message: str) -> None:
    raise SystemExit(f"cross-check failed: {message}")


def catalog_answers() -> dict:
    from workloads import CatalogWorkload

    wl = CatalogWorkload(0)
    out = {}
    for item in wl.items:
        out[item.answer_key] = wl.answer(item.payload, wl.run(item.payload))
        if out[item.answer_key]["exit"] != 0 or out[item.answer_key]["stderr"]:
            fail(f"{item.key} exited {out[item.answer_key]['exit']}")
    return out


def _field(text: str, label: str) -> str:
    m = re.search(rf"^{label}\s+(.*)$", text, re.M)
    if m is None:
        fail(f"no {label!r} line in {text!r}")
    return m.group(1)


def check_catalog(answers: dict, entries, b2: dict) -> None:
    """Recorded expectations against the CLI's answers."""
    errata = set()
    for e in entries:
        exp = e.expected
        inv = answers[f"invariants {e.name}"]["stdout"]
        if exp.aut is not None and int(_field(inv, "der")) != exp.aut:
            fail(f"{e.name}: der {_field(inv, 'der')} != recorded aut {exp.aut}")
        if exp.ann is not None and int(_field(inv, "ann")) != exp.ann:
            errata.add(e.name)
        if exp.sq is not None and int(_field(inv, "powers").split()[-1].split(",")[1]) != exp.sq:
            fail(f"{e.name}: J^2 dimension != recorded sq {exp.sq}")
        flags = set(_field(inv, "flags").split())
        for flag in exp.flags:
            if flag not in flags:
                fail(f"{e.name}: recorded flag {flag} not in {sorted(flags)}")
        if exp.niltype is not None:
            rad = _field(inv, "radical")
            if f"nilpotency type ({','.join(map(str, exp.niltype))})" not in rad or \
                    "nilpotent" not in flags:
                fail(f"{e.name}: recorded niltype {exp.niltype}, got {rad!r}")
        if exp.h2 is not None:
            h2 = int(answers[f"h2 {e.name}"]["stdout"].split("h2=")[1])
            want_ok = {"zero": h2 == 0, "nonzero": h2 > 0}.get(exp.h2, str(h2) == exp.h2)
            if not want_ok:
                fail(f"{e.name}: h2={h2}, recorded {exp.h2}")
        if exp.b2 is not None and b2[e.name] != exp.b2:
            fail(f"{e.name}: b2 {b2[e.name]}, recorded {exp.b2}")
    if errata != ERRATA:
        fail(f"annihilator errata {sorted(errata)} != {sorted(ERRATA)}")
    verify = answers["verify --deep"]["stdout"]
    listed = set(re.findall(r"^  (\w+): (\w+): recorded", verify, re.M))
    deep_pass = "deep checks (h2 / b2 / radical type): all PASS" in verify
    if listed != {(n, "ann") for n in ERRATA} or not deep_pass:
        fail("verify --deep does not report exactly the nine errata and passing deep checks")

    dim4 = [e.name for e in entries if "dim      4\n" in answers[f"invariants {e.name}"]["stdout"]]
    lines = [answers[f"fingerprint {n}"]["stdout"].split(" ", 1)[1] for n in dim4]
    if len(dim4) != 73 or len(set(lines)) != 73:
        fail(f"{len(set(lines))} distinct fingerprints over {len(dim4)} four-dimensional entries")
    fp_all = answers["fingerprint-all"]["stdout"]
    if not fp_all.endswith("73 fingerprints, pairwise distinct: yes\n"):
        fail("fingerprint-all does not certify 73 distinct fingerprints")
    for n in dim4:
        if answers[f"fingerprint {n}"]["stdout"] not in fp_all:
            fail(f"fingerprint {n} differs from its fingerprint-all line")


def dense_answers(catalog: dict) -> dict:
    """Catalog-basis fingerprints, checked against every dense presentation."""
    from jordanalg import invariants
    from jordanalg.algebra import Algebra
    from workloads import DenseWorkload, fingerprint_answer, catalog_tables

    out = {}
    for name, labels, table in catalog_tables():
        out[name] = fingerprint_answer(invariants.fingerprint(Algebra(labels, table)))
        if f"{name} {out[name]['render']}\n" != catalog[f"fingerprint {name}"]["stdout"]:
            fail(f"{name}: library fingerprint differs from the CLI's")
    for seed in DENSE_CHECK_SEEDS:
        wl = DenseWorkload(seed)
        for item in wl.items:
            if wl.answer(item.payload, wl.run(item.payload)) != out[item.answer_key]:
                fail(f"{item.key} (seed {seed}): fingerprint not basis invariant")
    return out


def embed_answers() -> dict:
    from workloads import EmbedWorkload

    wl = EmbedWorkload(0)
    out = {}
    for item in wl.items:
        out[item.answer_key] = wl.answer(item.payload, wl.run(item.payload))
        if out[item.answer_key] not in ("yes", "no"):
            fail(f"embeds_b2({item.key}) = {out[item.answer_key]}")
    return out


def main() -> int:
    import_package()
    from jordanalg import catalog

    entries = catalog.catalog_order(catalog.load_catalog())
    answers = {"catalog": catalog_answers(), "embed": embed_answers()}
    check_catalog(answers["catalog"], entries, answers["embed"])
    answers["dense"] = dense_answers(answers["catalog"])
    EXPECTED.mkdir(exist_ok=True)
    for name, data in answers.items():
        with open(EXPECTED / f"{name}.json", "w") as f:
            json.dump(data, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"{name}: {len(data)} expected answers", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
